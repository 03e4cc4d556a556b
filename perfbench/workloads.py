"""Seeded job lists for the four benchmark workloads, with per-job checks.

Every input (kernel, (B, u) pair, multiplicative spec, CLI argument file) is
generated from the seed before timing starts; a job only calls the library
with those inputs.  Each workload is a fixed job list made of *passes*; a
pass holds one job of every kind the workload mixes, and the list is sized
to take somewhat longer than a run's measuring time at this commit.  Within
the list, the sizes that drive the cost (B, the number of kernel levels, u)
follow golden-ratio sequences, so every seed's list covers their range
evenly and the cost of a list varies little from seed to seed.

Checks use tolerances and references that do not come from the code under
test (closed forms, printed constants, an independent solve), never
bit-equality with earlier outputs, so a faster algorithm can still pass.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from meanspec import arithmetic_oracle as oracle
from meanspec import cli
from meanspec import dde_solver
from meanspec import extremal_search as extremal
from meanspec import kernels
from meanspec import series_bounds as series
from meanspec import spectrum_region as region
from meanspec.kernels import StepFunction

SQRT_E = math.exp(0.5)
GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Printed constants of the theory, used as references independent of the code.
DELTA1 = -0.656999
DELTA0 = 0.171500
POWER_RESIDUE_BOUNDS = {3: 0.3245, 4: 0.2187, 5: 0.14792, 6: 0.1003}


class CheckFailed(Exception):
    """A job's output is outside its stated tolerance."""


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Job:
    kind: str
    params: dict
    run: Callable[[], object]
    check: Callable[[object], None] = field(repr=False)


@dataclass(frozen=True)
class Workload:
    warmup: list  # one untimed job per job kind
    passes: list  # the fixed job list, as passes of one job per kind

    @property
    def jobs(self) -> list:
        return [job for p in self.passes for job in p]


class _Spread:
    """Golden-ratio sequence in [0, 1) from a seeded offset, one per stream."""

    def __init__(self, rng, streams: int):
        self.offsets = rng.random(streams)

    def __call__(self, stream: int, k: int) -> float:
        return float((self.offsets[stream] + k * GOLDEN) % 1.0)


def random_kernel(rng, n_levels: int, align: float, span: float,
                  complex_values: bool = False) -> StepFunction:
    """Step kernel: 1 on [0, 1), then n_levels seeded values on [1, oo).

    Breakpoints lie on the align grid inside [1, span).  Complex values are
    drawn from the square hull of {1, -1, i, -i}.
    """
    lo = round(1.0 / align)
    hi = round(span / align)
    marks = np.sort(rng.choice(hi - lo, size=n_levels, replace=False) + lo)
    if complex_values:
        vals = []
        while len(vals) < n_levels:
            x, y = rng.uniform(-1.0, 1.0, 2)
            if abs(x) + abs(y) <= 1.0:
                vals.append(complex(x, y))
    else:
        vals = [float(v) for v in rng.uniform(-1.0, 1.0, n_levels)]
    breaks = tuple(round(float(m) * align, 12) for m in marks)
    return StepFunction(breaks, (1.0,) + tuple(vals[:-1]), vals[-1])


def kernel_params(chi: StepFunction) -> dict:
    return json.loads(chi.to_json())


# ---------------------------------------------------------------- search

SEARCH_U = (1.5, 2.0, 3.0)
#: Smallest B per u.  Below B*u of about 1.8 the minimum of sigma(B*u) over
#: truncated sign kernels is positive and the search rejects it by contract,
#: so the workload keeps B*u >= 2.
SEARCH_B_LO = {1.5: 4.0 / 3.0, 2.0: 1.0, 3.0: 1.0}
SEARCH_B_HI = 2.0


def search_job(B: float, u: float, seed: int) -> Job:
    def run():
        return extremal.truncated_kernel_min_mean(
            B, m_steps=6, u_grid=(u,), restarts=3, h=1e-3, seed=seed, sweeps=2)

    def check(r):
        rho_b = 1.0 - math.log(B)  # Dickman rho on [1, 2]
        require(-rho_b - 1e-4 <= r.value < 0.0,
                f"min {r.value:.6f} outside [-rho(B) - 1e-4, 0) = [{-rho_b - 1e-4:.6f}, 0)")
        if B == 1.0 and u == 2.0:
            cap = 1.0 - 2.0 * math.log(2.0) + 1e-6
            require(r.value <= cap, f"min {r.value:.6f} above 1 - 2 log 2")

    return Job("search", {"B": B, "u": u, "seed": seed}, run, check)


#: Half-width of the seeded jitter around each B of the grid.  A search job
#: is long, so a run holds sixteen of them and its tail latency is a
#: low order statistic; a wider draw of B would let the tail follow the
#: seed rather than the code.
SEARCH_B_JITTER = 0.02
SEARCH_PASSES = 4


def build_search(rng, workdir: str) -> Workload:
    """Passes of one job per u plus the criterion-7 anchor B = 1, u = 2.

    B walks a fixed golden-ratio grid over [B_lo(u), 2], jittered by the
    seed, so every seed's list covers the same spread of B; the seed sets
    the order of the jobs and the optimizer's restart seeds.  The anchor,
    the cheapest job, has a closed-form check and gives the low end of the
    latency distribution more than one sample.
    """
    passes = []
    for p in range(SEARCH_PASSES):
        jobs = [search_job(1.0, 2.0, int(rng.integers(2 ** 31)))]
        for i in range(len(SEARCH_U)):
            u = SEARCH_U[i]
            lo = SEARCH_B_LO[u]
            frac = ((i + 0.5) / len(SEARCH_U) + p * GOLDEN) % 1.0
            B = lo + (SEARCH_B_HI - lo) * frac + rng.uniform(-SEARCH_B_JITTER, SEARCH_B_JITTER)
            jobs.append(search_job(min(max(B, lo), SEARCH_B_HI), u,
                                   int(rng.integers(2 ** 31))))
        passes.append([jobs[i] for i in rng.permutation(len(jobs))])
    warmup = [search_job(1.0, 2.0, int(rng.integers(2 ** 31)))]
    return Workload(warmup, passes)


# ------------------------------------------------------------- envelopes

ENV_H = 1e-4
ENV_UMAX = 8.0
ENV_SLACK = 1e-6


def _independent_sigma(chi: StepFunction, n: int) -> np.ndarray:
    return dde_solver.solve_sigma(chi, ENV_UMAX, ENV_H).sigma.samples[:n]


def sandwich_job(chi: StepFunction) -> Job:
    def run():
        return series.sandwich(chi, 12, ENV_UMAX, ENV_H, slack=ENV_SLACK)

    def check(rep):
        lower = rep.lower.samples.real
        upper = rep.upper.samples.real
        s = _independent_sigma(chi, len(lower)).real
        worst = max(float(np.max(lower - s)), float(np.max(s - upper)))
        require(worst <= ENV_SLACK, f"sandwich violated by {worst:.3e}")

    return Job("sandwich", {"chi": kernel_params(chi)}, run, check)


def complex_bounds_job(chi: StepFunction) -> Job:
    def run():
        return series.complex_bounds(chi, ENV_UMAX, ENV_H, slack=ENV_SLACK)

    def check(rep):
        lower = rep.lower.samples.real
        upper = rep.upper.samples.real
        c1 = rep.c_series[0].samples.real
        s = _independent_sigma(chi, len(lower))
        worst = max(float(np.max(lower - s.real)), float(np.max(s.real - upper)),
                    float(np.max(np.abs(s.imag) - c1)))
        require(worst <= ENV_SLACK, f"complex bounds violated by {worst:.3e}")

    return Job("complex_bounds", {"chi": kernel_params(chi)}, run, check)


def _env_levels(spread: _Spread, stream: int, k: int) -> int:
    return 2 + int(6 * spread(stream, k))  # 2..7 levels


ENV_PASSES = 12


def build_envelopes(rng, workdir: str) -> Workload:
    spread = _Spread(rng, 2)
    passes = []
    for p in range(ENV_PASSES):
        real = random_kernel(rng, _env_levels(spread, 0, p), ENV_H, 7.5)
        cplx = random_kernel(rng, _env_levels(spread, 1, p), ENV_H, 7.5, True)
        passes.append([sandwich_job(real), complex_bounds_job(cplx)])
    warmup = [sandwich_job(random_kernel(rng, 4, ENV_H, 7.5)),
              complex_bounds_job(random_kernel(rng, 4, ENV_H, 7.5, True))]
    return Workload(warmup, passes)


# ----------------------------------------------------------------- sieve

CHI_MINUS = StepFunction((1.0,), (1.0,), -1.0)


def _is_integer_sum(z: complex) -> bool:
    return z.imag == 0.0 and float(z.real).is_integer()


def sieve_job(kind: str, spec, x: int, params: dict, extremal_mean: bool = False) -> Job:
    real_valued = bool(params.get("real_valued"))

    def run():
        return oracle.sieve_sums(spec, x)

    def check(res):
        require(res.x == x, "wrong x")
        require(all(map(math.isfinite, (res.partial_sum.real, res.partial_sum.imag,
                                        res.log_sum.real, res.log_sum.imag))),
                "non-finite sums")
        require(abs(res.partial_sum) <= x, "partial sum above the trivial bound x")
        if real_valued:
            require(_is_integer_sum(res.partial_sum),
                    f"real-valued f gave a non-integer partial sum {res.partial_sum}")
        if extremal_mean:
            mean = res.partial_sum.real / x
            require(abs(mean - DELTA1) <= 0.05,
                    f"extremal mean {mean:.4f} not within 0.05 of delta1")

    return Job(kind, dict(params, x=x), run, check)


def step_spec(rng, x: int, spread: _Spread, k: int):
    """Step-mode spec with levels in {-1, 0, 1} and y set so u in [1.5, 3]."""
    u = 1.5 + 1.5 * spread(0, k)
    n_breaks = int(rng.integers(1, 4))
    breaks = np.sort(rng.choice(np.arange(1000, round(u * 1000)), n_breaks,
                                replace=False)) / 1000.0
    levels = [float(v) for v in rng.choice([-1.0, 0.0, 1.0], n_breaks)]
    chi = StepFunction(tuple(float(b) for b in breaks),
                       (1.0,) + tuple(levels[:-1]), levels[-1])
    y = x ** (1.0 / u)
    return (oracle.MultiplicativeSpec.step(chi, y),
            {"mode": "step", "chi": kernel_params(chi), "y": y, "real_valued": True})


def sign_table_spec(rng, spread: _Spread, k: int):
    """Table-mode spec with seeded +-1 values up to a seeded prime bound."""
    bound = int(10 ** (1.5 + 1.5 * spread(1, k)))  # primes up to 31..1000
    ps = oracle.primes_upto(bound)
    signs = rng.choice([-1.0, 1.0], len(ps))
    default = float(rng.choice([-1.0, 1.0]))
    table = {int(p): float(s) for p, s in zip(ps, signs)}
    return (oracle.MultiplicativeSpec.from_table(table, default),
            {"mode": "table", "bound": bound, "default": default, "real_valued": True})


def root_table_spec(rng, m: int):
    """Table-mode spec with seeded m-th roots of unity on the primes up to 50."""
    w = complex(math.cos(2 * math.pi / m), math.sin(2 * math.pi / m))
    ps = oracle.primes_upto(50)
    exps = rng.integers(0, m, len(ps))
    default_exp = int(rng.integers(0, m))
    table = {int(p): w ** int(e) for p, e in zip(ps, exps)}
    return (oracle.MultiplicativeSpec.from_table(table, w ** default_exp),
            {"mode": "roots", "m": m, "exponents": [int(e) for e in exps],
             "default_exp": default_exp})


def density_job(rng, m: int, x: int) -> Job:
    spec, params = root_table_spec(rng, m)

    def run():
        return oracle.mth_root_log_density(spec, x, m)

    def check(d):
        require(math.isfinite(d) and d >= 1.0 / m - 0.02,
                f"density {d:.4f} below 1/{m} - 0.02")

    return Job("density", dict(params, x=x), run, check)


def naive_agreement_job(rng) -> Job:
    """Small-x sieve whose sums must equal the per-n reference exactly."""
    spread = _Spread(rng, 2)
    spec, params = sign_table_spec(rng, spread, 0)
    x = 3000

    def run():
        return oracle.sieve_sums(spec, x)

    def check(res):
        partial, logsum = oracle.naive_sums(spec, x)
        require(res.partial_sum == partial,
                f"sieve sum {res.partial_sum} != per-n sum {partial}")
        require(abs(res.log_sum - logsum) <= 1e-9 * max(1.0, abs(logsum)),
                "log sums disagree with the per-n reference")

    return Job("sieve_small", dict(params, x=x), run, check)


SIEVE_X_LARGE = 10 ** 7
SIEVE_X_SMALL = 10 ** 6
SIEVE_PASSES = 3


def build_sieve(rng, workdir: str) -> Workload:
    spread = _Spread(rng, 2)
    y_extremal = SIEVE_X_LARGE ** (1.0 / (1.0 + SQRT_E))
    passes = []
    for p in range(SIEVE_PASSES):
        if p % 2 == 0:
            big = sieve_job("sieve_1e7", oracle.MultiplicativeSpec.step(CHI_MINUS, y_extremal),
                            SIEVE_X_LARGE, {"mode": "step", "extremal": True,
                                            "y": y_extremal, "real_valued": True},
                            extremal_mean=True)
        else:
            spec, params = step_spec(rng, SIEVE_X_LARGE, spread, p)
            big = sieve_job("sieve_1e7", spec, SIEVE_X_LARGE, params)
        step, step_params = step_spec(rng, SIEVE_X_SMALL, spread, p + SIEVE_PASSES)
        signs, sign_params = sign_table_spec(rng, spread, p)
        roots, root_params = root_table_spec(rng, (3, 4, 6)[p % 3])
        passes.append([
            big,
            sieve_job("sieve_1e6", step, SIEVE_X_SMALL, step_params),
            sieve_job("sieve_1e6", signs, SIEVE_X_SMALL, sign_params),
            sieve_job("sieve_1e6", roots, SIEVE_X_SMALL, root_params),
            density_job(rng, (2, 3, 4)[p % 3], SIEVE_X_SMALL),
        ])
    step, step_params = step_spec(rng, SIEVE_X_SMALL, spread, 0)
    warmup = [naive_agreement_job(rng),
              sieve_job("sieve_1e6", step, SIEVE_X_SMALL, step_params),
              density_job(rng, 2, SIEVE_X_SMALL)]
    return Workload(warmup, passes)


# ------------------------------------------------------------------ desk


def _read(path: str) -> str:
    with open(path) as fh:
        return fh.read()


def _parse_points_csv(text: str, header) -> list:
    rows = list(csv.reader(io.StringIO(text)))
    require(rows and rows[0] == header, f"CSV header {rows[:1]} != {header}")
    return [[float(v) for v in row] for row in rows[1:]]


def _in_disc(points, tol: float = 1e-9) -> bool:
    return all(math.hypot(p[-2], p[-1]) <= 1.0 + tol for p in points)


def cli_job(kind: str, argv: list, out: str, check_artifact, params: dict) -> Job:
    def run():
        return cli.main(argv)

    def check(code):
        require(code == 0, f"meanspec {argv[0]} exited {code}")
        check_artifact(_read(out))

    return Job(kind, dict(params, argv=argv), run, check)


def _write_json(path: str, text: str) -> str:
    with open(path, "w") as fh:
        fh.write(text)
    return path


def desk_pass(rng, p: int, spread: _Spread, workdir: str) -> list:
    d = os.path.join(workdir, f"pass{p:03d}")
    os.makedirs(d, exist_ok=True)

    def out(name):
        return os.path.join(d, name)

    jobs = []

    chi = random_kernel(rng, 2 + int(6 * spread(0, p)), 1e-3, 7.5)
    chi_path = _write_json(out("solve_chi.json"), chi.to_json())

    def check_solve(text):
        rows = _parse_points_csv(text, ["u", "re", "im"])
        require(len(rows) == 8001, f"{len(rows)} grid rows, expected 8001")
        require(_in_disc(rows), "|sigma| above 1")
        require(all(r[1] == 1.0 and r[2] == 0.0 for r in rows[:1001]),
                "sigma != 1 on [0, 1]")

    jobs.append(cli_job("cli_solve", ["solve", "--chi", chi_path, "--umax", "8",
                                      "--h", "1e-3", "--out", out("sigma.csv")],
                        out("sigma.csv"), check_solve, {"chi": kernel_params(chi)}))

    def check_bounds(k_max):
        def check(text):
            rep = json.loads(text)
            require(rep["k_max"] == k_max, "wrong k_max")
            lower, upper = np.asarray(rep["lower_re"]), np.asarray(rep["upper_re"])
            require(len(lower) == 8001 and np.all(lower <= upper + 1e-12),
                    "envelope lower above upper")
        return check

    real = random_kernel(rng, 2 + int(6 * spread(1, p)), 1e-3, 7.5)
    cplx = random_kernel(rng, 2 + int(6 * spread(2, p)), 1e-3, 7.5, True)
    for kind, k, k_max in (("cli_bounds_real", real, 12), ("cli_bounds_complex", cplx, 2)):
        path = _write_json(out(f"{kind}.json"), k.to_json())
        report = out(f"{kind}_report.json")
        jobs.append(cli_job(kind, ["bounds", "--chi", path, "--kmax", "12", "--umax", "8",
                                   "--out", report],
                            report, check_bounds(k_max), {"chi": kernel_params(k)}))

    def check_constants(text):
        c = json.loads(text)
        require(abs(c["delta1"] - DELTA1) <= 1e-6 and abs(c["delta0"] - DELTA0) <= 1e-6,
                f"constants {c['delta1']}, {c['delta0']} off the printed values")

    jobs.append(cli_job("cli_constants", ["constants", "--format", "json",
                                          "--out", out("constants.json")],
                        out("constants.json"), check_constants, {}))

    def check_gamma_prime(text):
        g = json.loads(text)
        for m, target in POWER_RESIDUE_BOUNDS.items():
            require(abs(g[str(m)]["bound"] - target) <= 5e-4,
                    f"gamma'({m}) = {g[str(m)]['bound']} off {target}")

    jobs.append(cli_job("cli_gamma_prime", ["gamma-prime", "--m", "3..6",
                                            "--out", out("gamma_prime.json")],
                        out("gamma_prime.json"), check_gamma_prime, {}))

    def check_points(text):
        pts = _parse_points_csv(text, ["re", "im"])
        require(len(pts) > 0 and _in_disc(pts), "region points outside the unit disc")

    k_roots = 3 + int(6 * spread(3, p))  # 3..8
    jobs.append(cli_job("cli_spirals", ["spectrum", "--set", f"sk:{k_roots}", "--what",
                                        "spirals", "--out", out("spirals.csv")],
                        out("spirals.csv"), check_points, {"k": k_roots}))

    lo = round(-1.0 + 0.9 * spread(4, p), 2)

    def check_logregion(text):
        poly = json.loads(text)["vertices"]
        require(len(poly) >= 2 and poly[0] == poly[-1] and _in_disc(poly),
                "log region polygon not closed or outside the disc")

    jobs.append(cli_job("cli_logregion", ["spectrum", "--set", f"interval:{lo},1",
                                          "--what", "logregion",
                                          "--out", out("logregion.json")],
                        out("logregion.json"), check_logregion, {"lo": lo}))

    theta = round(0.3 + 1.0 * spread(5, p), 3)
    jobs.append(cli_job("cli_contour", ["spectrum", "--set", f"sector:{theta}", "--what",
                                        "contour", "--out", out("contour.csv")],
                        out("contour.csv"), check_points, {"theta": theta}))

    u = 1.5 + 1.5 * spread(6, p)
    ochi = random_kernel(rng, 2 + int(3 * spread(7, p)), 1e-3, u)
    spec = oracle.MultiplicativeSpec.step(ochi, 1e6 ** (1.0 / u))
    spec_path = _write_json(out("spec.json"), spec.to_json())

    def check_oracle(text):
        r = json.loads(text)
        require(r["x"] == 10 ** 6 and math.hypot(*r["mean"]) <= 1.0 + 1e-12,
                "oracle mean outside the unit disc")
        require(math.isfinite(r["compare_sigma"]["gap"]), "no solver comparison")

    jobs.append(cli_job("cli_oracle", ["oracle", "--spec", spec_path, "--x", "1e6",
                                       "--compare-sigma", "--out", out("oracle.json")],
                        out("oracle.json"), check_oracle, {"spec": json.loads(spec.to_json())}))

    jobs.extend(desk_library_jobs(rng, p, spread))
    return jobs


def desk_library_jobs(rng, p: int, spread: _Spread) -> list:
    jobs = []

    def check_delta(consts):
        d1, d0i, d0s = consts
        require(abs(d1 - DELTA1) <= 1e-6 and abs(d0i - DELTA0) <= 1e-6
                and abs(d0i - d0s) <= 1e-9, "delta constants off")

    jobs.append(Job("delta_constants", {}, lambda: extremal.delta_constants(), check_delta))

    u_rho = round(10.0 + 10.0 * spread(8, p), 3)  # up to u = 20
    u_minus = round(3.0 + 3.0 * spread(9, p), 3)

    def run_delay():
        return (kernels.dickman_rho_grid(u_rho, 1e-4), kernels.rho_minus_grid(u_minus, 1e-4),
                kernels.rho_minus(SQRT_E, 1e-4), kernels.rho_minus(1.0 + SQRT_E, 1e-4))

    def check_delay(out):
        rho, minus, at_root, at_min = out
        for grid, tail, u_max in ((rho, 0.0, u_rho), (minus, -1.0, u_minus)):
            ref = dde_solver.solve_sigma(StepFunction((1.0,), (1.0,), tail), u_max, 1e-4)
            n = min(len(grid.samples), len(ref.sigma.samples))
            gap = float(np.max(np.abs(grid.samples[:n] - ref.sigma.samples[:n])))
            require(gap <= 5e-6, f"delay grid differs from the solver by {gap:.2e}")
        require(abs(at_root) <= 1e-6, f"rho_minus(sqrt e) = {at_root:.2e}")
        require(abs(at_min - DELTA1) <= 2e-6, f"rho_minus(1 + sqrt e) = {at_min:.7f}")

    jobs.append(Job("delay_functions", {"u_rho": u_rho, "u_minus": u_minus},
                    run_delay, check_delay))

    for i in range(3):
        chi = random_kernel(rng, 8, 1e-3, 10.0)

        def run_range(chi=chi):
            return dde_solver.solve_sigma(chi, 10.0, 1e-3)

        def check_range(sol):
            s = sol.sigma.samples.real
            require(float(s.min()) >= DELTA1 - 1e-4 and float(s.max()) <= 1.0 + 1e-9,
                    f"sigma range [{s.min():.6f}, {s.max():.6f}] outside [delta1, 1]")

        jobs.append(Job("real_range_solve", {"chi": kernel_params(chi)}, run_range,
                        check_range))

    m = 3 + int(4 * spread(10, p))  # 3..6

    def run_minimizations():
        return (extremal.power_residue_log_density_bound(m),
                extremal.projection_auxiliary_minimum(),
                extremal.log_gap_endpoint_values())

    def check_minimizations(out):
        bound, proj, (v1, v2) = out
        require(abs(bound.value - POWER_RESIDUE_BOUNDS[m]) <= 5e-4, "density bound off")
        require(abs(proj.argmin - 0.08055) <= 1e-4 and proj.value >= 112.0 / 411.0,
                "projection minimum off")
        require(abs(v1 - 0.19) <= 5e-3 and abs(v2 - 0.1829) <= 5e-4,
                "log-gap endpoint values off")

    jobs.append(Job("minimizations", {"m": m}, run_minimizations, check_minimizations))

    w_max = round(8.0 + 4.0 * spread(11, p), 3)

    def check_sign_changes(rep):
        require(len(rep.brackets) >= 3 and rep.identity_residual <= 1e-6,
                f"{len(rep.brackets)} sign changes, residual {rep.identity_residual:.1e}")

    jobs.append(Job("sign_changes", {"w_max": w_max},
                    lambda: extremal.minus_kernel_sign_changes(w_max, 1e-4),
                    check_sign_changes))

    k_set = 4 + int(5 * spread(12, p))  # 4..8

    def run_containment():
        S = region.SetSpec.roots_of_unity(k_set)
        return region.containment_report(region.euler_spiral_cloud(S, 8.0), S)

    def check_containment(rep):
        require(rep["total_violations"] == 0,
                f"{rep['total_violations']} containment violations")

    jobs.append(Job("containment", {"k": k_set}, run_containment, check_containment))
    return jobs


DESK_PASSES = 12


def build_desk(rng, workdir: str) -> Workload:
    spread = _Spread(rng, 13)
    passes = [desk_pass(rng, p, spread, workdir) for p in range(DESK_PASSES)]
    warmup = desk_pass(rng, DESK_PASSES, _Spread(rng, 13), workdir)
    return Workload(warmup, passes)


BUILDERS = {
    "search": build_search,
    "envelopes": build_envelopes,
    "sieve": build_sieve,
    "desk": build_desk,
}


def build(name: str, seed: int, workdir: str) -> Workload:
    """The workload's warm-up jobs and fixed job list, all inputs drawn from seed."""
    rng = np.random.default_rng([seed, sorted(BUILDERS).index(name)])
    return BUILDERS[name](rng, workdir)
