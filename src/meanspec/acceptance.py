"""The acceptance suite: one callable per criterion, shared by CLI and tests.

Each check returns a CheckResult with a pass flag and a short detail line;
tolerances are pinned here and nowhere else.  The quick suite runs
everything except the x = 10^7 sieve comparisons.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from . import arithmetic_oracle as oracle
from . import extremal_search as extremal
from . import series_bounds as series
from . import spectrum_region as region
from .dde_solver import perturbation_gap, solve_sigma
from .errors import ContractError
from .kernels import (SQRT_E, StepFunction, _taylor_plan, dickman_rho, dickman_rho_grid,
                      rho_minus, rho_minus_correction, rho_minus_grid)

DELTA1_PRINTED = -0.656999
DELTA0_PRINTED = 0.171500

#: Criterion 3: the march's gap to the exact Taylor engine is at most C h^2.
EXACT_GAP_C = 0.5


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _run(name: str, body) -> CheckResult:
    t0 = time.perf_counter()
    try:
        passed, detail = body()
    except ContractError as exc:
        passed, detail = False, f"contract violated: {exc}"
    return CheckResult(name, passed, detail, time.perf_counter() - t0)


def random_real_kernel(rng, h_align: float, u_span: float, n_levels: int) -> StepFunction:
    """Step kernel with n_levels random values in [-1, 1] on [1, u_span]."""
    lo = round(1.0 / h_align)
    hi = round(u_span / h_align)
    marks = np.sort(rng.choice(np.arange(lo, hi), size=n_levels, replace=False))
    vals = rng.uniform(-1.0, 1.0, n_levels)
    return StepFunction(tuple(marks * h_align), (1.0,) + tuple(vals[:-1]), vals[-1])


def random_complex_kernel(rng, h_align: float, u_span: float, n_levels: int) -> StepFunction:
    """Step kernel with values in the square hull of {1, -1, i, -i}."""
    lo = round(1.0 / h_align)
    hi = round(u_span / h_align)
    marks = np.sort(rng.choice(np.arange(lo, hi), size=n_levels, replace=False))
    vals = []
    while len(vals) < n_levels:
        x, y = rng.uniform(-1.0, 1.0, 2)
        if abs(x) + abs(y) <= 1.0:
            vals.append(complex(x, y))
    return StepFunction(tuple(marks * h_align), (1.0,) + tuple(vals[:-1]), vals[-1])


def check_constants() -> CheckResult:
    def body():
        d1, d0i, d0s = extremal.delta_constants()
        ok = (abs(d1 - DELTA1_PRINTED) <= 1e-6
              and abs(d0i - DELTA0_PRINTED) <= 1e-6
              and abs(d0i - d0s) <= 1e-9)
        return ok, (f"delta1={d1:.9f} delta0={d0i:.9f} "
                    f"series gap={abs(d0i - d0s):.2e}")
    return _run("1 constants", body)


def check_delay_functions() -> CheckResult:
    def body():
        h = 1e-4
        v_zero = rho_minus(SQRT_E)
        d1 = extremal.delta_constants()[0]
        v_min = rho_minus(1.0 + SQRT_E)
        grid = dickman_rho_grid(20.0, h)
        integral = float(np.trapezoid(grid.samples, dx=grid.h))
        target = math.exp(np.euler_gamma)
        ok = (abs(v_zero) <= 1e-6 and abs(v_min - d1) <= 1e-6
              and abs(integral - target) <= 1e-5)
        return ok, (f"rho-(sqrt e)={v_zero:.2e} rho-(1+sqrt e)-delta1="
                    f"{v_min - d1:.2e} int rho err={integral - target:.2e}")
    return _run("2 delay functions", body)


def check_solver_cross() -> CheckResult:
    def body():
        h = 1e-4
        sol = solve_sigma(StepFunction((1.0,), (1.0,), -1.0), 4.0, h)
        gap_minus = float(np.max(np.abs(sol.sigma.samples
                                        - rho_minus_grid(4.0, h).samples)))
        sol = solve_sigma(StepFunction((1.0,), (1.0,), 0.0), 6.0, h)
        gap_rho = float(np.max(np.abs(sol.sigma.samples
                                      - dickman_rho_grid(6.0, h).samples)))
        rng = np.random.default_rng(0)
        ratios = []
        for _ in range(20):
            k = random_real_kernel(rng, 2e-3, 3.5, int(rng.integers(2, 7)))
            sols = [solve_sigma(k, 4.0, hh).sigma.samples
                    for hh in (2e-3, 1e-3, 5e-4)]
            d1 = np.max(np.abs(sols[0] - sols[1][::2]))
            d2 = np.max(np.abs(sols[1] - sols[2][::2]))
            ratios.append(d1 / d2)
        # |sigma - sigma_hat| <= u^chi0 - 1, chi0 = sup |chi - chi_hat|.
        gap, bound = perturbation_gap(StepFunction((1.0,), (1.0,), -1.0),
                                      StepFunction((1.0,), (1.0,), -0.9), 3.0, 1e-3)
        # An exact reference: on kernels with 6-24 breaks on the lattice 1/N
        # the march's gap to the Taylor engine falls like h^2, and its
        # Richardson extrapolation meets the engine.
        N, h = 20, 1.0 / 200
        scaled, exact_ratios, extrapolated = [], [], 0.0
        for make in (random_real_kernel, random_complex_kernel) * 5:
            k = make(rng, 1.0 / N, 3.5, int(rng.integers(6, 25)))
            segs = np.array(k.segment_values())
            coarse = solve_sigma(k, 4.0, h).sigma
            fine = solve_sigma(k, 4.0, h / 2).sigma.samples[::2]
            exact = _taylor_plan([round(b * N) for b in k.breaks], N, coarse.u)(
                segs.real if k.is_real else segs)
            gaps = [float(np.max(np.abs(s - exact))) for s in (coarse.samples, fine)]
            scaled.append(gaps[0] / h ** 2)
            exact_ratios.append(gaps[0] / gaps[1])
            extrapolated = max(extrapolated,
                               float(np.max(np.abs((4.0 * fine - coarse.samples) / 3.0 - exact))))
        ok = (gap_minus <= 5e-6 and gap_rho <= 5e-6
              and all(3.5 <= r <= 4.5 for r in ratios) and gap <= bound
              and max(scaled) <= EXACT_GAP_C and all(3.5 <= r <= 4.5 for r in exact_ratios)
              and extrapolated <= 1e-10)
        return ok, (f"sup gaps {gap_minus:.2e}/{gap_rho:.2e}, "
                    f"richardson in [{min(ratios):.3f}, {max(ratios):.3f}], "
                    f"perturbation gap {gap:.4f} <= {bound:.4f}, "
                    f"exact gap <= {max(scaled):.3f} h^2 (C = {EXACT_GAP_C}), "
                    f"ratios in [{min(exact_ratios):.3f}, {max(exact_ratios):.3f}], "
                    f"extrapolated {extrapolated:.1e} <= 1e-10")
    return _run("3 solver cross-check", body)


def check_sandwiches() -> CheckResult:
    def body():
        h = 1e-4
        rng = np.random.default_rng(1)
        for _ in range(25):
            k = random_real_kernel(rng, h, 7.5, int(rng.integers(2, 8)))
            series.sandwich(k, 12, 8.0, h, slack=1e-6)
        for _ in range(25):
            k = random_complex_kernel(rng, h, 7.5, int(rng.integers(2, 8)))
            series.complex_bounds(k, 8.0, h, slack=1e-6)
        return True, "0 violations over 25 real + 25 complex kernels"
    return _run("4 sandwich suite", body)


def check_real_range() -> CheckResult:
    def body():
        h = 1e-3
        d1 = extremal.delta_constants()[0]
        rng = np.random.default_rng(2)
        lo, hi = 1.0, 1.0
        for _ in range(50):
            k = random_real_kernel(rng, h, 10.0, 8)
            s = solve_sigma(k, 10.0, h).sigma.samples.real
            lo = min(lo, float(s.min()))
            hi = max(hi, float(s.max()))
        ok = lo >= d1 - 1e-4 and hi <= 1.0 + 1e-9
        return ok, f"sigma range [{lo:.6f}, {hi:.6f}] vs [{d1:.6f}, 1]"
    return _run("5 real-kernel range", body)


def _correction_integral() -> float:
    """int_{2/sqrt e}^{1 + 1/sqrt e} C(t sqrt e) dt, C = rho_minus_correction: by parts
    in v = t sqrt e, with C(2) = 0 and T = 1 + sqrt e, it is T C(T)/sqrt e + 2 - 4/sqrt e."""
    return (1.0 + SQRT_E) * rho_minus_correction(1.0 + SQRT_E) / SQRT_E + 2.0 - 4.0 / SQRT_E


def check_minimizations() -> CheckResult:
    def body():
        targets = {3: 0.3245, 4: 0.2187, 5: 0.14792, 6: 0.1003}
        devs = {m: abs(extremal.power_residue_log_density_bound(m).value - t)
                for m, t in targets.items()}
        proj = extremal.projection_auxiliary_minimum()
        v1, v2 = extremal.log_gap_endpoint_values()
        corr_int = _correction_integral()
        # The average bound raises if its two pieces exceed their cap.
        pairs = [(s * tau, tau) for tau in np.linspace(0.0, extremal.TAU_MAX, 9)
                 for s in np.linspace(0.0, 1.0, 9)]
        for lam, tau in pairs:
            extremal.average_bound_expressions(lam, tau)
        square_violations = extremal.mixed_square_inequality_violations(10 ** 6)
        ok = (all(d <= 5e-4 for d in devs.values())
              and abs(proj.argmin - 0.08055) <= 1e-4
              and proj.value >= 112.0 / 411.0
              and abs(v1 - 0.19) <= 5e-3 and abs(v2 - 0.1829) <= 5e-4
              and abs(corr_int - 0.0416) <= 1e-3
              and square_violations == 0)
        return ok, (f"density-bound devs {max(devs.values()):.1e}, "
                    f"alpha0={proj.argmin:.6f}, endpoints ({v1:.4f}, {v2:.4f}), "
                    f"corr integral={corr_int:.5f}, average bound capped on "
                    f"{len(pairs)} (lam, tau) pairs, mixed-square violations "
                    f"{square_violations} in 1e6")
    return _run("6 explicit minimizations", body)


def check_sign_changes_and_min_mean() -> CheckResult:
    def body():
        rep = extremal.minus_kernel_sign_changes(12.0, 1e-4)
        n_changes = len(rep.brackets)
        details = [f"{n_changes} sign changes, identity residual "
                   f"{rep.identity_residual:.1e}"]
        ok = n_changes >= 2 and rep.identity_residual <= 1e-6
        revalidation = 0.0
        for B in (1.0, 1.5, 2.0):
            r = extremal.truncated_kernel_min_mean(
                B, m_steps=6, u_grid=(1.5, 2.0, 3.0), restarts=3,
                h=1e-3, seed=0, sweeps=2)
            floor = -dickman_rho(B) - 1e-4
            ok = ok and floor <= r.value < 0.0
            if B == 1.0:
                ok = ok and r.value <= 1.0 - 2.0 * math.log(2.0) + 1e-6
            details.append(f"B={B}: {r.value:.4f} (floor {floor:.4f})")
            d = r.diagnostics
            revalidation = max(revalidation, d["revalidation_gap"] / d["revalidation_h"] ** 2)
        ok = ok and revalidation <= 1.0
        details.append(f"march vs engine <= {revalidation:.4f} h'^2")
        return ok, "; ".join(details)
    return _run("7 truncated-kernel search", body)


def _region_hull_samples(poly, per_edge: int = 200) -> np.ndarray:
    poly = [complex(p) for p in poly]
    closed = poly + [poly[0]] if len(poly) > 2 else poly
    pts = []
    for a, b in zip(closed, closed[1:]):
        pts.extend(a + t * (b - a) for t in np.linspace(0.0, 1.0, per_edge))
    return np.asarray(pts)


def check_region_geometry() -> CheckResult:
    def body():
        rng = np.random.default_rng(3)
        spiral_sets = [region.SetSpec.roots_of_unity(5),
                       region.SetSpec.sector(0.7)]
        for _ in range(3):
            pts = [1.0 + 0.0j]
            while len(pts) < 4:
                z = complex(*rng.uniform(-1.0, 1.0, 2))
                if abs(z) <= 1.0 and abs(z - 1.0) > 1e-6:
                    pts.append(z)
            spiral_sets.append(region.SetSpec.from_points(pts))
        worst_env = -1.0
        for S in spiral_sets:
            cloud = region.euler_spiral_cloud(S, k_max=8.0)
            theta = region.ang(S)
            if 0.0 < theta < math.pi / 2:
                cap = np.exp(-np.abs(np.angle(cloud.points)) / math.tan(theta))
                worst_env = max(worst_env, float(np.max(np.abs(cloud.points) - cap)))
        env_ok = worst_env <= 1e-9

        interval = region.SetSpec.real_interval(-1.0, 1.0)
        poly = region.log_spectrum_region(interval, 8)
        hd = region.hausdorff_distance(_region_hull_samples(poly),
                                       np.linspace(0.0, 1.0, 2001))
        hd_ok = hd <= 0.01

        violations = 0
        for S in (region.SetSpec.roots_of_unity(4), region.SetSpec.roots_of_unity(6)):
            rep = region.containment_report(region.euler_spiral_cloud(S, 8.0), S)
            violations += rep["total_violations"]
        S_pm = region.SetSpec.from_points([1.0, -1.0])
        sigma_cloud = region.RegionCloud(rho_minus_grid(6.0, 1e-3).samples.astype(complex))
        violations += region.containment_report(sigma_cloud, S_pm)["total_violations"]
        S6 = region.SetSpec.roots_of_unity(6)
        products = region.RegionCloud(region.log_spectrum_products(S6, 6))
        violations += region.containment_report(products, S6,
                                                log_products=True)["total_violations"]
        ok = env_ok and hd_ok and violations == 0
        return ok, (f"spiral envelope slack {worst_env:.1e}, hausdorff {hd:.4f}, "
                    f"containment violations {violations}")
    return _run("8 region geometry", body)


def check_arithmetic_oracle(full: bool = False) -> CheckResult:
    def body():
        details = []
        ok = True
        chi_minus = StepFunction((1.0,), (1.0,), -1.0)

        # Mean-vs-solver gap must shrink by >= 1.5x when log y grows.  The
        # literal y = 1e3 -> 1e6 at u = 2 would need x = 1e12, far over
        # budget; the calibrated feasible pairs double/near-double log y.
        y_hi = 10.0 ** 3.5 if full else 1.0e3
        gap_lo = oracle.mean_vs_sigma(chi_minus, 1.0e2, 2.0, 1e-3)[2]
        gap_hi = oracle.mean_vs_sigma(chi_minus, y_hi, 2.0, 1e-3)[2]
        ratio = gap_lo / gap_hi
        ok = ok and ratio >= 1.5
        details.append(f"gap ratio {ratio:.2f}")

        rng = np.random.default_rng(4)
        tight = oracle.subset_sum_counts([1, 1, 1], None, 4)
        ok = ok and tight == 1
        for _ in range(500):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(2, 9))
            a = [int(v) for v in rng.integers(-20, 21, n)]
            R = ([int(v) for v in rng.integers(2, 5, n)]
                 if rng.random() < 0.5 else None)
            oracle.subset_sum_counts(a, R, m)  # raises on a bound violation
        details.append("500 subset-sum instances, tight case exact")

        dens2 = oracle.mth_root_log_density(
            oracle.MultiplicativeSpec.from_table({}, -1.0), 10 ** 6, 2)
        ok = ok and dens2 >= 0.5 - 0.02
        w3 = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        dens3_min = 1.0
        for seed in range(5):
            r3 = np.random.default_rng(10 + seed)
            table = {int(p): w3 ** int(r3.integers(0, 3))
                     for p in oracle.primes_upto(13)}
            spec3 = oracle.MultiplicativeSpec.from_table(
                table, w3 ** int(r3.integers(0, 3)))
            dens3_min = min(dens3_min,
                            oracle.mth_root_log_density(spec3, 10 ** 6, 3))
        ok = ok and dens3_min >= 0.25 - 0.02
        details.append(f"densities m=2 {dens2:.4f}, m=3 min {dens3_min:.4f}")

        disc = oracle.discriminant_char_average(10 ** 5, 1.0, 2, {2: 1})
        ok = ok and abs(disc.average - disc.truncated_sum) <= 0.25 * abs(disc.truncated_sum)
        details.append(f"discriminant average {disc.average.real:.4f} vs "
                       f"truncated sum {disc.truncated_sum.real:.4f}")

        if full:
            # The extremal two-level function: f(p) = 1 below x^(1/(1+sqrt e)),
            # -1 above; its mean approaches delta1.
            x = 10 ** 7
            y = x ** (1.0 / (1.0 + SQRT_E))
            extremal_spec = oracle.MultiplicativeSpec.step(chi_minus, y)
            mean = (oracle.sieve_sums(extremal_spec, x).partial_sum / x).real
            d1 = extremal.delta_constants()[0]
            ok = ok and abs(mean - d1) <= 0.05
            details.append(f"extremal mean at 1e7: {mean:.4f} (delta1 {d1:.4f})")
        return ok, "; ".join(details)
    return _run("9 arithmetic oracle" + (" (full)" if full else " (quick)"), body)


def run_suite(suite: str = "quick", only=None):
    """Run the acceptance criteria; 'full' adds the x = 10^7 sieve runs.

    ``only`` restricts execution to the listed criterion numbers.
    """
    if suite not in ("quick", "full"):
        raise ValueError("suite must be 'quick' or 'full'")
    checks = {
        "1": check_constants,
        "2": check_delay_functions,
        "3": check_solver_cross,
        "4": check_sandwiches,
        "5": check_real_range,
        "6": check_minimizations,
        "7": check_sign_changes_and_min_mean,
        "8": check_region_geometry,
        "9": lambda: check_arithmetic_oracle(full=(suite == "full")),
    }
    if only is not None:
        wanted = {str(tok).strip() for tok in only}
        unknown = wanted - set(checks)
        if unknown:
            raise ValueError(f"unknown criteria: {sorted(unknown)}")
        checks = {k: v for k, v in checks.items() if k in wanted}
    return [fn() for fn in checks.values()]
