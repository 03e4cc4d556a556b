"""Iterated kernel integrals and certified two-sided envelopes for sigma.

I_k is the k-fold convolution power 1 * kappa^{*k} with kappa(t) =
(1 - chi(t))/t (zero on [0, 1)).  The alternating partial sums sigma_k =
sum_{j<=k} (-1)^j I_j / j! sandwich the true solution for real kernels; for
complex kernels the analogous moments of 1 - Re(chi) and |Im(chi)| bound
the real and imaginary parts.

Every power comes from one engine, the generator _powers: I_1 is a running
sum of the kernel's panel-sided endpoint values, so the step kernel's jumps
never contaminate a quadrature node; each higher power integrates shifted
sums of the one before, one multiply-add per jump of 1 - chi.  A call keeps
its powers and running totals in a few rows allocated once.

sandwich and complex_bounds run in two lanes: after the input checks and
the panel values, the one worker thread of a pool that lives for the call
runs the solver check while the calling thread computes the powers, then
the caller joins it, also when its own lane raises, and checks the
envelopes.  Each lane runs the same code on the same inputs as a serial
run, so every array is bit-identical to one.  Only the worker calls
solve_sigma, and neither lane calls tail_envelope: a report computes its
tail bound when it is read.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .dde_solver import solve_sigma
from .errors import BudgetError, ContractError, ValidationError
from .kernels import GridFunction, StepFunction, _grid_steps

#: Largest series order k: I_k vanishes on [0, k], so orders past u_max add
#: only exact zeros; 64 is eight times the CLI's default u_max.
MAX_SERIES_ORDER = 64

#: Envelope checks allow this much beyond the stated 1e-6, scaled by h^2,
#: for the difference between the two independent quadrature paths.
QUAD_SLACK_COEFF = 50.0


def _envelope_slack(h: float, slack: float | None) -> float:
    if slack is None:
        return 1e-6 + QUAD_SLACK_COEFF * h * h
    if not math.isfinite(slack):
        raise ValidationError(f"slack must be finite, got {slack}")
    return slack


def _powers(g: np.ndarray, h: float, k: int):
    """Yield I_0 = 1, I_1, ..., I_k for kappa = g/t, given the panel values g.

    I_1 is the running sum of the trapezoid rule on each panel [jh, (j+1)h)
    with the limits of kappa at its ends from inside: left[j] = g[j]/(jh)
    (0 for j = 0) and right[j] = g[j]/((j+1)h), folded into w[j] = left[j] +
    right[j-1].  For j >= 2, t kappa^{*j} = j (g * kappa^{*(j-1)}) and g
    jumps by dg_m at the nodes m, so kappa^{*j} at node i is exactly j/(ih)
    sum_m dg_m I_{j-1}[i - m]; I_j is its trapezoid running sum.  I_j is
    exactly zero on the nodes <= j*p0, p0 the first panel where g is
    nonzero; the powers with j*p0 >= n - 1 are one shared read-only array of
    zeros, the others share three rows allocated once: a yielded power holds
    its values until the generator resumes twice.
    """
    n = len(g) + 1
    u = h * np.arange(n)
    dtype = np.result_type(g, u)
    yield np.ones(n, dtype=dtype)
    a, b, cur = rows = [np.empty(n, dtype), np.empty(n, dtype), np.zeros(n, dtype)]
    moves = a.view(bool)[:n - 1]  # where g jumps, read before a holds left
    moves[0] = g[0] != 0
    np.not_equal(g[1:], g[:-1], out=moves[1:])
    marks = np.flatnonzero(moves)
    dg, p0 = np.diff(g[marks], prepend=0), int(marks[0]) if marks.size else n - 1
    for j in range(1, k + 1):
        if j * p0 >= n - 1:
            zero = np.zeros(n, dtype=dtype)
            zero.setflags(write=False)
            yield from [zero] * (k + 1 - j)
            return
        if j == 1:  # w * 1 is a running sum; left, right and w vanish below p0
            left, right, q = a[:-1], b[:-1], max(p0, 1)
            left[p0:q] = 0
            np.divide(g[q:], u[q:-1], out=left[q:])
            np.divide(g[p0:], np.add(u[p0:-1], h, out=cur.real[p0:-1]), out=right[p0:])
            cur[p0], cur[-1] = left[p0], right[-1]
            np.add(left[p0 + 1:], right[p0:-1], out=cur[p0 + 1:-1])
            np.cumsum(cur[p0:], out=cur[p0:])
            cur[p0:-1] -= left[p0:]  # 0 at p0, as below it
            cur[p0 + 1:] *= 0.5 * h
            np.divide(1.0, u[2 * p0 + 1:], out=u[2 * p0 + 1:])  # 1/u from here on
        else:  # h/2 times the density into cur, its running sum into buf
            prev, (cur, buf) = cur, (r for r in rows if r is not cur)
            lo, d = j * p0 + 1, (0.5 * j * h) * dg
            cur[:lo] = 0
            np.multiply(prev[lo - p0:n - p0], d[0], out=cur[lo:])
            for m, dm in zip(marks[1:].tolist(), d[1:]):
                s = m - p0 + lo  # I_{j-1} vanishes on the nodes <= (j-1)*p0
                if s < n:
                    cur[s:] += np.multiply(prev[s - m:n - m], dm, out=buf[s:])
            np.multiply(cur[lo:], u[lo:], out=cur[lo:])
            np.cumsum(cur[lo:], out=buf[lo:])
            np.add(buf[lo + 1:], buf[lo:-1], out=cur[lo + 1:])
        yield cur


def _check_order(k: int, name: str = "k") -> None:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValidationError(f"{name} must be a nonnegative integer")
    if k > MAX_SERIES_ORDER:
        raise BudgetError(f"series order {k} exceeds the budget {MAX_SERIES_ORDER}")


def _partial_sums(g: np.ndarray, h: float, k: int):
    """Yield sigma_0, ..., sigma_k: the alternating partial sums of the powers
    of kappa = g/t, given the panel values g.

    A shared zero power is not added, which changes no bit: I_0 = 1 holds no
    -0.0 and a sum is -0.0 only when both its terms are.  The totals alternate
    between I_0's row and one more (a yielded total lasts until the generator
    resumes twice); below node (j-1)*p0 + 1 the row of sigma_j holds the bits
    of sigma_{j-2}, which are its own there, so only the rest is added.
    """
    powers = _powers(g, h, k)
    total = next(powers)
    yield total
    rows, p0 = [total, np.ones_like(total)], int(np.argmax(g != 0))
    for j, power in enumerate(powers, start=1):
        if power.flags.writeable:
            lo, out = max(j - 1, 1) * p0 + 1, rows[j % 2]
            np.multiply(power[lo:], (-1) ** j / math.factorial(j), out=out[lo:])
            np.add(total[lo:], out[lo:], out=out[lo:])
            total = out
        yield total


def iterated_integral(chi: StepFunction, k: int, u_max: float,
                      h: float) -> GridFunction:
    """I_k on the grid: the k-fold convolution power 1 * kappa^{*k}."""
    _check_order(k)
    n = _grid_steps(u_max, h) + 1
    *_, power = _powers(1.0 - chi.panel_values(n - 1, h), h, k)
    return GridFunction(h, power)


def sigma_partial(chi: StepFunction, k: int, u_max: float,
                  h: float) -> GridFunction:
    """Alternating partial sum sigma_k = sum_{j=0}^{k} (-1)^j I_j / j!."""
    _check_order(k)
    n = _grid_steps(u_max, h) + 1
    *_, total = _partial_sums(1.0 - chi.panel_values(n - 1, h), h, k)
    return GridFunction(h, total)


def tail_envelope(k_max: int, u_max: float, h: float) -> GridFunction:
    """sum_{j > k_max} (2 log u)^j / j! on the grid: the crude series tail.

    Uses |1 - chi| <= 2, so |I_j(u)| <= (2 log u)^j; nonnegative and
    nondecreasing in u.
    """
    _check_order(k_max, "k_max")
    n = _grid_steps(u_max, h) + 1
    u = h * np.arange(n)
    # x = 2 log(max(u, 1)) is 0, and so is the tail, up to the last node
    # with u <= 1; past it x > 0 and never decreases.
    first = int(np.searchsorted(u, 1.0, side="right"))
    x = 2.0 * np.log(u[first:])
    x_top = x[-1] if first < n else 0.0
    # The sum stops at the first term whose largest value, at x_top, is
    # below 1e-18 (or at j = 501); it runs by Horner from that term down.
    term, j_last = 1.0, 0
    while j_last <= k_max or (term >= 1e-18 and j_last <= 500):
        j_last += 1
        term = term * x_top / j_last
    out = np.zeros(n)
    tail = out[first:]
    tail[:] = 1.0
    for j in range(j_last, k_max + 1, -1):
        tail *= x
        tail /= j
        tail += 1.0
    tail *= x ** (k_max + 1) / math.factorial(k_max + 1)
    return GridFunction(h, out)


@dataclass(frozen=True)
class BoundsReport:
    """Certified envelopes around sigma plus the moment diagnostics."""

    k_max: int
    lower: GridFunction
    upper: GridFunction
    r_series: tuple = ()
    c_series: tuple = ()
    #: Largest gap of sigma past a checked bound (-inf: none); not in the artifact.
    worst_gap: float = -math.inf

    @property
    def tail_bound(self) -> GridFunction:
        """The crude series tail past k_max on the envelopes' grid, computed
        at each read."""
        return tail_envelope(self.k_max, self.lower.u_max, self.lower.h)

    def to_json_dict(self) -> dict:
        d = {
            "k_max": self.k_max,
            "h": self.lower.h,
            "u": self.lower.u.tolist(),
            "lower_re": self.lower.samples.real.tolist(),
            "upper_re": self.upper.samples.real.tolist(),
            "tail_bound": self.tail_bound.samples.tolist(),
        }
        for name, series in (("r_series", self.r_series), ("c_series", self.c_series)):
            d[name] = [gf.samples.real.tolist() for gf in series]
        return d


def sandwich(chi: StepFunction, k_max: int, u_max: float, h: float,
             *, slack: float | None = None) -> BoundsReport:
    """Alternating-series envelope for a real kernel, checked against sigma.

    lower/upper are the partial sums of odd/even order nearest below k_max;
    the solver output must lie between them up to the stated slack.
    """
    if not chi.is_real:
        raise ValidationError("sandwich needs a real kernel; use complex_bounds")
    _check_order(k_max, "k_max")
    if k_max < 1:
        raise ValidationError("k_max must be at least 1")
    tol = _envelope_slack(h, slack)
    k_lo, k_up = 2 * ((k_max - 1) // 2) + 1, 2 * (k_max // 2)
    n = _grid_steps(u_max, h) + 1
    g = 1.0 - chi.panel_values(n - 1, h)

    with ThreadPoolExecutor(1) as pool:
        solve = pool.submit(solve_sigma, chi, u_max, h)
        sums = enumerate(_partial_sums(g, h, max(k_lo, k_up)))
        kept = {j: total for j, total in sums if j in (k_lo, k_up)}
        s = solve.result().sigma.samples[:n].real
    lower, upper = kept[k_lo], kept[k_up]
    # np.maximum and np.max propagate NaN, and NaN fails the comparison.
    worst = float(np.maximum(np.max(lower - s), np.max(s - upper)))
    if not worst <= tol:
        raise ContractError(f"envelope violated by {worst:.3e} (slack {tol:.1e})")
    for row in (lower, upper):  # GridFunction keeps them as they are
        row.setflags(write=False)
    return BoundsReport(k_max, GridFunction(h, lower), GridFunction(h, upper),
                        worst_gap=worst)


def complex_bounds(chi: StepFunction, u_max: float, h: float,
                   *, slack: float | None = None) -> BoundsReport:
    """Real/imaginary part envelopes for a complex kernel.

    Checks |Im sigma| <= C1, |Re sigma - sigma_hat| <= C2/2 (sigma_hat the
    solution for Re chi), and 1 - R1 - C2/2 <= Re sigma <= 1 - R1 +
    (R2 + C2)/2, where R_k/C_k are the k-fold moments of 1 - Re(chi) and
    |Im chi|.
    """
    tol = _envelope_slack(h, slack)
    n = _grid_steps(u_max, h) + 1
    c = chi.panel_values(n - 1, h)
    chi_hat = StepFunction(chi.breaks, tuple(v.real for v in chi.values), chi.tail.real)

    def solves():
        return (solve_sigma(chi, u_max, h).sigma.samples[:n],
                solve_sigma(chi_hat, u_max, h).sigma.samples[:n].real)

    with ThreadPoolExecutor(1) as pool:
        solved = pool.submit(solves)
        moments = [islice(_powers(g, h, 2), 1, None) for g in (1.0 - c.real, np.abs(c.imag))]
        del c
        (R1, R2), (C1, C2) = moments
        s, s_hat = solved.result()

    lower = 1.0 - R1 - 0.5 * C2
    upper = 1.0 - R1 + 0.5 * (R2 + C2)
    worst_gap = -math.inf  # one gap at a time is live
    for label, gap in (
            ("imag part exceeds C1", lambda: np.abs(s.imag) - C1),
            ("real-part drift exceeds C2/2", lambda: np.abs(s.real - s_hat) - 0.5 * C2),
            ("real part below 1 - R1 - C2/2", lambda: lower - s.real),
            ("real part above 1 - R1 + (R2+C2)/2", lambda: s.real - upper)):
        worst = float(np.max(gap()))
        if not worst <= tol:  # NaN fails too
            raise ContractError(f"{label} by {worst:.3e} (slack {tol:.1e})")
        worst_gap = max(worst_gap, worst)
    for row in (lower, upper, R1, R2, C1, C2):  # GridFunction keeps them as they are
        row.setflags(write=False)
    return BoundsReport(2, GridFunction(h, lower), GridFunction(h, upper),
                        (GridFunction(h, R1), GridFunction(h, R2)),
                        (GridFunction(h, C1), GridFunction(h, C2)), worst_gap)
