"""Iterated kernel integrals and certified two-sided envelopes for sigma.

I_k is the k-fold convolution power 1 * kappa^{*k} with kappa(t) =
(1 - chi(t))/t (zero on [0, 1)), computed with panel-sided endpoint values
so the step kernel's jumps never contaminate a quadrature node.  The
alternating partial sums sigma_k = sum_{j<=k} (-1)^j I_j / j! sandwich the
true solution for real kernels; for complex kernels the analogous moments
of 1 - Re(chi) and |Im(chi)| bound the real and imaginary parts.

Every power comes from one engine, the generator _powers, which folds the
left and right panel-end trapezoid sums into one kernel w.  kappa vanishes
below its first nonzero panel p0 (p0 >= 1/h for every valid kernel), so I_j
is exactly zero on the nodes <= j*p0.  I_1 is a running sum of w; each I_j with
j >= 2 is one FFT convolution of the supports of I_{j-1} and w, of length
n - 1 - j*p0, and a power with j*p0 >= n - 1 is zero on the whole grid.

sandwich and complex_bounds run in two lanes.  The calling thread checks
the inputs and reads the panel values, then hands the solver check, which
depends only on the kernel too, to the one worker thread of a pool that
lives for the call; meanwhile it computes the powers itself.  It then joins
the worker, also when its own lane raises, and checks the envelopes.  Each
lane runs the same code on the same inputs as one after the other would, so
every array is bit-identical to a serial run.  Only the worker calls
solve_sigma, and neither lane calls tail_envelope: a report computes its
tail bound when it is read.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

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


def _fast_len(n: int) -> int:
    """The smallest 2^a 3^b 5^c >= n: a length pocketfft transforms fast."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _powers(g: np.ndarray, h: float, k: int):
    """Yield I_0 = 1, I_1, ..., I_k for kappa = g/t, given the panel values g.

    The trapezoid rule on panel [jh, (j+1)h) takes the limits of kappa at
    the panel's left and right end from inside the panel: left[j] =
    g[j]/(jh) (zero for j = 0) and right[j] = g[j]/((j+1)h).  The two end
    sums share one folded kernel w[j] = left[j] + right[j-1].  I_j is
    exactly zero on the nodes <= j*p0, p0 the first panel where g is nonzero
    (n - 1 when there is none), so every I_j with j*p0 >= n - 1 is +0.0 on
    the whole grid: those powers are one shared read-only array of zeros.
    The transforms write into views of one set of buffers, sized for I_2,
    the longest.
    """
    n = len(g) + 1
    t_left = h * np.arange(n - 1)
    left = np.zeros_like(g)
    left[1:] = g[1:] / t_left[1:]
    right = g / (t_left + h)
    w = np.zeros(n, dtype=np.result_type(left, right))
    w[:-1] = left
    w[1:] += right
    support = np.flatnonzero((left != 0) | (right != 0))
    p0 = int(support[0]) if support.size else n - 1
    real = not np.iscomplexobj(w)
    fwd, inv = (np.fft.rfft, np.fft.irfft) if real else (np.fft.fft, np.fft.ifft)
    zero = np.zeros(n, dtype=w.dtype)
    zero.setflags(write=False)
    cur = np.ones(n, dtype=w.dtype)
    yield cur
    for j in range(1, k + 1):
        if j * p0 >= n - 1:
            yield zero
            continue
        if j == 1:  # w * 1 is a running sum
            conv = np.cumsum(w)
            conv[:-1] -= left
            conv[:p0 + 1] = 0
        else:  # I_{j-1} is zero on the nodes < lo, w on the panels < p0
            lo, m = (j - 1) * p0 + 1, n - 1 - j * p0
            size = _fast_len(2 * m - 1)
            half = size // 2 + 1 if real else size
            if j == 2:  # the longest transforms: every later one fits
                spec_a, spec_b = np.empty(half, complex), np.empty(half, complex)
                back = np.empty(size, dtype=w.dtype)
            a = fwd(cur[lo:lo + m], size, out=spec_a[:half])
            a *= fwd(w[p0:p0 + m], size, out=spec_b[:half])
            conv = np.zeros(n, dtype=w.dtype)
            conv[lo + p0:] = inv(a, size, out=back[:size])[:m]
        conv *= 0.5 * h
        cur = conv
        yield cur


def _check_order(k: int, name: str = "k") -> None:
    if not isinstance(k, (int, np.integer)) or k < 0:
        raise ValidationError(f"{name} must be a nonnegative integer")
    if k > MAX_SERIES_ORDER:
        raise BudgetError(f"series order {k} exceeds the budget {MAX_SERIES_ORDER}")


def _partial_sums(g: np.ndarray, h: float, k: int):
    """Yield sigma_0, ..., sigma_k: the alternating partial sums of the powers
    of kappa = g/t, given the panel values g.

    A power that is _powers' shared zero array is not added.  That changes
    no bit: I_0 = 1 holds no -0.0 and a sum is -0.0 only when both its terms
    are, so no total holds a -0.0, the one value that adding 0 could change.
    """
    powers = _powers(g, h, k)
    total = next(powers)
    yield total
    for j, power in enumerate(powers, start=1):
        if power.flags.writeable:
            total = total + ((-1) ** j / math.factorial(j)) * power
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
    k_lo = 2 * ((k_max - 1) // 2) + 1
    k_up = 2 * (k_max // 2)
    n = _grid_steps(u_max, h) + 1
    g = 1.0 - chi.panel_values(n - 1, h)

    with ThreadPoolExecutor(1) as pool:
        solve = pool.submit(solve_sigma, chi, u_max, h)
        sums = enumerate(_partial_sums(g, h, max(k_lo, k_up)))
        kept = {j: total for j, total in sums if j in (k_lo, k_up)}
        s = solve.result().sigma.samples[:n].real
    lower, upper = kept[k_lo], kept[k_up]
    # np.maximum and np.max propagate NaN, and NaN fails the comparison.
    worst = float(np.max(np.maximum(lower - s, s - upper)))
    if not worst <= tol:
        raise ContractError(f"envelope violated by {worst:.3e} (slack {tol:.1e})")
    return BoundsReport(k_max, GridFunction(h, lower), GridFunction(h, upper))


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
        _, R1, R2 = _powers(1.0 - c.real, h, 2)
        _, C1, C2 = _powers(np.abs(c.imag), h, 2)
        s, s_hat = solved.result()

    lower = 1.0 - R1 - 0.5 * C2
    upper = 1.0 - R1 + 0.5 * (R2 + C2)
    checks = {
        "imag part exceeds C1": np.abs(s.imag) - C1,
        "real-part drift exceeds C2/2": np.abs(s.real - s_hat) - 0.5 * C2,
        "real part below 1 - R1 - C2/2": lower - s.real,
        "real part above 1 - R1 + (R2+C2)/2": s.real - upper,
    }
    for label, gap in checks.items():
        worst = float(np.max(gap))
        if not worst <= tol:  # NaN fails too
            raise ContractError(f"{label} by {worst:.3e} (slack {tol:.1e})")

    return BoundsReport(
        2,
        GridFunction(h, lower),
        GridFunction(h, upper),
        r_series=(GridFunction(h, R1), GridFunction(h, R2)),
        c_series=(GridFunction(h, C1), GridFunction(h, C2)),
    )
