"""Solver for the mean-value delay integral equation u*sigma(u) = (sigma*chi)(u).

The kernel chi is a step function with breakpoints on the grid, so within
each panel the convolution integrand is smooth and the composite trapezoid
rule keeps its full second order.  The implicit node equation is linear in
sigma(u_i); solving it exactly per step collapses, after telescoping the
cumulative integral, into a two-term recurrence driven by the kernel's
jumps.  Every jump lies at u >= 1, so the march advances a whole unit
interval of nodes per numpy step.  Every solve re-checks the discrete
convolution identity, built from the trapezoid antiderivative and not from
the recurrence, before returning.

Real kernels that share their breakpoints march together: the same march
carries a trailing batch axis, one column per kernel, bit for bit as one
march each, and every column is held to the same contracts.  The extremal
search's line searches, d + 1 kernels per restart, run this way.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, GridError, ValidationError
from .kernels import ALIGN_TOL, DISC_TOL, GridFunction, StepFunction, _grid_steps
from .kernels import MAX_SOLVER_NODES  # noqa: F401 - the solver's node budget, re-exported

#: Residual contract of the solver: |u*sigma(u) - trapz(sigma*chi)(u)| <= RESIDUAL_TOL * u.
RESIDUAL_TOL = 1e-9

#: Most samples, rows x (n + 1) float64 values (4 MB), that one batched
#: march holds; more rows march in chunks, which changes no bit.  The march
#: and its checks keep about three such arrays alive.  Unchunked, gamma-b at
#: B = 10 would hold 8 restarts x 61 rows x 60,001 nodes (234 MB).
MAX_BATCH_SAMPLES = 2 ** 19


def _march(jumps, n: int, h: float, m1: int, complex_mode: bool):
    """sigma on nodes 0..n, one unit block [a, a + m1) per numpy step.

    Jump indices are >= m1, so a block's delayed reads all precede it; its
    cumulative sum, seeded with sigma[a-1], adds in node-by-node order.  A
    jump weight is a scalar, or an (R,) row for R kernels sharing the jump
    locations; sigma is then (n+1, R), node-major, and each column equals
    the one-kernel march bit for bit.
    """
    batch = np.broadcast_shapes(*(np.shape(dk) for _, dk in jumps))
    sigma = np.ones((n + 1,) + batch, dtype=np.complex128 if complex_mode else np.float64)
    i0 = m1 + 1
    if i0 > n:
        return sigma
    # First node past u = 1 from the full trapezoid equation; in the all-ones
    # region the cumulative integral is exactly j*h.
    d = sum(dk * ((i0 - mk) * h) for mk, dk in jumps if mk < i0)
    sigma[i0] = ((i0 - 1) * h + 0.5 * h + d) / (i0 * h - 0.5 * h)
    # Beyond that, differencing consecutive node equations leaves a pure
    # jump-driven update (trapezoid of the delayed values, midpoint weight).
    half_h = 0.5 * h
    for a in range(i0 + 1, n + 1, m1):
        b = min(a + m1, n + 1)
        s = np.zeros((b - a,) + batch, dtype=sigma.dtype)
        for mk, dk in jumps:
            lo = max(a, mk + 1)  # first node whose delayed read j = i - mk is >= 1
            if lo < b:
                s[lo - a:] += dk * (sigma[lo - mk:b - mk] + sigma[lo - mk - 1:b - mk - 1])
        u = (np.arange(a, b) * h - half_h).reshape((-1,) + (1,) * len(batch))
        step = half_h * s / u
        step[0] += sigma[a - 1]
        np.cumsum(step, axis=0, out=sigma[a:b])
    return sigma


def trapezoid_convolution_with_kernel(sigma: np.ndarray, chi: StepFunction,
                                      h: float) -> np.ndarray:
    """Panel-exact trapezoid values of (sigma * chi) at every grid node.

    A segment of value v on [lo*h, hi*h) adds v*(C(u - lo*h) - C(u - hi*h)),
    C the trapezoid antiderivative of sigma, in place where each shift is >= 0.
    """
    C = GridFunction(h, sigma).cumulative()
    n = len(C)
    T = np.zeros(n, dtype=C.dtype if chi.is_real else np.complex128)
    marks = [0] + [min(round(b / h), n) for b in chi.breaks] + [n]
    for v, lo, hi in zip(chi.segment_values(), marks, marks[1:]):
        v = v.real if chi.is_real else v
        T[lo:] += v * C[:n - lo]
        T[hi:] -= v * C[:n - hi]
    return T


@dataclass(frozen=True)
class SigmaSolution:
    """Solution of the delay integral equation for one kernel.

    ``running_avg`` holds A(v) = (1/v) * int_0^v |sigma|; it is
    non-increasing past u = 1 and dominates |sigma(u)| for u >= v.
    """

    chi: StepFunction
    sigma: GridFunction
    running_avg: GridFunction

    def value_at(self, u: float):
        return self.sigma.value_at(u)


def _grid(u_max: float, h: float):
    """(n, m1): the grid 0, h, ..., n*h covers [0, u_max] and m1*h = 1."""
    n = _grid_steps(u_max, h)
    if u_max < 1.0:
        raise ValidationError("u_max must be at least 1")
    m1 = round(1.0 / h)
    if abs(m1 * h - 1.0) > ALIGN_TOL:
        raise GridError(f"grid step {h} must divide 1.0 exactly")
    return n, m1


def _running_average(sigma: np.ndarray, h: float) -> np.ndarray:
    """A(v) = (1/v) * int_0^v |sigma| per column, by the trapezoid antiderivative."""
    a = np.abs(sigma)
    avg = np.empty(a.shape)
    avg[0] = a[0]
    np.add(a[1:], a[:-1], out=avg[1:])
    del a
    avg[1:] *= 0.5 * h
    np.cumsum(avg[1:], axis=0, out=avg[1:])
    avg[1:] /= (h * np.arange(1, len(avg))).reshape((-1,) + (1,) * (avg.ndim - 1))
    return avg


def solve_sigma(chi: StepFunction, u_max: float, h: float,
                *, check_residual: bool = True) -> SigmaSolution:
    """Solve u*sigma(u) = (sigma*chi)(u) with sigma = 1 on [0, 1].

    The grid step must divide 1.0 and every breakpoint of chi.  The returned
    samples satisfy the discrete equation to RESIDUAL_TOL * u per node.
    """
    n, m1 = _grid(u_max, h)
    chi.require_aligned(h)
    jumps = [(round(b / h), dv) for b, dv in chi.jumps() if round(b / h) <= n]
    complex_mode = not chi.is_real
    if not complex_mode:
        jumps = [(m, dv.real) for m, dv in jumps]
    sigma = _march(jumps, n, h, m1, complex_mode)

    if check_residual:
        _check_residual(sigma, chi, h, m1)

    sol = SigmaSolution(chi, GridFunction(h, sigma), GridFunction(h, _running_average(sigma, h)))
    _validate_solution(sol, m1)
    return sol


def _check_residual(sigma: np.ndarray, chi: StepFunction, h: float, m1: int) -> None:
    """|u*sigma - T| <= RESIDUAL_TOL * max(u, 1) at the nodes u >= 1, T the
    trapezoid convolution of sigma with chi.

    The gap overwrites T, its modulus the gap (a new array only for complex
    sigma) and the cap u, so the check holds T, u and one product at most,
    all freed on return, before the running average is built.
    """
    gap = trapezoid_convolution_with_kernel(sigma, chi, h)[m1:]
    u = h * np.arange(m1, len(sigma))
    np.subtract(u * sigma[m1:], gap, out=gap)
    resid = np.abs(gap, out=None if np.iscomplexobj(gap) else gap)
    cap = np.maximum(u, 1.0, out=u)
    cap *= RESIDUAL_TOL
    resid -= cap
    worst = float(np.max(resid)) if len(resid) else 0.0
    if worst > 0.0:
        raise ContractError(f"solver self-consistency residual exceeded by {worst:.3e}")


def _check_contracts(sigma: np.ndarray, avg: np.ndarray, m1: int) -> None:
    """sigma = 1 on [0, 1], |sigma| <= 1 and a non-increasing running average
    past u = 1, in every column of a batch."""
    if not np.all(sigma[: m1 + 1] == 1):
        raise ContractError("sigma must equal 1 exactly on [0, 1]")
    overshoot = float(np.max(np.abs(sigma))) - 1.0
    if overshoot > 1e-9:
        raise ContractError(f"|sigma| exceeded 1 by {overshoot:.3e}")
    growth = float(np.max(np.diff(avg[m1:], axis=0))) if len(avg) > m1 + 1 else 0.0
    if growth > 1e-9:
        raise ContractError(f"running average increased past u=1 by {growth:.3e}")


def _validate_solution(sol: SigmaSolution, m1: int) -> None:
    _check_contracts(sol.sigma.samples, sol.running_avg.samples, m1)


def _solve_rows(breaks, values, u_max: float, h: float, u: float) -> np.ndarray:
    """sigma(u) for R real kernels that share their breakpoints, in one march.

    Row r of the (R, len(breaks) + 1) matrix values holds the segment
    constants of kernel r: the 1 on [0, breaks[0]) first, the tail last.
    Entry r equals solve_sigma(kernel_r, u_max, h, check_residual=False)
    .value_at(u) bit for bit, and every row is held to the same contracts.
    Rows march in chunks of at most MAX_BATCH_SAMPLES samples.
    """
    n, m1 = _grid(u_max, h)
    StepFunction(breaks, (1.0,) * len(breaks), 1.0).require_aligned(h)  # the breaks alone
    values = np.asarray(values)
    if (np.iscomplexobj(values) or values.ndim != 2 or values.shape[1] != len(breaks) + 1
            or not np.all(values[:, 0] == 1) or not np.all(np.abs(values) <= 1.0 + DISC_TOL)):
        raise ValidationError("each row needs one real value in [-1, 1] per segment, 1 first")
    if not 0.0 <= u <= n * h + ALIGN_TOL:
        raise ValidationError(f"u={u} outside [0, {n * h}]")
    marks = [round(b / h) for b in breaks]
    jumps = np.diff(values.astype(np.float64), axis=1).T.copy()  # a contiguous row per break
    x = min(u / h, float(n))  # linear interpolation as in GridFunction.value_at
    j = min(int(x), n - 1)
    frac = x - j
    out = np.empty(len(values))
    chunk = max(1, MAX_BATCH_SAMPLES // (n + 1))
    for r in range(0, len(values), chunk):
        sigma = _march([(mk, dk[r:r + chunk]) for mk, dk in zip(marks, jumps) if mk <= n],
                       n, h, m1, False)
        _check_contracts(sigma, _running_average(sigma, h), m1)
        out[r:r + chunk] = sigma[j] + frac * (sigma[j + 1] - sigma[j])
    return out


def kernel_sup_difference(chi: StepFunction, chi_hat: StepFunction,
                          t_max: float) -> float:
    """Essential sup of |chi - chi_hat| over [0, t_max), by merged segments.

    Values at the isolated jump points themselves do not contribute.
    """
    cuts = sorted({0.0, *chi.breaks, *chi_hat.breaks})
    sup = 0.0
    for c in cuts:
        if c >= t_max:
            break
        sup = max(sup, abs(chi(c) - chi_hat(c)))
    return sup


def perturbation_gap(chi: StepFunction, chi_hat: StepFunction, u: float,
                     h: float):
    """(observed gap, certified bound) for two kernels at the same u.

    The bound is u**chi0 - 1 with chi0 the essential sup of |chi - chi_hat|;
    the observed |sigma(u) - sigma_hat(u)| is checked against it.
    """
    if u < 1.0:
        raise ValidationError("u must be at least 1")
    sol = solve_sigma(chi, u, h)
    sol_hat = solve_sigma(chi_hat, u, h)
    gap = abs(sol.value_at(u) - sol_hat.value_at(u))
    chi0 = kernel_sup_difference(chi, chi_hat, u)
    bound = u ** chi0 - 1.0
    if gap > bound + 1e-6:
        raise ContractError(f"perturbation gap {gap:.3e} exceeds bound {bound:.3e}")
    return gap, bound
