"""Solver for the mean-value delay integral equation u*sigma(u) = (sigma*chi)(u).

The kernel chi is a step function with breakpoints on the grid, so within
each panel the convolution integrand is smooth and the composite trapezoid
rule keeps its full second order.  The implicit node equation is linear in
sigma(u_i); solving it exactly per step collapses, after telescoping the
cumulative integral, into a two-term recurrence driven by the kernel's
jumps.  Every jump lies at u >= 1, so the march advances a whole unit
interval of nodes per numpy step.

One engine, _solve_rows, runs every grid solve.  It takes the segment
constants of one kernel, or of R kernels that share their breakpoints; the
latter march together on a trailing batch axis, each column bit for bit as
its own march, and every column is held to the same contracts.  On request
it re-checks the discrete convolution identity, built from the trapezoid
antiderivative and not from the recurrence.  solve_sigma is the one-kernel
case with that check always on.  Where only a few values of sigma are
needed and the breaks lie on a coarse lattice 1/N, kernels._taylor_plan
gives them exactly and for less: the extremal search reads sigma(B*u) there,
batches its kernels here where the lattice is fine, and re-validates its
winner here; criterion 3 measures this march's O(h^2) gap against it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ContractError, ValidationError
from .kernels import (GridFunction, StepFunction, _check_modulus, _grid_steps, _segment_rows,
                      _trapezoid_cumulative, _unit_steps)
from .kernels import MAX_SOLVER_NODES  # noqa: F401 - the solver's node budget, re-exported

#: Residual contract of the solver: |u*sigma(u) - trapz(sigma*chi)(u)| <= RESIDUAL_TOL * u.
RESIDUAL_TOL = 1e-9


def _march(jumps, n: int, h: float, m1: int, batch: tuple, dtype):
    """sigma on nodes 0..n, one unit block [a, a + m1) per numpy step.

    Jump indices are >= m1, so a block's delayed reads all precede it; its
    cumulative sum, seeded with sigma[a-1], adds in node-by-node order.  A
    jump weight is a scalar for batch (), or an (R,) row for R kernels
    sharing the jump locations, batch (R,); sigma is then (n+1, R),
    node-major, and each column equals the one-kernel march bit for bit.
    """
    sigma = np.ones((n + 1,) + batch, dtype=dtype)
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


#: Nodes per block of the residual convolution: its one product buffer.
RESIDUAL_BLOCK = 1 << 16


def _break_marks(breaks, h: float) -> list:
    """The breaks' grid nodes by StepFunction.require_aligned: a GridError
    unless h divides every break."""
    return StepFunction(breaks, (1.0,) * len(breaks), 1.0).require_aligned(h)


def trapezoid_convolution_with_kernel(sigma: np.ndarray, breaks, values: np.ndarray,
                                      h: float) -> np.ndarray:
    """Panel-exact trapezoid values of (sigma * chi) at every grid node.

    chi has the segment constants values[..., k] between its breaks, as in
    _solve_rows; a batched sigma holds one kernel per column.  With C the
    trapezoid antiderivative of sigma, T = v_0 C + sum_k (v_k - v_{k-1})
    C(. - m_k), m_k the k-th break's node (_break_marks), each shift read
    where it is >= 0.  T is built in blocks of RESIDUAL_BLOCK nodes through
    one product buffer.
    """
    marks = _break_marks(breaks, h)
    C = _trapezoid_cumulative(sigma, h)
    n = len(C)
    dtype = np.result_type(C, values)
    T = np.empty(C.shape, dtype=dtype)
    buf = np.empty((min(n, RESIDUAL_BLOCK),) + C.shape[1:], dtype=dtype)
    jumps = [(mk, values[..., k + 1] - values[..., k]) for k, mk in enumerate(marks)]
    for a in range(0, n, RESIDUAL_BLOCK):
        b = min(a + RESIDUAL_BLOCK, n)
        np.multiply(C[a:b], values[..., 0], out=T[a:b])
        for mk, dk in jumps:
            lo = max(a, mk)
            if lo < b:
                T[lo:b] += np.multiply(C[lo - mk:b - mk], dk, out=buf[:b - lo])
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


def _running_average(sigma: np.ndarray, h: float) -> np.ndarray:
    """A(v) = (1/v) * int_0^v |sigma| per column, by the trapezoid antiderivative."""
    a = np.abs(sigma)
    avg = _trapezoid_cumulative(a, h)
    avg[0] = a[0]
    del a
    avg[1:] /= (h * np.arange(1, len(avg))).reshape((-1,) + (1,) * (avg.ndim - 1))
    return avg


def _solve_rows(breaks, values, u_max: float, h: float, *, check_residual: bool):
    """(sigma, running average) on the grid 0, h, ..., n*h covering [0, u_max],
    for u_max >= 1 and a step h that divides 1.0 and every break.

    values holds the segment constants along its last axis, the 1 on
    [0, breaks[0]) first and the tail last.  A (k + 1,) array is one kernel
    and gives (n + 1,) arrays; an (R, k + 1) matrix is R kernels on the
    shared breaks and gives (n + 1, R) arrays, node-major, each column bit
    for bit its one-kernel solve.  A complex dtype marches in complex.
    Every column is held to the contracts, and to the residual check if
    asked.
    """
    n = _grid_steps(u_max, h)
    if u_max < 1.0:
        raise ValidationError("u_max must be at least 1")
    m1 = _unit_steps(h)
    marks = _break_marks(breaks, h)
    values = _segment_rows(values, len(breaks))
    jumps = np.diff(values).T.copy()  # a contiguous row per break
    sigma = _march([(mk, dk) for mk, dk in zip(marks, jumps) if mk <= n],
                   n, h, m1, values.shape[:-1], values.dtype)
    if check_residual:
        _check_residual(sigma, breaks, values, h, m1)
    avg = _running_average(sigma, h)
    _check_contracts(sigma, avg, m1)
    return sigma, avg


def solve_sigma(chi: StepFunction, u_max: float, h: float) -> SigmaSolution:
    """Solve u*sigma(u) = (sigma*chi)(u) with sigma = 1 on [0, 1].

    The grid step must divide 1.0 and every breakpoint of chi.  The returned
    samples satisfy the discrete equation to RESIDUAL_TOL * u per node.
    """
    segs = np.array(chi.segment_values())
    sigma, avg = _solve_rows(chi.breaks, segs.real if chi.is_real else segs, u_max, h,
                             check_residual=True)
    sigma = GridFunction(h, sigma)  # a copy: the march's array goes before avg is copied
    return SigmaSolution(chi, sigma, GridFunction(h, avg))


def _check_residual(sigma: np.ndarray, breaks, values: np.ndarray, h: float,
                    m1: int) -> None:
    """|u*sigma - T| <= RESIDUAL_TOL * max(u, 1) at the nodes u >= 1, T the
    trapezoid convolution of sigma with its kernel, in every column.

    The gap overwrites T, its modulus the gap (a new array only for complex
    sigma) and the cap u, so the check holds T, u and one product at most,
    all freed on return, before the running average is built.
    """
    gap = trapezoid_convolution_with_kernel(sigma, breaks, values, h)[m1:]
    u = h * np.arange(m1, len(sigma)).reshape((-1,) + (1,) * (sigma.ndim - 1))
    np.subtract(u * sigma[m1:], gap, out=gap)
    resid = np.abs(gap, out=None if np.iscomplexobj(gap) else gap)
    cap = np.maximum(u, 1.0, out=u)
    cap *= RESIDUAL_TOL
    resid -= cap
    worst = float(np.max(resid, initial=0.0))
    if not worst <= 0.0:  # NaN fails too
        raise ContractError(f"solver self-consistency residual exceeded by {worst:.3e}")


def _check_contracts(sigma: np.ndarray, avg: np.ndarray, m1: int) -> None:
    """sigma = 1 on [0, 1], |sigma| <= 1 and a non-increasing running average
    past u = 1, in every column of a batch (of any width, also none)."""
    if not np.all(sigma[: m1 + 1] == 1):
        raise ContractError("sigma must equal 1 exactly on [0, 1]")
    _check_modulus(sigma)
    # Written so that NaN, which np.max propagates, fails the comparison.
    growth = float(np.max(np.diff(avg[m1:], axis=0), initial=0.0))
    if not growth <= 1e-9:
        raise ContractError(f"running average increased past u=1 by {growth:.3e}")


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
