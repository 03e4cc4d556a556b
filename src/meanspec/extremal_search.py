"""Explicit constants and derivative-free extremal searches.

Covers the closed-form constants (the minimum mean delta_1 of a real
completely multiplicative function and the quadratic-residue density floor
delta_0), the minimized series bound for logarithmic densities of m-th
power residues, the auxiliary minimizations behind the disc and projection
containments, and the search for the most negative sigma(B*u) over sign
kernels truncated at u, together with the sign-change scan of the solution
for the kernel that is -1 on [1, 2] and 0 beyond.  The search reads
sigma(B*u) exactly off the Taylor engine where its panels' lattice is
coarse, through one kernels._taylor_plan per panel built before the descent,
and off the solver's batched march elsewhere, many kernels per call within
its own batch budget MAX_BATCH_SAMPLES, and re-validates its winner with a
residual-checked march.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np
from numpy.polynomial import chebyshev as cheb

from .dde_solver import _solve_rows, solve_sigma
from .errors import BudgetError, ContractError, ValidationError
from .kernels import (ALIGN_TOL, SQRT_E, StepFunction, _check_grid, _check_taylor,
                      _grid_point, _grid_steps, _li2, _taylor_plan, _taylor_size,
                      _taylor_terms, _unit_steps, dickman_rho, rho_minus_correction)

GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0

#: Largest m for the power-residue bound: past m of about 2030 the bound,
#: of the order exp(-m/e), is below the smallest float64 and reads 0 (its
#: logarithm stays in the diagnostics).
MAX_POWER_RESIDUE_M = 10 ** 4


@dataclass(frozen=True)
class ExtremalResult:
    value: float
    argmin: object
    diagnostics: dict = field(default_factory=dict)


def golden_section(f, lo: float, hi: float, tol: float = 1e-10):
    """Golden-section minimum of f on [lo, hi]; returns (x, f(x), width)."""
    a, b = lo, hi
    x1 = b - GOLDEN * (b - a)
    x2 = a + GOLDEN * (b - a)
    f1, f2 = f(x1), f(x2)
    while b - a > tol:
        if f1 <= f2:
            b, x2, f2 = x2, x1, f1
            x1 = b - GOLDEN * (b - a)
            f1 = f(x1)
        else:
            a, x1, f1 = x1, x2, f2
            x2 = a + GOLDEN * (b - a)
            f2 = f(x2)
    x = 0.5 * (a + b)
    return x, f(x), b - a


def _scan_then_golden(f, lo: float, hi: float, n_grid: int, tol: float,
                      *, vectorized: bool = False):
    """Coarse grid scan then golden refinement around the best cell.

    With vectorized=True, f takes the whole scan grid in one call.
    """
    xs = np.linspace(lo, hi, n_grid)
    vals = f(xs) if vectorized else [f(x) for x in xs]
    k = int(np.argmin(vals))
    a = xs[max(0, k - 1)]
    b = xs[min(n_grid - 1, k + 1)]
    return golden_section(f, a, b, tol)


def delta_constants():
    """(delta1, delta0 = (1 + delta1)/2, delta0 by the dilogarithm-type series).

    delta1 = 1 - 2 log(1+sqrt(e)) + 4 * int_1^{sqrt(e)} log(t)/(t+1) dt
    = 1 + pi^2/3 + 4 Li2(-sqrt(e)), with the dilogarithm Li2 = kernels._li2,
    is the least attainable mean value of a real completely multiplicative
    function with values in [-1, 1]; delta0 = (1 + delta1)/2 is the
    corresponding lower bound on the density of quadratic residues.  The
    series route is an independent evaluation of delta0, truncated once
    terms drop below 1e-14.
    """
    delta1 = 1.0 + math.pi ** 2 / 3.0 + 4.0 * float(_li2(-SQRT_E))
    delta0 = (1.0 + delta1) / 2.0

    x = 1.0 / (1.0 + SQRT_E)
    series = 0.0
    n = 1
    while True:
        term = 2.0 * x ** n / (n * n)
        series += term
        if term < 1e-14:
            break
        n += 1
    delta0_series = (1.0 - math.pi ** 2 / 6.0
                     - math.log(1.0 + SQRT_E) * math.log(math.e / (1.0 + SQRT_E))
                     + series)
    return delta1, delta0, delta0_series


def power_residue_log_density_bound(m: int) -> ExtremalResult:
    """min over beta >= 0 of exp(-beta) * sum_k beta^{km} / (km)!.

    Upper bound for the minimal logarithmic density of m-th power residues;
    decays like exp(-m/e) as m grows.  The sum is the Poisson(beta) mass on
    the multiples of m, so the search minimises its logarithm, the logsumexp
    of the log masses, and nothing underflows or overflows.  The value
    itself falls below the smallest float64 past m of about 2030 and reads
    0 there; diagnostics["log_bound"] keeps its logarithm.
    """
    if not (isinstance(m, (int, np.integer)) and 2 <= m <= MAX_POWER_RESIDUE_M):
        raise ValidationError(f"m must be an integer in [2, {MAX_POWER_RESIDUE_M}], got {m!r}")
    beta_max = 3.0 * m
    # Multiples of m up to 15 standard deviations and 60 past the largest
    # mean; the Poisson masses beyond are below 1e-40.
    km = m * np.arange(1, math.ceil((beta_max + 15.0 * math.sqrt(beta_max) + 60.0) / m) + 1)
    log_norm = np.array([math.lgamma(k + 1.0) for k in km.tolist()])

    def log_f(beta):
        b = np.atleast_1d(np.asarray(beta, dtype=np.float64))[:, None]
        with np.errstate(divide="ignore"):
            logs = np.concatenate([-b, km * np.log(b) - b - log_norm], axis=1)
        top = logs.max(axis=1)
        total = top + np.log(np.exp(logs - top[:, None]).sum(axis=1))
        return total if np.ndim(beta) else float(total[0])

    beta, log_value, width = _scan_then_golden(log_f, 0.0, beta_max, 600, 1e-10,
                                               vectorized=True)
    return ExtremalResult(math.exp(log_value), beta,
                          {"bracket_width": width, "beta_max": beta_max,
                           "log_bound": log_value})


def projection_auxiliary_minimum() -> ExtremalResult:
    """Minimum over [0, 1/2] of the quadrature profile behind the disc bound.

    The function (12-4a) e^a/sqrt(e) - 13 - 2a^2 + (6-2a) e^{-a/2} has a
    unique interior minimum; its value exceeds 112/411, which feeds the
    disc-radius constant 28/411 for the spectrum containment.
    """
    def g(a: float) -> float:
        return ((12.0 - 4.0 * a) * math.exp(a) / SQRT_E - 13.0 - 2.0 * a * a
                + (6.0 - 2.0 * a) * math.exp(-a / 2.0))

    alpha0, value, width = _scan_then_golden(g, 0.0, 0.5, 500, 1e-11)
    return ExtremalResult(value, alpha0, {"bracket_width": width})


def log_gap_endpoint_values():
    """log(t) - correction(t*sqrt(e)) at t = 2/sqrt(e) and t = 1 + 1/sqrt(e).

    These are the two candidate minima of that difference on the interval
    between them; both exceed 1/8.
    """
    t1 = 2.0 / SQRT_E
    t2 = 1.0 + 1.0 / SQRT_E
    v1 = math.log(t1) - rho_minus_correction(t1 * SQRT_E)
    v2 = math.log(t2) - rho_minus_correction(t2 * SQRT_E)
    return v1, v2


TAU_MAX = 2.0 * math.log(2.0) - 1.0


def average_bound_expressions(lam: float, tau: float):
    """The two closed-form pieces bounding the average of |sigma| on [0, u0].

    Returns (main, correction); their sum is checked against the cap
    2 - 2/sqrt(e) - tau^2/(2 sqrt(e)) within 1e-12.  Requires
    0 <= lam <= tau <= 2 log 2 - 1.
    """
    if not (0.0 <= lam <= tau <= TAU_MAX + 1e-12):
        raise ValidationError("need 0 <= lam <= tau <= 2 log 2 - 1")
    e_main = 2.0 * (2.0 - math.exp(-lam / 2.0)
                    - math.exp(-0.5) * (math.exp(tau / 2.0)
                                        + math.exp((lam - tau) / 2.0)
                                        - math.exp(-lam / 2.0)))
    e_corr = (tau * (1.0 - 1.0 / SQRT_E) * (2.0 * math.exp(-lam / 2.0) - 2.0 + lam)
              + lam * lam * (1.0 / SQRT_E - 0.5)
              + (lam / SQRT_E) * (2.0 * math.exp((lam - tau) / 2.0) - 2.0 + (tau - lam)))
    cap = 2.0 - 2.0 / SQRT_E - tau * tau / (2.0 * SQRT_E)
    if e_main + e_corr > cap + 1e-12:
        raise ContractError(
            f"average bound {e_main + e_corr:.15f} exceeds cap {cap:.15f}")
    return e_main, e_corr


def mixed_square_inequality_violations(n_samples: int, seed: int = 0) -> int:
    """Random search for violations of 2ax+2by-(sqrt(a)x+sqrt(b)y)^2 >= c(x+y)(2-x-y).

    Samples a, b >= c > 0 and x, y in [0, 1]; counts samples below -1e-12
    (expected zero).
    """
    rng = np.random.default_rng(seed)
    remaining = n_samples
    violations = 0
    while remaining > 0:
        batch = min(remaining, 1 << 18)
        c = rng.uniform(1e-3, 2.0, batch)
        a = c + rng.uniform(0.0, 3.0, batch)
        b = c + rng.uniform(0.0, 3.0, batch)
        x = rng.uniform(0.0, 1.0, batch)
        y = rng.uniform(0.0, 1.0, batch)
        lhs = 2.0 * a * x + 2.0 * b * y - (np.sqrt(a) * x + np.sqrt(b) * y) ** 2
        rhs = c * (x + y) * (2.0 - x - y)
        violations += int(np.count_nonzero(lhs - rhs < -1e-12))
        remaining -= batch
    return violations


DEFAULT_U_GRID = (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)

#: Most restarts per u: each is a coordinate descent of up to sweeps x m_steps
#: line searches, tens of milliseconds, so 1000 restarts already take minutes.
MAX_RESTARTS = 1000

#: Largest line-search degree floor(B*u): a line search solves up to d + 2
#: kernels where golden section solved about 16, yet it is the faster one.
#: gamma-b --B 10 (degree 60) took 10.4-10.8 s on the h = 1e-3 march with
#: the DCT-I argmin, 10.7-11.6 s with the least-squares argmin before it and
#: 20.7 s with golden section; on the Taylor engine it takes 1.0-1.5 s
#: (9.7-10.2 s on that march in the same runs), all measured on a 2-vCPU VM.
MAX_LINE_DEGREE = 100

#: Most values (4 MB of float64) that one batched evaluation holds: rows x
#: cells x terms in the engine (kernels._taylor_size, ring and buffers), rows
#: x (n + 1) nodes in the march, which with its checks keeps about three such
#: arrays alive.  More rows go in chunks, which changes no bit; the search
#: reads the engine only where one row fits.  gamma-b --B 10 holds at most
#: 290 rows x 129 cells x 14 terms (524 k) in one engine call, so the 8
#: restarts x 61 rows of a line search there go in two chunks, and with
#: --steps 16 a row holds at most 721 cells x 10 terms, its 17 marks' gathered
#: products among them; unchunked, the march would hold 8 x 61 x 60,001
#: nodes (234 MB) there.  Beside the rows,
#: each engine panel keeps one plan, whose tables (kernels._taylor_plan_size)
#: hold fewer than B*u*2NT <= B*u/h values: at most 12,272 for gamma-b --B 10
#: and 20,768 with --steps 16.
MAX_BATCH_SAMPLES = 2 ** 19


def _dct1(d: int) -> np.ndarray:
    """The (d + 1) x (d + 1) DCT-I matrix taking values at the Lobatto nodes
    cos(pi k/d) to the Chebyshev coefficients of their interpolant."""
    w = np.ones(d + 1)
    w[[0, -1]] = 0.5
    jk = np.outer(np.arange(d + 1), np.arange(d + 1)) % (2 * d)
    return np.cos(np.pi * jk / d) * np.outer(w, w) * (2.0 / d)


def _colleague(c: np.ndarray) -> np.ndarray:
    """Scaled companion (colleague) matrices of the Chebyshev series in the
    rows of c, stacked and rotated by half a turn, one per row as numpy's
    chebcompanion builds it."""
    n = c.shape[1] - 1
    scl = np.array([1.0] + [np.sqrt(0.5)] * (n - 1))
    off = np.full(n - 1, 0.5)
    off[0] = np.sqrt(0.5)
    mat = np.zeros((len(c), n, n))
    i = np.arange(n - 1)
    mat[:, i, i + 1] = off
    mat[:, i + 1, i] = off
    mat[:, :, -1] -= (c[:, :-1] / c[:, -1:]) * (scl / scl[-1]) * 0.5
    return mat[:, ::-1, ::-1]


@functools.lru_cache(maxsize=MAX_LINE_DEGREE + 1)
def _lobatto(d: int):
    """(nodes cos(pi k/d), _dct1(d)) of the line-search degree d, built once
    per process and read-only, since every caller shares them."""
    pair = np.cos(np.pi * np.arange(d + 1) / d), _dct1(d)
    for a in pair:
        a.setflags(write=False)
    return pair


def _chebder(coef: np.ndarray) -> np.ndarray:
    """cheb.chebder(coef, axis=1) bit for bit, for rows of at least two
    coefficients: its column operations on one copy, without its checks,
    moved axes and multiplication by the scale 1."""
    c = coef.T.copy()
    n = len(c) - 1
    der = np.empty((n, len(coef)))
    for j in range(n, 2, -1):
        der[j - 1] = (2 * j) * c[j]
        c[j - 2] += (j * c[j]) / (j - 2)
    if n > 1:
        der[1] = 4 * c[2]
    der[0] = c[1]
    return der.T


def _line_argmins(dct: np.ndarray, lines: np.ndarray) -> np.ndarray:
    """Argmin on [-1, 1] of the interpolant through each row of lines, given at
    the Lobatto nodes of dct = _dct1(d): the least of the endpoints -1 and 1
    and the real roots of its derivative in [-1, 1], the first on ties.

    Coefficients come from a broadcast multiply and a sum over a fixed axis,
    and the roots from one eigvals call per trimmed derivative degree, so a
    row's argmin does not depend on the rows batched with it.
    """
    coef = (lines[:, None, :] * dct).sum(axis=2)
    der = _chebder(coef)
    nonzero = der[:, ::-1] != 0.0  # trim exact-zero leading coefficients, as chebtrim
    length = np.where(nonzero.any(axis=1), der.shape[1] - nonzero.argmax(axis=1), 1)
    cand = np.full((len(lines), der.shape[1] + 1), np.nan)
    cand[:, :2] = -1.0, 1.0
    for n in sorted(set(length.tolist()) - {1}):
        rows = np.flatnonzero(length == n)
        c = der[rows, :n]
        if n == 2:
            r = -c[:, :1] / c[:, 1:]
        else:
            r = np.linalg.eigvals(_colleague(c))
        real = (np.abs(r.imag) <= 1e-9) & (np.abs(r.real) <= 1.0)
        cand[rows, 2:n + 1] = np.where(real, r.real, np.nan)
    vals = cheb.chebval(cand, coef.T[:, :, None], tensor=False)
    return cand[np.arange(len(lines)), np.where(np.isnan(vals), np.inf, vals).argmin(axis=1)]


def truncated_kernel_min_mean(B: float, m_steps: int = 8, u_grid=None,
                              h: float = 1e-3, restarts: int = 8,
                              seed: int = 0, sweeps: int = 3) -> ExtremalResult:
    """Search for the most negative sigma(B*u) over truncated sign kernels.

    The kernel is 1 on [0, 1], takes m_steps free levels in [-1, 1] on equal
    panels of [1, u], and vanishes beyond u; the outer loop ranges over
    u_grid (scaled so B*u >= 1 when defaulted) and the inner optimizer is
    coordinate descent from one all-minus start plus seeded random restarts.
    u is snapped to k/m1 on the grid of step h = 1/m1, and its panel edges
    1 + (u - 1) j/m_steps are exact rationals on a lattice 1/N.  The Taylor
    engine reads sigma(B*u) exactly for about N T values per unit and kernel
    (T terms per cell), the march for m1 nodes; the engine is read where
    2 N T <= m1 and one kernel fits MAX_BATCH_SAMPLES.  Elsewhere the edges
    are rounded to the grid h (a no-op where N divides m1) and sigma(B*u) is
    read off the batched h-march by linear interpolation;
    diagnostics["exact"] says which.  sigma(B*u) is a polynomial in each
    level, of degree at most d = floor(B*u / a) for a level whose panel
    starts at a, so each line search solves the d + 1 kernels at the
    Chebyshev-Lobatto nodes cos(pi k/d), interpolates exactly and takes the
    interpolant's global minimum on [-1, 1]; a step is taken only if a solve
    at that minimum beats the current value.  The restarts advance in
    lockstep, so each coordinate's solves for every restart still improving
    are one batched engine call or march (in chunks of at most
    MAX_BATCH_SAMPLES values), bit for bit as one call per kernel, and their
    argmins one batched interpolation step (_line_argmins).  An engine panel
    builds one kernels._taylor_plan for its marks, N and B*u before the
    descent, and every engine call is that plan called on a chunk.  Every
    line-search kernel is held to |sigma| <= 1 (the march also to its running
    average, not to its residual); the best kernel is then
    solved by the residual-checked march at h' = 1/M, the largest step <= h
    on which its breaks lie, under every march contract, and the march must
    meet the engine within h'^2 at the two nodes around B*u.  The panel
    parameterization only explores part of the admissible class, so the
    result is an upper bound for the true minimum; it is checked against the
    two-sided bracket [-rho(B) - 1e-4, 0).
    """
    if not 0.0 < B < math.inf:
        raise ValidationError("B must be positive and finite")
    for name, n in (("m_steps", m_steps), ("restarts", restarts), ("sweeps", sweeps)):
        if not isinstance(n, (int, np.integer)):
            raise ValidationError(f"{name} must be an integer, got {n!r}")
    if m_steps < 1 or restarts < 1 or sweeps < 0:
        raise ValidationError("m_steps and restarts must be at least 1, sweeps at least 0")
    if restarts > MAX_RESTARTS:
        raise BudgetError(f"restarts = {restarts} exceeds the budget {MAX_RESTARTS}")
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValidationError(f"seed must be a non-negative integer, got {seed!r}")
    if u_grid is None:
        scale = max(1.0, 1.0 / (B * DEFAULT_U_GRID[0]))
        u_grid = tuple(u * scale for u in DEFAULT_U_GRID)
    else:
        u_grid = tuple(float(u) for u in u_grid)
        if not u_grid:
            raise ValidationError("u_grid must hold at least one u")
        if any(B * u < 1.0 - ALIGN_TOL for u in u_grid):
            raise ValidationError("infeasible grid: need B*u >= 1 for every u")
        if any(u <= 1.0 for u in u_grid):
            raise ValidationError("kernel support needs u > 1")
    for u in u_grid:
        _check_grid(max(B, 1.0) * u, h)
        if math.floor(B * u + ALIGN_TOL) > MAX_LINE_DEGREE:
            raise BudgetError(f"line-search degree floor(B*u) = {math.floor(B * u)} "
                              f"exceeds the budget {MAX_LINE_DEGREE}")
    m1 = _unit_steps(h)
    panels = []
    for u_raw in u_grid:
        # u = k/m1 on the h grid, split into m_steps exact equal panels
        # 1 + (u - 1) j/m_steps: over the denominator D = m1 m_steps their
        # numerators D + (k - m1) j share g = gcd(D, k - m1), so the edges
        # are marks/N on the lattice N = D/g.
        k = round(u_raw / h)
        if k - m1 < m_steps:
            raise ValidationError(f"{m_steps} panels of [1, {u_raw}] do not fit on the h={h} grid")
        D = m1 * m_steps
        g = math.gcd(D, k - m1)
        N = D // g
        marks = [(D + (k - m1) * j) // g for j in range(m_steps + 1)]
        u = k / m1
        # The engine's cost per kernel grows as N T, the march's as m1: the
        # search at u = 3.1 and B = 1 or 3 breaks even between N T = 250
        # and 1000 at h = 1e-3.
        cells, terms = _taylor_size(marks, N, B * u)
        exact = 2 * N * terms <= m1 and cells * terms <= MAX_BATCH_SAMPLES
        if not exact:
            # Edges rounded to the grid h (half up), on the lattice m1/g.
            marks = [m1 + (2 * (k - m1) * j + m_steps) // (2 * m_steps)
                     for j in range(m_steps + 1)]
            g = math.gcd(m1, *marks)
            N, marks, terms = m1 // g, [mk // g for mk in marks], _taylor_terms(m1 // g)
        # The re-validation solve runs at h' = 1/M, the largest step <= h
        # on which every edge lies, and the engine reads it at the nodes
        # around B*u, up to B*u + h' (one more h' for rounding).
        M = N * -(-m1 // N)
        _check_grid(max(B * u, u), 1.0 / M)
        _check_taylor(N, B * u + 2.0 / M)
        panels.append((u, N, marks, M, terms, exact))

    rho_floor = dickman_rho(B)
    rng = np.random.default_rng(seed)
    best_val = math.inf
    best = None
    max_abs_seen = 0.0
    evaluations = 0

    for u, N, marks, M, terms, exact in panels:
        m = m_steps
        target = B * u
        edges = [mk / N for mk in marks]
        # sigma(target) has degree <= floor(target / a) in a level whose panel
        # starts at a: each use of the level delays by at least a.
        lobatto = [_lobatto(max(1, math.floor(target / a + ALIGN_TOL))) for a in edges[:-1]]
        if exact:
            chunk = MAX_BATCH_SAMPLES // (_taylor_size(marks, N, target)[0] * terms)
            plan = _taylor_plan(marks, N, [target])
        else:
            n = _grid_steps(max(target, u), h)
            chunk = max(1, MAX_BATCH_SAMPLES // (n + 1))
            # sigma(target) interpolates linearly from node i_t on, as GridFunction.value_at.
            i_t, frac = _grid_point(target, h, n)

        def solve(levels: np.ndarray) -> np.ndarray:
            """sigma(target) for the kernel of each row of levels, in batches."""
            nonlocal max_abs_seen, evaluations
            segments = np.zeros((len(levels), m + 2))
            segments[:, 0] = 1.0
            segments[:, 1:-1] = levels
            vals = np.empty(len(levels))
            for r in range(0, len(levels), chunk):
                rows = segments[r:r + chunk]
                if exact:
                    vals[r:r + chunk] = plan(rows)[0]
                else:
                    sigma, _ = _solve_rows(edges, rows, max(target, u), h, check_residual=False)
                    vals[r:r + chunk] = sigma[i_t] + frac * (sigma[i_t + 1] - sigma[i_t])
            evaluations += len(vals)
            max_abs_seen = max(max_abs_seen, float(np.abs(vals).max()))
            return vals

        starts = [np.full(m, -1.0)]
        while len(starts) < restarts:
            starts.append(rng.uniform(-1.0, 1.0, m))

        # The restarts descend in lockstep, each on its own path: per sweep
        # and coordinate, the line-search rows of every restart still
        # improving form one batched solve, and so do the off-node argmins.
        y = np.array(starts)
        val = solve(y)
        active = np.arange(restarts)
        for _ in range(sweeps):
            improved = np.zeros(len(active), dtype=bool)
            for j, (nodes, dct) in enumerate(lobatto):
                trials = np.repeat(y[active], len(nodes), axis=0)
                trials.reshape(len(active), len(nodes), m)[:, :, j] = nodes
                lines = solve(trials).reshape(len(active), len(nodes))
                ts = _line_argmins(dct, lines)
                # A node's value was solved already; the others need a solve.
                hit = nodes == ts[:, None]
                off = ~hit.any(axis=1)
                vs = np.empty(len(active))
                vs[~off] = lines[hit]
                if off.any():
                    trials = y[active[off]]
                    trials[:, j] = ts[off]
                    vs[off] = solve(trials)
                step = vs < val[active] - 1e-12
                y[active[step], j] = ts[step]
                val[active[step]] = vs[step]
                improved |= step
            active = active[improved]
            if not active.size:
                break
        for r in range(restarts):
            if val[r] < best_val:
                best_val = float(val[r])
                best = (u, N, marks, M, terms, exact, (1.0,) + tuple(y[r]) + (0.0,))

    if not (-rho_floor - 1e-4 <= best_val < 0.0):
        raise ContractError(
            f"minimum {best_val:.6f} escapes the bracket [{-rho_floor - 1e-4:.6f}, 0)")
    if max_abs_seen > rho_floor + 1e-4:
        raise ContractError(
            f"candidate |sigma(B*u)| = {max_abs_seen:.6f} exceeds rho(B) + 1e-4")
    u, N, marks, M, terms, exact, values = best
    target = B * u
    kernel = StepFunction(tuple(mk / N for mk in marks), values[:-1], 0.0)
    # Re-validate the winner with every contract of a residual-checked march
    # at h' = 1/M, and the march against the engine at the two nodes around
    # the target: the trapezoid error is O(h'^2).
    sol = solve_sigma(kernel, max(target, u), 1.0 / M)
    i = min(int(target * M), len(sol.sigma) - 2)
    nodes = sol.sigma.u[i:i + 2]
    gap = float(np.max(np.abs(sol.sigma.samples[i:i + 2] - _taylor_plan(marks, N, nodes)(values))))
    if not gap <= M ** -2.0:
        raise ContractError(f"march and Taylor engine differ by {gap:.3e} > h'^2 near u = {target}")
    return ExtremalResult(best_val, kernel, {
        "u": u,
        "target": target,
        "rho_floor": -rho_floor,
        "max_abs_sigma": max_abs_seen,
        "evaluations": evaluations,
        "exact": exact,
        "lattice": N,
        "taylor_terms": terms,
        "revalidation_h": 1.0 / M,
        "revalidation_gap": gap,
    })


@dataclass(frozen=True)
class SignChangeReport:
    brackets: tuple
    identity_residual: float


def minus_kernel_sign_changes(w_max: float, h: float = 1e-4) -> SignChangeReport:
    """Sign changes of the solution for the kernel (1 on [0,1], -1 on [1,2], 0 after).

    Scans [1, w_max] for bracketing intervals where the solution crosses
    zero and verifies the windowed-integral identity w*sigma(w) =
    F(w) - F(w-1) with F(w) = int_{w-1}^w sigma, at 100 sample points.
    """
    if w_max < 4.0:
        raise ValidationError("w_max must be at least 4")
    chi = StepFunction((1.0, 2.0), (1.0, -1.0), 0.0)
    sol = solve_sigma(chi, w_max, h)
    s = sol.sigma.samples.real
    m1 = _unit_steps(h)
    # A node at an exact zero brackets its two neighbours; otherwise a sign
    # change between nodes i and i + 1 brackets that panel.
    zero = s[m1:-1] == 0.0
    i = np.flatnonzero(zero | (s[m1:-1] * s[m1 + 1:] < 0.0)) + m1
    lo = np.where(zero[i - m1], i - 1, i) * h
    brackets = tuple(zip(lo.tolist(), ((i + 1) * h).tolist()))

    C = sol.sigma.cumulative().real
    i = np.rint(np.linspace(2.0, (len(s) - 1) * h, 100) / h).astype(np.int64)
    F_w = C[i] - C[i - m1]
    F_w1 = C[i - m1] - C[i - 2 * m1]
    resid = float(np.max(np.abs((i * h) * s[i] - (F_w - F_w1))))
    return SignChangeReport(brackets, resid)
