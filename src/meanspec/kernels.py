"""Step kernels, uniform grid functions, and the exact Taylor engine.

Two representations underpin the package.  A StepFunction is a
right-continuous piecewise-constant complex function on [0, oo) whose
initial segment is identically 1; it plays the role of the kernel in the
delay integral equation.  A GridFunction holds samples of a continuous
function on the uniform grid u = 0, h, 2h, ...  On top of these the module
provides the exact Taylor engine, which evaluates sigma, to rounding, for
kernels whose breaks lie on a lattice 1/N: piecewise Taylor series about the
lattice cells' centres (after Marsaglia, Zaman & Marsaglia, Math. Comp. 53,
1989), one or many kernels at once; its one entry point _taylor_plan builds
what depends only on the marks, N and the points, and the plan runs the
recurrence on the levels.  The input rules and the |sigma| <= 1 contract it
shares with dde_solver's march live here once.  The Dickman function and
its factor-two signed variant are its one-break case; the module also gives
the logarithmic integral correction the signed variant picks up past u = 2.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ContractError, GridError, ValidationError

SQRT_E = math.sqrt(math.e)

#: Tolerance for membership in the closed unit disc.
DISC_TOL = 1e-12

#: Absolute slack when snapping breakpoints and evaluation points to a grid.
ALIGN_TOL = 1e-9

#: Budget of grid steps u_max/h (80x the largest acceptance solve, u = 12 at h = 1e-4),
#: of the Taylor engine's lattice cells u_max*N, and of its plan's table values.
MAX_SOLVER_NODES = 10 ** 7

#: Largest delay-function argument (one engine block per unit interval); past
#: u = 20 both functions are below the series' rounding error of about 1e-17.
MAX_DELAY_U = 1000.0


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous step kernel equal to 1 on [0, 1).

    Segment layout: ``values[0]`` on ``[0, breaks[0])``, ``values[j]`` on
    ``[breaks[j-1], breaks[j])``, and ``tail`` on ``[breaks[-1], oo)``.
    With no breaks the kernel is constantly ``tail`` (which must then be 1).
    At a breakpoint the value is the one of the segment starting there.
    """

    breaks: tuple = ()
    values: tuple = ()
    tail: complex = 1.0 + 0.0j

    def __post_init__(self):
        breaks = tuple(float(b) for b in self.breaks)
        values = tuple(complex(v) for v in self.values)
        tail = complex(self.tail)
        object.__setattr__(self, "breaks", breaks)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "tail", tail)
        if not (all(map(math.isfinite, breaks))
                and all(map(cmath.isfinite, values + (tail,)))):
            raise ValidationError("kernel breakpoints and values must be finite")
        if len(breaks) != len(values):
            raise ValidationError("need exactly one value per segment before each break")
        if any(b2 <= b1 for b1, b2 in zip(breaks, breaks[1:])):
            raise ValidationError("breakpoints must be strictly increasing")
        if breaks:
            if breaks[0] < 1.0:
                raise ValidationError("first breakpoint must be >= 1: the kernel is 1 on [0, 1)")
            if values[0] != 1:
                raise ValidationError("kernel must equal exactly 1 on its initial segment")
        elif tail != 1:
            raise ValidationError("a break-free kernel must be constantly 1")
        for v in values + (tail,):
            if abs(v) > 1.0 + DISC_TOL:
                raise ValidationError(f"kernel value {v} lies outside the closed unit disc")

    @property
    def is_real(self) -> bool:
        return self.tail.imag == 0 and all(v.imag == 0 for v in self.values)

    def segment_values(self) -> tuple:
        """Segment constants including the tail, in left-to-right order."""
        return self.values + (self.tail,)

    def __call__(self, t: float) -> complex:
        if t < 0:
            raise ValidationError("kernel argument must be nonnegative")
        k = bisect_right(self.breaks, t)
        return self.values[k] if k < len(self.breaks) else self.tail

    def require_aligned(self, h: float) -> list:
        """Grid indices round(b / h) of the breaks; raise unless each is a multiple of h."""
        marks = [round(b / h) for b in self.breaks]
        for b, mk in zip(self.breaks, marks):
            if abs(mk * h - b) > ALIGN_TOL:
                raise GridError(f"breakpoint {b} is not a multiple of the grid step {h}")
        return marks

    def panel_values(self, n_panels: int, h: float) -> np.ndarray:
        """Kernel value on each grid panel [jh, (j+1)h), j = 0..n_panels-1.

        Requires breakpoints aligned to the grid, so the kernel is constant
        within every panel.
        """
        marks = np.array(self.require_aligned(h), dtype=np.int64)
        segs = np.asarray(self.segment_values(), dtype=np.complex128)
        # Segment i covers the panels from mark i - 1 (0 for i = 0) up to mark i.
        edges = np.concatenate(([0], np.minimum(marks, n_panels), [n_panels]))
        out = np.repeat(segs, np.diff(edges))
        return out.real.copy() if self.is_real else out

    def to_json(self) -> str:
        payload = {
            "breaks": list(self.breaks),
            "values": [[v.real, v.imag] for v in self.values],
            "tail": [self.tail.real, self.tail.imag],
        }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "StepFunction":
        try:
            return cls._from_raw(json.loads(text))
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed kernel JSON: {exc}") from None

    @classmethod
    def _from_raw(cls, raw) -> "StepFunction":
        try:
            breaks = tuple(float(b) for b in raw["breaks"])
            values = tuple(complex(re, im) for re, im in raw["values"])
            tail = complex(raw["tail"][0], raw["tail"][1])
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValidationError(f"malformed kernel JSON: {exc}") from None
        return cls(breaks, values, tail)


@dataclass(frozen=True)
class GridFunction:
    """Samples of a function at u = 0, h, 2h, ..., h*(len(samples)-1); a read-only
    float64 or complex128 array that owns its memory is kept, any other copied."""

    h: float
    samples: np.ndarray

    def __post_init__(self):
        if self.h <= 0:
            raise ValidationError("grid step must be positive")
        arr = np.asarray(self.samples)
        if arr.ndim != 1 or arr.size == 0:
            raise ValidationError("samples must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(arr)):
            raise ValidationError("samples must be finite")
        dtype = np.complex128 if np.iscomplexobj(arr) else np.float64
        if arr.flags.writeable or not arr.flags.owndata or arr.dtype != dtype:
            arr = arr.astype(dtype)
            arr.setflags(write=False)
        object.__setattr__(self, "samples", arr)

    def __len__(self) -> int:
        return len(self.samples)

    @property
    def u_max(self) -> float:
        return self.h * (len(self.samples) - 1)

    @property
    def u(self) -> np.ndarray:
        return self.h * np.arange(len(self.samples))

    def value_at(self, u: float):
        """Linear interpolation between the two neighbouring samples."""
        if not -ALIGN_TOL <= u <= self.u_max + ALIGN_TOL:  # NaN fails too
            raise ValidationError(f"u={u} outside [0, {self.u_max}]")
        if len(self.samples) == 1:
            return self.samples[0]
        j, frac = _grid_point(u, self.h, len(self.samples) - 1)
        s = self.samples
        return s[j] + frac * (s[j + 1] - s[j])

    def cumulative(self) -> np.ndarray:
        """Trapezoid antiderivative sampled on the same grid."""
        return _trapezoid_cumulative(self.samples, self.h)

    def to_csv(self) -> str:
        s = self.samples
        rows = map("{:.12g},{:.12g},{:.12g}".format,
                   self.u.tolist(), s.real.tolist(), s.imag.tolist())
        return "\n".join(["u,re,im", *rows]) + "\n"


def _grid_point(u: float, h: float, n: int):
    """(j, frac) with u = (j + frac) * h, u clamped to the grid 0, h, ...,
    n*h (n >= 1) and j <= n - 1: linear interpolation at u reads nodes j
    and j + 1 with weights 1 - frac and frac."""
    x = min(max(u, 0.0) / h, float(n))
    j = min(int(x), n - 1)
    return j, x - j


def _trapezoid_cumulative(s: np.ndarray, h: float) -> np.ndarray:
    """Trapezoid antiderivative of the samples s on the grid of step h, along
    the first axis, built in one new array."""
    out = np.empty(s.shape, dtype=s.dtype)
    out[0] = 0
    np.add(s[1:], s[:-1], out=out[1:])
    out[1:] *= 0.5 * h
    np.cumsum(out[1:], axis=0, out=out[1:])
    return out


def _check_grid(u_max: float, h: float) -> None:
    """Reject a non-finite or non-positive u_max or h, and over-budget grids."""
    if not (math.isfinite(u_max) and math.isfinite(h)) or u_max <= 0 or h <= 0:
        raise ValidationError("u_max and h must be positive and finite")
    if u_max / h > MAX_SOLVER_NODES:
        raise BudgetError(f"u_max/h = {u_max / h:.3g} exceeds the budget {MAX_SOLVER_NODES}")


def _grid_steps(u_max: float, h: float) -> int:
    """Steps n of the grid 0, h, ..., n*h covering [0, u_max] (at least one)."""
    _check_grid(u_max, h)
    return max(1, int(math.ceil(u_max / h - ALIGN_TOL)))


def _unit_steps(h: float) -> int:
    """m1 = 1/h steps of the positive grid step h per unit; raise unless h divides 1.0."""
    m1 = round(1.0 / h)
    if abs(m1 * h - 1.0) > ALIGN_TOL:
        raise GridError(f"grid step {h} must divide 1.0 exactly")
    return m1


def _segment_rows(values, n_breaks: int) -> np.ndarray:
    """values, float64 or complex128: one kernel's n_breaks + 1 segment constants or
    a row each of R kernels; raise unless each row has 1 first, all in the unit disc."""
    values = np.asarray(values, dtype=np.complex128 if np.iscomplexobj(values) else np.float64)
    if (values.ndim not in (1, 2) or values.shape[-1] != n_breaks + 1
            or not (values[..., 0] == 1).all() or not (np.abs(values) <= 1.0 + DISC_TOL).all()):
        raise ValidationError("each kernel needs one value per segment in the unit disc, 1 first")
    return values


def _check_modulus(sigma: np.ndarray) -> None:
    """|sigma| <= 1 + 1e-9 over an array of any shape, also empty, by a ufunc
    method: np.max's wrapper costs several % of a search-sized engine call."""
    overshoot = float(np.maximum.reduce(np.abs(sigma), axis=None, initial=1.0)) - 1.0
    if not overshoot <= 1e-9:  # NaN, which the reduction propagates, fails too
        raise ContractError(f"|sigma| exceeded 1 by {overshoot:.3e}")


def _horner(coeffs, s: np.ndarray) -> np.ndarray:
    """sum_i coeffs[i] * s**i by Horner's rule, on an array s and at least two
    coefficients, in place after the first step."""
    y = coeffs[-1] * s + coeffs[-2]
    for a in coeffs[-3::-1]:
        y *= s
        y += a
    return y


def _taylor_terms(N: int) -> int:
    """The least term count T with ((w/2)/(1 + w/2))**T = (2N + 1)**-T below
    2**-56 for cells of width w = 1/N: every singularity of sigma's
    continuation from a cell lies at least 1 + w/2 left of its centre, so on
    the cell the terms fall by that ratio."""
    T, power = 1, 2 * N + 1  # power = (2N + 1)**T
    while power <= 2 ** 56:
        T, power = T + 1, power * (2 * N + 1)
    return T


def _taylor_size(marks, N: int, u_max: float):
    """(cells, T) of a _taylor_plan call for points up to u_max: T terms per
    cell, and per kernel the cells it holds: a ring of N per unit block for
    the blocks a later block still reads (up to the largest mark it uses) and
    the one it builds, the block's N sums G, the N products of each mark the
    last block reads, gathered at once (at least 2 N, which the two edge sums
    reuse), and one cell per mark read for its jump, repeated along the terms.
    Besides these it holds 2 (N + 1) edge sums per kernel; the plan's tables,
    shared by the batch, are _taylor_plan_size and the ring rows each block
    gathers."""
    last = max(math.ceil(u_max * N) - 1, 0)
    active = [mk for mk in marks if mk <= last]
    ring = N * (-(-max(active, default=N) // N) + 1)
    return ring + N + N * max(len(active), 2) + len(active), _taylor_terms(N)


def _taylor_plan_size(N: int, u_max: float) -> int:
    """Values in the tables of a _taylor_plan for points up to u_max: per
    unit block after the first, the N x (T - 1) powers (-c)**i of its
    cells' centres c and as many divisors."""
    blocks = max(math.ceil(u_max * N) - 1, 0) // N
    return 2 * blocks * N * (_taylor_terms(N) - 1)


def _check_taylor(N: int, u_max: float) -> None:
    """Reject points up to u_max on the lattice 1/N past the engine's
    budgets: MAX_SOLVER_NODES lattice cells u_max*N and as many table values
    (_taylor_plan_size)."""
    if u_max * N >= MAX_SOLVER_NODES:
        raise BudgetError(f"{u_max * N:.3g} lattice cells exceed the budget {MAX_SOLVER_NODES}")
    tables = _taylor_plan_size(N, u_max)
    if tables > MAX_SOLVER_NODES:
        raise BudgetError(f"{tables} Taylor table values exceed the budget {MAX_SOLVER_NODES}")


def _taylor_plan(marks, N: int, points):
    """The exact Taylor engine for step kernels whose breaks lie on the
    lattice of width w = 1/N, read at the ascending points: everything that
    does not depend on the levels, built once.  Calling the plan on values
    gives sigma at the points.

    marks are the breaks in cells, strictly increasing integers >= N.  values
    holds the segment constants along its last axis, as for
    dde_solver._solve_rows: a (k + 1,) row is one kernel and gives (P,)
    values, an (R, k + 1) matrix R kernels on the shared marks and gives
    (P, R), each column bit for bit its one-kernel value.

    Differentiating u sigma = sigma * chi gives u sigma'(u) =
    sum_k d_k sigma(u - b_k), d_k the jump at b_k = m_k w.  On the cell
    [jw, (j + 1)w) with centre c, sigma(u - b_k) reads cell j - m_k at the
    same offset s = u - c, so with G = sum_k d_k a^(j - m_k) the
    coefficients follow a_{i+1} = (G_i - i a_i)/(c (i + 1)), none of them
    from a_0; times (i + 1) c (-c)**i the recurrence telescopes into one
    cumulative sum along the coefficients.  Every m_k >= N, so a unit block
    of N cells reads only earlier blocks and is one numpy step; a_0 then
    comes from the cumulative sum of the cells' edge increments, seeded by
    the previous block's right edge, and |sigma| <= 1 is checked at every
    edge.  Cells 0..N-1 hold sigma = 1 exactly.  The cells live in a ring
    (_taylor_size), zeros until first written, which is what a read before
    u = 0 must see.  A point u is read in cell max(ceil(uN) - 1, 0) by
    Horner.  Every product is elementwise and every sum runs along the
    coefficients or the cells, so no row's bits depend on the rows batched
    with it.

    The plan checks the marks, the points and both budgets, and holds each
    block's powers (-c)**i and divisors (i + 1) c (-c)**i (_taylor_plan_size),
    each read cell's offsets s, and per block the (K_b, N) ring rows of the
    K_b marks it reads, at most (blocks - 1) K N indices for K marks.
    A call checks the values and takes each block's jump sums G in three
    numpy calls: one gather of those rows into a (K_b, N, R, T) buffer
    (_taylor_size counts it, K_b N cells per kernel), one multiply by the
    jumps, each the first factor since numpy rounds a complex a b and b a
    apart, and one reduction along the marks, which adds them in mark order
    from 0 as a loop over the marks would.  Both edge sums are one multiply by
    the stacked (2, T - 1) powers and one reduction along the terms, each
    row's pairwise sum as alone.  It checks every edge and reads by Horner,
    so a plan called again gives each row the bits of a fresh plan; no rows
    give (P, 0).
    """
    if any(mk < N for mk in marks[:1]) or any(b <= a for a, b in zip(marks, marks[1:])):
        raise ValidationError(f"marks must increase strictly from at least N = {N}")
    points = np.asarray(points, dtype=np.float64)
    if not (points[0] >= 0 and math.isfinite(points[-1])):  # NaN fails too
        raise ValidationError("argument must be finite and nonnegative")
    if not (points[1:] >= points[:-1]).all():  # and so does a NaN inside
        raise ValidationError("points must ascend")
    _check_taylor(N, float(points[-1]))
    cells = np.maximum(np.ceil(points * N) - 1.0, 0.0).astype(np.int64)
    n_blocks = int(cells[-1]) // N + 1
    active = np.array([mk for mk in marks if mk <= cells[-1]], dtype=np.intp)  # a prefix
    size, T = _taylor_size(marks, N, points[-1])
    # Per kernel the ring's L cells, the N sums G, N products for each of up
    # to `depth` marks (at least the two edge sums' 2 N) and a jump per mark.
    depth = max(len(active), 2)
    L = size - (depth + 1) * N - len(active)
    # A cell's increment and its left edge minus a_0 take the powers
    # (w/2)**i - (-w/2)**i and (-w/2)**i, i = 1..T-1: one (2, T - 1) table.
    right = (0.5 / N) ** np.arange(1.0, T)
    left = np.where(np.arange(1, T) % 2, -right, right)
    ends = np.array((right - left, left)).reshape(2, 1, 1, T - 1)
    orders = np.arange(1.0, T)  # i + 1
    centres = (np.arange(n_blocks * N) + 0.5) / N
    # The recurrence times (i + 1) c (-c)**i telescopes:
    # (i + 1) c (-c)**i a_{i+1} = sum_{l <= i} G_l (-c)**l.
    later = centres[N:].reshape(n_blocks - 1, N, 1, 1)
    powers = np.empty((n_blocks - 1, N, 1, T - 1))
    powers[..., 0] = 1.0
    powers[..., 1:] = -later
    np.cumprod(powers, axis=-1, out=powers)
    divisors = powers * later
    divisors *= orders
    # Block b reads cells b N - m_k + [0, N), ring rows modulo L, of its K_b
    # marks, the first ones, below (b + 1) N:
    # (ring rows (K_b, N), K_b, ring slot, powers, divisors) per block.
    tables = (N * np.arange(1, n_blocks)[:, None, None] - active[:, None] + np.arange(N)) % L
    reading = np.searchsorted(active, N * np.arange(2, n_blocks + 1)).tolist()
    blocks = [(tables[b - 1, :n_read], n_read, b * N % L, powers[b - 1], divisors[b - 1])
              for b, n_read in enumerate(reading, 1)]
    # Each distinct read cell j is read once its block j // N is built, from
    # ring row j % L (L is a multiple of N): (ring row, first point, last + 1, offsets).
    reads = [[] for _ in range(n_blocks)]
    cuts = (np.flatnonzero(cells[1:] != cells[:-1]) + 1).tolist()
    for lo, hi in zip([0] + cuts, cuts + [len(cells)]):
        j = int(cells[lo])
        reads[j // N].append((j % L, lo, hi, (points[lo:hi] - centres[j])[:, None]))

    def rows(values) -> np.ndarray:
        values = _segment_rows(values, len(marks))
        batch = values.reshape(-1, values.shape[-1])  # one kernel is a batch of one
        R = len(batch)
        # Each jump repeated along the terms, so the product runs over whole
        # rows, and the first factor: numpy rounds a complex a b and b a apart.
        k = len(active)
        jumps = np.repeat((batch[:, 1:k + 1] - batch[:, :k]).T.reshape(k, 1, R, 1), T, axis=-1)
        ring = np.zeros((L, R, T), dtype=values.dtype)
        ring[:N, :, 0] = 1.0
        G = np.empty((N, R, T), dtype=values.dtype)
        sums = G[..., :-1]
        # One buffer holds a block's jump products and then its two edge sums' products.
        prods = np.empty((depth, N, R, T), dtype=values.dtype)
        both = prods.reshape(-1)[:2 * sums.size].reshape((2,) + sums.shape)
        # sigma at the block's N + 1 edges, and the sums for its cells' left edges.
        edges = np.empty((2, N + 1, R), dtype=values.dtype)
        edges[0, -1] = 1.0  # sigma at the first block's right edge
        out = np.empty((len(points), R), dtype=values.dtype)
        for b in range(n_blocks):
            if b:
                idx, n_read, slot, power, divisor = blocks[b - 1]
                p = prods[:n_read]
                ring.take(idx, axis=0, out=p, mode="clip")
                np.multiply(jumps[:n_read], p, out=p)
                # Along the first axis the reduction adds in mark order, after 0.
                np.add.reduce(p, axis=0, out=G, initial=0.0)
                a = ring[slot:slot + N]
                coeffs = a[..., 1:]
                sums *= power
                # ufunc methods, not np.cumsum and .sum: on search-sized blocks
                # of a few thousand values those wrappers cost 6-9 % of a call.
                np.add.accumulate(sums, axis=-1, out=coeffs)
                coeffs /= divisor
                edges[0, 0] = edges[0, -1]
                np.multiply(coeffs, ends, out=both)
                np.add.reduce(both, axis=-1, out=edges[:, 1:])
                np.add.accumulate(edges[0], axis=0, out=edges[0])
                _check_modulus(edges[0])
                np.subtract(edges[0, :-1], edges[1, 1:], out=a[..., 0])
            for row, lo, hi, s in reads[b]:
                out[lo:hi] = _horner(ring[row].T, s)  # coefficient-major
        return out.reshape(points.shape + values.shape[:-1])

    return rows


def _delay(u: np.ndarray, factor: float) -> np.ndarray:
    """f at the ascending points u for u f'(u) = -factor f(u - 1): the
    one-break case of _taylor_plan, one cell per unit interval about
    k + 1/2, 36 terms each."""
    if math.isfinite(u[-1]) and u[-1] > MAX_DELAY_U:  # _taylor_plan rejects the rest
        raise BudgetError(f"u = {u[-1]:.3g} exceeds the delay-function budget {MAX_DELAY_U}")
    return _taylor_plan([1], 1, u)([1.0, 1.0 - factor])


def _delay_grid(u_max: float, h: float, factor: float) -> GridFunction:
    u = h * np.arange(_grid_steps(u_max, h) + 1)
    return GridFunction(h, _delay(u, factor))


def dickman_rho(u: float, h: float = 1e-4) -> float:
    """Dickman function: u rho'(u) = -rho(u-1), rho = 1 on [0, 1]; h is unused."""
    return float(_delay(np.array([float(u)]), 1.0)[0])


def rho_minus(u: float, h: float = 1e-4) -> float:
    """Signed Dickman-type variant: u f'(u) = -2 f(u-1), f = 1 on [0, 1].

    Decreases on [1, 1+sqrt(e)], vanishes at sqrt(e), attains its minimum at
    1+sqrt(e), and increases beyond.  As for dickman_rho, h is unused.
    """
    return float(_delay(np.array([float(u)]), 2.0)[0])


def dickman_rho_grid(u_max: float, h: float = 1e-4) -> GridFunction:
    """Dickman function sampled on the uniform grid covering [0, u_max]."""
    return _delay_grid(u_max, h, 1.0)


def rho_minus_grid(u_max: float, h: float = 1e-4) -> GridFunction:
    """Signed variant sampled on the uniform grid covering [0, u_max]."""
    return _delay_grid(u_max, h, 2.0)


def _li2(x):
    """The dilogarithm Li2(x) = sum_{k>=1} x^k/k^2, elementwise on (-inf, 1].

    x < 0 goes to y = x/(x - 1) in (0, 1) by Landen's identity
    Li2(x) = -Li2(y) - log(1 - x)^2/2, and y > 1/2 to 1 - y by the reflection
    Li2(y) = pi^2/6 - log(y) log(1 - y) - Li2(1 - y); 1 - y is 1/(1 - x) for
    x < 0, never a difference.  What is left lies in [0, 1/2] and runs
    through 48 terms of the power series by Horner; the first term left out
    is below 2^-48/49^2 < 2e-18 of the sum.
    """
    x = np.asarray(x, dtype=np.float64)
    neg = x < 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.where(neg, 1.0 / (1.0 - x), 1.0 - x)  # 1 - y
        y = np.where(neg, x / (x - 1.0), x)
        reflect = y > 0.5
        z = np.where(reflect, c, y)
        s = np.zeros_like(z)
        for k in range(48, 0, -1):
            s = s * z + 1.0 / (k * k)
        s *= z
        logs = np.where(c > 0.0, np.log1p(-c) * np.log(c), 0.0)  # log(y) log(1 - y)
        li = np.where(reflect, math.pi ** 2 / 6.0 - logs - s, s)
        return np.where(neg, -li - 0.5 * np.log1p(-x) ** 2, li)


def rho_minus_correction(t: float) -> float:
    """4 * integral_2^t log(v-1)/v dv = 4 [log(t)^2/2 + Li2(1/t) - pi^2/12], 0 for t <= 2.

    Li2 is the dilogarithm _li2.  On [2, 3] the signed variant equals
    1 - 2 log t plus this correction.
    """
    if not 0.0 <= t < math.inf:
        raise ValidationError(f"argument must be finite and nonnegative, got {t}")
    if t <= 2.0:
        return 0.0
    return 4.0 * (0.5 * math.log(t) ** 2 + float(_li2(1.0 / t)) - math.pi ** 2 / 12.0)
