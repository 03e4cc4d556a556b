"""Step kernels, uniform grid functions, and the classical delay functions.

Two representations underpin the package.  A StepFunction is a
right-continuous piecewise-constant complex function on [0, oo) whose
initial segment is identically 1; it plays the role of the kernel in the
delay integral equation.  A GridFunction holds samples of a continuous
function on the uniform grid u = 0, h, 2h, ...  On top of these the module
provides piecewise Taylor series for the Dickman function and its factor-two
signed variant (after Marsaglia, Zaman & Marsaglia, Math. Comp. 53, 1989),
and the logarithmic integral correction that the signed variant picks up
past u = 2.
"""

from __future__ import annotations

import cmath
import json
import math
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, GridError, ValidationError

SQRT_E = math.sqrt(math.e)

#: Tolerance for membership in the closed unit disc.
DISC_TOL = 1e-12

#: Absolute slack when snapping breakpoints and evaluation points to a grid.
ALIGN_TOL = 1e-9

#: Budget of grid steps u_max/h (80x the largest acceptance solve, u = 12 at h = 1e-4).
MAX_SOLVER_NODES = 10 ** 7

#: Taylor terms per unit interval of the delay functions: the expansion about
#: k + 1/2 reaches u = k - 1, so terms fall by 1/3 each and 40 leave < 1e-19.
DELAY_TERMS = 40

#: Largest delay-function argument (one table row per unit interval); past
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

    def require_aligned(self, h: float) -> None:
        """Raise unless every breakpoint is an integer multiple of h."""
        for b in self.breaks:
            if abs(round(b / h) * h - b) > ALIGN_TOL:
                raise GridError(f"breakpoint {b} is not a multiple of the grid step {h}")

    def panel_values(self, n_panels: int, h: float) -> np.ndarray:
        """Kernel value on each grid panel [jh, (j+1)h), j = 0..n_panels-1.

        Requires breakpoints aligned to the grid, so the kernel is constant
        within every panel.
        """
        self.require_aligned(h)
        segs = np.asarray(self.segment_values(), dtype=np.complex128)
        marks = np.array([round(b / h) for b in self.breaks], dtype=np.int64)
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
    """Samples of a function at u = 0, h, 2h, ..., h*(len(samples)-1)."""

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
        arr = arr.astype(np.complex128 if np.iscomplexobj(arr) else np.float64, copy=True)
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


def _horner(coeffs, s):
    """sum_i coeffs[i] * s**i by Horner's rule, on a float or an array s."""
    y = coeffs[-1]
    for a in coeffs[-2::-1]:
        y = y * s + a
    return y


def _delay_table(k_max: int, factor: float) -> np.ndarray:
    """Taylor coefficients a[k, i] of f about k + 1/2, one row per interval (k, k+1].

    u f'(u) = -factor f(u-1) gives a[k, i >= 1] from row k - 1, and continuity at
    u = k fixes a[k, 0].
    """
    table = np.zeros((k_max + 1, DELAY_TERMS))
    table[0, 0] = 1.0
    for k in range(1, k_max + 1):
        prev, row = table[k - 1].tolist(), [0.0] * DELAY_TERMS
        for i in range(DELAY_TERMS - 1):
            row[i + 1] = (-factor * prev[i] - i * row[i]) / ((k + 0.5) * (i + 1))
        row[0] = _horner(prev, 0.5) + 0.5 * _horner(row[1:], -0.5)
        table[k] = row
    return table


def _delay_samples(u: np.ndarray, factor: float) -> np.ndarray:
    """f at the ascending points u: one Horner pass per unit interval."""
    if not (u[0] >= 0 and math.isfinite(u[-1])):
        raise ValidationError("argument must be finite and nonnegative")
    if u[-1] > MAX_DELAY_U:
        raise BudgetError(f"u = {u[-1]:.3g} exceeds the delay-function budget {MAX_DELAY_U}")
    k = np.maximum(np.ceil(u) - 1.0, 0.0).astype(np.int64)
    table = _delay_table(int(k[-1]), factor)
    edges = np.searchsorted(k, np.arange(k[-1] + 2))
    return np.concatenate([_horner(table[j].tolist(), u[lo:hi] - (j + 0.5))
                           for j, (lo, hi) in enumerate(zip(edges, edges[1:]))])


def _delay_grid(u_max: float, h: float, factor: float) -> GridFunction:
    u = h * np.arange(_grid_steps(u_max, h) + 1)
    return GridFunction(h, _delay_samples(u, factor))


def dickman_rho(u: float, h: float = 1e-4) -> float:
    """Dickman function: u rho'(u) = -rho(u-1), rho = 1 on [0, 1]; h is unused."""
    return float(_delay_samples(np.array([float(u)]), 1.0)[0])


def rho_minus(u: float, h: float = 1e-4) -> float:
    """Signed Dickman-type variant: u f'(u) = -2 f(u-1), f = 1 on [0, 1].

    Decreases on [1, 1+sqrt(e)], vanishes at sqrt(e), attains its minimum at
    1+sqrt(e), and increases beyond.  As for dickman_rho, h is unused.
    """
    return float(_delay_samples(np.array([float(u)]), 2.0)[0])


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
