"""Geometry of attainable mean-value regions in the unit disc.

A SetSpec describes a closed target set S containing 1 (finite points, a
real interval, roots of unity, or the angular sector pinched at 1) together
with its convex hull and its opening angle at 1.  The module samples the
spiral family exp(-k(1-alpha)) over the hull, evaluates the explicit
inscribed-disc radii, traces the attainable boundary contour for the
symmetric three-point set of a given angle, builds the product region that
bounds the logarithmic spectrum, and verifies disc, projection, and spiral
envelope containments on sampled point clouds.  Point-in-polygon tests, the
interior lattice and the spiral edge samples run on numpy arrays; the hull
sorts with numpy and walks the exact monotone chain in Python.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

from .errors import BudgetError, ValidationError
from .kernels import DISC_TOL, SQRT_E

#: Largest k for the k-th roots of unity: sk:64 has 129 log-region factors,
#: and its region at depth 8 takes about 0.25 s.
MAX_ROOTS_OF_UNITY = 64

#: Products per level of the log region: the largest hull-pruned level of
#: sk:64, up to depth 64, forms 29,541.  A level of 9.5e5 (a 575-point arc at
#: depth 2) and the hull of its products take about 2 s and 150 MB peak RSS.
MAX_LOG_PRODUCTS = 10 ** 6

#: Largest log-region depth: the region of sk:64 at depth 64 takes about 6 s.
MAX_LOG_DEPTH = 64

#: Width of the boundary band that point_in_polygon counts as inside.
GEOM_EPS = 1e-12

#: Disc containment constant: the spectrum of a set with angle theta lies in
#: the disc centred at DISC_COEFF * cos^2(theta) of radius 1 - centre.
DISC_COEFF = 28.0 / 411.0

#: Projection bound constant: projections onto set elements stay below
#: 1 - PROJ_COEFF * cos^2(theta).
PROJ_COEFF = 56.0 / 411.0


def _cross(o: complex, a: complex, b: complex) -> float:
    return (a.real - o.real) * (b.imag - o.imag) - (a.imag - o.imag) * (b.real - o.real)


def convex_hull(points):
    """Monotone-chain convex hull, counterclockwise, degenerate-safe.

    Only an exactly zero cross product counts as collinear: an absolute band
    pops true vertices of products whose x values differ by about 1e-12.
    Returns one point for a single-point cloud and the two extreme points
    for a collinear one.
    """
    z = np.asarray(points, dtype=np.complex128).ravel()
    # A stable sort keeps the first of equal points, so of -0.0 and 0.0 too.
    z = z[np.lexsort((z.imag, z.real))]
    first = np.ones(len(z), dtype=bool)
    first[1:] = z[1:] != z[:-1]
    pts = z[first].tolist()
    if len(pts) <= 2:
        return pts
    lower, upper = [], []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    hull = lower[:-1] + upper[:-1]
    if len(hull) < 2:  # fully collinear input collapses the chains
        return [pts[0], pts[-1]]
    return hull


def point_in_polygon(z, poly, eps: float = GEOM_EPS):
    """Even-odd containment with an eps-wide boundary band counted inside.

    z is one point (the answer is a bool) or an array of points (a bool
    array of its shape); the test allocates a few points-by-edges float
    arrays.  A polygon of one or two points is a degenerate edge that no
    point crosses an odd number of times, so its band decides.
    """
    z = np.asarray(z, dtype=np.complex128)
    a = np.asarray(poly, dtype=np.complex128).ravel()
    b = np.roll(a, -1)
    x, y = z.real[..., None], z.imag[..., None]
    dx, dy = b.real - a.real, b.imag - a.imag
    # Distance to each edge: the nearest point is a + t (b - a), t in [0, 1].
    proj = (x - a.real) * dx + (y - a.imag) * dy
    denom = dx * dx + dy * dy
    t = np.clip(np.divide(proj, denom, out=np.zeros(proj.shape), where=denom > 0.0), 0.0, 1.0)
    near = (np.hypot(x - (a.real + t * dx), y - (a.imag + t * dy)) <= eps).any(axis=-1)
    crosses = (a.imag > y) != (b.imag > y)
    x_cross = a.real + (y - a.imag) * dx / np.where(crosses, dy, 1.0)
    inside = near | (np.count_nonzero(crosses & (x_cross > x), axis=-1) % 2 == 1)
    return bool(inside) if inside.ndim == 0 else inside


def hausdorff_distance(points_a, points_b) -> float:
    """Symmetric Hausdorff distance between two finite point clouds."""
    a = np.asarray(points_a, dtype=np.complex128)
    b = np.asarray(points_b, dtype=np.complex128)
    d = np.abs(a[:, None] - b[None, :])
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _interior_lattice(poly, cap: int = 200):
    """Deterministic triangular lattice of at most cap points inside poly."""
    poly = np.asarray(poly, dtype=np.complex128)
    if len(poly) < 3:
        return []
    x0, y0 = poly.real.min(), poly.imag.min()
    width = poly.real.max() - x0
    height = poly.imag.max() - y0
    span = max(width, height)
    if span <= 0:
        return []
    spacing = span / 14.0
    while True:
        rows = np.arange(int(height / (spacing * math.sqrt(3) / 2)) + 2)
        cols = np.arange(int(width / spacing) + 2)
        lattice = np.empty((len(rows), len(cols)), dtype=np.complex128)
        lattice.real = (x0 + np.where(rows % 2, 0.5 * spacing, 0.0))[:, None] + cols * spacing
        lattice.imag = (y0 + rows * spacing * math.sqrt(3) / 2)[:, None]
        lattice = lattice.ravel()
        pts = lattice[point_in_polygon(lattice, poly, eps=1e-9)]
        if len(pts) <= cap:
            return pts.tolist()
        spacing *= 1.5


@dataclass(frozen=True)
class SetSpec:
    """A closed subset of the unit disc containing 1, with hull and angle."""

    generators: tuple
    hull: tuple
    angle: float
    label: str = ""

    def __post_init__(self):
        for p in self.generators:
            if not cmath.isfinite(p):
                raise ValidationError(f"set point {p} is not finite")
            if abs(p) > 1.0 + DISC_TOL:
                raise ValidationError(f"set point {p} outside the closed unit disc")
        if min(abs(p - 1.0) for p in self.generators) > DISC_TOL:
            raise ValidationError("the set must contain 1")

    @staticmethod
    def _angle_of(points) -> float:
        best = 0.0
        for p in points:
            if abs(p - 1.0) <= 1e-14:
                continue
            best = max(best, abs(cmath.phase(1.0 - p)))
        return best

    @classmethod
    def from_points(cls, points, label: str = "") -> "SetSpec":
        pts = tuple(complex(p) for p in points)
        return cls(pts, tuple(convex_hull(pts)), cls._angle_of(pts), label or "points")

    @classmethod
    def real_interval(cls, lo: float = -1.0, hi: float = 1.0) -> "SetSpec":
        if not (-1.0 <= lo < hi <= 1.0):
            raise ValidationError("interval must satisfy -1 <= lo < hi <= 1")
        if hi != 1.0:
            raise ValidationError("the interval must contain 1")
        gens = (complex(lo), complex(hi))
        return cls(gens, gens, 0.0, f"[{lo},{hi}]")

    @classmethod
    def roots_of_unity(cls, k: int) -> "SetSpec":
        if k < 1:
            raise ValidationError("k must be positive")
        if k > MAX_ROOTS_OF_UNITY:
            raise BudgetError(f"k = {k} exceeds the roots-of-unity budget {MAX_ROOTS_OF_UNITY}")
        pts = tuple(cmath.exp(2j * math.pi * j / k) for j in range(k))
        return cls(pts, tuple(convex_hull(pts)), cls._angle_of(pts), f"roots:{k}")

    @classmethod
    def sector(cls, theta: float) -> "SetSpec":
        """All z in the disc with |arg(1-z)| <= theta, sampled as 1 and 64 arc points."""
        if not (0.0 < theta < math.pi / 2):
            raise ValidationError("sector angle must lie in (0, pi/2)")
        phis = np.linspace(math.pi - 2 * theta, math.pi + 2 * theta, 64)
        gens = (1.0 + 0.0j,) + tuple(cmath.exp(1j * p) for p in phis)
        return cls(gens, tuple(convex_hull(gens)), theta, f"sector:{theta}")

    def on_unit_circle(self) -> bool:
        return all(abs(abs(p) - 1.0) <= 1e-9 for p in self.generators)


def ang(target) -> float:
    """Opening angle at 1: sup of |arg(1-v)| over the points of the input.

    Accepts a complex number, a SetSpec, or a RegionCloud; by convention the
    angle of {1} is 0.
    """
    if isinstance(target, SetSpec):
        return target.angle
    if isinstance(target, RegionCloud):
        return SetSpec._angle_of(target.points)
    z = complex(target)
    if not abs(z) <= 1.0 + DISC_TOL:  # NaN fails too
        raise ValidationError(f"point {z} outside the closed unit disc")
    return SetSpec._angle_of([z])


@dataclass(frozen=True)
class RegionCloud:
    """A finite sample of a region of the unit disc."""

    points: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.points, dtype=np.complex128)
        if np.any(np.abs(arr) > 1.0 + DISC_TOL):
            worst = float(np.max(np.abs(arr)))
            raise ValidationError(f"cloud escapes the unit disc: max |z| = {worst}")
        arr = arr.copy()
        arr.setflags(write=False)
        object.__setattr__(self, "points", arr)

    def __len__(self) -> int:
        return len(self.points)


def euler_spiral_cloud(S: SetSpec, k_max: float = 8.0, n_alpha: int = 40,
                       n_k: int = 50) -> RegionCloud:
    """Sample of the spirals exp(-k(1-alpha)) over the hull of S.

    alpha runs over the hull vertices, boundary subdivisions, and a bounded
    interior lattice; k over [0, k_max].  When S has points off the real
    axis the two extreme-angle spirals are traced over a full revolution
    together with the real segment closing each loop.
    """
    if not 0.0 <= k_max < math.inf:
        raise ValidationError(f"k_max must be finite and nonnegative, got {k_max}")
    hull = np.asarray(S.hull, dtype=np.complex128)
    alphas = [hull]
    if len(hull) >= 2:
        ts = np.linspace(0.0, 1.0, max(1, n_alpha // len(hull)) + 2)[1:-1]
        alphas.append((hull[:, None] + ts * (np.roll(hull, -1) - hull)[:, None]).ravel())
    alphas.append(np.asarray(_interior_lattice(hull), dtype=np.complex128))
    ks = np.linspace(0.0, k_max, n_k)
    pts = np.exp(-np.outer(ks, 1.0 - np.concatenate(alphas))).ravel()

    extras = []
    for side in (1.0, -1.0):
        candidates = [p for p in S.generators if side * p.imag > 1e-12]
        if not candidates:
            continue
        z_star = max(candidates, key=lambda p: abs(cmath.phase(1.0 - p)))
        k_full = 2.0 * math.pi / abs(z_star.imag)
        extras.append(np.exp(-np.linspace(0.0, k_full, n_k) * (1.0 - z_star)))
        r_end = math.exp(-2.0 * math.pi * (1.0 - z_star.real) / abs(z_star.imag))
        extras.append(np.linspace(r_end, 1.0, n_k).astype(np.complex128))
    if extras:
        pts = np.concatenate([pts] + extras)
    return RegionCloud(pts)


def special_radii(spec: dict) -> float:
    """Guaranteed inscribed-disc radius around 0 for two explicit families.

    ``{"kind": "sk", "k": k}`` gives exp(-pi tan(pi/k)) for the k-th roots
    of unity (k >= 3); ``{"kind": "two-angles", "alpha": a, "beta": b}``
    gives exp(-2 pi / |cot(a/2) - cot(b/2)|) when 1, e^{ia}, e^{ib} are
    distinct points of the set.
    """
    kind = spec.get("kind")
    if kind == "sk":
        k = spec.get("k")
        if not isinstance(k, int) or k < 3:
            raise ValidationError("sk radius needs an integer k >= 3")
        return math.exp(-math.pi * math.tan(math.pi / k))
    if kind == "two-angles":
        a, b = float(spec["alpha"]), float(spec["beta"])
        for t in (a, b):
            if abs(math.sin(t / 2.0)) < 1e-12:
                raise ValidationError("angles must be nonzero mod 2*pi")
        denom = abs(1.0 / math.tan(a / 2.0) - 1.0 / math.tan(b / 2.0))
        if denom < 1e-12:
            raise ValidationError("degenerate pair: cot(alpha/2) = cot(beta/2)")
        return math.exp(-2.0 * math.pi / denom)
    raise ValidationError(f"unknown radius family {kind!r}")


def _contour_inner_integral(u: float) -> float:
    """int_1^{u-1} log(u-t)/t dt by adaptive quadrature (abs err <= 1e-9)."""
    from scipy.integrate import quad
    if u <= 2.0:
        return 0.0
    val, _ = quad(lambda t: math.log(u - t) / t, 1.0, u - 1.0,
                  epsabs=1e-10, epsrel=1e-10, limit=200)
    return val


def sector_set_contour(theta: float, n: int = 120) -> RegionCloud:
    """Closed attainable boundary for the set {1, alpha, conj(alpha)}.

    alpha = exp(i(pi - 2 theta)) has opening angle theta at 1.  The upper
    half consists of the straight piece 1 - (1-alpha) log u for u in [1, 2],
    the corrected contour on [2, 1+sqrt(e)], and the spiral
    c(1+sqrt(e)) e^{-t(1-alpha)} until it meets the real axis; the lower
    half is the complex conjugate, and the points are ordered around the
    loop.
    """
    if not (0.0 < theta < math.pi / 2):
        raise ValidationError("theta must lie in (0, pi/2)")
    alpha = cmath.exp(1j * (math.pi - 2.0 * theta))
    w = 1.0 - alpha
    us1 = np.linspace(1.0, 2.0, n)
    seg = 1.0 - w * np.log(us1)
    us2 = np.linspace(2.0, 1.0 + SQRT_E, n)[1:]
    arc = np.array([1.0 - w * math.log(u) + 0.5 * w * w * _contour_inner_integral(u)
                    for u in us2])
    z_end = arc[-1]
    # Spiral until the imaginary part first crosses zero, with the crossing
    # interpolated linearly in the spiral parameter.
    t_step = min(0.02, math.pi / (64.0 * abs(w.imag))) if w.imag else 0.02
    spiral = []
    t = 0.0
    prev = z_end
    for _ in range(200000):
        t += t_step
        cur = z_end * cmath.exp(-t * w)
        if prev.imag != 0 and (cur.imag == 0 or (cur.imag > 0) != (prev.imag > 0)):
            frac = prev.imag / (prev.imag - cur.imag)
            spiral.append(prev + frac * (cur - prev))
            break
        spiral.append(cur)
        prev = cur
    upper = np.concatenate([seg, arc, np.asarray(spiral, dtype=np.complex128)])
    lower = np.conjugate(upper[::-1])
    pts = np.concatenate([upper, lower[1:-1]])
    return RegionCloud(pts)


def _log_factors(S: SetSpec, depth: int) -> np.ndarray:
    """The distinct factors (1+s)/2 over hull samples, after the depth checks."""
    if depth < 1:
        raise ValidationError("depth must be at least 1")
    if depth > MAX_LOG_DEPTH:
        raise BudgetError(f"depth = {depth} exceeds the budget {MAX_LOG_DEPTH}")
    hull = [complex(p) for p in S.hull]
    gens = list(hull)
    if len(hull) >= 2:
        gens += [0.5 * (a + b) for a, b in zip(hull, hull[1:] + hull[:1])]
        gens.append(sum(hull) / len(hull))
    # S contains 1, so 1.0 is a factor (appended in case S holds 1 only to
    # within DISC_TOL): each level then holds the one before it, and the
    # level of depth d holds every product of length <= d.
    return np.unique(np.append(np.round([(1.0 + g) / 2.0 for g in gens], 12), 1.0))


def _next_level(level: np.ndarray, factors: np.ndarray) -> np.ndarray:
    """Distinct products of level with factors, rounded to 12 digits."""
    if len(level) * len(factors) > MAX_LOG_PRODUCTS:
        raise BudgetError(f"{len(level)} x {len(factors)} products exceed the budget "
                          f"{MAX_LOG_PRODUCTS}; lower the depth")
    # + 0.0 turns -0.0 into 0.0: the sign of a zero must not depend on which
    # of several equal products np.unique keeps.
    return np.unique(np.round(np.outer(level, factors).ravel(), 12) + 0.0)


def log_spectrum_products(S: SetSpec, depth: int) -> np.ndarray:
    """All distinct products of (1+s)/2 over hull samples, lengths <= depth."""
    factors = _log_factors(S, depth)
    level = np.array([1.0 + 0.0j])
    for _ in range(depth):
        level = _next_level(level, factors)
    return level


def log_spectrum_region(S: SetSpec, depth: int):
    """Convex polygon (ccw vertices) bounding the logarithmic spectrum of S.

    Multiplying by a fixed factor is linear, so hull(L.F) = hull(V.F) for V
    the hull vertices of L: each level keeps only its hull vertices, and the
    region is the hull of the last level.
    """
    factors = _log_factors(S, depth)
    hull = [1.0 + 0.0j]
    for _ in range(depth):
        hull = convex_hull(_next_level(np.asarray(hull), factors))
    return tuple(hull)


def containment_report(cloud: RegionCloud, S: SetSpec,
                       *, log_products: bool = False, tol: float = 1e-9) -> dict:
    """Verify the disc, projection, and spiral-envelope containments.

    Returns a report with per-check violation lists (never raises).  The
    disc check needs angle(S) < pi/2; the projection check runs only when S
    lies on the unit circle; the spiral envelope |z| <= cos(d)^(|arg z|/d),
    d = pi/2 - angle, applies to product clouds for the logarithmic
    spectrum.
    """
    theta = S.angle
    pts = cloud.points
    report = {
        "n_points": int(len(pts)),
        "set": S.label,
        "angle": theta,
        "checks_run": [],
        "disc_violations": [],
        "projection_violations": [],
        "envelope_violations": [],
    }
    if theta < math.pi / 2:
        centre = DISC_COEFF * math.cos(theta) ** 2
        report["disc_center"] = centre
        # Upper bound on the best possible centre, reported for context only.
        report["disc_center_cap"] = (0.5 * (1.0 - math.exp(-math.pi / math.tan(theta)))
                                     if theta > 0 else 0.5)
        report["checks_run"].append("disc")
        bad = np.abs(pts - centre) > (1.0 - centre) + tol
        report["disc_violations"] = [complex(z) for z in pts[bad]]
    if S.on_unit_circle():
        bound = 1.0 - PROJ_COEFF * math.cos(theta) ** 2
        report["projection_bound"] = bound
        report["checks_run"].append("projection")
        for zeta in S.generators:
            if abs(zeta - 1.0) <= 1e-12:
                continue
            proj = (np.conjugate(zeta) * pts).real
            bad = proj > bound + tol
            report["projection_violations"].extend(
                (complex(zeta), complex(z)) for z in pts[bad])
    if log_products and 0.0 < theta < math.pi / 2:
        delta = math.pi / 2 - theta
        report["checks_run"].append("envelope")
        mod = np.abs(pts)
        cap = math.cos(delta) ** (np.abs(np.angle(pts)) / delta)
        bad = mod > cap + tol
        report["envelope_violations"] = [complex(z) for z in pts[bad]]
    report["total_violations"] = (len(report["disc_violations"])
                                  + len(report["projection_violations"])
                                  + len(report["envelope_violations"]))
    return report
