import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec.errors import BudgetError, ValidationError
from meanspec.extremal_search import delta_constants
from meanspec.kernels import SQRT_E, StepFunction, rho_minus_grid
from meanspec.spectrum_region import (DISC_COEFF, GEOM_EPS, MAX_LOG_DEPTH, MAX_ROOTS_OF_UNITY,
                                      PROJ_COEFF, RegionCloud, SetSpec, _cross,
                                      _interior_lattice, ang, containment_report,
                                      convex_hull, euler_spiral_cloud,
                                      hausdorff_distance,
                                      log_spectrum_products,
                                      log_spectrum_region, point_in_polygon,
                                      sector_set_contour, special_radii)


def random_point_set(rng, n_extra=4):
    pts = [1.0 + 0.0j]
    while len(pts) < n_extra + 1:
        z = complex(*rng.uniform(-1.0, 1.0, 2))
        if abs(z) <= 1.0 and abs(z - 1.0) > 1e-6:
            pts.append(z)
    return SetSpec.from_points(pts)


class TestAng:
    def test_point_i(self):
        assert ang(1j) == pytest.approx(math.pi / 4)

    def test_real_interval(self):
        assert ang(SetSpec.real_interval(-1.0, 1.0)) == 0.0

    def test_fourth_roots(self):
        assert ang(SetSpec.roots_of_unity(4)) == pytest.approx(math.pi / 4)

    def test_one_is_zero_by_convention(self):
        assert ang(1.0 + 0.0j) == 0.0

    def test_outside_disc_rejected(self):
        with pytest.raises(ValidationError):
            ang(1.5 + 0.2j)

    @pytest.mark.parametrize("z", [complex(math.nan, 0.0), complex(0.5, math.nan),
                                   complex(math.inf, math.nan)])
    def test_non_finite_point_rejected(self, z):
        with pytest.raises(ValidationError, match="outside the closed unit disc"):
            ang(z)

    def test_point_matches_set_angle(self):
        for z in (1.0, 1.0 - 1e-15, -1.0, 1j, 0.5 + 0.5j, complex(math.cos(0.1), math.sin(0.1))):
            assert ang(z) == ang(SetSpec.from_points([1.0, z]))


class TestSetSpec:
    def test_must_contain_one(self):
        with pytest.raises(ValidationError):
            SetSpec.from_points([-1.0, 1j])

    def test_roots_of_unity_budget(self):
        assert len(SetSpec.roots_of_unity(MAX_ROOTS_OF_UNITY).generators) == MAX_ROOTS_OF_UNITY
        with pytest.raises(BudgetError):
            SetSpec.roots_of_unity(MAX_ROOTS_OF_UNITY + 1)

    def test_interval_must_reach_one(self):
        with pytest.raises(ValidationError):
            SetSpec.real_interval(-1.0, 0.5)

    def test_hull_contains_generators(self, rng):
        for _ in range(5):
            S = random_point_set(rng)
            for g in S.generators:
                assert point_in_polygon(g, S.hull, eps=1e-9)

    def test_hull_vertices_are_extreme(self, rng):
        S = random_point_set(rng, n_extra=6)
        hull = list(S.hull)
        if len(hull) < 3:
            return
        for i, v in enumerate(hull):
            others = hull[:i] + hull[i + 1:]
            assert not point_in_polygon(v, others, eps=1e-12)

    def test_sector_angle(self):
        assert SetSpec.sector(0.7).angle == pytest.approx(0.7)


class TestEulerSpiralCloud:
    def test_singleton_set(self):
        cloud = euler_spiral_cloud(SetSpec.from_points([1.0]))
        assert np.allclose(cloud.points, 1.0)

    def test_pair_set_stays_on_unit_interval(self):
        cloud = euler_spiral_cloud(SetSpec.from_points([1.0, -1.0]))
        assert np.max(np.abs(cloud.points.imag)) == 0.0
        assert np.min(cloud.points.real) >= 0.0
        assert np.max(cloud.points.real) <= 1.0

    def test_modulus_envelope(self, rng):
        for _ in range(5):
            S = random_point_set(rng)
            theta = ang(S)
            if not (0.0 < theta < math.pi / 2):
                continue
            cloud = euler_spiral_cloud(S, k_max=8.0)
            cap = np.exp(-np.abs(np.angle(cloud.points)) / math.tan(theta))
            assert np.max(np.abs(cloud.points) - cap) <= 1e-9

    def test_cloud_angle_bounded_by_set_angle(self, rng):
        for _ in range(20):
            S = random_point_set(rng, n_extra=3)
            cloud = euler_spiral_cloud(S, k_max=6.0, n_alpha=20, n_k=25)
            assert ang(cloud) <= ang(S) + 1e-9


class TestSpecialRadii:
    def test_fourth_roots(self):
        assert special_radii({"kind": "sk", "k": 4}) == pytest.approx(math.exp(-math.pi))

    def test_third_roots(self):
        assert special_radii({"kind": "sk", "k": 3}) == pytest.approx(
            math.exp(-math.pi * math.sqrt(3.0)))

    def test_two_angles_consistent_with_sk(self):
        r = special_radii({"kind": "two-angles",
                           "alpha": 2 * math.pi / 3, "beta": -2 * math.pi / 3})
        assert r == pytest.approx(math.exp(-math.pi * math.sqrt(3.0)))

    def test_degenerate_pair_rejected(self):
        with pytest.raises(ValidationError):
            special_radii({"kind": "two-angles", "alpha": 1.0, "beta": 1.0})
        with pytest.raises(ValidationError):
            special_radii({"kind": "sk", "k": 2})


class TestSectorContour:
    def test_straight_piece_endpoint(self):
        theta = 0.6
        cont = sector_set_contour(theta, n=80)
        alpha = cmath.exp(1j * (math.pi - 2.0 * theta))
        assert cont.points[79] == pytest.approx(1.0 - (1.0 - alpha) * math.log(2.0))

    def test_degenerate_angle_recovers_minimum(self):
        # As theta -> 0 the generator tends to -1 and the corrected contour
        # value at 1 + sqrt(e) tends to the global minimum delta1.
        n = 400
        cont = sector_set_contour(1e-8, n=n)
        arc_end = cont.points[n + (n - 1) - 1]
        assert abs(arc_end - delta_constants()[0]) <= 1e-6

    def test_matches_solver_on_corrected_piece(self):
        theta = 0.6
        n = 60
        alpha = cmath.exp(1j * (math.pi - 2.0 * theta))
        sol_grid = None
        from meanspec.dde_solver import solve_sigma
        sol = solve_sigma(StepFunction((1.0,), (1.0,), alpha), 1.0 + SQRT_E, 1e-4)
        cont = sector_set_contour(theta, n=n)
        us = np.linspace(2.0, 1.0 + SQRT_E, n)[1:]
        for i, u in enumerate(us):
            assert abs(cont.points[n + i] - sol.value_at(u)) <= 1e-6

    def test_angles_stay_in_quarter_turn(self):
        cont = sector_set_contour(0.9)
        for z in cont.points:
            if abs(z - 1.0) > 1e-12:
                assert abs(cmath.phase(1.0 - z)) <= math.pi / 2 + 1e-12

    def test_disc_nesting_across_angles(self):
        # Literal loop-in-loop monotonicity fails in both directions (the
        # exit direction at 1 rotates with theta, so successive contours
        # cross); the certified containments nest instead: a contour for a
        # smaller angle satisfies every disc check of any larger angle.
        for t_small, t_big in ((0.3, 0.5), (0.5, 0.8), (0.8, 1.1),
                               (0.2, 0.4), (1.0, 1.4)):
            pts = sector_set_contour(t_small, n=60).points
            centre = DISC_COEFF * math.cos(t_big) ** 2
            assert np.max(np.abs(pts - centre)) <= (1.0 - centre) + 1e-9

    def test_theta_out_of_range(self):
        with pytest.raises(ValidationError):
            sector_set_contour(0.0)
        with pytest.raises(ValidationError):
            sector_set_contour(math.pi / 2)


def _hull_edge_samples(poly, per_edge=200):
    poly = [complex(p) for p in poly]
    if len(poly) == 1:
        return np.asarray(poly)
    closed = poly + [poly[0]] if len(poly) > 2 else poly
    pts = []
    for a, b in zip(closed, closed[1:]):
        pts.extend(a + t * (b - a) for t in np.linspace(0.0, 1.0, per_edge))
    return np.asarray(pts)


def _min_edge_distance(poly, pts):
    """Least signed distance of pts from the ccw edge lines of poly (> 0 inside)."""
    edges = np.roll(poly, -1) - poly
    dist = ((edges.real[:, None] * (pts.imag[None, :] - poly.imag[:, None])
             - edges.imag[:, None] * (pts.real[None, :] - poly.real[:, None]))
            / np.abs(edges)[:, None])
    return dist.min()


class TestLogSpectrumRegion:
    def test_singleton(self):
        poly = log_spectrum_region(SetSpec.from_points([1.0]), 4)
        assert poly == (1.0 + 0.0j,)

    def test_real_interval_converges_to_unit_segment(self):
        poly = log_spectrum_region(SetSpec.real_interval(-1.0, 1.0), 8)
        hd = hausdorff_distance(_hull_edge_samples(poly), np.linspace(0.0, 1.0, 2001))
        assert hd <= 0.01

    def test_origin_within_depth_bound(self):
        S = SetSpec.roots_of_unity(3)
        depth = 6
        pts = log_spectrum_products(S, depth)
        worst = max(abs(1.0 + complex(s)) / 2.0 for s in S.hull if abs(complex(s) - 1) > 1e-12)
        assert np.min(np.abs(pts)) <= worst ** depth + 1e-12

    def test_successive_hulls_close(self):
        S = SetSpec.roots_of_unity(6)
        factor = max(abs(1.0 + complex(s)) / 2.0 for s in S.hull
                     if abs(complex(s) - 1.0) > 1e-12)
        for depth in (2, 3, 4):
            a = _hull_edge_samples(log_spectrum_region(S, depth))
            b = _hull_edge_samples(log_spectrum_region(S, depth + 1))
            assert hausdorff_distance(a, b) <= factor ** depth + 1e-9

    @pytest.mark.parametrize("k, depth", [(5, 2), (10, 3), (13, 3),
                                          (12, 4), (15, 3), (15, 4), (11, 5)])
    def test_every_product_inside_polygon(self, k, depth):
        # Leftmost products 1e-12 apart in x once cost the hull a true vertex.
        # From (12, 4) on, the pruned levels' vertices differ from those of
        # the hull of all products.  Every product inside and every vertex a
        # product make the polygon that hull to within 1e-12.
        S = SetSpec.roots_of_unity(k)
        pts = log_spectrum_products(S, depth)
        poly = np.asarray(log_spectrum_region(S, depth))
        assert _min_edge_distance(poly, pts) >= -1e-12
        assert np.all(np.isin(poly, pts))

    def test_last_level_reaches_full_depth(self):
        # Each factor applied to the depth-7 vertices lands in the depth-8 polygon.
        S = SetSpec.roots_of_unity(9)
        factors = log_spectrum_products(S, 1)
        step = np.outer(np.asarray(log_spectrum_region(S, 7)), factors).ravel()
        assert _min_edge_distance(np.asarray(log_spectrum_region(S, 8)), step) >= -1e-12

    def test_depth_validation(self):
        with pytest.raises(ValidationError):
            log_spectrum_region(SetSpec.roots_of_unity(4), 0)

    def test_depth_budget(self):
        assert len(log_spectrum_region(SetSpec.real_interval(-1.0, 1.0), MAX_LOG_DEPTH)) == 2
        for f in (log_spectrum_region, log_spectrum_products):
            with pytest.raises(BudgetError):
                f(SetSpec.roots_of_unity(4), MAX_LOG_DEPTH + 1)


class TestContainmentReport:
    def test_boundary_point_has_zero_margin(self):
        S = SetSpec.roots_of_unity(4)
        rep = containment_report(RegionCloud(np.array([1.0 + 0.0j])), S)
        centre = rep["disc_center"]
        assert abs(abs(1.0 - centre) - (1.0 - centre)) <= 1e-15
        assert rep["total_violations"] == 0

    def test_rho_minus_samples_inside(self):
        S = SetSpec.from_points([1.0, -1.0])
        cloud = RegionCloud(rho_minus_grid(6.0, 1e-3).samples.astype(complex))
        rep = containment_report(cloud, S)
        assert rep["total_violations"] == 0
        assert "projection" in rep["checks_run"]

    def test_projection_example_numbers(self):
        d1 = delta_constants()[0]
        sample = 1.0 - (1.0 + d1) * math.cos(math.pi / 4) ** 2
        bound = 1.0 - PROJ_COEFF * 0.5
        assert sample == pytest.approx(0.8285, abs=5e-4)
        assert bound == pytest.approx(0.9319, abs=5e-4)
        assert sample <= bound

    def test_product_cloud_envelope(self):
        S = SetSpec.roots_of_unity(6)
        cloud = RegionCloud(log_spectrum_products(S, 6))
        rep = containment_report(cloud, S, log_products=True)
        assert "envelope" in rep["checks_run"]
        assert rep["total_violations"] == 0

    def test_violations_reported_not_raised(self):
        S = SetSpec.roots_of_unity(4)
        bad = RegionCloud(np.array([-1.0 + 0.0j]))  # outside the disc check
        rep = containment_report(bad, S)
        assert rep["total_violations"] > 0


class TestGeometryPrimitives:
    def test_hull_of_collinear_points(self):
        hull = convex_hull([0.0, 0.25, 1.0, 0.5])
        assert hull == [0.0 + 0.0j, 1.0 + 0.0j]

    def test_point_in_polygon_band(self):
        square = [0, 1, 1 + 1j, 1j]
        assert point_in_polygon(0.5 + 0.5j, square)
        assert point_in_polygon(1.0 + 0.5j, square)  # boundary
        assert not point_in_polygon(1.2 + 0.5j, square)

    def test_cloud_outside_disc_rejected(self):
        with pytest.raises(ValidationError):
            RegionCloud(np.array([1.5 + 0.0j]))


# Per-point references for the array geometry: point_in_polygon with its
# segment distance, the row-by-row interior lattice, and the hull that
# deduplicates and sorts through a set of tuples.

def _ref_segment_distance(z, a, b):
    ab = b - a
    denom = abs(ab) ** 2
    if denom == 0.0:
        return abs(z - a)
    t = max(0.0, min(1.0, ((z - a).real * ab.real + (z - a).imag * ab.imag) / denom))
    return abs(z - (a + t * ab))


def _ref_point_in_polygon(z, poly, eps=GEOM_EPS):
    poly = [complex(p) for p in poly]
    if len(poly) == 1:
        return abs(z - poly[0]) <= eps
    if len(poly) == 2:
        return _ref_segment_distance(z, poly[0], poly[1]) <= eps
    for a, b in zip(poly, poly[1:] + poly[:1]):
        if _ref_segment_distance(z, a, b) <= eps:
            return True
    inside = False
    x, y = z.real, z.imag
    for a, b in zip(poly, poly[1:] + poly[:1]):
        if (a.imag > y) != (b.imag > y):
            x_cross = a.real + (y - a.imag) * (b.real - a.real) / (b.imag - a.imag)
            if x_cross > x:
                inside = not inside
    return inside


def _ref_interior_lattice(poly, cap=200):
    poly = [complex(p) for p in poly]
    if len(poly) < 3:
        return []
    xs = [p.real for p in poly]
    ys = [p.imag for p in poly]
    width = max(xs) - min(xs)
    height = max(ys) - min(ys)
    span = max(width, height)
    if span <= 0:
        return []
    spacing = span / 14.0
    while True:
        pts = []
        ny = int(height / (spacing * math.sqrt(3) / 2)) + 2
        nx = int(width / spacing) + 2
        for iy in range(ny):
            y = min(ys) + iy * spacing * math.sqrt(3) / 2
            offset = 0.5 * spacing if iy % 2 else 0.0
            for ix in range(nx):
                z = complex(min(xs) + offset + ix * spacing, y)
                if _ref_point_in_polygon(z, poly, eps=1e-9):
                    pts.append(z)
        if len(pts) <= cap:
            return pts
        spacing *= 1.5


def _ref_convex_hull(points):
    pts = sorted(set((complex(p).real, complex(p).imag) for p in points))
    pts = [complex(x, y) for x, y in pts]
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
    if len(hull) < 2:
        return [pts[0], pts[-1]]
    return hull


#: Offsets from an edge, each well inside or well outside both bands tested
#: (1e-12 and 1e-9 wide): the band distance is not bitwise that of the
#: reference, so a point exactly at the band's width could go either way.
_EDGE_OFFSETS = (1e-13, -1e-13, 5e-10, -5e-10, 2e-9, -2e-9)


def _probe_points(poly, rng, n_random=40):
    """Random points plus vertices, edge midpoints and points near the edges."""
    poly = np.asarray(poly, dtype=complex)
    edge = np.roll(poly, -1) - poly
    mid = poly + 0.5 * edge
    normal = 1j * edge / np.where(np.abs(edge) > 0, np.abs(edge), 1.0)
    off = [mid + s * normal for s in _EDGE_OFFSETS]
    near = [poly + f * edge + s * normal for f in (0.25, 0.9) for s in _EDGE_OFFSETS]
    rand = rng.uniform(-1.2, 1.2, n_random) + 1j * rng.uniform(-1.2, 1.2, n_random)
    return np.concatenate([poly, mid, *off, *near, rand])


def _random_polygon(rng, n, convex):
    z = rng.uniform(-1.0, 1.0, n) + 1j * rng.uniform(-1.0, 1.0, n)
    if convex:
        return convex_hull(z)
    # A star-shaped polygon: vertices ordered by angle about their mean.
    return list(z[np.argsort(np.angle(z - z.mean()))])


def _assert_matches_reference(poly, z):
    for eps in (GEOM_EPS, 1e-9):
        got = point_in_polygon(z, poly, eps=eps)
        want = [_ref_point_in_polygon(complex(p), poly, eps=eps) for p in z]
        assert got.shape == z.shape
        assert got.tolist() == want
        assert all(point_in_polygon(complex(p), poly, eps=eps) is w for p, w in zip(z, want))


class TestArrayPointInPolygon:
    @pytest.mark.parametrize("convex", [True, False])
    def test_matches_scalar_reference(self, rng, convex):
        for n in (3, 4, 5, 7, 12, 30):
            for _ in range(4):
                poly = _random_polygon(rng, n, convex)
                _assert_matches_reference(poly, _probe_points(poly, rng))

    def test_regular_hulls(self, rng):
        for k in (3, 4, 6, 64):
            poly = SetSpec.roots_of_unity(k).hull
            _assert_matches_reference(poly, _probe_points(poly, rng))

    @pytest.mark.parametrize("poly", [
        [0.3 - 0.2j],
        [1.0 + 0.0j, -1.0 + 0.0j],
        [1.0 + 0.0j, 0.0 + 1.0j],
        [0.2 + 0.1j, 0.2 + 0.9j],
        [0.5 + 0.5j, 0.5 + 0.5j],
        [-0.7 + 0.3j, 0.6 + 0.3000001j],
    ])
    def test_degenerate_polygons(self, rng, poly):
        _assert_matches_reference(poly, _probe_points(poly, rng, n_random=200))

    def test_shape_follows_the_points(self):
        square = [0, 1, 1 + 1j, 1j]
        grid = np.array([[0.5 + 0.5j, 2.0], [1.0 + 0.5j, -0.1j]])
        assert point_in_polygon(grid, square).tolist() == [[True, False], [True, False]]
        assert point_in_polygon(np.zeros(0, dtype=complex), square).shape == (0,)
        assert point_in_polygon(0.5, []) is False


class TestArrayInteriorLattice:
    @pytest.mark.parametrize("k", range(1, MAX_ROOTS_OF_UNITY + 1))
    def test_roots_of_unity(self, k):
        hull = SetSpec.roots_of_unity(k).hull
        assert repr(_interior_lattice(hull)) == repr(_ref_interior_lattice(hull))

    def test_sectors(self):
        for theta in np.linspace(0.02, 1.55, 30):
            hull = SetSpec.sector(float(theta)).hull
            assert repr(_interior_lattice(hull)) == repr(_ref_interior_lattice(hull))

    def test_random_point_sets(self, rng):
        for i in range(300):
            hull = random_point_set(rng, n_extra=1 + i % 8).hull
            assert repr(_interior_lattice(hull)) == repr(_ref_interior_lattice(hull))


def _ref_spiral_alphas(hull, n_alpha=40):
    hull = [complex(p) for p in hull]
    alphas = list(hull)
    if len(hull) >= 2:
        per_edge = max(1, n_alpha // max(1, len(hull)))
        for a, b in zip(hull, hull[1:] + hull[:1]):
            for t in np.linspace(0.0, 1.0, per_edge + 2)[1:-1]:
                alphas.append(a + t * (b - a))
    alphas.extend(_ref_interior_lattice(hull))
    return np.asarray(alphas, dtype=np.complex128)


@pytest.mark.parametrize("spec", [SetSpec.from_points([1.0]), SetSpec.real_interval(-0.3, 1.0),
                                  SetSpec.from_points([1.0, -1.0 - 0.0j]),
                                  SetSpec.from_points([1.0, -0.5 + 0.5j, 0.2 - 0.7j]),
                                  SetSpec.roots_of_unity(5), SetSpec.roots_of_unity(64),
                                  SetSpec.sector(0.7)])
@pytest.mark.parametrize("n_alpha", [1, 40, 400])
def test_spiral_alphas_match_per_edge_reference(spec, n_alpha):
    ks = np.linspace(0.0, 8.0, 50)
    want = np.exp(-np.outer(ks, 1.0 - _ref_spiral_alphas(spec.hull, n_alpha))).ravel()
    got = euler_spiral_cloud(spec, n_alpha=n_alpha).points[:len(want)]
    assert got.tobytes() == want.tobytes()


#: Few coordinates, so clouds repeat points and lay them along lines; -0.0
#: next to 0.0 makes duplicates that differ only in the sign of a zero.
_COORDS = st.sampled_from([-1.0, -0.5, -0.0, 0.0, 1e-12, 0.25, 0.5, 1.0])
_CLOUDS = st.lists(st.builds(complex, _COORDS, _COORDS), max_size=60)


class TestArrayConvexHull:
    @given(_CLOUDS)
    @settings(max_examples=300)
    def test_matches_reference(self, cloud):
        assert repr(convex_hull(cloud)) == repr(_ref_convex_hull(cloud))

    @given(st.lists(st.builds(complex, st.sampled_from([-0.0, 0.0]), _COORDS),
                    min_size=17, max_size=80),
           st.lists(st.builds(complex, _COORDS, st.sampled_from([-0.0, 0.0])),
                    min_size=17, max_size=80))
    @settings(max_examples=200)
    def test_signed_zero_duplicates_keep_the_first(self, on_y_axis, on_x_axis):
        for cloud in (on_y_axis, on_x_axis, on_y_axis + on_x_axis):
            assert repr(convex_hull(cloud)) == repr(_ref_convex_hull(cloud))
            assert repr(convex_hull(np.asarray(cloud))) == repr(_ref_convex_hull(cloud))

    @given(st.integers(2, 40), st.integers(0, 2 ** 32 - 1))
    @settings(max_examples=100)
    def test_collinear_runs_and_random_clouds(self, n, seed):
        rng = np.random.default_rng(seed)
        t = rng.choice(np.linspace(0.0, 1.0, 9), n)
        line = (-0.5 + 0.25j) + t * (1.0 - 0.5j)
        cloud = np.concatenate([line, rng.uniform(-1, 1, n) + 1j * rng.uniform(-1, 1, n)])
        for pts in (line, cloud, np.round(cloud, 1)):
            assert repr(convex_hull(pts)) == repr(_ref_convex_hull(pts))
