import cmath
import math

import numpy as np
import pytest

from meanspec.errors import BudgetError, ValidationError
from meanspec.extremal_search import delta_constants
from meanspec.kernels import SQRT_E, StepFunction, rho_minus_grid
from meanspec.spectrum_region import (DISC_COEFF, MAX_LOG_DEPTH, MAX_ROOTS_OF_UNITY, PROJ_COEFF,
                                      RegionCloud, SetSpec, ang, containment_report,
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
