import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec.errors import BudgetError, GridError, ValidationError
from meanspec.kernels import (ALIGN_TOL, MAX_DELAY_U, SQRT_E, GridFunction, StepFunction,
                              _grid_point, dickman_rho, dickman_rho_grid, rho_minus,
                              rho_minus_correction, rho_minus_grid)

CHI_MINUS_CUT = StepFunction((1.0, 2.0), (1.0, -1.0), 0.0)


class TestStepFunction:
    def test_initial_segment(self):
        assert CHI_MINUS_CUT(0.5) == 1

    def test_interval_lookup(self):
        assert CHI_MINUS_CUT(1.5) == -1

    def test_tail(self):
        assert CHI_MINUS_CUT(3.0) == 0

    def test_right_continuity_at_breaks(self):
        assert CHI_MINUS_CUT(1.0) == -1
        assert CHI_MINUS_CUT(2.0) == 0

    def test_negative_argument_rejected(self):
        with pytest.raises(ValidationError):
            CHI_MINUS_CUT(-0.1)

    def test_constant_one_kernel(self):
        chi = StepFunction()
        assert chi(0.0) == 1 and chi(17.3) == 1

    @pytest.mark.parametrize("breaks,values,tail", [
        ((0.5,), (1.0,), 0.0),        # first break below 1
        ((1.0,), (0.9,), 0.0),        # initial value not 1
        ((1.0, 1.0), (1.0, 0.0), 0.0),  # breaks not increasing
        ((1.0,), (1.0,), 1.5),        # tail outside disc
        ((1.0,), (1.0, 0.0), 0.0),    # length mismatch
        ((1.0,), (1.0,), math.nan),   # NaN tail
        ((1.0, math.inf), (1.0, 0.5), 0.0),  # infinite breakpoint
        ((1.0, 2.0), (1.0, math.nan), 0.0),  # NaN value
        ((1.0, 2.0), (1.0, complex(0.0, math.inf)), 0.0),  # infinite value
    ])
    def test_invalid_kernels_rejected(self, breaks, values, tail):
        with pytest.raises(ValidationError):
            StepFunction(breaks, values, tail)

    def test_unaligned_breakpoint_rejected(self):
        chi = StepFunction((1.0005,), (1.0,), 0.0)
        with pytest.raises(GridError):
            chi.panel_values(3000, 1e-3)

    def test_panel_values_match_pointwise(self):
        chi = StepFunction((1.0, 1.5, 2.25), (1.0, -0.5, 0.25), -1.0)
        h = 0.25
        panels = chi.panel_values(12, h)
        for j in range(12):
            assert panels[j] == chi(j * h)

    def test_json_round_trip(self):
        chi = StepFunction((1.0, 2.5), (1.0, 0.5 + 0.25j), -0.125j)
        again = StepFunction.from_json(chi.to_json())
        assert again == chi

    def test_malformed_json_rejected(self):
        with pytest.raises(ValidationError):
            StepFunction.from_json('{"breaks": [1.0]}')

    def test_initial_segment_is_one_for_random_kernels(self, rng):
        from meanspec.acceptance import random_complex_kernel
        for _ in range(10):
            k = random_complex_kernel(rng, 1e-3, 4.0, int(rng.integers(2, 6)))
            for t in rng.uniform(0.0, 1.0, 20):
                if t < 1.0:
                    assert k(t) == 1

    @given(st.floats(min_value=0.0, max_value=9.99))
    @settings(max_examples=80, deadline=None)
    def test_eval_matches_linear_scan(self, t):
        chi = StepFunction((1.0, 2.0, 4.5), (1.0, 0.5, -0.5), 0.25)
        segs = [(0.0, 1.0 + 0j), (1.0, 0.5 + 0j), (2.0, -0.5 + 0j), (4.5, 0.25 + 0j)]
        expected = next(v for lo, v in reversed(segs) if t >= lo)
        assert chi(t) == expected


class TestGridFunction:
    def test_u_max_matches_length(self):
        g = GridFunction(0.25, np.arange(5.0))
        assert g.u_max == 1.0 and len(g) == 5

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            GridFunction(0.1, np.array([1.0, np.nan]))

    def test_value_at_interpolates(self):
        g = GridFunction(0.5, np.array([0.0, 1.0, 4.0]))
        assert g.value_at(0.25) == pytest.approx(0.5)
        assert g.value_at(1.0) == pytest.approx(4.0)

    @pytest.mark.parametrize("u", [math.nan, -math.inf, math.inf, -0.01, 1.01])
    def test_value_at_outside_the_grid_rejected(self, u):
        # The range test is written so that NaN fails it, before int(NaN).
        g = GridFunction(0.5, np.array([0.0, 1.0, 4.0]))
        with pytest.raises(ValidationError):
            g.value_at(u)


class TestGridPoint:
    """_grid_point is the one interpolation rule: value_at reads its nodes
    and weight from it, and so does the extremal search at sigma(B*u)."""

    SAMPLES = np.array([0.3, -1.2, 4.0, 2.5, -0.7])

    @pytest.mark.parametrize("u", [0.1, 0.25, 0.5, 0.7, 1.0 - 1e-12, 1.25, 1.9, 2.0 / 3.0])
    def test_interior_points_match_value_at(self, u):
        j, frac = _grid_point(u, 0.5, 4)
        assert j == math.floor(u / 0.5) and 0.0 <= frac < 1.0
        s = self.SAMPLES
        assert GridFunction(0.5, s).value_at(u) == s[j] + frac * (s[j + 1] - s[j])

    @pytest.mark.parametrize("u, node", [(0.0, (0, 0.0)), (2.0, (3, 1.0)),
                                         (-0.5 * ALIGN_TOL, (0, 0.0)),
                                         (2.0 + 0.5 * ALIGN_TOL, (3, 1.0))])
    def test_end_nodes_and_clamped_ends(self, u, node):
        # The last node reads as the end of the last interval, so j + 1 is a node.
        assert _grid_point(u, 0.5, 4) == node
        j, frac = node
        s = self.SAMPLES
        assert GridFunction(0.5, s).value_at(u) == s[j] + frac * (s[j + 1] - s[j])

    def test_one_interval(self):
        assert _grid_point(0.04, 0.1, 1) == (0, 0.04 / 0.1)
        assert _grid_point(0.1, 0.1, 1) == (0, 1.0)


class TestDickmanRho:
    def test_flat_below_one(self):
        assert dickman_rho(0.7) == 1.0

    def test_log_segment(self):
        assert abs(dickman_rho(2.0, 1e-4) - (1.0 - math.log(2.0))) <= 1e-8

    def test_integral_matches_exp_gamma(self):
        g = dickman_rho_grid(20.0, 1e-4)
        integral = np.trapezoid(g.samples, dx=g.h)
        assert abs(integral - math.exp(np.euler_gamma)) <= 1e-5

    def test_nonincreasing_positive(self):
        # Past u ~ 10 the true values sink below the O(h^2) error floor of
        # the march (~1e-8 at h=1e-3), so strict positivity is asserted
        # where it is meaningful and the tail only up to that floor.
        g = dickman_rho_grid(20.0, 1e-4)
        m1 = round(1.0 / g.h)
        assert np.all(g.samples[m1:round(8.5 / g.h)] > 0.0)
        tail = g.samples[m1:]
        assert np.min(tail) >= -1e-9
        assert np.max(np.diff(tail)) <= 1e-11

    def test_independent_of_h(self):
        vals = [dickman_rho(3.0, h) for h in (4e-3, 2e-3, 1e-3)]
        assert vals[0] == vals[1] == vals[2] == dickman_rho(3.0)

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            dickman_rho(-1.0)


class TestRhoMinus:
    def test_log_segment(self):
        assert abs(rho_minus(1.5, 1e-4) - (1.0 - 2.0 * math.log(1.5))) <= 1e-8

    def test_zero_at_sqrt_e(self):
        assert abs(rho_minus(SQRT_E, 1e-4)) <= 1e-6

    def test_minimum_value(self):
        from meanspec.extremal_search import delta_constants
        assert abs(rho_minus(1.0 + SQRT_E, 1e-4) - delta_constants()[0]) <= 1e-6

    def test_monotone_segments(self):
        g = rho_minus_grid(2.0 + SQRT_E, 1e-3)
        i_min = round((1.0 + SQRT_E) / g.h)
        i_one = round(1.0 / g.h)
        assert np.max(np.diff(g.samples[i_one:i_min + 1])) <= 0.0
        assert np.min(np.diff(g.samples[i_min + 1:])) >= 0.0

    def test_independent_of_h(self):
        vals = [rho_minus(3.3, h) for h in (4e-3, 2e-3, 1e-3)]
        assert vals[0] == vals[1] == vals[2] == rho_minus(3.3)


class TestRhoMinusCorrection:
    def test_zero_below_two(self):
        assert rho_minus_correction(1.9) == 0.0
        assert rho_minus_correction(0.0) == 0.0

    def test_against_high_precision_quadrature(self):
        import mpmath
        mpmath.mp.dps = 30
        ref = 4.0 * mpmath.quad(lambda v: mpmath.log(v - 1) / v, [2, 3])
        assert abs(rho_minus_correction(3.0) - float(ref)) <= 1e-9

    def test_closed_form_match_on_2_3(self):
        for t in (2.2, 2.8):
            ref = 1.0 - 2.0 * math.log(t) + rho_minus_correction(t)
            assert abs(rho_minus(t, 1e-4) - ref) <= 1e-7


def _delay_reference(u: float, factor: int, terms: int = 60, dps: int = 30):
    """The midpoint Taylor recurrence for u f'(u) = -factor f(u-1), in mpmath."""
    import mpmath
    with mpmath.workdps(dps):
        half = mpmath.mpf(1) / 2
        k_max = max(0, math.ceil(u) - 1)
        row = [mpmath.mpf(1)] + [mpmath.mpf(0)] * (terms - 1)
        for k in range(1, k_max + 1):
            prev, row = row, [mpmath.mpf(0)] * terms
            for i in range(terms - 1):
                row[i + 1] = (-factor * prev[i] - i * row[i]) / ((k + half) * (i + 1))
            row[0] = mpmath.polyval(prev[::-1], half) - mpmath.polyval(row[::-1], -half)
        return mpmath.polyval(row[::-1], mpmath.mpf(u) - k_max - half)


class TestDelaySeries:
    @pytest.mark.parametrize("f, factor", [(dickman_rho, 1.0), (rho_minus, 2.0)])
    def test_log_segment_closed_form(self, f, factor):
        for u in np.linspace(1.0, 2.0, 41):
            assert abs(f(u) - (1.0 - factor * math.log(u))) <= 1e-13

    def test_rho_minus_closed_form_on_2_3(self):
        for u in np.linspace(2.0, 3.0, 21):
            ref = 1.0 - 2.0 * math.log(u) + rho_minus_correction(u)
            assert abs(rho_minus(u) - ref) <= 1e-13

    def test_dickman_dilogarithm_on_2_3(self):
        import mpmath
        for u in np.linspace(2.0, 3.0, 21):
            ref = (1 - (1 - mpmath.log(u - 1)) * mpmath.log(u)
                   + mpmath.polylog(2, 1 - u) + mpmath.pi ** 2 / 12)
            assert abs(dickman_rho(u) - float(ref)) <= 1e-13

    @pytest.mark.parametrize("f, factor, u", [(dickman_rho, 1, 10.0), (rho_minus, 2, 5.3),
                                              (rho_minus, 2, 1.0 + SQRT_E)])
    def test_against_high_precision_recurrence(self, f, factor, u):
        assert abs(f(u) - float(_delay_reference(u, factor))) <= 1e-13

    def test_paper_values(self):
        from meanspec.extremal_search import delta_constants
        assert abs(rho_minus(SQRT_E)) <= 1e-12
        assert abs(rho_minus(1.0 + SQRT_E) - delta_constants()[0]) <= 1e-12

    @pytest.mark.parametrize("grid, f", [(dickman_rho_grid, dickman_rho),
                                         (rho_minus_grid, rho_minus)])
    @pytest.mark.parametrize("u_max, h", [(6.0, 1e-3), (4.3, 0.3), (0.5, 0.1)])
    def test_grid_samples_equal_scalar_values(self, grid, f, u_max, h):
        g = grid(u_max, h)
        assert len(g) == max(1, math.ceil(u_max / h - 1e-9)) + 1
        idx = sorted(set(range(0, len(g), 37)) | {round(k / h) for k in range(int(u_max) + 1)})
        for i in idx:
            assert f(float(g.u[i])) == g.samples[i]
        assert np.all(g.samples[:round(1.0 / h) + 1] == 1.0)

    @pytest.mark.parametrize("f", [dickman_rho, rho_minus])
    @pytest.mark.parametrize("u", [math.nan, math.inf, -math.inf, -0.5])
    def test_non_finite_or_negative_argument_rejected(self, f, u):
        with pytest.raises(ValidationError):
            f(u)

    @pytest.mark.parametrize("f", [dickman_rho, rho_minus])
    def test_argument_budget(self, f):
        assert f(MAX_DELAY_U) == f(MAX_DELAY_U, 0.1)
        with pytest.raises(BudgetError):
            f(MAX_DELAY_U * 1.001)
        with pytest.raises(BudgetError):
            f(1e300)

    @pytest.mark.parametrize("grid", [dickman_rho_grid, rho_minus_grid])
    @pytest.mark.parametrize("u_max, h", [(math.nan, 1e-3), (5.0, math.nan), (math.inf, 1e-3),
                                          (5.0, math.inf), (0.0, 1e-3), (-1.0, 1e-3),
                                          (5.0, 0.0), (5.0, -1e-3)])
    def test_grid_rejects_bad_input(self, grid, u_max, h):
        with pytest.raises(ValidationError):
            grid(u_max, h)

    @pytest.mark.parametrize("grid", [dickman_rho_grid, rho_minus_grid])
    @pytest.mark.parametrize("u_max, h", [(5.0, 1e-7), (2 * MAX_DELAY_U, 1.0), (1.0, 1e9)])
    def test_grid_budgets(self, grid, u_max, h):
        with pytest.raises(BudgetError):
            grid(u_max, h)
