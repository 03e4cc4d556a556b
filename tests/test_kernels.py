import hashlib
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec.errors import BudgetError, ContractError, GridError, ValidationError
from meanspec.kernels import (ALIGN_TOL, MAX_DELAY_U, MAX_SOLVER_NODES, SQRT_E, GridFunction,
                              StepFunction, _check_modulus, _grid_point, _horner, _li2,
                              _segment_rows, _taylor_plan, _taylor_plan_size, _taylor_size,
                              _taylor_terms, dickman_rho, dickman_rho_grid, rho_minus,
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
        for t in (0.0, 1.0, 17.3):
            assert type(chi(t)) is complex and chi(t) == 1

    @pytest.mark.parametrize("n_panels", [0, 1, 7])
    def test_break_free_panel_values(self, n_panels):
        panels = StepFunction().panel_values(n_panels, 1e-3)
        assert panels.dtype == np.float64 and panels.tolist() == [1.0] * n_panels

    def test_grid_error_is_a_validation_error(self):
        assert issubclass(GridError, ValidationError)

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

    @staticmethod
    def searchsorted_panel_values(chi: StepFunction, n_panels: int, h: float) -> np.ndarray:
        """panel_values as one searchsorted over every panel."""
        segs = np.asarray(chi.segment_values(), dtype=np.complex128)
        marks = np.array([round(b / h) for b in chi.breaks], dtype=np.int64)
        out = segs[np.searchsorted(marks, np.arange(n_panels), side="right")]
        return out.real.copy() if chi.is_real else out

    @pytest.mark.parametrize("chi, n_panels, h", [
        (StepFunction(), 0, 1e-3),
        (StepFunction(), 5, 1e-3),
        (StepFunction((1.0,), (1.0,), -1.0), 3, 1.0),  # panel 0 ends at the break
        (StepFunction((1.0, 2.0), (1.0, 0.5j), -0.25), 3, 1.0),
        (StepFunction((1.0, 1.5, 2.25), (1.0, -0.5, 0.25), -1.0), 9, 0.25),  # last at 9
        (StepFunction((1.0, 1.5, 2.25), (1.0, -0.5, 0.25), -1.0), 7, 0.25),  # past 7
        (StepFunction((1.0, 1.5, 2.25), (1.0, -0.5, 0.25), -1.0), 4, 0.25),  # all at or past
        (StepFunction((1.0, 1.5, 2.25), (1.0, -0.5, 0.25), -1.0), 0, 0.25),
        (StepFunction((1.0, 1.5, 2.8), (1.0, 0.3 + 0.6j, -0.5 - 0.4j), 0.2j), 8000, 1e-3),
        (StepFunction((1.0, 1.5, 2.8), (1.0, 0.3 + 0.6j, -0.5 - 0.4j), 0.2j), 2800, 1e-3),
        (StepFunction((1.0, 1.6, 2.35), (1.0, -0.8, 0.3), -0.5), 80000, 1e-4),
    ])
    def test_panel_values_match_searchsorted(self, chi, n_panels, h):
        got = chi.panel_values(n_panels, h)
        want = self.searchsorted_panel_values(chi, n_panels, h)
        assert got.dtype == want.dtype and got.shape == (n_panels,)
        assert got.tobytes() == want.tobytes()

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
    def test_keeps_only_a_read_only_array_it_may_own(self):
        owned = np.arange(4.0)
        owned.setflags(write=False)
        assert GridFunction(0.5, owned).samples is owned
        writable, view = np.arange(4.0), owned[:3]
        for arr in (writable, view, np.arange(4), np.arange(4, dtype=np.float32)):
            samples = GridFunction(0.5, arr).samples
            assert samples is not arr and not samples.flags.writeable
            assert samples.dtype == np.float64 and np.array_equal(samples, arr)
        writable[0] = 9.0
        assert GridFunction(0.5, writable).samples[0] == 9.0
        kept = GridFunction(0.5, writable)
        writable[1] = 7.0
        assert kept.samples[1] == 1.0

    def test_u_max_matches_length(self):
        g = GridFunction(0.25, np.arange(5.0))
        assert g.u_max == 1.0 and len(g) == 5

    def test_rejects_nan(self):
        with pytest.raises(ValidationError):
            GridFunction(0.1, np.array([1.0, np.nan]))

    def test_value_at_on_one_sample(self):
        g = GridFunction(0.5, np.array([2.5]))
        assert g.value_at(0.0) == 2.5 and g.value_at(ALIGN_TOL) == 2.5
        with pytest.raises(ValidationError):
            g.value_at(0.5)

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
        with mpmath.workdps(30):
            for t in (2.0 + 1e-9, 2.0 + 1e-6, 2.001, 2.5, 1.0 + SQRT_E, 3.0, 5.0,
                      10.0, 31.4, 100.0):
                ref = float(4 * mpmath.quad(lambda v: mpmath.log(v - 1) / v, [2, t]))
                assert abs(rho_minus_correction(t) - ref) <= 2e-14 * max(1.0, abs(ref))

    @pytest.mark.parametrize("t", [math.nan, math.inf, -math.inf, -1e-300])
    def test_non_finite_or_negative_rejected(self, t):
        with pytest.raises(ValidationError, match="finite and nonnegative"):
            rho_minus_correction(t)

    def test_closed_form_match_on_2_3(self):
        for t in (2.2, 2.8):
            ref = 1.0 - 2.0 * math.log(t) + rho_minus_correction(t)
            assert abs(rho_minus(t, 1e-4) - ref) <= 1e-7


class TestDilogarithm:
    def test_against_mpmath(self):
        # The grid crosses every branch: Landen below 0 (with its reflection
        # below -1), the series on [0, 1/2] and the reflection above it.
        import mpmath
        xs = np.concatenate([np.linspace(-10.0, 1.0, 1101),
                             [0.0, -1e-300, 1e-300, 0.5, np.nextafter(0.5, 1.0), -SQRT_E,
                              1.0 - 2.0 ** -52, -1.0, np.nextafter(-1.0, 0.0)]])
        got = _li2(xs)
        assert got.shape == xs.shape
        with mpmath.workdps(30):
            for x, value in zip(xs.tolist(), got.tolist()):
                ref = float(mpmath.polylog(2, x))
                assert abs(value - ref) <= max(1e-15 * abs(ref), 1e-16), x


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


def lattice_rows(seed, N, R, n_marks, span=3.5, complex_values=False):
    """marks on the lattice 1/N in [1, span) and R rows of segment values."""
    rng = np.random.default_rng(seed)
    marks = sorted(rng.choice(np.arange(N, round(span * N)), n_marks, replace=False).tolist())
    if complex_values:
        radius = rng.uniform(0.0, 1.0, (R, n_marks))
        levels = radius * np.exp(2j * np.pi * rng.uniform(0.0, 1.0, (R, n_marks)))
    else:
        levels = rng.uniform(-1.0, 1.0, (R, n_marks))
    return marks, np.concatenate([np.ones((R, 1)), levels], axis=1)


def per_mark_engine(marks, N, points, values):
    """The Taylor engine with its jump sums taken one mark at a time, as
    G[:n] += d_k ring[s:s + n] (and the wrapped rest), and its two edge sums
    one after the other: the reference for _taylor_plan's gathered sums."""
    points = np.asarray(points, dtype=np.float64)
    cells = np.maximum(np.ceil(points * N) - 1.0, 0.0).astype(np.int64)
    n_blocks = int(cells[-1]) // N + 1
    active = [mk for mk in marks if mk <= cells[-1]]
    T = _taylor_terms(N)
    L = N * (-(-max(active, default=N) // N) + 1)
    right = (0.5 / N) ** np.arange(1.0, T)
    left = np.where(np.arange(1, T) % 2, -right, right)
    rise = right - left
    centres = (np.arange(n_blocks * N) + 0.5) / N
    later = centres[N:].reshape(n_blocks - 1, N, 1)
    powers = np.empty((n_blocks - 1, N, T - 1))
    powers[..., 0] = 1.0
    powers[..., 1:] = -later
    np.cumprod(powers, axis=-1, out=powers)
    divisors = powers * later
    divisors *= np.arange(1.0, T)
    values = _segment_rows(values, len(marks))
    batch = values.shape[:-1]
    ones = (1,) * len(batch)
    jumps = (values[..., 1:] - values[..., :-1]).T[..., None]
    ring = np.zeros((L,) + batch + (T,), dtype=values.dtype)
    ring[:N, ..., 0] = 1.0
    G = np.empty((N,) + batch + (T,), dtype=values.dtype)
    buf = np.empty_like(G)
    edges = np.empty((N + 1,) + batch, dtype=values.dtype)
    edges[-1] = 1.0
    out = np.empty(points.shape + batch, dtype=values.dtype)
    for b in range(n_blocks):
        if b:
            G.fill(0)
            for k, mk in enumerate(active):
                if mk < (b + 1) * N:
                    s = (b * N - mk) % L
                    n = min(N, L - s)
                    G[:n] += np.multiply(jumps[k], ring[s:s + n], out=buf[:n])
                    if n < N:
                        G[n:] += np.multiply(jumps[k], ring[:N - n], out=buf[n:])
            a = ring[b * N % L:b * N % L + N]
            G[..., :-1] *= powers[b - 1].reshape((N,) + ones + (T - 1,))
            np.add.accumulate(G[..., :-1], axis=-1, out=a[..., 1:])
            a[..., 1:] /= divisors[b - 1].reshape((N,) + ones + (T - 1,))
            edges[0] = edges[-1]
            np.add.reduce(np.multiply(a[..., 1:], rise, out=buf[..., 1:]), axis=-1, out=edges[1:])
            np.add.accumulate(edges, axis=0, out=edges)
            _check_modulus(edges)
            lefts = np.multiply(a[..., 1:], left, out=buf[..., 1:])
            np.subtract(edges[:-1], np.add.reduce(lefts, axis=-1), out=a[..., 0])
        for i in np.flatnonzero(cells // N == b).tolist():
            row = ring[cells[i] % L].T
            out[i] = _horner(row, np.array(points[i] - centres[cells[i]]).reshape(ones))
    return out


def engine_cases(complex_values):
    """(marks, N, points, values) for N = 1..12 with up to 30 marks, each
    batch shape (), (1,), (5,) and (40,), the windows of many wrapping the ring."""
    for N in range(1, 13):
        for batch in [(), (1,), (5,), (40,)]:
            rng = np.random.default_rng([N, len(batch) and batch[0], complex_values])
            n_marks = min(int(rng.integers(1, 31)), 5 * N)
            marks, values = lattice_rows(int(rng.integers(2 ** 31)), N, max(batch, default=1),
                                         n_marks, span=6.0, complex_values=complex_values)
            points = np.sort(rng.uniform(0.0, 8.0, 6))
            yield marks, N, points, values.reshape(batch + values.shape[-1:])


#: sha256 of the real outputs of engine_cases, in order; complex bytes follow
#: numpy's SIMD dispatch, so they are compared with the reference, not pinned.
ENGINE_REAL_SHA256 = "a8ad937d3a039509d485939749cb59a45c0d486a94a0b730a7477b1d8610c71b"


class TestTaylorEngine:
    """_taylor_plan: sigma exactly for kernels whose breaks lie on a lattice 1/N."""

    @pytest.mark.parametrize("N", [1, 2, 3, 6, 16, 8000])
    def test_terms_reach_the_rounding_floor(self, N):
        T = _taylor_terms(N)
        assert (2 * N + 1) ** T > 2 ** 56 >= (2 * N + 1) ** (T - 1)

    @pytest.mark.parametrize("complex_values", [False, True])
    def test_gathered_sums_equal_the_per_mark_loop(self, complex_values):
        # One gather, multiply and reduction per block adds the jump products
        # in mark order, the jump first, so every bit is the per-mark loop's.
        for marks, N, points, values in engine_cases(complex_values):
            got = _taylor_plan(marks, N, points)(values)
            want = per_mark_engine(marks, N, points, values)
            assert got.shape == want.shape == points.shape + values.shape[:-1]
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_real_engine_bytes(self):
        digest = hashlib.sha256()
        for marks, N, points, values in engine_cases(False):
            digest.update(_taylor_plan(marks, N, points)(values).tobytes())
        assert digest.hexdigest() == ENGINE_REAL_SHA256

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("N, n_marks", [(1, 2), (4, 6), (10, 24)])
    def test_batch_equals_each_row_alone(self, N, n_marks, complex_values):
        marks, values = lattice_rows(N, N, 7, n_marks, complex_values=complex_values)
        points = np.linspace(0.0, 6.5, 53)
        batch = _taylor_plan(marks, N, points)(values)
        assert batch.shape == (53, 7)
        for r, row in enumerate(values):
            alone = _taylor_plan(marks, N, points)(row)
            assert repr(alone.tolist()) == repr(batch[:, r].tolist())
        order = np.random.default_rng(N).permutation(7)
        assert repr(_taylor_plan(marks, N, points)(values[order]).tolist()) \
            == repr(batch[:, order].tolist())
        assert repr(_taylor_plan(marks, N, points)(values[1::3]).tolist()) \
            == repr(batch[:, 1::3].tolist())

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("N, n_marks", [(1, 2), (4, 6), (10, 24)])
    def test_reused_plan_equals_fresh_calls(self, N, n_marks, complex_values):
        # One plan called on several batches, in any order and size, gives
        # the bits of a fresh plan per batch and per row.
        marks, values = lattice_rows(N + 1, N, 9, n_marks, complex_values=complex_values)
        points = np.linspace(0.0, 5.5, 37)
        plan = _taylor_plan(marks, N, points)
        for batch in (values[:4], values[4:], values, values[::-2], values[5]):
            got = plan(batch)
            assert repr(got.tolist()) == repr(_taylor_plan(marks, N, points)(batch).tolist())
            for r, row in enumerate(np.atleast_2d(batch)):
                alone = _taylor_plan(marks, N, points)(row)
                assert repr(alone.tolist()) == repr(np.atleast_2d(got.T)[r].tolist())

    def test_reused_plan_still_checks_values(self):
        marks, values = lattice_rows(3, 4, 3, 4)
        plan = _taylor_plan(marks, 4, [3.5])
        good = plan(values)
        bad = values.copy()
        bad[1, 2] = 1.5
        with pytest.raises(ValidationError):
            plan(bad)
        bad = values.copy()
        bad[2, 0] = 0.5
        with pytest.raises(ValidationError):
            plan(bad)
        with pytest.raises(ValidationError):
            plan(values[:, :-1])
        assert repr(plan(values).tolist()) == repr(good.tolist())

    @pytest.mark.parametrize("points", [[3.0, 0.5], [0.5, 3.0, 2.0], [0.5, math.nan, 3.0]])
    def test_points_must_ascend(self, points):
        # The plan sizes its blocks by the last point, so unsorted points
        # once read sigma(3) = 1.0 at [3.0, 0.5]; they raise at the plan.
        with pytest.raises(ValidationError, match="^points must ascend$"):
            _taylor_plan([1], 1, points)

    def test_repeated_points_ascend(self):
        got = _taylor_plan([1], 1, [0.5, 3.0, 3.0])([1.0, 0.0])
        assert got[0] == 1.0 and got[1] == got[2]
        assert abs(got[2] - dickman_rho(3.0)) <= 1e-15

    @pytest.mark.parametrize("dtype", [np.float64, np.complex128])
    def test_no_rows_give_no_columns(self, dtype):
        # As _solve_rows gives (n + 1, 0), a plan gives (P, 0) for no kernels.
        marks, _ = lattice_rows(4, 4, 3, 5)
        got = _taylor_plan(marks, 4, [0.5, 2.0, 3.5, 6.0])(np.empty((0, 6), dtype=dtype))
        assert got.shape == (4, 0) and got.dtype == dtype

    @pytest.mark.parametrize("values", [
        [1.0, -0.5], [0.5, -0.5, 0.25], [1.0, 1.5, 0.25], [1.0, 0.9 + 0.9j, 0.0],
        [1.0, math.nan, 0.25], np.ones((2, 2, 3)),
    ], ids=["short", "first-not-1", "outside-disc", "complex-outside", "nan", "3-d"])
    def test_same_segment_rule_as_the_march(self, values):
        # One rule and one message for the segment rows of both engines.
        from meanspec.dde_solver import _solve_rows
        with pytest.raises(ValidationError) as march:
            _solve_rows((1.0, 1.5), values, 3.0, 0.5, check_residual=False)
        with pytest.raises(ValidationError) as engine:
            _taylor_plan([2, 3], 2, [3.0])(values)
        assert str(engine.value) == str(march.value)
        assert "one value per segment in the unit disc" in str(march.value)

    def test_reused_plan_still_checks_every_edge(self, monkeypatch):
        # A plan that has run clean rows still raises on a row whose |sigma|
        # passes 1, and runs clean rows again afterwards.
        import meanspec.kernels as kernels
        marks, values = lattice_rows(6, 4, 5, 4)
        plan = _taylor_plan(marks, 4, [4.0])
        good = plan(values)
        monkeypatch.setattr(kernels, "DISC_TOL", 10.0)
        wild = values.copy()
        wild[3, 1:] = 3.0
        with pytest.raises(ContractError, match="exceeded 1"):
            plan(wild)
        with pytest.raises(ContractError, match="exceeded 1"):
            plan(wild[3])
        assert repr(plan(values).tolist()) == repr(good.tolist())

    def test_table_budget_before_allocation(self):
        # 2 x 19 blocks x 10^5 cells x 3 powers pass the budget; the cells fit.
        import tracemalloc
        N, u = 10 ** 5, 20.0
        assert N * u < MAX_SOLVER_NODES < _taylor_plan_size(N, u)
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="table"):
                _taylor_plan([N, 2 * N], N, [u])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_tables_count_what_the_plan_holds(self):
        # Per block after the first, N x (T - 1) powers and as many divisors.
        T = _taylor_terms(4)
        assert _taylor_plan_size(4, 1.0) == 0
        assert _taylor_plan_size(4, 1.1) == 2 * 4 * (T - 1)
        assert _taylor_plan_size(4, 30.0) == 2 * 29 * 4 * (T - 1)
        assert _taylor_plan_size(1, MAX_DELAY_U) == 2 * 999 * 35  # the delay functions' largest

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_march_converges_to_it(self, seed, complex_values):
        # The trapezoid march's gap falls like h^2 and its Richardson
        # extrapolation meets the engine at every node.
        N = 20
        marks, values = lattice_rows(seed, N, 1, 6 + 9 * seed, complex_values=complex_values)
        kernel = StepFunction(tuple(mk / N for mk in marks), values[0, :-1], values[0, -1])
        from meanspec.dde_solver import solve_sigma
        h = 1.0 / (10 * N)
        coarse = solve_sigma(kernel, 4.0, h).sigma
        fine = solve_sigma(kernel, 4.0, h / 2).sigma.samples[::2]
        exact = _taylor_plan(marks, N, coarse.u)(values[0])
        gaps = [float(np.max(np.abs(s - exact))) for s in (coarse.samples, fine)]
        assert gaps[0] <= h * h
        assert 3.5 <= gaps[0] / gaps[1] <= 4.5
        assert np.max(np.abs((4.0 * fine - coarse.samples) / 3.0 - exact)) <= 1e-10

    def test_one_on_the_unit_interval(self):
        marks, values = lattice_rows(5, 6, 3, 5)
        points = np.linspace(0.0, 1.0, 17)
        assert np.all(_taylor_plan(marks, 6, points)(values) == 1.0)

    def test_matches_the_delay_closed_form(self):
        # One break at 1 on a lattice finer than the delay functions' own.
        u = np.linspace(1.0, 3.0, 41)
        ref = [1.0 - 2.0 * math.log(t) + rho_minus_correction(t) for t in u.tolist()]
        got = _taylor_plan([7], 7, u)([1.0, -1.0])
        assert np.max(np.abs(got - ref)) <= 1e-14

    def test_breach_in_one_row_raises(self, monkeypatch):
        # |sigma| <= 1 is checked at every cell edge of every row; a level
        # far outside the disc, let through for one row, breaks it.
        import meanspec.kernels as kernels
        marks, values = lattice_rows(6, 4, 5, 4)
        values[3, 1:] = 3.0
        monkeypatch.setattr(kernels, "DISC_TOL", 10.0)
        with pytest.raises(ContractError, match="exceeded 1"):
            _taylor_plan(marks, 4, [4.0])(values)

    def test_budget_before_allocation(self):
        import tracemalloc
        N = 10 ** 6
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError):
                _taylor_plan([N, 2 * N], N, [MAX_SOLVER_NODES / N])(np.ones((50, 3)))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_ring_holds_only_what_later_cells_read(self):
        # Cells a later block still reads: up to the largest mark used, plus
        # the block being built, its sums and its products; marks past the
        # last point go.
        assert _taylor_size([8000 + 5001 * j for j in range(9)], 8000, 60.01) == (144009, 5)
        assert _taylor_size([3, 4, 30], 3, 4.0) == (3 * 6 + 2, _taylor_terms(3))

    @pytest.mark.parametrize("complex_values", [False, True])
    @pytest.mark.parametrize("N, n_marks, u", [(16, 9, 6.0), (4, 3, 30.0), (60, 12, 3.5)])
    def test_peak_memory_within_its_size(self, N, n_marks, u, complex_values):
        # What one call allocates stays within rows x cells x terms values,
        # plus the N x T tables, the N sums per row that _taylor_size leaves
        # out, and numpy's fixed iteration buffers (about 200 KB).
        import tracemalloc
        R = 400
        marks, values = lattice_rows(N, N, R, n_marks, complex_values=complex_values)
        cells, T = _taylor_size(marks, N, u)
        tracemalloc.start()
        try:
            _taylor_plan(marks, N, [u])(values)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= (cells * T + 4 * N) * R * values.itemsize + 8 * N * T * 8 + (1 << 19)

    @pytest.mark.parametrize("marks, N, values, points", [
        ([1], 1, [1.0, 0.0], [math.nan]), ([1], 1, [1.0, 0.0], [-0.5]),
        ([1], 1, [1.0, 0.0], [0.0, math.inf]), ([1], 1, [0.5, 0.0], [2.0]),
        ([1], 1, [1.0, 1.5], [2.0]), ([1], 1, [1.0], [2.0]),
        ([1], 2, [1.0, 0.0], [2.0]), ([3, 3], 2, [1.0, 0.0, 0.0], [2.0]),
    ])
    def test_bad_input_rejected(self, marks, N, values, points):
        with pytest.raises(ValidationError):
            _taylor_plan(marks, N, points)(values)
