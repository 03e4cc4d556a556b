import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec import dde_solver
from meanspec.acceptance import random_complex_kernel, random_real_kernel
from meanspec.dde_solver import (MAX_SOLVER_NODES, _check_contracts, kernel_sup_difference,
                                 perturbation_gap, solve_sigma,
                                 trapezoid_convolution_with_kernel)
from meanspec.errors import BudgetError, ContractError, GridError, ValidationError
from meanspec.kernels import GridFunction
from meanspec.extremal_search import delta_constants
from meanspec.kernels import (SQRT_E, StepFunction, dickman_rho_grid,
                              rho_minus_grid)

CHI_MINUS = StepFunction((1.0,), (1.0,), -1.0)
CHI_DICKMAN = StepFunction((1.0,), (1.0,), 0.0)


def segments(chi):
    """chi's segment constants as the solver engine takes them: real for a real chi."""
    segs = np.array(chi.segment_values())
    return segs.real if chi.is_real else segs


def loop_march(chi, u_max, h):
    """Reference march: the node-by-node recurrence in plain Python."""
    m1 = round(1.0 / h)
    n = max(int(math.ceil(u_max / h - 1e-9)), m1)
    complex_mode = not chi.is_real
    segs = [v if complex_mode else v.real for v in chi.segment_values()]
    jumps = [(round(b / h), segs[k + 1] - segs[k])
             for k, b in enumerate(chi.breaks) if round(b / h) <= n]
    zero = 0.0j if complex_mode else 0.0
    sigma = [1.0 + 0.0j if complex_mode else 1.0] * (n + 1)
    i0 = m1 + 1
    if i0 > n:
        return np.array(sigma)
    d = zero
    for mk, dk in jumps:
        if i0 - mk > 0:
            d += dk * ((i0 - mk) * h)
    sigma[i0] = ((i0 - 1) * h + 0.5 * h + d) / (i0 * h - 0.5 * h)
    half_h = 0.5 * h
    for i in range(i0 + 1, n + 1):
        s = zero
        for mk, dk in jumps:
            j = i - mk
            if j >= 1:
                s += dk * (sigma[j] + sigma[j - 1])
        sigma[i] = sigma[i - 1] + half_h * s / (i * h - half_h)
    return np.array(sigma)


def shifted_convolution(sigma, chi, h):
    """Reference residual convolution built from zero-padded shifted copies."""
    C = GridFunction(h, sigma).cumulative()

    def shifted(m):
        out = np.zeros_like(C)
        if m < len(C):
            out[m:] = C[:len(C) - m]
        return out

    marks = [0] + [round(b / h) for b in chi.breaks]
    T = np.zeros(len(C), dtype=np.complex128)
    for k, v in enumerate(chi.segment_values()):
        upper = shifted(marks[k])
        if k + 1 < len(marks):
            upper = upper - shifted(marks[k + 1])
        T = T + v * upper
    return T.real if chi.is_real and not np.iscomplexobj(sigma) else T


class TestSolveSigma:
    def test_constant_kernel_solved_exactly(self):
        sol = solve_sigma(StepFunction(), 5.0, 1e-3)
        assert np.max(np.abs(sol.sigma.samples - 1.0)) <= 1e-12

    def test_matches_rho_minus(self):
        sol = solve_sigma(CHI_MINUS, 4.0, 1e-4)
        ref = rho_minus_grid(4.0, 1e-4)
        assert np.max(np.abs(sol.sigma.samples - ref.samples)) <= 5e-6

    def test_matches_dickman(self):
        sol = solve_sigma(CHI_DICKMAN, 6.0, 1e-4)
        ref = dickman_rho_grid(6.0, 1e-4)
        assert np.max(np.abs(sol.sigma.samples - ref.samples)) <= 5e-6

    def test_imaginary_constant_kernel_log_segment(self):
        sol = solve_sigma(StepFunction((1.0,), (1.0,), 1j), 2.0, 1e-4)
        u = sol.sigma.u
        mask = u >= 1.0
        exact = 1.0 - (1.0 - 1j) * np.log(np.where(mask, u, 1.0))
        assert np.max(np.abs(sol.sigma.samples[mask] - exact[mask])) <= 1e-6

    def test_residual_contract(self):
        sol = solve_sigma(CHI_MINUS, 6.0, 1e-3)
        s = sol.sigma.samples
        T = trapezoid_convolution_with_kernel(s, CHI_MINUS.breaks, segments(CHI_MINUS), 1e-3)
        u = sol.sigma.u
        m1 = round(1.0 / 1e-3)
        resid = np.abs(u * s - T)[m1:]
        assert np.all(resid <= 1e-9 * np.maximum(u[m1:], 1.0))

    @pytest.mark.parametrize("chi", [
        CHI_MINUS, StepFunction((1.0, 1.5, 2.8), (1.0, 0.3 + 0.6j, -0.5 - 0.4j), 0.2j),
    ], ids=["real", "complex"])
    def test_residual_check_reports_the_worst_excess(self, monkeypatch, chi):
        # A bump past u = 1 breaks the node equations; the message carries
        # max(|u*sigma - T| - 1e-9*max(u, 1)) over the nodes u >= 1.
        h, u_max, m1 = 1e-3, 6.0, 1000
        march = dde_solver._march

        def bumped(*args):
            sigma = march(*args)
            sigma[3500] += 1e-6
            return sigma

        s = solve_sigma(chi, u_max, h).sigma.samples.copy()
        s[3500] += 1e-6
        u = h * np.arange(len(s))
        T = trapezoid_convolution_with_kernel(s, chi.breaks, segments(chi), h)
        resid = np.abs(u * s - T)[m1:]
        worst = float(np.max(resid - 1e-9 * np.maximum(u[m1:], 1.0)))
        assert worst > 1e-7
        monkeypatch.setattr(dde_solver, "_march", bumped)
        with pytest.raises(ContractError) as info:
            solve_sigma(chi, u_max, h)
        assert str(info.value) == f"solver self-consistency residual exceeded by {worst:.3e}"

    def test_unaligned_breakpoint_rejected(self):
        with pytest.raises(GridError):
            solve_sigma(StepFunction((1.00037,), (1.0,), 0.0), 3.0, 1e-3)

    def test_step_must_divide_one(self):
        with pytest.raises(GridError):
            solve_sigma(CHI_MINUS, 3.0, 3e-3)

    def test_invalid_kernel_rejected_at_construction(self):
        with pytest.raises(ValidationError):
            StepFunction((1.0,), (0.5,), 0.0)


class TestSolutionInvariants:
    def test_initial_segment_exact_and_bounded(self, rng):
        for _ in range(5):
            k = random_complex_kernel(rng, 1e-3, 5.0, int(rng.integers(2, 6)))
            sol = solve_sigma(k, 6.0, 1e-3)
            m1 = round(1.0 / 1e-3)
            assert np.all(sol.sigma.samples[:m1 + 1] == 1.0)
            assert np.max(np.abs(sol.sigma.samples)) <= 1.0 + 1e-9

    def test_running_average_dominates_later_values(self, rng):
        k = random_real_kernel(rng, 1e-3, 4.0, 4)
        sol = solve_sigma(k, 8.0, 1e-3)
        s = np.abs(sol.sigma.samples)
        a = sol.running_avg.samples
        for v_idx in (1000, 2000, 4000):
            assert np.all(s[v_idx:] <= a[v_idx] + 1e-6)

    def test_running_average_nonincreasing(self, rng):
        k = random_real_kernel(rng, 1e-3, 4.0, 5)
        sol = solve_sigma(k, 8.0, 1e-3)
        m1 = round(1.0 / 1e-3)
        assert np.max(np.diff(sol.running_avg.samples[m1:])) <= 1e-9

    def test_positivity_when_deficit_integral_small(self, rng):
        # Values within 0.4 of 1 keep int (1-chi)/t below 1 up to u = 8.
        for _ in range(5):
            marks = np.sort(rng.choice(np.arange(1000, 8000), size=4, replace=False))
            vals = rng.uniform(0.6, 1.0, 4)
            k = StepFunction(tuple(marks * 1e-3), (1.0,) + tuple(vals[:-1]), vals[-1])
            sol = solve_sigma(k, 8.0, 1e-3)
            assert np.min(sol.sigma.samples.real) > 0.0

    def test_real_kernel_range(self, rng):
        d1 = delta_constants()[0]
        for _ in range(10):
            k = random_real_kernel(rng, 1e-3, 10.0, 8)
            s = solve_sigma(k, 10.0, 1e-3).sigma.samples.real
            assert s.min() >= d1 - 1e-4
            assert s.max() <= 1.0 + 1e-9

    def test_mesh_refinement_order(self, rng):
        ratios = []
        for _ in range(5):
            k = random_real_kernel(rng, 2e-3, 3.5, int(rng.integers(2, 7)))
            sols = [solve_sigma(k, 4.0, h).sigma.samples
                    for h in (2e-3, 1e-3, 5e-4)]
            d1 = np.max(np.abs(sols[0] - sols[1][::2]))
            d2 = np.max(np.abs(sols[1] - sols[2][::2]))
            ratios.append(d1 / d2)
        assert all(3.5 <= r <= 4.5 for r in ratios)


class TestPerturbationGap:
    def test_identical_kernels(self):
        gap, bound = perturbation_gap(CHI_MINUS, CHI_MINUS, 2.0, 1e-3)
        assert gap == 0.0 and bound == 0.0

    def test_bound_closed_form(self):
        chi_hat = StepFunction((1.0,), (1.0,), -0.9)
        assert kernel_sup_difference(CHI_MINUS, chi_hat, 2.0) == pytest.approx(0.1)
        gap, bound = perturbation_gap(CHI_MINUS, chi_hat, 2.0, 1e-3)
        assert bound == pytest.approx(2.0 ** 0.1 - 1.0)
        assert gap <= bound

    def test_sup_difference_stops_at_t_max(self):
        # The kernels differ by 0.5 on [2, 3) and by 2 from 3 on.
        chi = StepFunction((1.0, 2.0, 3.0), (1.0, -1.0, -0.5), 1.0)
        for t_max, sup in ((2.0, 0.0), (2.5, 0.5), (3.0, 0.5), (3.5, 2.0)):
            assert kernel_sup_difference(chi, CHI_MINUS, t_max) == sup

    def test_gap_strictly_below_bound_at_three(self):
        chi_hat = StepFunction((1.0,), (1.0,), -0.9)
        gap, bound = perturbation_gap(CHI_MINUS, chi_hat, 3.0, 1e-3)
        assert bound == pytest.approx(3.0 ** 0.1 - 1.0)
        assert gap < bound

    def test_random_pairs_respect_bound(self, rng):
        for _ in range(8):
            k1 = random_real_kernel(rng, 1e-3, 4.0, 3)
            k2 = random_real_kernel(rng, 1e-3, 4.0, 3)
            gap, bound = perturbation_gap(k1, k2, 4.0, 1e-3)
            assert gap <= bound + 1e-6


class TestBlockMarch:
    """The unit-block march against the node-by-node loop."""

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_real_kernels_bit_identical(self, rng, h):
        for _ in range(10):
            k = random_real_kernel(rng, h, 5.0, int(rng.integers(1, 8)))
            got = solve_sigma(k, 6.0, h).sigma.samples
            assert got.dtype == np.float64
            assert np.array_equal(got, loop_march(k, 6.0, h))

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_complex_kernels_agree(self, rng, h):
        for _ in range(10):
            k = random_complex_kernel(rng, h, 5.0, int(rng.integers(1, 8)))
            got = solve_sigma(k, 6.0, h).sigma.samples
            assert np.max(np.abs(got - loop_march(k, 6.0, h))) <= 1e-14

    @pytest.mark.parametrize("breaks, values, tail", [
        ((1.0,), (1.0,), -1.0),                  # jump exactly at 1: mk = m1
        ((1.0, 2.0), (1.0, -1.0), 0.0),
        ((1.0, 1.001, 1.002), (1.0, -1.0, 0.5), -0.25),
        # block starts sit at nodes k*m1 + 2, so a jump at mk = k*m1 + 1 first
        # acts on a block's first node; neighbours hit its second and last
        ((2.001,), (1.0,), -1.0),
        ((2.0, 3.002, 4.001), (1.0, 0.3, -0.7), 0.9),
        ((1.999, 3.003), (1.0, -0.5), 0.5),
        ((1.5, 2.5), (1.0, 1j), -0.6 - 0.2j),
        ((1.0, 3.001), (1.0, -1j), 0.7),
        ((9.0,), (1.0,), -1.0),                  # no jump inside the grid
    ])
    @pytest.mark.parametrize("u_max", [1.001, 1.002, 3.0, 3.0015, 4.7])
    def test_edge_cases(self, breaks, values, tail, u_max):
        # u_max = 1 + h and 1 + 2h give n = m1 + 1 and m1 + 2; 3.0015 and
        # 4.7 end in a partial block
        h = 1e-3
        k = StepFunction(breaks, values, tail)
        got = solve_sigma(k, u_max, h).sigma.samples
        ref = loop_march(k, u_max, h)
        assert len(got) == len(ref)
        if k.is_real:
            assert np.array_equal(got, ref)
        else:
            assert np.max(np.abs(got - ref)) <= 1e-14


class TestValidator:
    @pytest.mark.parametrize("breach, message", [("initial", "equal 1 exactly"),
                                                 ("overshoot", "exceeded 1"),
                                                 ("average", "running average")])
    def test_rejects_each_broken_contract(self, breach, message):
        h, m1 = 0.01, 100

        def average(s):
            avg = np.empty_like(s)
            avg[0] = 1.0
            avg[1:] = GridFunction(h, np.abs(s)).cumulative()[1:] / (h * np.arange(1, len(s)))
            return avg

        s = np.ones(301)
        s[m1 + 1:] = np.linspace(1.0, -0.5, 200)
        _check_contracts(s, average(s), m1)
        if breach == "initial":
            s[40] = 1.0 - 1e-15
        elif breach == "overshoot":
            s[250] = -1.0 - 1e-8
        else:  # |sigma| grows back to 1 after falling to 0
            s[150:] = np.where(np.arange(151) < 50, 0.0, 1.0)
        with pytest.raises(ContractError, match=message):
            _check_contracts(s, average(s), m1)


class TestNaNFailsTheContracts:
    """A NaN in the march's output fails a certified check, residual on or off."""

    @staticmethod
    def poison_march(monkeypatch, node, column=()):
        march = dde_solver._march

        def poisoned(*args):
            sigma = march(*args)
            sigma[(node,) + column] = np.nan
            return sigma

        monkeypatch.setattr(dde_solver, "_march", poisoned)

    @pytest.mark.parametrize("check_residual, message", [(False, "exceeded 1 by nan"),
                                                         (True, "residual exceeded by nan")])
    @pytest.mark.parametrize("node", [150, -1])
    def test_one_kernel(self, monkeypatch, check_residual, message, node):
        self.poison_march(monkeypatch, node)
        with pytest.raises(ContractError, match=message):
            dde_solver._solve_rows(CHI_MINUS.breaks, segments(CHI_MINUS), 3.0, 0.01,
                                   check_residual=check_residual)

    @pytest.mark.parametrize("check_residual", [False, True])
    def test_one_column_of_a_batch(self, monkeypatch, check_residual):
        self.poison_march(monkeypatch, 250, (1,))
        rows = np.array([[1.0, -1.0], [1.0, 0.5], [1.0, 0.0]])
        with pytest.raises(ContractError, match="by nan"):
            dde_solver._solve_rows((1.0,), rows, 3.0, 0.01, check_residual=check_residual)

    def test_solve_sigma(self, monkeypatch):
        # Before GridFunction sees the samples.
        self.poison_march(monkeypatch, -1)
        with pytest.raises(ContractError, match="residual exceeded by nan"):
            solve_sigma(CHI_MINUS, 3.0, 0.01)


def segment_convolution(sigma, breaks, values, h):
    """Reference residual convolution, one segment at a time: a segment of
    value v on [lo*h, hi*h) adds v*(C(u - lo*h) - C(u - hi*h)), C the
    trapezoid antiderivative of sigma, by full-length shifted products."""
    C = np.zeros_like(sigma)
    C[1:] = np.cumsum(0.5 * h * (sigma[1:] + sigma[:-1]), axis=0)
    n = len(C)
    T = np.zeros(C.shape, dtype=np.result_type(C, values))
    marks = [0] + [min(round(b / h), n) for b in breaks] + [n]
    for k, (lo, hi) in enumerate(zip(marks, marks[1:])):
        v = values[..., k]
        T[lo:] += v * C[:n - lo]
        T[hi:] -= v * C[:n - hi]
    return T


class TestResidualConvolution:
    def test_misaligned_break_raises(self):
        # The breaks' nodes follow StepFunction.require_aligned, as in the
        # march: a break off the grid raises instead of rounding to a node.
        sigma = solve_sigma(CHI_MINUS, 3.0, 1e-3).sigma.samples
        with pytest.raises(GridError, match="breakpoint 1.0004 is not a multiple"):
            trapezoid_convolution_with_kernel(sigma, (1.0004,), np.array([1.0, -1.0]), 1e-3)

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_matches_segment_form(self, rng, h):
        # At h = 1e-4 the grid spans two blocks of RESIDUAL_BLOCK nodes.
        breaks = tuple(float(b) for b in np.sort(rng.choice(np.arange(1000, 7000), 6,
                                                            replace=False)) * 1e-3)
        real = rng.uniform(-1.0, 1.0, (5, len(breaks) + 1))
        cplx = np.sqrt(np.abs(real)) * np.exp(2j * np.pi * rng.random(real.shape))
        breaks += (12.0,)  # a break past the grid
        for values in (real, cplx):
            values = np.column_stack([np.ones(len(values)), values])
            sigma, _ = dde_solver._solve_rows(breaks, values, 8.0, h, check_residual=False)
            cases = [(sigma, values)] + [(sigma[:, r], values[r]) for r in range(2)]
            for sig, vals in cases:
                got = trapezoid_convolution_with_kernel(sig, breaks, vals, h)
                ref = segment_convolution(sig, breaks, vals, h)
                assert got.dtype == ref.dtype and got.shape == ref.shape
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))

    @pytest.mark.parametrize("chi", [CHI_MINUS, StepFunction(
        (1.0, 1.5, 2.8, 3.3), (1.0, 0.3 + 0.6j, -0.5 - 0.4j, 0.9j), 0.2j)],
        ids=["real", "complex"])
    def test_peak_memory_at_four_hundred_thousand_nodes(self, chi):
        # C and T, plus one product buffer of RESIDUAL_BLOCK nodes.
        import tracemalloc
        h = 1e-4
        sigma = solve_sigma(chi, 40.0, h).sigma.samples.copy()
        assert len(sigma) == 400001
        tracemalloc.start()
        try:
            trapezoid_convolution_with_kernel(sigma, chi.breaks, segments(chi), h)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 2.25 * sigma.nbytes

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_matches_shifted_copy_form(self, rng, h):
        cases = [random_real_kernel(rng, h, 7.0, 5) for _ in range(3)]
        cases += [random_complex_kernel(rng, h, 7.0, 5) for _ in range(3)]
        cases.append(StepFunction((1.0, 12.0), (1.0, -1.0), 0.5))  # break past the grid
        for k in cases:
            s = solve_sigma(k, 8.0, h).sigma.samples
            for sig in (s, s.astype(np.complex128)):
                got = trapezoid_convolution_with_kernel(sig, k.breaks, segments(k), h)
                ref = shifted_convolution(sig, k, h)
                assert got.dtype == ref.dtype
                assert np.max(np.abs(got - ref)) <= 1e-13


class TestGridValidation:
    @pytest.mark.parametrize("u_max, h", [(math.nan, 1e-3), (math.inf, 1e-3),
                                          (4.0, 0.0), (4.0, math.nan),
                                          (4.0, -1e-3), (-2.0, 1e-3)])
    def test_non_finite_or_non_positive_rejected(self, u_max, h):
        with pytest.raises(ValidationError):
            solve_sigma(CHI_MINUS, u_max, h)

    @pytest.mark.parametrize("u_max, h", [(1e9, 1e-3), (1e300, 1e-3),
                                          (2.0, 5e-324)])
    def test_node_budget(self, u_max, h):
        with pytest.raises(BudgetError):
            solve_sigma(CHI_MINUS, u_max, h)

    def test_budget_edge(self):
        h = 1e-3
        with pytest.raises(BudgetError):
            solve_sigma(CHI_MINUS, (MAX_SOLVER_NODES + 1) * h, h)


def _row_kernel(breaks, row):
    return StepFunction(breaks, tuple(row[:-1]), row[-1])


@st.composite
def batched_rows(draw):
    """Kernels on shared breaks: (breaks, (R, k + 1) values, u_max, h), the
    values real, or complex in the closed unit disc.

    Some rows repeat a neighbouring value, so their jump at that break is 0,
    and some breaks may lie past u_max.
    """
    h = draw(st.sampled_from([1e-2, 5e-3, 2e-3]))
    m1 = round(1.0 / h)
    u_max = draw(st.sampled_from([1.0, 1.0 + h, 2.5, 4.0, 6.0]))
    n = max(1, math.ceil(u_max / h - 1e-9))
    marks = draw(st.lists(st.integers(m1, n + m1), min_size=0, max_size=6, unique=True))
    rows = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-1.0, 1.0, (rows, len(marks) + 1))
    corners = [-1.0, 0.0, 1.0]
    if draw(st.booleans()):
        values = np.sqrt(np.abs(values)) * np.exp(2j * np.pi * rng.random(values.shape))
        corners += [1j, -1j]
    values[:, 0] = 1.0
    same = rng.random(values.shape) < 0.3
    same[:, 0] = False
    for k in range(1, values.shape[1]):
        values[same[:, k], k] = values[same[:, k], k - 1]
    values[rng.random(values.shape) < 0.1] = rng.choice(corners)
    values[:, 0] = 1.0
    return tuple(float(mk * h) for mk in sorted(marks)), values, u_max, h


class TestBatchedRows:
    """_solve_rows, the one solver engine: one kernel as a (k + 1,) row, or R
    kernels on shared breaks as an (R, k + 1) matrix with one column each."""

    @settings(max_examples=60, deadline=None)
    @given(batched_rows())
    def test_rows_equal_per_row_solves(self, case):
        breaks, values, u_max, h = case
        complex_rows = np.iscomplexobj(values)
        sigma, avg = dde_solver._solve_rows(breaks, values, u_max, h, check_residual=True)
        n = max(1, math.ceil(u_max / h - 1e-9))
        assert sigma.shape == avg.shape == (n + 1, len(values))
        assert sigma.dtype == (np.complex128 if complex_rows else np.float64)
        for row, s, a in zip(values, sigma.T, avg.T):
            s1, a1 = dde_solver._solve_rows(breaks, row, u_max, h, check_residual=True)
            assert s1.shape == a1.shape == (n + 1,)
            if complex_rows:  # the same march, but complex products may take other SIMD loops
                assert np.max(np.abs(s - s1)) <= 1e-15 and np.max(np.abs(a - a1)) <= 1e-15
            else:
                assert s.tobytes() == s1.tobytes() and a.tobytes() == a1.tobytes()
            chi = _row_kernel(breaks, row)
            if chi.is_real != complex_rows:  # solve_sigma marches the row's dtype
                sol = solve_sigma(chi, u_max, h)
                assert sol.sigma.samples.tobytes() == s1.tobytes()
                assert sol.running_avg.samples.tobytes() == a1.tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 7, 11, 40])
    def test_chunks_change_no_bit(self, chunk):
        # Columns march independently, so the search may split its rows anywhere.
        rng = np.random.default_rng(chunk)
        breaks, h, u_max = (1.0, 1.5, 2.25, 3.0), 5e-3, 4.0
        values = np.hstack([np.ones((23, 1)), rng.uniform(-1.0, 1.0, (23, 4))])
        values[::4, 2] = values[::4, 1]  # a zero jump at 1.5
        whole = dde_solver._solve_rows(breaks, values, u_max, h, check_residual=False)
        parts = [dde_solver._solve_rows(breaks, values[r:r + chunk], u_max, h,
                                        check_residual=False) for r in range(0, 23, chunk)]
        for k in range(2):
            assert np.hstack([p[k] for p in parts]).tobytes() == whole[k].tobytes()

    @pytest.mark.parametrize("breach, message", [("initial", "equal 1 exactly"),
                                                 ("overshoot", "exceeded 1"),
                                                 ("average", "running average")])
    @pytest.mark.parametrize("row", [0, 6, 9])
    def test_breach_in_one_row_raises(self, monkeypatch, breach, message, row):
        values = np.hstack([np.ones((10, 1)), np.full((10, 1), -1.0)])
        march = dde_solver._march

        def broken(*args):
            sigma = march(*args)
            col = sigma[:, row]
            if breach == "initial":
                col[40] = 1.0 - 1e-15
            elif breach == "overshoot":
                col[250] = -1.0 - 1e-8
            else:  # |sigma| grows back to 1 after falling to 0
                col[150:] = np.where(np.arange(len(col) - 150) < 50, 0.0, 1.0)
            return sigma

        monkeypatch.setattr(dde_solver, "_march", broken)
        with pytest.raises(ContractError, match=message):
            dde_solver._solve_rows((1.0,), values, 3.0, 1e-2, check_residual=False)

    @pytest.mark.parametrize("col", [0, 3])
    def test_residual_check_reports_the_bumped_column(self, monkeypatch, col):
        # One bumped column among four raises with that column's worst excess
        # over 1e-9*max(u, 1), as its own one-kernel check reports it.
        h, u_max, m1 = 1e-3, 6.0, 1000
        breaks = (1.0, 1.5, 2.8)
        values = np.array([[1.0, -1.0, 0.4, 0.0], [1.0, 0.3, -0.5, 0.2],
                           [1.0, 0.9, -0.9, 0.9], [1.0, -0.2, 0.6, -1.0]])
        s = solve_sigma(_row_kernel(breaks, values[col]), u_max, h).sigma.samples.copy()
        s[3500] += 1e-6
        u = h * np.arange(len(s))
        T = trapezoid_convolution_with_kernel(s, breaks, values[col], h)
        worst = float(np.max((np.abs(u * s - T) - 1e-9 * np.maximum(u, 1.0))[m1:]))
        assert worst > 1e-7
        march = dde_solver._march

        def bumped(*args):
            sigma = march(*args)
            sigma[3500, col] += 1e-6
            return sigma

        monkeypatch.setattr(dde_solver, "_march", bumped)
        # With the check off the bumped march passes; with it on it raises.
        dde_solver._solve_rows(breaks, values, u_max, h, check_residual=False)
        with pytest.raises(ContractError) as info:
            dde_solver._solve_rows(breaks, values, u_max, h, check_residual=True)
        assert str(info.value) == f"solver self-consistency residual exceeded by {worst:.3e}"

    def test_intact_rows_pass_the_contracts(self):
        values = np.hstack([np.ones((10, 1)), np.full((10, 1), -1.0)])
        sigma, avg = dde_solver._solve_rows((1.0,), values, 3.0, 1e-2, check_residual=True)
        sol = solve_sigma(CHI_MINUS, 3.0, 1e-2)
        assert np.all(sigma == sol.sigma.samples[:, None])
        assert np.all(avg == sol.running_avg.samples[:, None])

    @pytest.mark.parametrize("breaks, values, u_max, h, error", [
        ((1.0, 2.0), [[1.0, -1.0]], 3.0, 1e-2, ValidationError),  # one value short
        ((1.0,), [1.0, -1.0, 0.5], 3.0, 1e-2, ValidationError),  # one kernel, one value over
        ((1.0,), [[0.5, -1.0]], 3.0, 1e-2, ValidationError),  # not 1 on [0, 1)
        ((1.0,), [[1.0, -1.5]], 3.0, 1e-2, ValidationError),
        ((1.0,), [[1.0, math.nan]], 3.0, 1e-2, ValidationError),
        ((1.0,), [[1.0, 0.8 + 0.8j]], 3.0, 1e-2, ValidationError),  # outside the disc
        ((0.5,), [[1.0, -1.0]], 3.0, 1e-2, ValidationError),
        ((2.0, 1.5), [[1.0, 0.0, -1.0]], 3.0, 1e-2, ValidationError),
        ((1.005,), [[1.0, -1.0]], 3.0, 1e-2, GridError),
        ((1.0,), [[1.0, -1.0]], 3.0, 3e-3, GridError),
        ((1.0,), [[1.0, -1.0]], 0.5, 1e-2, ValidationError),
        ((1.0,), [[1.0, -1.0]], math.inf, 1e-2, ValidationError),
        ((1.0,), [[1.0, -1.0]], 1e9, 1e-3, BudgetError),
        ((1.0,), [[[1.0, -1.0]]], 3.0, 1e-2, ValidationError),  # a 3-D stack
        ((1.0,), [[1.0, -1.0], [1.0 + 1e-9j, -1.0]], 3.0, 1e-2, ValidationError),  # 1 inexact
        ((1.0,), [1.0, complex(math.nan, 0.0)], 3.0, 1e-2, ValidationError),
        ((1.0,), 1.0, 3.0, 1e-2, ValidationError),  # a scalar
    ])
    def test_invalid_input_rejected_before_the_march(self, monkeypatch, breaks, values,
                                                     u_max, h, error):
        monkeypatch.setattr(dde_solver, "_march", None)  # a march would raise TypeError
        with pytest.raises(error) as info:
            dde_solver._solve_rows(breaks, np.array(values), u_max, h, check_residual=True)
        assert info.type is error

    def test_no_rows(self):
        sigma, avg = dde_solver._solve_rows((1.0,), np.ones((0, 2)), 3.0, 1e-2,
                                            check_residual=True)
        assert sigma.shape == avg.shape == (301, 0)
