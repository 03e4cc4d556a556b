import math

import numpy as np
import pytest
from numpy.polynomial import chebyshev as cheb
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec.errors import BudgetError, ContractError, GridError, ValidationError
from meanspec.dde_solver import SigmaSolution, solve_sigma
from meanspec.extremal_search import (MAX_BATCH_SAMPLES, MAX_LINE_DEGREE, MAX_POWER_RESIDUE_M,
                                      MAX_RESTARTS,
                                      TAU_MAX, _chebder, _dct1, _line_argmins, _lobatto,
                                      average_bound_expressions,
                                      delta_constants, golden_section,
                                      log_gap_endpoint_values,
                                      minus_kernel_sign_changes,
                                      mixed_square_inequality_violations,
                                      power_residue_log_density_bound,
                                      projection_auxiliary_minimum,
                                      truncated_kernel_min_mean)
from meanspec.kernels import (ALIGN_TOL, SQRT_E, GridFunction, StepFunction, _taylor_plan,
                              _taylor_size, dickman_rho, rho_minus_correction)

CHI_MINUS_CUT = StepFunction((1.0, 2.0), (1.0, -1.0), 0.0)


class TestDeltaConstants:
    def test_printed_values(self):
        d1, d0i, d0s = delta_constants()
        assert abs(d1 - (-0.656999)) <= 1e-6
        assert abs(d0i - 0.171500) <= 1e-6

    def test_two_routes_agree(self):
        _, d0i, d0s = delta_constants()
        assert abs(d0i - d0s) <= 1e-9

    def test_halving_relation(self):
        d1, d0i, _ = delta_constants()
        assert d0i == pytest.approx((1.0 + d1) / 2.0)

    def test_delta1_against_mpmath(self):
        import mpmath
        with mpmath.workdps(30):
            r = mpmath.sqrt(mpmath.e)
            ref = (1 - 2 * mpmath.log(1 + r)
                   + 4 * mpmath.quad(lambda t: mpmath.log(t) / (t + 1), [1, r]))
        assert abs(delta_constants()[0] - float(ref)) <= 2e-15


class TestPowerResidueBound:
    @pytest.mark.parametrize("m,target,tol", [
        (3, 0.3245, 5e-4),
        (4, 0.2187, 5e-4),
        (5, 0.14792, 5e-5),
        (6, 0.1003, 5e-4),
    ])
    def test_published_values(self, m, target, tol):
        assert abs(power_residue_log_density_bound(m).value - target) <= tol

    def test_asymptotic_scale_bounded(self):
        for m in range(2, 13):
            r = power_residue_log_density_bound(m)
            assert r.value * math.exp(m / math.e) <= 1.5

    def test_small_m_rejected(self):
        with pytest.raises(ValidationError):
            power_residue_log_density_bound(1)

    @pytest.mark.parametrize("m, value", [(3, 0.3244733555078601), (4, 0.21859758340466715),
                                          (5, 0.14791220649268633), (6, 0.10024710261243924)])
    def test_matches_direct_term_products(self, m, value):
        # Values of the earlier evaluation that multiplied the terms out directly.
        assert abs(power_residue_log_density_bound(m).value - value) <= 1e-15

    @pytest.mark.parametrize("m, beta", [(1000, 369.2939472), (2000, 737.2987481),
                                         (3000, 1105.2519684), (10 ** 4, 3680.6282268)])
    def test_argmin_past_the_underflow(self, m, beta):
        # Past m of about 2030 the bound underflows; the search runs on its
        # logarithm, so the argmin keeps growing like 0.37 m.
        r = power_residue_log_density_bound(m)
        assert abs(r.argmin - beta) <= 1e-6 * beta
        assert r.value == math.exp(r.diagnostics["log_bound"])

    def test_large_m_finite_against_mpmath(self):
        import mpmath
        r = power_residue_log_density_bound(500)
        assert math.isfinite(r.value) and r.value > 0.0
        with mpmath.workdps(40):
            def f(beta):
                return mpmath.exp(-beta) * mpmath.fsum(
                    beta ** (500 * k) / mpmath.factorial(500 * k) for k in range(12))

            beta = mpmath.findroot(lambda b: mpmath.diff(f, b), r.argmin)
            ref = f(beta)
        assert abs(r.value - float(ref)) <= 1e-6 * float(ref)
        assert abs(r.argmin - float(beta)) <= 1e-6 * float(beta)

    @pytest.mark.parametrize("m", [3.5, 3.0, math.nan, "3", None])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ValidationError):
            power_residue_log_density_bound(m)

    @pytest.mark.parametrize("m", [MAX_POWER_RESIDUE_M + 1, 10 ** 22])
    def test_large_m_rejected(self, m):
        with pytest.raises(ValidationError):
            power_residue_log_density_bound(m)

    def test_golden_section_stability(self):
        def f(x):
            return (x - 0.7) ** 2 + 0.25
        for tol in (1e-6, 5e-7):
            x, fx, width = golden_section(f, 0.0, 2.0, tol)
            assert abs(x - 0.7) < 10.0 * tol
            assert width <= tol


class TestProjectionMinimum:
    def test_argmin_and_value(self):
        r = projection_auxiliary_minimum()
        assert abs(r.argmin - 0.08055) <= 1e-4
        assert abs(r.value - 0.272516916) <= 1e-8
        assert r.value >= 112.0 / 411.0


class TestEndpointValues:
    def test_both_endpoints(self):
        v1, v2 = log_gap_endpoint_values()
        assert abs(v1 - 0.19) <= 5e-3
        assert abs(v2 - 0.1829) <= 5e-4
        assert v1 > 0.125 and v2 > 0.125

    def test_correction_integral(self):
        from scipy.integrate import quad
        val, _ = quad(lambda t: rho_minus_correction(t * SQRT_E),
                      2.0 / SQRT_E, 1.0 + 1.0 / SQRT_E, epsabs=1e-10, limit=200)
        assert abs(val - 0.0416) <= 1e-3
        assert val < 1.0 / 24.0

    def test_correction_integral_closed_form_against_mpmath(self):
        # Criterion 6's integral; swapping the order of the double integral
        # turns it into 4/sqrt(e) * int_2^T (T - w) log(w - 1)/w dw, T = 1 + sqrt(e).
        import mpmath
        from meanspec.acceptance import _correction_integral
        with mpmath.workdps(30):
            r = mpmath.sqrt(mpmath.e)
            ref = 4 / r * mpmath.quad(lambda w: (1 + r - w) * mpmath.log(w - 1) / w, [2, 1 + r])
        assert abs(float(ref) - 0.04162672251114561) <= 1e-16
        assert abs(_correction_integral() - float(ref)) <= 1e-14


class TestAverageBoundExpressions:
    def test_origin_collapses(self):
        e_main, e_corr = average_bound_expressions(0.0, 0.0)
        assert e_main == pytest.approx(2.0 - 2.0 / SQRT_E)
        assert e_corr == 0.0

    def test_lam_zero_kills_correction(self):
        e_main, e_corr = average_bound_expressions(0.0, 0.2)
        assert e_corr == 0.0
        assert e_main <= 2.0 - 2.0 / SQRT_E - 0.04 / (2.0 * SQRT_E) + 1e-12

    def test_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            average_bound_expressions(0.2, 0.1)
        with pytest.raises(ValidationError):
            average_bound_expressions(0.0, 0.5)

    @given(st.floats(min_value=0.0, max_value=1.0),
           st.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=1000, deadline=None)
    def test_cap_holds_on_random_pairs(self, s, t):
        tau = t * TAU_MAX
        lam = s * tau
        average_bound_expressions(lam, tau)  # raises on a cap violation


class TestMixedSquareInequality:
    def test_no_violations_in_a_million_samples(self):
        assert mixed_square_inequality_violations(10 ** 6, seed=0) == 0

    def test_equality_cases(self):
        # a=b=c=1, x=y=1 and the single-variable collapse x=0 are exact ties.
        a = b = c = 1.0
        x = y = 1.0
        assert 2 * a * x + 2 * b * y - (math.sqrt(a) * x + math.sqrt(b) * y) ** 2 \
            == pytest.approx(c * (x + y) * (2 - x - y))
        x, y = 0.0, 0.7
        assert 2 * b * y - (math.sqrt(b) * y) ** 2 == pytest.approx(
            c * y * (2 - y))


class TestMinusKernelSignChanges:
    def test_first_bracket_contains_sqrt_e(self):
        rep = minus_kernel_sign_changes(6.0, 1e-4)
        lo, hi = rep.brackets[0]
        assert lo <= SQRT_E <= hi
        assert 1.0 < lo and hi < 2.0

    def test_at_least_two_changes_by_twelve(self):
        rep = minus_kernel_sign_changes(12.0, 1e-3)
        assert len(rep.brackets) >= 2

    def test_windowed_identity(self):
        rep = minus_kernel_sign_changes(8.0, 1e-3)
        assert rep.identity_residual <= 1e-6

    def test_domain_validation(self):
        with pytest.raises(ValidationError):
            minus_kernel_sign_changes(3.0, 1e-3)

    @staticmethod
    def _node_loop(sol, h):
        """The scan and the identity residual, one node at a time."""
        s = sol.sigma.samples.real
        m1 = round(1.0 / h)
        brackets = []
        for i in range(m1, len(s) - 1):
            if s[i] == 0.0:
                brackets.append(((i - 1) * h, (i + 1) * h))
            elif s[i] * s[i + 1] < 0.0:
                brackets.append((i * h, (i + 1) * h))
        C = sol.sigma.cumulative().real
        resid = 0.0
        for w in np.linspace(2.0, (len(s) - 1) * h, 100):
            i = round(w / h)
            F_w = C[i] - C[i - m1]
            F_w1 = C[i - m1] - C[i - 2 * m1]
            resid = max(resid, abs((i * h) * s[i] - (F_w - F_w1)))
        return tuple(brackets), resid

    @pytest.mark.parametrize("w_max, h", [(8.0, 1e-4), (10.37, 1e-4), (12.0, 1e-4), (6.0, 1e-3)])
    def test_matches_node_loop(self, w_max, h):
        sol = solve_sigma(StepFunction((1.0, 2.0), (1.0, -1.0), 0.0), w_max, h)
        rep = minus_kernel_sign_changes(w_max, h)
        assert (rep.brackets, rep.identity_residual) == self._node_loop(sol, h)

    def test_exact_zeros_match_node_loop(self, monkeypatch):
        # Exact zeros, runs of zeros and tiny values, which a real solve
        # hardly ever produces, on random samples past u = 1.
        import meanspec.extremal_search as es
        h = 1e-2
        s = np.random.default_rng(3).normal(size=801)
        s[:101] = 1.0
        s[[150, 151, 300, 420, 421, 422, 799, 800]] = 0.0
        s[[500, 501]] = [1e-300, -1e-300]
        sol = SigmaSolution(CHI_MINUS_CUT, GridFunction(h, s), GridFunction(h, np.abs(s)))
        monkeypatch.setattr(es, "solve_sigma", lambda chi, u_max, h: sol)
        rep = minus_kernel_sign_changes(8.0, h)
        assert (rep.brackets, rep.identity_residual) == self._node_loop(sol, h)


class TestTruncatedKernelMinMean:
    def test_beats_full_minus_kernel_at_two(self):
        r = truncated_kernel_min_mean(1.0, m_steps=4, u_grid=(2.0,),
                                      restarts=2, h=1e-3, seed=0, sweeps=2)
        assert r.value <= 1.0 - 2.0 * math.log(2.0) + 1e-6

    def test_bracket_for_b_two(self):
        r = truncated_kernel_min_mean(2.0, m_steps=4, u_grid=(2.0, 3.0),
                                      restarts=2, h=1e-3, seed=0, sweeps=2)
        assert -dickman_rho(2.0) - 1e-4 <= r.value < 0.0

    def test_candidates_respect_dickman_ceiling(self):
        r = truncated_kernel_min_mean(1.5, m_steps=4, u_grid=(2.0,),
                                      restarts=2, h=1e-3, seed=0, sweeps=2)
        assert r.diagnostics["max_abs_sigma"] <= dickman_rho(1.5) + 1e-4

    def test_more_restarts_never_worse(self):
        vals = [truncated_kernel_min_mean(1.0, m_steps=3, u_grid=(2.0,),
                                          restarts=k, h=2e-3, seed=7,
                                          sweeps=1).value
                for k in (1, 2, 4)]
        assert vals[1] <= vals[0] + 1e-12
        assert vals[2] <= vals[1] + 1e-12

    def test_infeasible_grid_rejected(self):
        with pytest.raises(ValidationError):
            truncated_kernel_min_mean(0.25, u_grid=(2.0,))
        with pytest.raises(ValidationError):
            truncated_kernel_min_mean(-1.0)

    def test_argmin_is_valid_kernel(self):
        r = truncated_kernel_min_mean(1.0, m_steps=3, u_grid=(2.0,),
                                      restarts=1, h=2e-3, seed=0, sweeps=1)
        chi = r.argmin
        assert chi(0.5) == 1.0
        assert chi(10.0) == 0.0
        assert all(abs(v) <= 1.0 + 1e-12 for v in chi.segment_values())

    @pytest.mark.parametrize("kwargs, error", [
        ({"h": math.nan}, ValidationError), ({"h": math.inf}, ValidationError),
        ({"h": 0.0}, ValidationError), ({"h": -1e-3}, ValidationError),
        ({"B": 1e9}, BudgetError), ({"restarts": MAX_RESTARTS + 1}, BudgetError),
        ({"B": (MAX_LINE_DEGREE + 1) / 2.0}, BudgetError),
        ({"m_steps": 10 ** 10}, ValidationError),
        # Steps that do not divide 1 leave no lattice for the panel edges.
        ({"h": 3e-3}, GridError), ({"h": 0.3}, GridError), ({"h": 1.5e-3}, GridError),
        # 7 panels of [1, 2] lie on the lattice 1/7, so at h = 1e-6 the
        # re-validation runs at 1/1000006: 9.99999 of its steps exceed
        # MAX_SOLVER_NODES, though 9.99999 of h's do not.
        ({"B": 4.999995, "m_steps": 7, "h": 1e-6}, BudgetError),
        # 2 panels of [1, 4.000001] round to the lattice 1/10^6, where the
        # engine's re-validation read would hold 4 blocks x 2 x 10^6 x 2
        # table values, past MAX_SOLVER_NODES, though its cells fit.
        ({"u_grid": (4.000001,), "m_steps": 2, "h": 1e-6}, BudgetError),
    ])
    def test_inputs_rejected_before_any_solve(self, kwargs, error, monkeypatch):
        import meanspec.extremal_search as es
        monkeypatch.setattr(es, "solve_sigma", None)  # any solve would raise TypeError
        monkeypatch.setattr(es, "_taylor_plan", None)
        monkeypatch.setattr(es, "_solve_rows", None)
        args = {"B": 1.0, "u_grid": (2.0,)} | kwargs
        with pytest.raises(error):
            truncated_kernel_min_mean(**args)

    @pytest.mark.parametrize("seed", [-1, -2 ** 70, 1.5, 0.0, None, "0"])
    def test_bad_seed_rejected_before_any_solve(self, seed, monkeypatch):
        import meanspec.extremal_search as es
        monkeypatch.setattr(es, "solve_sigma", None)
        monkeypatch.setattr(es, "_taylor_plan", None)
        monkeypatch.setattr(es, "_solve_rows", None)
        with pytest.raises(ValidationError, match="seed"):
            truncated_kernel_min_mean(1.0, u_grid=(2.0,), seed=seed)

    @pytest.mark.parametrize("u, lattice, exact", [
        # 8 panels of [1, 3.08] lie on the lattice 1/50 with 9 terms a cell:
        # 2 x 450 cell terms per unit cost less than the march's 1000 nodes.
        (3.08, 50, True),
        # On 1/125 with 8 terms, 2 x 1000 do not; the march reads the same
        # panels, which lie on the grid.
        (3.112, 125, False),
        # 6.001 puts them on 1/8000, finer than the grid: rounded to h.
        (6.001, 1000, False),
    ])
    def test_engine_or_march_by_cost(self, u, lattice, exact, monkeypatch):
        import meanspec.extremal_search as es
        engine, march = [], []
        monkeypatch.setattr(es, "_taylor_plan", recording_plan(es._taylor_plan, engine))
        monkeypatch.setattr(es, "_solve_rows", recording(es._solve_rows, march))
        r = truncated_kernel_min_mean(3.0, m_steps=8, u_grid=(u,), restarts=2, sweeps=1)
        d = r.diagnostics
        assert (d["exact"], d["lattice"], d["u"]) == (exact, lattice, round(u * 1000) / 1000)
        assert (bool(engine), bool(march)) == (exact, not exact)
        assert 0.0 < d["revalidation_gap"] <= d["revalidation_h"] ** 2
        if not exact:  # the edges are the h-rounded equal panels
            ideal = [1.0 + (d["u"] - 1.0) * j / 8 for j in range(9)]
            assert d["revalidation_h"] == 1e-3
            assert max(abs(a - b) for a, b in zip(r.argmin.breaks, ideal)) <= 0.5e-3 + 1e-12

    @pytest.mark.parametrize("seed", range(4))
    def test_revalidation_gap_within_h_squared(self, seed):
        r = truncated_kernel_min_mean(1.3 + 0.2 * seed, m_steps=5, u_grid=(1.7, 2.9),
                                      restarts=2, seed=seed, sweeps=1)
        d = r.diagnostics
        M = round(1.0 / d["revalidation_h"])
        assert M % d["lattice"] == 0 and 1.0 / M <= 1e-3 < 1.0 / (M - d["lattice"])
        assert 0.0 < d["revalidation_gap"] <= d["revalidation_h"] ** 2

    def test_revalidation_catches_a_wrong_engine(self, monkeypatch):
        import meanspec.extremal_search as es
        build = es._taylor_plan

        def off(marks, N, points):
            plan = build(marks, N, points)

            def rows(values):
                out = plan(values)
                return out if np.ndim(values) == 2 else out + 1e-5
            return rows

        monkeypatch.setattr(es, "_taylor_plan", off)
        with pytest.raises(ContractError, match="differ"):
            truncated_kernel_min_mean(1.0, m_steps=4, u_grid=(2.0,), restarts=2, sweeps=1)

    def test_numpy_integer_seed_accepted(self):
        args = dict(m_steps=3, u_grid=(2.0,), restarts=2, h=2e-3, sweeps=1)
        a = truncated_kernel_min_mean(1.0, seed=np.int64(3), **args)
        assert a.value == truncated_kernel_min_mean(1.0, seed=3, **args).value


class TestPolynomialLineSearch:
    """sigma(B*u) is a polynomial of degree floor(B*u / a) in a level whose panel starts at a."""

    @pytest.mark.parametrize("target", [2.0, 2.001, 3.0, 4.11, 5.997, 6.0])
    def test_lobatto_interpolant_matches_fresh_solves(self, target):
        h = 1e-3
        rng = np.random.default_rng(round(target * 1000))
        edges = tuple(np.round(1.0 + 2.0 * np.arange(7) / 6, 3))
        u_top = max(round(math.ceil(target / h - ALIGN_TOL)) * h, 3.0)
        y = rng.uniform(-1.0, 1.0, 6)

        def value(j, t):
            z = y.copy()
            z[j] = t
            chi = StepFunction(edges, (1.0,) + tuple(z), 0.0)
            return solve_sigma(chi, u_top, h).value_at(target)

        for j, a in enumerate(edges[:-1]):
            d = max(1, math.floor(target / a + ALIGN_TOL))
            nodes = np.cos(np.pi * np.arange(d + 1) / d)
            coef = (_dct1(d) * [value(j, t) for t in nodes]).sum(axis=1)
            for t in rng.uniform(-1.0, 1.0, 3):
                assert abs(cheb.chebval(t, coef) - value(j, t)) <= 1e-12

    @pytest.mark.parametrize("poly, argmin", [
        (lambda t: (t - 0.3) ** 2 + 1.0, 0.3),
        (lambda t: t ** 3 - t, 1.0 / math.sqrt(3.0)),
        (lambda t: 2.0 - t, 1.0),
        (lambda t: -(t ** 4) + 0.1 * t, -1.0),
    ])
    def test_interpolated_argmin(self, poly, argmin):
        d = 6
        nodes = np.cos(np.pi * np.arange(d + 1) / d)
        assert _line_argmins(_dct1(d), poly(nodes)[None])[0] == pytest.approx(argmin, abs=1e-9)

    @pytest.mark.parametrize("value", [0.0, 0.5])
    def test_constant_line_has_an_argmin(self, value):
        # A panel that cannot reach B*u leaves the objective constant along it.
        assert -1.0 <= _line_argmins(_dct1(4), np.full((1, 5), value))[0] <= 1.0

    @pytest.mark.parametrize("lie", ["interior", "worst_node"])
    def test_interpolated_values_never_accepted(self, lie, monkeypatch):
        import meanspec.extremal_search as es
        if lie == "interior":
            monkeypatch.setattr(es, "_line_argmins", lambda dct, lines: np.full(len(lines), 0.123))
        else:
            def worst_node(dct, lines):
                nodes = np.cos(np.pi * np.arange(len(dct)) / (len(dct) - 1))
                return nodes[np.argmax(lines, axis=1)]
            monkeypatch.setattr(es, "_line_argmins", worst_node)
        r = truncated_kernel_min_mean(1.0, m_steps=4, u_grid=(2.0,), restarts=2,
                                      h=1e-3, seed=0, sweeps=2)
        start = exact_value(StepFunction((1.0, 2.0), (1.0, -1.0), 0.0), 1, 2.0)
        assert r.value <= start
        assert r.value == exact_value(r.argmin, r.diagnostics["lattice"], 2.0)

    #: Criterion 7's minima with sigma(B*u) read exactly on exact equal panels.
    EXACT_CRITERION_7 = {1.0: -0.6321507261111929, 1.5: -0.25035708297401726,
                         2.0: -0.04955921582965102}
    #: The same searches read off the h = 1e-3 march on panel edges snapped to
    #: h (commit f3b5d8d); the snapping, not the search, moves the minima.
    MARCH_CRITERION_7 = {1.0: -0.6321879988376479, 1.5: -0.2503814512255136,
                         2.0: -0.04953252367735386}
    #: Evaluations of the golden-section line search that the polynomial one
    #: replaced (commit aa154b4).
    GOLDEN_EVALUATIONS = {1.0: 1545, 1.5: 1641, 2.0: 1737}

    @pytest.mark.parametrize("B", [1.0, 1.5, 2.0])
    def test_criterion_7_no_worse_with_fewer_solves(self, B):
        r = truncated_kernel_min_mean(B, m_steps=6, u_grid=(1.5, 2.0, 3.0), restarts=3,
                                      h=1e-3, seed=0, sweeps=2)
        value = self.EXACT_CRITERION_7[B]
        assert -dickman_rho(B) - 1e-4 <= r.value <= value
        assert r.diagnostics["evaluations"] < self.GOLDEN_EVALUATIONS[B]
        assert abs(value - self.MARCH_CRITERION_7[B]) <= 5e-5
        # The Richardson march of the argmin, on steps 1/M and 1/(2M) that
        # hold every break and the target B*u (a multiple of 1/4).
        target = r.diagnostics["target"]
        step = 4 * r.diagnostics["lattice"] // math.gcd(4, r.diagnostics["lattice"])
        M = step * math.ceil(1000 / step)
        s1, s2 = (solve_sigma(r.argmin, target, 1.0 / q).sigma.samples[round(target * q)]
                  for q in (M, 2 * M))
        assert abs((4.0 * s2 - s1) / 3.0 - value) <= 1e-10

    def test_readme_gamma_b_no_worse(self):
        # meanspec gamma-b --B 1.0 --steps 16 --restarts 8 --seed 0 read
        # -0.6568327479787103 after 29,232 solves with golden section (aa154b4).
        r = truncated_kernel_min_mean(1.0, m_steps=16, restarts=8, h=1e-3, seed=0)
        assert -dickman_rho(1.0) - 1e-4 <= r.value <= -0.6568327479787103
        assert r.diagnostics["evaluations"] < 29232


def chebfit_argmin(ts, vals):
    """The argmin of one line as the search took it before the DCT-I step: a
    least-squares chebfit, chebroots of the trimmed derivative, chebval."""
    coef = cheb.chebfit(ts, vals, len(ts) - 1)
    crit = cheb.chebroots(cheb.chebtrim(cheb.chebder(coef)))
    crit = crit.real[(np.abs(crit.imag) <= 1e-9) & (np.abs(crit.real) <= 1.0)]
    cand = np.concatenate(([-1.0, 1.0], crit))
    return float(cand[np.argmin(cheb.chebval(cand, coef))])


def lobatto_nodes(d):
    return np.cos(np.pi * np.arange(d + 1) / d)


def degenerate_rows(d):
    """Rows whose derivative trims short: a constant line and, for d = 1, both
    slopes; for d = 2 and d = 4, a line whose interpolant's top coefficient
    is exactly 0."""
    rows = [np.full(d + 1, 0.5)]
    if d == 1:
        rows += [np.array([2.0, 1.0]), np.array([1.0, 2.0])]
    if d in (2, 4):
        rows.append(np.linspace(1.0, -1.0, d + 1))
    return rows


class TestBatchedArgmin:
    """All restarts' line argmins are one _line_argmins call on an (R, d + 1) block."""

    DEGREES = [1, 2, 3, 4, 5, 8, 13, 21, 34, 60, MAX_LINE_DEGREE]

    @staticmethod
    def block(d, seed, rows=9):
        rng = np.random.default_rng([d, seed])
        nodes = lobatto_nodes(d)
        lines = [rng.uniform(-1.0, 1.0, d + 1) for _ in range(rows // 3)]
        # Low-degree polynomials in the level, like most lines of the search.
        for _ in range(rows - len(lines)):
            lines.append(cheb.chebval(nodes, rng.normal(size=min(d, 4) + 1)))
        return np.array(degenerate_rows(d) + lines)

    @pytest.mark.parametrize("d", DEGREES)
    def test_dct1_interpolates_at_the_nodes(self, d):
        lines = self.block(d, 0)
        coef = (lines[:, None, :] * _dct1(d)).sum(axis=2)
        at_nodes = np.array([cheb.chebval(lobatto_nodes(d), c) for c in coef])
        assert np.abs(at_nodes - lines).max() <= 1e-13 * max(1.0, np.abs(lines).max())

    @pytest.mark.parametrize("d", DEGREES)
    def test_batch_equals_each_row_alone(self, d):
        lines = self.block(d, 1)
        dct = _dct1(d)
        batch = _line_argmins(dct, lines)
        alone = [float(_line_argmins(dct, row[None])[0]) for row in lines]
        assert repr(batch.tolist()) == repr(alone)
        order = np.random.default_rng(d).permutation(len(lines))
        assert repr(_line_argmins(dct, lines[order]).tolist()) == repr(batch[order].tolist())
        assert repr(_line_argmins(dct, lines[1::2]).tolist()) == repr(batch[1::2].tolist())

    @pytest.mark.parametrize("d", range(1, 13))
    def test_derivative_is_chebder_bit_for_bit(self, d):
        # The search's coefficient rows, and rows whose leading coefficients
        # are exact zeros (of either sign), as trimmed lines give.
        coef = (self.block(d, 3)[:, None, :] * _dct1(d)).sum(axis=2)
        zeros = np.random.default_rng(d).normal(size=(d + 2, d + 1))
        for k in range(1, d + 2):
            zeros[k, -k:] = 0.0
        zeros[-1, -1] = -0.0
        coef = np.concatenate([coef, zeros])
        got, want = _chebder(coef), cheb.chebder(coef, axis=1)
        assert got.shape == want.shape == (len(coef), d)
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("d", [1, 2, 7, MAX_LINE_DEGREE])
    def test_lobatto_tables_are_shared_and_read_only(self, d):
        nodes, dct = _lobatto(d)
        assert _lobatto(d)[0] is nodes and _lobatto(d)[1] is dct
        assert nodes.tobytes() == lobatto_nodes(d).tobytes()
        assert dct.tobytes() == _dct1(d).tobytes()
        for table in (nodes, dct):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table[0] = 0.0

    @pytest.mark.parametrize("d", range(1, MAX_LINE_DEGREE + 1))
    def test_agrees_with_chebfit_argmin(self, d):
        lines = self.block(d, 2, rows=6)
        nodes = lobatto_nodes(d)
        for row, t in zip(lines, _line_argmins(_dct1(d), lines)):
            old = chebfit_argmin(nodes, row)
            coef = cheb.chebfit(nodes, row, d)
            assert -1.0 <= t <= 1.0
            assert abs(cheb.chebval(t, coef) - cheb.chebval(old, coef)) <= 1e-12

    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_degenerate_rows_mixed_into_one_batch(self, d):
        dct = _dct1(d)
        lines = self.block(d, 3)
        k = len(degenerate_rows(d))
        ts = _line_argmins(dct, lines)
        assert repr(ts.tolist()) == repr([float(_line_argmins(dct, row[None])[0]) for row in lines])
        coef = (lines[:, None, :] * dct).sum(axis=2)
        der = cheb.chebder(coef, axis=1)
        if d == 1:
            assert der.shape[1] == 1  # degree-0 derivatives: the endpoints only
            assert ts[:3].tolist() == [-1.0, -1.0, 1.0]  # a tie goes to t = -1
        else:
            assert coef[k - 1, -1] == 0.0 and der[k - 1, -1] == 0.0  # trimmed leading 0
            assert ts[k - 1] == -1.0  # the line descending from t = 1 to t = -1
        assert -1.0 <= ts[0] <= 1.0  # the constant line
        nodes = lobatto_nodes(d)
        for row, t in zip(lines, ts):
            coef = cheb.chebfit(nodes, row, d)
            old = chebfit_argmin(nodes, row)
            assert abs(cheb.chebval(t, coef) - cheb.chebval(old, coef)) <= 1e-12


def exact_value(kernel, N, u):
    """sigma(u) of a kernel whose breaks lie on the lattice 1/N, by the Taylor engine."""
    values = np.array(kernel.segment_values())
    marks = [round(b * N) for b in kernel.breaks]
    return _taylor_plan(marks, N, [u])(values.real if kernel.is_real else values)[0]


def per_call_search(B, m_steps, u_grid, h, restarts, seed, sweeps):
    """The search loop with one engine call or solve_sigma call per kernel,
    restart after restart.

    The reference for the lockstep search: same panels, starts, line searches
    and stop rule; returns (value, argmin, u, max_abs_sigma, evaluations).
    """
    rng = np.random.default_rng(seed)
    best_val, best_kernel, best_u = math.inf, None, None
    max_abs_seen, evaluations = 0.0, 0
    m1 = round(1.0 / h)
    for u_raw in u_grid:
        k = round(u_raw / h)
        # Edges 1 + (u - 1) j/m_steps = (m1 m_steps + (k - m1) j)/(m1 m_steps).
        D = m1 * m_steps
        g = math.gcd(D, k - m1)
        N = D // g
        marks = [(D + (k - m1) * j) // g for j in range(m_steps + 1)]
        u = k / m1
        target = B * u
        cells, T = _taylor_size(marks, N, target)
        exact = 2 * N * T <= m1 and cells * T <= MAX_BATCH_SAMPLES
        if not exact:  # edges rounded half up to the grid h
            N, marks = m1, [m1 + (2 * (k - m1) * j + m_steps) // (2 * m_steps)
                            for j in range(m_steps + 1)]
        edges = [mk / N for mk in marks]
        lobatto = [(np.cos(np.pi * np.arange(d + 1) / d), _dct1(d))
                   for d in (max(1, math.floor(target / a + ALIGN_TOL)) for a in edges[:-1])]

        def objective(levels):
            nonlocal max_abs_seen, evaluations
            kernel = StepFunction(tuple(edges), (1.0,) + tuple(levels), 0.0)
            if exact:
                val = float(exact_value(kernel, N, target))
            else:
                val = complex(solve_sigma(kernel, max(target, u), h).value_at(target)).real
            evaluations += 1
            max_abs_seen = max(max_abs_seen, abs(val))
            return val

        starts = [np.full(m_steps, -1.0)]
        while len(starts) < restarts:
            starts.append(rng.uniform(-1.0, 1.0, m_steps))
        for y0 in starts:
            y = np.array(y0, dtype=float)
            val = objective(y)
            for _ in range(sweeps):
                improved = False
                for j, (nodes, dct) in enumerate(lobatto):
                    def line(t, j=j):
                        trial = y.copy()
                        trial[j] = t
                        return objective(trial)
                    vals = np.array([line(t) for t in nodes])
                    t = _line_argmins(dct, vals[None])[0]
                    v = vals[nodes == t]
                    v = v[0] if v.size else line(t)
                    if v < val - 1e-12:
                        y[j] = t
                        val = float(v)
                        improved = True
                if not improved:
                    break
            if val < best_val:
                best_val = val
                best_kernel = StepFunction(tuple(edges), (1.0,) + tuple(y), 0.0)
                best_u = u
    return best_val, best_kernel, best_u, max_abs_seen, evaluations


class TestLockstepSearch:
    """The restarts' line searches run as batched engine calls, bit for bit as
    one engine call per kernel, restart after restart."""

    @pytest.mark.parametrize("B, u_grid, m_steps, restarts, sweeps, seed, h", [
        (1.0, (2.0,), 4, 2, 2, 0, 1e-3),
        (1.0, (1.5, 2.0, 3.0), 6, 3, 2, 0, 1e-3),
        (1.37, (2.0,), 1, 1, 1, 5, 2e-3),
        (1.37, (1.5, 2.5), 3, 5, 3, 11, 2e-3),
        (1.5, (2.0, 3.0), 6, 3, 2, 2 ** 31 - 1, 1e-3),
        (2.0, (1.5, 3.0), 2, 4, 4, 7, 2e-3),
        (2.0, (3.0,), 6, 8, 1, 123, 5e-3),
        (0.75, (2.0, 4.0), 5, 6, 3, 9, 5e-3),
        (3.0, (2.0,), 8, 2, 2, 4, 5e-3),
    ])
    def test_equals_per_call_search(self, B, u_grid, m_steps, restarts, sweeps, seed, h):
        r = truncated_kernel_min_mean(B, m_steps=m_steps, u_grid=u_grid, h=h,
                                      restarts=restarts, seed=seed, sweeps=sweeps)
        value, argmin, u, max_abs, evaluations = per_call_search(
            B, m_steps, u_grid, h, restarts, seed, sweeps)
        assert repr(r.value) == repr(value)
        assert repr(r.argmin) == repr(argmin)
        assert (r.diagnostics["u"], r.diagnostics["evaluations"]) == (u, evaluations)
        assert repr(r.diagnostics["max_abs_sigma"]) == repr(max_abs)

    def test_batches_hold_every_active_restart(self, monkeypatch):
        import meanspec.extremal_search as es
        sizes = []
        monkeypatch.setattr(es, "_taylor_plan", recording_plan(es._taylor_plan, sizes))
        r = truncated_kernel_min_mean(1.0, m_steps=6, u_grid=(2.0,), restarts=3,
                                      h=1e-3, seed=0, sweeps=2)
        assert sizes[0] == 3  # every start in one solve
        assert sizes[1] == 3 * 3  # d + 1 = 3 Lobatto rows for the panel at 1, per restart
        assert sum(sizes) == r.diagnostics["evaluations"]

    def test_one_plan_per_engine_panel(self, monkeypatch):
        # Each engine panel builds one plan for its marks, N and target B*u,
        # and every line-search row is read through it; the re-validation
        # builds a fourth, for the winner's panel at the two nodes around B*u.
        import meanspec.extremal_search as es
        sizes, plans = [], []
        monkeypatch.setattr(es, "_taylor_plan", recording_plan(es._taylor_plan, sizes, plans))
        r = truncated_kernel_min_mean(1.0, m_steps=4, u_grid=(1.5, 2.0, 3.0), restarts=3,
                                      h=1e-3, seed=2, sweeps=2)
        assert plans == [(list(range(8, 13)), 8, [1.5]), (list(range(4, 9)), 4, [2.0]),
                         (list(range(2, 7)), 2, [3.0]), (list(range(2, 7)), 2, [2.999, 3.0])]
        assert r.diagnostics["exact"]
        assert sum(sizes) == r.diagnostics["evaluations"]

    @pytest.mark.parametrize("chunk", [1, 3, 7])
    def test_chunks_change_no_bit(self, monkeypatch, chunk):
        # Rows past the batch budget march in chunks; values and evaluation
        # counts stay those of the unchunked search.
        import meanspec.extremal_search as es
        args = dict(m_steps=4, u_grid=(2.0,), restarts=3, h=1e-3, seed=5, sweeps=2)
        whole = truncated_kernel_min_mean(1.0, **args)
        cells, terms = _taylor_size([4, 5, 6, 7, 8], 4, 2.0)  # panels 1 + j/4, target 2
        monkeypatch.setattr(es, "MAX_BATCH_SAMPLES", (chunk * cells + cells // 2) * terms)
        sizes = []
        monkeypatch.setattr(es, "_taylor_plan", recording_plan(es._taylor_plan, sizes))
        got = truncated_kernel_min_mean(1.0, **args)
        assert max(sizes) == chunk and sizes[0] == min(chunk, 3)
        assert repr(got.value) == repr(whole.value)
        assert repr(got.argmin) == repr(whole.argmin)
        assert got.diagnostics == whole.diagnostics
        assert sum(sizes) == got.diagnostics["evaluations"]

    @pytest.mark.parametrize("kwargs, error", [
        ({"h": math.nan}, ValidationError), ({"h": math.inf}, ValidationError),
        ({"h": 0.0}, ValidationError), ({"h": -1e-3}, ValidationError),
        ({"B": 1e9}, BudgetError), ({"B": math.nan}, ValidationError),
        ({"restarts": MAX_RESTARTS + 1}, BudgetError), ({"restarts": 0}, ValidationError),
        ({"B": (MAX_LINE_DEGREE + 1) / 2.0}, BudgetError),
        ({"m_steps": 10 ** 10}, ValidationError), ({"m_steps": 0}, ValidationError),
        ({"u_grid": (1.0,)}, ValidationError), ({"B": 0.25}, ValidationError),
        ({"seed": -1}, ValidationError), ({"seed": 1.5}, ValidationError),
        ({"m_steps": 2.5}, ValidationError), ({"m_steps": "4"}, ValidationError),
        ({"restarts": 2.0}, ValidationError), ({"restarts": None}, ValidationError),
        ({"sweeps": 1.5}, ValidationError), ({"sweeps": None}, ValidationError),
        ({"sweeps": -1}, ValidationError), ({"u_grid": ()}, ValidationError),
    ])
    def test_inputs_rejected_before_any_batched_solve(self, kwargs, error, monkeypatch):
        import meanspec.extremal_search as es
        monkeypatch.setattr(es, "solve_sigma", None)  # any solve would raise TypeError
        monkeypatch.setattr(es, "_taylor_plan", None)
        monkeypatch.setattr(es, "_solve_rows", None)
        args = {"B": 1.0, "u_grid": (2.0,)} | kwargs
        with pytest.raises(error):
            truncated_kernel_min_mean(**args)

    def test_breach_in_a_batch_raises(self, monkeypatch):
        # A level far outside the disc, let through for one row of a batch,
        # drives that row's |sigma| past 1; the engine checks every row.
        import meanspec.extremal_search as es
        import meanspec.kernels as kernels
        build = es._taylor_plan

        def overshooting(marks, N, points):
            plan = build(marks, N, points)

            def rows(values):
                values = np.array(values)
                if values.ndim == 2 and len(values) > 2:
                    values[2, 1:-1] = 3.0
                return plan(values)
            return rows

        monkeypatch.setattr(kernels, "DISC_TOL", 10.0)
        monkeypatch.setattr(es, "_taylor_plan", overshooting)
        with pytest.raises(ContractError, match="exceeded 1"):
            truncated_kernel_min_mean(1.0, m_steps=4, u_grid=(2.0,), restarts=3,
                                      h=1e-3, seed=0, sweeps=1)


def recording(evaluate, sizes):
    """A Taylor plan or _solve_rows, recording the row count of each batched
    call (the search's line searches; the re-validation passes one kernel as
    a 1-d row)."""
    def call(*args, **kwargs):
        rows = [a for a in args if np.ndim(a) == 2]
        if rows:
            sizes.append(len(rows[0]))
        return evaluate(*args, **kwargs)
    return call


def recording_plan(build, sizes, plans=None):
    """_taylor_plan whose plans record the row count of each call, and, given
    a list plans, the (marks, N, points) of each plan built."""
    def plan(marks, N, points):
        if plans is not None:
            plans.append((list(marks), N, list(points)))
        return recording(build(marks, N, points), sizes)
    return plan
