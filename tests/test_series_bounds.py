import math
import threading
import warnings

import numpy as np
import pytest
import scipy.fft

from meanspec.acceptance import random_complex_kernel, random_real_kernel
from meanspec.dde_solver import solve_sigma
from meanspec import series_bounds
from meanspec.errors import BudgetError, ContractError, GridError, ValidationError
from meanspec.kernels import StepFunction, _grid_steps, rho_minus
from meanspec.series_bounds import (MAX_SERIES_ORDER, _partial_sums, _powers,
                                    complex_bounds, iterated_integral, sandwich,
                                    sigma_partial, tail_envelope)

CHI_MINUS = StepFunction((1.0,), (1.0,), -1.0)
CHI_REAL = StepFunction((1.0, 1.6, 2.35), (1.0, -0.8, 0.3), -0.5)
CHI_COMPLEX = StepFunction((1.0, 1.5, 2.8), (1.0, 0.3 + 0.6j, -0.5 - 0.4j), 0.2j)


def brute_force_double_integral(u: float, delta: float = 1e-3) -> float:
    """Midpoint Riemann sum of the 2-d iterated integral over t1+t2 <= u,
    with exact cell-overlap weights along the diagonal boundary."""
    m = int((u - 1.0) / delta)
    mid = 1.0 + (np.arange(m) + 0.5) * delta
    total = 0.0
    for i0 in range(0, m, 1024):
        blk = mid[i0:i0 + 1024]
        s = blk[:, None] + mid[None, :]
        r = (u - s) / delta
        frac = np.clip(np.where(r >= 0.0, 1.0 - 0.5 * np.maximum(1.0 - r, 0.0) ** 2,
                                0.5 * np.maximum(1.0 + r, 0.0) ** 2), 0.0, 1.0)
        total += np.sum(frac * (2.0 / blk[:, None]) * (2.0 / mid[None, :]))
    return total * delta * delta


def direct_powers(g, k: int, u_max: float, h: float) -> np.ndarray:
    """I_0..I_k for kappa = g(t)/t by the O(n^2) trapezoid double sum.

    g is read at panel midpoints; each panel [ph, (p+1)h) contributes the
    trapezoid of its two inside limits of kappa against F at the panel ends.
    """
    n = round(u_max / h) + 1
    gp = [g((p + 0.5) * h) for p in range(n - 1)]
    powers = [[1.0] * n]
    for _ in range(k):
        F = powers[-1]
        nxt = [0.0] * n
        for i in range(1, n):
            acc = 0.0
            for p in range(i):
                if p:
                    acc += gp[p] / (p * h) * F[i - p]
                acc += gp[p] / ((p + 1) * h) * F[i - p - 1]
            nxt[i] = 0.5 * h * acc
        powers.append(nxt)
    return np.array(powers)


def linear_convolution(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """First len(a) terms of the linear convolution a * b, by a 2n-point FFT."""
    size = 2 * len(a)
    out = np.fft.ifft(np.fft.fft(a, size) * np.fft.fft(b, size))[:len(a)]
    return out if np.iscomplexobj(a) or np.iscomplexobj(b) else out.real


def trapezoid_convolution(f: np.ndarray, g: np.ndarray, h: float) -> np.ndarray:
    """Composite trapezoid (f*g)(u) = int_0^u f(t) g(u-t) dt on a shared grid."""
    return h * (linear_convolution(f, g) - 0.5 * f[0] * g - 0.5 * g[0] * f)


def panel_convolution(left: np.ndarray, right: np.ndarray, F: np.ndarray,
                      h: float) -> np.ndarray:
    """Trapezoid rule for F -> int_0^{u_i} k(t) F(u_i - t) dt on len(F) nodes.

    left[j] and right[j] are the limits of the kernel k at the left and
    right end of panel [jh, (j+1)h), taken from inside the panel.
    """
    w = np.zeros(len(F), dtype=np.result_type(left, right))
    w[:-1] = left
    w[1:] += right
    conv = linear_convolution(F, w)
    conv[:-1] -= left * F[0]
    out = 0.5 * h * conv
    out[0] = 0
    return out


def full_window_powers(g: np.ndarray, k: int, h: float) -> np.ndarray:
    """I_0..I_k for kappa = g/t by full-window FFT convolutions on all n nodes.

    g holds the n - 1 panel values of the numerator; every power convolves
    the whole previous power with the whole folded kernel, with no use of
    the supports.
    """
    n = len(g) + 1
    t = h * np.arange(n - 1)
    left = np.zeros_like(g)
    left[1:] = g[1:] / t[1:]
    powers = [np.ones(n, dtype=g.dtype)]
    for _ in range(k):
        powers.append(panel_convolution(left, g / (t + h), powers[-1], h))
    return np.array(powers)


class TestIteratedIntegral:
    def test_order_zero_is_one(self, rng):
        k = random_real_kernel(rng, 1e-3, 3.0, 3)
        I0 = iterated_integral(k, 0, 4.0, 1e-3)
        assert np.all(I0.samples == 1.0)

    def test_first_order_closed_form(self):
        I1 = iterated_integral(CHI_MINUS, 1, 4.0, 1e-4)
        exact = 2.0 * np.log(np.maximum(I1.u, 1.0))
        assert np.max(np.abs(I1.samples - exact)) <= 1e-8

    def test_second_order_against_brute_force(self):
        oracle = brute_force_double_integral(3.0)
        I2 = iterated_integral(CHI_MINUS, 2, 3.0, 1e-4)
        assert abs(I2.value_at(3.0) - oracle) <= 1e-4

    def test_nonnegative_for_real_kernels(self, rng):
        for _ in range(5):
            k = random_real_kernel(rng, 1e-3, 4.0, 4)
            for j in (1, 2, 3):
                assert np.min(iterated_integral(k, j, 5.0, 1e-3).samples) >= -1e-12

    def test_negative_order_rejected(self):
        with pytest.raises(ValidationError):
            iterated_integral(CHI_MINUS, -1, 2.0, 1e-3)


class TestRecurrence:
    @staticmethod
    def _residual(chi, j_max, u_max, h):
        n = round(u_max / h) + 1
        ones = np.ones(n)
        g = 1.0 - chi.panel_values(n - 1, h)
        cur = np.ones(n)
        worst = 0.0
        for j in range(1, j_max + 1):
            prev = cur
            cur = iterated_integral(chi, j, u_max, h).samples
            lhs = (h * np.arange(n)) * cur
            rhs = (trapezoid_convolution(ones, cur, h)
                   + j * panel_convolution(g, g, prev, h))
            worst = max(worst, float(np.max(
                np.abs(lhs - rhs) / np.maximum(h * np.arange(n), 1.0))))
        return worst

    def test_full_jump_kernel(self):
        assert self._residual(CHI_MINUS, 4, 4.0, 1e-4) <= 1e-8

    def test_random_kernels(self, rng):
        for _ in range(3):
            k = random_real_kernel(rng, 1e-4, 3.5, 3)
            assert self._residual(k, 6, 4.0, 1e-4) <= 1e-8


class TestEngine:
    H, U = 0.05, 4.0

    @pytest.mark.parametrize("chi", [CHI_REAL, CHI_COMPLEX], ids=["real", "complex"])
    def test_powers_match_direct_sum(self, chi):
        ref = direct_powers(lambda t: 1.0 - chi(t), 5, self.U, self.H)
        for j in range(6):
            got = iterated_integral(chi, j, self.U, self.H).samples
            assert np.max(np.abs(got - ref[j])) <= 1e-12

    @pytest.mark.parametrize("transform", [lambda z: 1.0 - z.real, lambda z: abs(z.imag)],
                             ids=["one_minus_re", "abs_im"])
    def test_complex_moment_kernels_match_direct_sum(self, transform):
        n = round(self.U / self.H) + 1
        got = _powers(transform(CHI_COMPLEX.panel_values(n - 1, self.H)), self.H, 5)
        ref = direct_powers(lambda t: transform(CHI_COMPLEX(t)), 5, self.U, self.H)
        assert np.max(np.abs(np.array(list(got)) - ref)) <= 1e-12

    def test_skipped_powers_are_exact_zeros(self):
        # kappa starts at panel p0 = 1000 and n - 1 = 3000, so I_3 is skipped.
        assert iterated_integral(CHI_MINUS, 2, 3.0, 1e-3).value_at(3.0) > 0.0
        assert np.all(iterated_integral(CHI_MINUS, 3, 3.0, 1e-3).samples == 0.0)
        for j in (1, 2, 3):
            assert np.all(iterated_integral(StepFunction(), j, 4.0, 1e-3).samples == 0.0)

    @pytest.mark.parametrize("chi, u_max", [
        (StepFunction((1.5,), (1.0,), -1.0), 4.0),
        (StepFunction(), 4.0),
        (CHI_REAL, 1.9),
        (CHI_COMPLEX, 1.9),
    ], ids=["p0_not_inverse_h", "all_ones", "m_le_0_real", "m_le_0_complex"])
    def test_support_cases_match_direct_sum(self, chi, u_max):
        # p0 = 1.5/h; p0 = n - 1 (every power past I_0 is zero); and
        # j*p0 >= n - 1 for every j >= 2 (only I_1 is nonzero).
        ref = direct_powers(lambda t: 1.0 - chi(t), 4, u_max, self.H)
        for j in range(5):
            got = iterated_integral(chi, j, u_max, self.H).samples
            assert np.max(np.abs(got - ref[j])) <= 1e-12

    @pytest.mark.parametrize("chi", [
        CHI_MINUS, StepFunction((1.5,), (1.0,), -1.0), CHI_REAL, CHI_COMPLEX,
        StepFunction((1.0, 2.2), (1.0, 0.5 - 0.5j), -0.3 + 0.9j),
    ])
    def test_powers_match_full_window_fft(self, chi):
        h, n = 1e-3, 8001
        g = 1.0 - chi.panel_values(n - 1, h)
        if chi.is_real:
            g = g.real
        got = np.array(list(_powers(g, h, 12)))
        ref = full_window_powers(g, 12, h)
        # I_1's running sum rounds sequentially: about 1e-14 of the largest power.
        assert np.max(np.abs(got - ref)) <= 1e-14 * np.max(np.abs(ref))

    @pytest.mark.parametrize("chi, p0", [
        (CHI_MINUS, 1000), (StepFunction((1.5,), (1.0,), -1.0), 1500),
        (CHI_COMPLEX, 1000),
    ])
    def test_powers_are_exact_zeros_below_support(self, chi, p0):
        for j in range(1, 8):
            samples = iterated_integral(chi, j, 8.0, 1e-3).samples
            assert np.all(samples[:j * p0 + 1] == 0.0)
            if j * p0 < 8000:
                assert samples[j * p0 + 1:].any()

    @pytest.mark.parametrize("chi, u_max, nonzero", [
        (CHI_MINUS, 1.5, 1), (CHI_MINUS, 2.5, 2), (CHI_REAL, 3.5, 3),
        (StepFunction((1.5,), (1.0,), -1.0), 7.0, 4), (CHI_MINUS, 5.5, 5),
        (CHI_COMPLEX, 2.5, 2), (StepFunction(), 4.0, 0),
    ])
    def test_zero_powers_are_one_shared_read_only_array(self, chi, u_max, nonzero):
        h = 1e-3
        g = 1.0 - chi.panel_values(_grid_steps(u_max, h), h)
        powers = list(_powers(g.real if chi.is_real else g, h, 12))
        assert all(p.flags.writeable and p.any() for p in powers[:nonzero + 1])
        zero = powers[nonzero + 1]
        assert not zero.flags.writeable
        assert all(p is zero for p in powers[nonzero + 1:])
        assert not np.signbit(zero.view(np.float64)).any() and not zero.any()

    @pytest.mark.parametrize("chi, u_max", [
        (CHI_MINUS, 1.5), (CHI_MINUS, 2.5), (CHI_REAL, 3.5),
        (StepFunction((1.5,), (1.0,), -1.0), 7.0), (CHI_MINUS, 5.5),
        (CHI_COMPLEX, 2.5), (CHI_COMPLEX, 5.5), (StepFunction(), 4.0),
    ])
    def test_partial_sums_match_adding_every_power(self, chi, u_max):
        # The reference adds the exact-zero powers too, as every order did
        # before those were skipped.
        h = 1e-3
        g = 1.0 - chi.panel_values(_grid_steps(u_max, h), h)
        if chi.is_real:
            g = g.real
        ref = []
        for j, power in enumerate(_powers(g, h, 12)):
            ref.append(power if j == 0 else
                       ref[-1] + ((-1) ** j / math.factorial(j)) * power)
        got = list(_partial_sums(g, h, 12))
        assert len(got) == len(ref) == 13
        for a, b in zip(got, ref):
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("chi, p0", [
        (StepFunction((1.0, 3.2), (1.0, -0.4), 0.7), 1000),
        (StepFunction((1.5,), (1.0,), -1.0), 1500),
    ])
    def test_sandwich_fft_calls(self, monkeypatch, chi, p0):
        # I_1 is a running sum; each I_j with j >= 2 and m = n - 1 - j*p0 > 0
        # nodes to fill takes two forward transforms and one inverse, all of
        # length next_fast_len(2m - 1).
        calls = []

        def counting(fn):
            def wrapper(x, n=None, *args, **kwargs):
                calls.append((fn.__name__, n))
                return fn(x, n, *args, **kwargs)
            return wrapper

        for name in ("rfft", "irfft", "fft", "ifft"):
            monkeypatch.setattr(scipy.fft, name, counting(getattr(scipy.fft, name)))
        sandwich(chi, 12, 8.0, 1e-3)
        sizes = [scipy.fft.next_fast_len(2 * (8000 - j * p0) - 1, True)
                 for j in range(2, 13) if j * p0 < 8000]
        assert calls == [(name, size) for size in sizes for name in ("rfft", "rfft", "irfft")]


class TestSigmaPartial:
    def test_order_zero(self):
        s0 = sigma_partial(CHI_MINUS, 0, 3.0, 1e-3)
        assert np.all(s0.samples == 1.0)

    def test_order_one_closed_form(self):
        s1 = sigma_partial(CHI_MINUS, 1, 3.0, 1e-3)
        exact = 1.0 - 2.0 * np.log(np.maximum(s1.u, 1.0))
        assert np.max(np.abs(s1.samples - exact)) <= 1e-6

    def test_order_ten_within_tail_of_solver(self):
        s10 = sigma_partial(CHI_MINUS, 10, 4.0, 1e-3)
        sol = solve_sigma(CHI_MINUS, 4.0, 1e-3)
        tail = tail_envelope(10, 4.0, 1e-3)
        gap = np.abs(s10.samples - sol.sigma.samples) - tail.samples
        assert np.max(gap) <= 1e-6


def full_grid_tail(k_max: int, u_max: float, h: float) -> np.ndarray:
    """The tail envelope with its Horner loop over every node, x = 0 included."""
    n = _grid_steps(u_max, h) + 1
    x = 2.0 * np.log(np.maximum(h * np.arange(n), 1.0))
    term, j_last = 1.0, 0
    while j_last <= k_max or (term >= 1e-18 and j_last <= 500):
        j_last += 1
        term = term * x[-1] / j_last
    out = np.ones(n)
    for j in range(j_last, k_max + 1, -1):
        out *= x
        out /= j
        out += 1.0
    out *= x ** (k_max + 1) / math.factorial(k_max + 1)
    return out


class TestTailEnvelope:
    def test_nonnegative_nondecreasing(self):
        t = tail_envelope(6, 8.0, 1e-3)
        assert np.min(t.samples) >= 0.0
        assert np.min(np.diff(t.samples)) >= -1e-15

    @pytest.mark.parametrize("k_max, u_max, h", [
        (2, 8.0, 1e-4), (12, 8.0, 1e-4), (6, 4.0, 1e-3), (1, 1.0005, 1e-4), (3, 1.0, 1e-3),
    ])
    def test_matches_full_grid_loop(self, k_max, u_max, h):
        # The loop starts at the first node with u > 1; the nodes before it
        # keep the exact (positive) zeros the full loop gives them.
        got = tail_envelope(k_max, u_max, h).samples
        assert got.tobytes() == full_grid_tail(k_max, u_max, h).tobytes()


class TestSandwich:
    def test_constant_kernel_collapses(self):
        rep = sandwich(StepFunction(), 6, 4.0, 1e-3)
        assert np.all(rep.lower.samples == 1.0)
        assert np.all(rep.upper.samples == 1.0)

    def test_two_sided_at_u_two(self):
        # At u = 2 all moments above the first vanish, so both envelope
        # sides meet the closed form 1 - 2 log 2 to quadrature accuracy.
        rep = sandwich(CHI_MINUS, 3, 2.0, 1e-4)
        v = 1.0 - 2.0 * math.log(2.0)
        assert rep.lower.value_at(2.0) <= v + 1e-6
        assert rep.upper.value_at(2.0) >= v - 1e-6
        assert abs(rho_minus(2.0, 1e-4) - v) <= 1e-8

    def test_strict_gap_past_two(self):
        # lower = sigma_1, upper = sigma_2; their gap I_2/2 is genuinely
        # positive once u > 2.
        rep = sandwich(CHI_MINUS, 2, 3.0, 1e-3)
        assert rep.upper.value_at(2.5) - rep.lower.value_at(2.5) > 1e-3

    def test_random_kernels_hold(self, rng):
        for _ in range(10):
            k = random_real_kernel(rng, 1e-3, 7.5, int(rng.integers(2, 8)))
            sandwich(k, 12, 8.0, 1e-3)

    def test_complex_kernel_rejected(self):
        with pytest.raises(ValidationError):
            sandwich(StepFunction((1.0,), (1.0,), 1j), 4, 3.0, 1e-3)

    @pytest.mark.parametrize("u_max, h", [(math.nan, 1e-3), (math.inf, 1e-3),
                                          (4.0, math.nan), (4.0, math.inf)])
    def test_non_finite_grid_rejected(self, u_max, h):
        with pytest.raises(ValidationError):
            sandwich(CHI_MINUS, 4, u_max, h)

    def test_node_budget(self):
        with pytest.raises(BudgetError):
            sandwich(CHI_MINUS, 4, 1e9, 1e-3)
        with pytest.raises(BudgetError):
            iterated_integral(CHI_MINUS, 2, 1e5, 1e-3)

    def test_order_budget(self):
        k = MAX_SERIES_ORDER + 1
        for call in (lambda: sandwich(CHI_MINUS, k, 4.0, 1e-3),
                     lambda: iterated_integral(CHI_MINUS, k, 4.0, 1e-3),
                     lambda: sigma_partial(CHI_MINUS, k, 4.0, 1e-3),
                     lambda: tail_envelope(k, 4.0, 1e-3)):
            with pytest.raises(BudgetError):
                call()

    @pytest.mark.parametrize("call", [
        lambda: tail_envelope(-1, 4.0, 1e-3),
        lambda: tail_envelope(2.0, 4.0, 1e-3),
        lambda: sandwich(CHI_MINUS, 2.5, 4.0, 1e-3),
        lambda: sandwich(CHI_MINUS, -2, 4.0, 1e-3),
        lambda: iterated_integral(CHI_MINUS, 1.5, 4.0, 1e-3),
        lambda: sigma_partial(CHI_MINUS, -1, 4.0, 1e-3),
    ], ids=["tail_negative", "tail_float", "sandwich_fraction", "sandwich_negative",
            "integral_fraction", "partial_negative"])
    def test_order_must_be_nonnegative_integer(self, call):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match="must be a nonnegative integer"):
                call()

    @pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
    def test_non_finite_slack_rejected(self, slack):
        # worst > nan is False, so a NaN slack would switch the check off.
        with pytest.raises(ValidationError, match="slack must be finite"):
            sandwich(CHI_MINUS, 3, 4.0, 1e-3, slack=slack)
        with pytest.raises(ValidationError, match="slack must be finite"):
            complex_bounds(CHI_COMPLEX, 4.0, 1e-3, slack=slack)

    def test_orders_past_u_max_add_exact_zeros(self):
        a = sandwich(CHI_REAL, 5, 4.0, 1e-3)
        b = sandwich(CHI_REAL, MAX_SERIES_ORDER - 1, 4.0, 1e-3)
        assert np.array_equal(a.lower.samples, b.lower.samples)
        assert np.array_equal(a.upper.samples, b.upper.samples)
        assert np.array_equal(sigma_partial(CHI_REAL, 4, 4.0, 1e-3).samples,
                              sigma_partial(CHI_REAL, MAX_SERIES_ORDER, 4.0, 1e-3).samples)


class TestComplexBounds:
    def test_real_kernel_collapses(self):
        rep = complex_bounds(CHI_MINUS, 4.0, 1e-3)
        assert np.all(rep.c_series[0].samples == 0.0)
        assert np.all(rep.c_series[1].samples == 0.0)

    def test_imaginary_kernel_first_moment(self):
        rep = complex_bounds(StepFunction((1.0,), (1.0,), 1j), 2.0, 1e-4)
        C1 = rep.c_series[0]
        exact = np.log(np.maximum(C1.u, 1.0))
        assert np.max(np.abs(C1.samples - exact)) <= 1e-8

    def test_random_kernels_hold(self, rng):
        for _ in range(10):
            k = random_complex_kernel(rng, 1e-3, 7.5, int(rng.integers(2, 8)))
            complex_bounds(k, 8.0, 1e-3)

    def test_moment_inequalities(self, rng):
        for _ in range(5):
            k = random_complex_kernel(rng, 1e-3, 4.0, 4)
            rep = complex_bounds(k, 6.0, 1e-3)
            R1, R2 = (g.samples for g in rep.r_series)
            C1, C2 = (g.samples for g in rep.c_series)
            assert np.min(np.diff(R1)) >= -1e-12
            assert np.max(R2 - R1 ** 2) <= 1e-9
            assert np.max(C2 - C1 ** 2) <= 1e-9

    def test_violation_is_reported(self):
        # A negative slack cannot be met (the checks are tight at u <= 1),
        # which exercises the contract-failure path deterministically.
        k = StepFunction((1.0,), (1.0,), 0.5 + 0.5j)
        with pytest.raises(ContractError):
            complex_bounds(k, 6.0, 1e-2, slack=-1.0)


class TestNaNFailsTheEnvelopes:
    """A NaN in the convolution powers fails the envelope checks, before
    GridFunction sees the samples."""

    @staticmethod
    def poison_powers(monkeypatch):
        powers = series_bounds._powers

        def poisoned(g, h, k):
            for j, power in enumerate(powers(g, h, k)):
                if j:
                    power = power.copy()
                    power[-1] = np.nan
                yield power

        monkeypatch.setattr(series_bounds, "_powers", poisoned)

    def test_sandwich(self, monkeypatch):
        self.poison_powers(monkeypatch)
        with pytest.raises(ContractError, match="envelope violated by nan"):
            sandwich(CHI_REAL, 4, 4.0, 1e-2)

    def test_sandwich_upper_side_only(self, monkeypatch):
        # Only the even order k_up = 2 sees the NaN; lower - s stays finite.
        powers = series_bounds._powers

        def poisoned(g, h, k):
            for j, power in enumerate(powers(g, h, k)):
                if j == 2:
                    power = power.copy()
                    power[-1] = np.nan
                yield power

        monkeypatch.setattr(series_bounds, "_powers", poisoned)
        with pytest.raises(ContractError, match="envelope violated by nan"):
            sandwich(CHI_REAL, 2, 4.0, 1e-2)

    def test_complex_bounds(self, monkeypatch):
        self.poison_powers(monkeypatch)
        with pytest.raises(ContractError, match="by nan"):
            complex_bounds(CHI_COMPLEX, 4.0, 1e-2)


def serial_sandwich(chi: StepFunction, k_max: int, u_max: float, h: float):
    """(lower, upper, tail) of sandwich, one stage after the other on this thread."""
    n = _grid_steps(u_max, h) + 1
    sums = list(_partial_sums(1.0 - chi.panel_values(n - 1, h), h, k_max))
    solve_sigma(chi, u_max, h)
    k_lo, k_up = 2 * ((k_max - 1) // 2) + 1, 2 * (k_max // 2)
    return sums[k_lo], sums[k_up], tail_envelope(k_max, u_max, h).samples


def serial_complex_bounds(chi: StepFunction, u_max: float, h: float):
    """(lower, upper, tail, R1, R2, C1, C2) of complex_bounds, serially."""
    n = _grid_steps(u_max, h) + 1
    c = chi.panel_values(n - 1, h)
    _, R1, R2 = _powers(1.0 - c.real, h, 2)
    _, C1, C2 = _powers(np.abs(c.imag), h, 2)
    solve_sigma(chi, u_max, h)
    tail = tail_envelope(2, u_max, h).samples
    return 1.0 - R1 - 0.5 * C2, 1.0 - R1 + 0.5 * (R2 + C2), tail, R1, R2, C1, C2


def _kernels(complex_values: bool, h: float):
    rng = np.random.default_rng(7)
    draw = random_complex_kernel if complex_values else random_real_kernel
    late = StepFunction((1.5,), (1.0,), 0.5j if complex_values else -1.0)
    first = CHI_COMPLEX if complex_values else CHI_MINUS
    return [first, late] + [draw(rng, h, 7.5, n) for n in (2, 5)]


class TestTwoLanes:
    """The powers run on one worker thread while the caller solves; the
    reports equal a serial assembly bit for bit, and no thread outlives a call."""

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_sandwich_equals_serial_stages(self, h):
        for chi in _kernels(False, h):
            rep = sandwich(chi, 12, 8.0, h)
            lower, upper, tail = serial_sandwich(chi, 12, 8.0, h)
            assert rep.k_max == 12 and rep.r_series == () and rep.c_series == ()
            assert np.array_equal(rep.lower.samples, lower)
            assert np.array_equal(rep.upper.samples, upper)
            assert np.array_equal(rep.tail_bound.samples, tail)

    @pytest.mark.parametrize("h", [1e-3, 1e-4])
    def test_complex_bounds_equals_serial_stages(self, h):
        for chi in _kernels(True, h):
            rep = complex_bounds(chi, 8.0, h)
            lower, upper, tail, R1, R2, C1, C2 = serial_complex_bounds(chi, 8.0, h)
            assert rep.k_max == 2
            assert np.array_equal(rep.lower.samples, lower)
            assert np.array_equal(rep.upper.samples, upper)
            assert np.array_equal(rep.tail_bound.samples, tail)
            for got, want in zip(rep.r_series + rep.c_series, (R1, R2, C1, C2)):
                assert np.array_equal(got.samples, want)

    @pytest.mark.parametrize("call", [
        lambda: sandwich(CHI_REAL, 12, 8.0, 1e-3),
        lambda: complex_bounds(CHI_COMPLEX, 8.0, 1e-3),
    ], ids=["sandwich", "complex_bounds"])
    def test_solver_error_propagates_and_joins_the_worker(self, monkeypatch, call):
        workers = set()
        powers = series_bounds._powers

        def spy_powers(*args):
            workers.add(threading.current_thread())
            yield from powers(*args)

        def failing_solve(*args, **kwargs):
            raise ContractError("solver self-consistency residual exceeded by 1.000e+00")

        monkeypatch.setattr(series_bounds, "_powers", spy_powers)
        monkeypatch.setattr(series_bounds, "solve_sigma", failing_solve)
        before = threading.active_count()
        with pytest.raises(ContractError, match="residual exceeded by 1.000e"):
            call()
        assert threading.active_count() == before
        assert workers and not any(t.is_alive() for t in workers)

    @pytest.mark.parametrize("call, error, message", [
        (lambda: sandwich(StepFunction((1.0, 1.0005), (1.0, 0.5), -1.0), 4, 4.0, 1e-3),
         GridError, "breakpoint 1.0005 is not a multiple of the grid step 0.001"),
        (lambda: complex_bounds(StepFunction((1.0, 1.0005), (1.0, 0.5j), -1.0), 4.0, 1e-3),
         GridError, "breakpoint 1.0005 is not a multiple of the grid step 0.001"),
        (lambda: sandwich(CHI_MINUS, 4, 0.5, 1e-3),
         ValidationError, "u_max must be at least 1"),
        (lambda: complex_bounds(CHI_COMPLEX, 0.5, 1e-3),
         ValidationError, "u_max must be at least 1"),
        (lambda: sandwich(CHI_MINUS, 4, 2000.0, 1e-4),
         BudgetError, "u_max/h = 2e+07 exceeds the budget 10000000"),
        (lambda: complex_bounds(CHI_COMPLEX, 2000.0, 1e-4),
         BudgetError, "u_max/h = 2e+07 exceeds the budget 10000000"),
    ], ids=["misaligned_real", "misaligned_complex", "u_max_real", "u_max_complex",
            "budget_real", "budget_complex"])
    def test_input_errors_leave_no_worker(self, call, error, message):
        before = threading.active_count()
        with pytest.raises(error) as info:
            call()
        assert str(info.value) == message
        assert threading.active_count() == before

    @pytest.mark.parametrize("call", [
        lambda: sandwich(CHI_REAL, 12, 8.0, 1e-3),
        lambda: complex_bounds(CHI_COMPLEX, 8.0, 1e-3),
    ], ids=["sandwich", "complex_bounds"])
    def test_solver_and_tail_run_on_the_calling_thread(self, monkeypatch, call):
        seen = {}

        def spy(name, fn):
            def wrapper(*args, **kwargs):
                seen.setdefault(name, set()).add(threading.get_ident())
                return fn(*args, **kwargs)
            return wrapper

        for name in ("solve_sigma", "tail_envelope", "_powers"):
            monkeypatch.setattr(series_bounds, name, spy(name, getattr(series_bounds, name)))
        call()
        here = threading.get_ident()
        assert seen["solve_sigma"] == {here}
        assert seen["tail_envelope"] == {here}
        assert here not in seen["_powers"]
