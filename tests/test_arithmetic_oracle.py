import itertools
import json
import math
import threading
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from meanspec import arithmetic_oracle
from meanspec.arithmetic_oracle import (MAX_SIEVE_X, MultiplicativeSpec, SieveResult,
                                        discriminant_char_average,
                                        kronecker, log_mean_vs_integral,
                                        mean_vs_sigma, mth_root_log_density,
                                        naive_sums, primes_upto, sieve_sums,
                                        subset_sum_counts)
from meanspec.errors import BudgetError, ValidationError
from meanspec.kernels import SQRT_E, StepFunction

CHI_MINUS = StepFunction((1.0,), (1.0,), -1.0)
LIOUVILLE = MultiplicativeSpec.from_table({}, -1.0)
ONES = MultiplicativeSpec.from_table({}, 1.0)
W3 = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))


def event_segments(x):
    """Reference segment loop: one index array per prime-power event, in
    division order, with rem divided through each array."""
    base = primes_upto(math.isqrt(x))
    seg = arithmetic_oracle._segment_length()
    for lo in range(1, x + 1, seg):
        hi = min(x, lo + seg - 1)
        n = np.arange(lo, hi + 1, dtype=np.int64)
        rem = n.copy()
        events = []
        for bi, p in enumerate(base):
            start = ((lo + p - 1) // p) * p
            if start > hi:
                continue
            cur = np.arange(start - lo, hi - lo + 1, p)
            while cur.size:
                rem[cur] //= p
                events.append((cur, bi))
                cur = cur[rem[cur] % p == 0]
        yield n, rem, events


def event_list_sieve_sums(spec, x, extra_weights=(), dtype=None):
    """Reference sieve_sums that replays the event list through fancy indices,
    accumulating in dtype (by default float64 when every palette value is
    real, which the sieve's int8 accumulation of -1, 0, 1 must match)."""
    dtype = dtype or (np.complex128 if spec.palette.imag.any() else np.float64)

    def values(ps):
        fp = spec.values_at_primes(ps)
        return fp.real if dtype is np.float64 else fp

    partial = logsum = 0.0 + 0.0j
    extras = {float(s): 0.0 + 0.0j for s in extra_weights}
    theta = 1.0 + 0.0j
    deficit = 0.0
    base = primes_upto(math.isqrt(x))
    fp_base = values(base)
    if len(base):
        ps = base.astype(np.float64)
        theta *= arithmetic_oracle._theta_factor_product(ps, fp_base)
        deficit += float(np.sum(np.abs(1.0 - fp_base) / ps))
    for n, rem, events in event_segments(x):
        acc = np.ones(len(n), dtype=dtype)
        for positions, bi in events:
            acc[positions] *= fp_base[bi]
        big = rem > 1
        if np.any(big):
            rem_big = rem[big]
            fp_big = values(rem_big)
            acc[big] *= fp_big
            prime_mask = rem_big == n[big]
            ps = rem_big[prime_mask].astype(np.float64)
            if len(ps):
                fps = fp_big[prime_mask]
                theta *= arithmetic_oracle._theta_factor_product(ps, fps)
                deficit += float(np.sum(np.abs(1.0 - fps) / ps))
        partial += complex(np.sum(acc))
        nf = n.astype(np.float64)
        logsum += complex(np.sum(acc / nf))
        for s in extras:
            extras[s] += complex(np.sum(acc / nf ** s))
    return SieveResult(x, partial, logsum, theta, deficit, extras)


def event_list_density(spec, x, m):
    """Reference mth_root_log_density that replays the event list."""
    total = 0.0
    base_exps = arithmetic_oracle._root_exponents(
        spec.values_at_primes(primes_upto(math.isqrt(x))), m)
    for n, rem, events in event_segments(x):
        expo = np.zeros(len(n), dtype=np.int64)
        for positions, bi in events:
            expo[positions] += base_exps[bi]
        big = rem > 1
        if np.any(big):
            expo[big] += arithmetic_oracle._root_exponents(
                spec.values_at_primes(rem[big]), m)
        good = (expo % m) == 0
        total += float(np.sum(1.0 / n[good].astype(np.float64)))
    return total / math.log(x)


def log_formula_index(spec, ps):
    """Reference segment of chi for each p of a step spec: the lookup of
    log p / log y against the breaks that the integer edges replaced."""
    t = np.log(np.asarray(ps, dtype=np.float64)) / math.log(spec.y)
    return np.searchsorted(np.asarray(spec.chi.breaks, dtype=np.float64), t, side="right")


def dict_values_at_primes(spec, ps):
    """Reference f(p): the per-prime dict lookup (table) and the break-free
    special case (step) that the palette index replaced."""
    if spec.mode == "step":
        segs = np.asarray(spec.chi.segment_values(), dtype=np.complex128)
        if not spec.chi.breaks:
            return np.full(len(ps), segs[0])
        return segs[log_formula_index(spec, ps)]
    return np.array([spec.table.get(int(p), spec.default) for p in ps],
                    dtype=np.complex128)


def sieve_fields(r):
    """Every SieveResult field as text; float repr round-trips, so equal
    text means bitwise-equal values."""
    return repr((r.x, r.partial_sum, r.log_sum, r.theta, r.prime_deficit,
                 sorted(r.extra_weight_sums.items())))


SIEVE_SPECS = [
    MultiplicativeSpec.step(CHI_MINUS, 7.0),
    MultiplicativeSpec.step(StepFunction((1.0, 1.5), (1.0, 0.6 + 0.8j), -0.5j), 5.0),
    MultiplicativeSpec.from_table({2: -1.0, 3: 0.0, 5: 0.5}, -1.0),
    MultiplicativeSpec.from_table({2: 1j, 3: -1.0}, 0.6 + 0.8j),
]
DENSITY_SPECS = [
    (LIOUVILLE, 2),
    (MultiplicativeSpec.step(CHI_MINUS, 7.0), 2),
    (MultiplicativeSpec.step(StepFunction((1.0,), (1.0,), W3), 5.0), 3),
    (MultiplicativeSpec.from_table({2: W3, 3: W3 * W3, 7: 1.0}, W3), 3),
]


def assert_matches_event_list(xs):
    for x in xs:
        for spec in SIEVE_SPECS:
            assert (sieve_fields(sieve_sums(spec, x, extra_weights=(0.5,)))
                    == sieve_fields(event_list_sieve_sums(spec, x, (0.5,))))
        if x >= 2:
            for spec, m in DENSITY_SPECS:
                assert (repr(mth_root_log_density(spec, x, m))
                        == repr(event_list_density(spec, x, m)))


class TestSegmentLoop:
    """The strided segment loop against the event-list reference, bitwise."""

    def test_no_or_one_base_prime(self):
        # x = 1, 2, 3 have no prime <= sqrt(x); at x = 4 only 2 sieves.
        assert_matches_event_list([1, 2, 3, 4, 5, 97])

    def test_single_segment(self):
        assert_matches_event_list([3001, 10 ** 4])

    def test_budget_segments(self, monkeypatch):
        monkeypatch.setenv("SPECTRUM_BUDGET_MB", "1")
        seg = arithmetic_oracle._segment_length()
        assert seg < arithmetic_oracle.DEFAULT_SEGMENT
        assert_matches_event_list([seg + 1, 2 * seg + 1, 3 * seg + 1])

    @pytest.mark.parametrize("seg", [8, 26, 120, 121, 124, 125])
    def test_prime_powers_on_segment_edges(self, monkeypatch, seg):
        # 9 = 3^2 and 27 = 3^3 open the segment after 8 and 26, every p^2 with
        # p >= 7 opens a segment of 120 (p^2 = 1 mod 120), 125 = 5^3 opens
        # one after 124, and 121 = 11^2 and 125 close the first of 121 and 125.
        monkeypatch.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
        assert_matches_event_list([1331])

    @pytest.mark.parametrize("budget_mb", [1, 4])
    def test_traced_peak_within_budget(self, monkeypatch, budget_mb):
        # A complex spec with an extra weight is the costliest per integer;
        # the step spec and the 0/-1 table accumulate in int8.
        monkeypatch.setenv("SPECTRUM_BUDGET_MB", str(budget_mb))
        x = 10 ** 6
        calls = [lambda: sieve_sums(MultiplicativeSpec.step(CHI_MINUS, x ** 0.25), x,
                                    extra_weights=(0.5,)),
                 lambda: sieve_sums(MultiplicativeSpec.from_table({2: 0.0, 3: -1.0}, -1.0), x),
                 lambda: sieve_sums(MultiplicativeSpec.from_table({2: 1j, 3: -1.0}), x,
                                    extra_weights=(0.5,)),
                 lambda: mth_root_log_density(LIOUVILLE, x, 2)]
        for call in calls:
            tracemalloc.start()
            try:
                call()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 0.9 * (budget_mb << 20)


class TestPalette:
    # Primes below, between and above every table's keys, up to near MAX_SIEVE_X.
    PRIMES = np.concatenate([primes_upto(2000), [9999991, 99999989]])

    @pytest.mark.parametrize("spec", [
        LIOUVILLE,
        MultiplicativeSpec.from_table({101: 1j}, 0.6 + 0.8j),
        MultiplicativeSpec.from_table({2: -1.0, 3: 0.0, 5: 0.5, 997: 1j}, -1.0),
        MultiplicativeSpec.step(StepFunction(), 10.0),
        *SIEVE_SPECS,
    ])
    def test_values_match_per_prime_lookup(self, spec):
        for ps in (self.PRIMES, self.PRIMES.astype(np.int32), self.PRIMES[:0]):
            got = spec.values_at_primes(ps)
            ref = dict_values_at_primes(spec, ps)
            assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("key", [4, 1, 0, -3, 2.7, "2", None, math.nan, math.inf,
                                     10 ** 8 + 7])
    def test_table_keys_must_be_primes(self, key):
        with pytest.raises(ValidationError):
            MultiplicativeSpec.from_table({key: -1.0, 3: 0.0})
        with pytest.raises(ValidationError):
            MultiplicativeSpec.from_json(
                '{"table": [[%s, -1, 0], [3, 0, 0]]}' % json.dumps(key))

    def test_composite_and_truncated_keys_rejected(self):
        # Once stored as {4: -1, 2: 0}: f(2) = 0 and a sum of 500 at x = 1000.
        with pytest.raises(ValidationError):
            MultiplicativeSpec.from_table({4: -1.0, 2.7: 0.0}, 1.0)
        assert MultiplicativeSpec.from_table({2.0: -1.0, np.int64(3): 0.0}).table == {
            2: -1.0, 3: 0.0}


class TestIntegerEdges:
    """Step breaks become integer edges that place every integer as the log
    formula does; slot 0 holds f(1) = 1 in both modes."""

    @staticmethod
    def assert_matches_log_formula(spec, ns):
        ns = ns[(ns >= 2) & (ns <= MAX_SIEVE_X)]
        for dtype in (np.int32, np.int64):
            got = spec.palette_index(ns.astype(dtype))
            assert np.array_equal(got, log_formula_index(spec, ns) + 1)

    def test_every_integer_near_an_edge(self):
        rng = np.random.default_rng(7)
        for _ in range(300):
            y = float(np.exp(rng.uniform(math.log(1.5), math.log(1e4))))
            if rng.integers(2):
                y = float(round(y))
            k = int(rng.integers(1, 7))
            # About half the breaks sit at log(p) / log(y) for an integer p, where
            # only the float test decides p's side.
            at_integer = np.log(rng.integers(math.ceil(y), 10 ** 9, k).astype(float)) / math.log(y)
            breaks = np.where(rng.integers(0, 2, k) == 1, at_integer, rng.uniform(1.0, 5.0, k))
            breaks = tuple(np.unique(breaks).tolist())
            k = len(breaks)
            values = (1.0,) + tuple(float((-1) ** j) for j in range(1, k))
            spec = MultiplicativeSpec.step(StepFunction(breaks, values, 0.0), y)
            self.assert_matches_log_formula(
                spec, (spec._edges[:, None].astype(np.int64) + np.arange(-64, 65)).ravel())

    def test_y_just_above_one(self):
        # log y = 1e-7: every prime lies past every break, so f is Liouville's.
        spec = MultiplicativeSpec.step(StepFunction((1.5, 3.0), (1.0, 0.0), -1.0), 1 + 1e-7)
        assert spec._edges.tolist() == [2, 2, 2]
        ns = np.concatenate([np.arange(2, 200), np.arange(MAX_SIEVE_X - 64, MAX_SIEVE_X + 1)])
        self.assert_matches_log_formula(spec, ns)
        assert sieve_sums(spec, 10 ** 4).partial_sum == sieve_sums(LIOUVILLE, 10 ** 4).partial_sum

    def test_edge_beyond_the_budget_is_clamped(self):
        # y^60 = 10^60 neither overflows nor walks up to its edge.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            spec = MultiplicativeSpec.step(StepFunction((1.0, 60.0), (1.0, -1.0), 1.0), 10.0)
        assert spec._edges.tolist() == [2, 10, MAX_SIEVE_X + 1]
        self.assert_matches_log_formula(spec, np.arange(MAX_SIEVE_X - 64, MAX_SIEVE_X + 1))
        assert sieve_sums(spec, 10 ** 5).partial_sum == -17196

    @pytest.mark.parametrize("spec", [
        MultiplicativeSpec.step(CHI_MINUS, 7.0),
        MultiplicativeSpec.step(StepFunction((1.0,), (1.0,), 0.6 + 0.8j), 1.5),
        LIOUVILLE,
        MultiplicativeSpec.from_table({}, 0.0),
        MultiplicativeSpec.from_table({2: 1j, 3: 0.0}, -1.0),
    ])
    def test_one_has_its_own_slot(self, spec):
        assert spec.palette_index(np.array([1])).tolist() == [0]
        assert spec.values_at_primes(np.array([1]))[0] == 1
        assert sieve_sums(spec, 1).partial_sum == 1


def step_with_breaks(k, cycle=(-1.0, 0.0, 1j)):
    """Step spec with k breaks at 1, 1.05, ... and levels running through
    cycle, so neighbouring slots differ; at y = 200 and x = 10^4 all k edges
    lie in (sqrt(x), x] for k <= 10."""
    levels = [cycle[j % len(cycle)] for j in range(k)]
    return MultiplicativeSpec.step(
        StepFunction(tuple(1.0 + 0.05 * j for j in range(k)), (1.0, *levels[:-1]),
                     levels[-1]), 200.0)


def hi_edges(spec, x):
    """Number of the spec's edges in (isqrt(x), x]."""
    edges = spec._edges
    return int(np.sum((edges > math.isqrt(x)) & (edges <= x)))


def cofactors(x):
    """1 and every prime in (isqrt(x), x], in int32 like the sieve's rem,
    with 1 at both ends."""
    ps = primes_upto(x)
    return np.concatenate([[1], ps[ps > math.isqrt(x)], [1]]).astype(np.int32)


def wide_table(cycle=(-1.0, 0.0, 1j, 0.6 + 0.8j)):
    """Table of the 40 primes in (100, 300]: more keys above sqrt(10^4) than
    _cofactor_slots compares one by one."""
    ps = primes_upto(300)
    return MultiplicativeSpec.from_table(
        {p: cycle[i % len(cycle)] for i, p in enumerate(ps[ps > 100][:40].tolist())},
        cycle[-1])


WIDE_TABLE = wide_table()


def spy_palette_index(monkeypatch):
    """Record the length of every array passed to palette_index."""
    seen = []
    palette_index = MultiplicativeSpec.palette_index

    def spy(self, ps):
        seen.append(len(ps))
        return palette_index(self, ps)

    monkeypatch.setattr(MultiplicativeSpec, "palette_index", spy)
    return seen


class TestCofactorSlots:
    """The per-edge comparison slots of the cofactors equal palette_index."""

    @staticmethod
    def assert_slots_match(spec, x, rem):
        got = arithmetic_oracle._cofactor_slots(spec, x, rem)
        assert got.dtype == np.intp
        assert np.array_equal(got, spec.palette_index(rem))

    @pytest.mark.parametrize("spec, n_hi", [
        (LIOUVILLE, 0),
        (MultiplicativeSpec.step(CHI_MINUS, 10 ** (4 / (1 + SQRT_E))), 0),
        (MultiplicativeSpec.step(CHI_MINUS, 500.0), 1),
        (MultiplicativeSpec.step(StepFunction((1.0, 1.2, 1.4), (1.0, -1.0, 0.0), 1j), 200.0), 3),
        (step_with_breaks(arithmetic_oracle._MAX_HI_EDGES), arithmetic_oracle._MAX_HI_EDGES),
    ])
    def test_few_edges_above_the_root(self, monkeypatch, spec, n_hi):
        x = 10 ** 4
        assert hi_edges(spec, x) == n_hi
        rem = cofactors(x)
        seen = spy_palette_index(monkeypatch)
        self.assert_slots_match(spec, x, rem)
        assert seen == [len(rem)]  # the reference alone

    def test_edges_at_and_next_to_the_root(self):
        # Key 101 has edges 101 = isqrt(101^2) and 102 = isqrt + 1.
        self.assert_slots_match(MultiplicativeSpec.from_table({101: 1j}, -1.0), 101 ** 2,
                                cofactors(101 ** 2))
        # And an edge at x itself, a prime that is its own cofactor.
        for x in (10007, 10008):
            self.assert_slots_match(MultiplicativeSpec.from_table({10007: 1j}, -1.0), x,
                                    cofactors(x))
        spec = MultiplicativeSpec.step(CHI_MINUS, 500.0)
        assert spec._edges.tolist() == [2, 500]
        for x in (499 ** 2, 500 ** 2 - 1, 500 ** 2, 500 ** 2 + 1):
            self.assert_slots_match(spec, x, cofactors(x))

    def test_repeated_edges(self):
        spec = MultiplicativeSpec.step(StepFunction((1.5, 3.0), (1.0, 0.0), -1.0), 1 + 1e-7)
        assert spec._edges.tolist() == [2, 2, 2]
        for x in range(1, 30):
            self.assert_slots_match(spec, x, cofactors(x))

    def test_clamped_edge_at_the_budget(self):
        spec = MultiplicativeSpec.step(StepFunction((1.0, 60.0), (1.0, -1.0), 1.0), 10.0)
        assert spec._edges.tolist() == [2, 10, MAX_SIEVE_X + 1]
        ps = primes_upto(2 * 10 ** 4)
        rem = np.concatenate([[1], ps[ps > 10 ** 4], [99999989, 1]]).astype(np.int32)
        self.assert_slots_match(spec, MAX_SIEVE_X, rem)

    @pytest.mark.parametrize("spec", [WIDE_TABLE,
                                      step_with_breaks(arithmetic_oracle._MAX_HI_EDGES + 1)])
    def test_more_edges_fall_back_to_palette_index(self, monkeypatch, spec):
        x = 10 ** 4
        assert hi_edges(spec, x) > arithmetic_oracle._MAX_HI_EDGES
        rem = cofactors(x)
        seen = spy_palette_index(monkeypatch)
        self.assert_slots_match(spec, x, rem)
        assert seen == [len(rem)] * 2

    @pytest.mark.parametrize("build", [
        wide_table, lambda cycle: step_with_breaks(3, cycle),
        lambda cycle: step_with_breaks(arithmetic_oracle._MAX_HI_EDGES, cycle),
        lambda cycle: step_with_breaks(arithmetic_oracle._MAX_HI_EDGES + 1, cycle)])
    def test_sieve_and_density_match_event_list(self, build):
        x = 10 ** 4
        spec = build((-1.0, 0.0, 1j, 0.6 + 0.8j))
        assert (sieve_fields(sieve_sums(spec, x, extra_weights=(0.5,)))
                == sieve_fields(event_list_sieve_sums(spec, x, (0.5,))))
        roots = build((W3, W3 * W3, 1.0))
        assert repr(mth_root_log_density(roots, x, 3)) == repr(event_list_density(roots, x, 3))

    def test_no_segment_sized_lookup_on_the_extremal_spec(self, monkeypatch):
        x = 10 ** 6
        spec = MultiplicativeSpec.step(CHI_MINUS, x ** (1 / (1 + SQRT_E)))
        seen = spy_palette_index(monkeypatch)
        sieve_sums(spec, x)
        assert seen and max(seen) <= len(primes_upto(math.isqrt(x)))


REAL_SPECS = [
    MultiplicativeSpec.step(CHI_MINUS, 7.0),
    MultiplicativeSpec.step(StepFunction((1.2, 1.7), (1.0, 0.0), -1.0), 30.0),
    LIOUVILLE,
    MultiplicativeSpec.from_table({2: 0.0, 3: -1.0, 7: 1.0, 11: 0.0}, -1.0),
]


def spy_accumulator_dtype(monkeypatch):
    """Record the accumulator dtype of every _factor_segments call."""
    seen = []
    factor_segments = arithmetic_oracle._factor_segments

    def spy(*args, **kwargs):
        seen.append(np.dtype(args[-1]))
        return factor_segments(*args, **kwargs)

    monkeypatch.setattr(arithmetic_oracle, "_factor_segments", spy)
    return seen


class TestRealAccumulator:
    """Specs valued in {-1, 0, 1} accumulate in int8, so every partial sum is
    an exact integer and must equal complex128 accumulation; other real
    palettes accumulate in float64."""

    @pytest.mark.parametrize("x", [3001, 10 ** 4, 10 ** 6])
    @pytest.mark.parametrize("spec", REAL_SPECS)
    def test_matches_complex_accumulation(self, monkeypatch, spec, x):
        seen = spy_accumulator_dtype(monkeypatch)
        r = sieve_sums(spec, x, extra_weights=(0.5,))
        assert seen == [np.int8]
        ref = event_list_sieve_sums(spec, x, (0.5,), dtype=np.complex128)
        assert r.partial_sum == ref.partial_sum
        assert (r.theta, r.prime_deficit) == (ref.theta, ref.prime_deficit)
        assert abs(r.log_sum - ref.log_sum) <= 1e-14 * max(1.0, abs(ref.log_sum))
        ref_half = ref.extra_weight_sums[0.5]
        assert abs(r.extra_weight_sums[0.5] - ref_half) <= 1e-14 * max(1.0, abs(ref_half))

    def test_other_real_values_stay_float64(self, monkeypatch):
        seen = spy_accumulator_dtype(monkeypatch)
        spec = MultiplicativeSpec.from_table({2: 0.5, 3: -1.0}, 1.0)
        r = sieve_sums(spec, 10 ** 4, extra_weights=(0.5,))
        assert seen == [np.float64]
        assert sieve_fields(r) == sieve_fields(event_list_sieve_sums(spec, 10 ** 4, (0.5,)))

    @pytest.mark.parametrize("dtype", [np.int8, np.float64, np.complex128])
    def test_dividing_by_the_int32_n_is_exact(self, rng, dtype):
        # A segment's log sum divides acc by its int32 n directly; the cast
        # inside the division must give the float64 copy's divisor bit for bit.
        n = np.concatenate([np.arange(1, 2 ** 19 + 1, dtype=np.int32),
                            np.arange(2 ** 31 - 2 ** 19, 2 ** 31 - 1, dtype=np.int32)])
        if dtype is np.int8:
            acc = rng.integers(-128, 128, n.size).astype(np.int8)
        else:
            acc = rng.standard_normal(n.size).astype(dtype)
            if dtype is np.complex128:
                acc += 1j * rng.standard_normal(n.size)
        got, ref = np.true_divide(acc, n), acc / n.astype(np.float64)
        assert got.dtype == ref.dtype and got.tobytes() == ref.tobytes()


class TestSieveSums:
    def test_exact_against_naive(self, rng):
        specs = [MultiplicativeSpec.step(CHI_MINUS, 50.0),
                 LIOUVILLE,
                 MultiplicativeSpec.from_table({2: 1j, 3: -1.0}, 0.5 + 0.5j)]
        for spec in specs:
            r = sieve_sums(spec, 10 ** 4)
            p_ref, l_ref = naive_sums(spec, 10 ** 4)
            assert abs(r.partial_sum - p_ref) <= 1e-10
            assert abs(r.log_sum - l_ref) <= 1e-10

    def test_all_ones(self):
        r = sieve_sums(ONES, 10 ** 6)
        assert r.partial_sum == 10 ** 6
        assert r.theta == 1.0

    def test_theta_single_zero_prime(self):
        r = sieve_sums(MultiplicativeSpec.from_table({7: 0.0}, 1.0), 10 ** 5)
        assert r.theta == 1.0 - 1.0 / 7.0

    def test_liouville_cancellation(self):
        # Regression fixture from the sieve itself; the mean is tiny but the
        # exact value is not asserted beyond the sieve's own output.
        r = sieve_sums(LIOUVILLE, 10 ** 6)
        assert abs(r.partial_sum) / 10 ** 6 <= 0.005

    def test_extremal_two_level_mean_at_desk_scale(self):
        # f(p) = 1 below x^(1/(1+sqrt e)) and -1 above minimizes the mean,
        # which approaches delta1 as x grows.
        x = 10 ** 6
        y = x ** (1.0 / (1.0 + SQRT_E))
        r = sieve_sums(MultiplicativeSpec.step(CHI_MINUS, y), x)
        from meanspec.extremal_search import delta_constants
        assert abs(r.partial_sum.real / x - delta_constants()[0]) <= 0.05

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            sieve_sums(ONES, 10 ** 9)

    def test_prime_count_via_deficit(self):
        # f = 0 everywhere makes |1 - f(p)|/p the prime harmonic sum.
        r = sieve_sums(MultiplicativeSpec.from_table({}, 0.0), 10 ** 4)
        direct = sum(1.0 / p for p in primes_upto(10 ** 4))
        assert r.prime_deficit == pytest.approx(direct, rel=1e-12)

    def test_memory_budget_shrinks_segments(self, monkeypatch):
        from meanspec.arithmetic_oracle import _segment_length
        monkeypatch.setenv("SPECTRUM_BUDGET_MB", "1")
        small = _segment_length()
        monkeypatch.delenv("SPECTRUM_BUDGET_MB")
        assert small < _segment_length()
        # results are unchanged under the tighter segmentation
        monkeypatch.setenv("SPECTRUM_BUDGET_MB", "1")
        r_small = sieve_sums(LIOUVILLE, 10 ** 5)
        monkeypatch.delenv("SPECTRUM_BUDGET_MB")
        r_big = sieve_sums(LIOUVILLE, 10 ** 5)
        assert abs(r_small.partial_sum - r_big.partial_sum) <= 1e-9
        monkeypatch.setenv("SPECTRUM_BUDGET_MB", "not-a-number")
        with pytest.raises(ValidationError):
            _segment_length()


    def test_non_finite_x_rejected(self):
        for x in (math.nan, math.inf, -math.inf):
            for call in (lambda: sieve_sums(ONES, x), lambda: mth_root_log_density(ONES, x, 2)):
                with pytest.raises(ValidationError, match="x must be a finite number") as info:
                    call()
                assert "\n" not in str(info.value)

    def test_non_finite_specs_rejected(self):
        nan = float("nan")
        with pytest.raises(ValidationError):
            MultiplicativeSpec.step(CHI_MINUS, nan)
        with pytest.raises(ValidationError):
            MultiplicativeSpec.step(CHI_MINUS, math.inf)
        with pytest.raises(ValidationError):
            MultiplicativeSpec.from_table({2: nan})
        with pytest.raises(ValidationError):
            MultiplicativeSpec.from_table({}, complex(0.0, nan))


class TestMeanVsSigma:
    def test_constant_kernel_floor_effects_only(self):
        oracle, sigma, gap = mean_vs_sigma(StepFunction(), 1000.0, 2.0, 1e-3)
        assert gap <= 1.0 / 1000.0

    def test_minus_kernel_fixture(self):
        oracle, sigma, gap = mean_vs_sigma(CHI_MINUS, 1000.0, 2.0, 1e-3)
        assert sigma.real == pytest.approx(1.0 - 2.0 * math.log(2.0), abs=1e-6)
        assert gap <= 0.1  # empirical fixture: observed ~0.075 at x = 1e6

    def test_gap_shrinks_with_larger_y(self):
        gap_lo = mean_vs_sigma(CHI_MINUS, 1.0e2, 2.0, 1e-3)[2]
        gap_hi = mean_vs_sigma(CHI_MINUS, 1.0e3, 2.0, 1e-3)[2]
        assert gap_lo / gap_hi >= 1.5

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            mean_vs_sigma(CHI_MINUS, 10.0 ** 6, 2.0, 1e-3)

    def test_nan_u_rejected(self):
        with pytest.raises(ValidationError):
            mean_vs_sigma(CHI_MINUS, 1000.0, math.nan, 1e-3)

    @pytest.mark.parametrize("u", [1e-3, 0.1, 0.5])
    def test_u_below_one_rejected(self, u):
        # The C*u/log(y) envelope holds for x = y^u >= y; below it the gap
        # check failed as a ContractError (0.3690 against 0.2171 at u = 0.1).
        with pytest.raises(ValidationError, match="at least 1"):
            mean_vs_sigma(CHI_MINUS, 100.0, u, 1e-3)

    @pytest.mark.parametrize("u, expected", [
        (1.0, (1.0, 1.0, 0.0)),
        (2.0, (-0.2568, -0.3862942986199039, 0.1294942986199039)),
    ])
    def test_u_from_one_keeps_its_values(self, u, expected):
        assert mean_vs_sigma(CHI_MINUS, 100.0, u, 1e-3) == expected


class TestLogMeanVsIntegral:
    @pytest.mark.parametrize("u", [1e-3, 0.1, 0.5])
    def test_u_below_one_rejected(self, u):
        # Below x = y the gap check failed as a ContractError (216.1472
        # against 0.0022 at u = 1e-3) instead of rejecting the input.
        with pytest.raises(ValidationError, match="at least 1"):
            log_mean_vs_integral(CHI_MINUS, 100.0, u, 1e-3)

    @pytest.mark.parametrize("u, expected", [
        (1.0, (1.1264247157299376, 1.0000000000000007, 0.12642471572993697)),
        (2.0, (0.5970260188107877, 0.6137057013800962, 0.016679682569308518)),
    ])
    def test_u_from_one_keeps_its_values(self, u, expected):
        assert log_mean_vs_integral(CHI_MINUS, 100.0, u, 1e-3) == expected

    @pytest.mark.parametrize("u", [math.nan, 0.0, -1.0])
    def test_u_without_a_log_mean_rejected(self, u):
        # u = 0 gives x = 1, whose log the mean divides by.
        with pytest.raises(ValidationError):
            log_mean_vs_integral(CHI_MINUS, 1000.0, u, 1e-3)

    def test_all_ones(self):
        oracle, mean, gap = log_mean_vs_integral(StepFunction(), 1000.0, 2.0, 1e-3)
        assert mean == pytest.approx(1.0, abs=1e-9)
        assert abs(oracle - 1.0) <= 0.1

    def test_real_kernels_land_in_unit_range(self, rng):
        # The harmonic/log normalization mismatch adds ~gamma/log(x) = 0.042
        # at x = 1e6, so the admissible window is widened to [-0.05, 1.05].
        for _ in range(4):
            nb = int(rng.integers(2, 5))
            marks = np.sort(rng.choice(np.arange(1000, 3000), nb, replace=False))
            vals = rng.uniform(-1.0, 1.0, nb)
            k = StepFunction(tuple(marks / 1000.0), (1.0,) + tuple(vals[:-1]),
                             vals[-1])
            oracle, _, _ = log_mean_vs_integral(k, 1000.0, 2.0, 1e-3)
            assert -0.05 <= oracle.real <= 1.05
            assert abs(oracle.imag) <= 1e-12

    def test_half_weight_matches_plain_mean(self):
        # sum f(n)/sqrt(n) normalized by the same sum for f = 1 tracks the
        # plain mean at x = 1e6 for the three frozen fixtures.
        x = 10 ** 6
        denom = sieve_sums(ONES, x, extra_weights=(0.5,)).extra_weight_sums[0.5]
        fixtures = [LIOUVILLE,
                    MultiplicativeSpec.from_table({2: 1.0}, 0.0),
                    MultiplicativeSpec.step(CHI_MINUS, x ** 0.25)]
        for spec in fixtures:
            r = sieve_sums(spec, x, extra_weights=(0.5,))
            weighted = r.extra_weight_sums[0.5] / denom
            assert abs(weighted - r.partial_sum / x) <= 0.05

    def test_slow_variation_bound(self):
        # Ten frozen fixtures; the 0.2 constant is the calibrated surrogate
        # for the absolute-constant variation bound.
        x = 10 ** 6
        fixtures = [ONES, LIOUVILLE,
                    MultiplicativeSpec.from_table({}, 0.5),
                    MultiplicativeSpec.from_table({}, 0.9),
                    MultiplicativeSpec.from_table({2: 1.0}, 0.0),
                    MultiplicativeSpec.from_table({}, 1j),
                    MultiplicativeSpec.from_table({}, W3),
                    MultiplicativeSpec.from_table({2: -1.0, 3: 1.0, 5: -1.0}, 1.0),
                    MultiplicativeSpec.from_table({}, complex(0.8, 0.6)),
                    MultiplicativeSpec.step(CHI_MINUS, x ** 0.25)]
        assert len(fixtures) == 10
        for spec in fixtures:
            r1 = sieve_sums(spec, x)
            cap_base = 0.2 * math.exp(min(r1.prime_deficit, 40.0))
            for y in (10, 100):
                r2 = sieve_sums(spec, x // y)
                lhs = abs(r1.partial_sum / x - r2.partial_sum / (x // y))
                assert lhs <= cap_base * math.log(2 * y) / math.log(x)


class TestKronecker:
    def test_unit_argument(self):
        assert kronecker(5, 1) == 1
        assert kronecker(-7, 1) == 1

    def test_shared_factor_of_two(self):
        assert kronecker(8, 2) == 0

    def test_five_mod_eight(self):
        assert kronecker(5, 2) == -1

    def test_against_quadratic_residues(self):
        # Independent oracle: for odd prime p, (D/p) = 1 exactly when D is a
        # nonzero square mod p; extended multiplicatively to n = p*q.
        for p in (3, 5, 7, 11, 13):
            squares = {(r * r) % p for r in range(1, p)}
            for D in range(1, 40):
                expected = 0 if D % p == 0 else (1 if D % p in squares else -1)
                assert kronecker(D, p) == expected

    @given(st.integers(min_value=-60, max_value=60).filter(lambda d: d != 0),
           st.integers(min_value=1, max_value=80),
           st.integers(min_value=1, max_value=80))
    @settings(max_examples=300, deadline=None)
    def test_completely_multiplicative(self, D, a, b):
        assert kronecker(D, a * b) == kronecker(D, a) * kronecker(D, b)

    def test_odd_primes_match_euler_criterion(self):
        # (r/p) = r^((p-1)/2) mod p for odd primes p, read as -1, 0 or 1.
        for p in primes_upto(200).tolist()[1:]:
            for r in range(1, p):
                euler = pow(r, (p - 1) // 2, p)
                assert kronecker(r, p) == (euler - p if euler > 1 else euler)

    def test_zero_rejected(self):
        with pytest.raises(ValidationError):
            kronecker(0, 3)
        with pytest.raises(ValidationError):
            kronecker(5, 0)


class TestSubsetSumCounts:
    def test_two_ones_mod_two(self):
        assert subset_sum_counts([1, 1], None, 2) == 2

    def test_tight_case(self):
        for m in (3, 4, 6):
            assert subset_sum_counts([1] * (m - 1), None, m) == 1

    def test_random_instances_respect_floor(self, rng):
        for _ in range(100):
            n = int(rng.integers(1, 11))
            m = int(rng.integers(2, 9))
            a = [int(v) for v in rng.integers(-20, 21, n)]
            R = [int(v) for v in rng.integers(2, 5, n)] if rng.random() < 0.5 else None
            count = subset_sum_counts(a, R, m)
            prod = 1
            for r in (R or [2] * n):
                prod *= r
            assert count * (1 << (m - 1)) >= prod

    def test_matches_exhaustive_enumeration(self, rng):
        from itertools import product
        for _ in range(20):
            n = int(rng.integers(1, 5))
            m = int(rng.integers(2, 6))
            a = [int(v) for v in rng.integers(-9, 10, n)]
            R = [int(v) for v in rng.integers(2, 4, n)]
            brute = sum(1 for combo in product(*(range(r) for r in R))
                        if sum(c * ai for c, ai in zip(combo, a)) % m == 0)
            assert subset_sum_counts(a, R, m) == brute

    def test_budget_and_validation(self):
        with pytest.raises(BudgetError):
            subset_sum_counts([1] * 25, None, 2)
        with pytest.raises(ValidationError):
            subset_sum_counts([1, 1], [2, 1], 2)
        with pytest.raises(ValidationError):
            subset_sum_counts([1], None, 1)

    @pytest.mark.parametrize("m", [2.5, math.nan, math.inf, -math.inf, "3", None])
    def test_non_integer_m_rejected(self, m):
        with pytest.raises(ValidationError, match="m must be an integer"):
            subset_sum_counts([1, 2], None, m)

    def test_integral_float_m_accepted(self):
        assert subset_sum_counts([1, 1], None, 2.0) == subset_sum_counts([1, 1], None, 2)

    def test_step_budget_edge(self, monkeypatch):
        # a = 2 has cycle 3 mod 6, a = 3 cycle 2 and a = 0 cycle 1, so R = 5
        # adds 3, 2 and 1 copies: 6 * (1 + 3 + 2 + 1) = 42 count updates.
        args = ([2, 3, 0], [5, 5, 5], 6)
        count = subset_sum_counts(*args)
        monkeypatch.setattr(arithmetic_oracle, "MAX_SUBSET_STEPS", 42)
        assert subset_sum_counts(*args) == count
        monkeypatch.setattr(arithmetic_oracle, "MAX_SUBSET_STEPS", 41)
        with pytest.raises(BudgetError, match="42 count updates exceed the budget 41"):
            subset_sum_counts(*args)

    @pytest.mark.parametrize("m", [10 ** 7, 10 ** 18])
    def test_step_budget_before_any_list(self, m):
        # 10^18 counts would be 8 EB of list; the budget raises first.
        tracemalloc.start()
        try:
            with pytest.raises(BudgetError, match="count updates exceed"):
                subset_sum_counts([1, 1], None, m)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20


class TestMthRootDensity:
    def test_all_ones_equals_harmonic_ratio(self):
        x = 10 ** 5
        density = mth_root_log_density(ONES, x, 2)
        harmonic = float(np.sum(1.0 / np.arange(1.0, x + 1.0)))
        assert density == pytest.approx(harmonic / math.log(x), rel=1e-12)

    def test_liouville_density(self):
        assert mth_root_log_density(LIOUVILLE, 10 ** 6, 2) >= 0.5 - 0.02

    def test_cube_root_assignments(self):
        for seed in range(5):
            rng = np.random.default_rng(10 + seed)
            table = {int(p): W3 ** int(rng.integers(0, 3)) for p in primes_upto(13)}
            spec = MultiplicativeSpec.from_table(table, W3 ** int(rng.integers(0, 3)))
            assert mth_root_log_density(spec, 10 ** 6, 3) >= 0.25 - 0.02

    def test_non_root_value_rejected(self):
        with pytest.raises(ValidationError):
            mth_root_log_density(MultiplicativeSpec.from_table({}, 0.5), 10 ** 4, 2)
        # The whole palette is checked, even a value no n <= x reaches.
        with pytest.raises(ValidationError):
            mth_root_log_density(MultiplicativeSpec.from_table({10007: 0.5}, -1.0), 100, 2)


    def test_m_past_int64_rejected(self):
        for m in (2 ** 63, 10 ** 30, math.inf):
            with pytest.raises(ValidationError, match="below 2\\^63"):
                mth_root_log_density(LIOUVILLE, 100, m)
        with pytest.raises(ValidationError, match="m must be positive"):
            mth_root_log_density(LIOUVILLE, 100, math.nan)
        # f(n) = 1 exactly when Omega(n) is even, for every even m.
        assert mth_root_log_density(LIOUVILLE, 100, 2 ** 62) == mth_root_log_density(LIOUVILLE, 100, 2)


class TestRootOrders:
    """A palette value counts as an m-th root of unity only as a root of an
    order q | m with q <= MAX_ROOT_ORDER; past m = pi * 10^9 every unit
    value lies within 1e-9 of some m-th root."""

    @pytest.mark.parametrize("m", [10 ** 9 + 1, 4 * 10 ** 9 + 1, 10 ** 12 + 1, 2 ** 63 - 1])
    def test_minus_one_is_no_root_of_odd_order(self, m):
        with pytest.raises(ValidationError, match="not an m-th root of unity"):
            mth_root_log_density(LIOUVILLE, 100, m)

    def test_order_past_the_cap_rejected(self):
        q = arithmetic_oracle.MAX_ROOT_ORDER + 1
        w = complex(math.cos(2 * math.pi / q), math.sin(2 * math.pi / q))
        with pytest.raises(ValidationError, match="order at most"):
            mth_root_log_density(MultiplicativeSpec.from_table({}, w), 100, q)
        with pytest.raises(ValidationError, match="order at most"):
            mth_root_log_density(MultiplicativeSpec.from_table({}, w), 100, 2 * q)

    @pytest.mark.parametrize("m", [3 ** 39, 3 * 2 ** 61, 3 * 10 ** 6, 3 * (2 ** 61 - 1)])
    def test_huge_multiples_equal_the_order(self, m):
        # exps near 2m/3 would wrap int64 sums; the order-3 test does not.
        spec = MultiplicativeSpec.from_table({2: W3, 3: W3 * W3}, W3)
        assert (repr(mth_root_log_density(spec, 10 ** 4, m))
                == repr(mth_root_log_density(spec, 10 ** 4, 3)))

    @pytest.mark.parametrize("m", [2, 3, 6, 12, 720720])
    def test_exponents_are_the_nearest_mth_roots(self, m):
        # Below the cap the exponent is the plain rounding of angle * m / (2 pi).
        values = np.exp(2j * np.pi * np.arange(12) / 12)
        values = values[(np.arange(12) * m) % 12 == 0]
        angles = np.angle(values)
        expect = np.rint(angles * m / (2.0 * math.pi)).astype(np.int64) % m
        assert np.array_equal(arithmetic_oracle._root_exponents(values, m), expect)

    def test_integer_m_only(self):
        with pytest.raises(ValidationError, match="m must be an integer"):
            mth_root_log_density(LIOUVILLE, 100, 2.5)
        assert mth_root_log_density(LIOUVILLE, 100, 2.0) == mth_root_log_density(LIOUVILLE, 100, 2)
        assert (mth_root_log_density(LIOUVILLE, 100, np.int64(4))
                == mth_root_log_density(LIOUVILLE, 100, 2))

    def test_sums_past_int64_rejected(self):
        # Roots of three coprime orders near 10^6 generate order about 10^18.
        qs = (999983, 999979, 999961)
        m = qs[0] * qs[1] * qs[2]
        spec = MultiplicativeSpec.from_table(
            {p: complex(math.cos(2 * math.pi / q), math.sin(2 * math.pi / q))
             for p, q in zip((2, 3, 5), qs)}, 1.0)
        assert (repr(mth_root_log_density(spec, 100, m))
                == repr(event_list_density(spec, 100, m)))
        with pytest.raises(ValidationError, match="int64 exponent sums"):
            mth_root_log_density(spec, 10 ** 4, m)


class TestDensityExponents:
    """Density exponents mod m accumulate in int8 while
    (x.bit_length() + 1) * (m - 1) <= 127, wider beyond, bitwise equal to the
    int64 event-list reference."""

    @staticmethod
    def spy_dtype(monkeypatch):
        seen = []

        def spy(*args, **kwargs):
            seen.append(np.dtype(args[-1]))
            return iter(())

        monkeypatch.setattr(arithmetic_oracle, "_factor_segments", spy)
        return seen

    @pytest.mark.parametrize("x", [2, 10 ** 4, 10 ** 6, 10 ** 7])
    def test_int8_up_to_sixth_roots(self, monkeypatch, x):
        seen = self.spy_dtype(monkeypatch)
        for m in range(1, 7):
            mth_root_log_density(ONES, x, m)
        assert seen == [np.int8] * 6

    @pytest.mark.parametrize("x, m, dtype", [
        (10 ** 7, 7, np.int16), (2 ** 13, 10, np.int16), (10 ** 7, 1311, np.int16),
        (10 ** 7, 1312, np.int64), (10 ** 4, 10 ** 6, np.int64), (10 ** 4, 2 ** 62, np.int64)])
    def test_wider_past_the_bound(self, monkeypatch, x, m, dtype):
        seen = self.spy_dtype(monkeypatch)
        mth_root_log_density(ONES, x, m)
        assert seen == [dtype]

    @pytest.mark.parametrize("k", [6, 10, 13])
    def test_largest_int8_exponent_sums(self, monkeypatch, k):
        # At x = 2^k, n = x has Omega(n) = x.bit_length() - 1 = k, and every
        # value but f(1) has exponent m - 1, for the largest m that stays int8.
        x = 2 ** k
        m = 127 // (x.bit_length() + 1) + 1
        w = complex(math.cos(2 * math.pi / m), math.sin(2 * math.pi / m))
        spec = MultiplicativeSpec.from_table({}, w ** (m - 1))
        assert (arithmetic_oracle._root_exponents(spec.palette, m)[1:] == m - 1).all()
        seen = spy_accumulator_dtype(monkeypatch)
        got = mth_root_log_density(spec, x, m)
        assert seen == [np.int8]
        assert repr(got) == repr(event_list_density(spec, x, m))


SMALL_PRIMES = primes_upto(60).tolist()
UNIT_VALUES = [-1.0, 0.0, 1.0]
DISC_VALUES = UNIT_VALUES + [1j, -1j, 0.5, 0.6 + 0.8j, -0.5j, W3, W3 * W3]


@st.composite
def small_specs(draw, values):
    """A step spec (0-3 breaks in [1, 4], y in [1.5, 100]) or a table spec
    (up to six primes below 60), valued in the list ``values``."""
    value = st.sampled_from(values)
    if draw(st.booleans()):
        breaks = sorted(draw(st.lists(st.floats(1.0, 4.0), max_size=3, unique=True)))
        segs = [1.0] + [draw(value) for _ in breaks]
        chi = StepFunction(tuple(breaks), tuple(segs[:-1]), segs[-1])
        return MultiplicativeSpec.step(chi, draw(st.floats(1.5, 100.0)))
    keys = draw(st.lists(st.sampled_from(SMALL_PRIMES), max_size=6, unique=True))
    return MultiplicativeSpec.from_table({p: draw(value) for p in keys}, draw(value))


@st.composite
def root_specs(draw):
    """(spec, m) with every value an m-th root of unity."""
    m = draw(st.integers(1, 6))
    roots = [complex(math.cos(2 * math.pi * k / m), math.sin(2 * math.pi * k / m))
             for k in range(m)]
    return draw(small_specs(roots)), m


class TestSieveProperties:
    """Random small specs: the sieve against the per-n reference and the
    density against the event-list replay."""

    @given(small_specs(UNIT_VALUES), st.integers(1, 3000))
    @settings(max_examples=100)
    def test_unit_values_exact_against_naive(self, spec, x):
        r = sieve_sums(spec, x)
        partial, logsum = naive_sums(spec, x)
        assert r.partial_sum == partial
        assert abs(r.log_sum - logsum) <= 1e-12 * (1.0 + math.log(x))

    @given(small_specs(DISC_VALUES), st.integers(1, 3000))
    @settings(max_examples=100)
    def test_disc_values_against_naive(self, spec, x):
        r = sieve_sums(spec, x)
        partial, logsum = naive_sums(spec, x)
        assert abs(r.partial_sum - partial) <= 1e-12 * x
        assert abs(r.log_sum - logsum) <= 1e-12 * (1.0 + math.log(x))

    @given(root_specs(), st.integers(2, 3000))
    @settings(max_examples=100)
    def test_density_against_event_list(self, spec_m, x):
        spec, m = spec_m
        assert repr(mth_root_log_density(spec, x, m)) == repr(event_list_density(spec, x, m))


#: Segment lengths for the wheel: 8, 26 and 120 start segments at wheel
#: prime powers, 5040 on the period and 5041 one past it, and 7919 is prime.
WHEEL_SEGMENTS = [8, 26, 120, 5040, 5041, 7919]
#: The wheel prime powers at or below their tops, left to the pattern.
WHEEL_POWERS = {2, 4, 8, 16, 3, 9, 5, 7}


def spy_strided_ops(monkeypatch):
    """Record (acc dtype, stride in items, value, identity) for every
    nonempty call of the op that _factor_segments receives."""
    calls = []
    factor_segments = arithmetic_oracle._factor_segments

    def spy(x, base, base_vals, op, identity, dtype, **kwargs):
        def op_spy(a, v, out=None):
            if a.size:
                calls.append((np.dtype(dtype), a.strides[0] // a.itemsize, v, identity))
            return op(a, v, out=out)

        return factor_segments(x, base, base_vals, op_spy, identity, dtype, **kwargs)

    monkeypatch.setattr(arithmetic_oracle, "_factor_segments", spy)
    return calls


class TestWheel:
    """Segments start from the wheel pattern of 2, 3, 5, 7 and skip identity
    updates, bitwise equal to the event-list references at every length."""

    @given(small_specs(DISC_VALUES), st.integers(1, 12000), st.sampled_from(WHEEL_SEGMENTS))
    @settings(max_examples=100)
    def test_sieve_against_event_list(self, spec, x, seg):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
            assert (sieve_fields(sieve_sums(spec, x, extra_weights=(0.5,)))
                    == sieve_fields(event_list_sieve_sums(spec, x, (0.5,))))

    @given(root_specs(), st.integers(2, 12000), st.sampled_from(WHEEL_SEGMENTS))
    @settings(max_examples=100)
    def test_density_against_event_list(self, spec_m, x, seg):
        spec, m = spec_m
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
            assert repr(mth_root_log_density(spec, x, m)) == repr(event_list_density(spec, x, m))

    @pytest.mark.parametrize("seg", [120, 5040, 5041, 7919])
    def test_segments_across_periods(self, monkeypatch, seg):
        monkeypatch.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
        assert_matches_event_list([2 * 5040 + 1, 11000])

    @pytest.mark.parametrize("seg", WHEEL_SEGMENTS)
    def test_seven_joins_the_wheel_at_49(self, monkeypatch, seg):
        # isqrt(48) = 6 and isqrt(49) = 7; f(2) = 0 or f(3) = 0 zeroes whole
        # residue classes of the pattern, in int8, float64 and complex128.
        monkeypatch.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
        zeros = [MultiplicativeSpec.from_table({2: 0.0, 7: 1.0}, -1.0),
                 MultiplicativeSpec.from_table({2: 0.0, 3: 0.5}, -1.0),
                 MultiplicativeSpec.from_table({3: 0.0, 5: 1j}, -1.0)]
        for x in (48, 49, 50):
            for spec in SIEVE_SPECS + zeros:
                assert (sieve_fields(sieve_sums(spec, x, extra_weights=(0.5,)))
                        == sieve_fields(event_list_sieve_sums(spec, x, (0.5,))))
            for spec, m in DENSITY_SPECS:
                assert (repr(mth_root_log_density(spec, x, m))
                        == repr(event_list_density(spec, x, m)))

    @pytest.mark.parametrize("run, seen", [
        # f = 1 at 2, 3, 5 and 7: no wheel prime updates at all.
        (lambda: sieve_sums(MultiplicativeSpec.step(CHI_MINUS, 1e5 ** (1 / (1 + SQRT_E))), 10 ** 5),
         set()),
        (lambda: mth_root_log_density(LIOUVILLE, 10 ** 5, 2), {32, 27, 25, 49}),
        (lambda: mth_root_log_density(
            MultiplicativeSpec.from_table({2: W3, 3: 1.0, 7: W3 * W3}, 1.0), 10 ** 5, 3),
         {32, 49}),
        # float64 and complex128 keep the wheel powers below the tops in order.
        (lambda: sieve_sums(MultiplicativeSpec.from_table({2: 0.5, 3: 1.0}, -1.0), 10 ** 5),
         {2, 4, 8, 16, 32, 5, 25, 7, 49}),
        (lambda: sieve_sums(MultiplicativeSpec.from_table({2: 1j, 5: 1.0}, -1.0), 10 ** 5),
         {2, 4, 8, 16, 32, 3, 9, 27, 7, 49})])
    def test_no_identity_or_wheel_power_updates(self, monkeypatch, run, seen):
        calls = spy_strided_ops(monkeypatch)
        run()
        assert calls
        assert all(v != identity for *_, v, identity in calls)
        wheel_strides = {p ** e for p in (2, 3, 5, 7) for e in range(1, 6) if p ** e <= 49}
        assert {q for _, q, *_ in calls} & wheel_strides == seen
        exact = {q for dtype, q, *_ in calls if dtype.kind == "i"}
        assert not exact & WHEEL_POWERS


#: One spec per accumulator dtype: int8, float64 and complex128.
THREAD_SPECS = [
    MultiplicativeSpec.step(CHI_MINUS, 10 ** (6 / (1 + SQRT_E))),
    MultiplicativeSpec.from_table({2: 0.5, 3: -1.0}, -1.0),
    MultiplicativeSpec.from_table({2: 1j, 3: -1.0}, 0.6 + 0.8j),
]


class TestWheelTile:
    """Each segment starts s and an exact acc from the wheel pattern at the
    phase of its first integer lo: entry k of the pattern belongs to the
    integers = k + 1 modulo the period."""

    @pytest.mark.parametrize("base, period", [([11, 13], 1), ([2, 3, 5, 11], 720),
                                              ([2, 3, 5, 7, 11], 5040)])
    @pytest.mark.parametrize("seg", [7, 719, 5039, 5041, 12000])
    def test_segments_start_at_their_phase(self, monkeypatch, base, period, seg):
        x = 3 * 5040 + 11
        tops = [arithmetic_oracle._WHEEL_TOPS.get(p, 1) for p in base]
        assert math.prod(tops) == period
        weights = [10 ** i for i in range(len(base))]

        def pattern_only(a, v, out=None):
            """np.add while the pattern is built; a no-op in the strided loop."""
            return a if out is not None else np.add(a, v)

        monkeypatch.setattr(arithmetic_oracle, "_segment_length", lambda: seg)
        parts = arithmetic_oracle._factor_segments(
            x, np.array(base), weights, pattern_only, 0, np.int64,
            finish=lambda n, acc, rem: (n.copy(), acc.copy(), rem.copy()))
        n = np.concatenate([part[0] for part in parts])
        acc = np.concatenate([part[1] for part in parts])
        rem = np.concatenate([part[2] for part in parts])
        assert n.tolist() == list(range(1, x + 1))
        # acc is the pattern itself: each wheel power up to its top, weighted.
        pattern = np.zeros(period, dtype=np.int64)
        for p, w, top in zip(base, weights, tops):
            q = p
            while q <= top:
                pattern[q - 1::q] += w
                q *= p
        assert np.array_equal(acc, pattern[(n - 1) % period])
        # s, the pattern times the strided powers above the tops, is the
        # base-smooth part of n.
        smooth = np.ones(x, dtype=np.int64)
        for p in base:
            q = p
            while q <= x:
                smooth[q - 1::q] *= p
                q *= p
        assert np.array_equal(n // rem, smooth)


class TestSegmentThreads:
    """Segments run SEGMENT_THREADS at a time; the results do not depend on
    how many, and no worker outlives a call."""

    @pytest.mark.parametrize("x", [2 ** 19, 2 ** 19 + 1, 10 ** 6, 3 * 2 ** 19 + 7])
    def test_one_and_two_threads_agree(self, monkeypatch, x):
        def run():
            return ([sieve_fields(sieve_sums(spec, x, extra_weights=(0.5,)))
                     for spec in THREAD_SPECS]
                    + [repr(mth_root_log_density(spec, x, m)) for spec, m in DENSITY_SPECS[2:]])

        monkeypatch.setattr(arithmetic_oracle, "SEGMENT_THREADS", 1)
        serial = run()
        monkeypatch.setattr(arithmetic_oracle, "SEGMENT_THREADS", 2)
        assert run() == serial

    def test_worker_error_joins_every_worker(self, monkeypatch):
        cofactor_slots = arithmetic_oracle._cofactor_slots
        calls = itertools.count()
        workers = set()

        def second_call_fails(*args):
            workers.add(threading.current_thread())
            if next(calls) == 1:
                raise ValidationError("second segment")
            return cofactor_slots(*args)

        monkeypatch.setattr(arithmetic_oracle, "_cofactor_slots", second_call_fails)
        before = threading.active_count()
        # The kept traceback holds the call's frames, so a pool left running
        # would keep its workers waiting for work.
        with pytest.raises(ValidationError, match="second segment") as raised:
            sieve_sums(THREAD_SPECS[2], 3 * 2 ** 19 + 7)
        assert threading.active_count() == before
        assert workers and not any(t.is_alive() for t in workers)


class TestDiscriminantAverage:
    def test_trivial_truncation(self):
        res = discriminant_char_average(10 ** 5, 0.01, 2, {2: 1})
        assert res.average == 1.0
        assert res.truncated_sum == 1.0

    def test_matches_truncated_sum_within_quarter(self):
        res = discriminant_char_average(10 ** 5, 1.0, 2, {2: 1})
        assert abs(res.average - res.truncated_sum) <= 0.25 * abs(res.truncated_sum)

    def test_gap_tightens_with_z(self):
        # The pointwise three-step trend bottoms out at arithmetic noise, so
        # the frozen check is the decaying envelope plus an endpoint drop.
        X, B = 10 ** 5, 1.0
        signs = {2: 1, 3: -1, 5: 1}
        gaps = []
        for z in (2, 3, 5):
            fs = {p: s for p, s in signs.items() if p <= z}
            res = discriminant_char_average(X, B, z, fs)
            gaps.append(abs(res.average - res.truncated_sum))
            assert gaps[-1] <= math.log(X) ** B / z
        assert gaps[-1] < gaps[0]

    def test_empty_progression_rejected(self):
        with pytest.raises(ValidationError):
            discriminant_char_average(100, 1.0, 7, {2: -1, 3: -1, 5: -1, 7: -1})

    def test_missing_sign_rejected(self):
        with pytest.raises(ValidationError):
            discriminant_char_average(10 ** 4, 1.0, 3, {2: 1})

    def test_budget_enforced(self):
        with pytest.raises(BudgetError):
            discriminant_char_average(10 ** 7, 1.0, 2, {2: 1})

    @pytest.mark.parametrize("B", [math.nan, math.inf, -math.inf])
    def test_non_finite_b_rejected(self, B):
        with pytest.raises(ValidationError, match="B must be finite"):
            discriminant_char_average(10 ** 5, B, 2, {2: 1})

    @pytest.mark.parametrize("X", [math.nan, math.inf, -math.inf, np.float64(math.nan)])
    def test_non_finite_x_rejected(self, X):
        with pytest.raises(ValidationError, match="X must be finite"):
            discriminant_char_average(X, 1.0, 2, {2: 1})

    @pytest.mark.parametrize("B", [3.0, 1000.0, 1e308])
    def test_term_budget_before_the_loop(self, B, monkeypatch):
        import meanspec.arithmetic_oracle as ao
        monkeypatch.setattr(ao, "kronecker", None)  # any term would raise TypeError
        with pytest.raises(BudgetError, match="terms exceed the budget"):
            discriminant_char_average(10 ** 5, B, 2, {2: 1})

    def test_term_budget_edge(self, monkeypatch):
        import meanspec.arithmetic_oracle as ao
        res = discriminant_char_average(10 ** 4, 1.0, 2, {2: 1})
        terms = res.count * int(math.log(10 ** 4) + 1e-9)
        monkeypatch.setattr(ao, "MAX_KRONECKER_TERMS", terms)
        assert discriminant_char_average(10 ** 4, 1.0, 2, {2: 1}) == res
        monkeypatch.setattr(ao, "MAX_KRONECKER_TERMS", terms - 1)
        with pytest.raises(BudgetError):
            discriminant_char_average(10 ** 4, 1.0, 2, {2: 1})

    @pytest.mark.parametrize("z", [2.5, math.nan, math.inf, "7"])
    def test_non_integer_z_rejected(self, z):
        with pytest.raises(ValidationError, match="z must be an integer"):
            discriminant_char_average(10 ** 4, 1.0, z, {2: 1})

    def test_z_above_x_rejected_before_the_prime_sieve(self):
        # primes_upto(10^8) alone would take a 100 MB mask.
        tracemalloc.start()
        try:
            with pytest.raises(ValidationError, match=r"z must lie in \[2, X\]"):
                discriminant_char_average(10 ** 5, 1.0, 10 ** 8, {2: 1})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_z_equal_to_x_allowed(self):
        # f = 1 at every prime <= 100 pins D = 1 mod 8 and 1 mod each odd p.
        signs = {int(p): 1 for p in primes_upto(100)}
        res = discriminant_char_average(100, 1.0, 100, signs)
        assert res.count == 1 and res.progression[0] == 1

    @pytest.mark.parametrize("B", [-1e-9, -1.0])
    def test_negative_b_rejected(self, B):
        with pytest.raises(ValidationError, match="B must be finite and nonnegative"):
            discriminant_char_average(10 ** 4, B, 2, {2: 1})

    def test_zero_b_sums_one_term(self):
        res = discriminant_char_average(10 ** 4, 0.0, 3, {2: -1, 3: 1})
        assert res.average == 1.0 and res.truncated_sum == 1.0

    # X, z and the values of B; the largest X pairs only with the smaller
    # B or the wider progressions, to keep the Kronecker loop short.
    TRUNCATION_CASES = [(X, z, B) for X in (10 ** 2, 10 ** 3, 10 ** 4) for z in (2, 3, 5, 7)
                        for B in (0.0, 0.3, 1.0, 1.7, 2.5)]
    TRUNCATION_CASES += [(10 ** 5, z, B) for z in (2, 3) for B in (0.0, 0.6, 1.2)]
    TRUNCATION_CASES += [(10 ** 5, z, B) for z in (5, 7) for B in (0.0, 0.9, 1.8, 2.5)]

    def test_truncated_sum_matches_trial_division(self, rng):
        def trial_division_sum(N, signs):
            """sum_{n <= N} f(n), f(p) = signs[p] for p <= z and 0 above."""
            total = 0.0 + 0.0j
            for n in range(1, N + 1):
                m, val = n, 1.0 + 0.0j
                for p, sign in signs.items():
                    while m % p == 0:
                        val *= sign
                        m //= p
                total += val if m == 1 else 0.0
            return total

        checked = 0
        for X, z, B in self.TRUNCATION_CASES:
            signs = {p: int(rng.choice([-1, 1])) for p in (2, 3, 5, 7) if p <= z}
            try:
                res = discriminant_char_average(X, B, z, signs)
            except ValidationError as exc:
                assert "no fundamental discriminants" in str(exc)
                continue
            N = int(math.log(X) ** B + 1e-9)
            assert repr(res.truncated_sum) == repr(trial_division_sum(N, signs))
            checked += 1
        assert checked >= 50
