"""Ground truth from actual integers.

A segmented sieve evaluates completely multiplicative functions exactly:
each segment applies f(p) along the strided multiples of every power of every
prime up to sqrt(x), and then every integer takes f at its cofactor left
above sqrt(x) (1 or a prime), so f(n) is the product of the supplied f(p)
over the factorization of n.  Segments start from a wheel, the 5040-periodic
pattern of the powers of 2, 3, 5 and 7 up to 16, 9, 5 and 7, and an update
by f(p) = 1 is skipped.  It accumulates partial sums, logarithmic sums,
Euler products, and the prime reciprocal deficit.  A spec's values form a
short palette over integer edges, with a slot for f(1) = 1 below the first
prime; a cofactor is 1 or a prime above sqrt(x), so only the few edges above
sqrt(x) tell two apart.  No segment is divided by its sieved part s: the
cofactor n // s exceeds 1 when s < n and reaches an edge e when s <= n // e,
so f at the cofactors is one scalar division and one comparison per such
edge and a gather.  Two segments run at a time, each wholly on one thread,
and their sums fold in segment order; a call of one segment runs on the
caller's thread.  The threads overlap only in part: a segment is mostly
short numpy calls that hold the GIL, so two one-thread calls at x = 10^7
took about 1.5 times their solo time side by side in one process, and their
solo time in two processes.  The segment's integers are int32 arrays, and
f(n) accumulates in the narrowest exact dtype: int8 when every value is -1,
0 or 1, float64 for other real values and complex128 otherwise; the
density's exponents mod m likewise in int8 while they fit.  On top of it
sit the mean-vs-solver comparisons, Kronecker symbols, averages over
fundamental discriminants in a progression, the subset-sum counts behind
the m-th power residue bounds, and exact logarithmic densities for
root-of-unity valued functions.
"""

from __future__ import annotations

import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .dde_solver import solve_sigma
from .errors import BudgetError, ContractError, ValidationError
from .kernels import DISC_TOL, GridFunction, StepFunction

#: Below 2**31, so the sieve's integer arrays (n, its sieved part and the
#: quotients of n) are exact in int32.
MAX_SIEVE_X = 10 ** 8
DEFAULT_SEGMENT = 1 << 19
#: Segments in flight at once, each on its own thread of a per-call pool.
#: The segment length does not depend on it, so neither do the results.
SEGMENT_THREADS = 2

#: Frozen empirical constant for the O(u / log y) contracts of the
#: mean-vs-solver comparisons.
MEAN_GAP_CONSTANT = 10.0


def _segment_length() -> int:
    budget_mb = os.environ.get("SPECTRUM_BUDGET_MB")
    if not budget_mb:
        return DEFAULT_SEGMENT
    try:
        cap = max(1, int(budget_mb))
    except ValueError:
        raise ValidationError(f"SPECTRUM_BUDGET_MB={budget_mb!r} is not an integer")
    # tracemalloc, which traces the worker threads too, peaks at 48 bytes per
    # integer of each segment in flight in sieve_sums on a complex spec, plus
    # 30-180 kB per thread of numpy cast buffers and wheel patterns (32 on a
    # float64 spec, 16 on an int8 one, 14-18 in mth_root_log_density).  With
    # two segments in flight, 224 bytes per segment integer keeps the peak at
    # 0.59 of a 1 MB budget; a smaller constant would change the budgeted
    # segment lengths, and with them the last bits of the float sums.
    return max(1 << 12, min(DEFAULT_SEGMENT, cap * (1 << 20) // 224))


def primes_upto(n: int) -> np.ndarray:
    """Primes <= n as an int64 array (plain boolean sieve)."""
    if n < 2:
        return np.zeros(0, dtype=np.int64)
    mask = np.ones(n + 1, dtype=bool)
    mask[:2] = False
    for p in range(2, math.isqrt(n) + 1):
        if mask[p]:
            mask[p * p:: p] = False
    return np.nonzero(mask)[0].astype(np.int64)


def _prime_table(table: dict) -> dict:
    """The table with int keys in ascending order and complex values; every
    key must be a prime <= MAX_SIEVE_X."""
    out = {}
    for p, v in table.items():
        try:
            key = int(p)
        except (TypeError, ValueError, OverflowError):
            key = 0
        if key != p or not 2 <= key <= MAX_SIEVE_X:
            raise ValidationError(f"table key {p!r} is not a prime <= {MAX_SIEVE_X}")
        out[key] = complex(v)
    keys = np.array(sorted(out), dtype=np.int64)
    for q in primes_upto(math.isqrt(int(keys[-1])) if len(keys) else 0).tolist():
        composite = keys[(keys % q == 0) & (keys != q)]
        if len(composite):
            raise ValidationError(f"table key {composite[0]} is not a prime")
    return {int(p): out[p] for p in keys}


def _step_edges(breaks, y: float) -> np.ndarray:
    """For each break b, the smallest integer p >= 2 with log(p) / log(y) >= b,
    clamped to MAX_SIEVE_X + 1.  The edge is found with that float test
    itself, so every prime lands in the segment of chi(log p / log y)."""
    top = MAX_SIEVE_X + 1
    log_y = math.log(y)
    b = np.asarray(breaks, dtype=np.float64)

    def reached(p):
        return np.log(p.astype(np.float64)) / log_y >= b

    # exp() of the clamped exponent lands within a step or two of the edge.
    guess = np.exp(np.minimum(b, math.log(top) / log_y) * log_y)
    edges = np.clip(np.ceil(guess), 2, top).astype(np.int64)
    while True:
        down = (edges > 2) & reached(edges - 1)
        up = (edges < top) & ~reached(edges)
        if not (down.any() or up.any()):
            return edges
        edges[down] -= 1
        edges[up] += 1


@dataclass(frozen=True)
class MultiplicativeSpec:
    """Rule assigning f(p) to every prime.

    In ``step`` mode f(p) = chi(log p / log y); in ``table`` mode an
    explicit prime table applies with a default for unlisted primes.
    Complete multiplicativity is by construction: f(n) is the product of
    f(p)^a over the factorization of n.

    Either way f takes its values in a short ``palette`` (complex128) over
    integer edges: slot 0 holds f(1) = 1 below the first edge at 2, and
    each further edge opens the next slot.  In step mode a break b of chi
    becomes the smallest integer p with log(p) / log(y) >= b (clamped to
    MAX_SIEVE_X + 1) and the slots hold chi's segment values; in table mode
    each key k owns [k, k + 1) with the default in the gaps.
    ``palette_index`` is one ``np.searchsorted`` over those edges; the sieve
    finds its cofactors' slots by comparing with the edges above sqrt(x).
    """

    mode: str
    chi: StepFunction | None = None
    y: float = 0.0
    table: dict = field(default_factory=dict)
    default: complex = 1.0 + 0.0j

    def __post_init__(self):
        object.__setattr__(self, "default", complex(self.default))
        if self.mode == "step":
            if self.chi is None or not 1.0 < self.y < math.inf:
                raise ValidationError("step mode needs a kernel and a finite y > 1")
            edges = _step_edges(self.chi.breaks, self.y)
            values = self.chi.segment_values()
        elif self.mode == "table":
            table = _prime_table(self.table)
            # Written so that NaN fails the comparison.
            for p, v in table.items():
                if not abs(v) <= 1.0 + DISC_TOL:
                    raise ValidationError(f"f({p}) = {v} is not in the closed unit disc")
            if not abs(self.default) <= 1.0 + DISC_TOL:
                raise ValidationError("default value is not in the closed unit disc")
            object.__setattr__(self, "table", table)
            # Key k owns [k, k + 1); the default fills the gaps.
            edges = [e for k in table for e in (k, k + 1)]
            values = [self.default]
            for v in table.values():
                values += [v, self.default]
        else:
            raise ValidationError(f"unknown spec mode {self.mode!r}")
        # Slot 0 holds f(1) = 1, below the first prime.
        palette = np.array([1.0, *values], dtype=np.complex128)
        palette.setflags(write=False)
        object.__setattr__(self, "_edges", np.array([2, *edges], dtype=np.int32))
        object.__setattr__(self, "palette", palette)

    @classmethod
    def step(cls, chi: StepFunction, y: float) -> "MultiplicativeSpec":
        return cls("step", chi=chi, y=float(y))

    @classmethod
    def from_table(cls, table: dict, default=1.0) -> "MultiplicativeSpec":
        """Table spec; every key must be a prime <= MAX_SIEVE_X."""
        return cls("table", table=dict(table), default=complex(default))

    def palette_index(self, ps) -> np.ndarray:
        """Slot of f(p) in ``palette`` for each prime p in ps (and of
        f(1) = 1 for p = 1): the number of edges <= p."""
        return np.searchsorted(self._edges, ps, side="right")

    def values_at_primes(self, ps) -> np.ndarray:
        return self.palette[self.palette_index(ps)]

    def to_json(self) -> str:
        if self.mode == "step":
            payload = json.loads(self.chi.to_json())
            payload["y"] = self.y
        else:
            payload = {
                "table": [[p, v.real, v.imag] for p, v in sorted(self.table.items())],
                "default": [self.default.real, self.default.imag],
            }
        return json.dumps(payload)

    @classmethod
    def from_json(cls, text: str) -> "MultiplicativeSpec":
        try:
            raw = json.loads(text)
            if "y" in raw:
                chi = StepFunction._from_raw({k: raw[k] for k in ("breaks", "values", "tail")})
                return cls.step(chi, float(raw["y"]))
            if "table" in raw:
                table = {p: complex(re, im) for p, re, im in raw["table"]}
                default = complex(*raw.get("default", [1.0, 0.0]))
                return cls.from_table(table, default)
        except ValidationError:
            raise
        except (KeyError, TypeError, ValueError, IndexError) as exc:
            raise ValidationError(f"malformed spec JSON: {exc}") from None
        raise ValidationError("spec JSON needs either 'y' (step mode) or 'table'")


@dataclass(frozen=True)
class SieveResult:
    x: int
    partial_sum: complex
    log_sum: complex
    theta: complex
    prime_deficit: float

    def __post_init__(self):
        if abs(self.partial_sum) > self.x * (1.0 + 1e-12):
            raise ContractError("partial sum exceeds the trivial bound x")
        if abs(self.log_sum) > math.log(self.x) + 2.0:
            raise ContractError("logarithmic sum exceeds the harmonic bound")


def _theta_factor_product(ps: np.ndarray, fps: np.ndarray) -> complex:
    """Product of (1 - 1/p)(1 + f(p)/p + f(p)^2/p^2 + ...) = (1-1/p)/(1-f(p)/p).

    Real-valued f goes through float arithmetic so the telescoping cases
    (f(p) = 1, f(p) = 0) come out exact.
    """
    num = 1.0 - 1.0 / ps
    if np.all(fps.imag == 0):
        return complex(np.prod(num / (1.0 - fps.real / ps)))
    return complex(np.prod(num / (1.0 - fps / ps)))


def _check_budget(x: int) -> int:
    try:
        x = int(x)
    except (ValueError, OverflowError):
        raise ValidationError(f"x must be a finite number, got {x!r}") from None
    if x < 1:
        raise ValidationError("x must be at least 1")
    if x > MAX_SIEVE_X:
        shown = f"{x:.3g}" if x < 1e300 else f"10^{math.log10(x):.0f}"
        raise BudgetError(f"x = {shown} exceeds the sieve budget {MAX_SIEVE_X}")
    return x


#: Edges in (isqrt(x), x] that _cofactor_slots compares against one pass
#: each; with more it falls back to palette_index.  On the second
#: 2^19-integer segment of x = 10^7 (2-vCPU VM, NumPy 2.4.6, best of 45
#: calls per edge count, two runs), the slots' first comparison took 0.55 ms
#: and each pass (a division by the scalar edge, a comparison and an add)
#: 0.7-0.8 ms, about 1.4 ns per integer, while the fallback's n // s and
#: searchsorted over the int32 edges took 6.1-7.4 ms (12-14 ns per integer)
#: for 1 to 16 edges: 8 passes took 6.3-6.7 ms against 6.6-7.3, 9 tied or
#: lost (6.8-7.6 against 6.8-7.2) and 10 lost, 8.0-8.4 to 7.1-7.3.
_MAX_HI_EDGES = 8


def _cofactor_slots(spec: MultiplicativeSpec, x: int, n: np.ndarray,
                    s: np.ndarray) -> np.ndarray:
    """``spec.palette_index(n // s)`` (intp) for n <= x and their sieved
    parts s, each cofactor n // s 1 or a prime above isqrt(x).

    The k0 edges <= isqrt(x) lie below every such prime and above 1, and
    edges above x lie above every cofactor, so the slot is k0 * (n // s > 1)
    plus one comparison n // s >= e per edge e in (isqrt(x), x], as long as
    there are at most _MAX_HI_EDGES of those.  s divides n, so s < n and
    s <= n // e (one division by the scalar e, into an int32 buffer that
    every edge reuses) are those tests exactly.  The slots stay intp:
    narrower ones would only widen to an intp temporary in the gather.
    """
    edges = spec._edges
    k0 = int(np.searchsorted(edges, math.isqrt(x), side="right"))
    hi = edges[k0:np.searchsorted(edges, x, side="right")]
    if len(hi) > _MAX_HI_EDGES:
        return spec.palette_index(n // s)
    slots = np.empty(len(n), dtype=np.intp)
    np.less(s, n, out=slots)
    slots *= k0
    quot = np.empty_like(n)
    for e in hi.tolist():
        np.floor_divide(n, e, out=quot)
        slots += np.less_equal(s, quot, out=quot)
    return slots


#: Top power of each wheel prime: 16 * 9 * 5 * 7 = 5040 is the period of
#: the pattern that every segment starts from.
_WHEEL_TOPS = {2: 16, 3: 9, 5: 5, 7: 7}


def _factor_segments(x: int, base, base_vals, op, identity, dtype, *, finish):
    """Yield finish(n, acc, s) for each segment of [1, x], in segment order.

    Each power q = p^e <= hi of a base prime p <= sqrt(x) owns the strided
    view [start::q] of the multiples of q: there the sieved part s gains a
    factor p and acc is updated in place by op(acc, v), v the caller's value
    for p, primes ascending and then exponents ascending.  An update by the
    identity (f(p) = 1 under multiply, exponent 0 under add) is skipped.
    s is then the product of the prime powers <= sqrt(x) dividing n, and the
    cofactor n // s is 1 or the one prime factor of n above sqrt(x).  The
    segment is never divided: the caller's finish finds each cofactor's
    slot from n and s (by _cofactor_slots), applies its value there to
    every integer unmasked, the value at 1 being the identity, and returns
    the segment's sums.  acc has the caller's dtype, the narrowest exact
    one: for f in sieve_sums, and for the exponents mod m in the density
    (int8 while (x.bit_length() + 1) * (m - 1) <= 127).

    The base primes among 2, 3, 5, 7 form a wheel: s starts each segment as
    an np.tile slice of the pattern of their powers up to _WHEEL_TOPS (period
    5040 once 7 <= sqrt(x), 1 with no wheel prime), and the strided loop
    starts each wheel prime at its first power above the top.  An exact
    (integer) acc starts from the same pattern folded with op over the
    values; a float64 or complex128 acc keeps every strided update, since a
    wheel power above the top would otherwise multiply after the larger
    primes and change the rounding.

    A call of one segment (x no more than its length) runs it on the
    caller's thread.  Otherwise SEGMENT_THREADS segments are in flight at
    once, each built, sieved and finished wholly on one thread of a pool that
    lives for this generator only, and one more waits queued so that the
    threads stay busy while the caller folds; every worker has ended when the
    generator ends or closes.
    """
    exact = np.dtype(dtype).kind == "i"
    tops = [_WHEEL_TOPS.get(p, 1) for p in base.tolist()]
    period = math.prod(tops)
    s_wheel = np.ones(period, dtype=np.int32)
    acc_wheel = np.full(period if exact else 1, identity, dtype=dtype)
    for p, v, top in zip(base.tolist(), base_vals, tops):
        q = p
        while q <= top:
            s_wheel[q - 1::q] *= p
            if exact and v != identity:
                # The multiples of q, as p's powers up to q are in place.
                hit = s_wheel % q == 0
                acc_wheel[hit] = op(acc_wheel[hit], v)
            q *= p
    seg = _segment_length()

    def segment(lo):
        hi = min(x, lo + seg - 1)
        n = np.arange(lo, hi + 1, dtype=np.int32)
        s, acc = (np.tile(np.roll(w, 1 - lo), -(-len(n) // len(w)))[:len(n)]
                  for w in (s_wheel, acc_wheel))
        for p, v, top in zip(base.tolist(), base_vals, tops):
            acc_top = top if exact else 1
            idle = v == identity
            q = p
            while q <= hi:
                start = (-lo) % q
                # One view per update: `s[start::q] *= p` would also assign the view back.
                if q > top:
                    view = s[start::q]
                    np.multiply(view, p, out=view)
                if q > acc_top and not idle:
                    view = acc[start::q]
                    op(view, v, out=view)
                q *= p
        return finish(n, acc, s)

    if x <= seg:  # one segment: the caller's thread, no pool
        yield segment(1)
        return
    # Nothing kept grows with x: a segment's arrays are freed when its finish
    # returns, and the oldest result is yielded as soon as a segment queues.
    pending = []
    with ThreadPoolExecutor(SEGMENT_THREADS) as pool:
        for lo in range(1, x + 1, seg):
            pending.append(pool.submit(segment, lo))
            if len(pending) > SEGMENT_THREADS:
                yield pending.pop(0).result()
        yield from (future.result() for future in pending)


def sieve_sums(spec: MultiplicativeSpec, x: int) -> SieveResult:
    """Exact sums of f over n <= x by a segmented factorization sieve.

    Returns sum f(n), sum f(n)/n, the Euler product over p <= x of
    (1 + f(p)/p + ...)(1 - 1/p) and the prime deficit sum |1 - f(p)|/p.

    f(n) accumulates in int8 when every palette value is -1, 0 or 1 (so
    the partial sums are exact integers), in float64 for other real
    palettes and in complex128 otherwise.  Every integer then takes f at its
    cofactor n // s with no mask (f(1) = 1 has its own slot), its slot found
    from the sieved part s without dividing; the primes above sqrt(x) are
    the n > 1 with s == 1.  Each segment's sums come back from its worker
    and fold here in segment order.
    """
    x = _check_budget(x)
    partial = logsum = 0.0 + 0.0j
    palette = spec.palette
    if not palette.imag.any():
        unit = np.isin(palette.real, (-1.0, 0.0, 1.0)).all()
        palette = palette.real.astype(np.int8 if unit else np.float64)
    base = primes_upto(math.isqrt(x))
    fp_base = palette[spec.palette_index(base)]
    ps = base.astype(np.float64)
    theta = _theta_factor_product(ps, fp_base)
    deficit = float(np.sum(np.abs(1.0 - fp_base) / ps))

    def finish(n, acc, s):
        """(sum f, sum f/n, theta factor, deficit) over one segment; the last
        two are exactly 1 and 0.0 on a segment without primes above sqrt(x)."""
        fr = palette[_cofactor_slots(spec, x, n, s)]
        acc *= fr
        # s == 1 at n = 1 and at the primes above sqrt(x), whose f(p) is in fr.
        at = np.flatnonzero(s == 1)[1 if n[0] == 1 else 0:]
        fp = fr[at]
        ps = n[at].astype(np.float64)
        primes = _theta_factor_product(ps, fp), float(np.sum(np.abs(1.0 - fp) / ps))
        del fr, at, fp, ps
        # Dividing by the int32 n casts it to the exact float64 values that
        # a float64 copy would hold.
        return complex(np.sum(acc)), complex(np.sum(np.true_divide(acc, n))), *primes

    for part, log_part, theta_part, deficit_part in _factor_segments(
            x, base, fp_base, np.multiply, 1, palette.dtype, finish=finish):
        partial += part
        logsum += log_part
        theta *= theta_part
        deficit += deficit_part
    return SieveResult(x, partial, logsum, theta, deficit)


def naive_sums(spec: MultiplicativeSpec, x: int):
    """Per-n trial-division reference for the sieve (test oracle, x small)."""
    if x > 10 ** 5:
        raise BudgetError("naive reference is for small x only")
    partial = 0.0 + 0.0j
    logsum = 0.0 + 0.0j
    for n in range(1, x + 1):
        m = n
        val = 1.0 + 0.0j
        p = 2
        while p * p <= m:
            while m % p == 0:
                val *= complex(spec.values_at_primes(np.array([p]))[0])
                m //= p
            p += 1
        if m > 1:
            val *= complex(spec.values_at_primes(np.array([m]))[0])
        partial += val
        logsum += val / n
    return partial, logsum


def _check_u(u: float) -> float:
    """u, if u >= 1: the C*u/log(y) envelope that the comparisons check
    describes x = y^u >= y, so u < 1 (and NaN) is rejected, not widened."""
    if not u >= 1.0:
        raise ValidationError(f"u must be at least 1, got {u}")
    return u


def _step_sieve(chi: StepFunction, y: float, u: float):
    """(sieve sums, y^u) for the step-mode f up to x = y^u, u >= 1."""
    xf = float(y) ** _check_u(u)
    if xf > MAX_SIEVE_X + 0.5:
        raise BudgetError(f"y^u = {xf:.3g} exceeds the sieve budget {MAX_SIEVE_X}")
    return sieve_sums(MultiplicativeSpec.step(chi, y), int(xf + 1e-9)), xf


def mean_vs_sigma(chi: StepFunction, y: float, u: float, h: float = 1e-3):
    """(sieve mean, solver value, gap) at x = y^u for the step-mode f.

    The mean (1/y^u) sum_{n <= y^u} f(n) is compared against sigma(u); the
    gap is checked against the calibrated C*u/log(y) envelope.
    """
    res, xf = _step_sieve(chi, y, u)
    oracle = res.partial_sum / xf
    return (oracle, *_sigma_gap(chi, y, u, h, oracle))


def _sigma_gap(chi: StepFunction, y: float, u: float, h: float, mean: complex):
    """(sigma(u), gap) for a sieve mean at u >= 1, the gap checked against C*u/log y."""
    sigma_val = complex(solve_sigma(chi, u, h).value_at(u))
    gap = abs(mean - sigma_val)
    _check_gap("mean", gap, y, u)
    return sigma_val, gap


def _check_gap(label: str, gap: float, y: float, u: float) -> None:
    cap = MEAN_GAP_CONSTANT * u / math.log(y)
    if gap > cap:
        raise ContractError(f"{label} gap {gap:.4f} exceeds {cap:.4f}")


def log_mean_vs_integral(chi: StepFunction, y: float, u: float, h: float = 1e-3):
    """(sieve logarithmic mean, averaged solver integral, gap) at x = y^u."""
    res, xf = _step_sieve(chi, y, u)
    oracle = res.log_sum / math.log(xf)
    sol = solve_sigma(chi, u, h)
    C = sol.sigma.cumulative()
    integral_mean = complex(GridFunction(h, C).value_at(u)) / u
    gap = abs(oracle - integral_mean)
    _check_gap("log-mean", gap, y, u)
    return oracle, integral_mean, gap


def kronecker(D: int, n: int) -> int:
    """Kronecker symbol (D / n) for n >= 1, completely multiplicative in n."""
    if D == 0:
        raise ValidationError("D must be nonzero")
    if n <= 0:
        raise ValidationError("n must be positive")
    result = 1
    while n % 2 == 0:
        n //= 2
        if D % 2 == 0:
            return 0
        if D % 8 in (3, 5):
            result = -result
    a = D % n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a, n = n % a, a
    return result if n == 1 else 0


def _integer(value, name: str) -> int:
    """value as an int, if it is a whole number (NaN and infinities are not)."""
    try:
        if value == int(value):
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ValidationError(f"{name} must be an integer, got {value}")


def _product(factors: list) -> int:
    """prod(factors) over a balanced tree; math.prod's running product is quadratic."""
    while len(factors) > 1:
        factors = [math.prod(factors[i:i + 2]) for i in range(0, len(factors), 2)]
    return factors[0]


def _squarefree_mask(limit: int) -> np.ndarray:
    mask = np.ones(limit + 1, dtype=bool)
    mask[0] = False
    for p in primes_upto(math.isqrt(limit)):
        mask[p * p:: p * p] = False
    return mask


#: Kronecker terms (discriminants times (log X)^B) per discriminant average:
#: about 1 us each (1.3 s for the 1.34e6 of X = 10^5, B = 2), so 10 s in all.
MAX_KRONECKER_TERMS = 10 ** 7


@dataclass(frozen=True)
class DiscriminantAverage:
    average: complex
    truncated_sum: complex
    count: int
    progression: tuple  # (a, P)


def discriminant_char_average(X: int, B: float, z: int, f_signs: dict) -> DiscriminantAverage:
    """Average of sum_{n <= (log X)^B} (D/n) over fundamental discriminants
    D <= X in the progression pinned by the sign choices at primes <= z.

    Also returns sum_{n <= (log X)^B} f(n), by sieve_sums, for the truncated
    completely multiplicative f (f(p) = signs for p <= z, 0 above) for
    side-by-side comparison.  z must be an integer in [2, X] and B >= 0.
    """
    if isinstance(X, float) and not math.isfinite(X):
        raise ValidationError(f"X must be finite, got {X}")
    X = int(X)
    if X > 10 ** 6:
        raise BudgetError("X exceeds the 10^6 discriminant budget")
    if X < 100:
        raise ValidationError("X too small to enumerate discriminants")
    z = _integer(z, "z")  # z and B before primes_upto(z) allocates
    if not 2 <= z <= X:
        raise ValidationError(f"z must lie in [2, X] = [2, {X}], got {z}")
    if not 0 <= B < math.inf:
        raise ValidationError(f"B must be finite and nonnegative, got {B}")
    small = [int(p) for p in primes_upto(z)]
    for p in small:
        if f_signs.get(p) not in (1, -1):
            raise ValidationError(f"f_signs must fix +-1 at every prime <= z (missing {p})")
    moduli = [8] + small[1:]
    residues = [1 if f_signs[2] == 1 else 5]
    for p in small[1:]:
        residues.append(next(r for r in range(1, p) if kronecker(r, p) == f_signs[p]))
    # CRT until the modulus m passes X.  From there a mod m holds at most one
    # D <= X, a itself, which is in the progression if it meets the remaining
    # congruences, and is then their CRT value mod P too.
    a, m, k = 0, 1, 0
    while k < len(moduli) and m <= X:
        q = moduli[k]
        a += m * ((residues[k] - a) * pow(m, -1, q) % q)
        m *= q
        k += 1
    rest = list(zip(residues[k:], moduli[k:]))
    sqfree = _squarefree_mask(X)
    discs = [d for d in range(a, X + 1, m) if sqfree[d] and all(d % q == r for r, q in rest)]
    if not discs:
        raise ValidationError(f"no fundamental discriminants <= {X} in the progression "
                              f"that the signs at the primes <= {z} fix")

    # Past B = 64, N > 4.6^64 > 10^42 is over budget; the cap keeps it finite.
    N = int(math.log(X) ** min(B, 64.0) + 1e-9)
    if len(discs) * N > MAX_KRONECKER_TERMS:
        raise BudgetError(f"{len(discs)} discriminants x {N} terms exceed the budget "
                          f"{MAX_KRONECKER_TERMS}; lower X or B")
    total = 0
    for d in discs:
        total += sum(kronecker(d, n) for n in range(1, N + 1))
    average = total / len(discs)

    # f is 0 above z, so its values are 1, +-1 and 0 and the int8 sieve sum is
    # exact; the sieve reads f only at the primes <= N.
    fsum = sieve_sums(MultiplicativeSpec.from_table(
        {p: f_signs[p] for p in small if p <= N}, 0.0), N).partial_sum
    return DiscriminantAverage(complex(average), fsum, len(discs), (a, _product(moduli)))


#: Count updates m * (1 + sum_i min(R_i, cycle_i)) per subset_sum_counts
#: call: 110-200 ns each (0.68 s for the 3.4e6 of m = 200003), so about 1 s.
MAX_SUBSET_STEPS = 5 * 10 ** 6


def subset_sum_counts(a, R, m: int) -> int:
    """Exact count of (r_i), 0 <= r_i <= R_i - 1, with sum r_i a_i = 0 mod m.

    R = None means R_i = 2 throughout (the subset case).  The count is
    checked against the floor prod(R_i) / 2^(m-1).
    """
    a = [int(v) for v in a]
    n = len(a)
    if n > 24:
        raise BudgetError("n exceeds the exhaustive budget 24")
    m = _integer(m, "m")
    if m < 2:
        raise ValidationError("m must be at least 2")
    if R is None:
        R = [2] * n
    R = [int(r) for r in R]
    if len(R) != n:
        raise ValidationError("R must match a in length")
    if any(r < 2 for r in R):
        raise ValidationError("each R_i must be at least 2")
    cycles = [m // math.gcd(ai, m) for ai in a]  # the periods of r_i * a_i mod m
    steps = m * (1 + sum(map(min, R, cycles)))
    if steps > MAX_SUBSET_STEPS:
        raise BudgetError(f"{steps} count updates exceed the budget {MAX_SUBSET_STEPS}")

    counts = [0] * m
    counts[0] = 1
    for ai, Ri, cycle in zip(a, R, cycles):
        step_counts = [0] * m
        base, extra = divmod(Ri, cycle)
        for j in range(cycle):
            s = (j * ai) % m
            step_counts[s] += base + (1 if j < extra else 0)
        new = [0] * m
        for s, c in enumerate(step_counts):
            if not c:
                continue
            for r in range(m):
                new[(r + s) % m] += c * counts[r]
        counts = new
    total = counts[0]
    prod_R = math.prod(R)
    if total * (1 << (m - 1)) < prod_R:
        raise ContractError(f"count {total} below the floor {prod_R}/2^{m - 1}")
    return total


#: Largest order of a root of unity that the density recognises.  The m-th
#: roots lie 2*pi/m apart, so past m = pi * 10^9 every unit value would pass
#: the 1e-9 test as one of them.
MAX_ROOT_ORDER = 10 ** 6


def _root_exponents(values: np.ndarray, m: int) -> np.ndarray:
    """e with values = exp(2*pi*i*e/m) to within 1e-9, each value a root of
    unity of an order q that divides m, q <= MAX_ROOT_ORDER.

    Each value is tested as a q-th root for every such q, and its nearest
    q-th root taken; for m <= MAX_ROOT_ORDER that is its nearest m-th root.
    """
    q = np.arange(1, min(m, MAX_ROOT_ORDER) + 1, dtype=np.int64)
    q = q[m % q == 0]
    angles = np.angle(values)[:, None]
    exps = np.rint(angles * q / (2.0 * math.pi)).astype(np.int64) % q
    dist = np.abs(values[:, None] - np.exp(2j * math.pi * exps / q))
    k = np.argmin(dist, axis=1)
    bad = dist[np.arange(len(values)), k] > 1e-9
    if np.any(bad):
        raise ValidationError(
            f"value {values[bad][0]} is not an m-th root of unity of order at most "
            f"{MAX_ROOT_ORDER} (m={m})")
    # e < q, so e * (m // q) < m fits in int64.
    return exps[np.arange(len(values)), k] * (m // q[k])


def mth_root_log_density(spec: MultiplicativeSpec, x: int, m: int) -> float:
    """(1/log x) * sum over n <= x with f(n) = 1 of 1/n, exactly.

    Every palette value of the spec must be an m-th root of unity, even one
    that no prime <= x takes (an unused non-root table value or default also
    raises); the accumulated product is tracked as an exponent mod m so
    equality with 1 is an integer test.
    """
    # Written so that NaN fails the comparison.
    if not m >= 1:
        raise ValidationError("m must be positive")
    if m >= 2 ** 63:
        raise ValidationError("m must be below 2^63, the int64 exponent range")
    m = _integer(m, "m")
    x = _check_budget(x)
    if x > 10 ** 7:
        raise BudgetError("x exceeds the 10^7 density budget")
    if x < 2:
        raise ValidationError("x must be at least 2 for a logarithmic density")
    total = 0.0
    # n <= x has fewer than x.bit_length() prime factors, each adding an
    # exponent <= m - 1: int8 holds every sum for m <= 6 at x <= 10^7.
    bound = (x.bit_length() + 1) * (m - 1)
    dtype = np.int8 if bound <= 127 else np.int16 if bound <= 32767 else np.int64
    exps = _root_exponents(spec.palette, m)
    # The values generate the roots of order m // g: the sums are tested
    # modulo that order, so they wrap int64 only if that order is huge.
    g = math.gcd(m, *exps.tolist())
    m //= g
    if (x.bit_length() + 1) * (m - 1) > np.iinfo(np.int64).max:
        raise ValidationError(f"the values generate roots of order {m}, too many for "
                              f"int64 exponent sums at x = {x}")
    exps = (exps // g).astype(dtype)
    base = primes_upto(math.isqrt(x))
    base_exps = exps[spec.palette_index(base)]

    def finish(n, expo, s):
        """sum 1/n over the segment's n with f(n) = 1."""
        expo += exps[_cofactor_slots(spec, x, n, s)]
        good = (expo % m) == 0
        return float(np.sum(1.0 / n[good].astype(np.float64)))

    # Folded in segment order, never by sum(), which compensates since 3.12.
    for part in _factor_segments(x, base, base_exps, np.add, 0, dtype, finish=finish):
        total += part
    return total / math.log(x)
