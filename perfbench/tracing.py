"""In-memory span recorder that wraps meanspec's public functions from outside.

The library is not modified.  Each traced function is replaced, for the
duration of a traced run, by a wrapper that records one span per call:
name, layer, start, end, parent span and job id.  A name imported with
``from .dde_solver import solve_sigma`` is a separate binding in the
importing module, so the recorder replaces *every* attribute of every
loaded ``meanspec`` module that is the original function object, not just
the one in the defining module.

Counts are computed from outside the library: solver nodes from the length
of the returned ``sigma`` array, sieve integers from the ``x`` argument,
segments as ceil(x / segment length), extremal evaluations from the
result's ``diagnostics``, CLI bytes from the size of the ``--out`` artifact.
"""

from __future__ import annotations

import functools
import importlib
import math
import os
import sys
import time
from dataclasses import dataclass, field

from meanspec.arithmetic_oracle import DEFAULT_SEGMENT

#: Layer of the spans recorded around ``scipy.signal.convolve``: such a
#: span takes the layer of the span that called it, so transform time stays
#: inside the self time of the layer that asked for the transform.
INHERIT = ""


@dataclass
class Span:
    name: str
    layer: str
    start: float
    end: float
    parent: int
    job: int
    counts: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _solve_counts(args, kwargs, result) -> dict:
    return {"nodes": len(result.sigma.samples)}


def _delay_grid_counts(args, kwargs, result) -> dict:
    return {"nodes": len(result.samples)}


def _delay_scalar_counts(args, kwargs, result) -> dict:
    u = float(args[0])
    h = float(args[1]) if len(args) > 1 else float(kwargs.get("h", 1e-4))
    # The scalar functions march the same grid as the *_grid functions up to
    # u, and return 1 without marching for u <= 1.
    nodes = max(1, math.ceil(u / h - 1e-9)) + 1 if u > 1.0 else 0
    return {"nodes": nodes}


def _segment_counts(args, kwargs, result) -> dict:
    x = int(args[1] if len(args) > 1 else kwargs["x"])
    return {"integers": x, "segments": -(-x // DEFAULT_SEGMENT)}


def _search_counts(args, kwargs, result) -> dict:
    return {"evaluations": int(result.diagnostics["evaluations"]),
            "value": float(result.value)}


def _cli_counts(args, kwargs, result) -> dict:
    argv = list(args[0] if args else kwargs.get("argv") or [])
    if "--out" in argv:
        path = argv[argv.index("--out") + 1]
        if os.path.exists(path):
            return {"bytes": os.path.getsize(path)}
    return {"bytes": 0}


CONSTANT_FUNCTIONS = ("delta_constants", "power_residue_log_density_bound",
                      "projection_auxiliary_minimum", "log_gap_endpoint_values")
SERIES_FUNCTIONS = ("sandwich", "complex_bounds", "iterated_integral",
                    "sigma_partial", "tail_envelope")
DELAY_FUNCTIONS = ("dickman_rho", "rho_minus", "dickman_rho_grid", "rho_minus_grid")
SPECTRUM_FUNCTIONS = ("euler_spiral_cloud", "sector_set_contour",
                      "log_spectrum_products", "log_spectrum_region",
                      "containment_report", "special_radii", "hausdorff_distance")

#: (module, function, layer, count function) for every traced function.
TARGETS = (
    [("meanspec.dde_solver", "solve_sigma", "dde_solver", _solve_counts),
     ("meanspec.dde_solver", "trapezoid_convolution_with_kernel", "dde_solver", None)]
    + [("meanspec.series_bounds", name, "series_bounds", None) for name in SERIES_FUNCTIONS]
    + [("meanspec.extremal_search", "truncated_kernel_min_mean",
        "extremal_search", _search_counts),
       ("meanspec.extremal_search", "minus_kernel_sign_changes", "extremal_search", None)]
    + [("meanspec.extremal_search", name, "extremal_search", None)
       for name in CONSTANT_FUNCTIONS]
    + [("meanspec.kernels", name, "kernels", _delay_scalar_counts)
       for name in ("dickman_rho", "rho_minus")]
    + [("meanspec.kernels", name, "kernels", _delay_grid_counts)
       for name in ("dickman_rho_grid", "rho_minus_grid")]
    + [("meanspec.arithmetic_oracle", name, "arithmetic_oracle", _segment_counts)
       for name in ("sieve_sums", "mth_root_log_density")]
    + [("meanspec.arithmetic_oracle", name, "arithmetic_oracle", None)
       for name in ("mean_vs_sigma", "log_mean_vs_integral")]
    + [("meanspec.spectrum_region", name, "spectrum_region", None)
       for name in SPECTRUM_FUNCTIONS]
    + [("meanspec.cli", "main", "cli", _cli_counts),
       ("scipy.signal", "convolve", INHERIT, None)]
)


class SpanRecorder:
    """Records spans while ``job`` is set; passes calls straight through otherwise."""

    def __init__(self):
        self.spans: list[Span] = []
        self.job: int | None = None
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn, count):
        rec = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if rec.job is None:
                return fn(*args, **kwargs)
            parent = rec._stack[-1] if rec._stack else -1
            span_layer = layer
            if layer == INHERIT:
                span_layer = rec.spans[parent].layer if parent >= 0 else "scipy"
            span = Span(name, span_layer, time.perf_counter(), 0.0, parent, rec.job)
            rec._stack.append(len(rec.spans))
            rec.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                rec._stack.pop()
            if count is not None:
                span.counts = count(args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        """Replace every binding of every target in the loaded meanspec modules."""
        if self._patches:
            raise RuntimeError("recorder already installed")
        importlib.import_module("meanspec.cli")
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "meanspec" or n.startswith("meanspec."))]
        for mod_name, attr, layer, count in TARGETS:
            home = importlib.import_module(mod_name)
            original = getattr(home, attr)
            wrapper = self._wrap(attr if layer != INHERIT else "transform",
                                 layer, original, count)
            sites = [home] + [m for m in modules if m is not home]
            for mod in sites:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self) -> None:
        for mod, key, original in reversed(self._patches):
            setattr(mod, key, original)
        self._patches.clear()

    def binding_count(self, attr: str) -> int:
        """Number of module attributes replaced for the function named attr."""
        return sum(1 for mod, key, orig in self._patches
                   if getattr(orig, "__name__", key) == attr)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _ancestors(spans, i):
    p = spans[i].parent
    while p >= 0:
        yield spans[p]
        p = spans[p].parent


def layer_metrics(spans: list[Span]) -> dict:
    """Per-layer counts and times from a finished list of spans.

    Self time of a span is its duration minus the durations of its direct
    children; a layer's self time is the sum over its spans.
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            child_time[s.parent] += s.duration
    self_time = [s.duration - c for s, c in zip(spans, child_time)]

    def total(pred, value):
        return sum(value(i, s) for i, s in enumerate(spans) if pred(i, s))

    def count(pred):
        return sum(1 for i, s in enumerate(spans) if pred(i, s))

    def named(*names):
        return lambda i, s: s.name in names

    def self_of(i, s):
        return self_time[i]

    def dur(i, s):
        return s.duration

    def counted(key):
        return lambda i, s: s.counts.get(key, 0)

    def in_layer(layer):
        return lambda i, s: s.layer == layer

    def under(name):
        return lambda i, s: any(a.name == name for a in _ancestors(spans, i))

    solve = named("solve_sigma")
    nodes = total(solve, counted("nodes"))
    solve_self = total(solve, self_of)
    search = named("truncated_kernel_min_mean")
    search_time = total(search, dur)
    search_solves = count(lambda i, s: solve(i, s) and under("truncated_kernel_min_mean")(i, s))
    n_search = count(search)
    transform_in_series = (lambda i, s: s.name == "transform"
                           and s.layer == "series_bounds")
    sieve = named("sieve_sums")
    density = named("mth_root_log_density")
    sieve_ints = total(sieve, counted("integers"))
    density_ints = total(density, counted("integers"))
    oracle_ints = named("sieve_sums", "mth_root_log_density")

    return {
        "dde_solver.solve_calls": (count(solve), "count"),
        "dde_solver.nodes": (nodes, "count"),
        "dde_solver.solve_self_s": (solve_self, "s"),
        "dde_solver.ns_per_node": (1e9 * solve_self / nodes if nodes else 0.0, "ns"),
        "dde_solver.residual_calls": (count(named("trapezoid_convolution_with_kernel")), "count"),
        "dde_solver.residual_s": (total(named("trapezoid_convolution_with_kernel"), dur), "s"),
        "dde_solver.self_s": (total(in_layer("dde_solver"), self_of), "s"),
        "series_bounds.calls": (count(named(*SERIES_FUNCTIONS)), "count"),
        "series_bounds.self_s": (total(in_layer("series_bounds"), self_of), "s"),
        "series_bounds.transform_calls": (count(transform_in_series), "count"),
        "series_bounds.transform_s": (total(transform_in_series, dur), "s"),
        "extremal_search.evaluations": (total(search, counted("evaluations")), "count"),
        "extremal_search.self_s": (total(in_layer("extremal_search"), self_of), "s"),
        "extremal_search.solves_per_s": (search_solves / search_time if search_time else 0.0, "1/s"),
        "extremal_search.constants_s": (total(named(*CONSTANT_FUNCTIONS), dur), "s"),
        "extremal_search.min_value_mean": (total(search, counted("value")) / n_search
                                           if n_search else 0.0, "sigma"),
        "kernels.delay_calls": (count(named(*DELAY_FUNCTIONS)), "count"),
        "kernels.delay_nodes": (total(named(*DELAY_FUNCTIONS), counted("nodes")), "count"),
        "kernels.delay_s": (total(named(*DELAY_FUNCTIONS), dur), "s"),
        "arithmetic_oracle.integers": (total(oracle_ints, counted("integers")), "count"),
        "arithmetic_oracle.segments": (total(oracle_ints, counted("segments")), "count"),
        "arithmetic_oracle.self_s": (total(in_layer("arithmetic_oracle"), self_of), "s"),
        "arithmetic_oracle.sieve_ns_per_int": (1e9 * total(sieve, dur) / sieve_ints
                                               if sieve_ints else 0.0, "ns"),
        "arithmetic_oracle.density_ns_per_int": (1e9 * total(density, dur) / density_ints
                                                 if density_ints else 0.0, "ns"),
        "arithmetic_oracle.compare_self_s": (total(named("mean_vs_sigma", "log_mean_vs_integral"),
                                                   self_of), "s"),
        "spectrum_region.calls": (count(named(*SPECTRUM_FUNCTIONS)), "count"),
        "spectrum_region.self_s": (total(in_layer("spectrum_region"), self_of), "s"),
        "cli.calls": (count(named("main")), "count"),
        "cli.self_s": (total(in_layer("cli"), self_of), "s"),
        "cli.bytes_written": (total(named("main"), counted("bytes")), "bytes"),
    }
