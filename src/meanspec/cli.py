"""Command-line front end.

Subcommands: solve, bounds, constants, gamma-prime, gamma-b, spectrum,
oracle, verify.  Artifacts are written atomically (temp file + rename);
exit codes: 0 success, 1 validation error, 2 assertion/verification
failure, 3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
import tempfile

import numpy as np

from . import arithmetic_oracle as oracle
from . import extremal_search as extremal
from . import series_bounds as series
from . import spectrum_region as region
from .acceptance import run_suite
from .dde_solver import solve_sigma
from .errors import BudgetError, ContractError, ValidationError
from .kernels import GridFunction, StepFunction


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-meanspec-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _emit(args, text: str) -> None:
    out = getattr(args, "out", None)
    if out:
        _write_atomic(out, text)
    else:
        sys.stdout.write(text)


def _load_kernel(path: str) -> StepFunction:
    try:
        with open(path) as fh:
            return StepFunction.from_json(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read kernel file {path}: {exc}")


#: Stand-in for a float list while json lays out the rest of the payload.
_FLOATS_MARK = "\x00floats\x00%d"
_FLOATS_SLOT = re.compile(r'^( *)(.*)"\\u0000floats\\u0000(\d+)"', re.M)


def _json_dumps(payload) -> str:
    """json.dumps(payload, indent=2, sort_keys=True) plus a newline, refusing NaN.

    json's indented encoder is pure Python, so every list of floats is lifted
    out first and written as one join of reprs at its indentation: the same
    bytes, since json spells a finite float as its repr.
    """
    lists = []

    def lift(obj):
        if isinstance(obj, dict):
            return {k: lift(v) for k, v in obj.items()}
        if isinstance(obj, list):
            if obj and set(map(type, obj)) == {float}:
                lists.append(obj)
                return _FLOATS_MARK % (len(lists) - 1)
            return [lift(v) for v in obj]
        return obj

    def place(m):
        pad = m.group(1) + "  "
        body = (",\n" + pad).join(map(repr, lists[int(m.group(3))]))
        if "n" in body:  # only "nan" and "inf" hold an n
            raise ContractError("refusing to write a non-finite value")
        return f"{m.group(1)}{m.group(2)}[\n{pad}{body}\n{m.group(1)}]"

    try:
        text = json.dumps(lift(payload), indent=2, sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise ContractError(f"refusing to write a non-finite value: {exc}") from None
    return _FLOATS_SLOT.sub(place, text) + "\n"


def _cmd_solve(args) -> int:
    chi = _load_kernel(args.chi)
    sol = solve_sigma(chi, args.umax, args.h)
    _emit(args, sol.sigma.to_csv())
    return 0


def _cmd_bounds(args) -> int:
    chi = _load_kernel(args.chi)
    if chi.is_real:
        report = series.sandwich(chi, args.kmax, args.umax, args.h)
    else:
        report = series.complex_bounds(chi, args.umax, args.h)
    _emit(args, _json_dumps(report.to_json_dict()))
    return 0


def _cmd_constants(args) -> int:
    d1, d0i, d0s = extremal.delta_constants()
    proj = extremal.projection_auxiliary_minimum()
    payload = {
        "delta1": d1,
        "delta0": d0i,
        "delta0_series": d0s,
        "projection_alpha0": proj.argmin,
        "projection_minimum": proj.value,
    }
    if args.format == "json":
        _emit(args, _json_dumps(payload))
    else:
        _emit(args, "".join(f"{k} = {v:.12g}\n" for k, v in payload.items()))
    return 0


#: Most m values per gamma-prime call: each is one 600-point scan and a
#: golden-section refinement, about a millisecond, so 1000 take about a second.
MAX_M_VALUES = 1000


def _parse_m_range(text: str):
    try:
        ends = [int(t) for t in text.split("..", 1)]
    except ValueError:
        raise ValidationError(f"--m must be an integer or a range like 3..6, "
                              f"got {text!r}") from None
    lo, hi = ends[0], ends[-1]
    if hi < lo:
        raise ValidationError(f"--m {text} is an empty range; write it as low..high")
    if hi - lo + 1 > MAX_M_VALUES:
        raise BudgetError(f"--m {text} holds {hi - lo + 1} values, over the budget {MAX_M_VALUES}")
    return range(lo, hi + 1)


def _cmd_gamma_prime(args) -> int:
    payload = {}
    for m in _parse_m_range(args.m):
        r = extremal.power_residue_log_density_bound(m)
        payload[str(m)] = {"bound": r.value, "beta": r.argmin,
                           "log_bound": r.diagnostics["log_bound"]}
    _emit(args, _json_dumps(payload))
    return 0


def _cmd_gamma_b(args) -> int:
    r = extremal.truncated_kernel_min_mean(
        args.B, m_steps=args.steps, h=args.h, restarts=args.restarts,
        seed=args.seed)
    payload = {
        "B": args.B,
        "value": r.value,
        "argmin": json.loads(r.argmin.to_json()),
        "diagnostics": {k: v for k, v in r.diagnostics.items()},
    }
    _emit(args, _json_dumps(payload))
    return 0


def _parse_set(text: str) -> region.SetSpec:
    kind, _, rest = text.partition(":")
    try:
        if kind == "sk":
            return region.SetSpec.roots_of_unity(int(rest))
        if kind == "interval":
            lo, hi = (float(v) for v in rest.split(",")) if rest else (-1.0, 1.0)
            return region.SetSpec.real_interval(lo, hi)
        if kind == "sector":
            return region.SetSpec.sector(float(rest))
        if kind == "points":
            pts = []
            for token in rest.split(";"):
                re_s, im_s = token.split(",")
                pts.append(complex(float(re_s), float(im_s)))
            return region.SetSpec.from_points(pts)
    except ValidationError:
        raise
    except ValueError:
        raise ValidationError(f"malformed set spec {text!r}") from None
    raise ValidationError(f"unknown set spec {text!r}; use sk:K, interval:lo,hi, "
                          "sector:theta, or points:re,im;...")


def _points_csv(points) -> str:
    z = np.asarray(points, dtype=np.complex128)
    if not np.all(np.isfinite(z)):
        raise ContractError("refusing to write a non-finite value")
    rows = map("{:.12g},{:.12g}".format, z.real.tolist(), z.imag.tolist())
    return "\n".join(["re,im", *rows]) + "\n"


def _cmd_spectrum(args) -> int:
    if not 0.0 <= args.kmax < math.inf:
        raise ValidationError(f"--kmax must be finite and nonnegative, got {args.kmax}")
    S = _parse_set(args.set)
    if args.what == "spirals":
        cloud = region.euler_spiral_cloud(S, k_max=args.kmax)
        _emit(args, _points_csv(cloud.points))
    elif args.what == "contour":
        theta = region.ang(S)
        if not (0.0 < theta < math.pi / 2):
            raise ValidationError(
                f"contour needs a set with angle in (0, pi/2); got {theta}")
        cloud = region.sector_set_contour(theta)
        _emit(args, _points_csv(cloud.points))
    else:  # logregion
        poly = region.log_spectrum_region(S, args.depth)
        closed = list(poly) + [poly[0]] if len(poly) > 1 else list(poly)
        _emit(args, _json_dumps(
            {"set": S.label, "depth": args.depth,
             "vertices": [[z.real, z.imag] for z in closed]}))
    return 0


def _cmd_oracle(args) -> int:
    try:
        with open(args.spec) as fh:
            spec = oracle.MultiplicativeSpec.from_json(fh.read())
    except OSError as exc:
        raise ValidationError(f"cannot read spec file {args.spec}: {exc}")
    try:
        x = int(float(args.x))
    except (ValueError, OverflowError):
        raise ValidationError(f"--x must be a finite number, got {args.x!r}") from None
    res = oracle.sieve_sums(spec, x)
    mean = res.partial_sum / res.x
    payload = {
        "x": res.x,
        "mean": [mean.real, mean.imag],
        "log_sum": [res.log_sum.real, res.log_sum.imag],
        "theta": [res.theta.real, res.theta.imag],
        "prime_deficit": res.prime_deficit,
    }
    if args.compare_sigma:
        if spec.mode != "step":
            raise ValidationError("--compare-sigma needs a step-mode spec")
        u = oracle._check_u(math.log(x) / math.log(spec.y))
        s, gap = oracle._sigma_gap(spec.chi, spec.y, u, args.h, mean)
        payload["compare_sigma"] = {
            "u": u,
            "oracle": [mean.real, mean.imag],
            "sigma": [s.real, s.imag],
            "gap": gap,
        }
    _emit(args, _json_dumps(payload))
    return 0


def _cmd_verify(args) -> int:
    only = args.only.split(",") if args.only else None
    try:
        results = run_suite(args.suite, only=only)
    except ValueError as exc:
        raise ValidationError(str(exc))
    lines = []
    for r in results:
        lines.append(f"{'PASS' if r.passed else 'FAIL'}  {r.name:<30} "
                     f"{r.seconds:7.1f}s  {r.detail}")
    text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if getattr(args, "out", None):
        _write_atomic(args.out, text)
    return 0 if all(r.passed for r in results) else 2


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meanspec",
        description="Numerics for mean values of completely multiplicative "
                    "functions: delay-equation solver, certified envelopes, "
                    "spectrum geometry, extremal searches, sieve cross-checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the delay integral equation")
    p.add_argument("--chi", required=True, help="kernel JSON file")
    p.add_argument("--umax", type=float, required=True)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out", help="CSV output path (default: stdout)")
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("bounds", help="certified envelopes around sigma")
    p.add_argument("--chi", required=True)
    p.add_argument("--kmax", type=int, default=12)
    p.add_argument("--umax", type=float, default=8.0)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_bounds)

    p = sub.add_parser("constants", help="explicit constants")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_constants)

    p = sub.add_parser("gamma-prime",
                       help="series bound for m-th power residue log densities")
    p.add_argument("--m", required=True, help="single m or range like 3..6")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gamma_prime)

    p = sub.add_parser("gamma-b", help="minimum mean over truncated kernels")
    p.add_argument("--B", type=float, required=True)
    p.add_argument("--steps", type=int, default=8)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gamma_b)

    p = sub.add_parser("spectrum", help="region samples and polygons")
    p.add_argument("--set", required=True,
                   help="sk:K | interval:lo,hi | sector:theta | points:re,im;...")
    p.add_argument("--what", choices=("spirals", "contour", "logregion"),
                   required=True)
    p.add_argument("--kmax", type=float, default=8.0)
    p.add_argument("--depth", type=int, default=8)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("oracle", help="sieve sums over actual integers")
    p.add_argument("--spec", required=True, help="multiplicative spec JSON")
    p.add_argument("--x", required=True, help="sieve limit (float syntax ok)")
    p.add_argument("--compare-sigma", action="store_true")
    p.add_argument("--h", type=float, default=1e-3)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_oracle)

    p = sub.add_parser("verify", help="run the acceptance suite")
    p.add_argument("--suite", choices=("quick", "full"), default="quick")
    p.add_argument("--only", help="comma-separated criterion numbers")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """build_parser's parser, built once per process: parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except ValidationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except ContractError as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 2
    except BudgetError as exc:
        print(f"resource budget exceeded: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
