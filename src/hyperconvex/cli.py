"""Command-line front end: distances, projections, charts, generators, and
the randomized verification suites.

All results are printed as UTF-8 JSON on stdout; anything diagnostic goes
to stderr.  Exit codes: 0 success, 1 a suite reported failures, 2 usage or
schema errors, 3 a suite was clean but too many trials came back
inconclusive.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .bundle import ChartTriple, chart_convex, chart_convex_inv
from .config import default_tolerances
from .errors import HyperconvexError, SchemaError
from .generators import _KINDS, random_instance
from .grassmann import chart_flat, chart_flat_inv, gap
from .hypermetrics import AWParams, attouch_wets, aw_origin, hausdorff
from .projection import metric_projection
from .serialization import _TYPES, parse_set, serialize_set
from .suites import SUITE_NAMES, run_suite


def _emit(obj) -> None:
    sys.stdout.write(json.dumps(obj, ensure_ascii=False) + "\n")


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise SchemaError(f"cannot read {path}: {exc}") from exc


def _load_set(path: str, kind: str | None = None):
    """The set in the document at path.  Given a document type, the CLI's
    one kind check: a set not of that type's class (a subspace is a flat)
    is a SchemaError that names the file and the type."""
    s = parse_set(_read(path))
    if kind is not None and not isinstance(s, _TYPES[kind][0]):
        raise SchemaError(f"{path} must hold a {kind} document")
    return s


def _load_vector(path: str) -> np.ndarray:
    """The numbers of a JSON file; the routine that takes them checks their
    shape and finiteness (sets._point)."""
    text = _read(path)
    try:
        return np.asarray(json.loads(text), dtype=float)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path} is not valid JSON: {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise SchemaError(f"{path} must hold an array of numbers: {exc}") from exc


def _parse_point(text: str) -> np.ndarray:
    """The comma separated numbers of text; the routine that takes them
    checks their shape and finiteness (sets._point)."""
    try:
        return np.array([float(tok) for tok in text.split(",")])
    except ValueError as exc:
        raise SchemaError(f"bad point {text!r}: {exc}") from exc


def _interval_doc(iv) -> dict:
    return {"lo": float(iv.lo), "hi": float(iv.hi), "certified": bool(iv.certified)}


def _cmd_dist(args) -> int:
    kind = "subspace" if args.metric == "gap" else None
    a = _load_set(args.a, kind)
    b = _load_set(args.b, kind)
    if args.metric == "hausdorff":
        _emit(float(hausdorff(a, b)))
    elif args.metric == "gap":
        _emit(float(gap(a, b)))
    else:
        params = AWParams(eps_sup=args.eps)
        fn = aw_origin if args.metric == "aw-origin" else attouch_wets
        _emit(_interval_doc(fn(a, b, params)))
    return 0


def _cmd_project(args) -> int:
    s = _load_set(args.set)
    point, dist = metric_projection(s, _parse_point(args.point))
    _emit({"point": point.tolist(), "distance": float(dist)})
    return 0


def _cmd_chart(args) -> int:
    w = _load_set(args.w, "subspace")
    if args.inverse is not None:
        if args.kind == "flat":
            v, omega = chart_flat_inv(w, _load_set(args.inverse, "flat"))
            _emit({"v": serialize_set(v), "omega": omega.tolist()})
        else:
            triple = chart_convex_inv(w, _load_set(args.inverse, "polytope"))
            _emit(
                {
                    "v": serialize_set(triple.direction),
                    "omega": triple.offset.tolist(),
                    "body": serialize_set(triple.body),
                }
            )
        return 0
    expected = 2 if args.kind == "flat" else 3
    if len(args.forward) != expected:
        raise SchemaError(
            f"chart {args.kind} --forward takes {expected} files, got {len(args.forward)}"
        )
    v = _load_set(args.forward[0], "subspace")
    omega = _load_vector(args.forward[1])
    if args.kind == "flat":
        _emit(serialize_set(chart_flat(w, v, omega)))
    else:
        body = _load_set(args.forward[2], "polytope")
        _emit(serialize_set(chart_convex(w, ChartTriple(v, omega, body))))
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(args.suite, args.dim, args.trials, args.seed)
    doc = report.to_dict()
    _emit(doc)
    if args.report:
        Path(args.report).write_text(
            json.dumps(doc, ensure_ascii=False, indent=2) + "\n", encoding="utf-8"
        )
    if report.failures:
        return 1
    if report.trials and report.inconclusive / report.trials > args.max_inconclusive:
        return 3
    return 0


def _cmd_gen(args) -> int:
    _emit(serialize_set(random_instance(args.kind, args.dim, args.k, args.seed)))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperconvex",
        description="Distances, projections, charts, and verification suites "
        "for representable closed convex sets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    dist = sub.add_parser("dist", help="distance between two sets")
    dist.add_argument(
        "--metric", required=True, choices=["hausdorff", "aw", "aw-origin", "gap"]
    )
    dist.add_argument("--eps", type=float, default=1e-3, help="certification width")
    dist.add_argument("a", metavar="A.json")
    dist.add_argument("b", metavar="B.json")
    dist.set_defaults(fn=_cmd_dist)

    project = sub.add_parser("project", help="metric projection of a point")
    project.add_argument("set", metavar="SET.json")
    project.add_argument("--point", required=True, help='comma separated, e.g. "1,0,2"')
    project.set_defaults(fn=_cmd_project)

    chart = sub.add_parser("chart", help="chart a flat or a convex body")
    chart.add_argument("kind", choices=["flat", "convex"])
    chart.add_argument("--w", required=True, metavar="W.json", help="reference subspace")
    way = chart.add_mutually_exclusive_group(required=True)
    way.add_argument(
        "--forward",
        nargs="+",
        metavar="FILE",
        help="V.json OMEGA.json for flat; V.json OMEGA.json A.json for convex",
    )
    way.add_argument("--inverse", metavar="F.json", help="set to pull back")
    chart.set_defaults(fn=_cmd_chart)

    verify = sub.add_parser("verify", help="run a randomized verification suite")
    verify.add_argument("--suite", required=True, choices=list(SUITE_NAMES))
    verify.add_argument("--dim", type=int, required=True)
    verify.add_argument("--trials", type=int, required=True)
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--report", metavar="OUT.json", help="also write the report here")
    verify.add_argument(
        "--max-inconclusive",
        type=float,
        default=0.2,
        help="largest tolerated inconclusive fraction (default 0.2)",
    )
    verify.set_defaults(fn=_cmd_verify)

    gen = sub.add_parser("gen", help="emit a random set document")
    gen.add_argument("--kind", required=True, choices=list(_KINDS))
    gen.add_argument("--dim", type=int, required=True)
    gen.add_argument("--k", type=int, required=True)
    gen.add_argument("--seed", type=int, default=0)
    gen.set_defaults(fn=_cmd_gen)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        # Fail fast on a malformed HYPERCONVEX_TOL even when the chosen
        # command never consults a tolerance.
        default_tolerances()
        return args.fn(args)
    except HyperconvexError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
