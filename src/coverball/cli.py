"""Command-line front end: file I/O, bundled corpus, and report emission.

Exit codes: 0 success (budget exhaustion is reported, not fatal), 1 for
precondition/input errors (a missing input file among them), 2 for usage
errors and internal assertion failures (the latter must never occur on
valid inputs).

The argument parser is built once per process (``build_parser`` is
cached) and shared by every ``run`` call: parsing fills a fresh
``Namespace`` and leaves the parser unchanged.  Each ``cmd_*`` handler
takes the parsed ``args``, whose ``args.parser`` is the subcommand's own
parser: usage errors are reported against it.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import math
import sys
import time
from fractions import Fraction
from importlib import resources
from pathlib import Path

from . import cover, nerve, surfballs, witness
from .graphs import (GraphError, MetricGraph, betti, format_graph, generate,
                     girth, parse_graph, reduce_graph, validate)
from .surface import SurfaceError, TriSurface, capturing_test, parse_surface
from .witness import TheoremViolation


# ---------------------------------------------------------------------------
# serialization helpers

def _digits(n: int) -> str:
    """Decimal form of n, also past the interpreter's int-to-str digit limit."""
    try:
        return str(n)
    except ValueError:
        pass
    k = n.bit_length() * 3 // 20       # about half of n's decimal digits
    hi, lo = divmod(abs(n), 10 ** k)
    return ("-" if n < 0 else "") + _digits(hi) + _digits(lo).zfill(k)


def _ratio(q: Fraction) -> str:
    return f"{_digits(q.numerator)}/{_digits(q.denominator)}"


def _float_or_none(q: Fraction) -> float | None:
    try:
        return float(q)
    except OverflowError:
        return None


def jsonable(x):
    """Recursively convert report values; rationals become exact "p/q"
    strings and dict entries gain a float convenience field (None when the
    value is out of float range).  A non-finite float becomes None too, so
    the output is strict JSON."""
    if isinstance(x, Fraction):
        return _ratio(x)
    if isinstance(x, float) and not math.isfinite(x):
        return None
    if isinstance(x, dict):
        out = {}
        for k, v in x.items():
            out[str(k)] = jsonable(v)
            if isinstance(v, Fraction):
                out[f"{k}_float"] = _float_or_none(v)
        return out
    if isinstance(x, (list, tuple)):
        return [jsonable(v) for v in x]
    if isinstance(x, (set, frozenset)):
        return sorted(jsonable(v) for v in x)
    if hasattr(x, "__dataclass_fields__"):
        return jsonable(vars(x))
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _cell(v):
    return _ratio(v) if isinstance(v, Fraction) else v


def emit(args, report: dict, tables: dict[str, list[dict]] | None = None) -> None:
    """With --out, write JSON and CSV files; then print the JSON summary, so
    a file that cannot be written (OSError) leaves stdout empty."""
    report = dict(report)
    report["seed"] = args.seed
    report["timestamp"] = time.strftime("%Y-%m-%dT%H:%M:%S")
    doc = json.dumps(jsonable(report), indent=2, sort_keys=True)
    if args.out is not None:
        out = Path(args.out)
        formats = args.format.split(",")
        stem = report["command"].replace(" ", "_")
        if "json" in formats:
            (out / f"{stem}.json").write_text(doc + "\n")
        if "csv" in formats and tables:
            for name, rows in tables.items():
                if not rows:
                    continue
                with open(out / f"{stem}_{name}.csv", "w", newline="") as fh:
                    w = csv.DictWriter(fh, fieldnames=list(rows[0]))
                    w.writeheader()
                    for row in rows:
                        w.writerow({k: _cell(v) for k, v in row.items()})
    print(doc)


# ---------------------------------------------------------------------------
# input resolution

def corpus_names() -> list[str]:
    root = resources.files(__package__) / "corpus"
    return sorted(p.name for p in root.iterdir())


def read_input(name: str, error: type[ValueError]) -> str:
    p = Path(name)
    if p.exists():
        try:
            return p.read_text(encoding="utf-8")
        except UnicodeDecodeError as exc:
            raise error(f"cannot read {name}: {exc.reason} "
                        f"at byte {exc.start}") from None
        except OSError as exc:
            raise error(f"cannot read {name}: {exc.strerror}") from None
    root = resources.files(__package__) / "corpus"
    entry = root / name
    if entry.is_file():
        return entry.read_text()
    raise error(f"no such file and no corpus entry {name!r}; "
                f"corpus has: {', '.join(corpus_names())}")


def load_graph(name: str) -> MetricGraph:
    return parse_graph(read_input(name, GraphError))


def load_surf(name: str) -> TriSurface:
    return parse_surface(read_input(name, SurfaceError))


def grid_radii(rmax: Fraction, grid: int) -> list[Fraction]:
    if grid < 1:
        raise GraphError("--grid must be at least 1")
    return [rmax * k / grid for k in range(grid + 1)]


# ---------------------------------------------------------------------------
# graph subcommands

def cmd_graph_validate(args) -> None:
    g = load_graph(args.input)
    rep = validate(g)
    rep["girth"] = girth(g)
    emit(args, {"command": "graph validate", "input": args.input, **rep})


def cmd_graph_growth(args) -> None:
    g = load_graph(args.input)
    base = args.base if args.base is not None else min(g.vertices)
    radii = grid_radii(args.rmax, args.grid)
    growth = cover.ball_length(g, base, args.rmax, args.budget)
    rows = []
    truncated = False
    for R in radii:
        rep = growth.at(R)
        truncated = truncated or rep.truncated
        rows.append({"R": R, "length": rep.total_length,
                     "truncated": rep.truncated})
    emit(args, {"command": "graph growth", "input": args.input, "base": base,
                "rmax": args.rmax, "grid": args.grid, "budget": args.budget,
                "truncated": truncated, "rows": rows},
         {"rows": rows})


def cmd_graph_entropy(args) -> None:
    g = load_graph(args.input)
    base = args.base if args.base is not None else min(g.vertices)
    radii = [r for r in grid_radii(args.rmax, args.grid) if r > 0]
    rows = cover.entropy_estimate(g, radii, base, args.budget)
    emit(args, {"command": "graph entropy", "input": args.input, "base": base,
                "rows": rows}, {"rows": rows})


def cmd_graph_reduce(args) -> None:
    g = load_graph(args.input)
    reduced, removed = reduce_graph(g)
    rep = {
        "command": "graph reduce", "input": args.input,
        "betti": betti(g), "betti_reduced": betti(reduced),
        "length": g.total_length(), "length_reduced": reduced.total_length(),
        "removed_vertices": sorted(removed),
        "reduced": format_graph(reduced),
    }
    emit(args, rep)


def cmd_graph_witness(args) -> None:
    g = load_graph(args.input)
    cert = witness.find_witness(g, args.lam)
    emit(args, {"command": "graph witness", "input": args.input,
                "lambda": args.lam, "witness": cert.witness,
                "factor": cert.factor, "trace": list(cert.trace)})


def cmd_graph_verify(args) -> None:
    g = load_graph(args.input)
    cert = witness.find_witness(g, args.lam)
    params = witness.params_from_lambda(args.lam)
    rmax = args.rmax if args.rmax is not None else 4 * params.mu
    radii = [r for r in grid_radii(rmax, args.grid) if r > 0]
    rep = witness.verify_certificate(g, cert, radii, args.budget)
    if not rep["ok"]:
        raise TheoremViolation("certificate verification failed")
    emit(args, {"command": "graph verify", "input": args.input,
                "lambda": args.lam, **rep}, {"rows": rep["rows"]})


# ---------------------------------------------------------------------------
# surface subcommands

def cmd_surface_validate(args) -> None:
    s = load_surf(args.input)
    emit(args, {"command": "surface validate", "input": args.input,
                "vertices": len(s.vertices), "edges": len(s.edges),
                "faces": len(s.faces), "genus": s.genus,
                "area": s.total_area(),
                "total_edge_length": sum(s.edge_lengths.values(), Fraction(0))})


def cmd_surface_systole(args) -> None:
    s = load_surf(args.input)
    length, cyc = surfballs.systole(s, mode=args.mode)
    emit(args, {"command": "surface systole", "input": args.input,
                "systole": length, "cycle": cyc, "mode": args.mode,
                "simple_cycle_assumed": True})


def cmd_surface_capture(args) -> None:
    s = load_surf(args.input)
    length, edges = surfballs.capture_length(s, mode=args.mode, x=args.base)
    ok, rank = capturing_test(s, edges)
    emit(args, {"command": "surface capture", "input": args.input,
                "mode": args.mode, "base": args.base, "length": length,
                "edges": sorted(edges), "captures": ok, "rank": rank})


def cmd_surface_nerve(args) -> None:
    s = load_surf(args.input)
    rep = nerve.nerve_graph(s, args.r0, args.eps)
    rows = [{"center": c, "ball_area": a}
            for c, a in zip(rep.centers, rep.ball_areas)]
    emit(args, {"command": "surface nerve", "input": args.input,
                "r0": rep.r0, "eps": rep.eps, "centers": rep.centers,
                "precondition_ok": rep.precondition_ok,
                "packing_bound_ok": rep.packing_bound_ok,
                "non_expansion_ok": rep.non_expansion_ok,
                "image_captures": rep.image_captures,
                "image_rank": rep.image_rank,
                "pruned_length": rep.pruned_length,
                "length_bound_ok": rep.length_bound_ok,
                "checks": rep.checks}, {"balls": rows})


def cmd_surface_pipeline(args) -> None:
    s = load_surf(args.input)
    rep = nerve.surface_growth_pipeline(s, r_grid=args.grid, budget=args.budget)
    tables = {}
    for st in rep["stages"]:
        if st["stage"] == "ball-domination":
            tables["margins"] = st["rows"]
    emit(args, {"command": "surface pipeline", "input": args.input,
                **rep}, tables)


# ---------------------------------------------------------------------------
# reference curves and generation

def cmd_ref_curves(args) -> None:
    rows = []
    for R in grid_radii(args.rmax, args.grid):
        rows.append({
            "R": R,
            "trivalent_tree_ball": cover.trivalent_tree_ball(R),
            "hyperbolic_ball_area": cover.hyperbolic_ball_area(float(R)),
        })
    emit(args, {"command": "ref curves", "rmax": args.rmax,
                "grid": args.grid, "rows": rows}, {"rows": rows})


def cmd_gen(args) -> None:
    if args.b is None and args.kind in ("trivalent_reference", "random_connected"):
        args.parser.error(f"kind {args.kind!r} needs parameter 'b'")
    g = generate(args.kind, args.b, args.seed)
    if args.b is not None and args.b != betti(g):
        raise GraphError(f"kind {args.kind!r} has Betti number {betti(g)}, "
                         f"not --b {args.b}")
    text = format_graph(g)
    rep = {"command": "gen", "kind": args.kind, "b": args.b,
           "betti": betti(g), "total_length": g.total_length(),
           "graph": text}
    if args.out is not None:
        (Path(args.out) / f"{args.kind}_seed{args.seed}.graph").write_text(text)
    emit(args, rep)


# ---------------------------------------------------------------------------
# parser

def _frac(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")


def _common(sp):
    sp.add_argument("--rmax", type=_frac, default=Fraction(2))
    sp.add_argument("--grid", type=int, default=8)


FORMATS = ("json", "csv")


def _everywhere(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output directory")
    sp.add_argument("--format", default=",".join(FORMATS),
                    help="comma-separated output files for --out: json, csv")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``coverball`` parser, built on the first call and shared after.

    Sharing is sound because argparse parses into a fresh ``Namespace``
    (subcommands too) without mutating the parser, every default is
    immutable (``Fraction``, ``int``, ``str`` or None), the program name
    is fixed, and argparse looks up ``sys.stderr`` only when it prints.
    Each subcommand's handler is bound by ``set_defaults(fn=...)`` when
    the parser is built, so replacing a ``cmd_*`` function afterwards does
    not reach ``run``.
    """
    parser = argparse.ArgumentParser(
        prog="coverball",
        description="Ball growth in universal covers of metric graphs and "
                    "capturing graphs on triangulated surfaces.")
    top = parser.add_subparsers(dest="group", required=True)

    graph = top.add_parser("graph").add_subparsers(dest="op", required=True)
    for name, fn in [("validate", cmd_graph_validate),
                     ("growth", cmd_graph_growth),
                     ("entropy", cmd_graph_entropy),
                     ("reduce", cmd_graph_reduce),
                     ("witness", cmd_graph_witness),
                     ("verify", cmd_graph_verify)]:
        sp = graph.add_parser(name)
        sp.add_argument("input", help="file path or corpus name")
        sp.set_defaults(fn=fn, parser=sp)
        if name in ("growth", "entropy"):
            sp.add_argument("--base", type=int, default=None)
            _common(sp)
        if name in ("growth", "entropy", "verify"):
            sp.add_argument("--budget", type=int, default=cover.DEFAULT_BUDGET)
        if name in ("witness", "verify"):
            sp.add_argument("--lambda", dest="lam", type=_frac,
                            default=Fraction(1, 6))
        if name == "verify":
            sp.add_argument("--rmax", type=_frac, default=None)
            sp.add_argument("--grid", type=int, default=8)
        _everywhere(sp)

    surf = top.add_parser("surface").add_subparsers(dest="op", required=True)
    for name, fn in [("validate", cmd_surface_validate),
                     ("systole", cmd_surface_systole),
                     ("capture", cmd_surface_capture),
                     ("nerve", cmd_surface_nerve),
                     ("pipeline", cmd_surface_pipeline)]:
        sp = surf.add_parser(name)
        sp.add_argument("input", help="file path or corpus name")
        sp.set_defaults(fn=fn, parser=sp)
        if name == "systole":
            sp.add_argument("--mode", default="auto",
                            choices=["auto", "homological"])
        if name == "capture":
            sp.add_argument("--mode", default="greedy",
                            choices=["greedy", "exact"])
            sp.add_argument("--base", type=int, default=None)
        if name == "nerve":
            sp.add_argument("--r0", type=_frac, default=nerve.DEFAULT_R0)
            sp.add_argument("--eps", type=_frac, default=nerve.DEFAULT_EPS)
        if name == "pipeline":
            sp.add_argument("--grid", type=int, default=8)
            sp.add_argument("--budget", type=int, default=cover.DEFAULT_BUDGET)
        _everywhere(sp)

    ref = top.add_parser("ref").add_subparsers(dest="op", required=True)
    sp = ref.add_parser("curves")
    sp.set_defaults(fn=cmd_ref_curves, parser=sp)
    _common(sp)
    _everywhere(sp)

    sp = top.add_parser("gen")
    sp.set_defaults(fn=cmd_gen, parser=sp)
    sp.add_argument("--kind", default="random_connected",
                    choices=["theta", "figure_eight", "trivalent_reference",
                             "random_connected"])
    sp.add_argument("--b", type=int, default=None)
    _everywhere(sp)
    return parser


def run(argv=None) -> int:
    args, extra = build_parser().parse_known_args(argv)
    if extra:
        args.parser.error(f"unrecognized arguments: {' '.join(extra)}")
    for token in args.format.split(","):
        if token not in FORMATS:
            print(f"error: unknown --format {token!r}; choose from "
                  f"{', '.join(FORMATS)}", file=sys.stderr)
            return 1
    if args.out is not None:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create --out directory: {exc}", file=sys.stderr)
            return 1
    try:
        args.fn(args)
    except TheoremViolation as exc:
        print(f"theorem violation: {exc}", file=sys.stderr)
        return 2
    except (GraphError, SurfaceError, OSError) as exc:
        # OSError: an --out file that cannot be written (written before
        # anything is printed)
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
