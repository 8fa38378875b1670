"""Command-line front end: file I/O, bundled corpus, and report emission.

Exit codes: 0 success (budget exhaustion is reported, not fatal), 1 for
precondition/input errors (a missing input file among them), 2 for usage
errors and internal assertion failures (the latter must never occur on
valid inputs).

The argument parser is built once per process (``build_parser`` is
cached) and shared by every ``run`` call: parsing fills a fresh
``Namespace`` and leaves the parser unchanged.

One path leads from the arguments to the report.  ``run`` loads the input
of a ``graph`` or ``surface`` subcommand (None for ``ref`` and ``gen``) and
calls the subcommand's handler as ``cmd_*(args, loaded)``, which returns
``(report, tables)``: the report's own fields, and the CSV tables by name
(empty where the command writes none).  ``emit`` alone stamps the fields
every report shares (command, input, seed and timestamp) and writes the
output.  ``args.parser`` is the subcommand's own parser: usage errors are
reported against it.
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
    if isinstance(x, (str, int, float, bool)) or x is None:
        return x
    return str(x)


def _cell(v):
    return _ratio(v) if isinstance(v, Fraction) else v


def emit(args, report: dict, tables: dict[str, list[dict]]) -> None:
    """Stamp a handler's report with the fields every report shares: the
    command (its words before the input), the input where the subcommand
    reads one, the seed and the time.  With --out, write JSON and CSV files
    named after the command; then print the JSON summary, so a file that
    cannot be written (OSError) leaves stdout empty."""
    command = args.group + (f" {args.op}" if hasattr(args, "op") else "")
    report = {**report, "command": command, "seed": args.seed,
              "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S")}
    if hasattr(args, "input"):
        report["input"] = args.input
    doc = json.dumps(jsonable(report), indent=2, sort_keys=True)
    if args.out is not None:
        out = Path(args.out)
        stem = command.replace(" ", "_")
        (out / f"{stem}.json").write_text(doc + "\n")
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

def cmd_graph_validate(args, g):
    rep = validate(g)
    rep["girth"] = girth(g)
    return rep, {}


def cmd_graph_growth(args, g):
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
    return ({"base": base, "rmax": args.rmax, "grid": args.grid,
             "budget": args.budget, "truncated": truncated, "rows": rows},
            {"rows": rows})


def cmd_graph_entropy(args, g):
    base = args.base if args.base is not None else min(g.vertices)
    radii = [r for r in grid_radii(args.rmax, args.grid) if r > 0]
    rows = cover.entropy_estimate(g, radii, base, args.budget)
    return {"base": base, "rows": rows}, {"rows": rows}


def cmd_graph_reduce(args, g):
    reduced, removed = reduce_graph(g)
    return {"betti": betti(g), "betti_reduced": betti(reduced),
            "length": g.total_length(), "length_reduced": reduced.total_length(),
            "removed_vertices": sorted(removed),
            "reduced": format_graph(reduced)}, {}


def cmd_graph_witness(args, g):
    cert = witness.find_witness(g, args.lam)
    return {"lambda": args.lam, "witness": cert.witness,
            "factor": cert.factor, "trace": list(cert.trace)}, {}


def cmd_graph_verify(args, g):
    cert = witness.find_witness(g, args.lam)
    params = witness.params_from_lambda(args.lam)
    rmax = args.rmax if args.rmax is not None else 4 * params.mu
    radii = [r for r in grid_radii(rmax, args.grid) if r > 0]
    rep = witness.verify_certificate(g, cert, radii, args.budget)
    if not rep["ok"]:
        raise TheoremViolation("certificate verification failed")
    return {"lambda": args.lam, **rep}, {"rows": rep["rows"]}


# ---------------------------------------------------------------------------
# surface subcommands

def cmd_surface_validate(args, s):
    return {"vertices": len(s.vertices), "edges": len(s.edges),
            "faces": len(s.faces), "genus": s.genus, "area": s.total_area(),
            "total_edge_length": sum(s.edge_lengths.values(), Fraction(0))}, {}


def cmd_surface_systole(args, s):
    length, cyc = surfballs.systole(s, mode=args.mode)
    return {"systole": length, "cycle": cyc, "mode": args.mode,
            "simple_cycle_assumed": True}, {}


def cmd_surface_capture(args, s):
    length, edges = surfballs.capture_length(s, mode=args.mode, x=args.base)
    ok, rank = capturing_test(s, edges)
    return {"mode": args.mode, "base": args.base, "length": length,
            "edges": sorted(edges), "captures": ok, "rank": rank}, {}


def cmd_surface_nerve(args, s):
    rep = nerve.nerve_graph(s, args.r0, args.eps)
    rows = [{"center": c, "ball_area": a}
            for c, a in zip(rep.centers, rep.ball_areas)]
    return {"r0": rep.r0, "eps": rep.eps, "centers": rep.centers,
            "precondition_ok": rep.precondition_ok,
            "packing_bound_ok": rep.packing_bound_ok,
            "non_expansion_ok": rep.non_expansion_ok,
            "image_captures": rep.image_captures,
            "image_rank": rep.image_rank,
            "pruned_length": rep.pruned_length,
            "length_bound_ok": rep.length_bound_ok,
            "checks": rep.checks}, {"balls": rows}


def cmd_surface_pipeline(args, s):
    rep = nerve.surface_growth_pipeline(s, r_grid=args.grid, budget=args.budget)
    return rep, {"margins": st["rows"] for st in rep["stages"]
                 if st["stage"] == "ball-domination"}


# ---------------------------------------------------------------------------
# reference curves and generation

def cmd_ref_curves(args, _):
    rows = []
    for R in grid_radii(args.rmax, args.grid):
        rows.append({
            "R": R,
            "trivalent_tree_ball": cover.trivalent_tree_ball(R),
            "hyperbolic_ball_area": cover.hyperbolic_ball_area(float(R)),
        })
    return {"rmax": args.rmax, "grid": args.grid, "rows": rows}, {"rows": rows}


def cmd_gen(args, _):
    if args.b is None and args.kind in ("trivalent_reference", "random_connected"):
        args.parser.error(f"kind {args.kind!r} needs parameter 'b'")
    g = generate(args.kind, args.b, args.seed)
    if args.b is not None and args.b != betti(g):
        raise GraphError(f"kind {args.kind!r} has Betti number {betti(g)}, "
                         f"not --b {args.b}")
    text = format_graph(g)
    if args.out is not None:
        (Path(args.out) / f"{args.kind}_seed{args.seed}.graph").write_text(text)
    return {"kind": args.kind, "b": args.b, "betti": betti(g),
            "total_length": g.total_length(), "graph": text}, {}


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


def _everywhere(sp):
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None,
                    help="output directory for the JSON report and CSV tables")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``coverball`` parser, built on the first call and shared after.

    Sharing is sound because argparse parses into a fresh ``Namespace``
    (subcommands too) without mutating the parser, every default is
    immutable (``Fraction``, ``int``, ``str`` or None), the program name
    is fixed, and argparse looks up ``sys.stderr`` only when it prints.
    Each subcommand's handler is bound by ``set_defaults(fn=...)`` when
    the parser is built, so replacing a ``cmd_*`` function afterwards does
    not reach ``run``.  A handler takes ``(args, loaded)`` and returns
    ``(report, tables)``; the report's command is ``args.group`` and
    ``args.op`` (``gen`` has no op), stamped by ``emit`` with the input,
    seed and time.
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
    if args.out is not None:
        try:
            Path(args.out).mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            print(f"error: cannot create --out directory: {exc}", file=sys.stderr)
            return 1
    load = {"graph": load_graph, "surface": load_surf}.get(args.group)
    try:
        loaded = load(args.input) if load is not None else None
        emit(args, *args.fn(args, loaded))
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
