"""Every function and method in ``src/coverball`` is run by a command or a
benchmark workload.

A ``sys.setprofile`` hook records the code objects entered while the
command line runs every subcommand on the bundled corpus, and while two
benchmark ops run on surfaces built as their workloads build them: the
capture-height op at one base of torus7 subdivided once, and the
nerve-pack op on genus 2 subdivided twice.  A ``def`` of the package that
none of them enters serves no user of the package; it belongs in
``tests/`` (an oracle or a test fixture) or nowhere, unless ``UNREACHED``
names it with its reason.
"""

import ast
import contextlib
import dataclasses
import io
import os
import sys
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import coverball
from coverball import cli, fixtures, nerve, surfballs
from coverball.surface import TriSurface

PACKAGE = Path(coverball.__file__).resolve().parent
CORPUS = resources.files("coverball") / "corpus"

# (module file, qualified name): why no run below enters it
UNREACHED = {
    ("cli.py", "main"):
        "the console script; CI runs it from the installed package",
    ("cover.py", "finite_ball_length"):
        "bench/tracer.py wraps it by name; the pipeline reads "
        "finite_ball_lengths, and renaming the traced function is a "
        "benchmark change",
    ("surface.py", "TriSurface.distances_from"):
        "bench/tracer.py wraps it by name to show that no workload builds a "
        "Fraction distance map; tests read it as an oracle",
    ("graphs.py", "MetricGraph.next_edge_id"):
        "it numbers the edges of an edge-interior base point, which only the "
        "API takes: --base is a vertex id",
}

GRAPH_OPS = (["validate"], ["growth"], ["entropy"], ["reduce"], ["witness"],
             ["verify"])
SURFACE_OPS = (["validate"], ["systole"], ["capture"],
               ["capture", "--mode", "exact"], ["nerve"], ["pipeline"])
OTHER_RUNS = (["ref", "curves", "--rmax", "3/2"],
              ["gen", "--kind", "theta"],
              ["gen", "--kind", "figure_eight"],
              ["gen", "--kind", "trivalent_reference", "--b", "3"],
              ["gen", "--kind", "random_connected", "--b", "3"])


def package_defs() -> dict:
    """(file, first line) -> (module file, qualified name) for every def in
    the package, nested ones included.  The first line is the one a code
    object reports: the first decorator's, else the def's."""
    out = {}

    def visit(node, path, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([child.lineno] + [d.lineno for d in child.decorator_list])
                out[(str(path), first)] = (path.name, name)
                visit(child, path, name + ".")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(PACKAGE.glob("*.py")):
        visit(ast.parse(path.read_text()), path, "")
    return out


def _cli(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        try:
            return cli.run(list(argv))
        except SystemExit as exc:
            return exc.code


def _capture_height_op(s, x):
    """One op of the capture-height workload."""
    h = surfballs.height(s, x, mode="exact")
    sys_x, _ = surfballs.systole_at(s, x)
    return [surfballs.small_ball_area_check(s, x, R, hpp=h["Hpp"], sys_x=sys_x)
            for R in (F(1, 2), F(1), F(11, 8)) if h["Hpp"] < R < sys_x / 2]


def entered_defs(out_dir) -> set:
    """(module file, qualified name) of every package def entered by the
    runs; each run's exit code is checked on the way."""
    codes = set()

    def hook(frame, event, arg):
        if event == "call":
            codes.add(frame.f_code)

    # the parser is cached per process: build it again inside the probe
    cli.build_parser.cache_clear()
    old = sys.getprofile()
    sys.setprofile(hook)
    try:
        exits = {}
        for name in sorted(p.name for p in CORPUS.iterdir()):
            group, ops = (("graph", GRAPH_OPS) if name.endswith(".graph")
                          else ("surface", SURFACE_OPS))
            for op in ops:
                argv = [group, op[0], name, *op[1:]]
                exits[" ".join(argv)] = _cli(argv)
        for argv in OTHER_RUNS:
            exits[" ".join(argv)] = _cli(argv)
        csv_run = _cli(["graph", "growth", "theta.graph", "--out", str(out_dir)])
        missing = _cli(["graph", "validate", "no_such_instance.graph"])
        checks = _capture_height_op(fixtures.subdivide(fixtures.torus7()), 5)
        packed = nerve.nerve_graph(fixtures.scale_surface(
            fixtures.subdivide(fixtures.genus2(), 2), F(1, 8)))
    finally:
        sys.setprofile(old)
    # a corpus run fails only on a hypothesis (exit 1), never on usage or a
    # violated theorem (exit 2)
    assert {k: rc for k, rc in exits.items() if rc not in (0, 1)} == {}
    assert csv_run == 0 and (out_dir / "graph_growth_rows.csv").exists()
    assert missing == 1
    assert checks and all(c["status"] == "pass" for c in checks)
    assert packed.image_captures
    defs = package_defs()
    return {defs[key] for key in
            {(os.path.realpath(c.co_filename), c.co_firstlineno) for c in codes}
            if key in defs}


def test_every_package_def_is_entered(tmp_path):
    defs = set(package_defs().values())
    entered = entered_defs(tmp_path)
    assert set(UNREACHED) <= defs, "an exception names no def of the package"
    assert set(UNREACHED) & entered == set(), "an exception is entered after all"
    missing = sorted(defs - entered - set(UNREACHED))
    assert missing == [], ("defs that no command or workload enters: "
                           + ", ".join(f"{f}:{n}" for f, n in missing))


def test_surfaces_keep_only_declared_fields(monkeypatch):
    """Every table a run keeps on a surface is a declared ``TriSurface``
    field: no module attaches state of its own to a surface.  The runs are
    every surface subcommand on every corpus surface and the two benchmark
    ops above."""
    surfaces = []
    load = cli.load_surf

    def keep(name):
        surfaces.append(load(name))
        return surfaces[-1]

    monkeypatch.setattr(cli, "load_surf", keep)
    names = sorted(p.name for p in CORPUS.iterdir() if p.name.endswith(".surf"))
    for name in names:
        for op in SURFACE_OPS:
            assert _cli(["surface", op[0], name, *op[1:]]) in (0, 1)
    assert len(surfaces) == len(names) * len(SURFACE_OPS)
    surfaces.append(fixtures.subdivide(fixtures.torus7()))
    assert _capture_height_op(surfaces[-1], 5)
    surfaces.append(fixtures.scale_surface(
        fixtures.subdivide(fixtures.genus2(), 2), F(1, 8)))
    assert nerve.nerve_graph(surfaces[-1]).image_captures
    declared = {f.name for f in dataclasses.fields(TriSurface)}
    assert {key for s in surfaces for key in vars(s)} == declared
    # the runs fill every lazy table somewhere
    assert all(any(getattr(s, key) is not None for s in surfaces)
               for key in declared)
