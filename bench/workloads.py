"""The four workloads.

A workload turns a seed into a stream of passes; a pass is a list of ops,
each a timed call into coverball plus an exact, untimed check of its result.
``setup`` builds the shared inputs and pass 0 (this is what ``setup_s``
times); later passes are built between ops, outside the timed work.

Ops call coverball through module attributes (``witness.find_witness``,
never a name bound at import), so the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

from coverball import cli, nerve, surface, surfballs, witness
from coverball.graphs import format_graph
from coverball.surface import TriSurface

import inputs

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "golden.json"


@dataclass
class Op:
    label: str
    run: Callable[[], object]
    check: Callable[[object], bool]


class Workload:
    name = ""
    min_ops = 1        # an untimed run stops at the deadline, never before this
    unit = 1           # ... and only after a whole number of these many ops
    trace_ops = 1      # ops in each pass of a traced run

    def setup(self, seed: int, tmp: Path) -> list[Op]:
        """Build shared inputs and return pass 0."""
        raise NotImplementedError

    def make_pass(self, seed: int, p: int) -> list[Op]:
        raise NotImplementedError

    def stream(self, seed: int, first: list[Op] | None = None):
        p = 0
        if first is not None:
            yield from first
            p = 1
        while True:
            yield from self.make_pass(seed, p)
            p += 1

    def work(self) -> dict:
        """Input sizes, printed with every result."""
        return {}


# ---------------------------------------------------------------------------

class WitnessSweep(Workload):
    """Criterion-02 graphs: find_witness, then verify at mu, 2mu, 3mu, 4mu.
    The family cycles through its 35 (b, lambda) cells, so any 35
    consecutive ops hold one graph of each.  At seed 0 the first 200 ops are
    exactly criterion 02; other passes and seeds relabel the same graphs."""

    name = "witness-sweep"
    size = 210
    min_ops = 210
    unit = 35
    trace_ops = 140

    def setup(self, seed, tmp):
        self.base = [inputs.sweep_graph(i) for i in range(self.size)]
        return self.make_pass(seed, 0)

    def make_pass(self, seed, p):
        ops = []
        for i, (g, lam) in enumerate(self.base):
            if (seed, p) != (0, 0):
                g = inputs.relabel_graph(g, inputs.rng_for(seed, p, i))
            ops.append(Op(f"graph{i}", _sweep_run(g, lam), _sweep_check))
        return ops

    def work(self):
        return {"graphs_per_pass": self.size,
                "edges": sum(len(g.edges) for g, _ in self.base)}


def _sweep_run(g, lam):
    def run():
        cert = witness.find_witness(g, lam)
        mu = witness.params_from_lambda(lam).mu
        return witness.verify_certificate(g, cert, [k * mu for k in (1, 2, 3, 4)])
    return run


def _sweep_check(rep) -> bool:
    return rep["ok"] and not any(row["truncated"] for row in rep["rows"])


# ---------------------------------------------------------------------------

class NervePack(Workload):
    """nerve_graph at the default r0 and eps on relabeled copies of two
    criterion-07 meshes.  A round is one torus op then three genus-2 ops of
    about a third of its cost, so the median op is a genus-2 op."""

    name = "nerve-pack"
    mix = {"torus7x3": 1, "genus2x2": 3}
    rounds = 2         # per pass
    min_ops = 12
    unit = 4
    trace_ops = 8

    def setup(self, seed, tmp):
        self.bases = inputs.nerve_surfaces()
        self.sizes: dict[str, dict] = {}
        return self.make_pass(seed, 0)

    def make_pass(self, seed, p):
        ops = []
        for k in range(self.rounds):
            for label, count in self.mix.items():
                for j in range(count):
                    faces, lengths, _ = inputs.relabel_surface(
                        self.bases[label], inputs.rng_for(seed, p, k, label, j))
                    s = TriSurface.build(faces, lengths)
                    ops.append(Op(label, _nerve_run(s), self._nerve_check(label, s)))
        return ops

    def _nerve_check(self, label, s):
        def check(rep) -> bool:
            size = self.sizes.setdefault(label, {
                "edges": len(s.edges), "genus": s.genus, "ops": 0,
                "centers": 0, "nerve_edges": 0})
            size["ops"] += 1
            size["centers"] += len(rep.centers)
            size["nerve_edges"] += len(rep.nerve.edges)
            g = s.genus
            return (rep.precondition_ok and rep.packing_bound_ok
                    and rep.non_expansion_ok and rep.image_captures
                    and rep.pruned_length <= Fraction(len(rep.centers) - 1 + 2 * g, 4)
                    and surface.capturing_test(s, rep.pruned_image_edges) == (True, 2 * g))
        return check

    def work(self):
        """Per surface: ops checked and their summed centers and nerve edges."""
        return self.sizes


def _nerve_run(s):
    return lambda: nerve.nerve_graph(s)


# ---------------------------------------------------------------------------

class CaptureHeight(Workload):
    """Criterion 08 on torus7 subdivided once: exact height, based systole
    and the small-ball area check, one base vertex per op.  Each pass gets a
    freshly built surface, so lazy homology and capture tables fill inside
    the timed work."""

    name = "capture-height"
    radii = (Fraction(1, 2), Fraction(1), Fraction(11, 8))
    min_ops = 11
    trace_ops = 4

    def setup(self, seed, tmp):
        self.base = inputs.height_surface()
        return self.make_pass(seed, 0)

    def make_pass(self, seed, p):
        faces, lengths, vmap = inputs.relabel_surface(self.base, inputs.rng_for(seed, p))
        s = TriSurface.build(faces, lengths)
        # visit vertices in their original order, so every seed covers the
        # same geometric vertices
        return [Op(f"x{v}", _height_run(s, vmap[v], self.radii), _height_check(s))
                for v in sorted(self.base.vertices)]

    def work(self):
        return {"edges": len(self.base.edges), "vertices_per_pass": len(self.base.vertices)}


def _height_run(s, x, radii):
    def run():
        h = surfballs.height(s, x, mode="exact")
        sys_x, _ = surfballs.systole_at(s, x)
        checks = [surfballs.small_ball_area_check(s, x, R, hpp=h["Hpp"], sys_x=sys_x)
                  for R in radii if h["Hpp"] < R < sys_x / 2]
        return h, checks
    return run


def _height_check(s):
    def check(result) -> bool:
        h, checks = result
        # relabeling keeps the geometry, so the unbased capture length is 5
        return (h["L"] == 5 and h["Lx"] >= h["L"] and h["Hpp"] <= h["dist_bound"]
                and surface.capturing_test(s, h["min_graph"])[0]
                and surface.capturing_test(s, h["min_graph_x"])[0]
                and all(c["status"] == "pass" for c in checks))
    return check


# ---------------------------------------------------------------------------

class CliCorpus(Workload):
    """In-process ``cli.run`` on the bundled corpus and on generated bounded
    graphs, stdout captured and compared with the golden reports."""

    name = "cli-corpus"
    verify_per_run = 4
    min_passes = 16    # so the ten samples beyond op_tail_ms are all exact captures

    def setup(self, seed, tmp):
        self.golden = json.loads(GOLDEN.read_text())
        pool = inputs.verify_pool()
        chosen = inputs.rng_for(seed).sample(range(len(pool)), self.verify_per_run)
        self.verify = []
        for j in chosen:
            name, g, lam = pool[j]
            path = tmp / f"{name}.graph"
            path.write_text(format_graph(g))
            self.verify.append((name, str(path), lam))
        first = self.make_pass(seed, 0)
        self.unit = len(first)
        self.min_ops = self.min_passes * self.unit
        self.trace_ops = 2 * len(first)
        return first

    def make_pass(self, seed, p):
        ops = []
        for argv in corpus_commands():
            key = " ".join(argv)
            ops.append(Op(key, _cli_run(argv), self._cli_check(key, None)))
        for name, path, lam in self.verify:
            argv = ["graph", "verify", path, "--lambda", str(lam)]
            key = f"graph verify {name} --lambda {lam}"
            ops.append(Op(key, _cli_run(argv), self._cli_check(key, name)))
        inputs.rng_for(seed, p, "order").shuffle(ops)
        return ops

    def _cli_check(self, key, verify_name):
        golden = self.golden[key]

        def check(result) -> bool:
            rc, out = result
            return rc == 0 and normalize(out, verify_name) == golden
        return check

    def work(self):
        return {"commands_per_pass": len(corpus_commands()) + len(self.verify),
                "verify_inputs": [name for name, _, _ in self.verify]}


def corpus_commands() -> list[list[str]]:
    graphs = ("figure_eight.graph", "theta.graph", "trivalent_b3.graph",
              "trivalent_b4.graph")
    surfaces = ("genus2.surf", "torus7.surf", "torus7_sub.surf")
    cmds = [["graph", op, g] for op in ("validate", "growth", "entropy") for g in graphs]
    cmds += [["surface", "validate", s] for s in surfaces]
    cmds += [["surface", "systole", "torus7.surf"],
             ["surface", "systole", "genus2.surf"]]
    for s in ("torus7.surf", "torus7_sub.surf"):
        cmds += [["surface", "capture", s],
                 ["surface", "capture", s, "--mode", "exact"]]
    cmds += [["surface", "nerve", "torus7_sub.surf"],
             ["surface", "pipeline", "torus7_sub.surf"],
             ["surface", "pipeline", "genus2.surf"]]
    return cmds


def _cli_run(argv):
    def run():
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            try:
                rc = cli.run(list(argv))
            except SystemExit as exc:
                rc = exc.code
        return rc, out.getvalue()
    return run


def normalize(out: str, verify_name: str | None) -> dict:
    """The report minus its timestamp; a verify report names its pool entry
    instead of the temporary path it was read from."""
    doc = json.loads(out)
    doc.pop("timestamp", None)
    if verify_name is not None:
        doc["input"] = verify_name
    return doc


WORKLOADS = {w.name: w for w in (WitnessSweep, NervePack, CaptureHeight, CliCorpus)}
