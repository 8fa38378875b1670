import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction as F
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import format_surface
import coverball
from coverball import cli, fixtures, surfballs
from coverball.graphs import (GraphError, format_graph, parse_graph, scale,
                              theta_graph)
from coverball.surface import SurfaceError, parse_surface


def run_cli(capsys, *argv):
    rc = cli.run(list(argv))
    out = capsys.readouterr()
    return rc, out.out, out.err


def strip_time(doc: str) -> dict:
    d = json.loads(doc)
    d.pop("timestamp", None)
    return d


def test_corpus_round_trip_byte_stability():
    root = resources.files("coverball") / "corpus"
    names = sorted(p.name for p in root.iterdir())
    assert names == ["figure_eight.graph", "genus2.surf", "genus2_neck.surf",
                     "theta.graph", "theta_bridge.graph", "theta_eighth.graph",
                     "theta_loop.graph", "torus7.surf", "torus7_sub.surf",
                     "torus7_sub_sixth.surf", "trivalent_b3.graph",
                     "trivalent_b4.graph"]
    for name in names:
        text = (root / name).read_text()
        if name.endswith(".graph"):
            assert format_graph(parse_graph(text)) == text
        else:
            assert format_surface(parse_surface(text)) == text


def test_growth_anchor_row(capsys):
    rc, out, _ = run_cli(capsys, "graph", "growth", "theta.graph",
                         "--rmax", "3", "--grid", "12")
    assert rc == 0
    rows = {r["R"]: r for r in json.loads(out)["rows"]}
    assert rows["1/1"]["length"] == "3/1"
    assert not rows["3/1"]["truncated"]


def test_ref_curves_anchor(capsys):
    rc, out, _ = run_cli(capsys, "ref", "curves", "--rmax", "2", "--grid", "2")
    assert rc == 0
    import math
    row = json.loads(out)["rows"][1]
    assert row["trivalent_tree_ball"] == "3/1"
    assert abs(row["hyperbolic_ball_area"]
               - 2 * math.pi * (math.cosh(1) - 1)) < 1e-12


def test_determinism_modulo_timestamp(capsys):
    a = run_cli(capsys, "gen", "--kind", "random_connected", "--b", "4",
                "--seed", "11")
    b = run_cli(capsys, "gen", "--kind", "random_connected", "--b", "4",
                "--seed", "11")
    assert a[0] == b[0] == 0
    assert strip_time(a[1]) == strip_time(b[1])
    c = run_cli(capsys, "gen", "--kind", "random_connected", "--b", "4",
                "--seed", "12")
    assert strip_time(c[1]) != strip_time(a[1])


def test_exit_1_on_hypothesis_violation(capsys):
    # theta has total length 3 > lambda*(3b-3) for lambda = 1/6
    rc, _, err = run_cli(capsys, "graph", "witness", "theta.graph",
                         "--lambda", "1/6")
    assert rc == 1
    assert "hypothesis" in err


def test_exit_1_on_missing_corpus_input(capsys):
    rc, out, err = run_cli(capsys, "graph", "growth", "no_such_instance.graph")
    assert rc == 1 and out == ""
    assert err.startswith("error: no such file and no corpus entry "
                          "'no_such_instance.graph'; corpus has: ")
    assert "theta.graph" in err


# every subcommand but the four that read --budget (growth, entropy, verify
# and pipeline, whose MALFORMED cases refuse a budget of 0 with exit 1)
UNBUDGETED = (["graph", "validate", "theta.graph"], ["graph", "reduce", "theta.graph"],
              ["graph", "witness", "theta_eighth.graph"],
              ["surface", "validate", "torus7.surf"],
              ["surface", "systole", "torus7.surf"],
              ["surface", "capture", "torus7.surf"],
              ["surface", "nerve", "torus7.surf"], ["ref", "curves"], ["gen"])


@pytest.mark.parametrize("argv", UNBUDGETED, ids=" ".join)
def test_budget_option_refused_where_it_is_not_read(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run([*argv, "--budget", "3"])
    assert exc.value.code == 2
    # the usage line is the subcommand's, not the top parser's
    sub = " ".join(a for a in argv if "." not in a)
    assert capsys.readouterr().err.startswith(f"usage: coverball {sub} [-h]")


@pytest.mark.parametrize("kind", ["trivalent_reference", "random_connected"])
def test_gen_without_b_is_a_usage_error_of_gen(kind, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.run(["gen", "--kind", kind])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: coverball gen [-h]")
    assert f"kind {kind!r} needs parameter 'b'" in err


def test_systole_mode_exact_refused():
    with pytest.raises(SurfaceError, match="unknown systole mode 'exact'"):
        surfballs.systole(fixtures.torus7(), mode="exact")
    with pytest.raises(SystemExit) as exc:
        cli.run(["surface", "systole", "torus7.surf", "--mode", "exact"])
    assert exc.value.code == 2


def test_verify_passes_on_bundled_small_theta(capsys):
    rc, out, _ = run_cli(capsys, "graph", "verify", "theta_eighth.graph")
    doc = json.loads(out)
    assert rc == 0 and doc["ok"] is True and doc["failures"] == 0


@pytest.mark.parametrize("name, trace", [
    ("theta_loop.graph", ["remove-nonseparating(3)", "baby-case"]),
    ("theta_bridge.graph", ["split-separating(6,betti=2)", "baby-case"]),
])
def test_witness_edge_removal_traces_on_corpus(capsys, name, trace):
    rc, out, _ = run_cli(capsys, "graph", "witness", name)
    assert rc == 0 and json.loads(out)["trace"] == trace


def test_nerve_captures_on_scaled_torus(capsys):
    rc, out, _ = run_cli(capsys, "surface", "nerve", "torus7_sub_sixth.surf")
    doc = json.loads(out)
    assert rc == 0 and doc["image_captures"] is True
    assert len(doc["centers"]) == 28 and doc["pruned_length"] == "7/2"


def test_systole_on_genus2_neck_is_the_separating_neck(capsys):
    rc, out, _ = run_cli(capsys, "surface", "systole", "genus2_neck.surf")
    assert rc == 0 and json.loads(out)["systole"] == "9/5"


# the default systoles, 9/5 (the neck) and 3, are pinned above and in
# test_surface_commands
@pytest.mark.parametrize("name, homological", [("genus2_neck.surf", "13/5"),
                                               ("torus7.surf", "3/1")])
def test_systole_homological_mode(capsys, name, homological):
    # the neck of genus2_neck is the systole but its class is zero, so the
    # homological mode reads the shortest cycle of nonzero class: lambda1
    rc, out, _ = run_cli(capsys, "surface", "systole", name,
                         "--mode", "homological")
    doc = json.loads(out)
    assert rc == 0 and doc["systole"] == homological
    assert doc["mode"] == "homological"
    s = cli.load_surf(name)
    length, _ = surfballs.systole(s, mode="homological")
    lambda1 = surfballs._capture_cache(s).lambda1
    assert length == F(lambda1, s.int_grid()[0]) == F(homological)


def test_witness_verify_round_trip(tmp_path, capsys):
    g = scale(theta_graph(), F(1, 6))
    path = tmp_path / "small.graph"
    path.write_text(format_graph(g))
    rc, out, _ = run_cli(capsys, "graph", "verify", str(path),
                         "--lambda", "1/6", "--grid", "4")
    assert rc == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["factor"] == "1/2"


def test_surface_commands(capsys):
    rc, out, _ = run_cli(capsys, "surface", "validate", "genus2.surf")
    assert rc == 0 and json.loads(out)["genus"] == 2
    rc, out, _ = run_cli(capsys, "surface", "systole", "torus7.surf")
    assert rc == 0 and json.loads(out)["systole"] == "3/1"
    rc, out, _ = run_cli(capsys, "surface", "capture", "torus7.surf",
                         "--mode", "exact")
    assert rc == 0 and json.loads(out)["length"] == "5/1"


def test_out_dir_artifacts(tmp_path, capsys):
    rc, _, _ = run_cli(capsys, "graph", "growth", "theta.graph",
                       "--rmax", "2", "--grid", "4", "--out", str(tmp_path))
    assert rc == 0
    assert (tmp_path / "graph_growth.json").exists()
    csv_text = (tmp_path / "graph_growth_rows.csv").read_text()
    assert csv_text.splitlines()[0] == "R,length,truncated"


# one run per subcommand: (command words, input or None, further options)
STAMPED = [
    (["graph", "validate"], "theta.graph", []),
    (["graph", "growth"], "theta.graph", []),
    (["graph", "entropy"], "theta.graph", []),
    (["graph", "reduce"], "theta.graph", []),
    (["graph", "witness"], "theta_loop.graph", []),
    (["graph", "verify"], "theta_eighth.graph", []),
    (["surface", "validate"], "torus7.surf", []),
    (["surface", "systole"], "torus7.surf", []),
    (["surface", "capture"], "torus7.surf", []),
    (["surface", "nerve"], "torus7.surf", []),
    (["surface", "pipeline"], "torus7.surf", []),
    (["ref", "curves"], None, []),
    (["gen"], None, ["--kind", "theta"]),
]


@pytest.mark.parametrize("words, name, options", STAMPED,
                         ids=[" ".join(w) for w, _, _ in STAMPED])
def test_every_report_is_stamped(tmp_path, capsys, words, name, options):
    argv = [*words, *([name] if name else []), *options]
    rc, out, _ = run_cli(capsys, *argv, "--seed", "3", "--out", str(tmp_path))
    doc = json.loads(out)
    assert rc == 0 and doc["command"] == " ".join(words)
    assert ("input" in doc) == (name is not None)
    assert doc.get("input") == name and doc["seed"] == 3 and "timestamp" in doc
    stem = "_".join(words)
    assert json.loads((tmp_path / f"{stem}.json").read_text()) == doc
    written = {p.name for p in tmp_path.iterdir()} - {"theta_seed3.graph"}
    assert all(f.startswith(stem) for f in written)
    assert (tmp_path / "theta_seed3.graph").exists() == (words == ["gen"])


def test_surface_nerve_writes_one_ball_row_per_center(tmp_path, capsys):
    rc, out, _ = run_cli(capsys, "surface", "nerve", "genus2.surf",
                         "--out", str(tmp_path))
    assert rc == 0
    centers = json.loads(out)["centers"]
    rows = (tmp_path / "surface_nerve_balls.csv").read_text().splitlines()
    assert rows[0] == "center,ball_area"
    assert [int(r.split(",")[0]) for r in rows[1:]] == centers


# theta with edges of length 1/8: total 3/8 <= lambda*(3b-3) at lambda = 1/6
SMALL_THETA = "v 0\nv 1\ne 0 0 1 1/8\ne 1 0 1 1/8\ne 2 0 1 1/8\n"

TETRAHEDRON = "TSURF\nf 0 1 2\nf 0 1 3\nf 0 2 3\nf 1 2 3\n"

# (file text or None, argv with "{bad}" standing for the file)
MALFORMED = {
    "graph-bad-line": ("v 0\ne broken\n", ["graph", "validate", "{bad}"]),
    "graph-zero-denominator": ("v 0\nv 1\ne 0 0 1 1/0\n",
                               ["graph", "validate", "{bad}"]),
    "surf-zero-denominator": ("TSURF\nf 0 1 2\nel 0 1 1/0\n",
                              ["surface", "validate", "{bad}"]),
    "graph-no-vertices-validate": ("# only comments\n",
                                   ["graph", "validate", "{bad}"]),
    "graph-no-vertices-growth": ("# only comments\n",
                                 ["graph", "growth", "{bad}"]),
    "capture-unknown-base-greedy": (None, ["surface", "capture", "torus7.surf",
                                           "--base", "99"]),
    "capture-unknown-base-exact": (None, ["surface", "capture", "torus7.surf",
                                          "--mode", "exact", "--base", "99"]),
    "growth-grid-0": (None, ["graph", "growth", "theta.graph", "--grid", "0"]),
    "entropy-grid-0": (None, ["graph", "entropy", "theta.graph", "--grid", "0"]),
    "ref-curves-grid-0": (None, ["ref", "curves", "--grid", "0"]),
    "pipeline-grid-0": (None, ["surface", "pipeline", "torus7.surf",
                               "--grid", "0"]),
    "surf-length-on-non-edge": (TETRAHEDRON + "el 0 9 2\n",
                                ["surface", "validate", "{bad}"]),
    "entropy-rmax-0": (None, ["graph", "entropy", "theta.graph", "--rmax", "0"]),
    "verify-rmax-0": (SMALL_THETA, ["graph", "verify", "{bad}", "--rmax", "0"]),
    "growth-budget-0": (None, ["graph", "growth", "theta.graph",
                               "--budget", "0"]),
    "growth-budget-negative": (None, ["graph", "growth", "theta.graph",
                                      "--budget", "-1"]),
    "entropy-budget-0": (None, ["graph", "entropy", "theta.graph",
                                "--budget", "0"]),
    "verify-budget-negative": (SMALL_THETA, ["graph", "verify", "{bad}",
                                             "--budget", "-1"]),
    # genus 0 stops before the cover balls, so the pipeline checks the budget
    "pipeline-budget-0": (TETRAHEDRON, ["surface", "pipeline", "{bad}",
                                        "--budget", "0"]),
    "gen-theta-b": (None, ["gen", "--kind", "theta", "--b", "5"]),
    "gen-figure-eight-b": (None, ["gen", "--kind", "figure_eight", "--b", "5"]),
    # a genus-0 greedy capturing graph is empty, so no arc reaches a base
    "capture-genus-0-base-greedy": (TETRAHEDRON, ["surface", "capture", "{bad}",
                                                  "--base", "0"]),
    # --out is created before the command runs, or the run stops there
    "out-is-a-file": (SMALL_THETA, ["graph", "validate", "theta.graph",
                                    "--out", "{bad}"]),
    "out-below-a-file": (SMALL_THETA, ["graph", "validate", "theta.graph",
                                       "--out", "{bad}/x"]),
    "gen-out-is-a-file": (SMALL_THETA, ["gen", "--kind", "theta",
                                        "--out", "{bad}"]),
    # {dir} is an existing directory given as the input file
    "graph-input-is-a-directory": (None, ["graph", "validate", "{dir}"]),
    "surf-input-is-a-directory": (None, ["surface", "validate", "{dir}"]),
}


@pytest.mark.parametrize("case", list(MALFORMED))
def test_malformed_file_exit_1(tmp_path, capsys, case):
    text, argv = MALFORMED[case]
    bad = tmp_path / "bad"
    if text is not None:
        bad.write_text(text)
    rc, out, err = run_cli(capsys, *(a.replace("{bad}", str(bad))
                                     .replace("{dir}", str(tmp_path)) for a in argv))
    assert rc == 1 and "error" in err and out == ""
    if case.endswith("-is-a-directory"):
        assert err.startswith("error:") and str(tmp_path) in err


def test_exact_capture_size_limit_names_the_counts(capsys, monkeypatch):
    monkeypatch.setattr(surfballs, "EXACT_CAPTURE_EDGE_LIMIT", 20)
    message = "surface too large for exact capture search: 21 edges, limit 20"
    with pytest.raises(SurfaceError) as exc:
        surfballs.capture_length(fixtures.torus7(), mode="exact")
    assert str(exc.value) == message
    rc, out, err = run_cli(capsys, "surface", "capture", "torus7.surf",
                           "--mode", "exact")
    assert rc == 1 and out == "" and err == f"error: {message}\n"


# one case per writer: the JSON report, a CSV table and the generated graph
@pytest.mark.parametrize("argv, blocked", [
    (["graph", "validate", "theta.graph"], "graph_validate.json"),
    (["graph", "growth", "theta.graph"], "graph_growth_rows.csv"),
    (["gen", "--kind", "theta"], "theta_seed0.graph"),
], ids=["json", "csv", "gen"])
def test_unwritable_out_file_exit_1(tmp_path, capsys, argv, blocked):
    (tmp_path / blocked).mkdir()
    rc, out, err = run_cli(capsys, *argv, "--out", str(tmp_path))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and blocked in err


@pytest.mark.parametrize("command", [["graph", "validate"],
                                     ["surface", "validate"]])
def test_non_utf8_file_exit_1(tmp_path, capsys, command):
    bad = tmp_path / "bad"
    bad.write_bytes(b"\xff\xfe")
    rc, out, err = run_cli(capsys, *command, str(bad))
    assert rc == 1 and out == ""
    assert err.startswith("error:") and str(bad) in err


def test_budget_exhaustion_still_exit_0(capsys):
    rc, out, _ = run_cli(capsys, "graph", "growth", "figure_eight.graph",
                         "--rmax", "8", "--grid", "2", "--budget", "10")
    assert rc == 0
    assert json.loads(out)["truncated"]


def test_jsonable_prints_huge_exact_values():
    big = 10 ** 4999 + 7                      # 5000 digits
    out = cli.jsonable({"q": F(10 ** 400, 3), "n": F(big), "small": F(1, 3)})
    assert out["q"] == "1" + "0" * 400 + "/3" and out["q_float"] is None
    assert out["n"] == "1" + "0" * 4998 + "7/1" and out["n_float"] is None
    assert out["small_float"] == 1 / 3
    neg = -(3 ** 12000)
    digits = cli.jsonable(F(neg)).removesuffix("/1")
    # read the digits back in chunks the interpreter's str-to-int limit allows
    value = 0
    for i in range(1, len(digits), 1000):
        chunk = digits[i:i + 1000]
        value = value * 10 ** len(chunk) + int(chunk)
    assert digits[0] == "-" and -value == neg
    json.dumps(out)


def _strict_json(doc: str):
    """json.loads that rejects NaN and Infinity."""
    def reject(name):
        raise ValueError(f"non-finite constant {name} in output")
    return json.loads(doc, parse_constant=reject)


def test_ref_curves_beyond_float_range_is_strict_json(capsys):
    # cosh(800) exceeds every float
    rc, out, _ = run_cli(capsys, "ref", "curves", "--rmax", "800", "--grid", "1")
    assert rc == 0
    rows = _strict_json(out)["rows"]
    assert rows[1]["R"] == "800/1" and rows[1]["hyperbolic_ball_area"] is None


def test_pipeline_on_huge_torus_is_strict_json(tmp_path, capsys):
    path = tmp_path / "big.surf"
    path.write_text(format_surface(fixtures.scale_surface(fixtures.torus7(), 1000)))
    rc, out, _ = run_cli(capsys, "surface", "pipeline", str(path))
    assert rc == 0
    coarea = [st for st in _strict_json(out)["stages"] if st["stage"] == "coarea"]
    assert coarea[0]["target"] is None and coarea[0]["closed_form"] is None


def _python_dash_m(*argv):
    """Run ``python -m coverball`` in a subprocess on this checkout's source."""
    src = str(Path(coverball.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    return subprocess.run([sys.executable, "-m", "coverball", *argv],
                          capture_output=True, text=True, env=env, timeout=60)


def test_python_dash_m_runs_the_cli():
    theta = resources.files("coverball") / "corpus" / "theta.graph"
    proc = _python_dash_m("graph", "validate", str(theta))
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["betti"] == 2


# the parser is built once per process and shared by every run() call

def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_shared_parser_keeps_no_options_between_calls(capsys):
    rc, out, _ = run_cli(capsys, "graph", "growth", "theta.graph",
                         "--rmax", "3", "--grid", "12")
    assert rc == 0 and len(json.loads(out)["rows"]) == 13
    rc, out, _ = run_cli(capsys, "graph", "growth", "theta.graph")
    assert rc == 0
    doc = strip_time(out)
    assert doc["rmax"] == "2/1" and len(doc["rows"]) == 9
    proc = _python_dash_m("graph", "growth", "theta.graph")
    assert proc.returncode == 0, proc.stderr
    assert strip_time(proc.stdout) == doc


def test_shared_parser_after_usage_error(capsys):
    rc, before, _ = run_cli(capsys, "graph", "validate", "theta.graph")
    assert rc == 0
    with pytest.raises(SystemExit) as exc:
        cli.run(["graph", "validate", "theta.graph", "--no-such-option"])
    assert exc.value.code == 2
    assert "--no-such-option" in capsys.readouterr().err
    rc, after, _ = run_cli(capsys, "graph", "validate", "theta.graph")
    assert rc == 0
    assert strip_time(after) == strip_time(before)
    assert json.loads(after)["betti"] == 2


def test_format_option_is_a_usage_error(tmp_path, capsys):
    """There is no --format: --out always writes the JSON report and every
    CSV table."""
    with pytest.raises(SystemExit) as exc:
        cli.run(["graph", "growth", "theta.graph", "--format", "json",
                 "--out", str(tmp_path / "bad")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.startswith("usage: coverball graph growth [-h]")
    assert not (tmp_path / "bad").exists()
    rc, out, _ = run_cli(capsys, "graph", "growth", "theta.graph",
                         "--out", str(tmp_path / "good"))
    assert rc == 0 and json.loads(out)["rmax"] == "2/1"
    assert (tmp_path / "good" / "graph_growth.json").exists()
    assert (tmp_path / "good" / "graph_growth_rows.csv").exists()


# token-level mutations of the corpus files: every mutant parses or is
# rejected with GraphError/SurfaceError, and `validate` exits 0 or 1
CORPUS_FILES = ["figure_eight.graph", "theta.graph", "trivalent_b3.graph",
                "genus2.surf", "torus7.surf"]
TOKENS = ["0", "1", "2", "7", "-1", "99", "1/0", "0/1", "-2/3", "1/3", "1e3",
          "1.5", "nan", "inf", "x", "v", "e", "f", "el", "nv", "TSURF", "#",
          "1" * 5000]
MUTATION = st.tuples(st.sampled_from(["replace", "delete", "insert",
                                      "drop-line", "copy-line", "swap-lines"]),
                     st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
                     st.sampled_from(TOKENS))


def _mutate(text: str, mutations) -> str:
    lines = [ln.split() for ln in text.splitlines()]
    for kind, i, j, tok in mutations:
        if not lines:
            lines = [[tok]]
            continue
        line = lines[i % len(lines)]
        k = j % (len(line) + 1)
        if kind == "replace" and line:
            line[k % len(line)] = tok
        elif kind == "delete" and line:
            del line[k % len(line)]
        elif kind == "insert":
            line.insert(k, tok)
        elif kind == "drop-line":
            del lines[i % len(lines)]
        elif kind == "copy-line":
            lines.insert(j % len(lines), list(line))
        elif kind == "swap-lines":
            a, b = i % len(lines), j % len(lines)
            lines[a], lines[b] = lines[b], lines[a]
    return "".join(" ".join(ln) + "\n" for ln in lines)


@given(st.sampled_from(CORPUS_FILES), st.lists(MUTATION, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_mutated_corpus_files_parse_or_exit_1(name, mutations):
    text = _mutate((resources.files("coverball") / "corpus" / name).read_text(),
                   mutations)
    kind, parse, error = (("graph", parse_graph, GraphError)
                          if name.endswith(".graph")
                          else ("surface", parse_surface, SurfaceError))
    try:
        parse(text)
    except error:
        want = 1
    else:
        want = 0
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / name
        path.write_text(text)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = cli.run([kind, "validate", str(path)])
    assert rc == want
