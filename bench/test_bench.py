"""Self-tests of the benchmark: output contract, determinism of the traced
counts, and refusal to run without the program's sources.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest

import run

run.import_program()

from tracer import LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())

# (workload, traced ops, counts that must repeat exactly)
DETERMINISM = [
    ("witness-sweep", 20, ["cover.ball_length.nodes", "cover.ball_length.calls"]),
    ("nerve-pack", 2, ["surface.capturing_test.calls", "linalg.Echelon.reduce.calls",
                       "nerve.centers", "nerve.nerve_edges"]),
    ("capture-height", 1, ["surfballs.capture_length.exact.calls",
                           "surfballs.capture_length.exact_based.calls",
                           "linalg.Echelon.reduce.calls"]),
    ("cli-corpus", 28, ["surfballs.capture_length.exact.calls",
                        "surfballs.capture_length.greedy.calls",
                        "surface.capturing_test.calls", "cover.ball_length.nodes"]),
]


@pytest.fixture
def scratch():
    base = run.ROOT / ".bench_tmp"
    base.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=base) as tmp:
        yield Path(tmp)


def bench(*argv, cwd=run.ROOT, script=run.BENCH / "run.py"):
    return subprocess.run([sys.executable, str(script), *argv], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def test_spec_names_match_the_tracer():
    assert [m["name"] for m in SPEC["workloads"]] == run.NAMES == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in SPEC["per_layer"]] == \
        [(name, unit, better) for name, unit, better, _ in LAYER_METRICS]


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_contract(trace):
    proc = bench("--workload", "cli-corpus", "--seed", "3", "--seconds", "1",
                 "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    spec = SPEC["per_layer"] if trace == "1" else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in res["metrics"].items()} == \
        {m["name"]: m["unit"] for m in spec}


@pytest.mark.parametrize("name,limit,keys", DETERMINISM)
def test_traced_counts_repeat_exactly(name, limit, keys, scratch):
    counts = []
    for _ in range(2):
        r, tracer, _ = run.traced(WORKLOADS[name](), 5, scratch, limit)
        assert r.failed == 0
        counts.append(tracer.exact_counts())
    for key in keys:
        assert counts[0].get(key, 0) > 0, key
        assert counts[0][key] == counts[1][key], key


def test_refuses_to_run_without_sources(scratch):
    shutil.copy(run.ROOT / "BENCHMARK.json", scratch)
    shutil.copytree(run.BENCH, scratch / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "cli-corpus", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=scratch, script=scratch / "bench" / "run.py")
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
