"""coverball benchmark: one workload per run, end-to-end or traced.

    python3 bench/run.py --workload witness-sweep --seed 0 --seconds 20 --trace 0

Run from any directory of a checkout; coverball is imported from the
checkout's ``src/`` and nowhere else.  ``--trace 0`` measures the end-to-end
metrics for ``--seconds`` seconds (and at least the workload's minimum op
count); ``--trace 1`` runs a fixed prefix of the op stream twice, each op
untraced and then traced, and reports the per-layer metrics.  The last line of
stdout is the JSON result; the lines before it give the environment, the
work size and every metric by name and unit.  ``--workload all`` runs each
workload in its own process and prints every metric.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from itertools import islice
from pathlib import Path

import host

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPS = 9          # at most; set-up stops repeating after SETUP_BUDGET_S
SETUP_BUDGET_S = 3.0
CALIBRATE_EVERY_S = 0.25
SMOOTH = 3              # kernel samples on each side of a segment
MAX_ERRORS_SHOWN = 5
NAMES = ["witness-sweep", "nerve-pack", "capture-height", "cli-corpus"]


def import_program():
    """Import coverball from this checkout's src/, or exit 2."""
    src = ROOT / "src"
    if not (src / "coverball" / "__init__.py").is_file():
        sys.exit(f"bench: no coverball sources under {src}")
    sys.path.insert(0, str(src))
    import coverball
    if Path(coverball.__file__).resolve().parent != src / "coverball":
        sys.exit(f"bench: coverball imported from {coverball.__file__}, not {src}")


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(args) -> dict:
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "git_sha": git_sha(),
            "python": platform.python_version(), "nproc": os.cpu_count()}


class Runner:
    """Runs ops and keeps their latencies.

    With ``calibrate`` the host kernel is timed whenever CALIBRATE_EVERY_S of
    op time has passed, and once more by ``close``.  ``close`` then fills
    ``scaled``: each op's latency at reference host speed, using the median
    of the kernel times taken around it, which tracks host slowness that
    lasts seconds but not the jitter of a single kernel sample."""

    def __init__(self, calibrate: bool = False):
        self.attempted = 0
        self.latencies: list[float] = []
        self.scaled: list[float] = []
        self.passed: list[bool] = []
        self.calibrate = calibrate
        self._marks: list[tuple[int, float]] = []    # (ops before it, kernel s)
        self._since = 0.0

    @property
    def failed(self) -> int:
        return self.attempted - sum(self.passed)

    def _calibrate(self) -> None:
        self._marks.append((len(self.latencies), host.kernel_s()))
        self._since = 0.0

    def close(self) -> None:
        if not self.calibrate:
            return
        self._calibrate()
        marks = self._marks
        for j in range(len(marks) - 1):
            near = [k for _, k in marks[max(0, j + 1 - SMOOTH):j + 1 + SMOOTH]]
            scale = host.KERNEL_REF_S / statistics.median(near)
            self.scaled += [dt * scale for dt in self.latencies[marks[j][0]:marks[j + 1][0]]]

    def run(self, op, tracer=None) -> float:
        """Time one op, then check it untimed; returns the op's seconds.

        Garbage left by earlier ops (surfaces and their homology form
        reference cycles) is collected first, outside the timed work, so
        each op starts from the heap a fresh process would give it."""
        self.attempted += 1
        gc.collect()
        if self.calibrate and (not self._marks or self._since >= CALIBRATE_EVERY_S):
            self._calibrate()
        if tracer is not None:
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = op.run()
            error = None
        except Exception as exc:
            error = exc
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        self.latencies.append(dt)
        self._since += dt
        if error is None:
            try:
                ok = bool(op.check(result))
            except Exception as exc:
                error, ok = exc, False
        else:
            ok = False
        self.passed.append(ok)
        if not ok and self.failed <= MAX_ERRORS_SHOWN:
            print(f"bench: op {op.label} failed: {error!r}", file=sys.stderr)
        return dt


def timed_setup(w, seed, tmp):
    """Set up at least three times; ``setup_s`` is the median set-up time at
    reference host speed."""
    times = []
    while len(times) < 3 or (len(times) < SETUP_REPS and sum(times) < SETUP_BUDGET_S):
        gc.collect()
        k0 = host.kernel_s()
        t0 = time.perf_counter()
        first = w.setup(seed, tmp)
        dt = time.perf_counter() - t0
        times.append(dt * host.KERNEL_REF_S / ((k0 + host.kernel_s()) / 2))
    return first, statistics.median(times)


def end_to_end(w, seed, seconds, tmp):
    first, setup_s = timed_setup(w, seed, tmp)
    r = Runner(calibrate=True)
    deadline = time.perf_counter() + seconds
    for op in w.stream(seed, first):
        if (r.attempted >= w.min_ops and r.attempted % w.unit == 0
                and time.perf_counter() >= deadline):
            break
        r.run(op)
    r.close()
    lat = sorted(r.scaled)
    n = len(lat)
    # the highest percentile that has ten samples beyond it in every run,
    # since every run holds at least min_ops samples; a fixed percentile
    # keeps runs of different length comparable
    tail_q = 1 - 10 / w.min_ops
    tail_rank = max(math.ceil(tail_q * n) - 1, 0)
    metrics = {
        "ops_per_s": (sum(r.passed) / sum(lat), "1/s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (lat[tail_rank] * 1e3, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    notes = {"fail_ratio": r.failed / r.attempted,
             "op_tail_percentile": round(100 * tail_q, 2),
             "samples": n, "timed_s": sum(r.latencies),
             "host_slowdown": sum(r.latencies) / sum(r.scaled)}
    return r, metrics, notes


def traced(w, seed, tmp, limit=None):
    from tracer import Tracer

    first, _ = timed_setup(w, seed, tmp)
    n = limit or w.trace_ops
    reference = list(islice(w.stream(seed, first), n))
    fresh = list(islice(w.stream(seed), n))
    r = Runner()
    tracer = Tracer()
    tracer.install()
    untraced_s = traced_s = 0.0
    try:
        # alternate untraced and traced copies of each op, so host drift
        # falls on both sides of the overhead ratio
        for i, (ref, op) in enumerate(zip(reference, fresh)):
            untraced_s += r.run(ref)
            tracer.op = i
            traced_s += r.run(op, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(n, traced_s, traced_s / untraced_s)
    return r, tracer, metrics


def run_one(args) -> int:
    import_program()
    from workloads import WORKLOADS

    w = WORKLOADS[args.workload]()
    print("env " + json.dumps(environment(args)))
    tmp_root = ROOT / ".bench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        if args.trace:
            r, tracer, metrics = traced(w, args.seed, Path(tmp))
            out = ROOT / ".bench_out"
            out.mkdir(exist_ok=True)
            path = out / f"trace-{args.workload}-seed{args.seed}.json"
            tracer.dump(path)
            print(f"spans {len(tracer.spans)} written to {path}")
            op_s = metrics["trace.op_s"]["value"]
            for name in ("cover.ball_length", "surface.capturing_test",
                         "surfballs.capture_length"):
                busy = sum(m["value"] for k, m in metrics.items()
                           if k.startswith(name) and k.endswith(".busy_s"))
                print(f"share {name} {busy / op_s:.3f} of traced op time")
        else:
            r, raw, notes = end_to_end(w, args.seed, args.seconds, Path(tmp))
            metrics = {k: {"value": v, "unit": u} for k, (v, u) in raw.items()}
            print("notes " + json.dumps(notes))
    print("work " + json.dumps(w.work()))
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"fail_ratio = {r.failed / r.attempted:.6g} ({r.failed}/{r.attempted})")
    print(json.dumps({"correct": r.failed == 0, "attempted": r.attempted,
                      "failed": r.failed, "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process, so peak memory stays per workload."""
    total = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            print(f"bench: {name} exited {proc.returncode}", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.splitlines()
        print(f"== {name}")
        print("\n".join(lines[:-1]))
        res = json.loads(lines[-1])
        total["correct"] &= res["correct"]
        total["attempted"] += res["attempted"]
        total["failed"] += res["failed"]
        for k, m in res["metrics"].items():
            total["metrics"][f"{name}.{k}"] = m
    print(json.dumps(total))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=NAMES + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
