"""Record the cli-corpus golden reports from the current program.

    python3 bench/record_golden.py

Run only when a report format changes on purpose: the cli-corpus check
compares every command's JSON (minus its timestamp) with this file.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

import run


def main() -> int:
    run.import_program()
    import inputs
    from coverball.graphs import format_graph
    from workloads import GOLDEN, _cli_run, corpus_commands, normalize

    golden = {}
    for argv in corpus_commands():
        rc, out = _cli_run(argv)()
        if rc != 0:
            sys.exit(f"{' '.join(argv)} exited {rc}")
        golden[" ".join(argv)] = normalize(out, None)
    with tempfile.TemporaryDirectory() as tmp:
        for name, g, lam in inputs.verify_pool():
            path = Path(tmp) / f"{name}.graph"
            path.write_text(format_graph(g))
            rc, out = _cli_run(["graph", "verify", str(path), "--lambda", str(lam)])()
            if rc != 0:
                sys.exit(f"graph verify {name} exited {rc}")
            golden[f"graph verify {name} --lambda {lam}"] = normalize(out, name)
    GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} reports written to {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
