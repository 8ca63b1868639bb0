"""Record golden output hashes: ``python3 bench/bless.py`` from the repo root.

Runs every workload's golden ops (pinned inputs, see ``workloads.golden_ops``)
on the current code and writes the SHA-256 of each op's ``--out`` bytes and
stdout bytes to ``bench/golden.json``. Re-bless only when an output change is
intended and explained: the hashes are the byte-identical gate for refactors.
"""

import json
import os
import sys

import workloads

ROOT = os.path.dirname(workloads.BENCH_DIR)
sys.path.insert(0, os.path.join(ROOT, "src"))

import child  # noqa: E402  (imports xctin.cli from src/)


def main() -> int:
    workdir = os.path.join(ROOT, ".bench_build", "bench", "bless")
    os.makedirs(workdir, exist_ok=True)
    golden = {}
    for workload in workloads.WORKLOADS:
        for op in workloads.golden_ops(workload, workdir):
            code, _, out, stdout = child.execute(op)
            if code != 0 or not workloads.output_ok(op, out, stdout):
                print(f"error: golden op failed its checks: {op['id']}", file=sys.stderr)
                return 1
            golden[op["id"]] = {"out": workloads.sha256(out), "stdout": workloads.sha256(stdout)}
    with open(workloads.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
