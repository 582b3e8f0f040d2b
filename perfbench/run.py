"""Benchmark entry point: one workload, one seed, in a fresh bounded process.

Usage (from the repository root)::

    python3 perfbench/run.py --workload macaque512_1rank --seed 0 \
        --seconds 12 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a traced run.  The last line of standard output is the result
object ``{"correct", "attempted", "failed", "metrics"}``; the line before
it is the run's measurement record.  See README.md.

The workload runs in a child process (``workloads.py``) in its own
process group, so a hang is cut off after ``RUN_LIMIT_S`` and every
process it started, pool workers included, is killed and waited for.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
#: Wall-time bound of the whole child run (the run must end within 180 s).
RUN_LIMIT_S = 160.0
#: How long to wait for a finished child's process group to drain.
DRAIN_S = 10.0


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    except PermissionError:
        return True
    return True


def _reap_group(pgid: int) -> None:
    """Wait for stragglers of the child's group, then kill what is left."""
    deadline = time.monotonic() + DRAIN_S
    while _group_alive(pgid) and time.monotonic() < deadline:
        time.sleep(0.05)
    if _group_alive(pgid):
        try:
            os.killpg(pgid, signal.SIGKILL)
        except ProcessLookupError:
            return
        while _group_alive(pgid) and time.monotonic() < deadline + DRAIN_S:
            time.sleep(0.05)


def main(argv: list[str]) -> int:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: {ROOT} holds no src/repro package to benchmark", file=sys.stderr)
        return 2
    child = subprocess.Popen(
        [sys.executable, str(BENCH_DIR / "workloads.py"), *argv],
        cwd=ROOT,
        stdout=subprocess.PIPE,
        start_new_session=True,
        text=True,
    )
    try:
        out, _ = child.communicate(timeout=RUN_LIMIT_S)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        _reap_group(child.pid)
        print(f"error: run exceeded {RUN_LIMIT_S:.0f} s and was killed", file=sys.stderr)
        return 1
    _reap_group(child.pid)
    sys.stdout.write(out)
    if child.returncode != 0:
        return child.returncode
    lines = out.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {}
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        print("error: the workload printed no result line", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
