"""Record the reference digests of every input any seed can select.

    python3 perfbench/record.py [workload ...]

Runs each op of each pool input once, checks its invariants, and writes
``perfbench/reference.json``.  Re-record only when the exact outputs are
meant to change; the benchmark fails every op whose digest differs.  The
degenerate op is recorded with the exact interval from the one-space LP,
since vertex enumeration cannot finish on it today.
"""

import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import credalchoice as cc  # noqa: E402

from perfbench.workloads import REFERENCE_PATH, WORKLOADS, digest  # noqa: E402


def record(name: str) -> dict[str, str]:
    w = WORKLOADS[name]
    out: dict[str, str] = {}
    done = []
    for ref in w.pool_refs():
        for op in w.prepare(ref, w.text(ref)):
            if op.cap_expected:
                result = cc.credal_bounds_single_space(*op.inputs)
            else:
                result = op.call()
                done.append((op, result))
            out[op.ref] = digest(w.summary(op, result))
        print(f"{name}: {ref}", file=sys.stderr)
    broken = w.violations(done)
    if broken:
        raise SystemExit(f"{name}: invariants fail at this commit: {broken}")
    return out


def main() -> None:
    names = sys.argv[1:] or list(WORKLOADS)
    reference = json.loads(REFERENCE_PATH.read_text()) if REFERENCE_PATH.exists() else {}
    for name in names:
        reference.update(record(name))
    REFERENCE_PATH.write_text(json.dumps(dict(sorted(reference.items())), indent=1) + "\n")


if __name__ == "__main__":
    main()
