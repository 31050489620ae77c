"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload rank --seed 1 --seconds 20 --trace 0

Run it from a checkout of the repository: the package is imported from the
checkout's ``src/``.  The metric names and units come from
``BENCHMARK.json``: with ``--trace 0`` every end-to-end metric, with
``--trace 1`` every per-layer metric.  Human-readable lines come first; the
last line is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.  The exit code is 1 when any output is wrong, 2 when the
package or the benchmark definition cannot be found.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "credalchoice"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (PACKAGE / "__init__.py").is_file():
        print(f"perfbench: no package at {PACKAGE}; run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    import credalchoice

    if Path(credalchoice.__file__).resolve().parent != PACKAGE.resolve():
        print(f"perfbench: imported credalchoice from {credalchoice.__file__}, not {PACKAGE}", file=sys.stderr)
        return 2
    from perfbench import bench
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer" if args.trace else "end_to_end"]

    measure = bench.per_layer if args.trace else bench.end_to_end
    metrics, outcome, facts = measure(args.workload, args.seed, args.seconds)

    print(
        f"perfbench {args.workload}: seed {args.seed}, trace {args.trace}, closed loop with one caller; "
        f"{facts['passes']} passes of {facts['ops_per_pass']} ops, each op timed at its fastest pass; "
        f"set-up timed in {facts['probes']} fresh processes"
    )
    for m in wanted:
        print(f"  {m['name']:<48} {metrics[m['name']]:>14.6g} {m['unit']}")
    if not args.trace:
        print(f"  {'op count (op_p50 is over these)':<48} {facts['ops_per_pass']:>14}")
        for name, unit in (("op_p50_ref", "ref"), ("wall_s", "s"), ("op_p50_s", "s"), ("ref_s", "s")):
            print(f"  {name + ' (not gated)':<48} {metrics[name]:>14.6g} {unit}")
    frac = (outcome.failed + outcome.capped) / outcome.attempted
    print(
        f"  {'fail_frac':<48} {frac:>14.6g} ({outcome.failed + outcome.capped} of {outcome.attempted} ops:"
        f" {outcome.capped} cap errors, {outcome.errors} other errors, {outcome.wrong} wrong results)"
    )
    for message in outcome.messages:
        print(f"perfbench: {message}", file=sys.stderr)
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 0 if outcome.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
