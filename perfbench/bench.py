"""Measure one workload: set-up in fresh processes, a closed loop of timed
passes over the batch, then the output checks.

One caller, one process, no threads: each op starts when the previous one
has returned.  A pass runs every op of the batch once; passes repeat until
the run's seconds are spent.  Everything here runs outside ``src/``.

The benchmark runs on shared hosts whose speed drifts.  On a 2-vCPU virtual
machine, the same pass over the same inputs took 4.2 s in one half-minute
and 6.3 s in another, and slow stretches lasted minutes.  Two measures
keep that drift out of the gated figures:

* each op is timed at its fastest pass, the one least disturbed;
* before every op, a fixed reference loop of exact rational arithmetic is
  timed too, and ``wall_ref`` and ``op_p50_ref`` divide op times by the
  loop's time, taken as the op times are.  A slower program is slower against the loop; a
  slower host slows both.

Raw seconds are still printed and reported by the traced run.
"""

from __future__ import annotations

import json
import resource
import statistics
import subprocess
import sys
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from time import perf_counter
from typing import Callable

import credalchoice as cc

from .tracer import SIZES, TARGETS, Tracer, layer_totals
from .workloads import WORKLOADS, Op, Workload, digest, load_reference

ROOT = Path(__file__).resolve().parent.parent
PROBE = Path(__file__).with_name("setup_probe.py")
PROBES = 2  # fresh-process set-ups before and again after the timed passes

COUNT_METRICS = [name for name, _ in SIZES.values()] + ["inference.combos"]


@dataclass
class Pass:
    times: list[float]
    ref_times: list[float]  # the reference loop, timed before each op
    results: list


def reference_loop() -> Fraction:
    """Fixed work in the package's own currency: exact rational sums whose
    denominators grow, as in simplex pivots.  About 30 ms on a fast host."""
    total = Fraction(0)
    for i in range(1, 6000):
        total += Fraction(1, i % 97 + 1) * Fraction(i % 13 + 1, 7)
    return total


@dataclass
class Outcome:
    attempted: int = 0
    capped: int = 0  # the degenerate op's known CapExceededError
    errors: int = 0
    wrong: int = 0
    messages: list[str] = field(default_factory=list)

    @property
    def failed(self) -> int:
        return self.errors + self.wrong


def fresh_setups(name: str, seed: int, probes: int = PROBES) -> list[dict]:
    out = []
    for _ in range(probes):
        proc = subprocess.run(
            [sys.executable, str(PROBE), name, str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
        )
        out.append(json.loads(proc.stdout.splitlines()[-1]))
    return out


def run_pass(ops: list[Op], tracer: Tracer | None = None, pass_id: int = 0) -> Pass:
    p = Pass([], [], [])
    for i, op in enumerate(ops):
        t0 = perf_counter()
        reference_loop()
        p.ref_times.append(perf_counter() - t0)
        if tracer is not None:
            tracer.op = (pass_id, i)
        t0 = perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # judged after the timed loop
            result = exc
        p.times.append(perf_counter() - t0)
        p.results.append(result)
    return p


def repeat(seconds: float, step: Callable[[int], None]) -> None:
    """Call ``step(0)``, ``step(1)``, ... within ``seconds``: at least once,
    and never starting a step that would, at the mean pace, end late."""
    start = perf_counter()
    done = 0
    while True:
        step(done)
        done += 1
        elapsed = perf_counter() - start
        if elapsed + elapsed / done > seconds:
            return


def fastest(per_pass: list[list[float]]) -> list[float]:
    """Each position's fastest time over the passes."""
    return [min(ts) for ts in zip(*per_pass)]


def reference_time(passes: list[Pass]) -> float:
    """The reference loop's time: the mean over op positions of the fastest
    time at each position.  Taken like the op times, it is no more likely
    than they are to catch a brief fast moment of the host."""
    return statistics.mean(fastest([p.ref_times for p in passes]))


def judge(w: Workload, ops: list[Op], passes: list[Pass], reference: dict[str, str]) -> Outcome:
    out = Outcome()
    for p in passes:
        ok: list[tuple[Op, object]] = []
        for op, r in zip(ops, p.results):
            out.attempted += 1
            if isinstance(r, cc.CapExceededError) and op.cap_expected:
                out.capped += 1
            elif isinstance(r, Exception):
                out.errors += 1
                out.messages.append(f"{op.ref}: " + "".join(traceback.format_exception(r)).rstrip())
            elif digest(w.summary(op, r)) != reference.get(op.ref):
                out.wrong += 1
                out.messages.append(f"{op.ref}: output differs from the reference digest")
            else:
                ok.append((op, r))
        for ref, message in w.violations(ok).items():
            out.wrong += 1
            out.messages.append(f"{ref}: {message}")
    return out


def end_to_end(name: str, seed: int, seconds: float, max_ops: int | None = None) -> tuple[dict, Outcome, dict]:
    """Metrics of a run with tracing off, its outcome, and run facts.

    ``max_ops`` keeps only the first ops of the batch, for smoke tests.
    """
    w = WORKLOADS[name]
    probes = fresh_setups(name, seed)
    ops = w.setup(seed)[:max_ops]
    passes: list[Pass] = []
    repeat(seconds, lambda i: passes.append(run_pass(ops)))
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    probes += fresh_setups(name, seed)
    outcome = judge(w, ops, passes, load_reference())
    best = fastest([p.times for p in passes])
    ref = reference_time(passes)
    metrics = {
        "wall_ref": sum(best) / ref,
        "setup_s": statistics.median(pr["setup_s"] for pr in probes),
        "peak_rss_mb": peak_kb / 1024,
        # printed, not gated
        "op_p50_ref": statistics.median(best) / ref,
        "wall_s": sum(best),
        "op_p50_s": statistics.median(best),
        "ref_s": ref,
    }
    facts = {"passes": len(passes), "ops_per_pass": len(ops), "probes": len(probes)}
    return metrics, outcome, facts


def per_layer(name: str, seed: int, seconds: float, max_ops: int | None = None) -> tuple[dict, Outcome, dict]:
    """Metrics of a traced run: traced set-up, then untraced and traced
    passes in turn.

    Calls and counts are those of one set-up plus one pass, and must repeat
    exactly in every traced pass.  Self times are the set-up's plus the
    fastest traced pass's.
    """
    w = WORKLOADS[name]
    probes = fresh_setups(name, seed)
    start = perf_counter()
    tracer = Tracer()
    with tracer:
        tracer.op = "setup"
        ops = w.setup(seed)[:max_ops]
    plain: list[Pass] = []
    traced: list[Pass] = []

    def step(i: int) -> None:
        plain.append(run_pass(ops))
        with tracer:
            traced.append(run_pass(ops, tracer, i))

    repeat(seconds - (perf_counter() - start), step)
    probes += fresh_setups(name, seed)

    outcome = judge(w, ops, plain + traced, load_reference())
    for i, p in enumerate(traced):
        for op, a, b in zip(ops, plain[i].results, p.results):
            same = type(a) is type(b) and (isinstance(a, Exception) or w.summary(op, a) == w.summary(op, b))
            if not same:
                outcome.wrong += 1
                outcome.messages.append(f"{op.ref}: traced pass {i} differs from the untraced pass")

    setup = layer_totals(tracer.spans, {"setup"})
    per_pass = [layer_totals(tracer.spans, {(i, j) for j in range(len(ops))}) for i in range(len(traced))]
    counts = [{k: v for k, v in p.items() if not k.endswith(".self_s")} for p in per_pass]
    if any(c != counts[0] for c in counts):
        outcome.wrong += 1
        outcome.messages.append("traced passes made different calls or counts")
    metrics: dict[str, float] = {}
    for mod, functions in TARGETS.items():
        for fn in functions:
            key = f"{mod}.{fn}"
            metrics[f"{key}.calls"] = setup.get(f"{key}.calls", 0) + counts[0].get(f"{key}.calls", 0)
            metrics[f"{key}.self_s"] = setup.get(f"{key}.self_s", 0.0) + min(
                p.get(f"{key}.self_s", 0.0) for p in per_pass
            )
    for key in COUNT_METRICS:
        metrics[key] = setup.get(key, 0) + counts[0].get(key, 0)
    metrics["cli.import_s"] = statistics.median(pr["import_s"] for pr in probes)
    metrics["host.ref_s"] = reference_time(plain + traced)
    metrics["trace.untraced_wall_s"] = sum(fastest([p.times for p in plain]))
    metrics["trace.wall_s"] = sum(fastest([p.times for p in traced]))
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    facts = {"passes": len(plain) + len(traced), "ops_per_pass": len(ops), "probes": len(probes)}
    return metrics, outcome, facts
