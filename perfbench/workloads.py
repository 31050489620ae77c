"""The benchmark workloads: seeded input batches, the ops run on them, and
the checks applied to every op's output.

Each workload draws its batch from a fixed pool of input seeds, so every
input any ``--seed`` can produce has a reference digest recorded in
``reference.json``.  A batch leaves out one input of its pool (one per
stratum for ``rank``): the batch's work is then the pool's minus one
input's, so the seed changes which inputs run, and their order, while the
work per pass moves by only a few percent from seed to seed.  Set-up (generate, parse, validate) returns the ops;
an op is one public call into the package, looked up in the package
namespace when it runs, so that the tracer's rebinding sees it.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Callable

import credalchoice as cc

from . import gen

REFERENCE_PATH = Path(__file__).with_name("reference.json")

HALF = Fraction(1, 2)
PSAT_EPSILON = Fraction(1, 1024)
# Bases the degenerate vertex enumeration may visit before it gives up; at
# this cap the default vertex method raises CapExceededError after about 1 s.
DEGENERATE_VERTEX_CAP = 1000


@dataclass
class Op:
    """One timed call.  ``ref`` names its reference digest."""

    ref: str
    call: Callable[[], Any]
    inputs: tuple = ()
    cap_expected: bool = False  # CapExceededError is this op's known outcome today


def digest(summary: str) -> str:
    return hashlib.sha256(summary.encode()).hexdigest()[:16]


def load_reference() -> dict[str, str]:
    with open(REFERENCE_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def parse_theory(text: str):
    doc = cc.parse_ccl(text)
    report = cc.validate_theory(doc.theory)
    if not report.ok:
        raise ValueError(f"generated theory is invalid: {report}")
    return doc.theory, doc.queries[0]


def degenerate_theory(text: str):
    """The ``o0 > o1`` theory of a ranking dataset: a degenerate polytope."""
    d = cc.parse_rankings(text)
    m = cc.smooth_marginals(cc.counts_from_rankings(d))
    t, q = cc.pairwise_query(cc.build_ranking_theory(m), m, 0, 1)
    report = cc.validate_theory(t)
    if not report.ok:
        raise ValueError(f"ranking pair theory is invalid: {report}")
    return t, q


@dataclass
class Workload:
    name: str
    why: str
    pool: int  # input seeds 0 .. pool-1 have reference digests
    batch_size: int  # inputs per pass
    shape: dict

    def batch(self, seed: int) -> list[str]:
        """The refs of the inputs a seed selects, in run order."""
        return [f"{self.name}:{k}" for k in random.Random(seed).sample(range(self.pool), self.batch_size)]

    def pool_refs(self) -> list[str]:
        """Every input any seed can select."""
        return [f"{self.name}:{k}" for k in range(self.pool)]

    def text(self, ref: str) -> str:
        """The generated input file of one ref."""
        raise NotImplementedError

    def prepare(self, ref: str, text: str) -> list[Op]:
        raise NotImplementedError

    def setup(self, seed: int) -> list[Op]:
        """Generate, parse and validate the batch: all the work before the first op."""
        return [op for ref in self.batch(seed) for op in self.prepare(ref, self.text(ref))]

    def summary(self, op: Op, result) -> str:
        """The op's exact output as text; its digest must match the reference."""
        return f"{result.lower} {result.upper}"

    def violations(self, done: list[tuple[Op, Any]]) -> dict[str, str]:
        """Broken invariants, by op ref, over one pass of successful ops."""
        return {}


class Rank(Workload):
    # input k is drawn with dispersion phis[k % len(phis)], its stratum

    def batch(self, seed):
        # every stratum is equally represented in every batch
        k = len(self.shape["phis"])
        rng = random.Random(seed)
        strata = [rng.sample(range(s, self.pool, k), self.batch_size // k) for s in range(k)]
        return [f"rank:{key}" for group in zip(*strata) for key in group]

    def text(self, ref):
        k = int(ref.split(":")[1])
        phis = self.shape["phis"]
        return gen.rankings_text(k, n=self.shape["n"], count=self.shape["count"], phi=phis[k % len(phis)])

    def prepare(self, ref, text):
        d = cc.parse_rankings(text)
        return [Op(ref, lambda: cc.evaluate(d, backend="lp"))]

    def summary(self, op, report):
        lines = [
            f"{p.pair[0]}>{p.pair[1]} {p.interval.lower} {p.interval.upper} {p.ccl_verdict}"
            f" {p.icl_value} {p.icl_verdict} {p.truth}"
            for p in report.pairs
        ]
        lines.append(f"{report.determinacy_rate} {report.icl_acc_determinate} {report.icl_acc_indeterminate}")
        return "\n".join(lines)

    def violations(self, done):
        out = {}
        for op, report in done:
            for p in report.pairs:
                lo, hi = p.interval.lower, p.interval.upper
                expected = "first" if lo > HALF else "second" if hi < HALF else "indeterminate"
                if p.ccl_verdict != expected:
                    out[op.ref] = f"{p.pair}: verdict {p.ccl_verdict} for interval [{lo}, {hi}]"
        return out


class MultiSpace(Workload):
    # One fixed degenerate input: its time to reach the cap varies 3x between
    # datasets, so a seeded choice would swamp the seed-to-seed spread.
    degenerate = "degenerate:0"

    def batch(self, seed):
        return super().batch(seed) + [self.degenerate]

    def pool_refs(self):
        return super().pool_refs() + [self.degenerate]

    def text(self, ref):
        kind, k = ref.split(":")
        if kind == "degenerate":
            return gen.rankings_text(int(k), **self.shape["degenerate"])
        return gen.multi_space_ccl(int(k), **self.shape["ccl"])

    def prepare(self, ref, text):
        if ref.startswith("degenerate:"):
            t, q = degenerate_theory(text)
            call = lambda: cc.credal_bounds_strong_extension(t, q, vertex_cap=DEGENERATE_VERTEX_CAP)
            return [Op(ref, call, (t, q), cap_expected=True)]
        t, q = parse_theory(text)
        return [
            Op(f"{ref}:strong", lambda: cc.credal_bounds_strong_extension(t, q), (t, q)),
            Op(f"{ref}:outer", lambda: cc.outer_bound(t, q), (t, q)),
        ]

    def violations(self, done):
        exact = {op.ref.removesuffix(":strong"): r for op, r in done if op.ref.endswith(":strong")}
        out = {}
        for op, r in done:
            e = exact.get(op.ref.removesuffix(":outer"))
            if op.ref.endswith(":outer") and e is not None and not (r.lower <= e.lower and e.upper <= r.upper):
                out[op.ref] = f"outer [{r.lower}, {r.upper}] misses exact [{e.lower}, {e.upper}]"
        return out


class Psat(Workload):
    def text(self, ref):
        return gen.one_space_ccl(int(ref.split(":")[1]), **self.shape["ccl"])

    def prepare(self, ref, text):
        t, q = parse_theory(text)
        return [Op(ref, lambda: cc.bisect_bounds(t, q, PSAT_EPSILON), (t, q))]

    def violations(self, done):
        out = {}
        for op, r in done:
            e = cc.credal_bounds_single_space(*op.inputs)
            inside = r.lower <= e.lower and e.upper <= r.upper
            close = e.lower - r.lower <= PSAT_EPSILON and r.upper - e.upper <= PSAT_EPSILON
            if not (inside and close):
                out[op.ref] = f"bracket [{r.lower}, {r.upper}] vs exact [{e.lower}, {e.upper}]"
        return out


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Rank(
            "rank",
            "ranking.evaluate with the lp backend: loads lp.solve_lp as an optimizer and the per-pair world rebuild",
            pool=12,
            batch_size=9,
            shape={"n": 4, "count": 50, "phis": (0.2, 0.6, 1.0)},
        ),
        MultiSpace(
            "multispace",
            "strong extension and outer bound on 4-space theories: loads vertex-product evaluation, world building and stable models",
            pool=2,
            batch_size=1,
            shape={
                "ccl": {"spaces": 4, "derived": 20, "vertices": 4},
                "degenerate": {"n": 4, "count": 50, "phi": 0.6},
            },
        ),
        Psat(
            "psat",
            "bisect_bounds on one-space theories: loads lp.feasible_point as an oracle whose right-hand side moves",
            pool=6,
            batch_size=5,
            shape={"ccl": {"worlds": 24, "atoms": 9, "derived": 7}},
        ),
    )
}
