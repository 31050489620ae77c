"""Pairwise object comparison from observed rankings.

From a multiset of complete rankings we count how often each object
takes each position, smooth the counts into an exact doubly stochastic
marginal matrix, and encode the matrix as a one-space theory: for every
object, an alternative over its possible positions; for every position,
an alternative over the objects that may take it.  The two families
overlap atom by atom, so coherent selections are exactly the
permutations, and the credal machinery yields interval probabilities
for "object A is ranked better than object B" without inventing a joint
distribution the marginals do not determine.

Evaluation skips that theory: :func:`permutation_polytope` builds its
marginal system straight from the permutations, once per matrix.  Each
pair is a 0/1 objective over them ("A ahead of B"): the ``lp`` backend
reports its minimum and maximum, and the ``psat`` backend brackets the
two with :func:`~credalchoice.psat.bracket`, the function
:func:`~credalchoice.psat.bisect_bounds` calls.

Ranking files hold one ranking per line, best first, comma separated,
with an optional ``xK`` multiplicity suffix::

    a,b,c x3
    b,a,c

Counts files are CSV: a header of object names, one row per position,
and a final ``N=<total>`` line.
"""

from __future__ import annotations

import itertools
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, prod
from operator import add
from typing import Sequence

from .errors import CapExceededError, ParseError
from .inference import IntervalResult, MarginalPolytope, class_polytope
from .logic import Atom, Clause, Literal, Program, Term, atom
from .psat import bracket
from .rational import format_fraction, numerators
from .theory import Alternative, CCLTheory, ChoiceSpace, Query, require_valid

_MAX_RANKINGS = factorial(7)  # phase one over 8! = 40 320 columns runs for minutes


class _RowError(ValueError):
    """A failed check that keeps the index of the input row at fault (a ranking, or a position's counts), or ``None``."""

    def __init__(self, message: str, row: int | None):
        super().__init__(message)
        self.row = row


def _check_object_names(objects: Sequence[str]) -> None:
    """Object names must be distinct constants: they become atom arguments."""
    if len(set(objects)) != len(objects):
        raise ValueError("object names must be distinct")
    for name in objects:
        if Term(name).is_variable:  # Term raises on a name that is no term at all
            raise ValueError(f"object name {name!r} is not a constant (lowercase letter first)")


@dataclass(frozen=True)
class RankingDataset:
    """Named objects and a multiset of complete rankings (best first)."""

    objects: tuple[str, ...]
    rankings: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        _check_object_names(self.objects)
        n = len(self.objects)
        expected = frozenset(range(n))
        for k, r in enumerate(self.rankings):
            if frozenset(r) != expected or len(r) != n:
                names = ",".join(self.objects[i] for i in r if 0 <= i < n)
                raise _RowError(f"malformed ranking (not a permutation): {names}", k)

    @property
    def n(self) -> int:
        return len(self.objects)

    @property
    def total(self) -> int:
        return len(self.rankings)


@dataclass(frozen=True)
class CountMatrix:
    """``counts[j][i]``: how many rankings put object ``i`` at position ``j``."""

    objects: tuple[str, ...]
    counts: tuple[tuple[int, ...], ...]
    total: int

    def __post_init__(self):
        _check_object_names(self.objects)
        n = len(self.objects)
        short = next((j for j, row in enumerate(self.counts) if len(row) != n), None)
        if len(self.counts) != n or short is not None:
            raise _RowError("counts must be a square matrix over the objects", short)
        for j, row in enumerate(self.counts):
            if any(c < 0 for c in row):
                raise _RowError("counts must be non-negative", j)
            if sum(row) != self.total:
                raise _RowError(f"row {j} sums to {sum(row)}, expected {self.total}", j)
        for i in range(n):
            col = sum(row[i] for row in self.counts)
            if col != self.total:
                raise _RowError(f"column {i} sums to {col}, expected {self.total}", None)


def counts_from_rankings(d: RankingDataset) -> CountMatrix:
    n = d.n
    counts = [[0] * n for _ in range(n)]
    for r in d.rankings:
        for position, obj in enumerate(r):
            counts[position][obj] += 1
    return CountMatrix(d.objects, tuple(tuple(row) for row in counts), d.total)


@dataclass(frozen=True)
class MarginalMatrix:
    """``alpha[i][j]``: probability that object ``i`` takes position ``j``.

    Exactly doubly stochastic, with every entry strictly inside (0, 1).
    """

    objects: tuple[str, ...]
    alpha: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        n = len(self.objects)
        # the entries as integer numerators over one denominator: one is ``den``
        nums, den = numerators([v for row in self.alpha for v in row])
        it = iter(nums)
        rows = [list(itertools.islice(it, len(row))) for row in self.alpha]
        for row in rows:
            if sum(row) != den:
                raise ValueError("marginal rows must sum to 1")
            if any(not (0 < v < den) for v in row):
                raise ValueError("marginal entries must lie strictly between 0 and 1")
        for j in range(n):
            if sum(row[j] for row in rows) != den:
                raise ValueError("marginal columns must sum to 1")


def smooth_marginals(c: CountMatrix, equivalent_size: Fraction = Fraction(2)) -> MarginalMatrix:
    """Additive smoothing with total prior weight ``equivalent_size``.

    ``alpha[i][j] = (counts[j][i] + s/n) / (N + s)``; the uniform prior
    keeps the matrix exactly doubly stochastic and every entry positive.
    For ``s = p/q`` that is ``(n*q*counts[j][i] + p) / (n*(N*q + p))``,
    computed in integers.
    """
    s = Fraction(equivalent_size)
    if s <= 0:
        raise ValueError("equivalent_size must be positive")
    n = len(c.objects)
    if n < 2:
        raise ValueError("need at least two objects")
    p, q = s.numerator, s.denominator
    nq, denom = n * q, n * (c.total * q + p)
    alpha = tuple(
        tuple(Fraction(nq * c.counts[j][i] + p, denom) for j in range(n)) for i in range(n)
    )
    return MarginalMatrix(c.objects, alpha)


def position_atom(position: int, obj_name: str) -> Atom:
    """The atom saying ``obj_name`` sits at 1-based ``position``."""
    return atom(f"r{position}", obj_name)


def build_ranking_theory(m: MarginalMatrix) -> CCLTheory:
    """One space: per-object position alternatives and per-position object
    alternatives, sharing their atoms."""
    n = len(m.objects)
    mu: dict[Atom, Fraction] = {}
    per_object = []
    for i, name in enumerate(m.objects):
        atoms = tuple(position_atom(j + 1, name) for j in range(n))
        for j, a in enumerate(atoms):
            mu[a] = m.alpha[i][j]
        per_object.append(Alternative(atoms))
    per_position = [
        Alternative(tuple(position_atom(j + 1, name) for name in m.objects))
        for j in range(n)
    ]
    return require_valid(CCLTheory(Program(), (ChoiceSpace(tuple(per_object + per_position)),), mu))


def permutation_polytope(m: MarginalMatrix) -> tuple[list[tuple[int, ...]], MarginalPolytope, list[int]]:
    """The ranking theory's classes, marginal polytope and proxy, without building the theory.

    Permutation ``pos`` puts object ``i`` at position ``pos[i]``: as a
    class it selects atom ``i*n + pos[i]`` for each ``i``, the theory's
    atom for that placement, and :func:`class_polytope` writes its rows.
    Its weight, the product of its atoms' ``alpha`` numerators over their
    common denominator, over ``sum(weights)`` is its
    :func:`proxy_mass_function` value.  :class:`CapExceededError` if
    there are more than 7! = 5040 permutations, before any is listed.
    """
    n = len(m.objects)
    if factorial(n) > _MAX_RANKINGS:
        raise CapExceededError(f"{n} objects have {factorial(n)} rankings, more than the cap of {_MAX_RANKINGS}")
    perms = list(itertools.permutations(range(n)))
    sels = [list(map(add, range(0, n * n, n), pos)) for pos in perms]  # atom i*n + pos[i] for each i
    masses = [v for row in m.alpha for v in row]
    nums = numerators(masses)[0]
    return perms, class_polytope(sels, masses), [prod(map(nums.__getitem__, sel)) for sel in sels]


def pairwise_query(
    t: CCLTheory, m: MarginalMatrix, first: int, second: int, *, better: bool = True
) -> tuple[CCLTheory, Query]:
    """Extend the theory with a fresh atom true iff ``first`` beats ``second``.

    ``better=True`` reads "beats" as taking a smaller position index;
    ``better=False`` flips the comparison.  One clause is added per
    position pair, so the query atom is decided in every world.
    """
    if first == second:
        raise ValueError("need two distinct objects")
    n = len(m.objects)
    name = "q"
    taken = {a.relation for a in t.herbrand_base}
    while name in taken:
        name += "q"
    q_atom = Atom(name)
    clauses = []
    for j1 in range(1, n + 1):
        for j2 in range(1, n + 1):
            ahead = j1 < j2 if better else j1 > j2
            if ahead:
                body = (
                    Literal(position_atom(j1, m.objects[first])),
                    Literal(position_atom(j2, m.objects[second])),
                )
                clauses.append(Clause(q_atom, body))
    extended = CCLTheory(t.program.extend(clauses), t.spaces, t.mu)
    return extended, Query(frozenset({Literal(q_atom)}))


@dataclass(frozen=True)
class PreferenceDecision:
    """Verdict for one ordered pair at a given threshold."""

    pair: tuple[int, int]
    interval: IntervalResult
    threshold: Fraction
    verdict: str  # "first" | "second" | "indeterminate"


def decide_preference(
    interval: IntervalResult,
    threshold: Fraction = Fraction(1, 2),
    pair: tuple[int, int] = (0, 1),
) -> PreferenceDecision:
    """Dominance at the threshold; a touching endpoint stays indeterminate."""
    threshold = _probability(threshold)
    verdict = _verdict(interval.lower, interval.upper, threshold)
    return PreferenceDecision((pair[0], pair[1]), interval, threshold, verdict)


def _probability(threshold: Fraction) -> Fraction:
    """``threshold`` as a ``Fraction``; ``ValueError`` unless it lies in [0, 1]."""
    if not 0 <= (threshold := Fraction(threshold)) <= 1:
        raise ValueError(f"threshold must be a probability in [0, 1], not {format_fraction(threshold)}")
    return threshold


def _verdict(lower: Fraction, upper: Fraction, threshold: Fraction) -> str:
    """``decide_preference``'s verdict for the interval ``[lower, upper]``."""
    if lower > threshold:
        return "first"
    if upper < threshold:
        return "second"
    return "indeterminate"


# ---------------------------------------------------------------------------
# End-to-end evaluation.


@dataclass(frozen=True)
class PairOutcome:
    pair: tuple[str, str]
    interval: IntervalResult
    ccl_verdict: str  # "first" | "second" | "indeterminate"
    icl_value: Fraction
    icl_verdict: str | None  # None when the point value hits the threshold
    truth: str | None  # None for ties or missing ground truth


@dataclass(frozen=True)
class EvaluationReport:
    objects: tuple[str, ...]
    pairs: tuple[PairOutcome, ...]
    determinacy_rate: Fraction
    icl_acc_determinate: Fraction | None
    icl_acc_indeterminate: Fraction | None
    counts: CountMatrix | None = None

    def to_json_dict(self) -> dict:
        def verdict_label(pair: tuple[str, str], verdict: str | None) -> str | None:
            if verdict == "first":
                return f"{pair[0]}>{pair[1]}"
            if verdict == "second":
                return f"{pair[1]}>{pair[0]}"
            return verdict

        counts = None
        if self.counts is not None:
            counts = {
                "matrix": [list(row) for row in self.counts.counts],
                "total": self.counts.total,
            }
        return {
            "objects": list(self.objects),
            "counts": counts,
            "pairs": [
                {
                    "pair": list(p.pair),
                    "interval": p.interval.to_json_dict(),
                    "ccl_verdict": verdict_label(p.pair, p.ccl_verdict),
                    "icl_value": format_fraction(p.icl_value),
                    "icl_value_dec": float(p.icl_value),
                    "icl_verdict": verdict_label(p.pair, p.icl_verdict),
                    "truth": verdict_label(p.pair, p.truth),
                }
                for p in self.pairs
            ],
            "determinacy_rate": _rate_json(self.determinacy_rate),
            "icl_acc_determinate": _rate_json(self.icl_acc_determinate),
            "icl_acc_indeterminate": _rate_json(self.icl_acc_indeterminate),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)


def _rate_json(x: Fraction | None):
    if x is None:
        return None
    return {"value": format_fraction(x), "dec": float(x)}


def _majority_truth(positions: Sequence[Sequence[int]], first: int, second: int) -> str | None:
    """The majority verdict over rankings given as position tuples (``pos[i]`` is object ``i``'s place)."""
    wins = sum(pos[first] < pos[second] for pos in positions)
    losses = len(positions) - wins
    if wins > losses:
        return "first"
    if losses > wins:
        return "second"
    return None


def report_from_marginals(
    marginals: MarginalMatrix,
    *,
    threshold: Fraction = Fraction(1, 2),
    backend: str = "lp",
    epsilon: Fraction = Fraction(1, 1024),
    truth_rankings: Sequence[tuple[int, ...]] | None = None,
    counts: CountMatrix | None = None,
) -> EvaluationReport:
    """Interval and point decisions for every unordered pair.

    The ``psat`` backend brackets each pair with :func:`~credalchoice.psat.bracket`,
    the function :func:`~credalchoice.psat.bisect_bounds` calls.
    Ground truth (majority preference) is filled in when rankings are
    provided; otherwise the truth fields stay empty and no accuracies
    are reported.  ``counts`` is echoed into the report untouched.
    """
    if backend not in ("lp", "psat"):
        raise ValueError(f"unknown backend {backend!r}")
    threshold, epsilon = _probability(threshold), Fraction(epsilon)
    if backend == "psat" and epsilon <= 0:  # before any LP work; the lp backend ignores epsilon
        raise ValueError("epsilon must be positive")
    n = len(marginals.objects)
    perms, polytope, weights = permutation_polytope(marginals)
    system = polytope.feasible_system()
    total = sum(weights)  # the proxy weights are integers, so a pair's value is one integer sum
    positions = [sorted(range(n), key=r.__getitem__) for r in truth_rankings or ()]  # positions[k][i]: object i's place
    outcomes: list[PairOutcome] = []
    for i, j in itertools.combinations(range(n), 2):
        ahead = [1 if pos[i] < pos[j] else 0 for pos in perms]
        if backend == "lp":
            low, high, den = system.bound_numerators(ahead)
            interval = IntervalResult(Fraction(low, den), Fraction(high, den), "lp")
        else:
            interval = bracket(system, ahead, epsilon)
        point = Fraction(sum(itertools.compress(weights, ahead)), total)
        outcomes.append(
            PairOutcome(
                (marginals.objects[i], marginals.objects[j]),
                interval,
                _verdict(interval.lower, interval.upper, threshold),
                point,
                None if point == threshold else _verdict(point, point, threshold),
                _majority_truth(positions, i, j),
            )
        )

    total_pairs = len(outcomes)
    determinate = [p for p in outcomes if p.ccl_verdict != "indeterminate"]
    rate = Fraction(len(determinate), total_pairs) if total_pairs else Fraction(0)

    def accuracy(group: list[PairOutcome]) -> Fraction | None:
        scored = [p for p in group if p.truth is not None and p.icl_verdict is not None]
        if not scored:
            return None
        return Fraction(sum(p.icl_verdict == p.truth for p in scored), len(scored))

    indeterminate = [p for p in outcomes if p.ccl_verdict == "indeterminate"]
    return EvaluationReport(
        marginals.objects,
        tuple(outcomes),
        rate,
        accuracy(determinate),
        accuracy(indeterminate),
        counts,
    )


def evaluate(
    d: RankingDataset,
    *,
    equivalent_size: Fraction = Fraction(2),
    threshold: Fraction = Fraction(1, 2),
    backend: str = "lp",
    epsilon: Fraction = Fraction(1, 1024),
    holdout: Fraction | None = None,
    seed: int = 0,
) -> EvaluationReport:
    """Interval decisions for every pair, checked against majority truth.

    With ``holdout`` a fraction of the rankings is split off: marginals
    are learned on the remainder while ground truth comes from the
    held-out part.  Accuracy of the point-valued (independence-proxy)
    verdicts is reported separately on the pairs where the interval
    decision is determinate and where it is not; pairs without defined
    truth or verdict are left out of the accuracy denominators.
    """
    truth_rankings: Sequence[tuple[int, ...]] = d.rankings
    train = d
    if holdout is not None:
        frac = Fraction(holdout)
        if not (0 < frac < 1):
            raise ValueError("holdout must lie strictly between 0 and 1")
        shuffled = list(d.rankings)
        random.Random(seed).shuffle(shuffled)
        cut = max(1, int(len(shuffled) * frac))
        if cut >= len(shuffled):
            raise ValueError("holdout leaves no training rankings")
        truth_rankings = tuple(shuffled[:cut])
        train = RankingDataset(d.objects, tuple(shuffled[cut:]))

    counts = counts_from_rankings(train)
    return report_from_marginals(
        smooth_marginals(counts, equivalent_size),
        threshold=threshold,
        backend=backend,
        epsilon=epsilon,
        truth_rankings=truth_rankings,
        counts=counts,
    )


# ---------------------------------------------------------------------------
# File ingestion.


def parse_rankings(text: str) -> RankingDataset:
    """Read the rankings file format (see the module docstring)."""
    names: list[str] = []
    index: dict[str, int] = {}
    rankings: list[tuple[int, ...]] = []
    lines: list[int] = []  # each ranking's line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("%", 1)[0].strip()
        if not line:
            continue
        count = 1
        parts = line.rsplit(None, 1)
        if len(parts) == 2 and parts[1].startswith("x") and parts[1][1:].isdecimal():
            line, count = parts[0], int(parts[1][1:])
            if count < 1:
                raise ParseError("multiplicity must be at least 1", lineno)
        items = [p.strip() for p in line.split(",")]
        if any(not p for p in items):
            raise ParseError("empty object name in ranking", lineno)
        for p in items:
            if p not in index:
                try:
                    _check_object_names((p,))
                except ValueError as exc:
                    raise ParseError(str(exc), lineno) from exc
                index[p] = len(names)
                names.append(p)
        rankings.extend([tuple(index[p] for p in items)] * count)
        lines.extend([lineno] * count)
    if not rankings:
        raise ParseError("no rankings found")
    try:
        return RankingDataset(tuple(names), tuple(rankings))
    except _RowError as exc:
        raise ParseError(str(exc), lines[exc.row]) from exc


def parse_counts_csv(text: str) -> CountMatrix:
    """Read the counts CSV format (see the module docstring)."""
    lines = [(lineno, l.strip()) for lineno, l in enumerate(text.splitlines(), start=1) if l.strip()]
    if len(lines) < 3:
        raise ParseError("counts file needs a header, rows, and an N= line")
    objects = tuple(name.strip() for name in lines[0][1].split(","))
    lineno, last = lines[-1]
    if not last.startswith("N="):
        raise ParseError("counts file must end with an N=<total> line", lineno)
    try:
        total = int(last[2:])
    except ValueError as exc:
        raise ParseError(f"bad total: {last!r}", lineno) from exc
    rows = []
    for lineno, line in lines[1:-1]:
        try:
            row = tuple(int(v.strip()) for v in line.split(","))
        except ValueError as exc:
            raise ParseError(f"bad count row: {line!r}", lineno) from exc
        rows.append(row)
    try:
        return CountMatrix(objects, tuple(rows), total)
    except _RowError as exc:  # a row's own line; a column or the number of rows is no one line's
        raise ParseError(str(exc), None if exc.row is None else lines[exc.row + 1][0]) from exc
    except ValueError as exc:  # an object name: the header's
        raise ParseError(str(exc), lines[0][0]) from exc
