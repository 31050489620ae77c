"""Reduction of one-space theories to probabilistic satisfiability.

A probabilistic satisfiability instance is a set of assessments
``P(formula) = value``; it is satisfiable when some distribution over
truth assignments matches every assessment.  A theory with a single
choice space turns into such an instance: a hard (probability-one)
formula whose models are exactly the worlds, one assessment per atomic
choice, and one assessment ``P(query) = alpha`` for the probe value.
Deciding a sequence of probes brackets the exact query interval by
bisection, without ever enumerating the credal set itself.

Satisfiability is decided exactly: the models of the hard formula are
enumerated by backtracking over its CNF, and a rational linear program
looks for a distribution over them meeting the soft assessments.

Probes of one query differ only in the query row's right-hand side, so
the accepted values form an interval: the least and greatest query mass
over distributions meeting the other assessments.  The hard formula's
models are the theory's worlds, one per class of its one space, so that
interval is the exact one over the space's class masses.
:func:`bracket` probes any 0/1 objective of an ``lp.FeasibleSystem`` from
its value at the phase-one point (:func:`_start`, also :func:`inner_point`)
against its two ends: :func:`bisect_bounds` runs it on one world space per
query, the ranking ``psat`` backend on each pair.  :func:`psat_decide`
still decides a probe through the models, independently of the bracket.

The ``xor`` connective here is n-ary *exclusive selection*: true when
exactly one operand is true.  Its CNF is its operands' disjunction plus
each pair's negated conjunction, whatever the operands (a negated one's is
its minterms), so no auxiliary variables are introduced.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations, compress
from math import lcm
from typing import Iterable, Sequence

from . import lp
from .errors import CapExceededError, InfeasibleError
from .inference import IntervalResult, QueryGroups, _world_space, marginal_polytope
from .logic import Atom, GroundProgram, Literal
from .rational import format_fraction
from .theory import CCLTheory, Query
from .worlds import WorldSpace, build_world_space

DEFAULT_CLAUSE_CAP = 100_000
DEFAULT_VAR_CAP = 24

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class Formula:
    """A boolean formula tree over ground atoms.

    ``kind`` is one of ``var``, ``not``, ``and``, ``or``, ``xor``; the
    empty conjunction serves as truth, the empty disjunction as falsity.
    """

    kind: str
    atom: Atom | None = None
    children: tuple["Formula", ...] = ()

    def atoms(self) -> frozenset[Atom]:
        """The variables of the formula."""
        if self.kind == "var":
            return frozenset((self.atom,))
        return frozenset().union(*(c.atoms() for c in self.children))

    def evaluate(self, true_atoms: frozenset[Atom] | set[Atom]) -> bool:
        if self.kind == "var":
            return self.atom in true_atoms
        if self.kind == "not":
            return not self.children[0].evaluate(true_atoms)
        if self.kind == "and":
            return all(c.evaluate(true_atoms) for c in self.children)
        if self.kind == "or":
            return any(c.evaluate(true_atoms) for c in self.children)
        if self.kind == "xor":
            return sum(1 for c in self.children if c.evaluate(true_atoms)) == 1
        raise ValueError(f"unknown formula kind {self.kind!r}")

    def __str__(self) -> str:
        if self.kind == "var":
            return str(self.atom)
        if self.kind == "not":
            inner = self.children[0]
            text = str(inner)
            return f"~{text}" if inner.kind == "var" else f"~({text})"
        if not self.children:
            return "true" if self.kind == "and" else "false"
        sep = {"and": " & ", "or": " | ", "xor": " ^ "}[self.kind]
        parts = [
            str(c) if c.kind in ("var", "not") else f"({c})" for c in self.children
        ]
        return sep.join(parts)


def var_(a: Atom) -> Formula:
    return Formula("var", atom=a)


def not_(f: Formula) -> Formula:
    return Formula("not", children=(f,))


def and_(*fs: Formula) -> Formula:
    return Formula("and", children=tuple(fs))


def or_(*fs: Formula) -> Formula:
    return Formula("or", children=tuple(fs))


def xor_(*fs: Formula) -> Formula:
    if len(fs) == 1:
        return fs[0]
    return Formula("xor", children=tuple(fs))


Clause = tuple[tuple[Atom, bool], ...]


def _mk_clause(literals: Iterable[tuple[Atom, bool]]) -> Clause | None:
    """Normalize a clause; None means it is a tautology."""
    seen: dict[Atom, bool] = {}
    for a, pos in literals:
        if a in seen and seen[a] != pos:
            return None
        seen[a] = pos
    return tuple(sorted(seen.items()))


def _xor_as_or(children: Sequence[Formula]) -> Formula:
    """Exclusive selection as minterms, for negating: n clauses for n literals, not the pairwise form's n * 2**(n(n-1)/2)."""
    return or_(
        *(
            and_(c, *(not_(d) for j, d in enumerate(children) if j != i))
            for i, c in enumerate(children)
        )
    )


def cnf(f: Formula, *, cap: int = DEFAULT_CLAUSE_CAP) -> tuple[Clause, ...]:
    """An equivalent CNF over the same variables (no auxiliaries).

    An exclusive selection is its operands' disjunction and each pair's
    negated conjunction (a negated one, its minterms: :func:`_xor_as_or`);
    everything is negation-pushed and distributed, with a guard on the clause count.
    """
    def clauses_of(g: Formula, negate: bool) -> list[Clause]:
        kind = g.kind
        if kind == "var":
            return [((g.atom, not negate),)]
        if kind == "not":
            return clauses_of(g.children[0], not negate)
        if kind == "xor":
            if negate:
                return clauses_of(_xor_as_or(g.children), True)
            cs = g.children  # exactly one: some operand, and no two
            return clauses_of(or_(*cs), False) + [cl for c, d in combinations(cs, 2) for cl in clauses_of(and_(c, d), True)]
        # Clause sets are kept free of repeats (in first-seen order), so
        # the cap bounds distinct clauses, not copies of one clause.
        if (kind == "and" and not negate) or (kind == "or" and negate):
            conj: dict[Clause, None] = {}
            for c in g.children:
                conj.update(dict.fromkeys(clauses_of(c, negate)))
                if len(conj) > cap:
                    raise CapExceededError(f"CNF grew past {cap} clauses")
            return list(conj)
        # disjunction: distribute the children's clause sets
        parts = [clauses_of(c, negate) for c in g.children]
        result: list[Clause] = [()]
        for clauses in parts:
            merged: dict[Clause, None] = {}
            for acc in result:
                for cl in clauses:
                    combined = _mk_clause(list(acc) + list(cl))
                    if combined is not None:
                        merged.setdefault(combined)
                if len(merged) > cap:
                    raise CapExceededError(f"CNF grew past {cap} clauses")
            result = list(merged)
            if not result:
                return []  # one child is tautologically true
        return result

    out = tuple(dict.fromkeys(clauses_of(f, False)))
    if len(out) > cap:
        raise CapExceededError(f"CNF grew past {cap} clauses")
    return out


def enumerate_models(
    formulas: Sequence[Formula],
    variables: Sequence[Atom] | None = None,
    *,
    var_cap: int = DEFAULT_VAR_CAP,
    clause_cap: int = DEFAULT_CLAUSE_CAP,
) -> list[frozenset[Atom]]:
    """All assignments over the variables satisfying every formula.

    Backtracks over the variables in sorted order, pruning with the
    formulas' CNF.  The variable set may be widened explicitly so that
    assignments cover atoms the formulas do not mention.
    """
    atoms = sorted(frozenset(variables or ()).union(*(f.atoms() for f in formulas)))
    if len(atoms) > var_cap:
        raise CapExceededError(f"{len(atoms)} variables, more than the cap of {var_cap}")

    index = {a: i for i, a in enumerate(atoms)}
    clauses = [tuple((index[a], pos) for a, pos in cl) for f in formulas for cl in cnf(f, cap=clause_cap)]
    if () in clauses:  # the empty clause names no variable, so no assignment satisfies it
        return []
    by_var: list[list[int]] = [[] for _ in atoms]
    for ci, cl in enumerate(clauses):
        for vi, _ in cl:
            by_var[vi].append(ci)

    n = len(atoms)
    assign: list[bool | None] = [None] * n
    out: list[frozenset[Atom]] = []

    def violated(ci: int) -> bool:  # every literal of the clause assigned, and false
        return all(assign[vi] is not None and assign[vi] != pos for vi, pos in clauses[ci])

    def walk(i: int) -> None:
        if i == n:
            out.append(frozenset(a for a, v in zip(atoms, assign) if v))
            return
        for value in (False, True):
            assign[i] = value
            if not any(violated(ci) for ci in by_var[i]):
                walk(i + 1)
        assign[i] = None

    walk(0)
    return out


# ---------------------------------------------------------------------------
# From theories to instances.


def completion_formula(gp: GroundProgram, open_atoms: Iterable[Atom] = ()) -> Formula:
    """The program as a formula: each head equivalent to its bodies.

    Atoms heading no clause are forced false unless listed in
    ``open_atoms`` (external inputs such as atomic choices), which are
    left unconstrained.  For acyclic programs the models, restricted to
    assignments of the open atoms, are exactly the stable models.
    """
    rules = dict(gp.evaluation_order)
    opened = frozenset(open_atoms)
    conjuncts: list[Formula] = []
    for a in sorted(gp.herbrand_base):
        if a in rules:
            bodies = or_(*(and_(*(_lit_formula(l) for l in body)) for body in rules[a]))
            head = var_(a)
            conjuncts.append(and_(or_(not_(head), bodies), or_(head, not_(bodies))))
        elif a not in opened:
            conjuncts.append(not_(var_(a)))
    return and_(*conjuncts)


def _lit_formula(l: Literal) -> Formula:
    return var_(l.atom) if l.positive else not_(var_(l.atom))


def choice_formula(space) -> Formula:
    """Exactly one atom per alternative, conjoined over the space."""
    return and_(*(xor_(*(var_(a) for a in alt.atoms)) for alt in space.alternatives))


@dataclass(frozen=True)
class Assessment:
    formula: Formula
    prob: Fraction


@dataclass(frozen=True)
class PSATInstance:
    assessments: tuple[Assessment, ...]

    def variables(self) -> list[Atom]:
        return sorted(frozenset().union(*(a.formula.atoms() for a in self.assessments)))

    def hard_formulas(self) -> list[Formula]:
        return [a.formula for a in self.assessments if a.prob == 1]


def build_psat_instance(t: CCLTheory, q: Query, alpha: Fraction) -> PSATInstance:
    """Hard world formula, one assessment per atomic choice, one probe."""
    t.require_one_space("the PSAT reduction")
    alpha = Fraction(alpha)
    if not (0 <= alpha <= 1):
        raise ValueError(f"probe probability {alpha} outside [0, 1]")
    q.check_against(t)
    space = t.spaces[0]
    hard = and_(choice_formula(space), completion_formula(t.ground_program, space.atomic_choices))
    assessments = [Assessment(hard, _ONE)]
    assessments += [Assessment(var_(a), Fraction(t.mu[a])) for a in space.atomic_choices]
    query_formula = and_(*(_lit_formula(l) for l in sorted(q.literals)))
    assessments.append(Assessment(query_formula, alpha))
    return PSATInstance(tuple(assessments))


def psat_decide(inst: PSATInstance) -> bool:
    """True iff some distribution over assignments meets every assessment.

    Hard assessments get no row: every model satisfies them.
    """
    models = enumerate_models(inst.hard_formulas(), inst.variables())
    soft = [a for a in inst.assessments if a.prob != 1]
    rows = [[1] * len(models)] + [[int(a.formula.evaluate(m)) for m in models] for a in soft]
    try:
        lp.FeasibleSystem(rows, [1] + [a.prob for a in soft])
    except InfeasibleError:
        return False
    return True


# ---------------------------------------------------------------------------
# Bracketing the exact interval by bisection.


@dataclass
class BracketState:
    """Bisection bookkeeping; ``None`` marks a side settled exactly."""

    epsilon: Fraction = Fraction(1, 1024)
    sat_low: Fraction | None = None
    sat_high: Fraction | None = None
    unsat_low: Fraction | None = None
    unsat_high: Fraction | None = None
    probes: list[tuple[Fraction, bool]] = field(default_factory=list)

    @property
    def calls(self) -> int:
        return len(self.probes)


def _query_system(ws: WorldSpace, q: Query) -> tuple[lp.FeasibleSystem, list[int]]:
    """The one space's class-mass system and the query's 0/1 row over its classes."""
    system = marginal_polytope(ws, 0).feasible_system()
    return system, QueryGroups(ws, q).fold({}, keep=0)[0]  # one space: the one row over its classes


def _start(system: lp.FeasibleSystem, row: Sequence[int]) -> tuple[int, int]:
    """Where every bracket starts: the 0/1 row's value at the phase-one point, over its denominator."""
    nums, den = system.point_numerators()
    return sum(compress(nums, row)), den


def inner_point(t: CCLTheory, q: Query, *, world_space: WorldSpace | None = None) -> Fraction:
    """A query value attained by some admissible mass assignment.

    Computed from a feasible point of the single-space marginal system,
    so probing it always answers satisfiable.
    """
    t.require_one_space("inner_point")
    return Fraction(*_start(*_query_system(_world_space(t, world_space), q)))


def bracket(
    system: lp.FeasibleSystem, row: Sequence[int], epsilon: Fraction, state: BracketState | None = None
) -> IntervalResult:
    """Bracket any 0/1 objective ``row`` of ``system``, over its range ``[lo, hi]``, by probes ``lo <= alpha <= hi``.

    The probes start at ``mid``, the row's value at the phase-one point (:func:`_start`, which is also
    :func:`inner_point`).  Probes 0 and 1 first (a satisfiable boundary is an exact endpoint), then two
    independent bisections between ``mid`` and the nearest unsatisfiable probe, each to within
    ``epsilon > 0``.  Every value is an integer numerator over ``den << t``, for ``den`` the lcm of the
    three denominators and ``t`` the bisection depth; only the probes a given ``state`` records and the
    ends become ``Fraction``s.
    """
    st = state if state is not None else BracketState(epsilon)
    st.epsilon = epsilon
    (m, m_den), (low, high, ends_den) = _start(system, row), system.bound_numerators(row)
    den = lcm(m_den, ends_den, epsilon.denominator)
    m, low, high = m * (den // m_den), low * (den // ends_den), high * (den // ends_den)
    eps = epsilon.numerator * (den // epsilon.denominator)

    def probe(alpha: int, t: int) -> bool:
        result = low << t <= alpha <= high << t
        if state is not None:
            st.probes.append((Fraction(alpha, den << t), result))
        return result

    def bisect(sat: int, unsat: int) -> tuple[Fraction, Fraction]:
        """Halve between a satisfiable and an unsatisfiable numerator over ``den`` until they are within ``epsilon``."""
        t = 0
        while abs(sat - unsat) > eps << t:
            t += 1
            alpha = sat + unsat  # their midpoint over den << t
            sat, unsat = (alpha, unsat << 1) if probe(alpha, t) else (sat << 1, alpha)
        return Fraction(sat, den << t), Fraction(unsat, den << t)

    if probe(0, 0):
        st.sat_low = lower = _ZERO
    else:
        st.sat_low, st.unsat_low = bisect(m, 0)
        lower = st.unsat_low

    if probe(den, 0):
        st.sat_high = upper = _ONE
    else:
        st.sat_high, st.unsat_high = bisect(m, den)
        upper = st.unsat_high

    return IntervalResult(lower, upper, "psat_bisect", epsilon)


def bisect_bounds(
    t: CCLTheory,
    q: Query,
    epsilon: Fraction = Fraction(1, 1024),
    *,
    state: BracketState | None = None,
) -> IntervalResult:
    """Bracket the exact interval with probes, to within ``epsilon``.

    :func:`bracket` on the query row of the class-mass system: the probes
    start from the inner point and are decided against its least and
    greatest query mass.  The returned interval contains the exact one and
    each endpoint is within ``epsilon`` of it; ``epsilon`` must be positive.
    """
    epsilon = Fraction(epsilon)
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    t.require_one_space("the psat method")
    return bracket(*_query_system(build_world_space(t), q), epsilon, state)


# ---------------------------------------------------------------------------
# Plain-text export.


def export_psat(inst: PSATInstance) -> str:
    """The instance as text: assessments, then the hard CNF in DIMACS form."""
    lines = [f"{format_fraction(a.prob)} {a.formula}" for a in inst.assessments]
    variables = inst.variables()
    index = {a: i + 1 for i, a in enumerate(variables)}
    clauses = [cl for f in inst.hard_formulas() for cl in cnf(f)]
    lines.append("c hard formula as CNF")
    lines += [f"c {index[a]} = {a}" for a in variables]
    lines.append(f"p cnf {len(variables)} {len(clauses)}")
    for cl in clauses:
        nums = [index[a] if pos else -index[a] for a, pos in cl]
        lines.append(" ".join(str(v) for v in nums + [0]))
    return "\n".join(lines) + "\n"
