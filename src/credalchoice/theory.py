"""Choice-space theories: an acyclic program plus probabilistic choices.

A theory bundles a logic program with a family of choice spaces.  Each
choice space is a sequence of alternatives; an alternative is a non-empty
set of ground atoms, and a mass function assigns each atom a probability
so that every alternative sums to one.  Alternatives inside one space may
share atoms (which is what relaxes the usual independence reading);
distinct spaces must not.

The textual format holds program clauses, ``choicespace`` blocks and
optional ``query`` lines::

    p :- c.
    choicespace {
      alternative { r: 0.1, nr: 0.9 }
      alternative { c: 0.5, nc: 0.5 }
    }
    query p, \\+ c.

Probabilities are decimal literals and are read exactly as rationals.
The words ``choicespace``, ``alternative`` and ``query`` are reserved at
statement position in this format.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Iterable, Mapping

from .errors import CyclicityError, ParseError, TheoryValidationError, UnknownAtomError
from .logic import (
    Atom,
    GroundProgram,
    Literal,
    Program,
    Term,
    Token,
    TokenStream,
    _check_arities,
    ground,
    parse_atom_from,
    parse_clause_from,
    parse_literal_from,
    tokenize,
)

_RESERVED = ("choicespace", "alternative", "query")


@dataclass(frozen=True)
class Alternative:
    """A non-empty set of ground atoms, kept in declaration order."""

    atoms: tuple[Atom, ...]

    def __post_init__(self):
        if not self.atoms:
            raise ValueError("an alternative needs at least one atom")
        if len(set(self.atoms)) != len(self.atoms):
            raise ValueError(f"duplicate atom in alternative {self}")
        for a in self.atoms:
            if not a.is_ground:
                raise ValueError(f"alternative atom is not ground: {a}")

    @cached_property
    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.atoms)

    def __str__(self) -> str:
        return "{" + ", ".join(str(a) for a in self.atoms) + "}"


def alternative(*atoms: Atom | str) -> Alternative:
    return Alternative(tuple(a if isinstance(a, Atom) else Atom(a) for a in atoms))


@dataclass(frozen=True)
class ChoiceSpace:
    """A non-empty sequence of alternatives, possibly overlapping."""

    alternatives: tuple[Alternative, ...]

    def __post_init__(self):
        if not self.alternatives:
            raise ValueError("a choice space needs at least one alternative")

    @cached_property
    def atomic_choices(self) -> tuple[Atom, ...]:
        seen: dict[Atom, None] = {}
        for alt in self.alternatives:
            for a in alt.atoms:
                seen.setdefault(a)
        return tuple(seen)

    @cached_property
    def atom_set(self) -> frozenset[Atom]:
        return frozenset(self.atomic_choices)

    def __str__(self) -> str:
        return "{" + ", ".join(str(alt) for alt in self.alternatives) + "}"


@dataclass(frozen=True)
class CCLTheory:
    """Program, choice spaces, and one mass value per atomic choice."""

    program: Program
    spaces: tuple[ChoiceSpace, ...]
    mu: Mapping[Atom, Fraction]

    @cached_property
    def atomic_choices(self) -> tuple[Atom, ...]:
        seen: dict[Atom, None] = {}
        for sp in self.spaces:
            for a in sp.atomic_choices:
                seen.setdefault(a)
        return tuple(seen)

    def constants(self) -> set[Term]:
        out = self.program.constants()
        for a in self.atomic_choices:
            out.update(a.args)
        return out

    def require_one_space(self, what: str) -> None:
        """Raise ``ValueError`` unless the theory has exactly one choice space."""
        if len(self.spaces) != 1:
            raise ValueError(
                f"{what} needs a theory with exactly one choice space; this theory has {len(self.spaces)}"
            )

    @cached_property
    def ground_program(self) -> GroundProgram:
        return ground(self.program, self.constants(), extra_atoms=self.atomic_choices)

    @cached_property
    def herbrand_base(self) -> frozenset[Atom]:
        return self.ground_program.herbrand_base


@dataclass(frozen=True)
class Violation:
    """One validation failure, naming the offending piece of the theory."""

    code: str
    message: str

    def __str__(self) -> str:
        return f"[{self.code}] {self.message}"


@dataclass(frozen=True)
class ValidationReport:
    violations: tuple[Violation, ...]

    @property
    def ok(self) -> bool:
        return not self.violations

    def __str__(self) -> str:
        if self.ok:
            return "ok"
        return "\n".join(str(v) for v in self.violations)


def validate_theory(t: CCLTheory) -> ValidationReport:
    """Check a theory against the structural rules; never raises.

    Verifies that the grounded program is acyclic, that each alternative's
    masses are present, lie in [0, 1] and sum to one, that no atomic
    choice is also a clause head, and that distinct spaces share no atom.
    """
    out: list[Violation] = []

    heads: frozenset[Atom] = frozenset()
    try:
        heads = frozenset(head for head, _ in t.ground_program.evaluation_order)
    except CyclicityError as exc:
        names = " -> ".join(str(a) for a in exc.cycle)
        out.append(Violation("cyclic-program", f"dependency cycle: {names}"))
    except ValueError as exc:
        out.append(Violation("grounding", str(exc)))

    one = Fraction(1)
    for si, sp in enumerate(t.spaces):
        for alt in sp.alternatives:
            total = Fraction(0)
            complete = True
            for a in alt.atoms:
                if a not in t.mu:
                    out.append(Violation("missing-probability", f"no probability for atom {a}"))
                    complete = False
                    continue
                p = t.mu[a]
                if not (0 <= p <= 1):
                    out.append(Violation("probability-range", f"probability of {a} is {p}, outside [0, 1]"))
                total += t.mu.get(a, Fraction(0))
            if complete and total != one:
                out.append(Violation("mass-sum", f"alternative {alt}: masses sum to {total}, expected 1"))
        for a in sp.atomic_choices:
            if a in heads:
                out.append(Violation("choice-heads-clause", f"atomic choice {a} is the head of a clause"))
        for sj in range(si + 1, len(t.spaces)):
            shared = sp.atom_set & t.spaces[sj].atom_set
            if shared:
                names = ", ".join(str(a) for a in sorted(shared))
                out.append(
                    Violation("overlapping-spaces", f"spaces {si} and {sj} share atomic choices: {names}")
                )
    return ValidationReport(tuple(out))


def require_valid(t: CCLTheory) -> CCLTheory:
    """``t`` itself if :func:`validate_theory` finds nothing wrong, else :class:`TheoryValidationError` with the report."""
    report = validate_theory(t)
    if not report.ok:
        raise TheoryValidationError(report)
    return t


def from_icl(
    program: Program,
    alternatives: Iterable[Alternative],
    mu: Mapping[Atom, Fraction],
) -> CCLTheory:
    """Build the independence-reading theory: one space per alternative.

    Alternatives must be pairwise disjoint.  The result is validated and
    a :class:`TheoryValidationError` is raised if anything is wrong.
    """
    return require_valid(CCLTheory(program, tuple(ChoiceSpace((alt,)) for alt in alternatives), dict(mu)))


def merge_spaces(t: CCLTheory, indices: Iterable[int]) -> CCLTheory:
    """Replace the listed choice spaces by their union.

    The merged space takes the position of the smallest listed index;
    other spaces keep their relative order.  Masses are unchanged.
    """
    chosen = sorted(set(indices))
    if not chosen:
        raise ValueError("need at least one space index to merge")
    for i in chosen:
        if not 0 <= i < len(t.spaces):
            raise ValueError(f"no choice space with index {i}")
    merged = ChoiceSpace(tuple(alt for i in chosen for alt in t.spaces[i].alternatives))
    spaces: list[ChoiceSpace] = []
    for i, sp in enumerate(t.spaces):
        if i == chosen[0]:
            spaces.append(merged)
        elif i not in chosen:
            spaces.append(sp)
    return require_valid(CCLTheory(t.program, tuple(spaces), t.mu))


# ---------------------------------------------------------------------------
# Queries.


@dataclass(frozen=True)
class Query:
    """A conjunction of ground literals, evaluated against world models."""

    literals: frozenset[Literal]

    def __post_init__(self):
        for lit in self.literals:
            if not lit.atom.is_ground:
                raise ValueError(f"query literal is not ground: {lit}")

    def check_against(self, t: CCLTheory) -> None:
        for lit in self.literals:
            if lit.atom not in t.herbrand_base:
                raise UnknownAtomError(f"query atom {lit.atom} is not in the Herbrand base")

    def __str__(self) -> str:
        return ", ".join(str(l) for l in sorted(self.literals))


def query(*literals: Literal | Atom | str) -> Query:
    lits: list[Literal] = []
    for l in literals:
        if isinstance(l, str):
            lits.extend(parse_query(l).literals)
        elif isinstance(l, Atom):
            lits.append(Literal(l))
        else:
            lits.append(l)
    return Query(frozenset(lits))


def parse_query(text: str) -> Query:
    """Parse ``lit, lit, ...`` where a literal is ``atom`` or ``\\+ atom``, and an optional final ``.``."""
    ts = TokenStream(tokenize(text))
    q = _parse_query_from(ts)
    if ts.at("."):
        ts.advance()
    if (tok := ts.current).kind != "eof":
        raise ParseError(f"unexpected {tok.text!r} after query", tok.line, tok.column)
    return q


def _parse_query_from(ts: TokenStream) -> Query:
    """One or more ground literals separated by commas."""
    lits = []
    while True:
        lit, tok = parse_literal_from(ts)
        if not lit.atom.is_ground:
            raise ParseError(f"query literal is not ground: {lit}", tok.line, tok.column)
        lits.append(lit)
        if not ts.at(","):
            return Query(frozenset(lits))
        ts.advance()


# ---------------------------------------------------------------------------
# The theory file format.


@dataclass(frozen=True)
class TheoryDocument:
    """A parsed theory file: the theory plus any query lines it carried."""

    theory: CCLTheory
    queries: tuple[Query, ...] = ()


def _parse_number(ts: TokenStream) -> Fraction:
    tok = ts.current
    if tok.kind != "number":
        raise ParseError(f"expected a probability, found {tok.text or 'end of input'!r}", tok.line, tok.column)
    ts.advance()
    value = Fraction(tok.text)
    if ts.at("/"):
        ts.advance()
        denom_tok = ts.current
        if denom_tok.kind != "number" or "." in denom_tok.text:
            raise ParseError("expected an integer denominator", denom_tok.line, denom_tok.column)
        ts.advance()
        if "." in tok.text:
            raise ParseError("fractions need an integer numerator", tok.line, tok.column)
        denom = int(denom_tok.text)
        if denom == 0:
            raise ParseError("zero denominator", denom_tok.line, denom_tok.column)
        value = Fraction(int(tok.text), denom)
    return value


def _parse_alternative(ts: TokenStream, mu: dict[Atom, Fraction], positions: list[tuple[Atom, Token]]) -> Alternative:
    ts.expect("alternative")
    ts.expect("{")
    atoms: list[Atom] = []
    while True:
        a, tok = parse_atom_from(ts)
        positions.append((a, tok))
        if not a.is_ground:
            raise ParseError(f"alternative atom must be ground: {a}", tok.line, tok.column)
        if a.relation in _RESERVED:
            raise ParseError(f"{a.relation!r} is a reserved word", tok.line, tok.column)
        if a in atoms:
            raise ParseError(f"duplicate atom {a} in alternative", tok.line, tok.column)
        ts.expect(":")
        p = _parse_number(ts)
        if a in mu and mu[a] != p:
            raise ParseError(
                f"conflicting probabilities for {a}: {mu[a]} and {p}", tok.line, tok.column
            )
        mu[a] = p
        atoms.append(a)
        if ts.at(","):
            ts.advance()
            continue
        break
    ts.expect("}")
    return Alternative(tuple(atoms))


def parse_ccl(text: str) -> TheoryDocument:
    """Parse the theory file format into a :class:`TheoryDocument`.

    Syntax errors raise :class:`ParseError`; the returned theory is *not*
    validated here, so structural problems surface via
    :func:`validate_theory` (which the CLI runs for you).
    """
    ts = TokenStream(tokenize(text))
    clauses = []
    positions = []
    spaces: list[ChoiceSpace] = []
    queries: list[Query] = []
    mu: dict[Atom, Fraction] = {}
    while ts.current.kind != "eof":
        if ts.at("choicespace"):
            tok = ts.current
            ts.advance()
            ts.expect("{")
            alts: list[Alternative] = []
            while ts.at("alternative"):
                alts.append(_parse_alternative(ts, mu, positions))
            ts.expect("}")
            if not alts:
                raise ParseError("a choicespace needs at least one alternative", tok.line, tok.column)
            spaces.append(ChoiceSpace(tuple(alts)))
        elif ts.at("query"):
            ts.advance()
            queries.append(_parse_query_from(ts))
            ts.expect(".")
        else:
            tok = ts.current
            if tok.kind == "name" and tok.text in _RESERVED:
                raise ParseError(f"misplaced keyword {tok.text!r}", tok.line, tok.column)
            clauses.append(parse_clause_from(ts, positions))
    _check_arities(positions)
    theory = CCLTheory(Program(tuple(clauses)), tuple(spaces), mu)
    return TheoryDocument(theory, tuple(queries))


def load_ccl(path) -> TheoryDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_ccl(fh.read())
