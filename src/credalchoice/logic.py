"""Acyclic normal logic programs: syntax, grounding, and stable models.

Programs are written one clause per line::

    p.
    p :- q, \\+ r.
    edge(X, Y) :- link(X, Y).

Constants and relation symbols start with a lowercase letter, variables
with an uppercase letter.  ``%`` starts a comment.  Head variables must
also occur in the body (range restriction), so grounding over a finite
constant set always terminates.

Acyclicity is witnessed by a level mapping: every ground rule must give
its head a strictly higher level than each body atom (negated or not).
For such programs the stable model of the program plus a set of facts is
unique.  It is computed in one pass over the rules in level order
(``GroundProgram.compiled``), bit-sliced: each atom holds a column, the
set of worlds where it is true as the bits of a Python ``int``, so one
pass evaluates every world together, and a single model is the case of
one world.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import ArityConflictError, CyclicityError, ParseError, UnknownAtomError

_NAME_RE = re.compile(r"[A-Za-z][A-Za-z0-9_]*\Z")


@dataclass(frozen=True, order=True)
class Term:
    """A constant (lowercase-initial) or a variable (uppercase-initial)."""

    name: str

    def __post_init__(self):
        if not _NAME_RE.match(self.name):
            raise ValueError(f"not a valid term name: {self.name!r}")

    @property
    def is_variable(self) -> bool:
        return self.name[0].isupper()

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True, order=True)
class Atom:
    """A relation symbol applied to a tuple of terms (possibly empty)."""

    relation: str
    args: tuple[Term, ...] = ()

    def __post_init__(self):
        if not _NAME_RE.match(self.relation) or self.relation[0].isupper():
            raise ValueError(f"not a valid relation name: {self.relation!r}")

    @property
    def arity(self) -> int:
        return len(self.args)

    @property
    def is_ground(self) -> bool:
        return all(not t.is_variable for t in self.args)

    def variables(self) -> set[Term]:
        return {t for t in self.args if t.is_variable}

    def substitute(self, binding: Mapping[Term, Term]) -> "Atom":
        return Atom(self.relation, tuple(binding.get(t, t) for t in self.args))

    def __str__(self) -> str:
        if not self.args:
            return self.relation
        return f"{self.relation}({','.join(t.name for t in self.args)})"


def atom(relation: str, *args: str) -> Atom:
    """Convenience constructor: ``atom('r1', 'h2')`` == ``r1(h2)``."""
    return Atom(relation, tuple(Term(a) for a in args))


@dataclass(frozen=True, order=True)
class Literal:
    """An atom or its negation (``\\+`` in the concrete syntax)."""

    atom: Atom
    positive: bool = True

    def substitute(self, binding: Mapping[Term, Term]) -> "Literal":
        return Literal(self.atom.substitute(binding), self.positive)

    def __str__(self) -> str:
        return str(self.atom) if self.positive else f"\\+ {self.atom}"


@dataclass(frozen=True)
class Clause:
    """``head :- body``; an empty body makes the clause a fact."""

    head: Atom
    body: tuple[Literal, ...] = ()

    @property
    def is_fact(self) -> bool:
        return not self.body

    def variables(self) -> set[Term]:
        out = self.head.variables()
        for lit in self.body:
            out |= lit.atom.variables()
        return out

    def substitute(self, binding: Mapping[Term, Term]) -> "Clause":
        return Clause(self.head.substitute(binding), tuple(l.substitute(binding) for l in self.body))

    def __str__(self) -> str:
        if self.is_fact:
            return f"{self.head}."
        return f"{self.head} :- {', '.join(str(l) for l in self.body)}."


@dataclass(frozen=True)
class Program:
    """A finite sequence of clauses, kept in source order."""

    clauses: tuple[Clause, ...] = ()

    def atoms(self) -> set[Atom]:
        out = set()
        for cl in self.clauses:
            out.add(cl.head)
            out.update(l.atom for l in cl.body)
        return out

    def constants(self) -> set[Term]:
        return {t for a in self.atoms() for t in a.args if not t.is_variable}

    def extend(self, clauses: Iterable[Clause]) -> "Program":
        return Program(self.clauses + tuple(clauses))

    def to_text(self) -> str:
        return "\n".join(str(cl) for cl in self.clauses)

    def __iter__(self) -> Iterator[Clause]:
        return iter(self.clauses)


# ---------------------------------------------------------------------------
# Tokenizer, shared by the program parser and the theory-file parser.

_TOKEN_RE = re.compile(
    r"""(?P<ws>[ \t\r]+)
      | (?P<comment>%[^\n]*)
      | (?P<newline>\n)
      | (?P<number>\d+\.\d+|\d+)
      | (?P<name>[A-Za-z][A-Za-z0-9_]*)
      | (?P<arrow>:-)
      | (?P<naf>\\\+)
      | (?P<punct>[(){},.:/])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "name" | "number" | "punct" | "eof"  (punct covers :- and \+ too)
    text: str
    line: int
    column: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        value = m.group()
        if kind == "newline":
            line += 1
            col = 1
        elif kind in ("ws", "comment"):
            col += len(value)
        else:
            out_kind = kind if kind in ("name", "number") else "punct"
            tokens.append(Token(out_kind, value, line, col))
            col += len(value)
        pos = m.end()
    tokens.append(Token("eof", "", line, col))
    return tokens


class TokenStream:
    """Cursor over a token list with one-token lookahead."""

    def __init__(self, tokens: Sequence[Token]):
        self._tokens = tokens
        self._i = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._i]

    def advance(self) -> Token:
        tok = self._tokens[self._i]
        if tok.kind != "eof":
            self._i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.current
        if tok.kind == "eof" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.line, tok.column)
        return self.advance()

    def at(self, text: str) -> bool:
        return self.current.kind != "eof" and self.current.text == text


def _parse_term(ts: TokenStream) -> Term:
    tok = ts.current
    if tok.kind != "name":
        raise ParseError(f"expected a term, found {tok.text or 'end of input'!r}", tok.line, tok.column)
    ts.advance()
    return Term(tok.text)


def parse_atom_from(ts: TokenStream) -> tuple[Atom, Token]:
    tok = ts.current
    if tok.kind != "name" or tok.text[0].isupper():
        raise ParseError(
            f"expected an atom, found {tok.text or 'end of input'!r}", tok.line, tok.column
        )
    ts.advance()
    if not ts.at("("):
        return Atom(tok.text), tok
    ts.expect("(")
    args = [_parse_term(ts)]
    while ts.at(","):
        ts.advance()
        args.append(_parse_term(ts))
    ts.expect(")")
    return Atom(tok.text, tuple(args)), tok


def parse_literal_from(ts: TokenStream) -> tuple[Literal, Token]:
    if ts.at("\\+"):
        start = ts.advance()
        a, _ = parse_atom_from(ts)
        return Literal(a, positive=False), start
    a, tok = parse_atom_from(ts)
    return Literal(a), tok


def parse_clause_from(ts: TokenStream, sink: list[tuple[Atom, Token]]) -> Clause:
    head, head_tok = parse_atom_from(ts)
    sink.append((head, head_tok))
    body: list[Literal] = []
    if ts.at(":-"):
        ts.advance()
        while True:
            lit, tok = parse_literal_from(ts)
            body.append(lit)
            sink.append((lit.atom, tok))
            if not ts.at(","):
                break
            ts.advance()
    ts.expect(".")
    clause = Clause(head, tuple(body))
    unbound = head.variables() - {v for l in clause.body for v in l.atom.variables()}
    if unbound:
        names = ", ".join(sorted(v.name for v in unbound))
        raise ParseError(f"head variable(s) {names} do not occur in the body", head_tok.line, head_tok.column)
    return clause


def _check_arities(atoms_with_pos: Iterable[tuple[Atom, Token]]) -> None:
    seen: dict[str, tuple[int, Token]] = {}
    for a, tok in atoms_with_pos:
        if a.relation in seen:
            arity, first = seen[a.relation]
            if a.arity != arity:
                raise ArityConflictError(
                    f"relation {a.relation!r} used with arity {a.arity} but "
                    f"declared with arity {arity} at line {first.line}",
                    tok.line,
                    tok.column,
                )
        else:
            seen[a.relation] = (a.arity, tok)


def parse_program(text: str) -> Program:
    """Parse program text into a :class:`Program`.

    Raises :class:`ParseError` (with line/column) on malformed input and
    :class:`ArityConflictError` when a relation is used at two arities.
    """
    ts = TokenStream(tokenize(text))
    clauses: list[Clause] = []
    positions: list[tuple[Atom, Token]] = []
    while ts.current.kind != "eof":
        clauses.append(parse_clause_from(ts, positions))
    _check_arities(positions)
    return Program(tuple(clauses))


# ---------------------------------------------------------------------------
# Grounding.


@dataclass(frozen=True)
class GroundProgram:
    """A variable-free program together with its Herbrand base.

    The base always contains every atom occurring in a clause and may be
    widened with extra atoms (e.g. externally supplied facts) so that
    interpretations are total over them as well.
    """

    clauses: tuple[Clause, ...]
    herbrand_base: frozenset[Atom]

    def __post_init__(self):
        for cl in self.clauses:
            if cl.variables():
                raise ValueError(f"clause is not ground: {cl}")
            if cl.head not in self.herbrand_base:
                raise ValueError(f"head outside the Herbrand base: {cl.head}")
            for lit in cl.body:
                if lit.atom not in self.herbrand_base:
                    raise ValueError(f"body atom outside the Herbrand base: {lit.atom}")

    @cached_property
    def evaluation_order(self) -> tuple[tuple[Atom, tuple[tuple[Literal, ...], ...]], ...]:
        """Each clause head with its bodies (in clause order), heads in level order.

        This is the one acyclicity check per ground program: the first use
        runs :func:`check_acyclic` and keeps the result.  A cyclic program
        raises :class:`CyclicityError` on every use, since nothing is kept.
        """
        levels = check_acyclic(self).levels
        bodies: dict[Atom, list[tuple[Literal, ...]]] = {}
        for cl in self.clauses:
            bodies.setdefault(cl.head, []).append(cl.body)
        return tuple(
            (head, tuple(bodies[head])) for head in sorted(bodies, key=lambda a: (levels[a], a))
        )

    @cached_property
    def index(self) -> dict[Atom, int]:
        """Atom ``i`` of the sorted Herbrand base (the key order) owns slot ``i`` of ``evaluate``'s columns."""
        return {a: i for i, a in enumerate(sorted(self.herbrand_base))}

    @cached_property
    def compiled(self) -> tuple[tuple[int, tuple[tuple[tuple[int, ...], tuple[int, ...]], ...]], ...]:
        """``evaluation_order`` on atom indices: each head with its bodies' positive and negated atoms."""
        ix = self.index
        return tuple(
            (ix[h], tuple((tuple(ix[l.atom] for l in b if l.positive), tuple(ix[l.atom] for l in b if not l.positive))
                          for b in bodies))
            for h, bodies in self.evaluation_order
        )

    def evaluate(self, columns: Sequence[int], every: int) -> list[int]:
        """The stable models of many worlds at once: ``columns[i]`` is the set of worlds (bits of ``every``)
        holding atom ``i`` as a fact.  In level order, a head gains the worlds where some body holds:
        the AND of its positive atoms' columns and of its negated atoms' complements.
        """
        cols = list(columns)
        for head, bodies in self.compiled:
            for pos, neg in bodies:  # acyclic: no body reads its own head's column
                worlds = every
                for a in pos:
                    worlds &= cols[a]
                for a in neg:
                    worlds &= ~cols[a]
                cols[head] |= worlds
        return cols

    def heads(self) -> frozenset[Atom]:
        return frozenset(cl.head for cl in self.clauses)


def ground(
    program: Program,
    constants: Iterable[Term | str] = (),
    extra_atoms: Iterable[Atom] = (),
) -> GroundProgram:
    """Instantiate every clause in all ways over the given constants.

    ``constants`` is the substitution universe; a program containing
    variables requires it to be non-empty.  ``extra_atoms`` are added to
    the Herbrand base unchanged (they must be ground).
    """
    universe = sorted({c if isinstance(c, Term) else Term(c) for c in constants})
    for t in universe:
        if t.is_variable:
            raise ValueError(f"substitution universe must contain constants only: {t}")
    extras = tuple(extra_atoms)
    for a in extras:
        if not a.is_ground:
            raise ValueError(f"extra atom is not ground: {a}")

    out: list[Clause] = []
    for cl in program:
        variables = sorted(cl.variables())
        if not variables:
            out.append(cl)
            continue
        if not universe:
            raise ValueError(f"clause has variables but no constants were given: {cl}")
        for combo in itertools.product(universe, repeat=len(variables)):
            binding = dict(zip(variables, combo))
            out.append(cl.substitute(binding))

    return GroundProgram(tuple(out), frozenset(Program(tuple(out)).atoms().union(extras)))


# ---------------------------------------------------------------------------
# Acyclicity and stable models.


@dataclass(frozen=True)
class LevelMapping:
    """Assigns each atom a positive level; rule heads sit above their bodies."""

    levels: Mapping[Atom, int]


def check_acyclic(gp: GroundProgram) -> LevelMapping:
    """Return a level mapping for ``gp`` or raise :class:`CyclicityError`.

    Levels are the longest dependency chains ending at each atom, so the
    mapping is canonical; iteration order is lexicographic for determinism.
    """
    deps: dict[Atom, set[Atom]] = {a: set() for a in gp.herbrand_base}
    for cl in gp.clauses:
        deps[cl.head].update(l.atom for l in cl.body)

    levels: dict[Atom, int] = {}
    pending = sorted(gp.herbrand_base)
    while pending:
        progressed = False
        remaining: list[Atom] = []
        for a in pending:
            if deps[a] <= levels.keys():
                levels[a] = 1 + max((levels[b] for b in deps[a]), default=0)
                progressed = True
            else:
                remaining.append(a)
        if not progressed:
            raise CyclicityError(_find_cycle(deps, remaining))
        pending = remaining
    return LevelMapping(levels)


def _find_cycle(deps: Mapping[Atom, set[Atom]], candidates: Sequence[Atom]) -> list[Atom]:
    stuck = set(candidates)
    start = min(stuck)
    path: list[Atom] = []
    seen: dict[Atom, int] = {}
    node = start
    while node not in seen:
        seen[node] = len(path)
        path.append(node)
        node = min(d for d in deps[node] if d in stuck)
    return path[seen[node]:]


@dataclass(frozen=True)
class Interpretation:
    """A total truth assignment over a fixed atom domain."""

    domain: frozenset[Atom]
    true_atoms: frozenset[Atom]

    def __post_init__(self):
        if not self.true_atoms <= self.domain:
            raise ValueError("true atoms must lie inside the domain")

    def is_true(self, a: Atom) -> bool:
        if a not in self.domain:
            raise UnknownAtomError(f"atom {a} is outside the interpretation domain")
        return a in self.true_atoms

    def holds(self, lit: Literal) -> bool:
        value = self.is_true(lit.atom)
        return value if lit.positive else not value


def stable_model(gp: GroundProgram, facts: Iterable[Atom] = ()) -> Interpretation:
    """The unique stable model of ``gp`` plus the given facts.

    Requires ``gp`` to be acyclic.  Runs :meth:`GroundProgram.evaluate` on one
    world (the mask ``1``) holding the facts inside the Herbrand base; those
    outside it feed no rule and stay true.
    """
    fact_set = frozenset(facts)
    for a in fact_set:
        if not a.is_ground:
            raise ValueError(f"fact is not ground: {a}")
    model = gp.evaluate([a in fact_set for a in gp.index], 1)
    return Interpretation(gp.herbrand_base | fact_set, frozenset(itertools.compress(gp.index, model)) | fact_set)
