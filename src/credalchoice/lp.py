"""Exact linear programming over the rationals.

A small two-phase simplex.  All variables are implicitly non-negative;
constraints are ``(coefficients, relation, rhs)`` triples with relation
one of ``<=``, ``==``, ``>=``.  Bland's rule picks the pivots, so the
method terminates even on degenerate problems.

Constraints and objectives come in as ``Fraction``s, and points and
optima go out as exact ``Fraction``s.  Inside, the tableau is
fraction-free (Edmonds 1967; Bareiss 1968): each row is a list of
coprime Python ``int``s, held only up to a positive factor.  Every
Bland decision is a sign test or a cross-multiplied ratio comparison,
and no such factor changes either, so the pivots are exactly those of
a ``Fraction`` tableau.

``FeasibleSystem`` is the core: it runs phase one once per constraint
system and keeps the feasible basis, so every objective optimized over
the same polytope pays only for its own phase two.  It is the one LP
entry point: a one-shot optimum is ``FeasibleSystem(n, cons).solve(c)``
and a feasible point is ``FeasibleSystem(n, cons).point``.

:func:`enumerate_vertices_eq` lists the vertices of a bounded system's
polytope by breadth-first search over its feasible bases, starting from
the system's phase-one basis and leaving by the simplex's own ratio
test.  Degenerate vertices are reached through multiple bases; points
are deduplicated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, InfeasibleError, UnboundedError

Row = list[Fraction]
IntRow = list[int]  # a tableau row, held only up to a positive factor


class Constraint(NamedTuple):
    coeffs: Sequence[Fraction]
    sense: str  # "<=" | "==" | ">="
    rhs: Fraction

DEFAULT_BASIS_CAP = 200_000

_ZERO = Fraction(0)
_ONE = Fraction(1)


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    point: tuple[Fraction, ...]


def _coprime(row: IntRow) -> IntRow:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _scaled(row: Sequence[Fraction], den: int) -> IntRow:
    """``den * row`` for a common multiple ``den`` of the row's denominators."""
    return [v.numerator * (den // v.denominator) for v in row]


def _combine(p: int, row: IntRow, f: int, prow: IntRow) -> IntRow:
    """``p*row - f*prow`` divided by the gcd of its entries, as a new list."""
    return _coprime([p * v - f * w for v, w in zip(row, prow)])


def _pivot(rows: list[IntRow], obj: IntRow, basis: list[int], r: int, c: int) -> None:
    """Pivot on entry ``(r, c)``, made positive (``p``) by negating its row.

    Each other row with entry ``f`` in column ``c`` becomes ``p*row -
    f*prow`` over its gcd, a positive multiple of the rational pivot's
    row.  Changed rows are new lists, so callers may share unchanged
    rows with a shallow copy.
    """
    prow = rows[r]
    if prow[c] < 0:
        prow = rows[r] = [-v for v in prow]
    p = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            rows[i] = _combine(p, row, f, prow)
    f = obj[c]
    if f:
        obj[:] = _combine(p, obj, f, prow)
    basis[r] = c


def _min_ratio_rows(rows: list[IntRow], col: int) -> list[int]:
    """The rows with ``row[col] > 0`` whose ratio ``rhs / row[col]`` is least, found by cross-multiplying."""
    best: list[int] = []
    for r, row in enumerate(rows):
        d = row[col]
        if d > 0:
            # the sign of row[-1]/d - num/den, the best ratio so far
            diff = row[-1] * den - num * d if best else -1
            if diff < 0:
                best, num, den = [r], row[-1], d
            elif diff == 0:
                best.append(r)
    return best


def _bland_minimize(rows: list[IntRow], obj: IntRow, basis: list[int]) -> None:
    """Bland's rule: the first improving column enters, the tied row with the least basic column leaves."""
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        ties = _min_ratio_rows(rows, enter)
        if not ties:
            raise UnboundedError("objective improves without bound")
        _pivot(rows, obj, basis, min(ties, key=basis.__getitem__), enter)


def _phase_one(rows: list, nreal: int) -> list[int]:
    """Bring the tableau to a feasible basis; may drop redundant rows.

    ``rows`` holds ``Fraction`` equality rows with non-negative
    right-hand sides over ``nreal`` columns plus the rhs.  They are
    scaled to integers by one common factor, so the phase-one objective
    (minus their sum) weighs them as it would in fractions, and only then
    is each row made coprime.  On return the rows are written in terms of
    a feasible basis over the real columns, which is returned.
    """
    m = len(rows)
    den = lcm(*(v.denominator for row in rows for v in row))
    for r, row in enumerate(rows):
        art = [0] * m
        art[r] = den
        rows[r] = _scaled(row[:-1], den) + art + _scaled(row[-1:], den)
    basis = [nreal + r for r in range(m)]
    sums = [sum(col) for col in zip(*rows, [0] * (nreal + m + 1))]
    obj = _coprime([-s for s in sums[:nreal]] + [0] * m + [-sums[-1]])
    rows[:] = [_coprime(row) for row in rows]
    _bland_minimize(rows, obj, basis)
    if obj[-1] != 0:
        raise InfeasibleError("no feasible point")

    for r in range(len(rows)):
        if basis[r] >= nreal:
            col = next((j for j in range(nreal) if rows[r][j] != 0), None)
            if col is not None:
                _pivot(rows, obj, basis, r, col)

    keep = [r for r in range(len(rows)) if basis[r] < nreal]
    rows[:] = [_coprime(rows[r][:nreal] + [rows[r][-1]]) for r in keep]
    return [basis[r] for r in keep]


def _standardize(n: int, constraints: Iterable[Constraint]) -> tuple[list[Row], int]:
    """Equality rows with slack columns appended and non-negative rhs."""
    cons = []
    nslack = 0
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", "==", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        coeffs = list(coeffs)
        if len(coeffs) != n:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {n}")
        cons.append((coeffs, rel, Fraction(rhs)))
        if rel != "==":
            nslack += 1
    rows: list[Row] = []
    slack_at = 0
    for coeffs, rel, rhs in cons:
        row = coeffs + [_ZERO] * nslack + [rhs]  # as given: phase one reads numerators and denominators
        if rel != "==":
            row[n + slack_at] = _ONE if rel == "<=" else -_ONE
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
    return rows, n + nslack


def _basic_point(rows: list[IntRow], basis: Sequence[int], n: int) -> tuple[Fraction, ...]:
    """The basic solution of a tableau, restricted to the first ``n`` columns."""
    point = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            point[b] = Fraction(rows[r][-1], rows[r][b])
    return tuple(point)


class FeasibleSystem:
    """A constraint system over ``x >= 0`` brought to a feasible basis once.

    The constructor standardizes the constraints and runs phase one,
    raising :class:`InfeasibleError` when there is no feasible point;
    ``point`` is the phase-one basic solution.  :meth:`solve` runs phase
    two on a copy of the kept tableau, so one system answers any number
    of objectives, minimized or maximized, in any order.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint]):
        self.n = n
        self._rows, self._ncols = _standardize(n, constraints)
        self._basis = _phase_one(self._rows, self._ncols)
        self.point = _basic_point(self._rows, self._basis, n)

    def solve(self, objective: Sequence[Fraction], *, maximize: bool = False) -> LPSolution:
        """Optimize ``objective . x``: the exact optimum and a witness point.

        Raises :class:`UnboundedError` when the objective has no optimum.
        """
        n = self.n
        if len(objective) != n:
            raise ValueError(f"objective has {len(objective)} coefficients, expected {n}")
        # pivots replace rows rather than editing them, so a shallow copy is enough
        rows = list(self._rows)
        basis = list(self._basis)
        den = lcm(*(c.denominator for c in objective))
        costs = _scaled(objective, den)  # ``int``s and ``Fraction``s alike
        obj = _coprime([-c for c in costs] if maximize else costs) + [0] * (self._ncols - n + 1)
        for r, b in enumerate(basis):
            if obj[b]:
                obj = _combine(rows[r][b], obj, obj[b], rows[r])
        _bland_minimize(rows, obj, basis)
        # the optimum: cost * rhs / pivot summed over the basic rows, over the pivots' lcm
        basic = [(costs[b], rows[r][-1], rows[r][b]) for r, b in enumerate(basis) if b < n]
        pivots = lcm(*(p for _, _, p in basic))
        value = Fraction(sum(c * v * (pivots // p) for c, v, p in basic), pivots * den)
        return LPSolution(value, _basic_point(rows, basis, n))


# ---------------------------------------------------------------------------
# Vertex enumeration over a system's feasible bases.


def _tableau_for_basis(rows: list[IntRow], basis: Sequence[int]) -> list[IntRow]:
    """Independent ``rows`` on a non-singular basis: row ``k`` is a positive multiple of ``basis[k]``'s unit row."""
    aug = list(rows)  # pivots replace rows rather than editing them
    untouched = [0] * len(aug[0]) if aug else []  # a zero objective row; pivots leave it
    for k, col in enumerate(basis):
        src = next(r for r in range(k, len(aug)) if aug[r][col] != 0)
        aug[k], aug[src] = aug[src], aug[k]
        _pivot(aug, untouched, list(basis), k, col)
    return aug


def enumerate_vertices_eq(system: FeasibleSystem, *, cap: int = DEFAULT_BASIS_CAP) -> list[tuple[Fraction, ...]]:
    """All vertices of a bounded system's polytope, sorted.

    Walks the graph of feasible bases breadth first by single pivots,
    starting from the phase-one basis, so the polytope must be bounded
    (unbounded edge directions are ignored).  Every tied leaving row is
    followed, so degenerate vertices are reached through several bases;
    points are deduplicated.  Raises :class:`CapExceededError` when more
    than ``cap`` bases are visited.
    """
    rows, n = system._rows, system.n
    first = tuple(sorted(system._basis))
    seen: set[tuple[int, ...]] = {first}
    queue: deque[tuple[int, ...]] = deque([first])
    points: dict[tuple[Fraction, ...], None] = {}
    while queue:
        basis = queue.popleft()
        tab = _tableau_for_basis(rows, basis)
        points.setdefault(_basic_point(tab, basis, n))
        basic = set(basis)
        for j in range(system._ncols):
            if j in basic:
                continue
            # a min-ratio pivot on a positive entry: the new basis is feasible and non-singular
            for r in _min_ratio_rows(tab, j):
                nb = tuple(sorted(basic - {basis[r]} | {j}))
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        raise CapExceededError(f"more than {cap} feasible bases")
                    queue.append(nb)
    return sorted(points)
