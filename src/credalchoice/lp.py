"""Exact linear programming over the rationals.

A small two-phase simplex.  All variables are implicitly non-negative;
constraints are ``(coefficients, relation, rhs)`` triples with relation
one of ``<=``, ``==``, ``>=``.  Bland's rule picks the pivots of phase
one and of ``solve``; ``bounds`` uses Dantzig's rule, and Bland's on
degenerate stretches, so every method terminates on degenerate problems.

Constraints and objectives come in as ``int``s or ``Fraction``s, and
points and optima go out as exact ``Fraction``s.  The constraints are
scaled to integers once, by one common denominator, before phase one, so
0/1 rows with ``Fraction`` right-hand sides cost no ``Fraction``
arithmetic.  Inside, the tableau is
fraction-free (Edmonds 1967; Bareiss 1968) and stores only the nonbasic
columns: a row is its entries there, its rhs and, last, its entry
``d > 0`` in its own basic column, as ``int``s held only up to a positive
factor.  Every Bland decision is a sign test or a cross-multiplied ratio
comparison, and Dantzig's rule compares the reduced costs, which share
one factor; no such factor changes a decision, so the pivots are exactly
those of a ``Fraction`` tableau.  A pivot combines rows over the gcd of the two
multipliers and divides a row by the gcd of its entries only when its
``d`` has grown past the pivot, so most rows are built in one pass; the
reduced costs are always kept coprime.  A pivot moves the leaving column
into the entering one's place, so phase one stores an artificial column
only once it has left the basis; each artificial has entry 1 in its row,
which scales its column by a positive factor and changes no pivot.

``FeasibleSystem`` is the core: it runs phase one once per constraint
system and keeps the feasible basis, so every objective optimized over
the same polytope pays only for its own phase two.  It is the one LP
entry point.  It also keeps every distinct basis at which an end of
``bounds(c)`` finished, with its basic values over one integer; each end
starts at the kept basis where ``c . x`` is best, and pivots on a copy
only if a reduced cost is negative there.  ``bounds`` builds no point;
``solve(c)`` gives one end with a witness point, from the phase-one
basis.  The phase-one ``point`` is built the first time it is read.

:func:`enumerate_vertices_eq` lists the vertices of a bounded system's
polytope by a depth-first walk over its feasible bases on one copy of
the phase-one tableau.  It leaves each basis by the simplex's own ratio
test, and comes back by pivoting at the same position again, which
undoes the pivot: each basis costs two pivots, and the walk keeps only
the pivot back and the next move per level.  Degenerate vertices are
reached through multiple bases; points are deduplicated.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, InfeasibleError, UnboundedError
from .rational import numerators

IntRow = list[int]  # a tableau row, held only up to a positive factor


class Constraint(NamedTuple):
    coeffs: Sequence[int | Fraction]
    sense: str  # "<=" | "==" | ">="
    rhs: int | Fraction

DEFAULT_BASIS_CAP = 200_000

_ZERO = Fraction(0)


@dataclass(frozen=True)
class LPSolution:
    value: Fraction
    point: tuple[Fraction, ...]


def _coprime(row: IntRow) -> IntRow:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _min_ratio_rows(rows: list[IntRow], col: int) -> list[int]:
    """The rows with ``row[col] > 0`` whose ratio ``rhs / row[col]`` is least, found by cross-multiplying."""
    best: list[int] = []
    for r, row in enumerate(rows):
        d = row[col]
        if d > 0:
            # the sign of rhs/d - num/den, the best ratio so far
            diff = row[-2] * den - num * d if best else -1
            if diff < 0:
                best, num, den = [r], row[-2], d
            elif diff == 0:
                best.append(r)
    return best


class _Tableau:
    """Row ``r`` for basic variable ``basis[r]``, ``cols[k]`` the variable at position ``k``, and ``obj`` the reduced costs.

    Rows need not be coprime: a row's scale is bounded by the reduction
    rule of :meth:`pivot`.  ``obj`` is coprime and has no ``d``; it has an
    rhs entry only in phase one, which reads the infeasibility off it.
    Pivots replace rows rather than editing them, so copies may share rows.
    """

    __slots__ = ("rows", "basis", "cols", "obj", "big", "values")

    def __init__(self, rows: list[IntRow], basis: list[int], cols: list[int], obj: IntRow):
        self.rows, self.basis, self.cols, self.obj = rows, basis, cols, obj

    def copy(self, obj: IntRow) -> _Tableau:
        return _Tableau(list(self.rows), list(self.basis), list(self.cols), obj)

    def valued(self) -> _Tableau:
        """``self``, given ``big``, the lcm of its rows' ``d``s, and its basic ``values`` as numerators over ``big``."""
        self.big = big = lcm(*(row[-1] for row in self.rows))
        self.values = [row[-2] * (big // row[-1]) for row in self.rows]
        return self

    def value(self, costs: list[int]) -> int:
        """``costs . x`` at the basic solution of a :meth:`valued` tableau, over ``big``."""
        return sum(map(mul, map(costs.__getitem__, self.basis), self.values))

    def priced(self, costs: list[int]) -> IntRow:
        """The coprime reduced costs of ``costs`` at the basis of a :meth:`valued` tableau."""
        big, obj = self.big, [self.big * costs[c] for c in self.cols]
        for row, b in zip(self.rows, self.basis):  # each basic cost eliminated by its row at weight big / d
            if costs[b]:
                w = costs[b] * (big // row[-1])
                obj = [o - w * v for o, v in zip(obj, row)]
        return _coprime(obj)

    def pivot(self, r: int, k: int) -> None:
        """``cols[k]`` enters at row ``r``, and ``basis[r]`` leaves into position ``k``.

        The pivot row ``prow``, negated if need be, takes its pivot ``p > 0``
        as ``d`` and its ``±d`` as its leaving entry.  Every other row, and
        the objective, with entry ``f`` at ``k`` becomes
        ``(p/g)*row - (f/g)*prow`` for ``g = gcd(p, f)``: its leaving entry
        is ``-(f/g)`` times the pivot row's, and its new ``d`` is ``p/g``
        times its old one.  Only a row whose new ``d`` exceeds ``p`` is
        divided by the gcd of its entries; the objective always is.
        """
        rows = self.rows
        row = rows[r]
        prow = rows[r] = row[:] if row[k] > 0 else [-v for v in row]
        prow[k], prow[-1] = prow[-1], prow[k]
        p, leave = prow[-1], prow[k]
        for i, row in enumerate(rows):
            f = row[k]
            if f and i != r:
                g = gcd(p, f)
                a, b = p // g, f // g
                new = [v - b * w for v, w in zip(row, prow)] if a == 1 else [a * v - b * w for v, w in zip(row, prow)]
                new[k] = -b * leave
                new[-1] = d = a * row[-1]
                rows[i] = _coprime(new) if d > p else new
        f = self.obj[k]
        if f:
            g = gcd(p, f)
            a, b = p // g, f // g
            new = [a * v - b * w for v, w in zip(self.obj, prow)]  # ``zip`` stops at the objective's end
            new[k] = -b * leave
            self.obj = _coprime(new)
        self.basis[r], self.cols[k] = self.cols[k], self.basis[r]

    def minimize(self, dantzig: bool = False) -> None:
        """Bland's rule: the least variable with a negative reduced cost enters, the tied row with the least basic variable leaves.

        With ``dantzig``, the most negative reduced cost enters (the least
        variable among ties), except that Bland's rule chooses from a
        degenerate pivot to the next non-degenerate one: a cycle, all
        degenerate pivots, would be Bland's, which cannot cycle.
        """
        rows, basis, cols = self.rows, self.basis, self.cols
        bland = not dantzig
        while True:
            obj = self.obj
            least = min(obj[:len(cols)], default=0)  # phase one's objective ends in an rhs entry
            if least >= 0:
                return
            enter = min(c for c, v in zip(cols, obj) if v < 0 and (bland or v == least))
            k, r = cols.index(enter), -1
            for i, row in enumerate(rows):
                a = row[k]
                if a > 0:
                    # the sign of rhs/a - num/den, the least ratio so far
                    diff = row[-2] * den - num * a if r >= 0 else -1
                    if diff < 0 or diff == 0 and basis[i] < basis[r]:
                        r, num, den = i, row[-2], a
            if r < 0:
                raise UnboundedError("objective improves without bound")
            self.pivot(r, k)
            bland = not dantzig or num == 0

    def point(self, n: int) -> tuple[Fraction, ...]:
        """The basic solution, restricted to the first ``n`` variables."""
        point = [_ZERO] * n
        for row, b in zip(self.rows, self.basis):
            if b < n:
                point[b] = Fraction(row[-2], row[-1])
        return tuple(point)


def _phase_one(rows: list[IntRow], nreal: int) -> _Tableau:
    """A tableau on a feasible basis of the real variables; may drop redundant rows.

    ``rows`` holds :func:`_standardize`'s integer equality rows over
    ``nreal`` columns plus the rhs.  Row ``r`` is basic in artificial
    ``nreal + r`` with ``d = 1``: that artificial is ``den`` times the
    ``Fraction`` tableau's, for the rows' common factor ``den``, a
    positive scale that no pivot choice sees.  The kept rows are made
    coprime.
    """
    m = len(rows)
    obj = _coprime([-sum(col) for col in zip(*rows, [0] * (nreal + 1))])
    tab = _Tableau([row + [1] for row in rows], list(range(nreal, nreal + m)), list(range(nreal)), obj)
    tab.minimize()
    if tab.obj[-1] != 0:
        raise InfeasibleError("no feasible point")

    for r in range(m):
        if tab.basis[r] >= nreal:
            real = [k for k, c in enumerate(tab.cols) if c < nreal and tab.rows[r][k]]
            if real:
                tab.pivot(r, min(real, key=tab.cols.__getitem__))

    real = [k for k, c in enumerate(tab.cols) if c < nreal]
    keep = [r for r, b in enumerate(tab.basis) if b < nreal]
    rows = [_coprime([tab.rows[r][k] for k in real] + tab.rows[r][-2:]) for r in keep]
    return _Tableau(rows, [tab.basis[r] for r in keep], [tab.cols[k] for k in real], [])


def _standardize(n: int, constraints: Iterable[Constraint]) -> tuple[list[IntRow], int]:
    """Equality rows with slack columns appended and non-negative rhs, as integers.

    Coefficients and right-hand sides may be ``int``s or ``Fraction``s.
    Every row is scaled by one common factor ``den``, the lcm of all their
    denominators, so the phase-one objective (minus the rows' sum) weighs
    them as it would in fractions; a slack's entry is ``±den``.
    """
    cons = []
    for coeffs, rel, rhs in constraints:
        if rel not in ("<=", "==", ">="):
            raise ValueError(f"unknown relation {rel!r}")
        if len(coeffs) != n:
            raise ValueError(f"constraint has {len(coeffs)} coefficients, expected {n}")
        cons.append((*numerators(coeffs), rel, rhs))
    den = lcm(*(d for _, d, _, _ in cons), *(rhs.denominator for *_, rhs in cons))
    nslack = sum(rel != "==" for _, _, rel, _ in cons)
    slacks = iter(range(n, n + nslack))
    rows: list[IntRow] = []
    for nums, d, rel, rhs in cons:
        scale = den // d
        row = [v * scale for v in nums] if scale > 1 else nums
        row += [0] * nslack
        row.append(rhs.numerator * (den // rhs.denominator))
        if rel != "==":
            row[next(slacks)] = den if rel == "<=" else -den
        rows.append([-v for v in row] if row[-1] < 0 else row)
    return rows, n + nslack


class FeasibleSystem:
    """A constraint system over ``x >= 0`` brought to a feasible basis once.

    The constructor standardizes the constraints and runs phase one,
    raising :class:`InfeasibleError` when there is no feasible point.
    :meth:`bounds` and :meth:`solve` run phase two on copies of kept
    tableaux, so one system answers any number of objectives, in any order.
    """

    def __init__(self, n: int, constraints: Iterable[Constraint]):
        self.n = n
        rows, self._ncols = _standardize(n, constraints)
        self._tab = _phase_one(rows, self._ncols).valued()
        # the phase-one tableau, then one for every distinct basis at which a ``bounds`` end finished, by sorted basis
        self._pool = {tuple(sorted(self._tab.basis)): self._tab}

    @cached_property
    def point(self) -> tuple[Fraction, ...]:
        """The phase-one basic solution, built on first read."""
        return self._tab.point(self.n)

    def _costs(self, objective: Sequence[Fraction]) -> tuple[list[int], int]:
        """``objective`` as integer costs over every column, and their denominator."""
        if len(objective) != self.n:
            raise ValueError(f"objective has {len(objective)} coefficients, expected {self.n}")
        costs, den = numerators(objective)
        return costs + [0] * (self._ncols - self.n), den

    def bound_numerators(self, objective: Sequence[Fraction]) -> tuple[int, int, int]:
        """The least and greatest ``objective . x`` as two numerators over one positive denominator.

        Each end starts at the kept basis where its value is best, the
        earliest among ties, and pivots only on a copy, keeping its final
        basis.  :class:`UnboundedError` if either end has no optimum.
        """
        costs, den = self._costs(objective)
        lo = hi = (self._tab.value(costs), self._tab)
        for tab in self._pool.values():  # values compared as cross-multiplied integers
            value = tab.value(costs)
            if value * lo[1].big < lo[0] * tab.big:
                lo = (value, tab)
            elif value * hi[1].big > hi[0] * tab.big:
                hi = (value, tab)
        down = lo[1].priced(costs)
        ends = []
        for (value, tab), obj in ((lo, down), (hi, [-v for v in (down if hi is lo else hi[1].priced(costs))])):
            if min(obj, default=0) < 0:
                tab = tab.copy(obj)
                tab.minimize(dantzig=True)
                tab = self._pool.setdefault(tuple(sorted(tab.basis)), tab.valued())
                value = tab.value(costs)
            ends.append((value, tab.big))
        (low, low_big), (high, high_big) = ends
        big = lcm(low_big, high_big)
        return low * (big // low_big), high * (big // high_big), big * den

    def bounds(self, objective: Sequence[Fraction]) -> tuple[Fraction, Fraction]:
        """The least and greatest ``objective . x``; :class:`UnboundedError` if either has no optimum."""
        low, high, den = self.bound_numerators(objective)
        return Fraction(low, den), Fraction(high, den)

    def solve(self, objective: Sequence[Fraction], *, maximize: bool = False) -> LPSolution:
        """Optimize ``objective . x`` from the phase-one basis by Bland's rule: the exact optimum and a witness point, or :class:`UnboundedError`."""
        costs, den = self._costs(objective)
        obj = self._tab.priced(costs)
        tab = self._tab.copy([-v for v in obj] if maximize else obj)
        tab.minimize()
        return LPSolution(Fraction(tab.valued().value(costs), tab.big * den), tab.point(self.n))


# ---------------------------------------------------------------------------
# Vertex enumeration over a system's feasible bases.


def enumerate_vertices_eq(system: FeasibleSystem, *, cap: int = DEFAULT_BASIS_CAP) -> list[tuple[Fraction, ...]]:
    """All vertices of a bounded system's polytope, sorted.

    Walks the graph of feasible bases depth first on one tableau, starting
    from the phase-one basis, so the polytope must be bounded (unbounded
    edge directions are ignored).  A move is a min-ratio pivot ``(r, k)``;
    the same pivot leads back, restoring the basis, and every row up to a
    positive factor, which changes no ratio tie, so a basis's moves are
    recomputed, unchanged, on each return to it.  Every tied leaving row is
    followed, so degenerate vertices are reached through several bases;
    points are deduplicated.  Raises :class:`CapExceededError` when more
    than ``cap`` bases are visited.
    """
    n = system.n
    tab = system._tab.copy([0] * len(system._tab.cols))  # a zero objective row; pivots leave it
    seen = {tuple(sorted(tab.basis))}
    points = {tab.point(n): None}
    back: list[tuple[int, int, int]] = []  # per level: the pivot back down, and the next move there
    i = 0
    while True:
        moves = [(r, k) for _, k in sorted(zip(tab.cols, range(len(tab.cols)))) for r in _min_ratio_rows(tab.rows, k)]
        for i in range(i, len(moves)):
            r, k = moves[i]
            basis = tuple(sorted(tab.basis[:r] + tab.basis[r + 1:] + [tab.cols[k]]))
            if basis not in seen:
                seen.add(basis)
                if len(seen) > cap:
                    raise CapExceededError(f"more than {cap} feasible bases")
                tab.pivot(r, k)
                points.setdefault(tab.point(n))
                back.append((r, k, i + 1))
                i = 0
                break
        else:
            if not back:
                return sorted(points)
            r, k, i = back.pop()
            tab.pivot(r, k)
