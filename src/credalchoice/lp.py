"""Exact linear programming in integers.

A small two-phase simplex over ``{x >= 0 : A x = b}``: a system is the
rows of ``A`` and ``b``.  Bland's rule picks the pivots of phase one;
``bound_numerators`` uses Dantzig's rule, and Bland's on degenerate
stretches, so every method terminates on degenerate problems.

Rows and objectives come in as ``int``s, right-hand sides as ``int``s or
``Fraction``s; points, optima and vertices go out as ``int`` numerators
over one positive ``int`` denominator, so ``lp`` builds no ``Fraction``.
Before phase one the variables are scaled, ``x = y / scale`` for
``scale`` the lcm of the right-hand sides' denominators, so every rhs is
an integer and no row carries that lcm; ``scale`` comes back only in the
denominators handed out.  Inside, the tableau is fraction-free (Edmonds
1967; Bareiss 1968) and stores only the nonbasic columns: a row is its
entries there, its rhs and, last, its entry ``d > 0`` in its own basic
column, as ``int``s held only up to a positive factor.  Every Bland
decision is a sign test or a cross-multiplied ratio comparison, and
Dantzig's rule compares reduced costs, which share one factor as every
real variable has the same scale; no such factor changes a decision, so
the pivots are exactly those of a ``Fraction`` tableau.  A pivot combines
rows over the gcd of the two multipliers, by ``row - (f/p)*prow`` when
the pivot ``p`` divides the row's entry ``f``, and reduces a row only
when its ``d`` has grown past the pivot, and the reduced costs only when
they were scaled.  :func:`_combine` runs the unit combine, ``row ∓ prow``,
as a C ``map``.  A pivot moves the leaving column into the entering one's
place, so phase one stores an artificial column only once it has left
the basis; each artificial has entry 1 in its row, which scales its
column by a positive factor and changes no pivot.

``FeasibleSystem``, the one LP entry point, runs phase one once per
system and keeps the feasible basis, so every objective over the same
polytope pays only for its own phase two.  It also keeps every distinct
basis at which an end of ``bound_numerators(c)`` finished, with its basic
values over one integer; each end starts at the kept basis where
``c . x`` is best, and pivots on a copy only if a reduced cost is
negative there.  The phase-one point is ``point_numerators()``.

:func:`vertex_numerators` lists the vertices of a bounded system's
polytope by a depth-first walk over its feasible bases on one copy of
the phase-one tableau.  It leaves each basis by the simplex's own ratio
test, and comes back by pivoting at the same position again, which
undoes the pivot: each basis costs two pivots, and the walk keeps only the
pivot back per level, where its scan of moves resumes.  Degenerate vertices
are reached through several bases; points are deduplicated.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import add, mul, sub
from typing import Sequence

from .errors import CapExceededError, InfeasibleError, UnboundedError
from .rational import numerators

IntRow = list[int]  # a tableau row, held only up to a positive factor

DEFAULT_BASIS_CAP = 200_000
_NOT_INT = "lp takes int rows and objectives; only the right-hand sides may be Fractions"


def _coprime(row: IntRow) -> IntRow:
    """``row`` divided by the gcd of its entries."""
    g = gcd(*row)
    return [v // g for v in row] if g > 1 else row


def _combine(a: int, row: IntRow, b: int, prow: IntRow) -> IntRow:
    """A fresh ``a*row - b*prow``, to the shorter list's end; a C ``map`` for the unit combine, ``a == 1, b == ±1``."""
    if a == 1 and (b == 1 or b == -1):
        return list(map(sub if b == 1 else add, row, prow))
    return [v - b * w for v, w in zip(row, prow)] if a == 1 else [a * v - b * w for v, w in zip(row, prow)]


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
    rule of :meth:`pivot`, and ``obj``'s by being made coprime when built
    and after each pivot that scales it.  ``obj`` has no ``d``; it has an
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

    def value(self, costs: Sequence[int]) -> int:
        """``costs . x`` at the basic solution of a :meth:`valued` tableau, over ``big``."""
        return sum(map(mul, map(costs.__getitem__, self.basis), self.values))

    def priced(self, costs: Sequence[int]) -> IntRow:
        """The coprime reduced costs of ``costs`` at the basis of a :meth:`valued` tableau."""
        big, obj = self.big, [self.big * costs[c] for c in self.cols]
        for row, b in zip(self.rows, self.basis):  # each basic cost eliminated by its row at weight big / d
            if costs[b]:
                w = costs[b] * (big // row[-1])
                obj = _combine(1, obj, w, row)
        return _coprime(obj)

    def pivot(self, r: int, k: int) -> None:
        """``cols[k]`` enters at row ``r``, and ``basis[r]`` leaves into position ``k``.

        The pivot row ``prow``, negated if need be, takes its pivot ``p > 0``
        as ``d`` and its ``±d`` as its leaving entry.  Every other row, and
        the objective, with entry ``f`` at ``k`` becomes
        ``(p/g)*row - (f/g)*prow`` for ``g = gcd(p, f)``: its leaving entry
        is ``-(f/g)`` times the pivot row's, and its new ``d`` is ``p/g``
        times its old one.  If ``p`` divides ``f`` (the unit multiplier) that
        is ``row - (f/p)*prow``, keeping ``d``, and if ``f = ±p`` the unit
        combine ``row ∓ prow``, a C ``map``.  Only a row whose new ``d``
        exceeds ``p`` is reduced by the gcd of its entries, and the objective
        only when it was scaled.
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
                new = _combine(a, row, b, prow)
                new[k] = -b * leave
                new[-1] = d = a * row[-1]
                rows[i] = _coprime(new) if d > p else new
        f = self.obj[k]
        if f:  # ``_combine`` stops at the objective's end
            g = gcd(p, f)
            a, b = p // g, f // g
            new = _combine(a, self.obj, b, prow)
            new[k] = -b * leave
            self.obj = new if a == 1 else _coprime(new)
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


def _phase_one(rows: list[IntRow], nreal: int) -> _Tableau:
    """A tableau on a feasible basis of the real variables; may drop redundant rows.

    ``rows`` holds :func:`_standardize`'s integer equality rows over
    ``nreal`` columns plus the rhs.  Row ``r`` is basic in artificial
    ``nreal + r`` with ``d = 1``: that artificial, and each real variable,
    is ``scale`` times the ``Fraction`` tableau's, for the variables'
    ``scale``; no pivot choice sees this positive scale.  The kept rows
    are made coprime.
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


def _standardize(rows: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]) -> tuple[list[IntRow], int]:
    """Each row with its rhs numerator appended, negated if the rhs is negative, and ``scale``.

    The rhs are numerators over ``scale``, their lcm denominator, so the
    variables are ``y = scale * x``.
    """
    if not rows or len(rhs) != len(rows) or any(len(row) != len(rows[0]) for row in rows):
        raise ValueError(f"expected rows of one length and one rhs each: {len(rows)} rows, {len(rhs)} rhs")
    bs, scale = numerators(rhs)
    return [[-v for v in row] + [-b] if b < 0 else [*row, b] for row, b in zip(rows, bs)], scale


class FeasibleSystem:
    """The system ``{x >= 0 : rows . x = rhs}`` brought to a feasible basis once.

    The constructor brings the system to integers over ``y = scale * x``
    and runs phase one, raising :class:`InfeasibleError` when there is no
    feasible point.  :meth:`bound_numerators` runs phase two on copies of
    kept tableaux, so one system answers any number of objectives, in any order.
    """

    def __init__(self, rows: Sequence[Sequence[int]], rhs: Sequence[int | Fraction]):
        ints, self._scale = _standardize(rows, rhs)
        self.n = len(rows[0])
        try:  # a non-int row entry first meets ``gcd`` in phase one
            self._tab = _phase_one(ints, self.n).valued()
        except TypeError as e:
            raise TypeError(_NOT_INT) from e
        # the phase-one tableau, then one for every distinct basis at which an end finished, by sorted basis
        self._pool = {tuple(sorted(self._tab.basis)): self._tab}

    def point_numerators(self) -> tuple[IntRow, int]:
        """The phase-one basic solution as integer numerators over one positive denominator."""
        x = dict(zip(self._tab.basis, self._tab.values))
        return [x.get(j, 0) for j in range(self.n)], self._tab.big * self._scale

    def bound_numerators(self, objective: Sequence[int]) -> tuple[int, int, int]:
        """The least and greatest ``objective . x`` as two numerators over one positive denominator.

        Each end starts at the kept basis where its value is best, the
        earliest among ties, and pivots only on a copy, keeping its final
        basis.  :class:`UnboundedError` if either end has no optimum.
        """
        if len(objective) != self.n:
            raise ValueError(f"objective has {len(objective)} coefficients, expected {self.n}")
        lo = hi = (self._tab.value(objective), self._tab)
        for tab in self._pool.values():  # values compared as cross-multiplied integers
            value = tab.value(objective)
            if value * lo[1].big < lo[0] * tab.big:
                lo = (value, tab)
            elif value * hi[1].big > hi[0] * tab.big:
                hi = (value, tab)
        try:  # a non-int objective entry first meets ``gcd`` in pricing
            down = lo[1].priced(objective)
        except TypeError as e:
            raise TypeError(_NOT_INT) from e
        if type(lo[0]) is not int:  # with no nonbasic column, pricing has no entry to meet ``gcd``
            raise TypeError(_NOT_INT)
        ends = []
        for (value, tab), obj in ((lo, down), (hi, [-v for v in (down if hi is lo else hi[1].priced(objective))])):
            if min(obj, default=0) < 0:
                tab = tab.copy(obj)
                tab.minimize(dantzig=True)
                tab = self._pool.setdefault(tuple(sorted(tab.basis)), tab.valued())
                value = tab.value(objective)
            ends.append((value, tab.big))
        (low, low_big), (high, high_big) = ends
        big = lcm(low_big, high_big)
        return low * (big // low_big), high * (big // high_big), big * self._scale


# ---------------------------------------------------------------------------
# Vertex enumeration over a system's feasible bases.


def vertex_numerators(system: FeasibleSystem, *, cap: int = DEFAULT_BASIS_CAP) -> tuple[list[IntRow], int]:
    """All vertices of a bounded system's polytope, sorted, as integer numerators over one positive denominator.

    Walks the graph of feasible bases depth first on one tableau, starting
    from the phase-one basis, so the polytope must be bounded (unbounded
    edge directions are ignored).  A move is a min-ratio pivot ``(r, k)``,
    ordered by ``cols[k]``, then by ``r``; the same pivot leads back,
    restoring the basis, and every row up to a positive factor, which
    changes no ratio tie, so the scan of moves resumes just after it.
    Every tied leaving row is followed, so degenerate vertices are reached
    through several bases; points are deduplicated as integers.  Raises
    :class:`CapExceededError` when more than ``cap`` bases are visited.
    """
    n, scale = system.n, system._scale
    tab = system._tab.copy([0] * len(system._tab.cols))  # a zero objective row; pivots leave it
    seen = {tuple(sorted(tab.basis))}
    points = set()  # each vertex as integers over its least denominator, which comes first
    back: list[tuple[int, int]] = []  # per level: the pivot back down
    var = row = -1  # the scan resumes past the move of variable ``var`` entering at ``row``
    while True:
        if var < 0:  # a basis reached for the first time
            x = dict(zip(tab.basis, tab.valued().values))
            big = tab.big * scale
            g = gcd(big, *x.values())
            points.add((big // g, *(x.get(j, 0) // g for j in range(n))))
        moves = ((r, k) for k in sorted(range(len(tab.cols)), key=tab.cols.__getitem__) if tab.cols[k] >= var
                 for r in _min_ratio_rows(tab.rows, k) if tab.cols[k] > var or r > row)
        for r, k in moves:  # the moves are computed only until the first unseen basis
            basis = tuple(sorted(tab.basis[:r] + tab.basis[r + 1:] + [tab.cols[k]]))
            if basis not in seen:
                seen.add(basis)
                if len(seen) > cap:
                    raise CapExceededError(f"more than {cap} feasible bases")
                tab.pivot(r, k)
                back.append((r, k))
                var = row = -1
                break
        else:
            if not back:  # over one denominator, sorted
                den = lcm(*(p[0] for p in points))
                return sorted([v * (den // p[0]) for v in p[1:]] for p in points), den
            row, k = back.pop()
            tab.pivot(row, k)
            var = tab.cols[k]
