"""Exact linear programming over the rationals.

A small two-phase simplex on ``Fraction`` tableaus.  All variables are
implicitly non-negative; constraints are ``(coefficients, relation,
rhs)`` triples with relation one of ``<=``, ``==``, ``>=``.  Bland's
rule picks the pivots, so the method terminates even on degenerate
problems, and every reported optimum and witness point is exact.

``FeasibleSystem`` is the core: it runs phase one once per constraint
system and keeps the feasible basis, so every objective optimized over
the same polytope pays only for its own phase two.  It is the one LP
entry point: a one-shot optimum is ``FeasibleSystem(n, cons).solve(c)``
and a feasible point is ``FeasibleSystem(n, cons).point``.

The same machinery enumerates the vertices of a bounded polyhedron in
equality form ``{x >= 0 : Ax = b}`` by breadth-first search over
feasible bases, starting from a phase-one basis.  Degenerate vertices
are reached through multiple bases; points are deduplicated.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple, Sequence

from .errors import CapExceededError, InfeasibleError, UnboundedError

Row = list[Fraction]


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


def _pivot(rows: list[Row], obj: Row, basis: list[int], r: int, c: int) -> None:
    """Pivot on entry ``(r, c)``, touching only the pivot row's non-zero columns.

    Every changed row is replaced by a new list rather than edited in
    place, so callers may share unchanged rows with a shallow copy.
    """
    piv = rows[r][c]
    prow = rows[r] = [v / piv if v else v for v in rows[r]]
    nonzero = [(j, p) for j, p in enumerate(prow) if p]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            row = row[:]
            for j, p in nonzero:
                row[j] -= f * p
            rows[i] = row
    f = obj[c]
    if f:
        for j, p in nonzero:
            obj[j] -= f * p
    basis[r] = c


def _bland_minimize(rows: list[Row], obj: Row, basis: list[int]) -> None:
    ncols = len(obj) - 1
    while True:
        enter = next((j for j in range(ncols) if obj[j] < 0), None)
        if enter is None:
            return
        best_ratio = None
        leave = None
        for r, row in enumerate(rows):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[leave]
                ):
                    best_ratio = ratio
                    leave = r
        if leave is None:
            raise UnboundedError("objective improves without bound")
        _pivot(rows, obj, basis, leave, enter)


def _phase_one(rows: list[Row], nreal: int) -> list[int]:
    """Bring the tableau to a feasible basis; may drop redundant rows.

    ``rows`` holds equality rows with non-negative right-hand sides over
    ``nreal`` columns plus the rhs.  On return the rows are rewritten in
    terms of a feasible basis over the real columns and the basis (one
    real column per remaining row) is returned.
    """
    m = len(rows)
    for r, row in enumerate(rows):
        art = [_ZERO] * m
        art[r] = _ONE
        rows[r] = row[:-1] + art + [row[-1]]
    basis = [nreal + r for r in range(m)]
    obj: Row = [_ZERO] * (nreal + m + 1)
    for row in rows:
        for j in range(nreal):
            obj[j] -= row[j]
        obj[-1] -= row[-1]
    _bland_minimize(rows, obj, basis)
    if -obj[-1] != 0:
        raise InfeasibleError("no feasible point")

    for r in range(len(rows)):
        if basis[r] >= nreal:
            col = next((j for j in range(nreal) if rows[r][j] != 0), None)
            if col is not None:
                _pivot(rows, obj, basis, r, col)

    keep = [r for r in range(len(rows)) if basis[r] < nreal]
    pruned = [rows[r][:nreal] + [rows[r][-1]] for r in keep]
    new_basis = [basis[r] for r in keep]
    rows.clear()
    rows.extend(pruned)
    return new_basis


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
        row = [Fraction(c) for c in coeffs] + [_ZERO] * nslack + [rhs]
        if rel != "==":
            row[n + slack_at] = _ONE if rel == "<=" else -_ONE
            slack_at += 1
        if row[-1] < 0:
            row = [-v for v in row]
        rows.append(row)
    return rows, n + nslack


def _basic_point(rows: list[Row], basis: Sequence[int], n: int) -> tuple[Fraction, ...]:
    """The basic solution of a tableau, restricted to the first ``n`` columns."""
    point = [_ZERO] * n
    for r, b in enumerate(basis):
        if b < n:
            point[b] = rows[r][-1]
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
        costs = [Fraction(c) for c in objective] + [_ZERO] * (self._ncols - n)
        if maximize:
            costs = [-c for c in costs]
        obj: Row = costs + [_ZERO]
        for r, b in enumerate(basis):
            if obj[b] != 0:
                f = obj[b]
                for j, v in enumerate(rows[r]):
                    obj[j] -= f * v
        _bland_minimize(rows, obj, basis)
        value = -obj[-1]
        return LPSolution(-value if maximize else value, _basic_point(rows, basis, n))


# ---------------------------------------------------------------------------
# Vertex enumeration for {x >= 0 : Ax = b}.


def _tableau_for_basis(rows: list[Row], basis: Sequence[int]) -> list[Row] | None:
    """Rewrite independent equality rows in terms of the given basis.

    Returns None when the basis columns are singular.  Row ``k`` of the
    result is the unit row of ``basis[k]``.
    """
    aug = list(rows)  # pivots replace rows rather than editing them
    m = len(aug)
    untouched: Row = [_ZERO] * len(aug[0]) if aug else []  # a zero objective row; pivots leave it
    for k, col in enumerate(basis):
        src = next((r for r in range(k, m) if aug[r][col] != 0), None)
        if src is None:
            return None
        aug[k], aug[src] = aug[src], aug[k]
        _pivot(aug, untouched, list(basis), k, col)
    return aug


def enumerate_vertices_eq(
    a: Sequence[Sequence[Fraction]],
    b: Sequence[Fraction],
    *,
    cap: int = DEFAULT_BASIS_CAP,
) -> list[tuple[Fraction, ...]]:
    """All vertices of the bounded polyhedron ``{x >= 0 : Ax = b}``.

    Walks the graph of feasible bases by single pivots, so the polytope
    must be bounded (unbounded edge directions are ignored).  Raises
    :class:`InfeasibleError` when the polyhedron is empty and
    :class:`CapExceededError` when more than ``cap`` bases are visited.
    """
    if not a:
        return [()]
    n = len(a[0])
    # phase one drops redundant rows, so ``rows`` ends up independent
    rows, _ = _standardize(n, (Constraint(row, "==", rhs) for row, rhs in zip(a, b)))
    start = _phase_one(rows, n)

    m = len(start)
    first = tuple(sorted(start))
    seen: set[tuple[int, ...]] = {first}
    queue: deque[tuple[int, ...]] = deque([first])
    points: dict[tuple[Fraction, ...], None] = {}

    while queue:
        basis = queue.popleft()
        tab = _tableau_for_basis(rows, basis)
        if tab is None:
            continue
        points.setdefault(_basic_point(tab, basis, n))

        basic = set(basis)
        for j in range(n):
            if j in basic:
                continue
            best = None
            leave: list[int] = []
            for r in range(m):
                if tab[r][j] > 0:
                    ratio = tab[r][-1] / tab[r][j]
                    if best is None or ratio < best:
                        best = ratio
                        leave = [r]
                    elif ratio == best:
                        leave.append(r)
            if best is None:
                continue  # unbounded edge; irrelevant for bounded polytopes
            for r in leave:
                nb = tuple(sorted(basic - {basis[r]} | {j}))
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        raise CapExceededError(f"more than {cap} feasible bases")
                    queue.append(nb)
    return sorted(points)
