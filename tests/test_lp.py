"""Exact rational simplex and vertex enumeration."""

import importlib.util
import itertools
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest
from conftest import solve_affine_system

from credalchoice import lp
from credalchoice.errors import CapExceededError, InfeasibleError, UnboundedError
from credalchoice.lp import Constraint, FeasibleSystem, LPSolution, enumerate_vertices_eq
from credalchoice.ranking import (
    counts_from_rankings,
    parse_rankings,
    permutation_polytope,
    report_from_marginals,
    smooth_marginals,
)

F = Fraction


def test_one_dimensional_box():
    cons = [
        Constraint((F(1),), "<=", F(7, 10)),
        Constraint((F(1),), ">=", F(1, 2)),
    ]
    assert FeasibleSystem(1, cons).solve((F(1),), maximize=True).value == F(7, 10)
    assert FeasibleSystem(1, cons).solve((F(1),), maximize=False).value == F(1, 2)


def test_solution_point_attains_value():
    cons = [
        Constraint((F(1), F(1)), "<=", F(1)),
        Constraint((F(1), F(-1)), "<=", F(0)),
    ]
    sol = FeasibleSystem(2, cons).solve((F(2), F(1)), maximize=True)
    assert sum(c * x for c, x in zip((F(2), F(1)), sol.point)) == sol.value
    assert sol.value == F(3, 2)


def test_infeasible_detected():
    cons = [
        Constraint((F(1),), "<=", F(1, 3)),
        Constraint((F(1),), ">=", F(2, 3)),
    ]
    with pytest.raises(InfeasibleError):
        FeasibleSystem(1, cons).solve((F(1),))


def test_unbounded_detected():
    cons = [Constraint((F(-1), F(1)), "<=", F(1))]
    with pytest.raises(UnboundedError):
        FeasibleSystem(2, cons).solve((F(1), F(0)), maximize=True)


def test_equality_constraints():
    cons = [Constraint((F(1), F(1)), "==", F(1))]
    sol = FeasibleSystem(2, cons).solve((F(1), F(0)), maximize=True)
    assert sol.value == F(1)
    assert sol.point == (F(1), F(0))


def test_feasible_point_satisfies_constraints():
    cons = [
        Constraint((F(1), F(1), F(1)), "==", F(1)),
        Constraint((F(1), F(0), F(0)), ">=", F(1, 4)),
    ]
    pt = FeasibleSystem(3, cons).point
    assert sum(pt) == F(1)
    assert pt[0] >= F(1, 4)
    assert all(x >= 0 for x in pt)


def test_feasible_point_infeasible_system():
    cons = [
        Constraint((F(1), F(1)), "==", F(1)),
        Constraint((F(1), F(0)), ">=", F(2)),
    ]
    with pytest.raises(InfeasibleError):
        FeasibleSystem(2, cons)


def urn_joint_constraints() -> tuple[list[tuple[Fraction, ...]], list[Fraction]]:
    """Equality system for a 3x3 joint with the urn marginals.

    Variables p[i][j] (row-major): row sums [0.6, 0.3, 0.1] over the
    first draw, column sums [0.2, 0.35, 0.45] over the second.
    """
    rows = []
    rhs = []
    row_marg = [F(3, 5), F(3, 10), F(1, 10)]
    col_marg = [F(1, 5), F(7, 20), F(9, 20)]
    for i in range(3):
        coeffs = [F(0)] * 9
        for j in range(3):
            coeffs[3 * i + j] = F(1)
        rows.append(tuple(coeffs))
        rhs.append(row_marg[i])
    for j in range(3):
        coeffs = [F(0)] * 9
        for i in range(3):
            coeffs[3 * i + j] = F(1)
        rows.append(tuple(coeffs))
        rhs.append(col_marg[j])
    return rows, rhs


def test_urn_joint_lp_bounds():
    rows, rhs = urn_joint_constraints()
    cons = [Constraint(r, "==", b) for r, b in zip(rows, rhs)]
    # mass on cells with first draw not green (row 1) and second not red (col 0)
    objective = tuple(
        F(1) if (i != 1 and j != 0) else F(0) for i in range(3) for j in range(3)
    )
    lo = FeasibleSystem(9, cons).solve(objective, maximize=False).value
    hi = FeasibleSystem(9, cons).solve(objective, maximize=True).value
    assert (lo, hi) == (F(1, 2), F(7, 10))


def equality_system(rows, rhs) -> FeasibleSystem:
    """``{x >= 0 : Ax = b}`` brought to a feasible basis."""
    return FeasibleSystem(len(rows[0]), [Constraint(r, "==", b) for r, b in zip(rows, rhs)])


def test_urn_joint_vertices_bracket_lp():
    rows, rhs = urn_joint_constraints()
    verts = enumerate_vertices_eq(equality_system(rows, rhs))
    objective = tuple(
        F(1) if (i != 1 and j != 0) else F(0) for i in range(3) for j in range(3)
    )
    values = [sum(c * x for c, x in zip(objective, v)) for v in verts]
    assert min(values) == F(1, 2)
    assert max(values) == F(7, 10)


def test_vertex_enumeration_on_unit_simplex():
    rows = [(F(1), F(1), F(1))]
    rhs = [F(1)]
    verts = enumerate_vertices_eq(equality_system(rows, rhs))
    assert sorted(verts) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_vertex_enumeration_point_polytope():
    rows = [(F(1), F(0)), (F(0), F(1))]
    rhs = [F(1, 3), F(2, 3)]
    assert enumerate_vertices_eq(equality_system(rows, rhs)) == [(F(1, 3), F(2, 3))]


def test_vertex_enumeration_infeasible():
    rows = [(F(1), F(1)), (F(1), F(1))]
    rhs = [F(1), F(2)]
    with pytest.raises(InfeasibleError):
        enumerate_vertices_eq(equality_system(rows, rhs))


def test_vertex_enumeration_redundant_rows():
    rows = [(F(1), F(1)), (F(2), F(2))]
    rhs = [F(1), F(2)]
    verts = enumerate_vertices_eq(equality_system(rows, rhs))
    assert sorted(verts) == [(F(0), F(1)), (F(1), F(0))]


def test_vertex_cap():
    system = equality_system([(F(1),) * 6], [F(1)])
    with pytest.raises(CapExceededError):
        enumerate_vertices_eq(system, cap=3)
    # the simplex has exactly 6 feasible bases, one per unit vertex: the cap counts visited bases
    assert enumerate_vertices_eq(system, cap=6) == sorted(tuple(F(int(i == j)) for j in range(6)) for i in range(6))
    with pytest.raises(CapExceededError, match="more than 5 feasible bases"):
        enumerate_vertices_eq(system, cap=5)


def random_transportation(rng: random.Random, m: int, n: int):
    """Random transportation polytope with rational margins summing to 1."""
    def random_margin(k: int) -> list[Fraction]:
        cuts = sorted(rng.randrange(1, 20) for _ in range(k - 1))
        weights = [F(rng.randrange(1, 10)) for _ in range(k)]
        total = sum(weights)
        return [w / total for w in weights]

    row_marg = random_margin(m)
    col_marg = random_margin(n)
    rows, rhs = [], []
    for i in range(m):
        coeffs = [F(0)] * (m * n)
        for j in range(n):
            coeffs[n * i + j] = F(1)
        rows.append(tuple(coeffs))
        rhs.append(row_marg[i])
    for j in range(n):
        coeffs = [F(0)] * (m * n)
        for i in range(m):
            coeffs[n * i + j] = F(1)
        rows.append(tuple(coeffs))
        rhs.append(col_marg[j])
    return rows, rhs


def test_lp_matches_vertex_brute_force_on_random_transportation():
    rng = random.Random(31)
    for trial in range(25):
        m = rng.randrange(2, 4)
        n = rng.randrange(2, 4)
        rows, rhs = random_transportation(rng, m, n)
        cons = [Constraint(r, "==", b) for r, b in zip(rows, rhs)]
        # one phase one serves the vertex walk and every objective, minimized and maximized in turn
        system = FeasibleSystem(m * n, cons)
        verts = enumerate_vertices_eq(system)
        for _ in range(3):
            objective = tuple(F(rng.randrange(-5, 6)) for _ in range(m * n))
            values = [sum(c * x for c, x in zip(objective, v)) for v in verts]
            senses = [(False, min(values)), (True, max(values))]
            if rng.random() < 0.5:
                senses.reverse()
            for maximize, best in senses:
                sol = system.solve(objective, maximize=maximize)
                assert sol == FeasibleSystem(m * n, cons).solve(objective, maximize=maximize), f"trial {trial}"
                assert sol.value == best, f"trial {trial}"


def test_feasible_system_point_and_objective_length():
    cons = [Constraint((F(1), F(1), F(1)), "==", F(1))]
    system = FeasibleSystem(3, cons)
    assert system.point == FeasibleSystem(3, cons).point
    assert sum(system.point) == F(1) and all(x >= 0 for x in system.point)
    with pytest.raises(ValueError):
        system.solve((F(1), F(1)))


def test_vertices_satisfy_their_system():
    rng = random.Random(5)
    rows, rhs = random_transportation(rng, 3, 3)
    for v in enumerate_vertices_eq(equality_system(rows, rhs)):
        assert all(x >= 0 for x in v)
        for r, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(r, v)) == b


# ---------------------------------------------------------------------------
# An oracle that shares nothing with the tableau: basic solutions by brute force.


def standard_form(n: int, cons) -> tuple[list[list[Fraction]], list[Fraction]]:
    """``{x >= 0 : Ax = b}`` with one slack column per inequality."""
    slacks = [i for i, c in enumerate(cons) if c.sense != "=="]
    a = []
    for i, c in enumerate(cons):
        row = list(c.coeffs) + [F(0)] * len(slacks)
        if c.sense != "==":
            row[n + slacks.index(i)] = F(1) if c.sense == "<=" else F(-1)
        a.append(row)
    return a, [c.rhs for c in cons]


def basic_feasible_solutions(a, b) -> list[list[Fraction]]:
    """Every ``x >= 0`` with ``Ax = b`` supported on linearly independent columns.

    Each column subset is solved by Gauss-Jordan elimination; the vertices
    of the polyhedron are among the results, and there is one exactly when
    the polyhedron is non-empty.
    """
    ncols = len(a[0])
    out = []
    for size in range(min(len(a), ncols) + 1):
        for cols in itertools.combinations(range(ncols), size):
            try:
                pivots, free, aug = solve_affine_system([[row[j] for j in cols] for row in a], b)
            except ValueError:
                continue  # b is not in the span of these columns
            if free:
                continue  # dependent columns
            x = [F(0)] * ncols
            for k, j in enumerate(cols):
                x[j] = aug[k][-1]
            if all(v >= 0 for v in x):
                out.append(x)
    return out


def brute_force_min(a, b, costs) -> Fraction | None:
    """The least ``costs . x`` over the polyhedron, or None when it is unbounded below.

    The minimum is unbounded exactly when some extreme ray ``d`` of the
    recession cone (a basic solution of ``Ad = 0, sum d = 1``) has
    ``costs . d < 0``.
    """
    rays = basic_feasible_solutions(a + [[F(1)] * len(a[0])], [F(0)] * len(a) + [F(1)])
    if any(sum(c * v for c, v in zip(costs, d)) < 0 for d in rays):
        return None
    return min(sum(c * v for c, v in zip(costs, x)) for x in basic_feasible_solutions(a, b))


def satisfies_exactly(cons, x) -> bool:
    def holds(c):
        lhs = sum(v * w for v, w in zip(c.coeffs, x))
        return {"<=": lhs <= c.rhs, "==": lhs == c.rhs, ">=": lhs >= c.rhs}[c.sense]

    return all(v >= 0 for v in x) and all(holds(c) for c in cons)


def random_constraints(rng: random.Random, n: int) -> list[Constraint]:
    def value():
        return F(rng.randint(-4, 4), rng.choice([1, 2, 3])) if rng.random() < 0.7 else F(0)

    cons = [
        Constraint([value() for _ in range(n)], rng.choice(["<=", "==", ">="]), value())
        for _ in range(rng.randint(1, 4))
    ]
    if rng.random() < 0.3:  # a redundant copy of a row
        c = rng.choice(cons)
        cons.append(Constraint([2 * v for v in c.coeffs], c.sense, 2 * c.rhs))
    return cons


def test_lp_matches_basic_solution_brute_force_on_random_systems():
    rng = random.Random(2024)
    outcomes = {"infeasible": 0, "unbounded": 0, "optimum": 0}
    for trial in range(250):
        n = rng.randint(1, 3)
        cons = random_constraints(rng, n)
        a, b = standard_form(n, cons)
        if not basic_feasible_solutions(a, b):
            with pytest.raises(InfeasibleError):
                FeasibleSystem(n, cons)
            outcomes["infeasible"] += 1
            continue
        system = FeasibleSystem(n, cons)
        assert satisfies_exactly(cons, system.point), f"trial {trial}"
        for _ in range(3):
            objective = [F(rng.randint(-3, 3)) for _ in range(n)]
            maximize = rng.random() < 0.5
            costs = [-c if maximize else c for c in objective] + [F(0)] * (len(a[0]) - n)
            best = brute_force_min(a, b, costs)
            if best is None:
                with pytest.raises(UnboundedError):
                    system.solve(objective, maximize=maximize)
                outcomes["unbounded"] += 1
                continue
            sol = system.solve(objective, maximize=maximize)
            assert satisfies_exactly(cons, sol.point), f"trial {trial}"
            assert sol.value == sum(c * x for c, x in zip(objective, sol.point)), f"trial {trial}"
            assert sol.value == (-best if maximize else best), f"trial {trial}"
            outcomes["optimum"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_int_and_fraction_objectives_give_equal_solutions():
    rng = random.Random(77)
    solved = 0
    for trial in range(200):
        n = rng.randint(1, 3)
        try:
            system = FeasibleSystem(n, random_constraints(rng, n))
        except InfeasibleError:
            continue
        objective = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        den = math.lcm(*(c.denominator for c in objective))
        ints = [int(c * den) for c in objective]
        maximize = rng.random() < 0.5
        try:
            sol = system.solve(objective, maximize=maximize)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                system.solve(ints, maximize=maximize)
            continue
        # the same pivots: a scaled objective gives the same point and a scaled optimum
        assert system.solve(ints, maximize=maximize) == LPSolution(sol.value * den, sol.point), f"trial {trial}"
        assert system.solve([F(c) for c in ints], maximize=maximize) == system.solve(ints, maximize=maximize)
        assert sol.value == sum(c * x for c, x in zip(objective, sol.point)), f"trial {trial}"
        solved += 1
    assert solved >= 50, solved


def random_bounded_system(rng: random.Random, n: int) -> list[Constraint]:
    """A sum-to-one row plus random 0/+-1 rows, so the polyhedron is bounded.

    Right-hand sides come from a point of the simplex, so most systems are
    feasible; some are set to zero (degenerate vertices) or moved (often
    infeasible), and some rows come twice (redundant).
    """
    rows = [[F(1)] * n] + [[F(rng.choice((-1, 0, 0, 1))) for _ in range(n)] for _ in range(rng.randint(0, 3))]
    x = [F(rng.choice((0, 0, 1, 2, 3))) for _ in range(n)]
    x = [v / sum(x) for v in x] if any(x) else [F(1)] + [F(0)] * (n - 1)
    cons = [Constraint(rows[0], "==", F(1))]
    for row in rows[1:]:
        rhs = sum(c * v for c, v in zip(row, x))
        draw = rng.random()
        if draw < 0.2:
            rhs = F(0)
        elif draw < 0.3:
            rhs = F(rng.randint(-2, 3), rng.randint(1, 4))
        cons.append(Constraint(row, rng.choice(("==", "==", "<=", ">=")), rhs))
    if rng.random() < 0.3:
        c = rng.choice(cons)
        cons.append(Constraint([2 * v for v in c.coeffs], c.sense, 2 * c.rhs))
    return cons


def test_vertex_walk_matches_basic_solution_brute_force():
    rng = random.Random(11)
    outcomes = {"infeasible": 0, "one vertex": 0, "several vertices": 0, "with slacks": 0}
    for trial in range(150):
        n = rng.randint(2, 5)
        cons = random_bounded_system(rng, n)
        a, b = standard_form(n, cons)
        # the slacks are fixed by x, so the projected basic solutions are the vertices
        expected = sorted({tuple(x[:n]) for x in basic_feasible_solutions(a, b)})
        if not expected:
            with pytest.raises(InfeasibleError):
                enumerate_vertices_eq(FeasibleSystem(n, cons))
            outcomes["infeasible"] += 1
            continue
        assert enumerate_vertices_eq(FeasibleSystem(n, cons)) == expected, f"trial {trial}"
        outcomes["one vertex" if len(expected) == 1 else "several vertices"] += 1
        outcomes["with slacks"] += len(a[0]) > n
    assert min(outcomes.values()) >= 10, outcomes


# ---------------------------------------------------------------------------
# A reference that shares no code with the condensed integer tableau: a plain
# Fraction tableau over every column, artificial ones included, pivoting under
# the same Bland rule.  Points, optima and vertex lists must agree exactly.


class ReferenceUnbounded(Exception):
    pass


def reference_subtract(row, f, prow):
    """``row - f * prow``, skipping the zeros of ``prow``."""
    return [v - f * w if w else v for v, w in zip(row, prow)]


def reference_pivot(rows, obj, basis, r, c):
    rows[r] = [v / rows[r][c] for v in rows[r]]
    for i, row in enumerate(rows):
        if i != r and row[c]:
            rows[i] = reference_subtract(row, row[c], rows[r])
    if obj[c]:
        obj[:] = reference_subtract(obj, obj[c], rows[r])
    basis[r] = c


def reference_ratio_ties(rows, c):
    ratios = [(row[-1] / row[c], r) for r, row in enumerate(rows) if row[c] > 0]
    least = min(ratios, default=(None,))[0]
    return [r for q, r in ratios if q == least]


def reference_bland(rows, obj, basis):
    while True:
        enter = next((j for j, v in enumerate(obj[:-1]) if v < 0), None)
        if enter is None:
            return
        ties = reference_ratio_ties(rows, enter)
        if not ties:
            raise ReferenceUnbounded
        reference_pivot(rows, obj, basis, min(ties, key=basis.__getitem__), enter)


def reference_point(rows, basis, n):
    point = [F(0)] * n
    for row, b in zip(rows, basis):
        if b < n:
            point[b] = row[-1]
    return tuple(point)


def reference_phase_one(n, cons):
    """``(rows, basis, ncols)`` on a feasible basis of the standardized columns, or None when infeasible."""
    a, b = standard_form(n, cons)
    m, ncols = len(a), len(a[0])
    rows = [
        [-v if rhs < 0 else v for v in row] + [F(int(i == r)) for i in range(m)] + [abs(rhs)]
        for r, (row, rhs) in enumerate(zip(a, b))
    ]
    basis = [ncols + r for r in range(m)]
    obj = [-sum(col) for col in zip(*rows)]
    obj[ncols:ncols + m] = [F(0)] * m  # an artificial's cost, eliminated by its own row
    reference_bland(rows, obj, basis)
    if obj[-1] != 0:
        return None
    for r in range(m):
        if basis[r] >= ncols:
            col = next((j for j in range(ncols) if rows[r][j] != 0), None)
            if col is not None:
                reference_pivot(rows, obj, basis, r, col)
    keep = [r for r in range(m) if basis[r] < ncols]
    return [rows[r][:ncols] + rows[r][-1:] for r in keep], [basis[r] for r in keep], ncols


def reference_solve(tableau, n, objective, maximize):
    rows, basis, ncols = tableau
    rows, basis = list(rows), list(basis)
    obj = [-c if maximize else c for c in objective] + [F(0)] * (ncols - n + 1)
    for row, b in zip(rows, basis):
        obj = reference_subtract(obj, obj[b], row) if obj[b] else obj
    reference_bland(rows, obj, basis)
    point = reference_point(rows, basis, n)
    return LPSolution(sum(c * x for c, x in zip(objective, point)), point)


def reference_vertices(tableau, n, cap):
    """Breadth first over feasible bases, each re-eliminated from the phase-one rows."""
    rows0, basis0, ncols = tableau
    first = tuple(sorted(basis0))
    seen, queue, points = {first}, [first], set()
    for basis in queue:
        rows = list(rows0)
        for k, col in enumerate(basis):
            src = next(r for r in range(k, len(rows)) if rows[r][col] != 0)
            rows[k], rows[src] = rows[src], rows[k]
            reference_pivot(rows, [F(0)] * (ncols + 1), list(basis), k, col)
        points.add(reference_point(rows, basis, n))
        for j in range(ncols):
            for r in reference_ratio_ties(rows, j) if j not in basis else []:
                nb = tuple(sorted(set(basis) - {basis[r]} | {j}))
                if nb not in seen:
                    seen.add(nb)
                    if len(seen) > cap:
                        raise CapExceededError("cap")
                    queue.append(nb)
    return sorted(points)


def degenerate_system(rng: random.Random, n: int) -> list[Constraint]:
    """Sparse 0/1 rows whose right-hand sides come from a point of small support.

    Like a marginal polytope, most vertices are degenerate, so ratio ties
    and Bland's tie-breaks decide the path; a sum-to-one row, when drawn,
    makes the polyhedron bounded.
    """
    support = rng.sample(range(n), rng.randint(1, 3))
    x = [F(rng.randint(1, 3)) if j in support else F(0) for j in range(n)]
    x = [v / sum(x) for v in x]
    rows = [[F(1)] * n] if rng.random() < 0.5 else []
    rows += [[F(int(rng.random() < 0.5)) for _ in range(n)] for _ in range(rng.randint(2, 5))]
    cons = [Constraint(row, rng.choice(("==", "==", "<=", ">=")), sum(c * v for c, v in zip(row, x))) for row in rows]
    if rng.random() < 0.3:
        c = rng.choice(cons)
        cons.append(Constraint([2 * v for v in c.coeffs], c.sense, 2 * c.rhs))
    return cons


def test_condensed_tableau_matches_fraction_reference():
    rng = random.Random(1968)
    outcomes = {"infeasible": 0, "unbounded": 0, "optimum": 0, "vertices": 0, "cap": 0}
    for trial in range(1200):
        kind = trial % 3
        if kind == 0:
            n = rng.randint(1, 4)
            cons = random_constraints(rng, n)
        elif kind == 1:
            n = rng.randint(2, 5)
            cons = random_bounded_system(rng, n)
        else:
            n = rng.randint(4, 8)
            cons = degenerate_system(rng, n)
        reference = reference_phase_one(n, cons)
        if reference is None:
            with pytest.raises(InfeasibleError):
                FeasibleSystem(n, cons)
            outcomes["infeasible"] += 1
            continue
        system = FeasibleSystem(n, cons)
        assert system.point == reference_point(reference[0], reference[1], n), f"trial {trial}"
        for _ in range(2):
            if kind == 2:  # 0/1 objectives, as for ranking pairs: optima are often attained on a whole face
                objective = [F(rng.randint(0, 1)) for _ in range(n)]
            else:
                objective = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            ends = []
            for maximize in (False, True):
                try:
                    expected = reference_solve(reference, n, objective, maximize)
                except ReferenceUnbounded:
                    with pytest.raises(UnboundedError):
                        system.solve(objective, maximize=maximize)
                    outcomes["unbounded"] += 1
                    continue
                assert system.solve(objective, maximize=maximize) == expected, f"trial {trial}"
                ends.append(expected.value)
                outcomes["optimum"] += 1
            if len(ends) == 2:  # both ends from one pricing
                assert system.bounds(objective) == tuple(ends), f"trial {trial}"
            else:
                with pytest.raises(UnboundedError):
                    system.bounds(objective)
        if kind and any(c.sense == "==" and set(c.coeffs) == {1} for c in cons):  # bounded: the walk applies
            cap = rng.choice([3, 10_000])
            try:
                expected = reference_vertices(reference, n, cap)
            except CapExceededError:
                with pytest.raises(CapExceededError):
                    enumerate_vertices_eq(system, cap=cap)
                outcomes["cap"] += 1
                continue
            assert enumerate_vertices_eq(system, cap=cap) == expected, f"trial {trial}"
            outcomes["vertices"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def reference_ends(reference, n, objective):
    """The reference minimum and maximum, or None when either is unbounded."""
    try:
        return tuple(reference_solve(reference, n, objective, maximize).value for maximize in (False, True))
    except ReferenceUnbounded:
        return None


def bounds_or_none(system, objective):
    try:
        return system.bounds(objective)
    except UnboundedError:
        return None


def test_warm_started_bounds_do_not_depend_on_the_order_of_objectives():
    rng = random.Random(1977)
    outcomes = {"unbounded": 0, "optimum": 0, "several kept bases": 0}
    for trial in range(150):
        if trial % 2:
            n = rng.randint(2, 5)
            cons = random_bounded_system(rng, n)
        else:
            n = rng.randint(4, 8)
            cons = degenerate_system(rng, n)
        reference = reference_phase_one(n, cons)
        if reference is None:
            continue
        objectives = [
            [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) if trial % 2 else F(rng.randint(0, 1)) for _ in range(n)]
            for _ in range(rng.randint(6, 9))
        ]
        expected = [reference_ends(reference, n, objective) for objective in objectives]
        forward, backward = FeasibleSystem(n, cons), FeasibleSystem(n, cons)
        in_order = [bounds_or_none(forward, objective) for objective in objectives]
        in_reverse = [bounds_or_none(backward, objective) for objective in reversed(objectives)][::-1]
        fresh = [bounds_or_none(FeasibleSystem(n, cons), objective) for objective in objectives]
        assert in_order == in_reverse == fresh == expected, f"trial {trial}"
        outcomes["unbounded"] += expected.count(None)
        outcomes["optimum"] += len(expected) - expected.count(None)
        outcomes["several kept bases"] += len(forward._pool) > 2  # later objectives had a choice of start
    assert min(outcomes.values()) >= 30, outcomes


def beale(box: bool, slacks_first: bool) -> tuple[int, list[Constraint], list[Fraction]]:
    """Beale's LP: min -3/4 x1 + 150 x2 - 1/50 x3 + 6 x4, optionally with the box row x1 + x2 + x3 + x4 <= 10.

    With ``slacks_first`` the slacks are explicit variables ahead of x, so
    phase one ends on the slack basis, from which the most negative
    reduced cost, taken at every step, cycles.
    """
    rows = [[F(1, 4), F(-60), F(-1, 25), F(9)], [F(1, 2), F(-90), F(-1, 50), F(3)], [F(0), F(0), F(1), F(0)]]
    rows += [[F(1)] * 4] * box
    rhs = [F(0), F(0), F(1)] + [F(10)] * box
    costs = [F(-3, 4), F(150), F(-1, 50), F(6)]
    if not slacks_first:
        return 4, [Constraint(row, "<=", b) for row, b in zip(rows, rhs)], costs
    m = len(rows)
    cons = [Constraint([F(int(i == r)) for i in range(m)] + row, "==", b) for r, (row, b) in enumerate(zip(rows, rhs))]
    return m + 4, cons, [F(0)] * m + costs


def test_beale_cycling_lp(monkeypatch):
    pivot, pivots = lp._Tableau.pivot, itertools.count()

    def limited_pivot(tab, r, k):
        assert next(pivots) < 1000, "cycling"
        pivot(tab, r, k)

    monkeypatch.setattr(lp._Tableau, "pivot", limited_pivot)
    for slacks_first in (False, True):
        n, cons, costs = beale(True, slacks_first)
        system = FeasibleSystem(n, cons)
        if slacks_first:
            assert system.point == (0, 0, 1, 10, 0, 0, 0, 0)  # the slack basis
        assert system.bounds(costs) == (F(-1, 20), F(1500)) == reference_ends(reference_phase_one(n, cons), n, costs)
        n, cons, costs = beale(False, slacks_first)
        with pytest.raises(UnboundedError):
            FeasibleSystem(n, cons).bounds(costs)
        assert FeasibleSystem(n, cons).solve(costs).value == F(-1, 20)


# ---------------------------------------------------------------------------
# Entry growth: rows are divided by their gcd only when their scale outgrows
# the pivot, which must keep the integers machine-sized on a real polytope.


def load_benchmark_generators():
    """``perfbench/gen.py``, loaded from its file so that the repository root need not be on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ranking_marginals(seed: int, n: int):
    text = load_benchmark_generators().rankings_text(seed, n=n, count=50)
    return smooth_marginals(counts_from_rankings(parse_rankings(text)))


def measure_pivots(monkeypatch) -> list[int]:
    """The bit width of the widest tableau entry after each pivot from now on, one entry per pivot."""
    pivot, widths = lp._Tableau.pivot, []

    def measured_pivot(tab, r, k):
        pivot(tab, r, k)
        widths.append(max(max(max(row), -min(row)).bit_length() for row in tab.rows + [tab.obj]))

    monkeypatch.setattr(lp._Tableau, "pivot", measured_pivot)
    return widths


def test_vertex_walk_takes_two_pivots_per_basis_within_64_bits_on_four_objects(monkeypatch):
    system = permutation_polytope(ranking_marginals(1, 4))[1].feasible_system()
    widths = measure_pivots(monkeypatch)
    vertices = enumerate_vertices_eq(system)
    # 8010 feasible bases: each of the 8009 reached from another takes one pivot out and one back
    assert len(vertices) == 4081
    assert len(widths) <= 2 * 8009 and max(widths) <= 64, (len(widths), max(widths))


def test_phase_one_entries_stay_within_64_bits_on_the_six_object_ranking_polytope(monkeypatch):
    polytope = permutation_polytope(ranking_marginals(1, 6))[1]
    widths = measure_pivots(monkeypatch)
    system = polytope.feasible_system()  # 720 permutation columns, 37 marginal rows
    assert len(widths) > 100 and max(widths) <= 64, (len(widths), max(widths))
    assert sum(system.point) == 1


def test_ranking_bounds_take_few_pivots_within_64_bits_on_six_objects(monkeypatch):
    marginals = ranking_marginals(1, 6)
    widths = measure_pivots(monkeypatch)
    report = report_from_marginals(marginals, backend="lp")
    # phase one and both ends of 15 pairs: 952 pivots warm-started by Dantzig's rule, 4375 by Bland's rule alone
    assert len(report.pairs) == 15
    assert len(widths) <= 1200 and max(widths) <= 64, (len(widths), max(widths))


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ranking_intervals_equal_bland_optima_from_the_phase_one_basis(seed):
    marginals = ranking_marginals(seed, 5)
    perms, polytope, _ = permutation_polytope(marginals)
    system = polytope.feasible_system()
    report = report_from_marginals(marginals, backend="lp")
    pairs = list(itertools.combinations(range(5), 2))
    assert [p.pair for p in report.pairs] == [(marginals.objects[i], marginals.objects[j]) for i, j in pairs]
    for outcome, (i, j) in zip(report.pairs, pairs):
        ahead = [int(pos[i] < pos[j]) for pos in perms]
        ends = system.solve(ahead).value, system.solve(ahead, maximize=True).value
        assert (outcome.interval.lower, outcome.interval.upper) == ends, (i, j)
