"""Exact integer simplex and vertex enumeration."""

import itertools
import math
import random
from fractions import Fraction
from typing import NamedTuple, Sequence

import pytest
from conftest import load_benchmark_generators, ranking_marginals, solve_affine_system, two_ranking_theory
from hypothesis import given, settings, strategies as st

from credalchoice import lp
from credalchoice.errors import CapExceededError, InfeasibleError, UnboundedError
from credalchoice.inference import marginal_polytope
from credalchoice.lp import FeasibleSystem, vertex_numerators
from credalchoice.ranking import permutation_polytope, report_from_marginals
from credalchoice.theory import parse_ccl
from credalchoice.worlds import build_world_space

F = Fraction


class Constraint(NamedTuple):
    """``coeffs . x  sense  rhs``, for ``sense`` one of ``<=``, ``==``, ``>=``: input to :func:`standard_form` only."""

    coeffs: Sequence[Fraction]
    sense: str
    rhs: Fraction


def standard_form(n: int, cons) -> tuple[list[list[Fraction]], list[Fraction]]:
    """``{x >= 0 : Ax = b}`` with one slack column per inequality, after ``x``, in the order of ``cons``."""
    slacks = [i for i, c in enumerate(cons) if c.sense != "=="]
    a = []
    for i, c in enumerate(cons):
        row = list(c.coeffs) + [F(0)] * len(slacks)
        if c.sense != "==":
            row[n + slacks.index(i)] = F(1) if c.sense == "<=" else F(-1)
        a.append(row)
    return a, [c.rhs for c in cons]


def integer_system(rows, rhs) -> tuple[list[list[int]], list[Fraction]]:
    """``rows`` and ``rhs`` times the lcm of the rows' denominators, so the rows are integers, as ``lp`` takes them.

    One positive factor common to every row leaves the phase-one objective, minus the rows' sum, weighing the rows
    as in fractions, so a ``Fraction`` tableau on the unscaled rows takes the same pivots.
    """
    den = math.lcm(*(F(v).denominator for row in rows for v in row))
    return [[int(v * den) for v in row] for row in rows], [b * den for b in rhs]


def feasible_system(n: int, cons) -> FeasibleSystem:
    """The system of ``cons`` over ``n`` variables, its inequalities given slack columns by :func:`standard_form`."""
    return FeasibleSystem(*integer_system(*standard_form(n, cons)))


# The integer forms read as ``Fraction``s, each denominator checked positive.  A system's columns past
# the first ``n`` are slacks: objectives cost them nothing, and points and vertices leave them out.


def fractions_over(nums, den) -> tuple[Fraction, ...]:
    assert den > 0 and all(isinstance(v, int) for v in (*nums, den))
    return tuple(F(v, den) for v in nums)


def padded(system, objective) -> list:
    """``objective`` with a zero cost for each of the system's columns past its own."""
    return [*objective] + [0] * (system.n - len(objective))


def point(system, n=None) -> tuple[Fraction, ...]:
    """The phase-one point, from ``point_numerators()``, on the first ``n`` columns (all by default)."""
    return fractions_over(*system.point_numerators())[:n]


def ends(system, objective) -> tuple[Fraction, Fraction]:
    """The least and greatest ``objective . x``, from ``bound_numerators`` on ``objective`` times its lcm denominator."""
    scale = math.lcm(*(F(c).denominator for c in objective))
    low, high, den = system.bound_numerators(padded(system, [int(c * scale) for c in objective]))
    return fractions_over((low, high), den * scale)


def vertices(system, n=None, **cap) -> list[tuple[Fraction, ...]]:
    """The sorted vertex list, from ``vertex_numerators``, on the first ``n`` columns (all by default).

    A slack is fixed by the other columns, so projecting drops no vertex and keeps the order.
    """
    nums, den = vertex_numerators(system, **cap)
    return [fractions_over(x, den)[:n] for x in nums]


def test_one_dimensional_box():
    cons = [
        Constraint((F(1),), "<=", F(7, 10)),
        Constraint((F(1),), ">=", F(1, 2)),
    ]
    assert ends(feasible_system(1, cons), (F(1),)) == (F(1, 2), F(7, 10))


def test_solution_point_attains_value():
    cons = [
        Constraint((F(1), F(1)), "<=", F(1)),
        Constraint((F(1), F(-1)), "<=", F(0)),
    ]
    objective = (F(2), F(1))
    values = {v: sum(c * x for c, x in zip(objective, v)) for v in vertices(feasible_system(2, cons), 2)}
    assert ends(feasible_system(2, cons), objective) == (F(0), F(3, 2)) == (min(values.values()), max(values.values()))
    assert [v for v, value in values.items() if value == F(3, 2)] == [(F(1, 2), F(1, 2))]


def test_infeasible_detected():
    cons = [
        Constraint((F(1),), "<=", F(1, 3)),
        Constraint((F(1),), ">=", F(2, 3)),
    ]
    with pytest.raises(InfeasibleError):
        feasible_system(1, cons)


def test_unbounded_detected():
    cons = [Constraint((F(-1), F(1)), "<=", F(1))]
    with pytest.raises(UnboundedError):
        ends(feasible_system(2, cons), (F(1), F(0)))


def test_equality_constraints():
    rows, rhs = [(F(1), F(1))], [F(1)]
    assert ends(FeasibleSystem(*integer_system(rows, rhs)), (F(1), F(0))) == (F(0), F(1))
    assert vertices(FeasibleSystem(*integer_system(rows, rhs))) == [(F(0), F(1)), (F(1), F(0))]


def test_rows_of_unequal_length_or_a_wrong_count_of_right_hand_sides_raise():
    for rows, rhs in [
        ([[1, 1], [1]], [1, 1]),  # rows of unequal length
        ([[1], [1, 1]], [1, 1]),
        ([[1, 1], [1, 0]], [1]),  # one rhs too few
        ([[1, 1]], [1, 0]),  # one too many
        ([], []),  # no row, so no column count
    ]:
        with pytest.raises(ValueError):
            FeasibleSystem(rows, rhs)


def test_a_fraction_row_or_objective_raises_a_type_error_naming_the_int_contract():
    with pytest.raises(TypeError, match="lp takes int rows and objectives") as exc:
        FeasibleSystem([[Fraction(1, 2), Fraction(1, 2)]], [1])
    assert isinstance(exc.value.__cause__, TypeError)
    system = FeasibleSystem([[1, 1, 1]], [1])
    for objective in ([Fraction(1, 2), 0, 1], [0, 1, Fraction(1, 2)], [Fraction(2), 0, 0]):
        with pytest.raises(TypeError, match="lp takes int rows and objectives"):
            system.bound_numerators(objective)
    assert system.bound_numerators([0, 1, 2]) == (0, 2, 1)
    every_column_basic = FeasibleSystem([[1, 0], [0, 1]], [1, Fraction(1, 3)])
    with pytest.raises(TypeError, match="lp takes int rows and objectives"):
        every_column_basic.bound_numerators([Fraction(1, 2), 1])
    assert every_column_basic.bound_numerators([3, 1]) == (10, 10, 3)


def test_feasible_point_satisfies_constraints():
    cons = [
        Constraint((F(1), F(1), F(1)), "==", F(1)),
        Constraint((F(1), F(0), F(0)), ">=", F(1, 4)),
    ]
    pt = point(feasible_system(3, cons), 3)
    assert sum(pt) == F(1)
    assert pt[0] >= F(1, 4)
    assert all(x >= 0 for x in pt)


def test_feasible_point_infeasible_system():
    cons = [
        Constraint((F(1), F(1)), "==", F(1)),
        Constraint((F(1), F(0)), ">=", F(2)),
    ]
    with pytest.raises(InfeasibleError):
        feasible_system(2, cons)


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
    # mass on cells with first draw not green (row 1) and second not red (col 0)
    objective = tuple(
        F(1) if (i != 1 and j != 0) else F(0) for i in range(3) for j in range(3)
    )
    assert ends(FeasibleSystem(*integer_system(rows, rhs)), objective) == (F(1, 2), F(7, 10))


def test_urn_joint_vertices_bracket_lp():
    rows, rhs = urn_joint_constraints()
    verts = vertices(FeasibleSystem(*integer_system(rows, rhs)))
    objective = tuple(
        F(1) if (i != 1 and j != 0) else F(0) for i in range(3) for j in range(3)
    )
    values = [sum(c * x for c, x in zip(objective, v)) for v in verts]
    assert min(values) == F(1, 2)
    assert max(values) == F(7, 10)


def test_vertex_enumeration_on_unit_simplex():
    rows = [(F(1), F(1), F(1))]
    rhs = [F(1)]
    assert vertices(FeasibleSystem(*integer_system(rows, rhs))) == [
        (F(0), F(0), F(1)),
        (F(0), F(1), F(0)),
        (F(1), F(0), F(0)),
    ]


def test_vertex_enumeration_point_polytope():
    rows = [(F(1), F(0)), (F(0), F(1))]
    rhs = [F(1, 3), F(2, 3)]
    assert vertex_numerators(FeasibleSystem(*integer_system(rows, rhs))) == ([[1, 2]], 3)


def test_vertex_enumeration_infeasible():
    rows = [(F(1), F(1)), (F(1), F(1))]
    rhs = [F(1), F(2)]
    with pytest.raises(InfeasibleError):
        FeasibleSystem(*integer_system(rows, rhs))


def test_vertex_enumeration_redundant_rows():
    rows = [(F(1), F(1)), (F(2), F(2))]
    rhs = [F(1), F(2)]
    assert vertices(FeasibleSystem(*integer_system(rows, rhs))) == [(F(0), F(1)), (F(1), F(0))]


def test_vertex_cap():
    system = FeasibleSystem(*integer_system([(F(1),) * 6], [F(1)]))
    with pytest.raises(CapExceededError):
        vertex_numerators(system, cap=3)
    # the simplex has exactly 6 feasible bases, one per unit vertex: the cap counts visited bases
    assert vertex_numerators(system, cap=6) == (sorted([int(i == j) for j in range(6)] for i in range(6)), 1)
    with pytest.raises(CapExceededError, match="more than 5 feasible bases"):
        vertex_numerators(system, cap=5)


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
        # one phase one serves the vertex walk and every objective, minimized and maximized in turn
        system = FeasibleSystem(*integer_system(rows, rhs))
        verts = vertices(system)
        for _ in range(3):
            objective = tuple(F(rng.randrange(-5, 6)) for _ in range(m * n))
            values = [sum(c * x for c, x in zip(objective, v)) for v in verts]
            expected = (min(values), max(values))
            assert ends(system, objective) == ends(FeasibleSystem(*integer_system(rows, rhs)), objective) == expected, f"trial {trial}"


def test_feasible_system_point_and_objective_length():
    rows, rhs = [(F(1), F(1), F(1))], [F(1)]
    system = FeasibleSystem(*integer_system(rows, rhs))
    assert system.point_numerators() == FeasibleSystem(*integer_system(rows, rhs)).point_numerators()
    assert sum(point(system)) == F(1) and all(x >= 0 for x in point(system))
    with pytest.raises(ValueError):
        system.bound_numerators((F(1), F(1)))


def test_vertices_satisfy_their_system():
    rng = random.Random(5)
    rows, rhs = random_transportation(rng, 3, 3)
    for v in vertices(FeasibleSystem(*integer_system(rows, rhs))):
        assert all(x >= 0 for x in v)
        for r, b in zip(rows, rhs):
            assert sum(c * x for c, x in zip(r, v)) == b


# ---------------------------------------------------------------------------
# An oracle that shares nothing with the tableau: basic solutions by brute force.


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
                feasible_system(n, cons)
            outcomes["infeasible"] += 1
            continue
        system = feasible_system(n, cons)
        assert satisfies_exactly(cons, point(system, n)), f"trial {trial}"
        for _ in range(3):
            objective = [F(rng.randint(-3, 3)) for _ in range(n)]
            slacks = [F(0)] * (len(a[0]) - n)
            low = brute_force_min(a, b, objective + slacks)
            high = brute_force_min(a, b, [-c for c in objective] + slacks)
            if low is None or high is None:
                with pytest.raises(UnboundedError):
                    ends(system, objective)
                outcomes["unbounded"] += 1
                continue
            assert ends(system, objective) == (low, -high), f"trial {trial}"
            outcomes["optimum"] += 1
    assert min(outcomes.values()) >= 20, outcomes


def test_an_integer_objective_and_a_positive_multiple_of_it_give_proportional_ends():
    rng = random.Random(77)
    solved = 0
    for trial in range(400):
        n = rng.randint(1, 3)
        cons = random_constraints(rng, n)
        try:
            system = feasible_system(n, cons)
        except InfeasibleError:
            continue
        objective = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
        den = math.lcm(*(c.denominator for c in objective))
        ints = [int(c * den) for c in objective]  # the integer objective
        multiple = [(den + 1) * c for c in ints]  # a positive multiple of it, never the objective itself
        try:
            low, high = ends(system, ints)
        except UnboundedError:
            with pytest.raises(UnboundedError):
                ends(feasible_system(n, cons), multiple)
            continue
        # a positive factor on the costs moves no pivot from a fresh system: the same denominator, numerators that factor times
        low_num, high_num, over = feasible_system(n, cons).bound_numerators(padded(system, ints))
        assert feasible_system(n, cons).bound_numerators(padded(system, multiple)) == (
            (den + 1) * low_num, (den + 1) * high_num, over), f"trial {trial}"
        assert ends(system, multiple) == ((den + 1) * low, (den + 1) * high), f"trial {trial}"
        assert ends(system, objective) == (low / den, high / den), f"trial {trial}"
        assert low / den <= sum(c * x for c, x in zip(objective, point(system, n))) <= high / den, f"trial {trial}"
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
                feasible_system(n, cons)
            outcomes["infeasible"] += 1
            continue
        assert vertices(feasible_system(n, cons), n) == expected, f"trial {trial}"
        outcomes["one vertex" if len(expected) == 1 else "several vertices"] += 1
        outcomes["with slacks"] += len(a[0]) > n
    assert min(outcomes.values()) >= 10, outcomes


# ---------------------------------------------------------------------------
# A reference that shares no code with the condensed integer tableau: a plain
# Fraction tableau over every column, artificial ones included, pivoting under
# Bland's rule.  Points, optima and vertex lists must agree exactly.


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


def reference_optimum(tableau, n, objective, maximize):
    """The optimum by Bland's rule from the phase-one basis; :class:`ReferenceUnbounded` if there is none."""
    rows, basis, ncols = tableau
    rows, basis = list(rows), list(basis)
    obj = [-c if maximize else c for c in objective] + [F(0)] * (ncols - n + 1)
    for row, b in zip(rows, basis):
        obj = reference_subtract(obj, obj[b], row) if obj[b] else obj
    reference_bland(rows, obj, basis)
    return sum(c * x for c, x in zip(objective, reference_point(rows, basis, n)))


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
                feasible_system(n, cons)
            outcomes["infeasible"] += 1
            continue
        system = feasible_system(n, cons)
        assert point(system, n) == reference_point(reference[0], reference[1], n), f"trial {trial}"
        for _ in range(2):
            if kind == 2:  # 0/1 objectives, as for ranking pairs: optima are often attained on a whole face
                objective = [F(rng.randint(0, 1)) for _ in range(n)]
            else:
                objective = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            expected = []
            for maximize in (False, True):
                try:
                    expected.append(reference_optimum(reference, n, objective, maximize))
                    outcomes["optimum"] += 1
                except ReferenceUnbounded:
                    outcomes["unbounded"] += 1
            if len(expected) == 2:  # both ends from one pricing
                assert ends(system, objective) == tuple(expected), f"trial {trial}"
            else:
                with pytest.raises(UnboundedError):
                    ends(system, objective)
        if kind and any(c.sense == "==" and set(c.coeffs) == {1} for c in cons):  # bounded: the walk applies
            cap = rng.choice([3, 10_000])
            try:
                expected = reference_vertices(reference, n, cap)
            except CapExceededError:
                with pytest.raises(CapExceededError):
                    vertex_numerators(system, cap=cap)
                outcomes["cap"] += 1
                continue
            assert vertices(system, n, cap=cap) == expected, f"trial {trial}"
            outcomes["vertices"] += 1
    assert min(outcomes.values()) >= 30, outcomes


def walk_by_variable(system: FeasibleSystem) -> tuple[list[list[int]], int, int]:
    """The vertex walk with each basis's moves ordered by entering variable, then by row: ``vertex_numerators``'s
    walk before it scanned them by tableau position.  Returns its vertices, their denominator and the bases seen."""
    n, scale = system.n, system._scale
    tab = system._tab.copy([0] * len(system._tab.cols))
    seen, points, back = {tuple(sorted(tab.basis))}, set(), []
    var = row = -1  # the scan resumes past the move of variable ``var`` entering at ``row``
    while True:
        if var < 0:
            x = dict(zip(tab.basis, tab.valued().values))
            big = tab.big * scale
            g = math.gcd(big, *x.values())
            points.add((big // g, *(x.get(j, 0) // g for j in range(n))))
        moves = ((r, k) for k in sorted(range(len(tab.cols)), key=tab.cols.__getitem__) if tab.cols[k] >= var
                 for r in lp._min_ratio_rows(tab.rows, k) if tab.cols[k] > var or r > row)
        for r, k in moves:
            basis = tuple(sorted(tab.basis[:r] + tab.basis[r + 1:] + [tab.cols[k]]))
            if basis not in seen:
                seen.add(basis)
                tab.pivot(r, k)
                back.append((r, k))
                var = row = -1
                break
        else:
            if not back:
                den = math.lcm(*(p[0] for p in points))
                return sorted([v * (den // p[0]) for v in p[1:]] for p in points), den, len(seen)
            row, k = back.pop()
            tab.pivot(row, k)
            var = tab.cols[k]


def test_vertex_walk_by_position_keeps_the_walk_by_variable(monkeypatch):
    rng = random.Random(1962)
    systems = []
    for trial in range(300):  # the random systems of the tests above, bounded and feasible
        if trial % 3 == 0:
            systems.append(FeasibleSystem(*integer_system(*random_transportation(rng, rng.randint(2, 3), rng.randint(2, 3)))))
            continue
        n = rng.randint(2, 5) if trial % 3 == 1 else rng.randint(4, 8)
        cons = random_bounded_system(rng, n) if trial % 3 == 1 else degenerate_system(rng, n)
        if any(c.sense == "==" and set(c.coeffs) == {1} for c in cons):
            try:
                systems.append(feasible_system(n, cons))
            except InfeasibleError:
                pass
    t, _ = two_ranking_theory()  # two ranking spaces: 8010 feasible bases and 4081 vertices, 6804 and 4111
    ws = build_world_space(t)
    systems += [marginal_polytope(ws, i).feasible_system() for i in range(2)]
    pivots = []
    monkeypatch.setattr(lp._Tableau, "pivot", lambda tab, r, k, pivot=lp._Tableau.pivot: pivots.append(pivot(tab, r, k)))
    capped, walked = 0, []
    for i, system in enumerate(systems):
        nums, den, bases = walk_by_variable(system)
        walked.append((bases, len(nums)))
        del pivots[:]
        assert vertex_numerators(system, cap=bases) == (nums, den), f"system {i}"
        assert len(pivots) == 2 * (bases - 1), f"system {i}"  # one pivot out of and one back into every basis but the first
        if bases > 1:  # a one-basis walk adds no basis, so no cap stops it
            with pytest.raises(CapExceededError, match=f"more than {bases - 1} feasible bases"):
                vertex_numerators(system, cap=bases - 1)
            capped += 1
    assert len(systems) >= 200 and capped >= 100, (len(systems), capped)
    assert walked[-2:] == [(8010, 4081), (6804, 4111)]


def reference_ends(reference, n, objective):
    """The reference minimum and maximum, or None when either is unbounded."""
    try:
        return tuple(reference_optimum(reference, n, objective, maximize) for maximize in (False, True))
    except ReferenceUnbounded:
        return None


def bounds_or_none(system, objective):
    try:
        return ends(system, objective)
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
        forward, backward = feasible_system(n, cons), feasible_system(n, cons)
        in_order = [bounds_or_none(forward, objective) for objective in objectives]
        in_reverse = [bounds_or_none(backward, objective) for objective in reversed(objectives)][::-1]
        fresh = [bounds_or_none(feasible_system(n, cons), objective) for objective in objectives]
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
        system = feasible_system(n, cons)
        if slacks_first:
            assert point(system) == (0, 0, 1, 10, 0, 0, 0, 0)  # the slack basis
        assert ends(system, costs) == (F(-1, 20), F(1500)) == reference_ends(reference_phase_one(n, cons), n, costs)
        n, cons, costs = beale(False, slacks_first)
        with pytest.raises(UnboundedError):  # the least end, -1/20, is reached without cycling first
            ends(feasible_system(n, cons), costs)


# ---------------------------------------------------------------------------
# The row combine: pivots replace rows, and tableau copies share them, so a
# combine must build a fresh row, on its fast unit path as on the others.

ENTRIES = st.integers(-(10**20), 10**20)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(st.just(1), st.integers(1, 10**6)),
    st.lists(st.tuples(ENTRIES, ENTRIES), max_size=12),
    st.one_of(st.sampled_from([1, -1]), st.integers(-(10**6), 10**6).filter(bool)),
    st.lists(ENTRIES, max_size=2),
)
def test_combine_is_a_fresh_row_times_a_minus_prow_times_b(a, pairs, b, tail):
    # ``prow`` may run past ``row``, as the pivot row runs past the objective
    row, prow = [v for v, _ in pairs], [w for _, w in pairs] + tail
    new = lp._combine(a, row, b, prow)
    assert new == [a * v - b * w for v, w in zip(row, prow)]
    assert new is not row and new is not prow


def copy_isolation_systems() -> list[tuple[FeasibleSystem, list[list[int]]]]:
    """Seeded n = 4 ranking polytopes and a four-space theory's class-mass systems, each with integer objectives."""
    gen, rng = load_benchmark_generators(), random.Random(1968)
    cases = []
    for seed in (1, 2, 3):
        perms, polytope, _ = permutation_polytope(ranking_marginals(seed, 4))
        ahead = [[int(pos[i] < pos[j]) for pos in perms] for i, j in itertools.combinations(range(4), 2)]
        cases.append((polytope.feasible_system(), ahead + [[rng.randint(-3, 3) for _ in perms] for _ in range(6)]))
    ws = build_world_space(parse_ccl(gen.multi_space_ccl(1, spaces=4, derived=20, vertices=4)).theory)
    for i in range(len(ws.selections)):
        system = marginal_polytope(ws, i).feasible_system()
        cases.append((system, [[rng.randint(-3, 3) for _ in range(system.n)] for _ in range(8)]))
    return cases


def test_bounds_and_the_vertex_walk_edit_no_kept_tableau():
    cases, pools = copy_isolation_systems(), 0
    for trial, (system, objectives) in enumerate(cases):
        point_before = system.point_numerators()
        kept = {}  # every tableau the system has kept, by identity, with its rows as first seen

        def check_and_keep():
            for tab in system._pool.values():
                rows = kept.setdefault(id(tab), (tab, [row[:] for row in tab.rows]))[1]
                assert tab.rows == rows, f"system {trial}"

        check_and_keep()
        for objective in objectives:
            system.bound_numerators(objective)
            check_and_keep()
        vertex_numerators(system)
        check_and_keep()
        assert system.point_numerators() == point_before, f"system {trial}"
        assert kept[id(system._tab)][0] is system._tab  # the phase-one tableau, checked with the rest
        pools += len(kept)
    assert pools > len(cases), "some end must keep a tableau of its own"


# ---------------------------------------------------------------------------
# Entry growth: rows are divided by their gcd only when their scale outgrows
# the pivot, which must keep the integers machine-sized on a real polytope.


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
    points, _ = vertex_numerators(system)
    # 8010 feasible bases: each of the 8009 reached from another takes one pivot out and one back
    assert len(points) == 4081
    assert len(widths) <= 2 * 8009 and max(widths) <= 64, (len(widths), max(widths))


def test_phase_one_entries_stay_within_10_bits_on_the_six_object_ranking_polytope(monkeypatch):
    # the right-hand sides' denominators (lcm 208) scale the variables, not the 0/1 rows, so no pivot carries them;
    # scaling the rows by them instead took the widest entry to 21 bits
    polytope = permutation_polytope(ranking_marginals(1, 6))[1]
    widths = measure_pivots(monkeypatch)
    system = polytope.feasible_system()  # 720 permutation columns, 37 marginal rows
    assert len(widths) > 100 and max(widths) <= 10, (len(widths), max(widths))
    nums, den = system.point_numerators()
    assert sum(nums) == den


def test_ranking_bounds_take_few_pivots_within_64_bits_on_six_objects(monkeypatch):
    marginals = ranking_marginals(1, 6)
    widths = measure_pivots(monkeypatch)
    report = report_from_marginals(marginals, backend="lp")
    # phase one on the 26 independent marginal rows and both ends of 15 pairs: 1000 pivots warm-started by Dantzig's
    # rule (952 on all 37 rows), 5147 by Bland's rule alone from the phase-one basis
    assert len(report.pairs) == 15
    assert len(widths) <= 1200 and max(widths) <= 64, (len(widths), max(widths))


def fraction_equalities(rows, rhs) -> list[Constraint]:
    """The equality system as constraints with ``Fraction`` coefficients: the reference divides with ``/``."""
    return [Constraint([F(v) for v in row], "==", b) for row, b in zip(rows, rhs)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_ranking_intervals_equal_bland_optima_from_the_phase_one_basis(seed):
    marginals = ranking_marginals(seed, 5)
    perms, polytope, _ = permutation_polytope(marginals)
    reference = reference_phase_one(polytope.n_classes, fraction_equalities(polytope.rows, polytope.rhs))
    report = report_from_marginals(marginals, backend="lp")
    pairs = list(itertools.combinations(range(5), 2))
    assert [p.pair for p in report.pairs] == [(marginals.objects[i], marginals.objects[j]) for i, j in pairs]
    for outcome, (i, j) in zip(report.pairs, pairs):
        ahead = [F(int(pos[i] < pos[j])) for pos in perms]
        expected = reference_ends(reference, polytope.n_classes, ahead)
        assert (outcome.interval.lower, outcome.interval.upper) == expected, (i, j)


# ---------------------------------------------------------------------------
# The pivot path on the benchmark's shapes: the psat bracket starts at the
# phase-one point, so phase one must take exactly the reference's pivots.


def workload_systems() -> list[tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...]]]:
    """The class-mass systems of the benchmark's one-space theories and of each space of its four-space theories, and ranking polytopes at n = 3 and 4."""
    gen = load_benchmark_generators()
    texts = [gen.one_space_ccl(seed, worlds=24, atoms=9, derived=7) for seed in range(6)]
    texts += [gen.multi_space_ccl(seed, spaces=4, derived=20, vertices=4) for seed in range(2)]
    polytopes = []
    for text in texts:
        ws = build_world_space(parse_ccl(text).theory)
        polytopes += [marginal_polytope(ws, i) for i in range(len(ws.selections))]
    polytopes += [permutation_polytope(ranking_marginals(seed, n))[1] for n in (3, 4) for seed in (1, 2, 3)]
    return [(p.rows, p.rhs) for p in polytopes]


def log_pivots(monkeypatch) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    """Every pivot from now on, by its row and entering variable: the integer tableau's, and the reference's."""
    pivot, fraction_pivot, taken, expected = lp._Tableau.pivot, reference_pivot, [], []

    def logged_pivot(tab, r, k):
        taken.append((r, tab.cols[k]))
        assert len(taken) < 1000, "cycling"
        pivot(tab, r, k)

    def logged_reference_pivot(rows, obj, basis, r, c):
        expected.append((r, c))
        fraction_pivot(rows, obj, basis, r, c)

    monkeypatch.setattr(lp._Tableau, "pivot", logged_pivot)
    monkeypatch.setitem(globals(), "reference_pivot", logged_reference_pivot)
    return taken, expected


def test_phase_one_takes_the_reference_pivots_on_workload_shaped_systems(monkeypatch):
    taken, expected = log_pivots(monkeypatch)
    systems = workload_systems()
    total = 0
    for trial, (a, b) in enumerate(systems):
        taken.clear()
        expected.clear()
        system = FeasibleSystem(a, b)
        n = len(a[0])
        rows, basis, _ = reference_phase_one(n, fraction_equalities(a, b))
        # every pivot, by its row and entering variable: the count and each Bland decision
        assert taken == expected, f"system {trial}"
        assert point(system) == reference_point(rows, basis, n), f"system {trial}"
        assert sorted(system._tab.basis) == sorted(basis), f"system {trial}"
        total += len(taken)
    assert (len(systems), total) == (20, 183)


def test_warm_started_bounds_keep_their_pivot_count_on_ranking_polytopes(monkeypatch):
    widths = measure_pivots(monkeypatch)
    for n in (3, 4, 5):
        for seed in (1, 2, 3):
            report_from_marginals(ranking_marginals(seed, n), backend="lp")
    # phase one on the independent marginal rows and both ends of every pair, by Bland's and Dantzig's rules: a
    # count pinned so that no change to the pivot loop moves a decision unnoticed
    assert len(widths) == 565


def fraction_row_system(rng: random.Random, n: int) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Equality rows with signed ``Fraction`` coefficients, and right-hand sides over other denominators.

    The right-hand sides come from a point of small support whose
    denominators are 7 and 11, so some are negative or zero; a sum-to-one
    row, when drawn, makes the polytope bounded, and a shifted rhs, when
    drawn, usually makes the system infeasible.
    """
    support = rng.sample(range(n), rng.randint(1, 3))
    x = [F(rng.randint(1, 4), rng.choice([1, 7, 11])) if j in support else F(0) for j in range(n)]
    rows = [[F(1)] * n] if rng.random() < 0.5 else []
    rows += [
        [F(rng.randint(-3, 3), rng.choice([1, 2, 3, 5])) if rng.random() < 0.6 else F(0) for _ in range(n)]
        for _ in range(rng.randint(2, 4))
    ]
    rhs = [sum(c * v for c, v in zip(row, x)) for row in rows]
    if rng.random() < 0.15:
        rhs[rng.randrange(len(rhs))] += F(1, 3)
    return rows, rhs


def test_phase_one_takes_the_reference_pivots_on_fraction_rows(monkeypatch):
    taken, expected = log_pivots(monkeypatch)
    rng = random.Random(1988)
    outcomes = {"infeasible": 0, "negative rhs": 0, "zero rhs": 0, "row denominators": 0, "optimum": 0, "unbounded": 0}
    for trial in range(300):
        n = rng.randint(3, 7)
        a, b = fraction_row_system(rng, n)
        taken.clear()
        expected.clear()
        reference = reference_phase_one(n, fraction_equalities(a, b))
        if reference is None:
            with pytest.raises(InfeasibleError):
                FeasibleSystem(*integer_system(a, b))
            assert taken == expected, f"trial {trial}"
            outcomes["infeasible"] += 1
            continue
        system = FeasibleSystem(*integer_system(a, b))
        assert taken == expected, f"trial {trial}"
        assert point(system) == reference_point(*reference[:2], n), f"trial {trial}"
        for _ in range(2):
            objective = [F(rng.randint(-3, 3), rng.choice([1, 2, 3])) for _ in range(n)]
            bounds = reference_ends(reference, n, objective)
            assert bounds_or_none(system, objective) == bounds, f"trial {trial}"
            outcomes["optimum" if bounds else "unbounded"] += 1
        outcomes["negative rhs"] += any(v < 0 for v in b)
        outcomes["zero rhs"] += any(v == 0 for v in b)
        outcomes["row denominators"] += math.lcm(*(v.denominator for row in a for v in row)) > 1
    assert min(outcomes.values()) >= 20, outcomes
