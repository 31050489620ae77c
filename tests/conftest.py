import importlib.resources
import importlib.util
import math
import random
from fractions import Fraction
from pathlib import Path

import pytest

from credalchoice.logic import Clause, Literal, Program, atom
from credalchoice.ranking import counts_from_rankings, parse_rankings, smooth_marginals
from credalchoice.theory import Alternative, CCLTheory, ChoiceSpace, Query

# Filled in by the tests marked `acceptance`; rendered as one line per
# criterion in the terminal summary.
ACCEPTANCE_RESULTS: dict[int, tuple[str, str]] = {}


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "acceptance(n, title): records a pass/fail summary line for criterion n"
    )


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("acceptance")
    if marker is not None and rep.when == "call":
        n, title = marker.args
        status = "PASS" if rep.passed else ("SKIP" if rep.skipped else "FAIL")
        ACCEPTANCE_RESULTS[n] = (status, title)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for n in sorted(ACCEPTANCE_RESULTS):
        status, title = ACCEPTANCE_RESULTS[n]
        terminalreporter.write_line(f"criterion {n}: {status} - {title}")


@pytest.fixture(scope="session")
def data_dir():
    return importlib.resources.files("credalchoice") / "data"


def load_benchmark_generators():
    """``perfbench/gen.py``, loaded from its file so that the repository root need not be on ``sys.path``."""
    spec = importlib.util.spec_from_file_location("perfbench_gen", Path(__file__).resolve().parents[1] / "perfbench" / "gen.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def ranking_marginals(seed: int, n: int):
    """The smoothed marginals of the benchmark generator's 50 seeded rankings of ``n`` objects."""
    text = load_benchmark_generators().rankings_text(seed, n=n, count=50)
    return smooth_marginals(counts_from_rankings(parse_rankings(text)))


def random_masses(rng: random.Random, k: int) -> list[Fraction]:
    weights = [rng.randrange(1, 10) for _ in range(k)]
    total = sum(weights)
    return [Fraction(w, total) for w in weights]


def random_single_space_theory(
    rng: random.Random,
    max_alternatives: int = 4,
    max_atoms: int = 3,
    prefix: str = "c",
    class_cap: int = 16,
) -> CCLTheory:
    """A one-space theory with disjoint alternatives and random masses.

    The product of alternative sizes (the class count) is capped so that
    exact vertex enumeration stays affordable; 4-alternative and 3-atom
    shapes still occur, just not together at full size.
    """
    while True:
        n_alts = rng.randrange(1, max_alternatives + 1)
        sizes = [rng.randrange(1, max_atoms + 1) for _ in range(n_alts)]
        product = 1
        for s in sizes:
            product *= s
        if product <= class_cap:
            break
    alts = []
    mu = {}
    counter = 0
    for k in sizes:
        atoms_ = [atom(f"{prefix}{counter + i}") for i in range(k)]
        counter += k
        for a, p in zip(atoms_, random_masses(rng, k)):
            mu[a] = p
        alts.append(Alternative(tuple(atoms_)))
    return CCLTheory(Program(), (ChoiceSpace(tuple(alts)),), mu)


def random_low_dim_space(
    rng: random.Random, prefix: str, shapes: tuple[int, ...] = (0, 1, 2)
) -> tuple[ChoiceSpace, dict]:
    """A space whose marginal credal set has dimension at most one.

    Shape 0: a single alternative (point).  Shape 1: two disjoint binary
    alternatives (segment).  Shape 2: two binary alternatives sharing an
    atom (point again, by coherence).
    """
    shape = rng.choice(shapes)
    mu = {}
    if shape == 0:
        k = rng.randrange(2, 4)
        atoms_ = [atom(f"{prefix}{i}") for i in range(k)]
        for a, p in zip(atoms_, random_masses(rng, k)):
            mu[a] = p
        return ChoiceSpace((Alternative(tuple(atoms_)),)), mu
    if shape == 1:
        a, b, c, d = (atom(f"{prefix}{i}") for i in range(4))
        for x, p in zip([a, b], random_masses(rng, 2)):
            mu[x] = p
        for x, p in zip([c, d], random_masses(rng, 2)):
            mu[x] = p
        return ChoiceSpace((Alternative((a, b)), Alternative((c, d)))), mu
    a, b, c = (atom(f"{prefix}{i}") for i in range(3))
    pa = Fraction(rng.randrange(1, 9), 10)
    mu[a] = pa
    mu[b] = 1 - pa
    mu[c] = 1 - pa
    return ChoiceSpace((Alternative((a, b)), Alternative((a, c)))), mu


def random_two_space_theory(
    rng: random.Random, shapes: tuple[int, ...] = (0, 1, 2)
) -> CCLTheory:
    s1, mu1 = random_low_dim_space(rng, "x", shapes)
    s2, mu2 = random_low_dim_space(rng, "y", shapes)
    return CCLTheory(Program(), (s1, s2), {**mu1, **mu2})


# ---------------------------------------------------------------------------
# Independent oracles shared between module tests and the acceptance suite.


def random_acyclic_program(rng: random.Random, n_atoms: int):
    """A random ground program whose dependency edges all point downward."""
    from credalchoice.logic import GroundProgram

    atoms = [atom(f"a{i}") for i in range(n_atoms)]
    clauses = []
    for _ in range(rng.randrange(1, 2 * n_atoms)):
        head_idx = rng.randrange(1, n_atoms)
        head = atoms[head_idx]
        body = []
        for _ in range(rng.randrange(0, min(3, head_idx) + 1)):
            b = atoms[rng.randrange(0, head_idx)]
            body.append(Literal(b, rng.random() < 0.7))
        clauses.append(Clause(head, tuple(body)))
    return GroundProgram(tuple(clauses), frozenset(atoms))


def sweep_levels(gp):
    """The level mapping by sweeps: each sweep, over the pending atoms in sorted order, levels every atom whose
    dependencies all have levels by then, and a sweep that levels none hands the pending atoms to ``_find_cycle``.
    Quadratic on a chain whose sorted order runs against its dependencies; a reference for small programs.
    """
    from credalchoice.errors import CyclicityError
    from credalchoice.logic import _find_cycle

    deps = {a: set() for a in gp.herbrand_base}
    for cl in gp.clauses:
        deps[cl.head].update(l.atom for l in cl.body)
    levels = {}
    pending = sorted(gp.herbrand_base)
    while pending:
        progressed = False
        remaining = []
        for a in pending:
            if deps[a] <= levels.keys():
                levels[a] = 1 + max((levels[b] for b in deps[a]), default=0)
                progressed = True
            else:
                remaining.append(a)
        if not progressed:
            raise CyclicityError(_find_cycle(deps, remaining))
        pending = remaining
    return levels


def naive_stable_model(gp, facts):
    """Iterate the one-step consequence operator until it stabilizes.

    For acyclic programs at most |base| sweeps are needed, and negation
    as failure can be read off the previous sweep because every body
    atom sits strictly below its head.
    """
    true = set(facts)
    for _ in range(len(gp.herbrand_base) + 1):
        nxt = set(facts)
        for clause in gp.clauses:
            if all((l.atom in true) == l.positive for l in clause.body):
                nxt.add(clause.head)
        if nxt == true:
            break
        true = nxt
    return frozenset(true)


def solve_affine_system(rows, rhs):
    """Gauss-Jordan over Fractions.

    Returns (pivot columns, free columns, reduced augmented matrix).
    Raises ValueError on an inconsistent system.
    """
    m = len(rows)
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    pivots = []
    r = 0
    for c in range(n):
        pr = next((i for i in range(r, m) if aug[i][c] != 0), None)
        if pr is None:
            continue
        aug[r], aug[pr] = aug[pr], aug[r]
        pv = aug[r][c]
        aug[r] = [v / pv for v in aug[r]]
        for i in range(m):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == m:
            break
    for i in range(r, m):
        if aug[i][n] != 0:
            raise ValueError("inconsistent system")
    free = [c for c in range(n) if c not in pivots]
    return pivots, free, aug


def grid_members(rows, rhs, steps):
    """Grid sample of {x >= 0 : Ax = b} for solution sets of dimension <= 1.

    Returns every grid point as an exact rational vector; the endpoints
    of a one-dimensional set are always included.
    """
    n = len(rows[0])
    pivots, free, aug = solve_affine_system(rows, rhs)
    if not free:
        x = [Fraction(0)] * n
        for i, c in enumerate(pivots):
            x[c] = aug[i][n]
        return [tuple(x)] if all(v >= 0 for v in x) else []
    if len(free) != 1:
        raise ValueError(f"solution set has dimension {len(free)}, expected <= 1")
    f = free[0]
    lo, hi = Fraction(0), None
    for i, c in enumerate(pivots):
        coef, const = aug[i][f], aug[i][n]
        if coef > 0:
            bound = const / coef
            hi = bound if hi is None else min(hi, bound)
        elif coef < 0:
            lo = max(lo, const / coef)
    if hi is None:
        raise ValueError("unbounded solution set")
    if lo > hi:
        return []
    members = []
    for k in range(steps + 1):
        t = lo + (hi - lo) * k / steps
        x = [Fraction(0)] * n
        x[f] = t
        for i, c in enumerate(pivots):
            x[c] = aug[i][n] - aug[i][f] * t
        members.append(tuple(x))
    return members


def grid_strong_bounds(t, q, ws, mu, steps):
    """Dumb grid search over sampled members of each marginal credal set.

    Exhaustively evaluates the query mass at every pair of sampled
    members (vectorized, so a 10^-3 grid stays cheap) and reports the
    extremes as floats.
    """
    import numpy as np

    from credalchoice.worlds import satisfies

    member_sets = []
    for i, classes in enumerate(ws.classes_by_space):
        n = len(classes)
        rows = [tuple(Fraction(1) for _ in range(n))]
        rhs = [Fraction(1)]
        for a in t.spaces[i].atomic_choices:
            rows.append(tuple(Fraction(1) if a in c.partial.image else Fraction(0) for c in classes))
            rhs.append(mu[a])
        members = grid_members(rows, rhs, steps)
        member_sets.append(np.array([[float(v) for v in m] for m in members]))
    hits = np.zeros((member_sets[0].shape[1], member_sets[1].shape[1]))
    for w in ws.worlds:
        if satisfies(w, q):
            idx = tuple(
                next(j for j, c in enumerate(classes) if w.index in c.world_indices)
                for classes in ws.classes_by_space
            )
            hits[idx] += 1.0
    values = member_sets[0] @ hits @ member_sets[1].T
    return float(values.min()), float(values.max())


def vertex_product_bounds(t, q, ws):
    """Exact strong-extension bounds by brute force over every space's vertices.

    Evaluates the query mass at each combination of per-space polytope
    vertices (the objective is linear in each factor, so its extremes are
    attained at such a combination) and returns the exact (min, max).
    """
    import itertools

    from credalchoice.inference import enumerate_vertices, marginal_polytope
    from credalchoice.worlds import satisfies

    vertex_sets = [
        [v.values for v in enumerate_vertices(marginal_polytope(ws, i))]
        for i in range(len(ws.classes_by_space))
    ]
    profiles = [
        tuple(
            next(j for j, c in enumerate(classes) if w.index in c.world_indices)
            for classes in ws.classes_by_space
        )
        for w in ws.worlds
        if satisfies(w, q)
    ]
    # each vertex as integer numerators over one denominator, so the sums stay in ints
    scaled = []
    for vs in vertex_sets:
        denominators = [math.lcm(*(x.denominator for x in v)) for v in vs]
        scaled.append([([int(x * d) for x in v], d) for v, d in zip(vs, denominators)])
    values = []
    for parts in itertools.product(*scaled):
        total = sum(math.prod(nums[c] for (nums, _), c in zip(parts, profile)) for profile in profiles)
        values.append(Fraction(total, math.prod(d for _, d in parts)))
    return min(values), max(values)


def two_ranking_theory() -> tuple[CCLTheory, Query]:
    """The ranking theories of two n = 4 Mallows datasets (seeds 1 and 2, objects renamed apart) joined, with the
    query "object 0 beats object 1" in each: the literals ``q`` and ``qq``."""
    from test_ranking import mallows_text

    from credalchoice.ranking import build_ranking_theory, pairwise_query

    def marginals(seed, prefix):
        text = mallows_text(random.Random(seed), 4, 50).replace("o", prefix)
        return smooth_marginals(counts_from_rankings(parse_rankings(text)))

    m1, m2 = marginals(1, "a"), marginals(2, "b")
    t1, q1 = pairwise_query(build_ranking_theory(m1), m1, 0, 1)
    t2 = build_ranking_theory(m2)
    t, q2 = pairwise_query(CCLTheory(t1.program, (*t1.spaces, *t2.spaces), {**t1.mu, **t2.mu}), m2, 0, 1)
    return t, Query(q1.literals | q2.literals)


def random_product_theory(rng: random.Random, n_spaces: int) -> CCLTheory:
    """``n_spaces`` low-dimensional spaces (0 to 4) under an empty program."""
    drawn = [random_low_dim_space(rng, prefix) for prefix in "xyzw"[:n_spaces]]
    mu = {a: p for _, m in drawn for a, p in m.items()}
    return CCLTheory(Program(), tuple(sp for sp, _ in drawn), mu)


def multispace_theory(rng: random.Random, n_spaces: int) -> CCLTheory:
    """Spaces shaped like the benchmark's: alternatives {a0, a1} and {b0, b1, b2}."""
    spaces, mu = [], {}
    for s in range(n_spaces):
        first = [atom(f"s{s}a{i}") for i in range(2)]
        second = [atom(f"s{s}b{i}") for i in range(3)]
        mu.update(zip(first, random_masses(rng, 2)))
        mu.update(zip(second, random_masses(rng, 3)))
        spaces.append(ChoiceSpace((Alternative(tuple(first)), Alternative(tuple(second)))))
    return CCLTheory(Program(), tuple(spaces), mu)


def with_derived_atoms(rng: random.Random, t: CCLTheory, n: int) -> tuple[CCLTheory, list]:
    """Extend a theory with derived atoms ``d0 .. d<n-1>``.

    Each gets one or two clauses whose bodies draw up to three literals,
    about 40% negated, from the choice atoms and the earlier derived
    atoms; with no atom to draw from a clause is a fact.
    """
    pool = sorted({a for sp in t.spaces for a in sp.atomic_choices})
    clauses, derived = [], []
    for i in range(n):
        head = atom(f"d{i}")
        for _ in range(rng.randrange(1, 3)):
            body_atoms = rng.sample(pool, rng.randrange(min(1, len(pool)), min(3, len(pool)) + 1))
            clauses.append(Clause(head, tuple(Literal(a, rng.random() < 0.6) for a in body_atoms)))
        pool.append(head)
        derived.append(head)
    return CCLTheory(t.program.extend(clauses), t.spaces, t.mu), derived


def random_base_query(rng: random.Random, t: CCLTheory, max_literals: int = 3) -> Query:
    """A conjunction of random literals over the whole Herbrand base."""
    pool = sorted(t.herbrand_base)
    chosen = rng.sample(pool, rng.randrange(1, min(max_literals, len(pool)) + 1))
    return Query(frozenset(Literal(a, rng.random() < 0.6) for a in chosen))


def random_query(rng: random.Random, t: CCLTheory, max_literals: int = 3) -> Query:
    pool = sorted({a for sp in t.spaces for a in sp.atomic_choices})
    k = rng.randrange(1, min(max_literals, len(pool)) + 1)
    chosen = rng.sample(pool, k)
    return Query(frozenset(Literal(a, rng.random() < 0.6) for a in chosen))


def with_derived_atom(rng: random.Random, t: CCLTheory) -> tuple[CCLTheory, Query]:
    """Extend a theory with one derived atom over random choice literals."""
    pool = sorted({a for sp in t.spaces for a in sp.atomic_choices})
    head = atom("d")
    n_clauses = rng.randrange(1, 3)
    clauses = []
    for _ in range(n_clauses):
        body_atoms = rng.sample(pool, rng.randrange(1, min(2, len(pool)) + 1))
        body = tuple(Literal(a, rng.random() < 0.6) for a in body_atoms)
        clauses.append(Clause(head, body))
    extended = CCLTheory(t.program.extend(clauses), t.spaces, t.mu)
    return extended, Query(frozenset({Literal(head, rng.random() < 0.8)}))


def outer_bound_oracle(t, q, ws):
    """The outer bound as a plain per-profile product sum.

    Each satisfying world contributes the product of its classes' lower
    (upper) mass bounds over the spaces; the upper total is clipped to
    one.  Returns the exact (lower, upper).
    """
    from credalchoice.inference import marginal_polytope
    from credalchoice.lp import vertex_numerators
    from credalchoice.worlds import satisfies

    class_lo, class_hi = [], []
    for i in range(len(t.spaces)):
        # each class's range over the polytope's vertices, which attain both ends of any linear objective
        vertices, den = vertex_numerators(marginal_polytope(ws, i).feasible_system())
        class_lo.append([Fraction(min(column), den) for column in zip(*vertices)])
        class_hi.append([Fraction(max(column), den) for column in zip(*vertices)])
    lo = hi = Fraction(0)
    for w, profile in zip(ws.worlds, ws.profiles):
        if satisfies(w, q):
            term_lo = term_hi = Fraction(1)
            for i, c in enumerate(profile):
                term_lo *= class_lo[i][c]
                term_hi *= class_hi[i][c]
            lo += term_lo
            hi += term_hi
    return lo, min(hi, Fraction(1))
