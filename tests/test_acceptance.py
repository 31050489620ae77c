"""End-to-end acceptance checks.

Each test carries the ``acceptance`` marker; the terminal summary ends
with one PASS/FAIL line per criterion (see ``conftest.py``).
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import (
    grid_strong_bounds,
    naive_stable_model,
    random_acyclic_program,
    random_query,
    random_single_space_theory,
    random_two_space_theory,
    with_derived_atom,
)
from credalchoice.errors import CyclicityError
from credalchoice.inference import (
    credal_bounds_single_space,
    credal_bounds_strong_extension,
    enumerate_vertices,
    icl_mass_function,
    icl_probability,
    marginal_polytope,
    outer_bound,
    proxy_in_credal_set,
    proxy_query_value,
)
from credalchoice.logic import Clause, GroundProgram, Literal, atom, check_acyclic, stable_model
from credalchoice.psat import BracketState, bisect_bounds, build_psat_instance, psat_decide
from credalchoice.ranking import (
    RankingDataset,
    build_ranking_theory,
    counts_from_rankings,
    evaluate,
    pairwise_query,
    parse_rankings,
    smooth_marginals,
)
from credalchoice.theory import load_ccl, merge_spaces
from credalchoice.worlds import build_world_space, satisfies

F = Fraction


def fr(*vals) -> tuple:
    return tuple(Fraction(v) for v in vals)


def load(data_dir, name):
    return load_ccl(data_dir / f"{name}.ccl")


@pytest.mark.acceptance(1, "urn: independent point 0.56; merged bounds [1/2, 7/10]; under 1 s")
def test_criterion_1_urn(data_dir):
    start = time.perf_counter()

    doc = load(data_dir, "urn")
    point = icl_probability(doc.theory, doc.queries[0])
    assert point == F(14, 25)
    assert float(point) == 0.56

    merged = load(data_dir, "urn-merged")
    interval = credal_bounds_single_space(merged.theory, merged.queries[0])
    assert (interval.lower, interval.upper) == (F(1, 2), F(7, 10))

    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(
    2,
    "friends: point 9/25; merged [1/5, 1/2]; two-space [8/25, 2/5]; outer lower 8/25; "
    "marginal vertices exact; under 1 s",
)
def test_criterion_2_friends(data_dir):
    start = time.perf_counter()

    independent = load(data_dir, "friends-icl")
    point = icl_probability(independent.theory, independent.queries[0])
    assert point == F(9, 25)
    assert float(point) == 0.36

    merged = load(data_dir, "friends-merged")
    merged_iv = credal_bounds_single_space(merged.theory, merged.queries[0])
    assert (merged_iv.lower, merged_iv.upper) == (F(1, 5), F(1, 2))

    two = load(data_dir, "friends")
    ws = build_world_space(two.theory)
    strong = credal_bounds_strong_extension(two.theory, two.queries[0], world_space=ws)
    assert (strong.lower, strong.upper) == (F(8, 25), F(2, 5))
    assert (float(strong.lower), float(strong.upper)) == (0.32, 0.40)

    outer = outer_bound(two.theory, two.queries[0], world_space=ws)
    assert outer.lower == F(8, 25)
    assert float(outer.lower) == 0.32

    first = {v.values for v in enumerate_vertices(marginal_polytope(ws, 0))}
    assert first == {fr("1/10", 0, "2/5", "1/2"), fr(0, "1/10", "1/2", "2/5")}
    second = [v.values for v in enumerate_vertices(marginal_polytope(ws, 1))]
    assert second == [fr("1/5", "4/5")]

    assert time.perf_counter() - start < 1.0


@pytest.mark.acceptance(
    3, "eight worlds, independent-weights row, and all eight extreme points reproduced exactly"
)
def test_criterion_3_world_table(data_dir):
    independent = load(data_dir, "friends-icl")
    ws = build_world_space(independent.theory)
    assert len(ws.worlds) == 8
    images = [sorted(str(a) for a in w.choice.image) for w in ws.worlds]
    assert images == [
        ["c", "r", "w"], ["c", "nw", "r"], ["nc", "r", "w"], ["nc", "nw", "r"],
        ["c", "nr", "w"], ["c", "nr", "nw"], ["nc", "nr", "w"], ["nc", "nr", "nw"],
    ]
    h = atom("h")
    assert [w.model.is_true(h) for w in ws.worlds] == [False] * 7 + [True]

    weights = icl_mass_function(independent.theory, world_space=ws)
    assert weights.values == fr(
        "1/100", "1/25", "1/100", "1/25", "9/100", "9/25", "9/100", "9/25"
    )

    merged = load(data_dir, "friends-merged")
    merged_ws = build_world_space(merged.theory)
    assert [sorted(str(a) for a in w.choice.image) for w in merged_ws.worlds] == images
    extreme = {v.values for v in enumerate_vertices(marginal_polytope(merged_ws, 0))}
    assert extreme == {
        fr("1/10", 0, 0, 0, 0, "2/5", "1/10", "2/5"),
        fr("1/10", 0, 0, 0, "1/10", "3/10", 0, "1/2"),
        fr(0, "1/10", 0, 0, 0, "2/5", "1/5", "3/10"),
        fr(0, "1/10", 0, 0, "1/5", "1/5", 0, "1/2"),
        fr(0, 0, "1/10", 0, "1/10", "2/5", 0, "2/5"),
        fr(0, 0, "1/10", 0, 0, "1/2", "1/10", "3/10"),
        fr(0, 0, 0, "1/10", "1/5", "3/10", 0, "2/5"),
        fr(0, 0, 0, "1/10", 0, "1/2", "1/5", "1/5"),
    }


@pytest.mark.acceptance(
    4,
    "satisfiability probes match interval membership at 21 evenly spaced points; "
    "bisection endpoints within 2^-10 using at most 24 calls",
)
def test_criterion_4_psat_cross_validation(data_dir):
    epsilon = F(1, 2**10)
    for name in ("urn-merged", "friends-merged"):
        doc = load(data_dir, name)
        t, q = doc.theory, doc.queries[0]
        exact = credal_bounds_single_space(t, q)
        for k in range(21):
            alpha = F(k, 20)
            decided = psat_decide(build_psat_instance(t, q, alpha))
            assert decided == (exact.lower <= alpha <= exact.upper), (name, alpha)

        state = BracketState(epsilon)
        bracket = bisect_bounds(t, q, epsilon, state=state)
        assert abs(bracket.lower - exact.lower) <= epsilon
        assert abs(bracket.upper - exact.upper) <= epsilon
        assert len(state.probes) <= 24


@pytest.mark.acceptance(
    5,
    "100 random one-space theories: LP equals vertex brute force exactly; "
    "50 random two-space theories: vertex products within 2e-3 of a 1e-3 grid oracle",
)
def test_criterion_5_oracle_equivalence():
    rng = random.Random(50)

    for trial in range(100):
        t = random_single_space_theory(rng)
        q = random_query(rng, t)
        ws = build_world_space(t)
        interval = credal_bounds_single_space(t, q, world_space=ws)
        classes = ws.classes_by_space[0]
        sat = {w.index for w in ws.worlds if satisfies(w, q)}
        values = [
            sum(
                (v.values[j] for j, cls in enumerate(classes) if cls.world_indices[0] in sat),
                F(0),
            )
            for v in enumerate_vertices(marginal_polytope(ws, 0))
        ]
        assert min(values) == interval.lower, trial
        assert max(values) == interval.upper, trial

    for trial in range(50):
        t = random_two_space_theory(rng)
        q = random_query(rng, t)
        ws = build_world_space(t)
        interval = credal_bounds_strong_extension(t, q, world_space=ws)
        grid_lo, grid_hi = grid_strong_bounds(t, q, ws, t.mu, steps=1000)
        assert abs(float(interval.lower) - grid_lo) <= 2e-3, trial
        assert abs(float(interval.upper) - grid_hi) <= 2e-3, trial


@pytest.mark.acceptance(
    6, "200 random acyclic programs match the naive fixed-point evaluator; cycles rejected"
)
def test_criterion_6_stable_model_oracle():
    rng = random.Random(6)
    for _ in range(200):
        gp = random_acyclic_program(rng, rng.randrange(2, 13))
        base = sorted(gp.herbrand_base)
        facts = frozenset(a for a in base if rng.random() < 0.3 and a not in {cl.head for cl in gp.clauses})
        assert stable_model(gp, facts).true_atoms == naive_stable_model(gp, facts)

    for _ in range(20):
        gp = random_acyclic_program(rng, rng.randrange(2, 13))
        base = sorted(gp.herbrand_base)
        i = rng.randrange(0, len(base) - 1)
        j = rng.randrange(i + 1, len(base))
        cyclic = GroundProgram(
            gp.clauses
            + (
                Clause(base[i], (Literal(base[j]),)),
                Clause(base[j], (Literal(base[i]),)),
            ),
            gp.herbrand_base,
        )
        with pytest.raises(CyclicityError):
            check_acyclic(cyclic)
        with pytest.raises(CyclicityError):
            stable_model(cyclic, frozenset())


@pytest.mark.acceptance(
    7,
    "ranking counts reproduced exactly; n! worlds for n = 3, 4, 5; pair complementarity "
    "and the straddle rule at n = 4; full n = 4 run under 60 s",
)
def test_criterion_7_ranking_pipeline(data_dir):
    start = time.perf_counter()

    dataset = parse_rankings((data_dir / "abc.rankings").read_text())
    counts = counts_from_rankings(dataset)
    assert counts.counts == ((8, 6, 4), (5, 4, 9), (5, 8, 5))
    assert counts.total == 18

    for n in (3, 4, 5):
        objects = tuple(f"o{i}" for i in range(1, n + 1))
        everything = RankingDataset(objects, tuple(itertools.permutations(range(n))))
        marginals = smooth_marginals(counts_from_rankings(everything))
        ws = build_world_space(build_ranking_theory(marginals))
        assert len(ws.worlds) == math.factorial(n)

    rng = random.Random(7)
    rankings = tuple(tuple(rng.sample(range(4), 4)) for _ in range(25))
    d4 = RankingDataset(("a", "b", "c", "d"), rankings)
    marginals = smooth_marginals(counts_from_rankings(d4))
    theory = build_ranking_theory(marginals)
    intervals = {}
    for i, j in itertools.permutations(range(4), 2):
        extended, q = pairwise_query(theory, marginals, i, j)
        iv = credal_bounds_single_space(extended, q)
        intervals[(i, j)] = (iv.lower, iv.upper)
    for i, j in itertools.combinations(range(4), 2):
        lo, hi = intervals[(i, j)]
        rlo, rhi = intervals[(j, i)]
        assert (lo, hi) == (1 - rhi, 1 - rlo), (i, j)

    report = evaluate(d4, backend="lp")
    for pair in report.pairs:
        straddles = pair.interval.lower <= F(1, 2) <= pair.interval.upper
        assert (pair.ccl_verdict == "indeterminate") == straddles, pair.pair

    assert time.perf_counter() - start < 60.0


@pytest.mark.acceptance(
    8,
    "outer bounds wrap the exact interval, the independent point sits inside it, and "
    "merging spaces never shrinks it, on bundled and random theories",
)
def test_criterion_8_sandwich_and_monotonicity(data_dir):
    for name in ("urn", "urn-merged", "friends", "friends-merged", "friends-icl"):
        doc = load(data_dir, name)
        t, q = doc.theory, doc.queries[0]
        ws = build_world_space(t)
        exact = credal_bounds_strong_extension(t, q, world_space=ws)
        outer = outer_bound(t, q, world_space=ws)
        point = proxy_query_value(t, q, world_space=ws)
        assert proxy_in_credal_set(t, world_space=ws), name
        assert outer.lower <= exact.lower <= point <= exact.upper <= outer.upper, name
        if all(len(sp.alternatives) == 1 for sp in t.spaces):
            assert point == icl_probability(t, q, world_space=ws), name
        if len(t.spaces) > 1:
            merged = merge_spaces(t, tuple(range(len(t.spaces))))
            wider = credal_bounds_single_space(merged, q)
            assert wider.lower <= exact.lower <= exact.upper <= wider.upper, name

    rng = random.Random(88)
    for trial in range(25):
        # disjoint alternatives: the independent product is a member
        t = random_two_space_theory(rng, shapes=(0, 1))
        if rng.random() < 0.5:
            t, q = with_derived_atom(rng, t)
        else:
            q = random_query(rng, t)
        ws = build_world_space(t)
        exact = credal_bounds_strong_extension(t, q, world_space=ws)
        outer = outer_bound(t, q, world_space=ws)
        point = proxy_query_value(t, q, world_space=ws)
        assert proxy_in_credal_set(t, world_space=ws), trial
        assert outer.lower <= exact.lower <= point <= exact.upper <= outer.upper, trial
        merged = merge_spaces(t, (0, 1))
        wider = credal_bounds_single_space(merged, q)
        assert wider.lower <= exact.lower <= exact.upper <= wider.upper, trial

    for trial in range(15):
        # shared atoms allowed: the point guarantee no longer applies
        t = random_two_space_theory(rng)
        q = random_query(rng, t)
        ws = build_world_space(t)
        exact = credal_bounds_strong_extension(t, q, world_space=ws)
        outer = outer_bound(t, q, world_space=ws)
        assert outer.lower <= exact.lower <= exact.upper <= outer.upper, trial
        merged = merge_spaces(t, (0, 1))
        wider = credal_bounds_single_space(merged, q)
        assert wider.lower <= exact.lower <= exact.upper <= wider.upper, trial
