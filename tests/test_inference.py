"""Exact inference: point values, interval bounds, and polytope vertices."""

import random
from fractions import Fraction
from itertools import permutations, product
from math import prod

import pytest
from conftest import (
    grid_strong_bounds,
    multispace_theory,
    outer_bound_oracle,
    random_base_query,
    random_low_dim_space,
    random_masses,
    random_product_theory,
    random_query,
    random_single_space_theory,
    random_two_space_theory,
    vertex_product_bounds,
    with_derived_atom,
    with_derived_atoms,
)

from credalchoice.errors import CapExceededError, InfeasibleError
from credalchoice.inference import (
    IntervalResult,
    MassFunction,
    credal_bounds_single_space,
    credal_bounds_strong_extension,
    enumerate_vertices,
    icl_mass_function,
    icl_probability,
    marginal_polytope,
    outer_bound,
    proxy_in_credal_set,
    proxy_mass_function,
    proxy_query_value,
    QueryGroups,
)
from credalchoice.logic import Literal, Program, atom
from credalchoice.ranking import (
    build_ranking_theory,
    counts_from_rankings,
    pairwise_query,
    parse_rankings,
    smooth_marginals,
)
from credalchoice.theory import (
    Alternative,
    CCLTheory,
    ChoiceSpace,
    Query,
    alternative,
    from_icl,
    load_ccl,
    merge_spaces,
    parse_ccl,
    query,
    validate_theory,
)
from credalchoice.worlds import build_world_space, satisfies

F = Fraction


def fr(*vals) -> tuple:
    return tuple(F(v) for v in vals)


# ---------------------------------------------------------------------------
# Containers.


def test_mass_function_must_normalize():
    MassFunction((F(1, 2), F(1, 2)))
    with pytest.raises(ValueError):
        MassFunction((F(1, 2), F(1, 3)))
    with pytest.raises(ValueError):
        MassFunction((F(3, 2), F(-1, 2)))


def test_interval_result_validates_order():
    IntervalResult(F(1, 3), F(1, 2), "lp")
    with pytest.raises(ValueError):
        IntervalResult(F(1, 2), F(1, 3), "lp")
    with pytest.raises(ValueError):
        IntervalResult(F(-1, 10), F(1, 2), "lp")


def test_interval_result_rejects_negative_epsilon():
    with pytest.raises(ValueError, match="^epsilon must be non-negative$"):
        IntervalResult(F(0), F(1), "lp", F(-1))


def test_interval_json_shape():
    d = IntervalResult(F(1, 5), F(1, 2), "lp").to_json_dict()
    assert d == {
        "lower": "1/5",
        "upper": "1/2",
        "lower_dec": 0.2,
        "upper_dec": 0.5,
        "method": "lp",
        "epsilon": "0/1",
    }


# ---------------------------------------------------------------------------
# ICL point values.


def test_urn_icl_probability(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    assert icl_probability(doc.theory, doc.queries[0]) == F(14, 25)
    assert float(F(14, 25)) == 0.56


def test_friends_icl_probability(data_dir):
    doc = load_ccl(data_dir / "friends-icl.ccl")
    assert icl_probability(doc.theory, query("h")) == F(9, 25)


def test_icl_mass_function_reproduces_product_row(data_dir):
    doc = load_ccl(data_dir / "friends-icl.ccl")
    mf = icl_mass_function(doc.theory)
    assert mf.values == fr(
        "1/100", "1/25", "1/100", "1/25", "9/100", "9/25", "9/100", "9/25"
    )


def test_icl_empty_query_is_total_mass(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    assert icl_probability(doc.theory, query()) == F(1)


def test_icl_rejects_multi_alternative_space(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    with pytest.raises(ValueError):
        icl_probability(doc.theory, query("h"))


def test_icl_point_values_are_the_product_of_the_selected_masses():
    # the oracle weighs each world by the masses of its total choice's image
    rng = random.Random(131)
    for trial in range(20):
        alts, mu = [], {}
        for s in range(rng.randrange(1, 5)):
            atoms_ = [atom(f"s{s}c{i}") for i in range(rng.randrange(1, 4))]
            masses = random_masses(rng, len(atoms_))
            if len(atoms_) > 1 and rng.random() < 0.3:  # a zero-mass atom
                masses = [F(0), masses[0] + masses[1], *masses[2:]]
            alts.append(Alternative(tuple(atoms_)))
            mu.update(zip(atoms_, masses))
        t, derived = with_derived_atoms(rng, from_icl(Program(), alts, mu), rng.randrange(1, 3))
        ws = build_world_space(t)
        weights = tuple(prod((t.mu[a] for a in w.choice.image), start=F(1)) for w in ws.worlds)
        assert icl_mass_function(t, world_space=ws).values == weights, f"trial {trial}"
        for q in (random_base_query(rng, t), query(derived[-1]), query()):
            expected = sum((v for w, v in zip(ws.worlds, weights) if satisfies(w, q)), F(0))
            assert icl_probability(t, q) == icl_probability(t, q, world_space=ws) == expected, f"trial {trial}: {q}"


def test_icl_rejects_single_alternatives_whose_masses_do_not_sum_to_one():
    t = CCLTheory(Program(), (ChoiceSpace((alternative("a", "b"),)),), {atom("a"): F(1, 4), atom("b"): F(1, 2)})
    assert not validate_theory(t).ok
    with pytest.raises(ValueError, match="^mass values must sum to 1$"):
        icl_probability(t, query("a"))
    with pytest.raises(ValueError, match="^mass values must sum to 1$"):
        icl_mass_function(t)


# ---------------------------------------------------------------------------
# Marginal polytopes and their vertices.


def test_friends_first_marginal_polytope_vertices(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    verts = {v.values for v in enumerate_vertices(marginal_polytope(ws, 0))}
    assert verts == {
        fr("1/10", 0, "2/5", "1/2"),
        fr(0, "1/10", "1/2", "2/5"),
    }


def test_friends_second_marginal_polytope_is_a_point(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    verts = enumerate_vertices(marginal_polytope(ws, 1))
    assert [v.values for v in verts] == [fr("1/5", "4/5")]


def test_merged_friends_vertices_match_known_extreme_points(data_dir):
    doc = load_ccl(data_dir / "friends-merged.ccl")
    ws = build_world_space(doc.theory)
    verts = {v.values for v in enumerate_vertices(marginal_polytope(ws, 0))}
    assert verts == {
        fr("1/10", 0, 0, 0, 0, "2/5", "1/10", "2/5"),
        fr("1/10", 0, 0, 0, "1/10", "3/10", 0, "1/2"),
        fr(0, "1/10", 0, 0, 0, "2/5", "1/5", "3/10"),
        fr(0, "1/10", 0, 0, "1/5", "1/5", 0, "1/2"),
        fr(0, 0, "1/10", 0, "1/10", "2/5", 0, "2/5"),
        fr(0, 0, "1/10", 0, 0, "1/2", "1/10", "3/10"),
        fr(0, 0, 0, "1/10", "1/5", "3/10", 0, "2/5"),
        fr(0, 0, 0, "1/10", 0, "1/2", "1/5", "1/5"),
    }


def test_vertices_agree_with_declared_masses():
    rng = random.Random(11)
    for _ in range(10):
        t = random_single_space_theory(rng)
        ws = build_world_space(t)
        polytope = marginal_polytope(ws, 0)
        classes = ws.classes_by_space[0]
        for v in enumerate_vertices(polytope):
            assert sum(v.values) == 1
            for a in t.spaces[0].atomic_choices:
                mass = sum(
                    val for val, c in zip(v.values, classes) if a in c.partial.image
                )
                assert mass == t.mu[a]


def test_marginal_polytope_feasible_for_valid_theories():
    rng = random.Random(17)
    for _ in range(15):
        t = random_two_space_theory(rng)
        ws = build_world_space(t)
        for i in range(2):
            assert enumerate_vertices(marginal_polytope(ws, i))


def test_polytope_contains_rejects_a_wrong_length_and_a_negative_entry():
    t = parse_ccl("choicespace {\n  alternative { a: 1/2, b: 1/2 }\n  alternative { c: 1/2, d: 1/2 }\n}").theory
    polytope = marginal_polytope(build_world_space(t), 0)  # classes {a, c}, {a, d}, {b, c}, {b, d}
    assert polytope.contains((F(1, 2), F(0), F(0), F(1, 2)))
    assert not polytope.contains((F(1, 2), F(1, 2)))
    # every row holds, but two masses are negative
    assert not polytope.contains((F(1), F(-1, 2), F(-1, 2), F(1)))


# ---------------------------------------------------------------------------
# Single-space bounds.


def test_urn_merged_bounds(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    iv = credal_bounds_single_space(doc.theory, doc.queries[0])
    assert (iv.lower, iv.upper) == (F(1, 2), F(7, 10))
    assert iv.method == "lp"


def test_friends_merged_bounds(data_dir):
    doc = load_ccl(data_dir / "friends-merged.ccl")
    iv = credal_bounds_single_space(doc.theory, doc.queries[0])
    assert (iv.lower, iv.upper) == (F(1, 5), F(1, 2))


def test_point_mass_theory_collapses_interval():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"), alternative("c", "d"))),),
        {atom("a"): F(1), atom("b"): F(0), atom("c"): F(3, 10), atom("d"): F(7, 10)},
    )
    iv = credal_bounds_single_space(t, query("a", "c"))
    assert iv.lower == iv.upper == F(3, 10)


def test_single_space_lp_matches_vertex_brute_force():
    rng = random.Random(23)
    for trial in range(25):
        t = random_single_space_theory(rng)
        if rng.random() < 0.4:
            t, q = with_derived_atom(rng, t)
        else:
            q = random_query(rng, t)
        ws = build_world_space(t)
        iv = credal_bounds_single_space(t, q, world_space=ws)
        verts = enumerate_vertices(marginal_polytope(ws, 0))
        from credalchoice.worlds import satisfies

        sat = [w.index for w in ws.worlds if satisfies(w, q)]
        classes = ws.classes_by_space[0]
        values = []
        for v in verts:
            values.append(
                sum(
                    val
                    for val, c in zip(v.values, classes)
                    if c.world_indices[0] in sat
                )
            )
        assert min(values) == iv.lower, f"trial {trial}"
        assert max(values) == iv.upper, f"trial {trial}"


# ---------------------------------------------------------------------------
# Strong extension over several spaces.


def test_friends_strong_extension_bounds(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    iv = credal_bounds_strong_extension(doc.theory, query("h"))
    assert (iv.lower, iv.upper) == (F(8, 25), F(2, 5))
    assert iv.method == "vertex_product"


def test_combo_cap_bounds_the_vertex_combinations(data_dir):
    t = load_ccl(data_dir / "friends.ccl").theory
    # two spaces, with 4 and 2 classes: space 0 goes to the LP, so the combinations are the vertices of space 1
    v = len(enumerate_vertices(marginal_polytope(build_world_space(t), 1)))
    with pytest.raises(CapExceededError, match=f"^{v} vertex combinations, more than the cap of {v - 1}$"):
        credal_bounds_strong_extension(t, query("h"), combo_cap=v - 1)
    assert credal_bounds_strong_extension(t, query("h"), combo_cap=v) == credal_bounds_strong_extension(t, query("h"))


# Four ranked objects: the one-space pair theory's class-mass polytope is
# degenerate enough that enumerating its vertices passes 1000 bases.
RANKINGS_N4 = """\
a,b,c,d x5
b,a,d,c x3
a,c,b,d x2
d,c,b,a x1
c,a,d,b x2
"""


def _one_space_case(name, data_dir):
    if name == "ranking-n4-pair":
        m = smooth_marginals(counts_from_rankings(parse_rankings(RANKINGS_N4)))
        return pairwise_query(build_ranking_theory(m), m, 0, 1)
    doc = load_ccl(data_dir / f"{name}.ccl")
    return doc.theory, doc.queries[0]


@pytest.mark.parametrize("name", ["urn-merged", "ranking-n4-pair"])
def test_strong_extension_equals_single_space_when_k_is_one(name, data_dir):
    t, q = _one_space_case(name, data_dir)
    a = credal_bounds_single_space(t, q)
    # with one space no vertex is enumerated, so no cap can be reached
    b = credal_bounds_strong_extension(t, q, vertex_cap=1000)
    assert (a.lower, a.upper) == (b.lower, b.upper)


def _random_product_theory(rng, shape):
    if shape == "two-low-dim":
        return random_two_space_theory(rng)
    if shape == "three-low-dim":
        return random_product_theory(rng, 3)
    if shape == "four-low-dim":
        return random_product_theory(rng, 4)
    if shape == "multispace":
        return multispace_theory(rng, 4)
    # two spaces with polytopes of any dimension
    spaces = [random_single_space_theory(rng, 3, 3, prefix, class_cap=8) for prefix in "xy"]
    return CCLTheory(Program(), tuple(s.spaces[0] for s in spaces), {**spaces[0].mu, **spaces[1].mu})


@pytest.mark.parametrize(
    "shape", ["two-low-dim", "three-low-dim", "two-general", "four-low-dim", "multispace"]
)
def test_strong_extension_equals_vertex_product_oracle(shape):
    rng = random.Random(71)
    # a multispace trial sums about 400 vertex combinations over 1296 worlds
    for trial in range(3 if shape == "multispace" else 12):
        t = _random_product_theory(rng, shape)
        if shape == "multispace":
            t, derived = with_derived_atoms(rng, t, 8)
        elif rng.random() < 0.5:
            t, q = with_derived_atom(rng, t)
        else:
            q = random_query(rng, t)
        ws = build_world_space(t)
        if shape == "multispace":
            # the derived atom holding in closest to half of the worlds
            q = min(map(query, derived), key=lambda q: abs(2 * QueryGroups(ws, q).hits.bit_count() - ws.n_worlds))
        iv = credal_bounds_strong_extension(t, q, world_space=ws)
        assert (iv.lower, iv.upper) == vertex_product_bounds(t, q, ws), f"trial {trial}"


def test_outer_bound_equals_product_sum_oracle():
    rng = random.Random(97)
    for trial in range(30):
        t = random_product_theory(rng, rng.randrange(0, 5))
        t, derived = with_derived_atoms(rng, t, rng.randrange(1, 5))
        ws = build_world_space(t)
        d = derived[-1]
        unsatisfiable = Query(frozenset({Literal(d, True), Literal(d, False)}))
        assert outer_bound(t, unsatisfiable, world_space=ws).upper == 0
        for q in (random_base_query(rng, t), query(d), unsatisfiable):
            iv = outer_bound(t, q, world_space=ws)
            assert (iv.lower, iv.upper) == outer_bound_oracle(t, q, ws), f"trial {trial}: {q}"


def test_bounds_do_not_depend_on_the_space_order():
    # each space is one digit of the query's grouped table, so reordering the spaces reorders its strides only
    rng = random.Random(53)
    for trial in range(10):
        k = rng.randrange(2, 5)
        t = random_product_theory(rng, k) if trial % 2 else multispace_theory(rng, min(k, 3))
        t, derived = with_derived_atoms(rng, t, 4)
        q = query(derived[-1]) if trial % 3 else random_base_query(rng, t)
        shuffled = rng.sample(range(len(t.spaces)), len(t.spaces))
        seen = set()
        for order in (range(len(t.spaces)), range(len(t.spaces) - 1, -1, -1), shuffled):
            theory = CCLTheory(t.program, tuple(t.spaces[i] for i in order), t.mu)
            ws = build_world_space(theory)
            strong = credal_bounds_strong_extension(theory, q, world_space=ws)
            outer = outer_bound(theory, q, world_space=ws)
            point = proxy_query_value(theory, q, world_space=ws)
            assert (strong.lower, strong.upper) == vertex_product_bounds(theory, q, ws), f"trial {trial}: {order}"
            assert (outer.lower, outer.upper) == outer_bound_oracle(theory, q, ws), f"trial {trial}: {order}"
            masses = proxy_mass_function(theory, world_space=ws).values
            assert point == sum((m for w, m in zip(ws.worlds, masses) if satisfies(w, q)), F(0)), f"trial {trial}: {order}"
            seen.add((strong.lower, strong.upper, outer.lower, outer.upper, point))
        assert len(seen) == 1, f"trial {trial}: {seen}"


def _walked_leaves(ws, q):
    """The product, over every space but the LP one, of its vertices' distinct projections to query-distinct groups.

    Two classes of a space share a group when the query holds in both alike, whatever the other spaces'
    classes; the LP space has the most classes, then the most groups, then the greatest index.
    """
    truth = {ws.profiles[w.index]: satisfies(w, q) for w in ws.worlds}
    spaces = []
    for i, sels in enumerate(ws.selections):
        rest = [p for p in ws.profiles if p[i] == 0]
        keys = {}
        group = [keys.setdefault(tuple(truth[p[:i] + (j,) + p[i + 1:]] for p in rest), len(keys)) for j in range(len(sels))]
        projected = {
            tuple(sum(x for x, g in zip(v.values, group) if g == h) for h in range(len(keys)))
            for v in enumerate_vertices(marginal_polytope(ws, i))
        }
        spaces.append((len(sels), len(keys), i, len(projected)))
    lp_space = max(spaces)
    return prod(s[3] for s in spaces if s is not lp_space), min(s[1] for s in spaces)


def test_query_blind_classes_and_spaces(monkeypatch):
    # the query reads only some alternatives of some spaces: the others' classes fall into one group
    import credalchoice.lp as lp

    calls = []
    original = lp.FeasibleSystem.bound_numerators
    monkeypatch.setattr(lp.FeasibleSystem, "bound_numerators", lambda self, c: calls.append(1) or original(self, c))
    rng = random.Random(29)
    blind = branching = 0
    for trial in range(12):
        k = 3 if trial % 3 else rng.randrange(2, 5)
        t = multispace_theory(rng, k) if trial % 3 else random_product_theory(rng, k)
        hidden = rng.randrange(2 * k)  # hide one space half of the time, and each other alternative a fifth of the time
        seen = [ChoiceSpace(alts) for i, sp in enumerate(t.spaces) if i != hidden and (alts := tuple(a for a in sp.alternatives if rng.random() < 0.8))]
        visible, derived = with_derived_atoms(rng, CCLTheory(Program(), tuple(seen) or t.spaces[:1], t.mu), 12)
        ws = build_world_space(CCLTheory(visible.program, t.spaces, t.mu))
        # the derived atom holding in closest to half of the worlds
        q = min(map(query, derived), key=lambda q: abs(2 * QueryGroups(ws, q).hits.bit_count() - ws.n_worlds))
        for order in permutations(range(k)):
            theory = CCLTheory(visible.program, tuple(t.spaces[i] for i in order), t.mu)
            ws = build_world_space(theory)
            leaves, fewest_groups = _walked_leaves(ws, q)
            blind, branching = blind + (fewest_groups == 1), branching + (leaves > 1)
            calls.clear()
            iv = credal_bounds_strong_extension(theory, q, world_space=ws)
            assert (iv.lower, iv.upper) == vertex_product_bounds(theory, q, ws), f"trial {trial}: {order}"
            assert len(calls) == leaves, f"trial {trial}: {order}"
    assert blind and branching


def test_fold_equals_the_per_world_sum_for_every_combination_of_weights():
    # the kernel behind every readout: per combination of one weight vector per summed space, the sum over the
    # query's worlds of the product of each summed space's weight for the world's class, by the kept space's class
    rng = random.Random(83)
    for trial in range(10):
        k = rng.randrange(1, 5)
        t = multispace_theory(rng, min(k, 3)) if trial % 2 else random_product_theory(rng, k)
        t, derived = with_derived_atoms(rng, t, 8)
        ws = build_world_space(t)
        k = len(ws.selections)
        # mostly the derived atom holding in closest to half of the worlds
        q = random_base_query(rng, t) if trial % 3 == 0 else min(
            map(query, derived), key=lambda q: abs(2 * QueryGroups(ws, q).hits.bit_count() - ws.n_worlds)
        )
        truth = [satisfies(w, q) for w in ws.worlds]
        weights = {}
        for s, sels in enumerate(ws.selections):
            v = [rng.choice([0, 0, 1, 2, 3, 7]) for _ in sels]
            # classes whose worlds the query holds in alike, whatever the other spaces' classes: moving weight
            # between two of them keeps every group sum
            alike = {}
            for j in range(len(sels)):
                alike.setdefault(tuple(h for p, h in zip(ws.profiles, truth) if p[s] == j), []).append(j)
            moved = list(v)
            for a, b, *_ in (m for m in alike.values() if len(m) > 1):
                moved[a], moved[b] = v[a] + v[b], 0
            weights[s] = [v, [0] * len(sels), moved, [rng.randrange(5) for _ in sels]]
        for keep in (None, *range(k)):
            summed = [s for s in range(k) if s != keep]
            want = set()
            for combo in product(*(weights[s] for s in summed)):
                row = [0] * (1 if keep is None else len(ws.selections[keep]))
                for p, hit in zip(ws.profiles, truth):
                    if hit:
                        row[0 if keep is None else p[keep]] += prod(v[p[s]] for s, v in zip(summed, combo))
                want.add(tuple(row))
            rows = QueryGroups(ws, q).fold(weights, keep)
            assert {tuple(r) for r in rows} == want, f"trial {trial}, keep {keep}"
            assert len(rows) <= 4 ** len(summed), f"trial {trial}, keep {keep}"


def test_two_space_ranking_theory_finishes_in_either_order():
    # n = 5 rankings: the ranking space has 120 classes and goes to the LP, declared first or last
    from test_ranking import mallows_text

    m = smooth_marginals(counts_from_rankings(parse_rankings(mallows_text(random.Random(1), 5, 50))))
    t, q = pairwise_query(build_ranking_theory(m), m, 0, 1)
    w, nw = atom("w"), atom("nw")
    extra = ChoiceSpace((Alternative((w, nw)),))
    mu = {**t.mu, w: F(1, 3), nw: F(2, 3)}
    q = Query(q.literals | {Literal(w)})
    first, last = (credal_bounds_strong_extension(CCLTheory(t.program, spaces, mu), q) for spaces in ((*t.spaces, extra), (extra, *t.spaces)))
    assert first == last
    assert (first.lower, first.upper) == (F(59, 260), F(81, 260))


def test_two_ranking_theory_walks_thousands_of_vertices_in_either_order():
    # two n = 4 ranking spaces, objects renamed apart, the query "object 0 beats object 1" in each: the walked
    # space has 4081 vertices with 56 distinct group sums, so the fold ends in 56 LP leaves
    from test_ranking import mallows_text

    def ranking_marginals(seed, prefix):
        text = mallows_text(random.Random(seed), 4, 50).replace("o", prefix)
        return smooth_marginals(counts_from_rankings(parse_rankings(text)))

    m1, m2 = ranking_marginals(1, "a"), ranking_marginals(2, "b")
    t1, q1 = pairwise_query(build_ranking_theory(m1), m1, 0, 1)
    t2 = build_ranking_theory(m2)
    t, q2 = pairwise_query(CCLTheory(t1.program, (*t1.spaces, *t2.spaces), {**t1.mu, **t2.mu}), m2, 0, 1)
    q = Query(q1.literals | q2.literals)
    assert str(q) == "q, qq"
    for spaces in (t.spaces, t.spaces[::-1]):
        iv = credal_bounds_strong_extension(CCLTheory(t.program, spaces, t.mu), q)
        assert (iv.lower, iv.upper) == (F(1809, 10816), F(385, 832))


def test_space_without_coherent_selection_is_infeasible():
    # {a}, {b}, {a, b}: the third alternative cannot pick both a and b, so the space has no class and no world exists
    a, b = atom("a"), atom("b")
    empty = ChoiceSpace((Alternative((a,)), Alternative((b,)), Alternative((a, b))))
    other = random_product_theory(random.Random(3), 1)
    for spaces in ((empty,), (empty, *other.spaces), (*other.spaces, empty)):
        t = CCLTheory(Program(), spaces, {a: F(1), b: F(1), **other.mu})
        bounds = [credal_bounds_strong_extension, outer_bound] + [credal_bounds_single_space] * (len(spaces) == 1)
        for bound in bounds:
            with pytest.raises(InfeasibleError):
                bound(t, query("a"))


def test_theory_without_spaces_has_one_world():
    doc = parse_ccl("p.\nr :- s.\n")
    for name, value in (("p", F(1)), ("r", F(0)), ("s", F(0))):
        for iv in (credal_bounds_strong_extension(doc.theory, query(name)), outer_bound(doc.theory, query(name))):
            assert (iv.lower, iv.upper) == (value, value), name


def test_icl_theories_have_point_strong_extension():
    rng = random.Random(41)
    for _ in range(15):
        flat = random_single_space_theory(rng, max_alternatives=3)
        t = from_icl(
            flat.program,
            flat.spaces[0].alternatives,
            flat.mu,
        )
        q = random_query(rng, t)
        iv = credal_bounds_strong_extension(t, q)
        assert iv.lower == iv.upper == icl_probability(t, q)


def test_strong_extension_matches_grid_oracle():
    rng = random.Random(53)
    for trial in range(12):
        t = random_two_space_theory(rng)
        if rng.random() < 0.5:
            t, q = with_derived_atom(rng, t)
        else:
            q = random_query(rng, t)
        ws = build_world_space(t)
        iv = credal_bounds_strong_extension(t, q, world_space=ws)
        lo, hi = grid_strong_bounds(t, q, ws, t.mu, steps=60)
        assert abs(float(iv.lower) - lo) <= 2e-3, f"trial {trial}"
        assert abs(float(iv.upper) - hi) <= 2e-3, f"trial {trial}"


def test_merging_never_shrinks_the_interval():
    rng = random.Random(67)
    for _ in range(10):
        t = random_two_space_theory(rng)
        q = random_query(rng, t)
        before = credal_bounds_strong_extension(t, q)
        merged = merge_spaces(t, [0, 1])
        after = credal_bounds_single_space(merged, q)
        assert after.lower <= before.lower
        assert before.upper <= after.upper


def test_friends_merge_monotonicity(data_dir):
    two = load_ccl(data_dir / "friends.ccl").theory
    iv2 = credal_bounds_strong_extension(two, query("h"))
    merged = merge_spaces(two, [0, 1])
    iv1 = credal_bounds_single_space(merged, query("h"))
    assert iv1.lower <= iv2.lower <= iv2.upper <= iv1.upper
    assert (iv1.lower, iv1.upper) == (F(1, 5), F(1, 2))


def test_a_world_space_built_from_another_theory_is_rejected(data_dir):
    # the readouts take their spaces from the world space, so one built from another theory would be misread
    from credalchoice.psat import inner_point

    two = load_ccl(data_dir / "friends.ccl").theory
    merged, q = merge_spaces(two, [0, 1]), query("h")
    iv = credal_bounds_strong_extension(merged, q, world_space=build_world_space(merge_spaces(two, [0, 1])))
    assert (iv.lower, iv.upper) == (F(1, 5), F(1, 2))  # an equal theory's world space is its own
    for theory, other in ((merged, two), (two, merged)):
        ws = build_world_space(other)
        readouts = [
            lambda: credal_bounds_strong_extension(theory, q, world_space=ws),
            lambda: outer_bound(theory, q, world_space=ws),
            lambda: proxy_query_value(theory, q, world_space=ws),
            lambda: proxy_mass_function(theory, world_space=ws),
            lambda: proxy_in_credal_set(theory, world_space=ws),
        ]
        if theory is merged:  # the one-space readouts
            readouts += [lambda: credal_bounds_single_space(theory, q, world_space=ws), lambda: inner_point(theory, q, world_space=ws)]
        for readout in readouts:
            with pytest.raises(ValueError, match="the world space was built from another theory"):
                readout()


# ---------------------------------------------------------------------------
# Outer bound.


def test_friends_outer_bound(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ob = outer_bound(doc.theory, query("h"))
    assert ob.lower == F(8, 25)
    assert ob.method == "outer_bound"
    exact = credal_bounds_strong_extension(doc.theory, query("h"))
    assert ob.lower <= exact.lower
    assert ob.upper >= exact.upper


def test_outer_bound_empty_query_support():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"),)),),
        {atom("a"): F(1, 2), atom("b"): F(1, 2)},
    )
    q = query("a", "b")  # no world selects both
    ob = outer_bound(t, q)
    assert (ob.lower, ob.upper) == (F(0), F(0))


def test_outer_bound_wraps_exact_on_random_theories():
    rng = random.Random(71)
    for _ in range(15):
        t = random_two_space_theory(rng)
        q = random_query(rng, t)
        exact = credal_bounds_strong_extension(t, q)
        ob = outer_bound(t, q)
        assert ob.lower <= exact.lower <= exact.upper <= ob.upper
        assert ob.upper <= 1


def _disjoint_space(rng, prefix):
    """One to four pairwise-disjoint alternatives of one to three atoms each, with masses that may be 0."""
    alts, mu = [], {}
    for i in range(rng.randrange(1, 5)):
        names = [atom(f"{prefix}{i}x{j}") for j in range(rng.randrange(1, 4))]
        weights = [rng.randrange(4) for _ in names]
        weights[rng.randrange(len(names))] += 1  # a positive total
        mu.update((a, F(w, sum(weights))) for a, w in zip(names, weights))
        alts.append(Alternative(tuple(names)))
    return ChoiceSpace(tuple(alts)), mu


def test_outer_bound_closed_form_equals_the_lp_class_by_class():
    # a query naming a class's picked atoms holds in that class's world only, so its outer bound is the class's range
    rng = random.Random(101)
    zero_lows = positive_lows = 0
    for trial in range(500):
        sp, mu = _disjoint_space(rng, "c")
        t = CCLTheory(Program(), (sp,), mu)
        ws = build_world_space(t)
        system = marginal_polytope(ws, 0).feasible_system()
        for j, sel in enumerate(ws.selections[0]):
            lo, hi, den = system.bound_numerators([int(jj == j) for jj in range(system.n)])
            iv = outer_bound(t, query(*(sp.atomic_choices[a] for a in sel)), world_space=ws)
            assert (iv.lower, iv.upper) == (F(lo, den), F(hi, den)), f"trial {trial}, class {j}"
            zero_lows, positive_lows = zero_lows + (0 == lo < hi), positive_lows + (0 < lo < hi)
    assert zero_lows and positive_lows  # both arms of the lower end's max, with room between the ends


def test_outer_bound_solves_lps_for_overlapping_spaces_only(monkeypatch):
    # disjoint spaces read their class ranges in closed form; each overlapping space builds one system
    import credalchoice.lp as lp

    built = []
    original = lp.FeasibleSystem.__init__
    monkeypatch.setattr(lp.FeasibleSystem, "__init__", lambda self, *args: built.append(1) or original(self, *args))
    rng = random.Random(103)
    cases = []
    for _ in range(5):
        t, derived = with_derived_atoms(rng, multispace_theory(rng, 4), 6)
        cases.append((t, query(derived[-1]), 0))
        # shape 2's alternatives share an atom, shapes 0 and 1 are disjoint: both kinds, in any order
        shapes = [(2,), (0, 1), *rng.choices([(2,), (0, 1)], k=rng.randrange(3))]
        rng.shuffle(shapes)
        drawn = [random_low_dim_space(rng, prefix, shape) for prefix, shape in zip("wxyz", shapes)]
        t = CCLTheory(Program(), tuple(sp for sp, _ in drawn), {a: p for _, m in drawn for a, p in m.items()})
        t, derived = with_derived_atoms(rng, t, 6)
        cases.append((t, query(derived[-1]), shapes.count((2,))))
    m = smooth_marginals(counts_from_rankings(parse_rankings("a,b,c x3\na,c,b x5\nb,c,a x4\nc,b,a x1\n")))
    cases.append((*pairwise_query(build_ranking_theory(m), m, 0, 1), 1))
    for t, q, overlapping in cases:
        ws = build_world_space(t)
        built.clear()
        iv = outer_bound(t, q, world_space=ws)
        assert len(built) == overlapping, t.spaces
        assert (iv.lower, iv.upper) == outer_bound_oracle(t, q, ws), t.spaces


def test_outer_bound_is_infeasible_wherever_the_strong_extension_is():
    # a negative mass, or an alternative whose masses sum to 9/10, declared first or last beside valid spaces
    a, b, c, d = (atom(x) for x in "abcd")
    bad = ChoiceSpace((Alternative((a, b)), Alternative((c, d))))
    valid = multispace_theory(random.Random(107), 2)
    for masses in ((F(3, 2), F(-1, 2), F(1, 2), F(1, 2)), (F(1, 3), F(2, 3), F(1, 2), F(2, 5))):
        for spaces in ((bad,), (bad, *valid.spaces), (*valid.spaces, bad)):
            t = CCLTheory(Program(), spaces, {**valid.mu, **dict(zip((a, b, c, d), masses))})
            for bound in (credal_bounds_strong_extension, outer_bound):
                with pytest.raises(InfeasibleError):
                    bound(t, query("a"))
    for bound in (credal_bounds_strong_extension, outer_bound):  # the valid spaces alone are feasible
        bound(valid, query("s0a0"))


# ---------------------------------------------------------------------------
# Independence proxy and the sandwich property.


def test_proxy_equals_icl_on_icl_theories(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    q = doc.queries[0]
    assert proxy_query_value(doc.theory, q) == icl_probability(doc.theory, q)


def test_proxy_query_value_is_the_proxy_mass_of_the_query_worlds():
    # the point value sums the table out space by space; the oracle adds up the satisfying worlds' proxy masses
    rng = random.Random(89)
    zero = ChoiceSpace((alternative("z0", "z1"),))  # z0 has mass 0
    for trial in range(20):
        t = random_product_theory(rng, rng.randrange(1, 5))  # shape-2 spaces have overlapping alternatives
        t = CCLTheory(t.program, (*t.spaces, zero), {**t.mu, atom("z0"): F(0), atom("z1"): F(1)})
        t, derived = with_derived_atoms(rng, t, rng.randrange(1, 4))
        ws = build_world_space(t)
        masses = proxy_mass_function(t, world_space=ws).values
        for q in (random_base_query(rng, t), query(derived[-1]), query(Literal(atom("z0"), False), derived[0]), query("z0")):
            expected = sum((m for w, m in zip(ws.worlds, masses) if satisfies(w, q)), F(0))
            assert proxy_query_value(t, q, world_space=ws) == expected, f"trial {trial}: {q}"


def test_proxy_is_member_for_disjoint_alternatives():
    rng = random.Random(83)
    for _ in range(12):
        t = random_two_space_theory(rng, shapes=(0, 1))
        ws = build_world_space(t)
        assert proxy_in_credal_set(t, world_space=ws)
        mf = proxy_mass_function(t, world_space=ws)
        assert sum(mf.values) == 1


def test_proxy_undefined_when_every_world_has_zero_weight():
    # the only coherent selection is {b, d}, and b has mass 0
    t = parse_ccl(
        "choicespace {\n"
        "  alternative { b: 0, c: 1/2, a: 1/2 }\n"
        "  alternative { c: 1/2, d: 1/2 }\n"
        "  alternative { a: 1/2, d: 1/2 }\n"
        "}"
    ).theory
    assert validate_theory(t).ok
    for proxy in (proxy_mass_function, lambda t: proxy_query_value(t, query("d"))):
        with pytest.raises(ValueError, match="^every world has zero product weight; proxy undefined$"):
            proxy(t)
    assert proxy_in_credal_set(t) is False


def test_sandwich_property():
    rng = random.Random(97)
    for _ in range(15):
        t = random_two_space_theory(rng, shapes=(0, 1))
        if rng.random() < 0.5:
            t, q = with_derived_atom(rng, t)
        else:
            q = random_query(rng, t)
        exact = credal_bounds_strong_extension(t, q)
        ob = outer_bound(t, q)
        point = proxy_query_value(t, q)
        assert ob.lower <= exact.lower <= point <= exact.upper <= ob.upper


def test_sandwich_on_friends(data_dir):
    t = load_ccl(data_dir / "friends.ccl").theory
    q = query("h")
    exact = credal_bounds_strong_extension(t, q)
    ob = outer_bound(t, q)
    point = proxy_query_value(t, q)
    assert ob.lower <= exact.lower <= point <= exact.upper <= ob.upper
    assert point == F(9, 25)
