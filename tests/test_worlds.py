"""World enumeration: coherence, canonical order, classes, and caps."""

import itertools
import math
import random
from fractions import Fraction

import pytest
from conftest import naive_stable_model, random_base_query, random_product_theory, with_derived_atoms

from credalchoice import inference, logic, worlds
from credalchoice.inference import (
    credal_bounds_single_space,
    credal_bounds_strong_extension,
    icl_probability,
    outer_bound,
    proxy_query_value,
    QueryGroups,
)
from credalchoice.psat import bisect_bounds
from credalchoice.errors import CapExceededError
from credalchoice.logic import Clause, Literal, Program, atom
from credalchoice.theory import (
    Alternative,
    CCLTheory,
    ChoiceSpace,
    alternative,
    load_ccl,
    parse_ccl,
    query,
)
from credalchoice.worlds import (
    build_world_space,
    coherent_partial_choices,
    enumerate_total_choices,
    satisfies,
    set_bits,
    world_table,
)

F = Fraction


def brute_force_coherent(space: ChoiceSpace) -> list[tuple]:
    """The tuples of ``itertools.product`` over the alternatives' atoms whose
    picks are pairwise coherent, in product order.

    Coherence is pairwise, so a tuple is kept exactly when each of its
    prefixes is: the product is filtered prefix by prefix, which keeps the
    n = 5 ranking space (5**10 tuples) cheap and changes neither the result
    nor its order.
    """
    alts = space.alternatives

    def coherent(k: int, sel_k, i: int, sel_i) -> bool:
        return sel_k == sel_i or (sel_k not in alts[i].atom_set and sel_i not in alts[k].atom_set)

    kept = [()]
    for i, alt in enumerate(alts):
        kept = [
            prefix + (a,)
            for prefix in kept
            for a in alt.atoms
            if all(coherent(k, sel, i, a) for k, sel in enumerate(prefix))
        ]
    return kept


def ranking_space(n: int) -> ChoiceSpace:
    objects = [f"h{i}" for i in range(1, n + 1)]
    per_object = [
        Alternative(tuple(atom(f"r{j}", o) for j in range(1, n + 1))) for o in objects
    ]
    per_position = [
        Alternative(tuple(atom(f"r{j}", o) for o in objects)) for j in range(1, n + 1)
    ]
    return ChoiceSpace(tuple(per_object + per_position))


def test_urn_has_nine_total_choices(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    assert len(enumerate_total_choices(doc.theory)) == 9


def test_friends_worlds_in_canonical_order(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    images = [sorted(str(a) for a in w.choice.image) for w in ws.worlds]
    assert images == [
        ["c", "r", "w"], ["c", "nw", "r"], ["nc", "r", "w"], ["nc", "nw", "r"],
        ["c", "nr", "w"], ["c", "nr", "nw"], ["nc", "nr", "w"], ["nc", "nr", "nw"],
    ]
    h = atom("h")
    truth = [w.model.is_true(h) for w in ws.worlds]
    assert truth == [False] * 7 + [True]


def test_friends_worlds_satisfy_p_up_to_six(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    p = atom("p")
    assert [w.model.is_true(p) for w in ws.worlds] == [True] * 6 + [False] * 2


def test_image_atoms_true_in_world(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    for w in build_world_space(doc.theory).worlds:
        for a in w.choice.image:
            assert w.model.is_true(a)


def test_ranking_space_coherent_choices_are_permutations():
    space = ranking_space(3)
    got = coherent_partial_choices(space)
    assert len(got) == 6
    assert {pc.selected for pc in got} == set(brute_force_coherent(space))


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_brute_force_agreement_on_small_ranking_spaces(n):
    space = ranking_space(n)
    got = [pc.selected for pc in coherent_partial_choices(space)]
    assert len(got) == math.factorial(n)
    assert got == brute_force_coherent(space)


def test_ranking_space_selections_are_permutations_in_order_at_n6():
    # brute force cannot reach n = 6: the per-object picks must list every permutation, in order
    got = coherent_partial_choices(ranking_space(6))
    positions = [tuple(int(a.relation[1:]) - 1 for a in pc.selected[:6]) for pc in got]
    assert positions == list(itertools.permutations(range(6)))
    assert all(pc.selected[6:] == tuple(pc.selected[p.index(j)] for j in range(6)) for pc, p in zip(got, positions))


def random_overlapping_space(rng: random.Random) -> ChoiceSpace:
    pool = [atom(f"a{i}") for i in range(rng.randint(1, 6))]
    return ChoiceSpace(
        tuple(
            Alternative(tuple(rng.sample(pool, rng.randint(1, min(3, len(pool))))))
            for _ in range(rng.randint(1, 5))
        )
    )


def test_coherent_choices_equal_product_filter_on_random_spaces():
    rng = random.Random(11)
    for trial in range(400):
        space = random_overlapping_space(rng)
        got = coherent_partial_choices(space, 3)
        assert [pc.selected for pc in got] == brute_force_coherent(space), f"trial {trial}"
        assert all(pc.space_index == 3 and pc.image == frozenset(pc.selected) for pc in got)


def test_coherent_choice_image_consistency():
    space = ChoiceSpace((alternative("a", "b"), alternative("a", "c")))
    selections = {pc.selected for pc in coherent_partial_choices(space)}
    # picking a in either alternative forces a in the other, so (b, a)
    # and (a, c) are out
    assert selections == {(atom("a"), atom("a")), (atom("b"), atom("c"))}
    assert selections == set(brute_force_coherent(space))


def test_forced_picks_leave_out_an_alternative_holding_two_picked_atoms():
    # {a, c} holds the picks of both earlier alternatives when they pick a and c: no selection does
    space = ChoiceSpace((alternative("a", "b"), alternative("c", "d"), alternative("a", "c")))
    a, b, c, d = map(atom, "abcd")
    got = [pc.selected for pc in coherent_partial_choices(space)]
    assert got == [(a, d, a), (b, c, c)]
    assert not any(a in sel and c in sel for sel in got)
    assert got == brute_force_coherent(space)


def test_classes_partition_worlds(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    assert len(ws.classes_by_space) == 2
    omega1, omega2 = ws.classes_by_space
    assert [sorted(str(a) for a in c.partial.image) for c in omega1] == [
        ["c", "r"], ["nc", "r"], ["c", "nr"], ["nc", "nr"],
    ]
    assert [c.world_indices for c in omega1] == [(0, 1), (2, 3), (4, 5), (6, 7)]
    assert len(omega2) == 2
    for classes in ws.classes_by_space:
        seen = sorted(i for c in classes for i in c.world_indices)
        assert seen == list(range(len(ws.worlds)))


def test_profiles_index_the_classes(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    assert len(ws.profiles) == len(ws.worlds)
    for w, profile in zip(ws.worlds, ws.profiles):
        assert len(profile) == len(ws.classes_by_space)
        for classes, part, j in zip(ws.classes_by_space, w.choice.parts, profile):
            assert classes[j].partial == part
            assert w.index in classes[j].world_indices


def test_world_space_checks_acyclicity_once(data_dir, monkeypatch):
    calls = []
    real = logic.check_acyclic

    def counting(gp):
        calls.append(gp)
        return real(gp)

    monkeypatch.setattr(logic, "check_acyclic", counting)
    t = load_ccl(data_dir / "friends.ccl").theory
    first = build_world_space(t)
    second = build_world_space(t)
    assert len(first.worlds) == 8
    assert first == second
    assert len(calls) == 1


def test_world_space_builds_no_world_until_read(data_dir, monkeypatch):
    evaluated, built = [], []
    real_evaluate, real_world = logic.GroundProgram.evaluate, worlds.World

    def counting_evaluate(gp, columns, every):
        evaluated.append(every)
        return real_evaluate(gp, columns, every)

    def counting_world(*args):
        built.append(args[0])
        return real_world(*args)

    monkeypatch.setattr(logic.GroundProgram, "evaluate", counting_evaluate)
    monkeypatch.setattr(worlds, "World", counting_world)
    t = load_ccl(data_dir / "friends.ccl").theory
    ws = build_world_space(t)
    # one evaluator pass over all eight worlds at once
    assert evaluated == [2**8 - 1] and built == []
    assert QueryGroups(ws, query(atom("h"))).hits.bit_count() == 1 and built == []
    first = ws.worlds
    assert len(first) == 8 and built == list(range(8))
    assert ws.worlds is first and len(built) == 8
    build_world_space(t)
    assert len(evaluated) == 2


def test_bounds_decode_no_partial_choice_or_class(data_dir, monkeypatch):
    built = []

    def counting(cls):
        real = cls.__init__

        def init(self, *args):
            built.append(cls.__name__)
            real(self, *args)

        return init

    for cls in (worlds.PartialChoice, worlds.WorldClass):
        monkeypatch.setattr(cls, "__init__", counting(cls))
    doc, merged = load_ccl(data_dir / "friends.ccl"), load_ccl(data_dir / "friends-merged.ccl")
    t, q = doc.theory, doc.queries[0]
    ws = build_world_space(t)
    credal_bounds_strong_extension(t, q, world_space=ws)
    outer_bound(t, q, world_space=ws)
    credal_bounds_strong_extension(t, q)
    outer_bound(t, q)
    bisect_bounds(merged.theory, merged.queries[0])
    credal_bounds_single_space(merged.theory, merged.queries[0])
    assert built == []
    # decoded on first read, equal to the public enumeration
    parts = [[cls.partial for cls in classes] for classes in ws.classes_by_space]
    assert parts == [coherent_partial_choices(sp, i) for i, sp in enumerate(t.spaces)]
    assert ws.profiles == tuple(itertools.product(*(range(len(classes)) for classes in ws.classes_by_space)))
    assert built.count("WorldClass") == sum(map(len, parts)) == 6


def test_world_models_and_query_filter_match_naive_oracle():
    rng = random.Random(83)
    shapes = set()
    for trial in range(40):
        t = random_product_theory(rng, rng.randrange(0, 5))
        t, derived = with_derived_atoms(rng, t, rng.randrange(1, 6))
        # a fact (an empty body), then one more body for a derived head, over atoms below it
        k = rng.randrange(len(derived))
        pool = sorted(t.atomic_choices) + derived[:k]
        body = tuple(Literal(a, rng.random() < 0.5) for a in rng.sample(pool, min(2, len(pool))))
        extra = [Clause(atom("f")), Clause(derived[k], body)]
        t = CCLTheory(t.program.extend(extra), t.spaces, t.mu)
        shapes.add(len(t.spaces))
        gp = t.ground_program
        ws = build_world_space(t)
        assert len(ws.worlds) == math.prod(len(coherent_partial_choices(sp)) for sp in t.spaces)
        for si, classes in enumerate(ws.classes_by_space):
            for j, cls in enumerate(classes):
                assert cls.world_indices == tuple(i for i, p in enumerate(ws.profiles) if p[si] == j)
        for w in ws.worlds:
            assert w.model.true_atoms == naive_stable_model(gp, w.choice.image), f"trial {trial}"
        for _ in range(3):
            q = random_base_query(rng, t)
            want = [ws.profiles[w.index] for w in ws.worlds if satisfies(w, q)]
            assert [ws.profiles[i] for i in set_bits(QueryGroups(ws, q).hits)] == want, f"trial {trial}: {q}"
    assert shapes == {0, 1, 2, 3, 4}


def test_class_intersection_identifies_world(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    for w in ws.worlds:
        pools = []
        for classes, part in zip(ws.classes_by_space, w.choice.parts):
            match = [set(c.world_indices) for c in classes if c.partial == part]
            assert len(match) == 1
            pools.append(match[0])
        common = set.intersection(*pools)
        assert common == {w.index}


def test_single_space_classes_are_singleton_worlds(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    ws = build_world_space(doc.theory)
    assert len(ws.classes_by_space) == 1
    assert all(len(c.world_indices) == 1 for c in ws.classes_by_space[0])


def test_class_blocks_hold_the_worlds_of_each_class():
    rng = random.Random(26)
    for _ in range(40):
        t = random_product_theory(rng, rng.randint(0, 4))
        ws = build_world_space(t)
        blocks = worlds.class_blocks(ws.n_worlds, [len(sels) for sels in ws.selections])
        assert len(blocks) == len(t.spaces)
        for s, (stride, block) in enumerate(blocks):
            for j in range(len(ws.selections[s])):
                members = block << j * stride
                assert [members >> i & 1 for i in range(ws.n_worlds)] == [int(p[s] == j) for p in ws.profiles]
                assert tuple(worlds.set_bits(members)) == ws.classes_by_space[s][j].world_indices


def test_a_theory_at_the_world_cap_builds_and_bounds_exactly(monkeypatch):
    spaces = "".join(f"choicespace {{ alternative {{ a{i}: 1/3, b{i}: 2/3 }} }}\n" for i in range(20))
    doc = parse_ccl("q :- a0, b1.\n" + spaces + "query q.\n")
    ws = build_world_space(doc.theory)
    assert ws.n_worlds == worlds.DEFAULT_WORLD_CAP == 2**20
    # every fold sums out from the query's grouped table, so its size bounds every table the kernel makes
    sizes, real_fold = [], inference.QueryGroups.fold
    monkeypatch.setattr(inference.QueryGroups, "fold", lambda self, *a, **kw: sizes.append(len(self._table)) or real_fold(self, *a, **kw))
    for bound in (credal_bounds_strong_extension, outer_bound):
        r = bound(doc.theory, doc.queries[0], world_space=ws)
        assert (r.lower, r.upper) == (F(2, 9), F(2, 9))
    for point in (proxy_query_value, icl_probability):
        assert point(doc.theory, doc.queries[0], world_space=ws) == F(2, 9)
    # the query reads spaces 0 and 1 through two groups each and the other 18 through one: no table is per world
    assert sizes and max(sizes) <= 4


def test_world_count_is_product_of_class_counts():
    t = CCLTheory(
        Program(),
        (
            ChoiceSpace((alternative("a", "b"), alternative("b", "c"))),
            ChoiceSpace((alternative("x", "y"),)),
        ),
        {
            atom("a"): F(1, 4), atom("b"): F(1, 2), atom("c"): F(1, 4),
            atom("x"): F(1, 3), atom("y"): F(2, 3),
        },
    )
    ws = build_world_space(t)
    expected = 1
    for sp in t.spaces:
        expected *= len(coherent_partial_choices(sp))
    assert len(ws.worlds) == expected


def test_space_without_coherent_selection_leaves_no_world():
    t = CCLTheory(
        Program(),
        (
            ChoiceSpace((alternative("x", "y"),)),
            ChoiceSpace((alternative("a", "b"), alternative("a", "c"), alternative("b", "c"))),
        ),
        {a: F(1, 2) for a in map(atom, "xyabc")},
    )
    ws = build_world_space(t)
    assert ws.worlds == () and ws.profiles == ()
    assert ws.classes_by_space == ((), ())


def test_satisfies_counts_urn_query(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    ws = build_world_space(doc.theory)
    q = doc.queries[0]
    assert sum(1 for w in ws.worlds if satisfies(w, q)) == 4


def test_empty_query_satisfied_everywhere(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    ws = build_world_space(doc.theory)
    empty = query()
    assert all(satisfies(w, empty) for w in ws.worlds)


def test_world_cap_enforced(data_dir):
    doc = load_ccl(data_dir / "urn.ccl")
    with pytest.raises(CapExceededError):
        enumerate_total_choices(doc.theory, cap=8)
    with pytest.raises(CapExceededError):
        build_world_space(doc.theory, cap=8)


def test_partial_choice_cap_enforced():
    space = ranking_space(5)
    with pytest.raises(CapExceededError):
        coherent_partial_choices(space, cap=100)


def test_world_table_is_readable(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    ws = build_world_space(doc.theory)
    table = world_table(ws)
    lines = table.splitlines()
    assert lines[0].split() == [f"w{i}" for i in range(1, 9)]
    row = {l.split()[0]: l.split()[1:] for l in lines[1:]}
    assert row["h"] == ["f"] * 7 + ["t"]
    assert row["r"] == ["t"] * 4 + ["f"] * 4
