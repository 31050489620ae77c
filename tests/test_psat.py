"""Boolean encodings, satisfiability decisions, and interval bracketing."""

import itertools
import math
import random
from dataclasses import dataclass
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from conftest import random_query, random_single_space_theory, with_derived_atom
from credalchoice import psat
from credalchoice.errors import CapExceededError, InfeasibleError
from credalchoice.inference import IntervalResult, credal_bounds_single_space
from credalchoice.logic import Program, atom, parse_program, ground
from credalchoice.psat import (
    Assessment,
    BracketState,
    PSATInstance,
    and_,
    bisect_bounds,
    build_psat_instance,
    choice_formula,
    cnf,
    completion_formula,
    enumerate_models,
    export_psat,
    inner_point,
    not_,
    or_,
    psat_decide,
    var_,
    xor_,
)
from credalchoice.theory import (
    CCLTheory,
    ChoiceSpace,
    alternative,
    load_ccl,
    query,
)
from credalchoice.worlds import build_world_space

F = Fraction

CHOICE_NAMES = ["r", "nr", "c", "nc", "w", "nw"]


def eval_cnf(clauses, true_atoms) -> bool:
    return all(
        any((a in true_atoms) == pos for a, pos in cl) for cl in clauses
    )


# ---------------------------------------------------------------------------
# Formula construction and CNF conversion.


def test_formula_str_shapes():
    a, b = var_(atom("a")), var_(atom("b"))
    assert str(and_(a, not_(b))) == "a & ~b"
    assert str(xor_(a, b)) == "a ^ b"
    assert str(or_(a, and_(a, b))) == "a | (a & b)"


def test_xor_is_exactly_one():
    a, b, c = (var_(atom(n)) for n in "abc")
    f = xor_(a, b, c)
    assert f.evaluate({atom("a")})
    assert not f.evaluate({atom("a"), atom("b")})
    assert not f.evaluate(set())
    assert not f.evaluate({atom("a"), atom("b"), atom("c")})


def test_formula_rejects_an_unknown_kind():
    with pytest.raises(ValueError, match="^unknown formula kind 'nand'$"):
        psat.Formula("nand").evaluate(frozenset())


def test_unary_xor_is_the_variable():
    f = xor_(var_(atom("a")))
    assert f.evaluate({atom("a")})
    assert not f.evaluate(set())


def test_cnf_of_xor_pairwise_encoding():
    f = xor_(*(var_(atom(n)) for n in "abc"))
    clauses = cnf(f)
    # one at-least-one clause and three pairwise exclusions
    assert len(clauses) == 4


def test_cnf_of_xor_pairwise_on_compound_operands():
    # the disjunction of the operands, distributed, then each pair's conjunction negated
    a, b, c, d = (atom(n) for n in "abcd")
    assert cnf(xor_(and_(var_(a), var_(b)), var_(c), var_(d))) == (
        ((a, True), (c, True), (d, True)),
        ((b, True), (c, True), (d, True)),
        ((a, False), (b, False), (c, False)),
        ((a, False), (b, False), (d, False)),
        ((c, False), (d, False)),
    )


formula_st = st.deferred(
    lambda: st.one_of(
        st.sampled_from("abcd").map(lambda n: var_(atom(n))),
        st.tuples(formula_st).map(lambda t: not_(t[0])),
        st.lists(formula_st, min_size=1, max_size=3).map(lambda l: and_(*l)),
        st.lists(formula_st, min_size=1, max_size=3).map(lambda l: or_(*l)),
        st.lists(formula_st, min_size=1, max_size=3).map(lambda l: xor_(*l)),
    )
)


@given(formula_st)
@settings(max_examples=120, deadline=None)
def test_cnf_equivalent_to_formula(f):
    atoms = sorted(set(f.atoms()))
    clauses = cnf(f)
    for bits in itertools.product([False, True], repeat=len(atoms)):
        true_atoms = {a for a, b in zip(atoms, bits) if b}
        assert f.evaluate(true_atoms) == eval_cnf(clauses, true_atoms)


def test_cnf_clause_cap():
    # an xor of six xors: its operands' disjunction distributes their two clauses each into 2**6 = 64, past the cap
    f = xor_(*(xor_(var_(atom(f"x{i}")), var_(atom(f"y{i}"))) for i in range(6)))
    with pytest.raises(CapExceededError):
        cnf(f, cap=50)


@pytest.mark.parametrize(
    "f, cap, raised_in",
    [
        (and_(*(var_(atom(f"x{i}")) for i in range(5))), 3, "clauses_of"),  # one clause per conjunct
        (xor_(*(var_(atom(f"x{i}")) for i in range(4))), 5, "cnf"),  # 1 + 6 pairwise clauses
    ],
    ids=["conjunction", "final-count"],
)
def test_cnf_cap_in_each_branch(f, cap, raised_in):
    with pytest.raises(CapExceededError, match=f"^CNF grew past {cap} clauses$") as exc:
        cnf(f, cap=cap)
    assert exc.traceback[-1].name == raised_in


# ---------------------------------------------------------------------------
# Model enumeration.


def test_enumerate_models_of_simple_formula():
    a, b = atom("a"), atom("b")
    models = enumerate_models([or_(var_(a), var_(b))], [a, b])
    assert sorted(models, key=sorted) == sorted(
        [frozenset({a}), frozenset({b}), frozenset({a, b})], key=sorted
    )


def test_enumerate_models_respects_extra_variables():
    a, b = atom("a"), atom("b")
    models = enumerate_models([var_(a)], [a, b])
    assert len(models) == 2  # b free


def test_enumerate_models_of_a_formula_with_the_empty_clause_is_empty():
    a = atom("a")
    assert enumerate_models([or_()]) == []
    assert enumerate_models([and_(var_(a), or_())]) == []
    assert not psat_decide(PSATInstance((Assessment(or_(), F(1)),)))


# like formula_st, but a connective may have no child: and_() is truth, or_() and xor_() falsity
childless_formula_st = st.deferred(
    lambda: st.one_of(
        st.sampled_from("abc").map(lambda n: var_(atom(n))),
        st.tuples(childless_formula_st).map(lambda t: not_(t[0])),
        st.lists(childless_formula_st, max_size=2).map(lambda l: and_(*l)),
        st.lists(childless_formula_st, max_size=2).map(lambda l: or_(*l)),
        st.lists(childless_formula_st, max_size=2).map(lambda l: xor_(*l)),
    )
)


@given(st.lists(childless_formula_st, max_size=3))
@settings(max_examples=150, deadline=None)
def test_enumerate_models_equals_brute_force_over_assignments(formulas):
    # in product order: the sorted variables, the first slowest, False before True
    atoms = [atom(n) for n in "abc"]
    assignments = (frozenset(itertools.compress(atoms, bits)) for bits in itertools.product((False, True), repeat=3))
    expected = [m for m in assignments if all(f.evaluate(m) for f in formulas)]
    assert enumerate_models(formulas, atoms) == expected


def test_enumerate_models_var_cap():
    atoms = [atom(f"v{i}") for i in range(30)]
    with pytest.raises(CapExceededError):
        enumerate_models([], atoms, var_cap=24)


# ---------------------------------------------------------------------------
# Completion and choice encodings.


def friends_ground():
    return ground(
        parse_program("p :- c.\np :- r.\nh :- \\+ p, nw."),
        [],
        extra_atoms=[atom(n) for n in CHOICE_NAMES],
    )


def test_completion_matches_stable_models_exhaustively():
    from credalchoice.logic import stable_model

    gp = friends_ground()
    opened = [atom(n) for n in CHOICE_NAMES]
    f = completion_formula(gp, opened)
    for bits in itertools.product([False, True], repeat=len(opened)):
        facts = frozenset(a for a, b in zip(opened, bits) if b)
        m = stable_model(gp, facts)
        model_atoms = frozenset(m.true_atoms)
        # the completion must accept exactly the stable extension of the facts
        assert f.evaluate(model_atoms)
        for h in [atom("p"), atom("h")]:
            flipped = model_atoms ^ {h}
            assert not f.evaluate(flipped)


def test_completion_of_empty_program_is_true():
    gp = ground(Program(), [])
    f = completion_formula(gp)
    assert f.evaluate(set())


def test_completion_forces_closed_atoms_false():
    gp = ground(parse_program("p :- q."), [], extra_atoms=[atom("z")])
    f = completion_formula(gp)  # nothing open: q and z forced false, so p too
    assert f.evaluate(set())
    assert not f.evaluate({atom("z")})
    assert not f.evaluate({atom("q")})


def test_completion_pairwise_query_program():
    names = ["h1", "h2", "h3"]
    clauses = []
    for j1 in range(1, 4):
        for j2 in range(j1 + 1, 4):
            clauses.append(f"q :- r{j1}(h1), r{j2}(h2).")
    program = parse_program("\n".join(clauses))
    pos_atoms = [atom(f"r{j}", n) for j in range(1, 4) for n in names]
    gp = ground(program, [], extra_atoms=pos_atoms)
    f = completion_formula(gp, pos_atoms)
    # h1 first, h2 second: q must hold
    world = {atom("r1", "h1"), atom("r2", "h2"), atom("r3", "h3")}
    assert f.evaluate(world | {atom("q")})
    assert not f.evaluate(world)
    # h2 first, h1 second: q must not hold
    world2 = {atom("r1", "h2"), atom("r2", "h1"), atom("r3", "h3")}
    assert f.evaluate(world2)
    assert not f.evaluate(world2 | {atom("q")})


def test_choice_formula_models_count_urn(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    f = choice_formula(doc.theory.spaces[0])
    models = enumerate_models([f])
    assert len(models) == 9


def test_choice_formula_single_alternative():
    space = ChoiceSpace((alternative("a"),))
    f = choice_formula(space)
    assert f.evaluate({atom("a")})
    assert not f.evaluate(set())


def test_choice_formula_ranking_space_has_permutation_models():
    names = ["h1", "h2", "h3"]
    per_object = [alternative(*(atom(f"r{j}", n) for j in range(1, 4))) for n in names]
    per_position = [alternative(*(atom(f"r{j}", n) for n in names)) for j in range(1, 4)]
    space = ChoiceSpace(tuple(per_object + per_position))
    models = enumerate_models([choice_formula(space)])
    assert len(models) == 6


def test_world_model_bijection_on_bundled_theories(data_dir):
    for name in ["urn-merged.ccl", "friends-merged.ccl", "friends.ccl"]:
        t = load_ccl(data_dir / name).theory
        opened = [a for sp in t.spaces for a in sp.atomic_choices]
        hard = and_(
            *(choice_formula(sp) for sp in t.spaces),
            completion_formula(t.ground_program, opened),
        )
        models = set(enumerate_models([hard], sorted(t.herbrand_base)))
        worlds = {frozenset(w.model.true_atoms) for w in build_world_space(t).worlds}
        assert models == worlds, name


# ---------------------------------------------------------------------------
# Instances and decisions.


def test_instance_assessment_count(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    inst = build_psat_instance(doc.theory, doc.queries[0], F(3, 5))
    assert len(inst.assessments) == 1 + 6 + 1
    assert inst.assessments[0].prob == 1
    assert [a.prob for a in inst.assessments[1:7]] == [
        F(3, 5), F(3, 10), F(1, 10), F(1, 5), F(7, 20), F(9, 20),
    ]
    assert inst.assessments[-1].prob == F(3, 5)


def test_instance_rejects_bad_alpha(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    with pytest.raises(ValueError):
        build_psat_instance(doc.theory, doc.queries[0], F(3, 2))


def test_instance_requires_single_space(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    with pytest.raises(ValueError):
        build_psat_instance(doc.theory, doc.queries[0], F(1, 2))


def test_decide_at_known_interval_points(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    t, q = doc.theory, doc.queries[0]
    expected = {
        F(1, 2): True,   # lower endpoint, closed
        F(7, 10): True,  # upper endpoint, closed
        F(3, 5): True,
        F(3, 4): False,
        F(1, 4): False,
        F(0): False,
        F(1): False,
    }
    for alpha, want in expected.items():
        assert psat_decide(build_psat_instance(t, q, alpha)) is want, alpha


def test_decide_zero_probability_of_contradiction():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"),)),),
        {atom("a"): F(1, 2), atom("b"): F(1, 2)},
    )
    q = query("a", "b")  # never satisfiable under exactly-one
    assert psat_decide(build_psat_instance(t, q, F(0)))
    assert not psat_decide(build_psat_instance(t, q, F(1, 10)))


def test_decide_friends_merged_known_member(data_dir):
    doc = load_ccl(data_dir / "friends-merged.ccl")
    inst = build_psat_instance(doc.theory, doc.queries[0], F(9, 25))
    assert psat_decide(inst)  # the independent product witnesses 0.36


def test_inconsistent_plain_instance():
    x = atom("x")
    inst = PSATInstance(
        (Assessment(var_(x), F(3, 10)), Assessment(not_(var_(x)), F(4, 5)))
    )
    assert not psat_decide(inst)


def test_consistent_plain_instance():
    x = atom("x")
    inst = PSATInstance(
        (Assessment(var_(x), F(3, 10)), Assessment(not_(var_(x)), F(7, 10)))
    )
    assert psat_decide(inst)


def test_grid_agreement_with_lp_interval(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    t, q = doc.theory, doc.queries[0]
    iv = credal_bounds_single_space(t, q)
    for i in range(21):
        alpha = F(i, 20)
        want = iv.lower <= alpha <= iv.upper
        assert psat_decide(build_psat_instance(t, q, alpha)) is want, alpha


# ---------------------------------------------------------------------------
# Inner point and bisection.


def test_inner_point_lies_in_interval(data_dir):
    for name in ["urn-merged.ccl", "friends-merged.ccl"]:
        doc = load_ccl(data_dir / name)
        t, q = doc.theory, doc.queries[0]
        iv = credal_bounds_single_space(t, q)
        point = inner_point(t, q)
        assert iv.lower <= point <= iv.upper
        assert psat_decide(build_psat_instance(t, q, point))


def test_inner_point_on_point_mass_theory():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"), alternative("c", "d"))),),
        {atom("a"): F(1), atom("b"): F(0), atom("c"): F(3, 10), atom("d"): F(7, 10)},
    )
    q = query("a", "c")
    assert inner_point(t, q) == F(3, 10)


def test_urn_membership_of_icl_value(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    inst = build_psat_instance(doc.theory, doc.queries[0], F(14, 25))
    assert psat_decide(inst)  # 0.56 sits inside [0.5, 0.7]


def test_bisect_urn_merged(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    t, q = doc.theory, doc.queries[0]
    eps = F(1, 1024)
    state = BracketState(eps)
    iv = bisect_bounds(t, q, eps, state=state)
    assert iv.method == "psat_bisect"
    assert iv.epsilon == eps
    assert iv.lower <= F(1, 2) <= F(7, 10) <= iv.upper
    assert F(1, 2) - iv.lower <= eps
    assert iv.upper - F(7, 10) <= eps
    assert len(state.probes) <= 24


def test_bisect_friends_merged(data_dir):
    doc = load_ccl(data_dir / "friends-merged.ccl")
    eps = F(1, 1024)
    state = BracketState(eps)
    iv = bisect_bounds(doc.theory, doc.queries[0], eps, state=state)
    assert iv.lower <= F(1, 5) <= F(1, 2) <= iv.upper
    assert F(1, 5) - iv.lower <= eps
    assert iv.upper - F(1, 2) <= eps
    assert len(state.probes) <= 24


def test_bisect_probe_log_is_consistent(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    t, q = doc.theory, doc.queries[0]
    iv_exact = credal_bounds_single_space(t, q)
    state = BracketState()
    bisect_bounds(t, q, state=state)
    for alpha, sat in state.probes:
        inside = iv_exact.lower <= alpha <= iv_exact.upper
        assert sat is inside, (alpha, sat)


def test_bisect_exact_boundary_shortcuts():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"),)),),
        {atom("a"): F(2, 5), atom("b"): F(3, 5)},
    )
    eps = F(1, 1024)
    # always-true query, interval [1, 1]: the SAT probe at 1 settles the
    # upper endpoint exactly; the lower side still needs bisection
    state = BracketState()
    iv = bisect_bounds(t, query(), eps, state=state)
    assert iv.upper == F(1)
    assert F(1) - iv.lower <= eps
    assert (F(1), True) in state.probes
    # never-true query, interval [0, 0]: symmetric
    q = query("a", "b")
    state2 = BracketState()
    iv2 = bisect_bounds(t, q, eps, state=state2)
    assert iv2.lower == F(0)
    assert iv2.upper <= eps
    assert (F(0), True) in state2.probes


def test_bisect_degenerate_interval_width():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"), alternative("c", "d"))),),
        {atom("a"): F(1), atom("b"): F(0), atom("c"): F(3, 10), atom("d"): F(7, 10)},
    )
    q = query("a", "c")
    eps = F(1, 1024)
    iv = bisect_bounds(t, q, eps)
    assert iv.upper - iv.lower <= 2 * eps
    assert iv.lower <= F(3, 10) <= iv.upper


def _assert_probes_match_decide(t, q, state):
    for alpha, answer in state.probes:
        assert answer is psat_decide(build_psat_instance(t, q, alpha)), alpha


def test_bisect_probes_match_psat_decide_on_random_theories():
    rng = random.Random(61)
    for trial in range(120):
        t = random_single_space_theory(rng)
        q = random_query(rng, t)
        if trial % 2:
            t, q = with_derived_atom(rng, t)
        state = BracketState()
        bisect_bounds(t, q, F(1, 64), state=state)
        assert state.probes, trial
        _assert_probes_match_decide(t, q, state)


def test_bisect_answers_false_when_the_assessments_conflict():
    # masses summing to 3/4: no distribution meets them, at any probe
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"),)),),
        {atom("a"): F(1, 2), atom("b"): F(1, 4)},
    )
    q = query("a")
    with pytest.raises(InfeasibleError):
        bisect_bounds(t, q, F(1, 16))
    for alpha in (F(0), F(1, 4), F(1, 2), F(3, 4), F(1)):
        assert not psat_decide(build_psat_instance(t, q, alpha)), alpha


def test_bisect_builds_one_world_space_and_never_decides(data_dir, monkeypatch):
    calls = {"build_world_space": 0, "enumerate_models": 0, "psat_decide": 0}

    def counting(name):
        original = getattr(psat, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        return wrapper

    for name in calls:
        monkeypatch.setattr(psat, name, counting(name))
    doc = load_ccl(data_dir / "friends-merged.ccl")
    state = BracketState()
    bisect_bounds(doc.theory, doc.queries[0], state=state)
    assert len(state.probes) > 2
    assert calls == {"build_world_space": 1, "enumerate_models": 0, "psat_decide": 0}


def reference_bracket(mid, lo, hi, epsilon, st):
    """The bisection of ``psat.bracket`` in ``Fraction`` arithmetic, recording into ``st``."""
    st.epsilon = epsilon

    def probe(alpha):
        result = lo <= alpha <= hi
        st.probes.append((alpha, result))
        return result

    if probe(F(0)):
        lower = F(0)
    else:
        sat, lower = mid, F(0)
        while sat - lower > epsilon:
            alpha = (sat + lower) / 2
            if probe(alpha):
                sat = alpha
            else:
                lower = alpha
    if probe(F(1)):
        upper = F(1)
    else:
        sat, upper = mid, F(1)
        while upper - sat > epsilon:
            alpha = (sat + upper) / 2
            if probe(alpha):
                sat = alpha
            else:
                upper = alpha
    return IntervalResult(lower, upper, "psat_bisect", epsilon)


@dataclass
class StandInSystem:
    """A one-column ``FeasibleSystem`` stand-in: its phase-one point is ``mid``, and every row's ends are ``ends``."""

    mid: F
    ends: tuple[int, int, int]

    def point_numerators(self):
        return [self.mid.numerator], self.mid.denominator

    def bound_numerators(self, row):
        return self.ends


def test_integer_bracket_matches_the_fraction_bisection():
    rng = random.Random(1024)
    epsilons = [F(1, 1024), F(1, 64), F(1, 3), F(2, 7), F(1), F(3, 2), F(1, 1000)]
    shapes = set()
    for trial in range(400):
        den = rng.choice([1, 2, 3, 7, 10, 12, 97, 360, 1024])
        lo, mid, hi = sorted(F(rng.randint(0, den), den) for _ in range(3))
        shape = trial % 4
        if shape == 1:
            lo = F(0)
        elif shape == 2:
            hi = F(1)
        elif shape == 3:
            lo = hi = mid
        eps = rng.choice(epsilons) if trial % 5 else F(rng.randint(1, 9), rng.randint(1, 9))
        shapes.add((lo == 0, hi == 1, lo == hi, eps >= 1))
        want = BracketState()
        expected = reference_bracket(mid, lo, hi, eps, want)
        # the integer forms, the ends over a multiple of their least denominator as ``bound_numerators`` may give them
        over = math.lcm(lo.denominator, hi.denominator) * rng.randint(1, 3)
        system = StandInSystem(mid, (int(lo * over), int(hi * over), over))
        got = BracketState()
        assert psat.bracket(system, [1], eps, got) == expected, (trial, mid, lo, hi, eps)
        assert got == want, (trial, mid, lo, hi, eps)
        assert psat.bracket(system, [1], eps) == expected, (trial, mid, lo, hi, eps)
    assert len(shapes) >= 10, shapes


def test_bisect_rejects_nonpositive_epsilon(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    with pytest.raises(ValueError):
        bisect_bounds(doc.theory, doc.queries[0], F(0))


def no_lp_work(*args, **kwargs):
    raise AssertionError("LP work began before epsilon was checked")


@pytest.mark.parametrize("eps", [F(0), F(-1, 1024)])
def test_bisect_rejects_nonpositive_epsilon_before_any_lp_work(data_dir, monkeypatch, eps):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    monkeypatch.setattr(psat, "build_world_space", no_lp_work)
    monkeypatch.setattr(psat.lp, "FeasibleSystem", no_lp_work)
    with pytest.raises(ValueError, match="epsilon must be positive"):
        bisect_bounds(doc.theory, doc.queries[0], eps)


# ---------------------------------------------------------------------------
# Export.


def test_export_lists_assessments_and_dimacs(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    inst = build_psat_instance(doc.theory, doc.queries[0], F(1, 2))
    text = export_psat(inst)
    lines = text.splitlines()
    assert lines[0].startswith("1/1 ")
    assert any(l.startswith("3/5 a1r") for l in lines)
    header = next(l for l in lines if l.startswith("p cnf "))
    _, _, nvars, nclauses = header.split()
    clause_lines = [l for l in lines[lines.index(header) + 1:] if l]
    assert len(clause_lines) == int(nclauses)
    for cl in clause_lines:
        nums = [int(v) for v in cl.split()]
        assert nums[-1] == 0
        assert all(1 <= abs(v) <= int(nvars) for v in nums[:-1])


def test_export_mentions_every_variable(data_dir):
    doc = load_ccl(data_dir / "urn-merged.ccl")
    inst = build_psat_instance(doc.theory, doc.queries[0], F(1, 2))
    text = export_psat(inst)
    for name in ["a1r", "a1g", "a1b", "a2r", "a2g", "a2b"]:
        assert f" = {name}" in text
