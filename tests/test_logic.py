"""Parser, grounder, acyclicity check, and stable-model evaluation."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from credalchoice.errors import CyclicityError, ParseError, UnknownAtomError
from credalchoice.logic import (
    Atom,
    Clause,
    GroundProgram,
    Interpretation,
    Literal,
    Program,
    Term,
    atom,
    check_acyclic,
    ground,
    parse_program,
    stable_model,
)


from conftest import naive_stable_model, random_acyclic_program


def lit(name: str, positive: bool = True) -> Literal:
    return Literal(atom(name), positive)


# ---------------------------------------------------------------------------
# Terms, atoms, parsing.


def test_term_variable_detection():
    assert Term("X").is_variable
    assert Term("Result").is_variable
    assert not Term("x").is_variable
    assert not Term("h1").is_variable


def test_atom_str_and_ground():
    a = Atom("edge", (Term("a"), Term("B")))
    assert str(a) == "edge(a,B)"
    assert not a.is_ground
    assert atom("p").is_ground
    assert str(atom("p")) == "p"


def test_term_str():
    assert str(Term("a")) == "a"


_X = Atom("p", (Term("X"),))


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Atom("P"), "not a valid relation name: 'P'"),
        (lambda: GroundProgram((Clause(_X),), frozenset({_X})), r"clause is not ground: p\(X\)\."),
        (lambda: GroundProgram((Clause(atom("p")),), frozenset()), "head outside the Herbrand base: p"),
        (
            lambda: GroundProgram((Clause(atom("p"), (Literal(atom("q")),)),), frozenset({atom("p")})),
            "body atom outside the Herbrand base: q",
        ),
        (lambda: ground(Program(), ["X"]), "substitution universe must contain constants only: X"),
        (lambda: ground(Program(), [], [_X]), r"extra atom is not ground: p\(X\)"),
        (lambda: Interpretation(frozenset(), frozenset({atom("p")})), "true atoms must lie inside the domain"),
        (lambda: stable_model(ground(Program()), [_X]), r"fact is not ground: p\(X\)"),
    ],
    ids=[
        "uppercase-relation",
        "non-ground-clause",
        "head-outside-base",
        "body-atom-outside-base",
        "variable-in-universe",
        "non-ground-extra-atom",
        "true-atom-outside-domain",
        "non-ground-fact",
    ],
)
def test_input_check_message(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_parse_empty_program():
    assert parse_program("") == Program()


def test_parse_friends_program():
    p = parse_program("p :- c.\np :- r.\nh :- \\+ p, nw.")
    assert len(p.clauses) == 3
    assert p.clauses[0] == Clause(atom("p"), (lit("c"),))
    assert p.clauses[2] == Clause(atom("h"), (lit("p", False), lit("nw")))


def test_parse_comments_and_whitespace():
    p = parse_program("% nothing here\n  p :- q.  % trailing\n\n")
    assert len(p.clauses) == 1


def test_parse_facts():
    p = parse_program("r(a, b).\nq :- r(a, b).")
    assert p.clauses[0].body == ()
    assert p.clauses[0].head == Atom("r", (Term("a"), Term("b")))


def test_serialize_round_trip():
    text = "q :- r2(h1), r1(h2).\np(X) :- e(X, b), \\+ q."
    once = parse_program(text)
    again = parse_program(once.to_text())
    assert once == again


def test_parse_rejects_unbound_head_variable():
    with pytest.raises(ParseError):
        parse_program("p(X) :- q.")


def test_parse_rejects_arity_conflict():
    with pytest.raises(ParseError):
        parse_program("p(a) :- q.\np :- q.")


def test_parse_rejects_negated_head():
    with pytest.raises(ParseError):
        parse_program("\\+ p :- q.")


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as exc:
        parse_program("p :- q\nr :- s.")
    assert exc.value.line == 2


name_st = st.sampled_from(["p", "q", "r", "s", "edge", "node"])
const_st = st.sampled_from(["a", "b", "c", "h1", "h2"])


@st.composite
def ground_atom_st(draw):
    rel = draw(name_st)
    args = draw(st.lists(const_st, max_size=2))
    return Atom(rel, tuple(Term(c) for c in args))


@st.composite
def ground_clause_st(draw):
    head = draw(ground_atom_st())
    body = draw(st.lists(ground_atom_st(), max_size=3))
    signs = draw(st.lists(st.booleans(), min_size=len(body), max_size=len(body)))
    return Clause(head, tuple(Literal(a, s) for a, s in zip(body, signs)))


@given(st.lists(ground_clause_st(), max_size=6))
@settings(max_examples=60, deadline=None)
def test_parser_round_trip_random(clauses):
    relations = {}
    for c in clauses:
        for a in [c.head, *[l.atom for l in c.body]]:
            if relations.setdefault(a.relation, len(a.args)) != len(a.args):
                return  # arity conflicts are rejected by design, skip
    program = Program(tuple(clauses))
    assert parse_program(program.to_text()) == program


# ---------------------------------------------------------------------------
# Grounding.


def test_ground_identity_on_ground_program():
    p = parse_program("p :- q.\nq.")
    gp = ground(p, [])
    assert gp.clauses == p.clauses
    assert gp.herbrand_base == frozenset({atom("p"), atom("q")})


def test_ground_counts_constant_power():
    p = parse_program("q(a) :- e(X, Y).")
    gp = ground(p, [Term("a"), Term("b"), Term("c")])
    assert len(gp.clauses) == 9  # 3 constants ** 2 variables


def test_ground_substitutes_consistently():
    p = parse_program("tc(X, Y) :- e(X, Y).")
    gp = ground(p, [Term("a"), Term("b")])
    pairs = {
        (c.head.args, c.body[0].atom.args) for c in gp.clauses
    }
    assert all(h == b for h, b in pairs)
    assert len(pairs) == 4


def test_ground_extends_base_with_extra_atoms():
    p = parse_program("p :- q.")
    gp = ground(p, [], extra_atoms=[atom("z")])
    assert atom("z") in gp.herbrand_base


# ---------------------------------------------------------------------------
# Acyclicity and level mappings.


def test_level_mapping_on_friends_program():
    gp = ground(parse_program("p :- c.\np :- r.\nh :- \\+ p, nw."), [])
    mapping = check_acyclic(gp)
    levels = mapping.levels
    for clause in gp.clauses:
        for l in clause.body:
            assert levels[clause.head] > levels[l.atom]


def test_self_loop_rejected():
    gp = ground(parse_program("p :- p."), [])
    with pytest.raises(CyclicityError) as exc:
        check_acyclic(gp)
    assert atom("p") in exc.value.cycle


def test_negative_self_loop_rejected():
    gp = ground(parse_program("p :- \\+ p."), [])
    with pytest.raises(CyclicityError):
        check_acyclic(gp)


def test_two_step_cycle_reported():
    gp = ground(parse_program("p :- q.\nq :- p."), [])
    with pytest.raises(CyclicityError) as exc:
        check_acyclic(gp)
    assert set(exc.value.cycle) == {atom("p"), atom("q")}


def test_random_dags_accepted_and_back_edges_rejected():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(3, 13)
        gp = random_acyclic_program(rng, n)
        check_acyclic(gp)  # must not raise

        # Inject one upward edge to close a cycle.
        heads = [c.head for c in gp.clauses]
        target = rng.choice(heads)
        top = max(gp.herbrand_base, key=lambda a: a.relation)
        bad = Clause(
            min(l.atom for c in gp.clauses if c.head == target for l in c.body)
            if any(c.head == target and c.body for c in gp.clauses)
            else atom("a0"),
            (Literal(target),),
        )
        looped = GroundProgram(gp.clauses + (bad, Clause(target, (Literal(bad.head),))), gp.herbrand_base)
        with pytest.raises(CyclicityError):
            check_acyclic(looped)
        del top


# ---------------------------------------------------------------------------
# Stable models.


def test_friends_world_with_rain_car_work():
    gp = ground(parse_program("p :- c.\np :- r.\nh :- \\+ p, nw."), [],
                extra_atoms=[atom(n) for n in ["r", "nr", "c", "nc", "w", "nw"]])
    m = stable_model(gp, frozenset({atom("r"), atom("c"), atom("w")}))
    assert m.is_true(atom("p"))
    assert not m.is_true(atom("h"))


def test_friends_world_all_negative():
    gp = ground(parse_program("p :- c.\np :- r.\nh :- \\+ p, nw."), [],
                extra_atoms=[atom(n) for n in ["r", "nr", "c", "nc", "w", "nw"]])
    m = stable_model(gp, frozenset({atom("nr"), atom("nc"), atom("nw")}))
    assert not m.is_true(atom("p"))
    assert m.is_true(atom("h"))


def test_empty_program_everything_false():
    gp = ground(Program(), [], extra_atoms=[atom("p"), atom("q")])
    m = stable_model(gp, frozenset())
    assert not m.is_true(atom("p"))
    assert not m.is_true(atom("q"))


def test_unknown_atom_raises():
    gp = ground(parse_program("p :- q."), [])
    m = stable_model(gp, frozenset())
    with pytest.raises(UnknownAtomError):
        m.is_true(atom("zzz"))


def test_interpretation_holds_literals():
    m = Interpretation(frozenset({atom("p"), atom("q")}), frozenset({atom("p")}))
    assert m.holds(lit("p"))
    assert m.holds(lit("q", False))
    assert not m.holds(lit("q"))


def test_stable_model_on_cyclic_program_raises():
    gp = ground(parse_program("p :- \\+ q.\nq :- \\+ p."), [])
    with pytest.raises(CyclicityError):
        stable_model(gp, frozenset())


def test_stable_model_matches_naive_oracle():
    rng = random.Random(2024)
    checked = 0
    for _ in range(220):
        n = rng.randrange(2, 13)
        gp = random_acyclic_program(rng, n)
        base = sorted(gp.herbrand_base)
        facts = frozenset(a for a in base if rng.random() < 0.3 and a not in gp.heads())
        got = stable_model(gp, facts)
        want = naive_stable_model(gp, facts)
        assert got.true_atoms == want
        checked += 1
    assert checked >= 200

    # a fact outside the Herbrand base is true and joins the domain
    gp = random_acyclic_program(rng, 5)
    outside = atom("outside")
    assert outside not in gp.herbrand_base
    got = stable_model(gp, frozenset({outside}))
    assert got.true_atoms == naive_stable_model(gp, frozenset({outside}))
    assert got.is_true(outside)
    assert got.domain == gp.herbrand_base | {outside}


def test_stable_model_supportedness():
    rng = random.Random(99)
    for _ in range(40):
        gp = random_acyclic_program(rng, rng.randrange(3, 10))
        facts = frozenset(
            a for a in gp.herbrand_base if rng.random() < 0.25 and a not in gp.heads()
        )
        m = stable_model(gp, facts)
        for a in m.true_atoms:
            supported = a in facts or any(
                c.head == a and all(m.holds(l) for l in c.body) for c in gp.clauses
            )
            assert supported
        for c in gp.clauses:
            if all(m.holds(l) for l in c.body):
                assert m.is_true(c.head)


def test_stable_model_deterministic():
    gp = ground(parse_program("p :- c.\np :- r.\nh :- \\+ p, nw."), [],
                extra_atoms=[atom(n) for n in ["r", "c", "nw"]])
    facts = frozenset({atom("nw")})
    assert stable_model(gp, facts) == stable_model(gp, facts)
