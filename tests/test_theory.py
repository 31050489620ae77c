"""Theory construction, validation, merging, and the .ccl file format."""

from fractions import Fraction

import pytest

from credalchoice.errors import ArityConflictError, ParseError, TheoryValidationError
from credalchoice.logic import Atom, Literal, Program, Term, atom, parse_program
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
    parse_query,
    query,
    validate_theory,
)

F = Fraction

FRIENDS_P = "p :- c.\np :- r.\nh :- \\+ p, nw."


def friends_theory() -> CCLTheory:
    program = parse_program(FRIENDS_P)
    c1 = alternative("r", "nr")
    c2 = alternative("c", "nc")
    c3 = alternative("w", "nw")
    mu = {
        atom("r"): F(1, 10), atom("nr"): F(9, 10),
        atom("c"): F(1, 2), atom("nc"): F(1, 2),
        atom("w"): F(1, 5), atom("nw"): F(4, 5),
    }
    return CCLTheory(program, (ChoiceSpace((c1, c2)), ChoiceSpace((c3,))), mu)


def test_alternative_rejects_duplicates_and_nonground():
    with pytest.raises(ValueError):
        Alternative((atom("a"), atom("a")))
    with pytest.raises(ValueError):
        Alternative(())


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Alternative((Atom("p", (Term("X"),)),)), r"alternative atom is not ground: p\(X\)"),
        (lambda: ChoiceSpace(()), "a choice space needs at least one alternative"),
    ],
    ids=["non-ground-atom", "no-alternative"],
)
def test_choice_construction_check_message(build, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        build()


def test_choice_space_str():
    assert str(ChoiceSpace((alternative("a", "b"),))) == "{{a, b}}"


def test_friends_theory_validates():
    report = validate_theory(friends_theory())
    assert report.ok
    assert str(report) == "ok"


def test_mass_sum_violation():
    t = friends_theory()
    mu = dict(t.mu)
    mu[atom("nr")] = F(4, 5)
    report = validate_theory(CCLTheory(t.program, t.spaces, mu))
    assert not report.ok
    assert any(v.code == "mass-sum" for v in report.violations)


def test_missing_probability_violation():
    t = friends_theory()
    mu = dict(t.mu)
    del mu[atom("w")]
    report = validate_theory(CCLTheory(t.program, t.spaces, mu))
    assert any(v.code == "missing-probability" for v in report.violations)


def test_probability_range_violation():
    t = friends_theory()
    mu = dict(t.mu)
    mu[atom("w")] = F(6, 5)
    mu[atom("nw")] = F(-1, 5)
    report = validate_theory(CCLTheory(t.program, t.spaces, mu))
    assert any(v.code == "probability-range" for v in report.violations)


def test_point_mass_alternative_is_legal():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"),)),),
        {atom("a"): F(1), atom("b"): F(0)},
    )
    assert validate_theory(t).ok


def test_choice_atom_heading_clause_rejected():
    program = parse_program("p :- c.")
    t = CCLTheory(
        Program(program.clauses),
        (ChoiceSpace((alternative("p", "np"),)),),
        {atom("p"): F(1, 2), atom("np"): F(1, 2)},
    )
    report = validate_theory(t)
    assert any(v.code == "choice-heads-clause" for v in report.violations)


def test_overlap_across_spaces_rejected():
    t = CCLTheory(
        Program(),
        (
            ChoiceSpace((alternative("a", "b"),)),
            ChoiceSpace((alternative("b", "c"),)),
        ),
        {atom("a"): F(1, 2), atom("b"): F(1, 2), atom("c"): F(1, 2)},
    )
    report = validate_theory(t)
    assert any(v.code == "overlapping-spaces" for v in report.violations)


def test_overlap_within_space_is_legal():
    t = CCLTheory(
        Program(),
        (ChoiceSpace((alternative("a", "b"), alternative("a", "c"))),),
        {atom("a"): F(1, 2), atom("b"): F(1, 2), atom("c"): F(1, 2)},
    )
    assert validate_theory(t).ok


def test_cyclic_program_flagged():
    program = parse_program("p :- q.\nq :- p.")
    t = CCLTheory(program, (), {})
    report = validate_theory(t)
    assert any(v.code == "cyclic-program" for v in report.violations)


# ---------------------------------------------------------------------------
# ICL construction and merging.


def test_from_icl_builds_singleton_spaces():
    alts = [
        (alternative("a1r", "a1g", "a1b"), [F(3, 5), F(3, 10), F(1, 10)]),
        (alternative("a2r", "a2g", "a2b"), [F(1, 5), F(7, 20), F(9, 20)]),
    ]
    mu = {}
    for alt, probs in alts:
        mu.update(dict(zip(alt.atoms, probs)))
    t = from_icl(Program(), [alt for alt, _ in alts], mu)
    assert len(t.spaces) == 2
    assert all(len(s.alternatives) == 1 for s in t.spaces)
    assert validate_theory(t).ok


def test_from_icl_empty_is_vacuous():
    t = from_icl(Program(), [], {})
    assert t.spaces == ()
    assert validate_theory(t).ok


def test_from_icl_rejects_bad_mass():
    with pytest.raises(TheoryValidationError):
        from_icl(Program(), [alternative("a", "b")], {atom("a"): F(1, 2), atom("b"): F(1, 3)})


def test_merge_two_of_three_spaces():
    icl = from_icl(
        parse_program(FRIENDS_P),
        [alternative("r", "nr"), alternative("c", "nc"), alternative("w", "nw")],
        friends_theory().mu,
    )
    merged = merge_spaces(icl, [0, 1])
    assert len(merged.spaces) == 2
    assert len(merged.spaces[0].alternatives) == 2
    assert merged.spaces[1].alternatives == icl.spaces[2].alternatives
    assert validate_theory(merged).ok


def test_merge_single_index_is_identity():
    t = friends_theory()
    assert merge_spaces(t, [1]) == t


def test_merge_all_spaces():
    t = friends_theory()
    merged = merge_spaces(t, [0, 1])
    assert len(merged.spaces) == 1
    assert len(merged.spaces[0].alternatives) == 3


def test_merge_rejects_bad_indices():
    with pytest.raises(ValueError):
        merge_spaces(friends_theory(), [0, 5])
    with pytest.raises(ValueError):
        merge_spaces(friends_theory(), [])


# ---------------------------------------------------------------------------
# Queries.


def test_query_requires_ground_literals():
    # query text is parsed, so a variable is a parse error at its literal
    with pytest.raises(ParseError, match="line 1, column 1: query literal is not ground"):
        query("p(X)")
    with pytest.raises(ParseError, match="line 1, column 6"):
        query("a1r, p(X)")
    with pytest.raises(ParseError, match="line 2, column 7"):
        parse_ccl("a.\nquery \\+ p(X).")
    # a Query built directly still checks its literals
    with pytest.raises(ValueError):
        Query(frozenset({Literal(atom("p", "X"))}))


def test_parse_query_takes_a_final_period():
    assert parse_query("a.") == parse_query("a") == parse_query(" a . ")


def test_parse_query_negation():
    q = parse_query("\\+ a1g, \\+ a2r")
    assert q.literals == frozenset({Literal(atom("a1g"), False), Literal(atom("a2r"), False)})


def test_query_check_against_base():
    t = friends_theory()
    query("h").check_against(t)
    with pytest.raises(Exception):
        query("nothere").check_against(t)


# ---------------------------------------------------------------------------
# The .ccl format.


CCL_TEXT = """
% two coins, second rigged toward tails
p :- c.
p :- r.
h :- \\+ p, nw.

choicespace {
  alternative { r: 0.1, nr: 0.9 }
  alternative { c: 0.5, nc: 0.5 }
}
choicespace {
  alternative { w: 0.2, nw: 0.8 }
}

query h.
"""


def test_parse_ccl_round_trip_values():
    doc = parse_ccl(CCL_TEXT)
    t = doc.theory
    assert len(t.spaces) == 2
    assert t.mu[atom("r")] == F(1, 10)
    assert t.mu[atom("nw")] == F(4, 5)
    assert doc.queries == (query("h"),)
    assert validate_theory(t).ok


def test_parse_ccl_fraction_probabilities():
    doc = parse_ccl("choicespace { alternative { a: 1/3, b: 2/3 } }")
    assert doc.theory.mu[atom("a")] == F(1, 3)


def test_parse_ccl_conflicting_probability():
    with pytest.raises(ParseError):
        parse_ccl("choicespace { alternative { a: 0.5, a: 0.5 } }")


def test_parse_ccl_missing_brace():
    with pytest.raises(ParseError):
        parse_ccl("choicespace { alternative { a: 1.0 }")


@pytest.mark.parametrize(
    "text",
    [
        "choicespace { alternative { query: 1.0 } }",
        "query :- b.",
        "alternative :- b.",
        "choicespace :- b.",
    ],
    ids=["query-in-alternative", "query-head", "alternative-head", "choicespace-head"],
)
def test_parse_ccl_reserved_word_as_atom(text):
    with pytest.raises(ParseError):
        parse_ccl(text)


@pytest.mark.parametrize(
    "parse, text, message, line, column",
    [
        (parse_query, "a b", "unexpected 'b' after query", 1, 3),
        (parse_query, "a. b", "unexpected 'b' after query", 1, 4),
        (parse_query, "a. \\+ b, c", r"unexpected '\\+' after query", 1, 4),
        (parse_ccl, "choicespace { alternative { a: x } }", "expected a probability, found 'x'", 1, 32),
        (parse_ccl, "choicespace { alternative { a: 1/0.5 } }", "expected an integer denominator", 1, 34),
        (parse_ccl, "choicespace { alternative { a: 0.5/2 } }", "fractions need an integer numerator", 1, 32),
        (parse_ccl, "choicespace { alternative { a: 1/0 } }", "zero denominator", 1, 34),
        (parse_ccl, "choicespace {\n  alternative { p(X): 1 }\n}", "alternative atom must be ground: p(X)", 2, 17),
        (
            parse_ccl,
            "choicespace {\n  alternative { a: 1/2, b: 1/2 }\n  alternative { a: 1/3, c: 2/3 }\n}",
            "conflicting probabilities for a: 1/2 and 1/3",
            3,
            17,
        ),
        (parse_ccl, "a.\nchoicespace { }\nquery a.", "a choicespace needs at least one alternative", 2, 1),
        (parse_ccl, "choicespace { }\n", "a choicespace needs at least one alternative", 1, 1),
        (parse_query, "p(a, )", "expected a term, found ')'", 1, 6),
    ],
    ids=[
        "text-after-query",
        "atom-after-final-period",
        "literals-after-final-period",
        "no-probability",
        "non-integer-denominator",
        "non-integer-numerator",
        "zero-denominator",
        "non-ground-alternative-atom",
        "conflicting-probabilities",
        "empty-choicespace",
        "empty-choicespace-at-end-of-input",
        "no-term",
    ],
)
def test_parse_error_message_and_position(parse, text, message, line, column):
    with pytest.raises(ParseError) as exc:
        parse(text)
    assert (str(exc.value), exc.value.line, exc.value.column) == (f"line {line}, column {column}: {message}", line, column)


@pytest.mark.parametrize(
    "text, line, column, message",
    [
        (
            "q :- c(a).\nchoicespace { alternative { c: 1/2, nc: 1/2 } }\nquery q.",
            2,
            29,
            "relation 'c' used with arity 0 but declared with arity 1 at line 1",
        ),
        (
            "choicespace { alternative { c: 1/2, nc: 1/2 } }\nq :- c(a).\nquery q.",
            2,
            6,
            "relation 'c' used with arity 1 but declared with arity 0 at line 1",
        ),
    ],
    ids=["clause-first", "alternative-first"],
)
def test_parse_ccl_checks_choice_atoms_arities(text, line, column, message):
    with pytest.raises(ArityConflictError) as exc:
        parse_ccl(text)
    assert (exc.value.line, exc.value.column) == (line, column)
    assert str(exc.value) == f"line {line}, column {column}: {message}"


def test_load_ccl_bundled(data_dir):
    doc = load_ccl(data_dir / "friends.ccl")
    assert len(doc.theory.spaces) == 2
    assert doc.queries == (query("h"),)


def test_bundled_files_all_validate(data_dir):
    for name in ["friends.ccl", "friends-icl.ccl", "friends-merged.ccl", "urn.ccl", "urn-merged.ccl"]:
        doc = load_ccl(data_dir / name)
        assert validate_theory(doc.theory).ok, name


def test_atomic_choices_order_is_declaration_order():
    t = friends_theory()
    assert [str(a) for a in t.spaces[0].atomic_choices] == ["r", "nr", "c", "nc"]
