"""Token-soup fuzzing of the text parsers.

Every input either parses or raises :class:`ParseError`; any other
exception is a parser bug.  The runs are derandomized with a fixed
example count, so they are deterministic.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from credalchoice.errors import ParseError
from credalchoice.logic import parse_program
from credalchoice.ranking import parse_counts_csv, parse_rankings
from credalchoice.theory import parse_ccl, parse_query

FUZZ = settings(
    max_examples=300,
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

_SPACING = [" ", "\n", "\t", "\r", ""]

CCL_TOKENS = _SPACING + [
    "choicespace", "alternative", "query", "{", "}", "(", ")", ":", ":-", ",", ".",
    "/", "\\+", "%", "p", "q", "r", "a1", "b_2", "X", "Y", "0", "1", "3", "10",
    "0.5", "1/2", "1/0", "1.5/2", "2/0.5", "x", "٣", "p(X)", "p(a)", "q(a, b)",
]
# whole statements, so that soups also reach past the first syntax error
CCL_STATEMENTS = [
    "choicespace { alternative { a1: 1/2, p(a): 1/2 } }", "p(X) :- q(X), \\+ r.",
    "r :- a1.", "query p(a).", "query \\+ q(a, b), r.", "query p(X).",
    "s :- c(a).", "choicespace { alternative { c: 1/2, nc: 1/2 } }",
]
RANKING_TOKENS = _SPACING + [
    "a", "b", "c", "d", ",", "x0", "x2", "x10", "x", "x-1", "x²", "٣",
    "%", "1", " x3", " x0", " x²", " x٣",
]
COUNTS_TOKENS = _SPACING + [
    "a", "b", "c", ",", "N=", "N=3", "N=x", "0", "1", "2", "3", "-1", "1.5", "x",
    "٣", "²",
]


def soup(*vocabularies):
    """Concatenated pieces: each from one vocabulary, or arbitrary text."""
    piece = st.one_of(*map(st.sampled_from, vocabularies), st.text(max_size=3))
    return st.lists(piece, max_size=40).map("".join)


def parses_or_raises_parse_error(parse, text):
    try:
        return parse(text)
    except ParseError:
        return None


@FUZZ
@given(soup(CCL_TOKENS, CCL_STATEMENTS))
def test_parse_ccl_token_soup(text):
    parses_or_raises_parse_error(parse_ccl, text)


@FUZZ
@given(soup(CCL_TOKENS, CCL_STATEMENTS))
def test_parse_query_token_soup(text):
    parses_or_raises_parse_error(parse_query, text)


@FUZZ
@given(soup(CCL_TOKENS, CCL_STATEMENTS))
def test_parse_program_token_soup(text):
    parses_or_raises_parse_error(parse_program, text)


@FUZZ
@given(soup(RANKING_TOKENS))
def test_parse_rankings_token_soup(text):
    parses_or_raises_parse_error(parse_rankings, text)


@FUZZ
@given(soup(COUNTS_TOKENS))
def test_parse_counts_csv_token_soup(text):
    parses_or_raises_parse_error(parse_counts_csv, text)
