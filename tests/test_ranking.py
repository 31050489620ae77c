"""Rank-count ingestion, smoothing, pairwise queries, and decisions."""

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from credalchoice.errors import CapExceededError, ParseError
from credalchoice.inference import (
    IntervalResult,
    credal_bounds_single_space,
    marginal_polytope,
    proxy_in_credal_set,
    proxy_mass_function,
    proxy_query_value,
)
from credalchoice.psat import bisect_bounds
from credalchoice.ranking import (
    CountMatrix,
    MarginalMatrix,
    RankingDataset,
    build_ranking_theory,
    counts_from_rankings,
    decide_preference,
    evaluate,
    pairwise_query,
    parse_counts_csv,
    parse_rankings,
    permutation_polytope,
    position_atom,
    report_from_marginals,
    smooth_marginals,
)
from credalchoice.worlds import build_world_space, satisfies

F = Fraction

ABC_RANKINGS = """\
a,b,c x3
a,c,b x5
b,a,c x2
b,c,a x4
c,a,b x3
c,b,a x1
"""

ABC_COUNTS = ((8, 6, 4), (5, 4, 9), (5, 8, 5))


def abc_dataset() -> RankingDataset:
    return parse_rankings(ABC_RANKINGS)


def brute_force_proxy(m: MarginalMatrix, first: int, second: int) -> Fraction:
    """Renormalized product over permutations, summed where first wins."""
    n = len(m.objects)
    weights = {}
    for perm in itertools.permutations(range(n)):  # perm[i] = position of i
        w = F(1)
        for i in range(n):
            w *= m.alpha[i][perm[i]]
        weights[perm] = w
    total = sum(weights.values())
    hit = sum(w for p, w in weights.items() if p[first] < p[second])
    return hit / total


# ---------------------------------------------------------------------------
# Datasets and counts.


def test_counts_from_bundled_rankings(data_dir):
    d = parse_rankings((data_dir / "abc.rankings").read_text())
    c = counts_from_rankings(d)
    assert c.objects == ("a", "b", "c")
    assert c.counts == ABC_COUNTS
    assert c.total == 18


def test_counts_from_inline_rankings():
    c = counts_from_rankings(abc_dataset())
    assert c.counts == ABC_COUNTS


def test_empty_dataset_yields_zero_matrix():
    d = RankingDataset(("a", "b"), ())
    c = counts_from_rankings(d)
    assert c.counts == ((0, 0), (0, 0))
    assert c.total == 0


def test_single_ranking_is_permutation_matrix():
    d = RankingDataset(("a", "b"), ((0, 1),))
    c = counts_from_rankings(d)
    assert c.counts == ((1, 0), (0, 1))


def test_malformed_ranking_rejected():
    with pytest.raises(ValueError, match="malformed ranking"):
        RankingDataset(("a", "b"), ((0, 0),))
    with pytest.raises(ValueError, match="malformed ranking"):
        RankingDataset(("a", "b", "c"), ((0, 1),))


def test_count_matrix_checks_margins():
    with pytest.raises(ValueError):
        CountMatrix(("a", "b"), ((1, 0), (1, 0)), 1)  # column sums broken
    with pytest.raises(ValueError):
        CountMatrix(("a", "b"), ((1, 0),), 1)  # not square


# ---------------------------------------------------------------------------
# Smoothing.


def test_smoothing_reproduces_known_value():
    c = CountMatrix(("a", "b", "c"), ABC_COUNTS, 18)
    m = smooth_marginals(c)
    assert m.alpha[0][0] == F(13, 30)  # (8 + 2/3) / 20


def test_smoothing_zero_counts_is_uniform():
    c = CountMatrix(("a", "b"), ((0, 0), (0, 0)), 0)
    m = smooth_marginals(c)
    assert all(v == F(1, 2) for row in m.alpha for v in row)


def test_smoothing_requires_positive_prior():
    c = CountMatrix(("a", "b"), ((1, 0), (0, 1)), 1)
    with pytest.raises(ValueError):
        smooth_marginals(c, F(0))


@given(st.lists(st.permutations(range(3)), min_size=1, max_size=12))
@settings(max_examples=50, deadline=None)
def test_smoothed_matrix_is_doubly_stochastic(perms):
    d = RankingDataset(("a", "b", "c"), tuple(tuple(p) for p in perms))
    m = smooth_marginals(counts_from_rankings(d))
    for row in m.alpha:
        assert sum(row) == 1
        assert all(0 < v < 1 for v in row)
    for j in range(3):
        assert sum(row[j] for row in m.alpha) == 1


def test_marginal_matrix_validation():
    with pytest.raises(ValueError, match="rows must sum to 1"):
        MarginalMatrix(("a", "b"), ((F(1, 2), F(1, 3)), (F(1, 2), F(2, 3))))
    with pytest.raises(ValueError, match="strictly between 0 and 1"):
        MarginalMatrix(("a", "b"), ((F(1), F(0)), (F(0), F(1))))  # not interior
    with pytest.raises(ValueError, match="columns must sum to 1"):
        MarginalMatrix(("a", "b"), ((F(1, 3), F(2, 3)), (F(1, 3), F(2, 3))))  # rows sum to one, columns do not
    MarginalMatrix(("a", "b"), ((F(1, 3), F(2, 3)), (F(2, 3), F(1, 3))))


@pytest.mark.parametrize("s", [F(2), F(1, 3), F(5, 2)])
def test_smoothing_matches_the_fraction_formula(s):
    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 5)
        rankings = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(0, 40)))
        c = counts_from_rankings(RankingDataset(tuple(f"o{i}" for i in range(n)), rankings))
        m = smooth_marginals(c, s)
        want = tuple(tuple((c.counts[j][i] + s / n) / (c.total + s) for j in range(n)) for i in range(n))
        assert m.alpha == want, (trial, s)
        assert all(type(v) is Fraction for row in m.alpha for v in row)


# ---------------------------------------------------------------------------
# The ranking theory.


def test_ranking_theory_shape():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    assert len(t.spaces) == 1
    assert len(t.spaces[0].alternatives) == 6  # 3 per object + 3 per position
    assert t.mu[position_atom(1, "a")] == F(13, 30)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_ranking_worlds_are_permutations(n):
    objects = tuple(f"h{i}" for i in range(1, n + 1))
    rankings = tuple(itertools.permutations(range(n)))
    m = smooth_marginals(counts_from_rankings(RankingDataset(objects, rankings)))
    ws = build_world_space(build_ranking_theory(m))
    count = 1
    for k in range(2, n + 1):
        count *= k
    assert len(ws.worlds) == count
    seen = set()
    for w in ws.worlds:
        perm = tuple(
            next(j for j in range(1, n + 1) if w.model.is_true(position_atom(j, o)))
            for o in objects
        )
        assert sorted(perm) == list(range(1, n + 1))
        seen.add(perm)
    assert len(seen) == len(ws.worlds)


# ---------------------------------------------------------------------------
# Pairwise queries.


def test_pairwise_query_clause_count():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    tq, q = pairwise_query(t, m, 0, 1)
    added = [c for c in tq.program.clauses if c not in t.program.clauses]
    assert len(added) == 3  # position pairs (1,2), (1,3), (2,3)
    assert str(q) == "q"


def test_pairwise_query_direction_flag():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    better, qb = pairwise_query(t, m, 0, 1, better=True)
    worse, qw = pairwise_query(t, m, 0, 1, better=False)
    wsb = build_world_space(better)
    wsw = build_world_space(worse)
    for wb, ww in zip(wsb.worlds, wsw.worlds):
        assert satisfies(wb, qb) != satisfies(ww, qw)


def test_pairwise_query_atom_is_fresh():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    tq, q = pairwise_query(t, m, 0, 1)
    q_atom = next(iter(q.literals)).atom
    assert q_atom not in t.herbrand_base
    assert q_atom in tq.herbrand_base


def test_pairwise_query_rejects_same_object():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    with pytest.raises(ValueError):
        pairwise_query(t, m, 1, 1)


def test_each_world_orders_each_pair_exactly_one_way():
    objects = ("h1", "h2", "h3", "h4")
    rankings = tuple(itertools.permutations(range(4)))
    m = smooth_marginals(counts_from_rankings(RankingDataset(objects, rankings)))
    t = build_ranking_theory(m)
    for i, j in itertools.combinations(range(4), 2):
        tij, qij = pairwise_query(t, m, i, j)
        tji, qji = pairwise_query(t, m, j, i)
        for wa, wb in zip(build_world_space(tij).worlds, build_world_space(tji).worlds):
            assert satisfies(wa, qij) != satisfies(wb, qji)


def test_known_intervals_on_bundled_data():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    expected = {
        (0, 1): (F(13, 30), F(2, 3)),
        (0, 2): (F(29, 60), F(43, 60)),
        (1, 2): (F(1, 3), F(17, 30)),
    }
    for (i, j), (lo, hi) in expected.items():
        tq, q = pairwise_query(t, m, i, j)
        iv = credal_bounds_single_space(tq, q)
        assert (iv.lower, iv.upper) == (lo, hi)


def test_n2_interval_collapses_to_marginal_entry():
    d = RankingDataset(("a", "b"), ((0, 1), (0, 1), (1, 0)))
    m = smooth_marginals(counts_from_rankings(d))
    assert m.alpha[0][0] == F(3, 5)
    t = build_ranking_theory(m)
    tq, q = pairwise_query(t, m, 0, 1)
    iv = credal_bounds_single_space(tq, q)
    assert iv.lower == iv.upper == F(3, 5)


def test_complementarity_of_pair_intervals():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    for i, j in itertools.combinations(range(3), 2):
        tij, qij = pairwise_query(t, m, i, j)
        tji, qji = pairwise_query(t, m, j, i)
        a = credal_bounds_single_space(tij, qij)
        b = credal_bounds_single_space(tji, qji)
        assert (a.lower, a.upper) == (1 - b.upper, 1 - b.lower)


def test_generic_n4_marginals_leave_slack():
    rng = random.Random(3)
    rankings = tuple(
        tuple(rng.sample(range(4), 4)) for _ in range(30)
    )
    d = RankingDataset(("a", "b", "c", "d"), rankings)
    m = smooth_marginals(counts_from_rankings(d))
    t = build_ranking_theory(m)
    slack = False
    for i, j in itertools.combinations(range(4), 2):
        tq, q = pairwise_query(t, m, i, j)
        iv = credal_bounds_single_space(tq, q)
        if iv.lower < iv.upper:
            slack = True
    assert slack


def test_proxy_value_matches_permutation_oracle():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    expected_proxy = {
        (0, 1): F(2665, 4246),
        (0, 2): F(2631, 4246),
        (1, 2): F(1819, 4246),
    }
    for (i, j), want in expected_proxy.items():
        tq, q = pairwise_query(t, m, i, j)
        ws = build_world_space(tq)
        got = proxy_query_value(tq, q, world_space=ws)
        assert got == want
        assert got == brute_force_proxy(m, i, j)


def test_proxy_containment_when_member():
    m = smooth_marginals(counts_from_rankings(abc_dataset()))
    t = build_ranking_theory(m)
    tq, q = pairwise_query(t, m, 0, 1)
    ws = build_world_space(tq)
    iv = credal_bounds_single_space(tq, q, world_space=ws)
    if proxy_in_credal_set(tq, world_space=ws):
        val = proxy_query_value(tq, q, world_space=ws)
        assert iv.lower <= val <= iv.upper


# ---------------------------------------------------------------------------
# Decisions.


def iv(lo, hi) -> IntervalResult:
    return IntervalResult(F(lo), F(hi), "lp")


def test_decision_rule_basic_cases():
    assert decide_preference(iv("3/5", "4/5")).verdict == "first"
    assert decide_preference(iv("3/10", "7/10")).verdict == "indeterminate"
    assert decide_preference(iv("1/5", "2/5")).verdict == "second"


def test_decision_rule_boundary_touch_is_indeterminate():
    assert decide_preference(iv("1/2", "4/5")).verdict == "indeterminate"
    assert decide_preference(iv("1/5", "1/2")).verdict == "indeterminate"
    assert decide_preference(iv("1/2", "1/2")).verdict == "indeterminate"


def test_decision_rule_other_thresholds():
    assert decide_preference(iv("3/10", "2/5"), threshold=F(1, 4)).verdict == "first"
    assert decide_preference(iv("3/10", "2/5"), threshold=F(9, 20)).verdict == "second"


def test_decision_is_pure_in_interval_and_threshold():
    a = decide_preference(iv("1/4", "3/4"), pair=(0, 1))
    b = decide_preference(iv("1/4", "3/4"), pair=(3, 2))
    assert a.verdict == b.verdict == "indeterminate"
    assert b.pair == (3, 2)


# ---------------------------------------------------------------------------
# End-to-end evaluation.


def test_evaluate_bundled_dataset():
    rep = evaluate(abc_dataset(), backend="lp")
    assert rep.objects == ("a", "b", "c")
    assert len(rep.pairs) == 3
    assert all(p.ccl_verdict == "indeterminate" for p in rep.pairs)
    assert rep.determinacy_rate == F(0)
    truth = {p.pair: p.truth for p in rep.pairs}
    assert truth[("a", "b")] == "first"   # a beats b in 11 of 18
    assert truth[("a", "c")] == "first"
    assert truth[("b", "c")] is None      # 9 against 9
    icl = {p.pair: p.icl_verdict for p in rep.pairs}
    assert icl[("a", "b")] == "first"
    assert icl[("b", "c")] == "second"


def test_evaluate_identical_rankings_all_determinate():
    d = RankingDataset(("a", "b", "c"), ((0, 1, 2),) * 20)
    rep = evaluate(d, backend="lp")
    assert rep.determinacy_rate == F(1)
    assert all(p.ccl_verdict != "indeterminate" for p in rep.pairs)
    assert rep.icl_acc_determinate == F(1)
    assert rep.icl_acc_indeterminate is None  # vacuous: no such pairs


def assert_psat_brackets_lp(d: RankingDataset, eps: Fraction) -> None:
    lp_rep = evaluate(d, backend="lp")
    psat_rep = evaluate(d, backend="psat", epsilon=eps)
    assert len(psat_rep.pairs) == len(lp_rep.pairs) == d.n * (d.n - 1) // 2
    for a, b in zip(lp_rep.pairs, psat_rep.pairs):
        assert b.interval.lower <= a.interval.lower <= a.interval.upper <= b.interval.upper
        assert a.interval.lower - b.interval.lower <= eps
        assert b.interval.upper - a.interval.upper <= eps


def test_evaluate_psat_backend_brackets_lp():
    assert_psat_brackets_lp(abc_dataset(), F(1, 256))


def test_evaluate_psat_backend_brackets_lp_on_five_objects():
    rng = random.Random(5)
    assert_psat_brackets_lp(
        RankingDataset(tuple("abcde"), tuple(tuple(rng.sample(range(5), 5)) for _ in range(30))), F(1, 64)
    )


def test_evaluate_on_ten_objects_exceeds_the_cap_before_listing_rankings():
    # 10! = 3 628 800 rankings exceed the 2**20 cap; listing them would take minutes and gigabytes
    with pytest.raises(CapExceededError, match="3628800 rankings"):
        evaluate(parse_rankings("a,b,c,d,e,f,g,h,i,j\nj,i,h,g,f,e,d,c,b,a\n"))


def test_evaluate_holdout_split_determinism():
    d = abc_dataset()
    r1 = evaluate(d, holdout=F(1, 3), seed=5)
    r2 = evaluate(d, holdout=F(1, 3), seed=5)
    assert r1 == r2
    r3 = evaluate(d, holdout=F(1, 3), seed=6)
    assert isinstance(r3.determinacy_rate, Fraction)


def test_evaluate_holdout_bounds_checked():
    d = abc_dataset()
    with pytest.raises(ValueError):
        evaluate(d, holdout=F(3, 2))
    with pytest.raises(ValueError):
        evaluate(d, holdout=F(0))


def test_report_without_truth_has_no_accuracies():
    m = smooth_marginals(CountMatrix(("a", "b", "c"), ABC_COUNTS, 18))
    rep = report_from_marginals(m)
    assert all(p.truth is None for p in rep.pairs)
    assert rep.icl_acc_determinate is None
    assert rep.icl_acc_indeterminate is None


def test_report_json_is_serializable():
    import json

    rep = evaluate(abc_dataset(), backend="lp")
    parsed = json.loads(rep.to_json())
    assert parsed["objects"] == ["a", "b", "c"]
    assert parsed["pairs"][0]["interval"]["lower"] == "13/30"
    assert parsed["pairs"][0]["ccl_verdict"] == "indeterminate"
    assert parsed["pairs"][0]["icl_verdict"] == "a>b"
    assert parsed["determinacy_rate"] == {"value": "0/1", "dec": 0.0}


def oracle_marginals(name: str) -> MarginalMatrix:
    if name == "abc":
        return smooth_marginals(counts_from_rankings(abc_dataset()))
    n = int(name.split("-")[1])
    rng = random.Random(n)
    rankings = tuple(tuple(rng.sample(range(n), n)) for _ in range(25))
    objects = tuple(f"o{i}" for i in range(n))
    return smooth_marginals(counts_from_rankings(RankingDataset(objects, rankings)))


@pytest.mark.parametrize("name", ["random-2", "random-3", "random-4", "abc"])
def test_report_matches_per_pair_theory_oracle(name):
    m = oracle_marginals(name)
    t = build_ranking_theory(m)
    rep = report_from_marginals(m, backend="lp")
    pairs = list(itertools.combinations(range(len(m.objects)), 2))
    assert [p.pair for p in rep.pairs] == [(m.objects[i], m.objects[j]) for i, j in pairs]
    for p, (i, j) in zip(rep.pairs, pairs):
        tq, q = pairwise_query(t, m, i, j)
        assert p.interval == credal_bounds_single_space(tq, q)
        assert p.icl_value == proxy_query_value(tq, q)


def mallows_text(rng: random.Random, n: int, count: int, phi: float = 0.6) -> str:
    """``count`` rankings by repeated insertion around a hidden order, in the rankings file format."""
    hidden = [f"o{i}" for i in range(n)]
    rng.shuffle(hidden)
    lines = []
    for _ in range(count):
        ranking: list[str] = []
        for i, obj in enumerate(hidden):
            ranking.insert(rng.choices(range(i + 1), [phi ** (i - j) for j in range(i + 1)])[0], obj)
        lines.append(",".join(ranking))
    return "\n".join(lines) + "\n"


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_permutation_polytope_matches_the_generic_path(n):
    rng = random.Random(40 + n)
    for count in (1, 12, 50):
        m = smooth_marginals(counts_from_rankings(parse_rankings(mallows_text(rng, n, count))))
        t = build_ranking_theory(m)
        ws = build_world_space(t)
        perms, polytope, weights = permutation_polytope(m)
        position_of = {position_atom(p + 1, name): p for name in m.objects for p in range(n)}
        # the first n alternatives are the per-object ones: class c puts object i at perms[c][i]
        assert perms == [tuple(position_of[a] for a in cls.partial.selected[:n]) for cls in ws.classes_by_space[0]]
        assert polytope == marginal_polytope(ws, 0)
        assert tuple(F(w, sum(weights)) for w in weights) == proxy_mass_function(t, world_space=ws).values


def count_calls(monkeypatch, targets) -> dict[str, int]:
    """Count the calls of each ``(module, name)`` binding in ``targets``, keyed by name."""
    calls = {name: 0 for _, name in targets}
    for module, name in targets:
        original = getattr(module, name)

        def wrapper(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    return calls


def test_report_builds_no_world_space_and_one_system(monkeypatch):
    import credalchoice.inference as inference
    import credalchoice.lp as lp
    import credalchoice.psat as psat
    import credalchoice.worlds as worlds

    builders = [(m, "build_world_space") for m in (worlds, inference, psat)]
    calls = count_calls(monkeypatch, builders + [(lp, "FeasibleSystem")])
    report_from_marginals(oracle_marginals("random-4"), backend="lp")
    assert calls == {"build_world_space": 0, "FeasibleSystem": 1}


@pytest.mark.parametrize("n", [3, 4])
def test_psat_report_matches_per_pair_bisection(n):
    rng = random.Random(n)
    for trial in range(3):
        rankings = tuple(tuple(rng.sample(range(n), n)) for _ in range(rng.randint(1, 20)))
        m = smooth_marginals(counts_from_rankings(RankingDataset(tuple(f"o{i}" for i in range(n)), rankings)))
        t = build_ranking_theory(m)
        eps = [F(1, 16), F(1, 64), F(1, 1024)][trial]
        rep = report_from_marginals(m, backend="psat", epsilon=eps)
        for p, (i, j) in zip(rep.pairs, itertools.combinations(range(n), 2)):
            assert p.interval == bisect_bounds(*pairwise_query(t, m, i, j), eps), (trial, i, j)


def test_psat_report_builds_no_world_space_and_one_system(monkeypatch):
    import credalchoice.inference as inference
    import credalchoice.lp as lp
    import credalchoice.psat as psat
    import credalchoice.ranking as ranking
    import credalchoice.worlds as worlds

    targets = [(m, "build_world_space") for m in (worlds, inference, psat)] + [
        (lp, "FeasibleSystem"),
        (ranking, "pairwise_query"),
        (psat, "bisect_bounds"),
    ]
    calls = count_calls(monkeypatch, targets)
    rep = report_from_marginals(oracle_marginals("random-4"), backend="psat", epsilon=F(1, 64))
    assert len(rep.pairs) == 6
    assert calls == {"build_world_space": 0, "FeasibleSystem": 1, "pairwise_query": 0, "bisect_bounds": 0}


def test_report_rejects_unknown_backend():
    with pytest.raises(ValueError, match="unknown backend"):
        report_from_marginals(oracle_marginals("abc"), backend="nope")


def test_synthetic_mixture_has_partial_determinacy():
    rng = random.Random(7)
    rankings = []
    for _ in range(40):
        r = [0, 1, 2, 3]
        for _ in range(3):
            if rng.random() < 0.7:
                k = rng.randrange(3)
                r[k], r[k + 1] = r[k + 1], r[k]
        rankings.append(tuple(r))
    d = RankingDataset(("a", "b", "c", "d"), tuple(rankings))
    rep = evaluate(d, backend="lp")
    assert rep.determinacy_rate == F(5, 6)  # one straddling pair out of six


# ---------------------------------------------------------------------------
# File formats.


def test_parse_rankings_multiplicity_and_comments():
    d = parse_rankings("% data\na,b x2\nb,a\n")
    assert d.rankings == ((0, 1), (0, 1), (1, 0))


def test_parse_rankings_errors():
    with pytest.raises(ParseError):
        parse_rankings("")
    with pytest.raises(ParseError):
        parse_rankings("a,,b\n")
    with pytest.raises(ParseError):
        parse_rankings("a,b\na,b,c\n")
    with pytest.raises(ParseError):
        parse_rankings("a,b x0\n")
    with pytest.raises(ParseError, match="not a constant"):
        parse_rankings("Alice,bob\nbob,Alice\n")


def test_parse_counts_csv_golden(data_dir):
    c = parse_counts_csv((data_dir / "abc-counts.csv").read_text())
    assert c.objects == ("a", "b", "c")
    assert c.counts == ABC_COUNTS
    assert c.total == 18


def test_parse_counts_csv_errors():
    with pytest.raises(ParseError):
        parse_counts_csv("a,b\n1,0\n")  # missing N=
    with pytest.raises(ParseError):
        parse_counts_csv("a,b\n1,x\n0,1\nN=1\n")
    with pytest.raises(ParseError):
        parse_counts_csv("a,b\n1,0\n1,0\nN=1\n")  # bad column sums
    with pytest.raises(ParseError, match="distinct"):
        parse_counts_csv("a,a\n1,0\n0,1\nN=1\n")
    with pytest.raises(ParseError):
        parse_counts_csv("a,,b\n1,0,0\n0,1,0\n0,0,1\nN=1\n")  # empty name


def test_rankings_and_counts_ingestion_agree(data_dir):
    from_rankings = counts_from_rankings(
        parse_rankings((data_dir / "abc.rankings").read_text())
    )
    from_csv = parse_counts_csv((data_dir / "abc-counts.csv").read_text())
    assert from_rankings == from_csv
