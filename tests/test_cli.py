"""Command-line interface: exit codes, JSON values, determinism."""

import json
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from credalchoice.cli import main

F = Fraction

BAD_MASS = """\
choicespace {
  alternative { a: 1/2, b: 1/4 }
}
"""

NO_BRACE = "choicespace {\n  alternative { a: 1 }\n"


def run(args, capsys):
    code = main(list(args))
    out = capsys.readouterr()
    return code, out.out, out.err


@pytest.fixture
def bad_mass_file(tmp_path):
    p = tmp_path / "bad.ccl"
    p.write_text(BAD_MASS)
    return str(p)


# ---------------------------------------------------------------------------
# validate


@pytest.mark.parametrize(
    "name", ["urn", "urn-merged", "friends", "friends-merged", "friends-icl"]
)
def test_validate_bundled_ok(name, data_dir, capsys):
    code, out, err = run(["validate", str(data_dir / f"{name}.ccl")], capsys)
    assert code == 0
    assert "ok" in out
    assert err == ""


def test_validate_bad_mass_exits_1(bad_mass_file, capsys):
    code, out, err = run(["validate", bad_mass_file], capsys)
    assert code == 1
    assert "mass" in out  # the violation is listed in the report


def test_validate_missing_file_exits_2(tmp_path, capsys):
    code, out, err = run(["validate", str(tmp_path / "nope.ccl")], capsys)
    assert code == 2
    assert "error" in err


def test_validate_parse_error_exits_2(tmp_path, capsys):
    p = tmp_path / "broken.ccl"
    p.write_text(NO_BRACE)
    code, out, err = run(["validate", str(p)], capsys)
    assert code == 2
    assert "error" in err


def test_validate_non_ground_query_exits_2(tmp_path, capsys):
    p = tmp_path / "open-query.ccl"
    p.write_text("choicespace {\n  alternative { p(a): 1 }\n}\nquery p(X).\n")
    code, _, err = run(["validate", str(p)], capsys)
    assert code == 2
    assert "line 4, column 7: query literal is not ground: p(X)" in err


# ---------------------------------------------------------------------------
# infer


def test_infer_friends_strong_extension(data_dir, capsys):
    code, out, _ = run(["infer", str(data_dir / "friends.ccl")], capsys)
    assert code == 0
    d = json.loads(out)
    assert (d["lower"], d["upper"]) == ("8/25", "2/5")
    assert (d["lower_dec"], d["upper_dec"]) == (0.32, 0.40)
    assert d["method"] == "vertex_product"


def test_infer_urn_merged_lp(data_dir, capsys):
    code, out, _ = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--method", "lp"], capsys
    )
    assert code == 0
    d = json.loads(out)
    assert (d["lower"], d["upper"]) == ("1/2", "7/10")
    assert (d["lower_dec"], d["upper_dec"]) == (0.5, 0.7)


def test_infer_psat_matches_lp_within_epsilon(data_dir, capsys):
    eps = F(1, 1024)
    code, out, _ = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--method", "psat"], capsys
    )
    assert code == 0
    d = json.loads(out)
    assert abs(F(d["lower"]) - F(1, 2)) <= eps
    assert abs(F(d["upper"]) - F(7, 10)) <= eps
    assert d["method"] == "psat_bisect"
    assert F(d["epsilon"]) == eps


def test_infer_outer_bound_wraps_exact(data_dir, capsys):
    _, urn_out, _ = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--method", "outer"], capsys
    )
    d = json.loads(urn_out)
    assert F(d["lower"]) <= F(1, 2) and F(d["upper"]) >= F(7, 10)

    _, fr_out, _ = run(
        ["infer", str(data_dir / "friends.ccl"), "--method", "outer"], capsys
    )
    d = json.loads(fr_out)
    assert d["lower"] == "8/25"  # tight on this theory


@pytest.mark.parametrize("name", ["urn-merged", "friends-merged"])
def test_infer_method_agreement_on_single_space_theories(name, data_dir, capsys):
    path = str(data_dir / f"{name}.ccl")
    _, lp_out, _ = run(["infer", path, "--method", "lp"], capsys)
    _, vx_out, _ = run(["infer", path, "--method", "vertex"], capsys)
    _, ps_out, _ = run(["infer", path, "--method", "psat"], capsys)
    lp, vx, ps = json.loads(lp_out), json.loads(vx_out), json.loads(ps_out)
    assert (lp["lower"], lp["upper"]) == (vx["lower"], vx["upper"])
    assert abs(F(ps["lower"]) - F(lp["lower"])) <= F(1, 1024)
    assert abs(F(ps["upper"]) - F(lp["upper"])) <= F(1, 1024)


def test_infer_explicit_query_overrides_declared(data_dir, capsys):
    path = str(data_dir / "urn-merged.ccl")
    _, default_out, _ = run(["infer", path, "--method", "lp"], capsys)
    _, same_out, _ = run(
        ["infer", path, "--method", "lp", "--query", r"\+ a1g, \+ a2r"], capsys
    )
    assert default_out == same_out
    _, other_out, _ = run(
        ["infer", path, "--method", "lp", "--query", "a1r"], capsys
    )
    assert json.loads(other_out) != json.loads(default_out)


def test_infer_bad_query_text_exits_2(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--query", "a1r,,"], capsys
    )
    assert code == 2
    assert "error" in err


def test_infer_non_ground_query_exits_2(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--query", "r(X)"], capsys
    )
    assert code == 2
    assert "query literal is not ground" in err


def test_infer_unknown_query_atom_exits_1(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--query", "zz"], capsys
    )
    assert code == 1
    assert "error" in err


ONE_SPACE = "needs a theory with exactly one choice space; this theory has 2"


def test_infer_lp_needs_single_space(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "friends.ccl"), "--method", "lp"], capsys
    )
    assert code == 1
    assert f"error: the lp method {ONE_SPACE}" in err


def test_infer_psat_needs_single_space(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "friends.ccl"), "--method", "psat"], capsys
    )
    assert code == 1
    assert f"error: the psat method {ONE_SPACE}" in err


def test_infer_theory_without_query_exits_1(tmp_path, capsys):
    p = tmp_path / "noquery.ccl"
    p.write_text("choicespace {\n  alternative { a: 1/2, b: 1/2 }\n}\n")
    code, _, err = run(["infer", str(p)], capsys)
    assert code == 1
    assert "no query" in err


def test_infer_table_format(data_dir, capsys):
    code, out, _ = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--method", "lp", "--format", "table"],
        capsys,
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("lower  1/2")
    assert lines[1].startswith("upper  7/10")


def test_infer_bad_epsilon_exits_2(data_dir, capsys):
    code, _, err = run(
        ["infer", str(data_dir / "urn-merged.ccl"), "--method", "psat", "--epsilon", "hot"],
        capsys,
    )
    assert code == 2


# ---------------------------------------------------------------------------
# rank


def test_rank_counts_echo_matches_input(data_dir, capsys):
    code, out, _ = run(["rank", str(data_dir / "abc.rankings")], capsys)
    assert code == 0
    d = json.loads(out)
    assert d["counts"]["matrix"] == [[8, 6, 4], [5, 4, 9], [5, 8, 5]]
    assert d["counts"]["total"] == 18


def test_rank_rankings_vs_counts_identical_up_to_truth(data_dir, capsys):
    _, via_rankings, _ = run(["rank", str(data_dir / "abc.rankings")], capsys)
    _, via_counts, _ = run(["rank", str(data_dir / "abc-counts.csv")], capsys)
    a = json.loads(via_rankings)
    b = json.loads(via_counts)
    assert all(p["truth"] is None for p in b["pairs"])
    assert b["icl_acc_determinate"] is None and b["icl_acc_indeterminate"] is None
    for p in a["pairs"]:
        p["truth"] = None
    a["icl_acc_determinate"] = None
    a["icl_acc_indeterminate"] = None
    assert a == b


def test_rank_counts_flag_forces_csv_parse(data_dir, tmp_path, capsys):
    renamed = tmp_path / "abc.data"
    renamed.write_text((data_dir / "abc-counts.csv").read_text())
    _, out_flag, _ = run(["rank", str(renamed), "--counts"], capsys)
    _, out_csv, _ = run(["rank", str(data_dir / "abc-counts.csv")], capsys)
    assert out_flag == out_csv


def test_rank_single_ranking_all_pairs_determinate(tmp_path, capsys):
    p = tmp_path / "one.rankings"
    p.write_text("a,b,c\n")
    code, out, _ = run(["rank", str(p)], capsys)
    assert code == 0
    d = json.loads(out)
    assert all(p["ccl_verdict"] != "indeterminate" for p in d["pairs"])
    assert F(d["determinacy_rate"]["value"]) == 1


def assert_rank_psat_brackets_lp(path, capsys):
    _, lp_out, _ = run(["rank", path], capsys)
    code, ps_out, _ = run(["rank", path, "--backend", "psat", "--epsilon", "1/64"], capsys)
    assert code == 0
    lp = json.loads(lp_out)
    ps = json.loads(ps_out)
    assert len(ps["pairs"]) == len(lp["pairs"])
    for a, b in zip(lp["pairs"], ps["pairs"]):
        assert F(b["interval"]["lower"]) <= F(a["interval"]["lower"])
        assert F(a["interval"]["upper"]) <= F(b["interval"]["upper"])
        assert F(a["interval"]["lower"]) - F(b["interval"]["lower"]) <= F(1, 64)
        assert F(b["interval"]["upper"]) - F(a["interval"]["upper"]) <= F(1, 64)


def test_rank_psat_backend_brackets_lp(data_dir, capsys):
    assert_rank_psat_brackets_lp(str(data_dir / "abc.rankings"), capsys)


def test_rank_psat_backend_on_five_objects(tmp_path, capsys):
    p = tmp_path / "five.rankings"
    p.write_text("a,b,c,d,e x3\nb,a,d,c,e x2\ne,d,c,b,a\nc,a,e,b,d\n")
    assert_rank_psat_brackets_lp(str(p), capsys)


def test_rank_holdout_seed_determinism(data_dir, capsys):
    path = str(data_dir / "abc.rankings")
    _, a, _ = run(["rank", path, "--holdout", "1/3", "--seed", "4"], capsys)
    _, b, _ = run(["rank", path, "--holdout", "1/3", "--seed", "4"], capsys)
    assert a == b
    code, _, _ = run(["rank", path, "--holdout", "1/3", "--seed", "5"], capsys)
    assert code == 0


def test_rank_table_format(data_dir, capsys):
    code, out, _ = run(["rank", str(data_dir / "abc.rankings"), "--format", "table"], capsys)
    assert code == 0
    assert "counts" in out
    assert "a>b" in out
    assert "determinacy_rate 0/1" in out


def test_rank_threshold_changes_verdicts(data_dir, capsys):
    _, out, _ = run(
        ["rank", str(data_dir / "abc.rankings"), "--threshold", "1/5"], capsys
    )
    d = json.loads(out)
    verdicts = {tuple(p["pair"]): p["ccl_verdict"] for p in d["pairs"]}
    assert verdicts[("a", "b")] == "a>b"  # lower 13/30 > 1/5
    assert verdicts[("b", "c")] == "b>c"  # lower 1/3 > 1/5


def test_rank_bad_threshold_exits_2(data_dir, capsys):
    code, _, _ = run(
        ["rank", str(data_dir / "abc.rankings"), "--threshold", "often"], capsys
    )
    assert code == 2


@pytest.mark.parametrize(
    "name, text",
    [
        ("bad.rankings", "a,b\na,b,c\n"),
        ("bad.rankings", "Alice,bob\n"),
        ("bad.csv", "a,a\n1,0\n0,1\nN=1\n"),
        ("bad.csv", "a,,b\n1,0,0\n0,1,0\n0,0,1\nN=1\n"),
        ("bad.rankings", "a,b x\u00b2\nb,a\n"),
    ],
    ids=["ragged-rankings", "uppercase-name", "repeated-header", "empty-header-name", "superscript-multiplicity"],
)
def test_rank_malformed_rankings_exits_2(tmp_path, capsys, name, text):
    p = tmp_path / name
    p.write_text(text, encoding="utf-8")
    code, _, err = run(["rank", str(p)], capsys)
    assert code == 2
    assert "error" in err


def test_rank_on_ten_objects_exits_1_at_the_cap(tmp_path, capsys):
    p = tmp_path / "ten.rankings"
    p.write_text("a,b,c,d,e,f,g,h,i,j\nj,i,h,g,f,e,d,c,b,a\n")
    code, out, err = run(["rank", str(p)], capsys)
    assert (code, out) == (1, "")
    assert err.startswith("error: ") and "cap" in err


def test_rank_bad_holdout_exits_1(data_dir, capsys):
    code, _, _ = run(
        ["rank", str(data_dir / "abc.rankings"), "--holdout", "2"], capsys
    )
    assert code == 1


# ---------------------------------------------------------------------------
# worlds


def test_worlds_table_has_independent_weights_for_singleton_spaces(data_dir, capsys):
    code, out, _ = run(["worlds", str(data_dir / "friends-icl.ccl")], capsys)
    assert code == 0
    assert "mu'" in out
    assert "w1" in out and "w8" in out


def test_worlds_table_omits_weights_otherwise(data_dir, capsys):
    code, out, _ = run(["worlds", str(data_dir / "friends-merged.ccl")], capsys)
    assert code == 0
    assert "mu'" not in out


def test_worlds_json_counts(data_dir, capsys):
    for name, count in [("urn", 9), ("friends", 8), ("friends-merged", 8)]:
        code, out, _ = run(
            ["worlds", str(data_dir / f"{name}.ccl"), "--format", "json"], capsys
        )
        assert code == 0
        d = json.loads(out)
        assert len(d["worlds"]) == count
    icl = json.loads(
        run(["worlds", str(data_dir / "urn.ccl"), "--format", "json"], capsys)[1]
    )
    assert "independent_weights" in icl


# ---------------------------------------------------------------------------
# psat-export


def test_psat_export_format(data_dir, capsys):
    code, out, _ = run(
        ["psat-export", str(data_dir / "urn-merged.ccl"), "--alpha", "14/25"], capsys
    )
    assert code == 0
    assert "14/25" in out
    assert any(line.startswith("p cnf ") for line in out.splitlines())


def test_psat_export_rejects_bad_alpha(data_dir, capsys):
    code, _, _ = run(
        ["psat-export", str(data_dir / "urn-merged.ccl"), "--alpha", "3/2"], capsys
    )
    assert code == 1


def test_psat_export_needs_single_space(data_dir, capsys):
    code, _, err = run(["psat-export", str(data_dir / "friends.ccl")], capsys)
    assert code == 1
    assert f"error: the PSAT reduction {ONE_SPACE}" in err


# ---------------------------------------------------------------------------
# determinism across processes


# ---------------------------------------------------------------------------
# golden bytes


GOLDEN_DIR = Path(__file__).with_name("golden")

# (golden file stem, command line with the data file named relative to the
# bundled data directory).  Each golden file holds the exact stdout of the
# command; the files were captured before the exact bounds moved onto the
# shared LP core, and pin the promise that output is byte-identical.
_CCL = ["urn", "urn-merged", "friends", "friends-merged", "friends-icl"]
_ONE_SPACE = ["urn-merged", "friends-merged"]
GOLDEN_CASES = (
    [(f"infer-{n}-{m}", ["infer", f"{n}.ccl", "--method", m]) for n in _CCL for m in ("vertex", "outer")]
    + [(f"infer-{n}-{m}", ["infer", f"{n}.ccl", "--method", m]) for n in _ONE_SPACE for m in ("lp", "psat")]
    + [
        ("infer-friends-vertex-table", ["infer", "friends.ccl", "--format", "table"]),
        ("infer-urn-merged-lp-query", ["infer", "urn-merged.ccl", "--method", "lp", "--query", "a1r"]),
    ]
    + [(f"worlds-{n}-{f}", ["worlds", f"{n}.ccl", "--format", f]) for n in ("friends", "friends-icl") for f in ("table", "json")]
    + [
        (f"rank-{stem}-{f}", ["rank", data, "--format", f])
        for stem, data in (("rankings", "abc.rankings"), ("counts", "abc-counts.csv"))
        for f in ("json", "table")
    ]
    + [("rank-rankings-psat-json", ["rank", "abc.rankings", "--backend", "psat", "--epsilon", "1/64"])]
    + [(f"psat-export-{n}", ["psat-export", f"{n}.ccl", "--alpha", "14/25"]) for n in _ONE_SPACE]
)


def _golden_argv(data_dir, args):
    return [args[0], str(data_dir / args[1]), *args[2:]]


@pytest.mark.parametrize("stem, args", GOLDEN_CASES, ids=[c[0] for c in GOLDEN_CASES])
def test_output_matches_golden_bytes(stem, args, data_dir, capsys):
    code, out, err = run(_golden_argv(data_dir, args), capsys)
    assert (code, err) == (0, "")
    assert out.encode() == (GOLDEN_DIR / f"{stem}.txt").read_bytes()


def _module_cli(args):
    return subprocess.run(
        [sys.executable, "-m", "credalchoice.cli", *args],
        capture_output=True,
        timeout=120,
    )


def test_output_is_byte_identical_across_processes(data_dir):
    infer_args = ["infer", str(data_dir / "friends.ccl")]
    rank_args = ["rank", str(data_dir / "abc.rankings")]
    worlds_args = ["worlds", str(data_dir / "friends-merged.ccl"), "--format", "json"]
    for args in (infer_args, rank_args, worlds_args):
        first = _module_cli(args)
        second = _module_cli(args)
        assert first.returncode == second.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout  # non-empty


REPO_ROOT = Path(__file__).resolve().parent.parent


def _install_copy(tmp_path):
    """Install a copy of the checkout into `tmp_path`, offline, with setuptools.

    The build runs on a copy of `pyproject.toml` and `src/`, so no `build/` or
    `*.egg-info` lands in the checkout. Returns the installed console script
    and the `site-packages` directory that holds the installed package.
    """
    source = tmp_path / "source"
    source.mkdir()
    shutil.copy(REPO_ROOT / "pyproject.toml", source)
    shutil.copytree(
        REPO_ROOT / "src",
        source / "src",
        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"),
    )
    record = tmp_path / "record.txt"
    build = subprocess.run(
        [
            sys.executable, "-c", "from setuptools import setup; setup()",
            "install", "--single-version-externally-managed",
            "--record", str(record), "--prefix", str(tmp_path / "prefix"),
        ],
        cwd=source,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert build.returncode == 0, build.stderr
    installed = [Path(line) for line in record.read_text().splitlines()]
    (script,) = [f for f in installed if f.stem == "credalchoice"]
    (init,) = [f for f in installed if f.parts[-2:] == ("credalchoice", "__init__.py")]
    return script, init.parent.parent


def test_console_script_is_installed(data_dir, tmp_path):
    pytest.importorskip("setuptools")
    script, site_packages = _install_copy(tmp_path)
    env = dict(
        os.environ,
        PATH=os.pathsep.join([str(script.parent), os.environ.get("PATH", "")]),
        PYTHONPATH=str(site_packages),
    )
    proc = subprocess.run(
        ["credalchoice", "validate", str(data_dir / "urn.ccl")],
        capture_output=True,
        timeout=60,
        env=env,
    )
    assert proc.returncode == 0
