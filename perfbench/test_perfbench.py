"""Tests of the benchmark itself.

    python3 -m pytest perfbench/test_perfbench.py

The smoke test runs one op of every workload, traced and untraced; the
whole file takes about 20 seconds.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import credalchoice  # noqa: E402
import credalchoice.cli  # noqa: E402,F401  (its bindings must be rebound too)

from perfbench import bench  # noqa: E402
from perfbench.tracer import NAME, PARENT, START, END, OP, SIZE, RAISED, Tracer, layer_totals  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

INPUT_DIGEST = """
import hashlib, sys
sys.path[:0] = [{src!r}, {root!r}]
from perfbench.workloads import WORKLOADS
h = hashlib.sha256()
for w in WORKLOADS.values():
    for ref in w.batch({seed}):
        h.update(w.text(ref).encode())
print(h.hexdigest())
"""


def input_digest(seed: int, hash_seed: str) -> str:
    code = INPUT_DIGEST.format(src=str(ROOT / "src"), root=str(ROOT), seed=seed)
    env = dict(os.environ, PYTHONHASHSEED=hash_seed)
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env, timeout=120
    ).stdout.strip()


def test_same_seed_gives_same_input_bytes_across_processes():
    assert input_digest(7, "1") == input_digest(7, "2")
    assert input_digest(7, "1") != input_digest(8, "1")


def test_every_selectable_input_has_a_reference_digest():
    reference = bench.load_reference()
    for w in WORKLOADS.values():
        for seed in range(20):
            for ref in w.batch(seed):
                assert ref in w.pool_refs()
        for ref in w.pool_refs():
            assert any(key == ref or key.startswith(ref + ":") for key in reference), ref


def bindings():
    return {
        (name, attr): value
        for name, mod in sys.modules.items()
        if name == "credalchoice" or name.startswith("credalchoice.")
        for attr, value in vars(mod).items()
    }


def test_tracer_rebinds_every_importer_and_restores_every_binding():
    before = bindings()
    original = credalchoice.worlds.build_world_space
    doc = credalchoice.load_ccl(ROOT / "src" / "credalchoice" / "data" / "friends.ccl")
    with Tracer() as tracer:
        for mod in ("worlds", "inference", "psat", "ranking", "cli"):
            assert getattr(sys.modules[f"credalchoice.{mod}"], "build_world_space") is not original
        assert credalchoice.build_world_space is not original
        tracer.op = "x"
        credalchoice.credal_bounds_strong_extension(doc.theory, doc.queries[0])
    after = bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)
    names = {s[NAME] for s in tracer.spans}
    assert {"inference.credal_bounds_strong_extension", "worlds.build_world_space", "logic.stable_model"} <= names


def test_self_time_subtracts_children_and_combos_multiply_vertex_counts():
    spans = [
        ["inference.credal_bounds_strong_extension", 0.0, 10.0, -1, "a", None, False],
        ["lp.enumerate_vertices_eq", 1.0, 3.0, 0, "a", 4, False],
        ["lp.enumerate_vertices_eq", 3.0, 4.0, 0, "a", 5, False],
        ["inference.credal_bounds_strong_extension", 10.0, 11.0, -1, "b", None, True],
    ]
    assert [NAME, START, END, PARENT, OP, SIZE, RAISED] == list(range(7))
    totals = layer_totals(spans, {"a", "b"})
    assert totals["inference.credal_bounds_strong_extension.self_s"] == pytest.approx(7.0 + 1.0)
    assert totals["inference.credal_bounds_strong_extension.calls"] == 2
    assert totals["lp.vertices"] == 9
    assert totals["inference.combos"] == 20  # the raised call adds nothing


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_run_of_one_op_reports_every_metric(name):
    metrics, outcome, _ = bench.end_to_end(name, seed=1, seconds=0, max_ops=1)
    assert {m["name"] for m in SPEC["end_to_end"]} <= metrics.keys()
    assert all(metrics[m["name"]] > 0 for m in SPEC["end_to_end"])
    assert outcome.failed == 0 and outcome.attempted == 1

    metrics, outcome, _ = bench.per_layer(name, seed=1, seconds=0, max_ops=1)
    assert {m["name"] for m in SPEC["per_layer"]} <= metrics.keys()
    assert outcome.failed == 0 and outcome.attempted == 2


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rank", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_workload_names_match_the_benchmark_definition():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert [w["why"] for w in SPEC["workloads"]] == [w.why for w in WORKLOADS.values()]
