"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run  # puts the package source on sys.path
import gate
import inputs
from buchstaber import formats
from buchstaber.invariant import XiWitness

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {"sweep-small": 12, "polytopes-wide": 3, "verify-matrices": 6}


@pytest.fixture(scope="module", params=sorted(TINY))
def tiny_runs(request):
    workload = request.param
    return workload, {
        trace: run.run_workload(workload, 3, 0, trace, size=TINY[workload], setup_repeats=1)[0]
        for trace in (False, True)
    }


def test_smoke_run_of_each_workload(tiny_runs):
    workload, results = tiny_runs
    for trace, result in results.items():
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"], (workload, trace)
        assert result["attempted"] >= 1 and result["failed"] == 0


def test_metric_names_match_benchmark_json(tiny_runs):
    _, results = tiny_runs
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        printed = results[trace]["metrics"]
        declared = {m["name"]: m["unit"] for m in SPEC[section]}
        assert {name: v["unit"] for name, v in printed.items()} == declared
        assert all(isinstance(v["value"], (int, float)) for v in printed.values())


def test_end_to_end_metrics_are_nonzero(tiny_runs):
    workload, results = tiny_runs
    # the three smallest polytopes all have interval answers; the full
    # workload always holds four fixed members with exact ones
    skip = {"s_exact_frac", "sreal_exact_frac"} if workload == "polytopes-wide" else set()
    assert all(v["value"] > 0 for name, v in results[False]["metrics"].items() if name not in skip)


def test_cli_prints_result_as_last_line():
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", "verify-matrices",
         "--seed", "2", "--seconds", "0", "--trace", "0"],
        capture_output=True, text=True, timeout=180, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"]


def test_without_package_source_exits_nonzero():
    bare = HERE / "out" / "bare-checkout"  # BENCHMARK.json and perfbench/ only
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir(parents=True)
    try:
        shutil.copy(HERE.parent / "BENCHMARK.json", bare)
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "test_*"))
        proc = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", "sweep-small",
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, check=False,
        )
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def _analysed():
    """The first sweep member with a witness of rank at least 2."""
    for item in inputs.sweep_small(0, size=20):
        K, report, js = run.analyze_op(item)
        if report.s_real_searched >= 2:
            return item, K, report, js
    raise AssertionError("no member with a rank-2 witness")


def test_gate_accepts_the_real_answer():
    item, K, report, js = _analysed()
    assert gate.check_report(K, report, gate.load_answers()[item.key], js) == []


def test_gate_rejects_corrupted_answers():
    item, K, report, js = _analysed()
    expected = gate.load_answers()[item.key]
    wrong = expected["s"][1] + 1
    bad_value = dataclasses.replace(report, s_lower=wrong, s_upper=wrong)
    assert gate.check_report(K, bad_value, expected)
    bad_level = dataclasses.replace(report, criteria_level=report.criteria_level - 1)
    assert gate.check_report(K, bad_level, expected)
    w = report.xi_witness
    collapsed = XiWitness(w.k, dict.fromkeys(w.assignment, w.assignment[1]))
    assert gate.check_report(K, dataclasses.replace(report, xi_witness=collapsed), expected)
    assert gate.check_report(K, report, None)
    bad_json = js.replace('"upper": %d' % report.s_upper, '"upper": %d' % (report.s_upper + 1), 1)
    assert gate.check_report(K, report, expected, bad_json)


def test_gate_rejects_inconsistent_verify_answers():
    cand = inputs.verify_matrices(1, size=4).candidates[0]
    assert cand.witness
    assert gate.check_candidate(cand, True, True, True) == []
    assert gate.check_candidate(cand, True, True, False)
    assert gate.check_candidate(cand, True, None, True)
    assert gate.check_candidate(cand, False, False, False)


def test_same_seed_same_inputs():
    assert inputs.sweep_small(5) == inputs.sweep_small(5)
    assert inputs.polytopes_wide(5) == inputs.polytopes_wide(5)
    a = inputs.verify_matrices(5, size=8).candidates
    b = inputs.verify_matrices(5, size=8).candidates
    assert [(c.key, c.k, c.ring, c.rows) for c in a] == [(c.key, c.k, c.ring, c.rows) for c in b]


def test_seed_zero_reproduces_the_test_corpus():
    spec = importlib.util.spec_from_file_location(
        "acceptance_conftest", HERE.parent / "tests" / "conftest.py")
    conftest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(conftest)
    corpus = conftest.build_random_corpus()
    assert [it.text for it in inputs.sweep_small(0)] == [formats.complex_to_text(K) for K in corpus]


def test_different_seed_different_random_members():
    s5, s6 = inputs.sweep_small(5), inputs.sweep_small(6)
    changed = [a.key for a, b in zip(s5, s6) if a.text != b.text]
    assert len(changed) > len(s5) // 2
    # relabelled members are the same complexes up to isomorphism
    for a, b in zip(s5, s6):
        Ka, Kb = formats.parse_complex_text(a.text), formats.parse_complex_text(b.text)
        assert (Ka.m, Ka.dimension, len(Ka.minimal_nonsimplices())) == (
            Kb.m, Kb.dimension, len(Kb.minimal_nonsimplices()))
    p5, p6 = inputs.polytopes_wide(5), inputs.polytopes_wide(6)
    assert [a.key for a in p5] == [b.key for b in p6] and len(p5) == 30
    changed = {a.key for a, b in zip(p5, p6) if a.text != b.text}
    assert changed == {"random/14/14002", "random/14/14003", "random/16/16002"}
    r5 = [c.rows for c in inputs.verify_matrices(5, size=8).candidates if not c.witness]
    r6 = [c.rows for c in inputs.verify_matrices(6, size=8).candidates if not c.witness]
    assert r5 != r6


def test_one_lost_exact_answer_exceeds_the_bound():
    # a search budget lowered far enough to turn one exact answer into an
    # interval must move s_exact_frac or sreal_exact_frac past its bound
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    analysed = (
        len(inputs.sweep_small(0)),
        len(inputs.polytopes_wide(0)),
        len(range(0, inputs.SWEEP_SIZE, inputs.VERIFY_STRIDE)),
    )
    for name in ("s_exact_frac", "sreal_exact_frac"):
        assert all(1 / n > bounds[name] for n in analysed), name
