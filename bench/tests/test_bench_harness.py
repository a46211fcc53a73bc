"""Tests for the pipeline benchmark harness in bench/.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

import cProfile
import dataclasses
import json
import pstats
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import run as bench  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")


@pytest.fixture(scope="module")
def kb():
    return bench.load_kernelbound()


@pytest.fixture
def quick_run(monkeypatch, tmp_path):
    """bench.run with its records under tmp_path and thread pins undone."""
    monkeypatch.setattr(bench, "WORK", tmp_path)
    for var in bench.THREAD_VARS:
        monkeypatch.setenv(var, "1")
    return bench.run


def _namespaces(kb):
    return (kb.cli, kb.hypotheses, kb.lyapunov, kb.solver, kb.verify,
            kb.solver.sparse_linalg, kb.solver.OperatorHandle,
            kb.verify.KernelStore)


def test_wrappers_patch_and_restore_originals(kb):
    before = [dict(vars(ns)) for ns in _namespaces(kb)]
    with Tracer() as tracer:
        tracer.install(kb)
        assert kb.cli.parse_config is not before[0]["parse_config"]
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
    for ns, snapshot in zip(_namespaces(kb), before):
        now = dict(vars(ns))
        assert now.keys() == snapshot.keys()
        assert all(now[key] is snapshot[key] for key in snapshot)


def test_restore_after_exception(kb):
    original = kb.verify.check_domination
    with pytest.raises(RuntimeError):
        with Tracer() as tracer:
            tracer.install(kb)
            raise RuntimeError("boom")
    assert kb.verify.check_domination is original


def test_wrong_verdict_raises_ops_failed_ratio(kb, quick_run, monkeypatch):
    clean, _ = quick_run("poly1d", 3, 0.0, True)
    assert clean["correct"] and clean["failed"] == 0
    assert clean["metrics"]["ops_failed_ratio"]["value"] == 0

    real = kb.verify.check_decay_shape

    def wrong_verdict(*args, **kwargs):
        return dataclasses.replace(real(*args, **kwargs), status="fail")

    monkeypatch.setattr(kb.verify, "check_decay_shape", wrong_verdict)
    broken, lines = quick_run("poly1d", 3, 0.0, True)
    # both verify invocations of every pass fail; the gate itself holds
    assert broken["correct"] and broken["attempted"] == clean["attempted"]
    assert broken["failed"] == 2 * broken["attempted"] // len(bench.STAGES)
    assert broken["metrics"]["ops_failed_ratio"]["value"] == pytest.approx(0.4)
    assert any(line.startswith("failed stage verify:") for line in lines)


def test_failed_stage_is_counted_not_timed(kb, monkeypatch, tmp_path):
    def crash(*args, **kwargs):
        raise ValueError("injected")

    monkeypatch.setattr(kb.verify, "check_mass_and_positivity", crash)
    clock = bench.SpeedClock()
    ps = bench.run_pass(kb.cli.main, bench.WORKLOADS["poly1d"],
                        tmp_path / "out", 1, clock=clock)
    assert ps["failed"] == ["verify", "verify_rerun"]
    assert set(ps["times"]) == set(clock.raw) == {"check", "synth", "solve"}
    assert "ValueError" in ps["notes"]["verify"]


def test_gate_flags_differing_artifacts():
    same = {"times": {}, "failed": [], "problems": [], "notes": {},
            "digest": {"ledger.txt": "a"}}
    other = dict(same, digest={"ledger.txt": "b"})
    assert bench.gate([same, dict(same)]) == []
    assert "ledger.txt" in bench.gate([same, other])[0]


def test_emitted_names_match_spec(quick_run):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    traced, _ = quick_run("poly1d", 5, 0.0, True)
    assert traced["correct"]
    emitted = set(traced["metrics"])
    assert emitted == {m["name"] for m in spec["per_layer"]}
    names = list(emitted) + [w["name"] for w in spec["workloads"]]
    names += [m["name"] for m in spec["end_to_end"]]
    for name in names:
        assert NAME.fullmatch(name), name
    for entry in spec["end_to_end"] + spec["per_layer"]:
        assert NAME.fullmatch(entry["unit"]), entry


def test_exits_nonzero_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload",
                           "poly1d", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_trace_matches_cprofile_on_cold_verify(kb, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    config = bench.WORKLOADS["poly1d"]
    for stage in ("check", "synth", "solve"):
        bench.run_stage(kb.cli.main, stage, config, out, 7)
    prof = cProfile.Profile()
    with Tracer() as tracer:
        tracer.install(kb)
        prof.enable()
        rc, _, _ = bench.run_stage(kb.cli.main, "verify", config, out, 7)
        prof.disable()
    assert rc == 0
    spans = summarize(tracer.spans)
    profiled = {}
    for (_, _, name), (_, calls, _, cum, _) in pstats.Stats(prof).stats.items():
        got = profiled.setdefault(name, [0, 0.0])
        got[0] += calls
        got[1] += cum
    pairs = {"solver.lu_solve": "<method 'solve' of 'SuperLU' objects>",
             "solver.factor": "splu", "solver.assemble": "assemble_generator",
             "solver.evolve": "evolve", "verify.domination": "check_domination",
             "verify.integrability": "check_lyapunov_integrability"}
    for span, name in pairs.items():
        assert spans[span]["calls"] == profiled[name][0], span
    # lu_solve is left out: on 1-D grids a solve is as short as the span
    for span in ("solver.evolve", "verify.domination", "verify.integrability"):
        assert spans[span]["s"] == pytest.approx(profiled[pairs[span]][1],
                                                 rel=0.1), span
