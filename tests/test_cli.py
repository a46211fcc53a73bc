"""End-to-end tests of the command line and its config format."""

import os
import re
import subprocess
import sys
import weakref
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from kernelbound import cli, hypotheses, lyapunov, solver, verify
from kernelbound.config import parse_config_text
from kernelbound.errors import ConfigError

BASE = {
    "family": {"kind": "polynomial", "m": "2", "zeta": "1", "alpha": "0",
               "eta": "1", "beta": "1", "theta": "1 0.5; 0.5 1",
               "gamma": "2 1; 1 2"},
    "grid": {"d": "1", "radii": "2 4", "spacing": "0.125", "theta": "0.5"},
    "lyapunov": {"T": "1"},
    "bounds": {"s": "4"},
    "solve": {"variants": "P", "times": "0.25", "sources": "0.5",
              "components": "0 1", "width": "0.125"},
    "verify": {"checks": "mass duality", "seed": "7", "t": "0.1 0.25 0.5",
               "t_single": "0.25"},
    "output": {"directory": "runs", "formats": "txt csv svg"},
}

ALL_CHECKS = ("domination monotone mass support duality chapman "
              "integrability weighted decay")

BENCH_CONFIGS = Path(__file__).resolve().parents[1] / "bench" / "configs"

# a small 2-D grid with every check
TWO_D = {"grid": {"d": "2", "radii": "1 2", "spacing": "0.125"},
         "bounds": {"s": "5"},
         "solve": {"sources": "0.5 0", "width": "0.125"},
         "verify": {"checks": ALL_CHECKS, "coarse": "0.25 2"}}


def make_config(tmp_path, name="run.cfg", **updates):
    """Write BASE with per-section overrides; a None value drops the key."""
    sections = {sec: dict(body) for sec, body in BASE.items()}
    for sec, body in updates.items():
        target = sections.setdefault(sec, {})
        for key, val in body.items():
            if val is None:
                target.pop(key, None)
            else:
                target[key] = str(val)
    lines = ["schema_version = 1", ""]
    for sec, body in sections.items():
        lines.append("[%s]" % sec)
        for key, val in body.items():
            lines.append("%s = %s" % (key, val))
        lines.append("")
    path = tmp_path / name
    path.write_text("\n".join(lines))
    return path


def heat_updates():
    # near-zero drift and potential leave pure unit diffusion
    return {"family": {"m": "1", "eta": "1e-30", "beta": "0",
                       "theta": "1e-30", "gamma": "0"},
            "solve": {"components": "0", "sources": "0"},
            "verify": {"checks": "mass"}}


def run_fresh(code, *args):
    """stdout lines of code run in a new interpreter on the source tree."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    done = subprocess.run([sys.executable, "-c", code, *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


class TestConfigParsing:
    def test_round_trip_types(self):
        cfg = parse_config_text(
            "schema_version = 1\n[family]\nm = 3\nbeta = 2.5\n"
            "theta = 1 0.5; 0.5 1\n[grid]\nradii = 1 2 3\n[solve]\n"
            "components = 0 1\n[verify]\ntwo_sided = yes\n"
            "checks = mass duality\n")
        assert cfg.get("family", "m") == 3
        assert cfg.get("family", "beta") == 2.5
        assert cfg.get("verify", "two_sided") is True
        assert cfg.get("grid", "radii") == [1.0, 2.0, 3.0]
        assert cfg.get("solve", "components") == [0, 1]
        assert cfg.get("family", "theta").shape == (2, 2)
        assert cfg.get("verify", "checks") == ["mass", "duality"]

    def test_defaults_pass_through(self):
        cfg = parse_config_text("schema_version = 1\n[grid]\nd = 1\n")
        assert cfg.get("grid", "dt") is None
        assert cfg.get("solve", "budget") == solver.DEFAULT_BUDGET
        assert cfg.get("solve", "times") == [0.5]
        with pytest.raises(ConfigError, match=r"missing key grid\.spacing"):
            cfg.get("grid", "spacing")

    def test_missing_schema_version(self):
        with pytest.raises(ConfigError, match="schema_version"):
            parse_config_text("[grid]\nd = 1\n")

    def test_wrong_schema_version(self):
        with pytest.raises(ConfigError, match="unsupported schema_version"):
            parse_config_text("schema_version = 2\n[grid]\nd = 1\n")

    def test_duplicate_key_names_both_lines(self):
        with pytest.raises(ConfigError,
                           match=r"duplicate key grid\.d.*line 3"):
            parse_config_text("schema_version = 1\n[grid]\nd = 1\nd = 2\n")

    def test_duplicate_section(self):
        with pytest.raises(ConfigError, match=r"duplicate section \[grid\]"):
            parse_config_text("schema_version = 1\n[grid]\nd = 1\n[grid]\n")

    def test_key_before_section(self):
        with pytest.raises(ConfigError, match="before any"):
            parse_config_text("schema_version = 1\nd = 1\n")

    def test_empty_value(self):
        with pytest.raises(ConfigError, match="empty value"):
            parse_config_text("schema_version = 1\n[grid]\nd =\n")

    def test_ragged_matrix(self):
        with pytest.raises(ConfigError, match="row 1 has 1"):
            parse_config_text("schema_version = 1\n[family]\n"
                              "theta = 1 2; 3\n")

    def test_bad_bool(self):
        with pytest.raises(ConfigError, match="true/false"):
            parse_config_text("schema_version = 1\n[verify]\n"
                              "two_sided = maybe\n")

    def test_error_location_has_line_number(self):
        with pytest.raises(ConfigError, match="demo.cfg:4"):
            parse_config_text("schema_version = 1\n[grid]\nd = 1\n"
                              "spacing = no\n", path="demo.cfg")

    @pytest.mark.parametrize("command, updates, message", [
        ("solve", {"solve": {"widht": "0.25"}},
         "unknown key solve.widht (did you mean width?)"),
        ("verify", {"verfy": {"checks": "mass"}},
         "unknown section [verfy] (did you mean verify?)"),
        ("verify", {"output": {"formats": "txt csv svgg"}},
         "unknown format 'svgg'"),
        ("check", {"grid": {"d": "3"}}, "unknown value 3 in grid.d"),
        ("synth", {"bounds": {"eps_scales": "0.5 1"}},
         "bounds.eps_scales needs 3 values, got 2"),
    ], ids=["key_typo", "section_typo", "format_typo", "grid_d", "eps_length"])
    def test_typo_or_disallowed_value_exits_2(self, tmp_path, capsys,
                                               command, updates, message):
        cfg = make_config(tmp_path, **updates)
        rc = cli.main([command, "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err


class TestCheckCommand:
    def test_passes_and_writes_reports(self, tmp_path, capsys):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        rc = cli.main(["check", "--config", str(cfg), "--out", str(out)])
        assert rc == 0
        assert "holds" in capsys.readouterr().out
        assert (out / "hypotheses.txt").exists()
        assert (out / "hypotheses.csv").read_text().startswith("hypothesis,")

    def test_violated_row_dominance_fails_with_witness(self, tmp_path, capsys):
        cfg = make_config(tmp_path, family={"gamma": "2 2; 2 2"})
        rc = cli.main(["check", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 1
        assert "witness" in capsys.readouterr().out

    def test_missing_theta_matrix_is_config_error(self, tmp_path, capsys):
        cfg = make_config(tmp_path, family={"theta": None})
        rc = cli.main(["check", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "family.theta" in capsys.readouterr().err

    def test_parse_error_reports_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("schema_version = 1\n[family]\nkind polynomial\n")
        rc = cli.main(["check", "--config", str(bad), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "bad.cfg:3" in capsys.readouterr().err


class TestSynthCommand:
    def test_writes_four_artifacts(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(cfg), "--out",
                         str(out)]) == 0
        for name in ("lyapunov_certificate.txt", "time_spec.txt",
                     "ledger.txt", "certificate.txt"):
            assert (out / name).exists()
        ledger = (out / "ledger.txt").read_text()
        assert "potential-row" in ledger and "majorant_star" in ledger

    def test_idempotent_bytes(self, tmp_path):
        cfg = make_config(tmp_path)
        a, b = tmp_path / "a", tmp_path / "b"
        cli.main(["synth", "--config", str(cfg), "--out", str(a)])
        cli.main(["synth", "--config", str(cfg), "--out", str(b)])
        for name in ("lyapunov_certificate.txt", "time_spec.txt",
                     "ledger.txt", "certificate.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_infeasible_family_names_constraint(self, tmp_path, capsys):
        cfg = make_config(tmp_path, family={"alpha": "2", "beta": "0",
                                            "gamma": "0.001 0; 0 0.001"})
        rc = cli.main(["synth", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 1
        assert "growth balance" in capsys.readouterr().err


class TestSolveCommand:
    def test_column_matches_gaussian(self, tmp_path, capsys):
        cfg = make_config(
            tmp_path, **{**heat_updates(),
                         "grid": {"radii": "6", "spacing": "0.03125"},
                         "solve": {"components": "0", "sources": "0",
                                   "times": "0.5", "width": "0.0625"}})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert "solve:" in capsys.readouterr().out
        data = np.loadtxt(out / "column_P_t0.5_y0_k0.csv", delimiter=",",
                          skiprows=1)
        x, u = data[:, 0], data[:, 1]
        var = 2 * 0.5 + 0.0625 ** 2
        dens = np.exp(-x * x / (2 * var)) / np.sqrt(2 * np.pi * var)
        assert np.sum(np.abs(u - dens)) * 0.03125 <= 0.02
        assert (out / "store").is_dir() and any((out / "store").iterdir())

    def test_zero_sources_is_a_pass(self, tmp_path, capsys):
        cfg = make_config(tmp_path, solve={"sources": None})
        rc = cli.main(["solve", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 0
        assert "no sources" in capsys.readouterr().out

    def test_budget_stops_before_allocation(self, tmp_path, capsys):
        cfg = make_config(tmp_path, solve={"budget": "10"})
        rc = cli.main(["solve", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 3
        assert "resource limit" in capsys.readouterr().err

    def test_unknown_variant_is_config_error(self, tmp_path):
        cfg = make_config(tmp_path, solve={"variants": "Q"})
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2


class TestVerifyCommand:
    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_exp1d_stops_on_the_step_residual(self, tmp_path, capsys):
        # ROADMAP item 2: the integrability check evolves exp(log nu), which
        # overflows on exp1d's larger radii, so a step's residual reads NaN;
        # until that item lands, the run must stop on the solver's message
        assert cli.main(["verify", "--config", str(BENCH_CONFIGS / "exp1d.cfg"),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.endswith(
            "error: step residual nan exceeds tolerance in column 0\n")

    def test_full_check_list_passes(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": ALL_CHECKS})
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        summary = (out / "verify_summary.txt").read_text()
        assert "overall: pass" in summary
        csv = (out / "verify_results.csv").read_text().splitlines()
        assert csv[0] == "check,status,t,x,y,h,k,value,bound"
        assert len(csv) > 5

    def test_unknown_check_is_config_error(self, tmp_path, capsys):
        cfg = make_config(tmp_path, verify={"checks": "mass warp"})
        rc = cli.main(["verify", "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert "unknown check" in capsys.readouterr().err

    def test_randomized_check_requires_seed(self, tmp_path, capsys):
        cfg = make_config(tmp_path, verify={"checks": "domination",
                                            "seed": None})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 2
        assert "seed" in capsys.readouterr().err
        assert cli.main(["verify", "--config", str(cfg), "--out", str(out),
                         "--seed", "3"]) == 0

    @pytest.mark.parametrize("updates, flags, named", [
        ({"seed": "-3"}, [], r"run\.cfg:\d+: verify\.seed"),
        ({}, ["--seed", "-1"], "error: --seed"),
        ({"jobs": "0"}, [], r"run\.cfg:\d+: verify\.jobs"),
        ({}, ["--jobs", "0"], "error: --jobs"),
        ({}, ["--jobs", "-1"], "error: --jobs"),
    ], ids=["verify.seed=-3", "--seed=-1", "verify.jobs=0", "--jobs=0",
            "--jobs=-1"])
    def test_negative_seed_or_jobs_below_one_exits_2(self, tmp_path, capsys,
                                                     updates, flags, named):
        cfg = make_config(tmp_path, verify=updates)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)] + flags) == 2
        err = capsys.readouterr().err
        assert re.search(named + " must be ", err) and "Traceback" not in err
        assert not (out / "verify_summary.txt").exists()

    def test_tolerance_override_can_fail_a_check(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": "duality",
                                            "tol_duality": "1e-12"})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 1
        assert "overall: fail" in (out / "verify_summary.txt").read_text()

    def test_broken_majorant_fails_against_stored_calibration(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": "weighted"})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert (out / "calibration.txt").read_text().startswith("C_cal")
        broken = make_config(tmp_path, name="broken.cfg",
                             verify={"checks": "weighted",
                                     "majorant_scale": "1e-6"})
        assert cli.main(["verify", "--config", str(broken), "--out",
                         str(out)]) == 1

    def test_broken_majorant_fails_cold(self, tmp_path):
        # C_cal comes from the healthy majorant on every run, so a broken
        # one fails with no earlier run to calibrate against
        cfg = make_config(tmp_path, verify={"checks": "weighted",
                                            "majorant_scale": "1e-6"})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 1
        assert "check_weighted_bound: fail" in \
            (out / "verify_summary.txt").read_text()

    def test_fresh_runs_are_byte_identical(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": ALL_CHECKS})
        outs = []
        for name in ("v1", "v2"):
            out = tmp_path / name
            assert cli.main(["verify", "--config", str(cfg), "--out",
                             str(out)]) == 0
            outs.append(out)
        for name in ("verify_summary.txt", "verify_results.csv",
                     "kernel_section.svg", "mass_decay.svg",
                     "weighted_ratio.svg"):
            assert (outs[0] / name).read_bytes() == \
                (outs[1] / name).read_bytes()

    def test_parallel_jobs_match_serial(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": "mass support duality"})
        serial, parallel = tmp_path / "s", tmp_path / "p"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(serial)]) == 0
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(parallel), "--jobs", "3"]) == 0
        assert (serial / "verify_results.csv").read_bytes() == \
            (parallel / "verify_results.csv").read_bytes()

    @pytest.mark.parametrize("jobs", ["1", "2"])
    def test_freed_memory_is_released_after_each_check_run(
            self, tmp_path, monkeypatch, jobs):
        cli._release_freed_memory()  # the real trim, or a no-op off glibc
        calls = []
        monkeypatch.setattr(cli, "_release_freed_memory",
                            lambda: calls.append(1))
        cfg = make_config(tmp_path, verify={"checks": "mass support duality"})
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--jobs", jobs]) == 0
        # mass, support once per component, duality
        assert len(calls) == 4

    def test_two_jobs_match_one_job_on_a_2d_grid(self, tmp_path):
        # checks share store columns, and with two jobs either one may
        # compute a shared column first
        cfg = make_config(tmp_path,
                          grid={"d": "2", "radii": "1 2", "spacing": "0.125"},
                          bounds={"s": "5"},
                          solve={"sources": "0.5 0", "width": "0.125"},
                          verify={"checks": ALL_CHECKS, "coarse": "0.25 2"})
        outs = []
        for jobs in ("1", "2"):
            out = tmp_path / ("jobs" + jobs)
            assert cli.main(["verify", "--config", str(cfg), "--out", str(out),
                             "--jobs", jobs]) == 0
            outs.append(out)
        # a rerun with two jobs reads every field and record back from the store
        assert cli.main(["verify", "--config", str(cfg), "--out", str(outs[0]),
                         "--jobs", "2"]) == 0
        for name in ("verify_summary.txt", "verify_results.csv",
                     "calibration.txt"):
            assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()
        records = [{p.name: p.read_bytes() for p in (out / "store").glob("*.kbr")}
                   for out in outs]
        # three certificates, the ledger and the mass check's row-sum bound
        assert len(records[0]) == 5 and records[0] == records[1]

    def test_svg_artifacts_are_polyline_documents(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": "mass"})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        for name in ("kernel_section.svg", "mass_decay.svg"):
            text = (out / name).read_text()
            assert text.startswith("<svg") and "polyline" in text

    @staticmethod
    def count_solver_work(monkeypatch):
        calls = {"evolve": 0, "assemble": 0}
        evolve, assemble = solver.OperatorHandle.evolve, solver.assemble_generator

        def counted_evolve(*args, **kwargs):
            calls["evolve"] += 1
            return evolve(*args, **kwargs)

        def counted_assemble(*args, **kwargs):
            calls["assemble"] += 1
            return assemble(*args, **kwargs)

        monkeypatch.setattr(solver.OperatorHandle, "evolve", counted_evolve)
        monkeypatch.setattr(solver, "assemble_generator", counted_assemble)
        return calls

    def test_rerun_reads_every_field_from_the_store(self, tmp_path,
                                                    monkeypatch):
        cfg = make_config(tmp_path, verify={"checks": ALL_CHECKS})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        cold = {name: (out / name).read_bytes()
                for name in ("verify_summary.txt", "verify_results.csv")}
        calls = self.count_solver_work(monkeypatch)
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert calls == {"evolve": 0, "assemble": 0}
        for name, blob in cold.items():
            assert (out / name).read_bytes() == blob

    @pytest.mark.parametrize("update, recomputed", [
        # domination's two random batches and chapman's three runs
        ({"verify": {"seed": "8"}}, 5),
        # duality's adjoint columns: the other checks step at theta = 1
        # already, and at 1 duality's forward columns are domination's
        ({"grid": {"theta": "1"}}, 1),
    ])
    def test_changed_inputs_miss_the_store(self, tmp_path, monkeypatch,
                                           update, recomputed):
        checks = {"checks": "domination mass duality chapman"}
        output = {"formats": "txt csv"}
        cfg = make_config(tmp_path, verify=checks, output=output)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        changed = make_config(tmp_path, name="changed.cfg", output=output,
                              grid=update.get("grid", {}),
                              verify=dict(checks, **update.get("verify", {})))
        calls = self.count_solver_work(monkeypatch)
        assert cli.main(["verify", "--config", str(changed), "--out",
                         str(out)]) == 0
        assert calls["evolve"] == recomputed
        fresh = tmp_path / "fresh"
        assert cli.main(["verify", "--config", str(changed), "--out",
                         str(fresh)]) == 0
        for name in ("verify_summary.txt", "verify_results.csv"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_changed_system_recalibrates(self, tmp_path):
        cfg = make_config(tmp_path, verify={"checks": "weighted"})
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        changed = make_config(tmp_path, name="changed.cfg",
                              family={"gamma": "3 1; 1 3"},
                              verify={"checks": "weighted"})
        rc = cli.main(["verify", "--config", str(changed), "--out", str(out)])
        fresh = tmp_path / "fresh"
        assert cli.main(["verify", "--config", str(changed), "--out",
                         str(fresh)]) == rc
        for name in ("verify_summary.txt", "verify_results.csv",
                     "calibration.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    def test_store_is_shared_between_solve_and_verify(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(out)]) == 0
        before = len(list((out / "store").iterdir()))
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        after = len(list((out / "store").iterdir()))
        # duality reuses the two solved forward columns; adjoint and mass
        # columns, mass's three all-ones runs and its row-sum record are the
        # only additions
        assert before == 2 and after == 10


class TestVerifyPlan:
    @staticmethod
    def watch_solver_work(monkeypatch):
        """Count solver work before and after run_plan returns.

        work["plan"] and work["checks"] count evolve, assemble_generator and
        splu calls and store misses; work["factored"] lists the (variant,
        grid, theta, dt) of every factorization, work["requests"] what the
        plan was given.
        """
        work = {"phase": "plan", "plan": Counter(), "checks": Counter(),
                "factored": [], "requests": []}

        def count(owner, name, what):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                work[work["phase"]][what] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        count(solver.OperatorHandle, "evolve", "evolve")
        count(solver, "assemble_generator", "assemble")
        count(solver.sparse_linalg, "splu", "splu")
        factor = solver.OperatorHandle._factor

        def watched_factor(handle, theta, dt):
            before = work[work["phase"]]["splu"]
            out = factor(handle, theta, dt)
            if work[work["phase"]]["splu"] > before:
                work["factored"].append((handle.variant, handle.grid,
                                         float(theta), float(dt)))
            return out
        monkeypatch.setattr(solver.OperatorHandle, "_factor", watched_factor)

        get_or_compute = verify.KernelStore.get_or_compute

        def watched_get(store, key, build):
            def counted_build():
                work[work["phase"]]["miss"] += 1
                return build()
            return get_or_compute(store, key, counted_build)
        monkeypatch.setattr(verify.KernelStore, "get_or_compute", watched_get)

        run_plan = verify.run_plan

        def watched_run_plan(system, requests, store, jobs=1):
            work["requests"] = list(requests)
            stats = run_plan(system, requests, store, jobs)
            work["phase"] = "checks"
            return stats
        monkeypatch.setattr(verify, "run_plan", watched_run_plan)
        return work

    @pytest.mark.parametrize("config", ["poly1d", "two_d"])
    def test_checks_build_nothing_once_the_plan_ran(self, tmp_path,
                                                     monkeypatch, config):
        cfg = BENCH_CONFIGS / "poly1d.cfg" if config == "poly1d" \
            else make_config(tmp_path, **TWO_D)
        work = self.watch_solver_work(monkeypatch)
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert work["phase"] == "checks"
        assert work["checks"] == Counter()
        # every (variant, grid, theta, dt) the checks step with is factored
        # exactly once, and nothing else is
        wanted = {(r.variant, r.grid, float(r.theta), float(r.dt))
                  for r in work["requests"]}
        assert sorted(work["factored"], key=repr) == sorted(wanted, key=repr)
        assert work["plan"]["splu"] == len(wanted)
        assert work["plan"]["evolve"] > 0 and work["plan"]["miss"] > 0

    def test_checks_alone_give_the_planned_rows_and_fields(self, tmp_path,
                                                            monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        calls = []
        for name in [n for n in verify.__all__ if n.startswith("check_")]:
            original = getattr(verify, name)

            def recorded(*args, original=original, **kwargs):
                calls.append((original, args, kwargs))
                return original(*args, **kwargs)
            monkeypatch.setattr(verify, name, recorded)
        planned = tmp_path / "planned"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(planned), "--jobs", "1"]) == 0
        assert len({fn for fn, _, _ in calls}) == 9
        # each check alone, in the order verify ran them, each with its own
        # fresh store, so every one computes its own fields
        results, alone = [], []
        for i, (fn, args, kwargs) in enumerate(calls):
            alone.append(tmp_path / ("alone%d" % i))
            store = verify.KernelStore(alone[-1])
            results.append(fn(*args, **dict(kwargs, store=store)))
        assert verify.results_csv(results).encode() == \
            (planned / "verify_results.csv").read_bytes()
        assert verify.summary_text(results).encode() == \
            (planned / "verify_summary.txt").read_bytes()
        # and every field a check stored alone has the planned bits
        planned_fields = {p.name: p.read_bytes()
                          for p in (planned / "store").iterdir()}
        for folder in alone:
            for path in folder.iterdir():
                assert planned_fields[path.name] == path.read_bytes()

    def test_one_factorization_is_alive_at_a_time(self, tmp_path,
                                                  monkeypatch):
        alive, most = weakref.WeakSet(), []
        splu = solver.sparse_linalg.splu

        class Tracked:
            def __init__(self, lu):
                self.lu = lu

            def solve(self, rhs):
                return self.lu.solve(rhs)

        def tracked_splu(*args, **kwargs):
            lu = Tracked(splu(*args, **kwargs))
            alive.add(lu)
            most.append(len(alive))
            return lu
        monkeypatch.setattr(solver.sparse_linalg, "splu", tracked_splu)
        cfg = make_config(tmp_path, **TWO_D)
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert len(most) > 1 and max(most) == 1

    def test_rerun_hashes_each_data_request_once(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(args) == 0
        hashed, planned = [], []
        digest, run_plan = verify._data_digest, verify.run_plan
        monkeypatch.setattr(verify, "_data_digest",
                            lambda data: hashed.append(data.shape) or digest(data))
        monkeypatch.setattr(verify, "run_plan",
                            lambda system, requests, store, jobs=1:
                            planned.extend(requests)
                            or run_plan(system, requests, store, jobs))
        assert cli.main(args) == 0
        # the checks get the planned requests, so each data request and each
        # second stage hashes what it evolves once, for the plan and the check
        hashing = [r for r in planned if r.data is not None or r.after is not None]
        assert len(hashed) == len(hashing) == 11

    def test_closing_line_reports_the_plan(self, tmp_path, capsys):
        cfg = make_config(tmp_path, **TWO_D)
        out = tmp_path / "out"
        counts = []
        for _ in ("cold", "rerun"):
            assert cli.main(["verify", "--config", str(cfg), "--out",
                             str(out)]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            head, _, plan = last.partition("; plan: ")
            assert head.startswith("verify: 10 check runs in ")
            counts.append({name: int(n) for n, name in
                           (part.split(" ", 1) for part in plan.split(", "))})
        cold, rerun = counts
        assert cold["requests"] == rerun["requests"] > cold["batches"] \
            == rerun["batches"]
        assert cold["fields found in the store"] == 0
        assert min(cold["evolutions"], cold["factorizations"],
                   cold["assemblies"]) > 0
        # the rerun reads each stored field once and builds nothing; the
        # certificate and ledger records (.kbr) are not fields
        assert rerun["fields found in the store"] == \
            len(list((out / "store").glob("*.kbf")))
        assert rerun["evolutions"] == rerun["factorizations"] == \
            rerun["assemblies"] == 0


class TestVerifyRecords:
    """Certificates and the ledger as kernel-store records (.kbr files)."""

    RECORDED = {"verify": {"checks": "integrability weighted decay"},
                "output": {"formats": "txt csv"}}

    def test_rerun_computes_no_certificate_or_ledger(self, tmp_path,
                                                     monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(args) == 0
        cold = {name: (tmp_path / "out" / name).read_bytes()
                for name in ("verify_summary.txt", "verify_results.csv")}

        def explode(*args, **kwargs):
            raise AssertionError("recomputed on a rerun")

        for owner in (lyapunov, verify):
            monkeypatch.setattr(owner, "verify_certificate", explode)
        for owner in (hypotheses, verify):
            monkeypatch.setattr(owner, "estimate_ledger", explode)
        assert cli.main(args) == 0
        for name, blob in cold.items():
            assert (tmp_path / "out" / name).read_bytes() == blob

    def test_rerun_computes_no_row_sum_bound(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        out = tmp_path / "out"
        args = ["verify", "--config", str(cfg), "--out", str(out)]
        assert cli.main(args) == 0
        cold = {name: (out / name).read_bytes()
                for name in ("verify_summary.txt", "verify_results.csv")}
        calls = []
        real = verify.compute_row_sum_bound
        monkeypatch.setattr(verify, "compute_row_sum_bound",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        assert cli.main(args) == 0
        assert calls == []
        for name, blob in cold.items():
            assert (out / name).read_bytes() == blob
        changed = make_config(tmp_path, name="changed.cfg",
                              family={"gamma": "3 1; 1 3"}, **TWO_D)
        cli.main(["verify", "--config", str(changed), "--out", str(out)])
        assert len(calls) == 1

    @pytest.mark.parametrize("update, certificates, ledgers", [
        # every record: the timed certificate, integrability's and nu1's
        # calibrations, and the ledger
        ({"family": {"gamma": "3 1; 1 3"}}, 3, 1),
        ({"lyapunov": {"T": "2"}}, 3, 1),
        ({"bounds": {"s": "5"}}, 0, 1),
        # nu1's scale moves, nu2's stays at 1
        ({"bounds": {"eps_scales": "0.5 0.8 1"}}, 1, 1),
    ], ids=["gamma", "T", "s", "eps_scales"])
    def test_changed_inputs_miss_the_records(self, tmp_path, monkeypatch,
                                             update, certificates, ledgers):
        cfg = make_config(tmp_path, **self.RECORDED)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        changed = make_config(tmp_path, name="changed.cfg", **update,
                              **self.RECORDED)
        calls = Counter()
        for name in ("verify_certificate", "estimate_ledger"):
            real = getattr(verify, name)

            def counted(*args, real=real, name=name, **kwargs):
                calls[name] += 1
                return real(*args, **kwargs)
            monkeypatch.setattr(verify, name, counted)
        rc = cli.main(["verify", "--config", str(changed), "--out", str(out)])
        assert calls == Counter(verify_certificate=certificates,
                                estimate_ledger=ledgers)
        monkeypatch.undo()
        fresh = tmp_path / "fresh"
        assert cli.main(["verify", "--config", str(changed), "--out",
                         str(fresh)]) == rc
        for name in ("verify_summary.txt", "verify_results.csv",
                     "calibration.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_stored_calibration_must_be_finite_and_positive(self, tmp_path,
                                                             value):
        cfg = make_config(tmp_path, verify={"checks": "weighted"},
                          output={"formats": "txt csv"})
        out = tmp_path / "out"
        args = ["verify", "--config", str(cfg), "--out", str(out)]
        assert cli.main(args) == 0
        cold = {name: (out / name).read_bytes() for name in
                ("verify_summary.txt", "verify_results.csv", "calibration.txt")}
        cal = out / "calibration.txt"
        cal.write_text(re.sub(r"C_cal = \S+", "C_cal = " + value, cal.read_text()))
        assert cli.main(args) == 0
        for name, blob in cold.items():
            assert (out / name).read_bytes() == blob

    def test_check_and_synth_read_and_write_no_record(self, tmp_path):
        # bench/run.py repeats check and synth in the output directory of a
        # pass and takes every repeat for the same work, so neither stage
        # may read or write the store that verify fills
        cfg = make_config(tmp_path, **self.RECORDED)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        cold = (out / "verify_results.csv").read_bytes()
        # wrong numbers under the real keys: every recorded number doubled
        for path in (out / "store").glob("*.kbr"):
            head, *lines = path.read_text().splitlines()
            path.write_text("\n".join(
                [head] + [(2.0 * float.fromhex(v)).hex() for v in lines]) + "\n")
        seeded = {p.name: p.read_bytes() for p in (out / "store").iterdir()}
        assert len(seeded) > 4
        for stage in ("check", "synth"):
            assert cli.main([stage, "--config", str(cfg), "--out", str(out)]) \
                == cli.main([stage, "--config", str(cfg), "--out", str(fresh)])
        for name in ("hypotheses.txt", "hypotheses.csv",
                     "lyapunov_certificate.txt", "time_spec.txt", "ledger.txt",
                     "certificate.txt"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes()
        assert {p.name: p.read_bytes()
                for p in (out / "store").iterdir()} == seeded
        assert not (fresh / "store").exists()
        # while verify does read the seeded records
        cli.main(["verify", "--config", str(cfg), "--out", str(out)])
        assert (out / "verify_results.csv").read_bytes() != cold


class TestAllCommand:
    def test_chains_all_stages(self, tmp_path):
        cfg = make_config(tmp_path)
        out = tmp_path / "out"
        assert cli.main(["all", "--config", str(cfg), "--out",
                         str(out)]) == 0
        for name in ("hypotheses.txt", "ledger.txt",
                     "column_P_t0.25_y0.5_k0.csv", "verify_summary.txt"):
            assert (out / name).exists()

    def test_no_stage_loads_scipy_integrate_special_or_optimize(self, tmp_path):
        # scipy.integrate alone pulls in special, optimize, spatial and fft:
        # about 200 modules and a third of the start-up time of every stage
        cfg = make_config(tmp_path, verify={"checks": ALL_CHECKS})
        code = ("import sys\n"
                "import kernelbound.cli\n"
                "rc = kernelbound.cli.main(['all', '--config', sys.argv[1], '--out', sys.argv[2],"
                " '--seed', '1'])\n"
                "heavy = ('scipy.integrate', 'scipy.special', 'scipy.optimize')\n"
                "print(rc, *[m for m in heavy if m in sys.modules])\n")
        lines = run_fresh(code, cfg, tmp_path / "out")
        assert lines[-1] == "0"

    def test_check_and_synth_load_no_scipy_module(self, tmp_path):
        # scipy.sparse and its linalg are about half of the start-up time;
        # only an operator needs them
        cfg = make_config(tmp_path)
        code = ("import sys\n"
                "import kernelbound.cli\n"
                "rcs = [kernelbound.cli.main([stage, '--config', sys.argv[1], '--out',"
                " sys.argv[2]]) for stage in ('check', 'synth')]\n"
                "print(*rcs, *sorted(m for m in sys.modules"
                " if m.partition('.')[0] == 'scipy'))\n")
        lines = run_fresh(code, cfg, tmp_path / "out")
        assert lines[-1] == "0 0"

    def test_solve_loads_scipy_sparse_linalg(self, tmp_path):
        cfg = make_config(tmp_path)
        code = ("import sys\n"
                "import kernelbound.cli\n"
                "before = 'scipy.sparse.linalg' in sys.modules\n"
                "rc = kernelbound.cli.main(['solve', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(rc, before, 'scipy.sparse.linalg' in sys.modules)\n")
        lines = run_fresh(code, cfg, tmp_path / "out")
        assert lines[-1] == "0 False True"

    def test_splu_patched_before_any_operator_sees_every_factorization(
            self, tmp_path):
        # solver.sparse_linalg loads scipy.sparse.linalg on access, and each
        # factorization looks splu up on that module when it runs
        cfg = make_config(tmp_path, verify={"checks": ALL_CHECKS})
        code = ("import sys\n"
                "import pytest\n"
                "from kernelbound import cli, solver\n"
                "before = 'scipy.sparse' in sys.modules\n"
                "calls = []\n"
                "with pytest.MonkeyPatch.context() as monkeypatch:\n"
                "    splu = solver.sparse_linalg.splu\n"
                "    monkeypatch.setattr(solver.sparse_linalg, 'splu',\n"
                "                        lambda *a, **kw: calls.append(1) or splu(*a, **kw))\n"
                "    rc = cli.main(['verify', '--config', sys.argv[1], '--out', sys.argv[2]])\n"
                "print(rc, before, len(calls))\n")
        lines = run_fresh(code, cfg, tmp_path / "out")
        plan = next(line for line in lines if "; plan: " in line)
        factored = int(plan.partition(" factorizations")[0].rpartition(" ")[2])
        assert factored > 0
        assert lines[-1] == "0 False %d" % factored

    def test_stops_at_first_failing_stage(self, tmp_path):
        cfg = make_config(tmp_path, family={"gamma": "2 2; 2 2"})
        out = tmp_path / "out"
        assert cli.main(["all", "--config", str(cfg), "--out",
                         str(out)]) == 1
        assert (out / "hypotheses.txt").exists()
        assert not (out / "ledger.txt").exists()


class TestOutputResolution:
    def test_env_var_overrides_config_directory(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        env_out = tmp_path / "envout"
        monkeypatch.setenv(cli.OUT_ENV, str(env_out))
        assert cli.main(["check", "--config", str(cfg)]) == 0
        assert (env_out / "hypotheses.txt").exists()

    def test_flag_overrides_env_var(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path)
        env_out, flag_out = tmp_path / "envout", tmp_path / "flagout"
        monkeypatch.setenv(cli.OUT_ENV, str(env_out))
        assert cli.main(["check", "--config", str(cfg), "--out",
                         str(flag_out)]) == 0
        assert (flag_out / "hypotheses.txt").exists()
        assert not env_out.exists()

    def test_config_directory_is_the_fallback(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cfg = make_config(tmp_path)
        assert cli.main(["check", "--config", str(cfg)]) == 0
        assert (tmp_path / "runs" / "hypotheses.txt").exists()


class TestExponentialConfig:
    def test_pipeline_on_exponential_family(self, tmp_path):
        cfg = make_config(
            tmp_path,
            family={"kind": "exponential", "alpha": "0", "beta": "0",
                    "theta": "1 0.5; 0.5 1", "gamma": "1 0.5; 0.5 1"},
            verify={"checks": "mass support", "t": "0.1 0.25"})
        out = tmp_path / "out"
        assert cli.main(["check", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert cli.main(["synth", "--config", str(cfg), "--out",
                         str(out)]) == 0
        assert "c_hat" in (out / "certificate.txt").read_text()
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
