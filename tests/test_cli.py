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
from kernelbound.config import SCHEMA, parse_config_text
from kernelbound.errors import ConfigError

from oracles import evolve_all, record_files, run_alone, watch_record_keys

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
TOLERANCES = [key for key in SCHEMA["verify"] if key.startswith("tol_")]

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
        # a set bounds.window is the fixed window; no mode key selects it
        ("synth", {"bounds": {"window_mode": "fixed"}},
         "unknown key bounds.window_mode"),
    ], ids=["key_typo", "section_typo", "format_typo", "grid_d", "eps_length",
            "window_mode"])
    def test_typo_or_disallowed_value_exits_2(self, tmp_path, capsys,
                                               command, updates, message):
        cfg = make_config(tmp_path, **updates)
        rc = cli.main([command, "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        assert rc == 2
        assert message in capsys.readouterr().err


    @pytest.mark.parametrize("command, updates, named", [
        ("verify", {"grid": {"theta": "1.5"}}, "grid.theta"),
        ("verify", {"grid": {"radii": "4 8 16", "spacing": "0.3"}},
         "grid.spacing"),
        ("solve", {"solve": {"times": "-0.25 0.5"}}, "solve.times"),
        ("solve", {"solve": {"width": "-1"}}, "solve.width"),
        ("verify", {"verify": {"t": "0 0.25 0.5"}}, "verify.t"),
        ("verify", {"verify": {"t_single": "0"}}, "verify.t_single"),
        ("synth", {"lyapunov": {"T": "0"}}, "lyapunov.T"),
        ("synth", {"bounds": {"eps_scales": "0.9 0.5 1"}},
         "bounds.eps_scales"),
        ("solve", {"grid": {"radii": "4 2"}}, "grid.radii"),
        ("synth", {"lyapunov": {"radius": "-1"}}, "lyapunov.radius"),
        ("synth", {"bounds": {"window": "0.1 0.05 0.2 0.3"}}, "bounds.window"),
        ("check", {"verify": {"radius": "0"}}, "verify.radius"),
        ("verify", {"verify": {"chapman_s": "0"}}, "verify.chapman_s"),
        # (spacing, radius) pairs off the grid rule, as grid.spacing
        ("verify", {"verify": {"checks": "weighted", "coarse": "0.3 8"}},
         "verify.coarse"),
        ("verify", {"verify": {"checks": "weighted", "fine": "0.125 0.1"}},
         "verify.fine"),
        # (-1)^(s/2) is 1 at s = 4, so a negative scale would pass
        ("verify", {"verify": {"checks": "weighted", "majorant_scale": "-1"}},
         "verify.majorant_scale"),
        ("verify", {"verify": {"checks": "decay", "decay_eps_scale": "0"}},
         "verify.decay_eps_scale"),
        ("synth", {"lyapunov": {"rho": "-1"}}, "lyapunov.rho"),
        ("synth", {"lyapunov": {"eps_hat": "0"}}, "lyapunov.eps_hat"),
        ("synth", {"lyapunov": {"sigma": "-0.5"}}, "lyapunov.sigma"),
        ("synth", {"lyapunov": {"delta": "0"}}, "lyapunov.delta"),
        # explicit Euler at dt / h^2 = 16 would read fail
        ("check", {"grid": {"theta": "0"}}, "grid.theta"),
        # a tolerance at or below 0 reads fail on any kernel
        *[("verify", {"verify": {key: "-1"}}, "verify." + key) for key in TOLERANCES],
    ], ids=["grid.theta", "grid.spacing", "solve.times", "solve.width",
            "verify.t", "verify.t_single", "lyapunov.T", "bounds.eps_scales",
            "grid.radii", "lyapunov.radius", "bounds.window", "verify.radius",
            "verify.chapman_s", "verify.coarse", "verify.fine",
            "verify.majorant_scale", "verify.decay_eps_scale", "lyapunov.rho",
            "lyapunov.eps_hat", "lyapunov.sigma", "lyapunov.delta", "grid.theta=0",
            *["verify." + key for key in TOLERANCES]])
    def test_out_of_domain_value_exits_2_and_names_the_key(
            self, tmp_path, capsys, command, updates, named):
        cfg = make_config(tmp_path, **updates)
        rc = cli.main([command, "--config", str(cfg), "--out",
                       str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 2
        assert re.search(r"run\.cfg:\d+: " + re.escape(named) + " ", err), err

    @pytest.mark.parametrize("config, command, old, new, named, cause", [
        ("exp1d", "synth", "s = 4", "s = 4\nc_hat = 0.5", "bounds.c_hat",
         "c_hat must exceed (d+2)/4 = 0.75"),
        ("poly1d", "synth", "T = 1", "T = 1\ndelta = 5", "lyapunov.delta",
         "delta must lie in (sigma/(sigma+1), sigma)"),
        ("poly1d", "verify", "t_single = 0.25", "t_single = 0.25\nx = 0.03", "verify.x",
         "is not an interior grid node"),
        ("poly1d", "solve", "sources = 0.5", "sources = 40", "solve.sources",
         "lies outside the open box of radius 16.0"),
    ], ids=["bounds.c_hat", "lyapunov.delta", "verify.x", "solve.sources"])
    def test_value_the_library_rejects_exits_2_and_names_the_key(
            self, tmp_path, capsys, config, command, old, new, named, cause):
        # each rule is the library's own, checked where the command reads
        # the key, so verify.x fails before any plan runs
        text = (BENCH_CONFIGS / (config + ".cfg")).read_text()
        assert text.count(old) == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace(old, new))
        rc = cli.main([command, "--config", str(cfg), "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert rc == 2
        assert re.search(r"run\.cfg:\d+: " + re.escape(named) + " is rejected: .*"
                         + re.escape(cause), captured.err), captured.err
        assert "plan:" not in captured.out


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


SYNTH_FILES = ("lyapunov_certificate.txt", "time_spec.txt", "ledger.txt",
               "certificate.txt")


@pytest.fixture(scope="module", params=["poly1d", "poly2d", "exp1d"])
def bench_synth(request, tmp_path_factory):
    """The four synth artifacts of a bench config, name -> list of lines."""
    out = tmp_path_factory.mktemp(request.param)
    assert cli.main(["synth", "--config", str(BENCH_CONFIGS / (request.param + ".cfg")),
                     "--out", str(out)]) == 0
    return {name: (out / name).read_text().splitlines() for name in SYNTH_FILES}


def keyed(lines):
    """key -> value of each 'key: value' line."""
    return dict(line.split(": ", 1) for line in lines if ": " in line)


class TestSynthCommand:
    def test_no_artifact_value_is_a_placeholder(self, bench_synth):
        # synth prints what it computed, so no value of any line reads "-"
        for name, lines in bench_synth.items():
            for line in lines:
                assert "-" not in line.split(), (name, line)

    def test_the_certificate_agrees_with_the_other_artifacts(self, bench_synth):
        files = {name: keyed(lines) for name, lines in bench_synth.items()}
        cert, timed = files["certificate.txt"], files["time_spec.txt"]
        lyap, ledger = files["lyapunov_certificate.txt"], files["ledger.txt"]
        kind = "polynomial" if lyap["forward.form"] == "power" else "exponential"
        assert cert["kind"] == kind
        for tag, label in (("", "forward"), ("_star", "adjoint")):
            assert cert["eps" + tag] == timed[label + ".eps_T"]
            assert cert["sigma" + tag] == timed[label + ".sigma"]
            assert cert["rho" + tag] == lyap[label + ".rho"]
            assert cert["majorant" + tag] == ledger["majorant" + tag]

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

    def test_a_set_window_reaches_the_ledger(self, tmp_path):
        cfg = make_config(tmp_path, bounds={"window": "0.01 0.02 0.03 0.04"})
        out = tmp_path / "out"
        assert cli.main(["synth", "--config", str(cfg), "--out", str(out)]) == 0
        assert "window: 0.01 0.02 0.03 0.04\n" in (out / "ledger.txt").read_text()

    def test_each_certificate_grid_is_evaluated_once_per_command(
            self, tmp_path, monkeypatch):
        # the static, timed and nu1 certificates of a target share one grid
        # per radius: two targets at two radii; a second synth in the same
        # process evaluates them again, so nothing is carried over
        calls = []
        real = lyapunov.grid_fields
        monkeypatch.setattr(lyapunov, "grid_fields",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        cfg = make_config(tmp_path)
        for out in ("a", "b"):
            assert cli.main(["synth", "--config", str(cfg), "--out",
                             str(tmp_path / out)]) == 0
            assert len(calls) == 4
            calls.clear()

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

    def test_closing_line_reports_the_plan(self, tmp_path, capsys):
        # poly1d's bench solve: P columns of both components from y = 0.5 at
        # t = 0.25 and 0.5, one batch and one step size each, 32 steps each
        cfg, out = str(BENCH_CONFIGS / "poly1d.cfg"), str(tmp_path / "out")
        plans = []
        for _ in range(2):
            assert cli.main(["solve", "--config", cfg, "--out", out]) == 0
            head, _, plan = capsys.readouterr().out.splitlines()[-1].partition("; plan: ")
            assert head.startswith("solve: wrote 4 columns in ")
            plans.append(plan)
        # a second solve into the same directory finds every column
        assert plans == [
            "2 requests, 2 batches, 2 evolutions, 0 fields found in the store, "
            "2 factorizations, 1 assemblies, 64 steps",
            "2 requests, 2 batches, 0 evolutions, 4 fields found in the store, "
            "0 factorizations, 0 assemblies, 0 steps"]

    def test_times_that_agree_to_six_digits_write_their_own_files(self, tmp_path,
                                                                  capsys):
        # %g writes both times as 0.123457; a name that would not read back
        # as its number spells it with repr
        text = (BENCH_CONFIGS / "poly1d.cfg").read_text()
        assert "times = 0.25 0.5\n" in text
        cfg = tmp_path / "poly1d.cfg"
        cfg.write_text(text.replace("times = 0.25 0.5\n", "times = 0.1234567 0.1234568\n"))
        out = tmp_path / "out"
        assert cli.main(["solve", "--config", str(cfg), "--out", str(out)]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith(
            "solve: wrote 4 columns in ")
        assert sorted(p.name for p in out.glob("column_*.csv")) == [
            "column_P_t%s_y0.5_k%d.csv" % (t, k)
            for t in ("0.1234567", "0.1234568") for k in (0, 1)]
        # the names the bench configs write keep their %g spelling
        assert cli._column_name("P", 0.25, 0.5, 1) == "column_P_t0.25_y0.5_k1.csv"
        assert cli._column_name("P", 0.5, np.array([0.5, 0.0]), 0) == \
            "column_P_t0.5_y0.5_0_k0.csv"

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

    def test_a_grid_over_the_budget_exits_before_any_grid_sized_array(self, tmp_path, capsys):
        # 3.2e10 nodes at spacing 1e-9 on poly1d's R = 16: the budget is
        # checked before the sources, whose coordinates alone take 238 GiB
        text = (BENCH_CONFIGS / "poly1d.cfg").read_text()
        assert text.count("spacing = 0.0625") == 1
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("spacing = 0.0625", "spacing = 1e-9"))
        rc = cli.main(["solve", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "resource limit" in err and "Traceback" not in err

    def test_verify_on_a_grid_over_the_budget_exits_3(self, tmp_path, capsys):
        # at spacing 1e-9 the origin's node index, 1.6e10 - 1, is whole only
        # to within a share of it, so verify.x is a node and the node budget
        # is what stops the run
        text = (BENCH_CONFIGS / "poly1d.cfg").read_text()
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text.replace("spacing = 0.0625", "spacing = 1e-9"))
        rc = cli.main(["verify", "--config", str(cfg), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert rc == 3
        assert "resource limit: grid needs 15999999998 unknowns" in err
        assert "Traceback" not in err

    def test_unknown_variant_is_config_error(self, tmp_path):
        cfg = make_config(tmp_path, solve={"variants": "Q"})
        assert cli.main(["solve", "--config", str(cfg), "--out",
                         str(tmp_path / "out")]) == 2


class TestVerifyCommand:
    def test_exp1d_completes_on_its_working_radius(self, tmp_path):
        # exp1d's kernel leaves no mass beyond R = 4, so the checks that step
        # at theta = 1 run there, where exp(log nu) stays finite
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(BENCH_CONFIGS / "exp1d.cfg"),
                         "--out", str(out)]) in (0, 1)
        title, _, *lines, overall = \
            (out / "verify_summary.txt").read_text().splitlines()
        assert title.startswith("verification summary, working radius R = 4 at t = 0.5: ")
        assert len(lines) == 10 and overall.startswith("overall: ")
        for line in lines:
            assert line.split(": ")[1].split()[0] in ("pass", "fail", "inconclusive")

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning",
                                "ignore:invalid value:RuntimeWarning")
    def test_exp1d_on_its_largest_radius_alone_stops_on_the_step_residual(
            self, tmp_path, capsys):
        # ROADMAP item 2: the integrability check evolves exp(log nu), which
        # overflows on R = 16, so a step's residual reads NaN; until that
        # item lands, the run must stop on the solver's message
        text = (BENCH_CONFIGS / "exp1d.cfg").read_text()
        assert "radii = 4 8 16\n" in text
        cfg = tmp_path / "exp1d.cfg"
        cfg.write_text(text.replace("radii = 4 8 16\n", "radii = 16\n"))
        assert cli.main(["verify", "--config", str(cfg),
                         "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.endswith(
            "error: step residual nan exceeds tolerance in column 0\n")

    def test_checks_that_step_at_theta_one_run_on_the_working_radius(
            self, tmp_path, monkeypatch):
        radii = {}
        for name in [n for n in verify.__all__ if n.startswith("check_")]:
            def recorded(check, outputs, store, original=getattr(verify, name)):
                radii.setdefault(check.name, set()).update(
                    req.grid.radius for req in check.requests)
                return original(check, outputs, store)
            monkeypatch.setattr(verify, name, recorded)
        out = tmp_path / "out"
        assert cli.main(["verify", "--config", str(BENCH_CONFIGS / "poly1d.cfg"),
                         "--out", str(out)]) == 0
        assert (out / "verify_summary.txt").read_text().startswith(
            "verification summary, working radius R = 8 at t = 0.5: truncation ")
        moved = ("check_domination", "check_mass_and_positivity", "check_support",
                 "check_chapman_kolmogorov", "check_lyapunov_integrability")
        # weighted's default coarse grid has half the largest radius
        assert radii == dict({name: {8.0} for name in moved},
                             check_monotone_in_R={4.0, 8.0, 16.0},
                             check_duality={16.0}, check_decay_shape={16.0},
                             check_weighted_bound={8.0, 16.0})

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

    def test_two_jobs_match_one_job_on_a_2d_grid(self, tmp_path, monkeypatch):
        # checks share store columns, and with two jobs either one may
        # compute a shared column first
        keys = watch_record_keys(monkeypatch)
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
        records = [{name: (out / "store" / name).read_bytes()
                    for name in record_files(out / "store", keys)} for out in outs]
        # three certificates, the ledger and the mass check's row-sum bound
        assert len(records[0]) == 5 and records[0] == records[1]
        # and every field, folded or not, has the same bits whichever
        # thread evolved it
        stores = [{path.name: path.read_bytes() for path in (out / "store").iterdir()}
                  for out in outs]
        assert len(stores[0]) > len(records[0]) and stores[0] == stores[1]

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

    def test_a_nan_in_a_field_file_is_rebuilt_by_the_plan(self, tmp_path, monkeypatch,
                                                          capsys):
        # the plan reads every field file it finds, so a NaN payload of the
        # right length is rebuilt there, once, and still every file is read
        # once per rerun
        cfg = make_config(tmp_path, verify={"checks": "domination mass integrability"},
                          output={"formats": "txt csv"})
        out = tmp_path / "out"
        args = ["verify", "--config", str(cfg), "--out", str(out), "--jobs", "1"]
        keys = watch_record_keys(monkeypatch)
        assert cli.main(args) == 0
        cold = (out / "verify_summary.txt").read_bytes()
        store = out / "store"
        fields = sorted(set(os.listdir(store)) - record_files(store, keys))
        assert len(fields) > 5
        reads = Counter()
        load = verify.load_field
        monkeypatch.setattr(verify, "load_field",
                            lambda path: reads.update([os.path.basename(path)]) or load(path))
        for name in fields:
            blob = (store / name).read_bytes()
            (store / name).write_bytes(blob[:-8] + np.float64(np.nan).tobytes())
            reads.clear()
            capsys.readouterr()
            assert cli.main(args) == 0
            closing = capsys.readouterr().out.strip().splitlines()[-1]
            assert " 1 evolutions, %d fields found" % (len(fields) - 1) in closing
            assert (store / name).read_bytes() == blob
            assert (out / "verify_summary.txt").read_bytes() == cold
            assert set(reads) == set(os.listdir(store)) and set(reads.values()) == {1}

    @pytest.mark.parametrize("update, recomputed", [
        # domination's two random batches, and chapman's direct path and
        # the two legs of its composed one
        ({"verify": {"seed": "8"}}, 5),
        # the checks that move step at theta = 1 already, and R = 4, the
        # largest, stays the working radius.  The study evolves R = 2 and
        # R = 4 at 2h again; its R = 4 columns at t = 0.5 are mass's.  At 1
        # duality's forward columns are domination's, so its adjoint
        # columns are the one more: 2 + 1
        ({"grid": {"theta": "1"}}, 3),
    ], ids=["verify.seed=8", "grid.theta=1"])
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
        # duality reuses the two solved forward columns; the adjoint and
        # mass columns (2 + 2), mass's three all-ones runs, its row-sum
        # record, and the working-radius study's columns at t = 0.5 of both
        # components on R = 2, R = 4 and R = 4 at twice the spacing (6)
        # are the only additions: 2 + 2 + 2 + 3 + 1 + 6
        assert before == 2 and after == 16


class TestVerifyPlan:
    @staticmethod
    def watch_solver_work(monkeypatch):
        """Count solver work inside and outside the two plans.

        work["plan"] counts evolve, assemble_generator and splu calls and
        store misses inside the two run_plan calls of cmd_verify, the
        working-radius study's plan and the checks', and work["checks"]
        the same outside them: before, between and after.
        work["plans"] has one entry per plan, in the order they ran: the
        requests it was given, the (variant, grid, fold, theta, dt) of every
        factorization it made ("factored"), read from the handle's record,
        the (variant, grid) of every assembly ("assembled") and the key of
        every field it built ("missed").  Records, told by their keys, are not
        counted.
        """
        work = {"phase": "checks", "plan": Counter(), "checks": Counter(), "plans": []}

        def count(owner, name, what):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                work[work["phase"]][what] += 1
                return original(*args, **kwargs)
            monkeypatch.setattr(owner, name, counted)

        def in_plan(what, item):
            if work["phase"] == "plan":
                work["plans"][-1][what].append(item)

        count(solver.OperatorHandle, "evolve", "evolve")
        count(solver, "assemble_generator", "assemble")
        count(solver.sparse_linalg, "splu", "splu")
        assemble = solver.assemble_generator

        def watched_assemble(system, grid, variant="P"):
            in_plan("assembled", (variant, grid))
            return assemble(system, grid, variant)
        monkeypatch.setattr(solver, "assemble_generator", watched_assemble)
        factor = solver.OperatorHandle._factor

        def watched_factor(handle, theta, dt):
            before = work[work["phase"]]["splu"]
            out = factor(handle, theta, dt)
            if work[work["phase"]]["splu"] > before:
                in_plan("factored", (handle.variant, handle.grid, *handle.factored[-1]))
            return out
        monkeypatch.setattr(solver.OperatorHandle, "_factor", watched_factor)

        get_or_compute = verify.KernelStore.get_or_compute
        records = watch_record_keys(monkeypatch)

        def watched_get(store, key, build):
            def counted_build():
                # the checks build their records when they measure; a miss
                # is a field's
                if key not in records:
                    work[work["phase"]]["miss"] += 1
                    in_plan("missed", key)
                return build()
            return get_or_compute(store, key, counted_build)
        monkeypatch.setattr(verify.KernelStore, "get_or_compute", watched_get)

        run_plan = verify.run_plan

        def planning(system, requests, *args, **kwargs):
            work["plans"].append({"requests": list(requests), "factored": [], "assembled": [],
                                  "missed": [], "system": system})
            work["phase"] = "plan"
            out = run_plan(system, requests, *args, **kwargs)
            work["phase"] = "checks"
            return out
        monkeypatch.setattr(verify, "run_plan", planning)
        return work

    @staticmethod
    def plan_config(tmp_path, config):
        """poly1d's bench config, TWO_D, or a 2-D variant named by config."""
        if config == "poly1d":
            return BENCH_CONFIGS / "poly1d.cfg"
        two_d = dict(TWO_D, grid=dict(TWO_D["grid"], theta="1"))
        if config.startswith("2 4 6"):
            two_d.update(grid={"d": "2", "radii": "2 4 6", "spacing": "0.25",
                               "theta": "1"},
                         verify={"checks": ALL_CHECKS})
        return make_config(tmp_path, **(two_d if "theta" in config else TWO_D))

    # shared: the working radius, whose (theta, dt) at t_max both plans
    # step with at theta = 1; R_max on two_d, R = 4 below the largest on
    # the 2 4 6 grid
    @pytest.mark.parametrize("config, shared", [
        ("poly1d", None), ("two_d", None), ("two_d, grid.theta=1", 2.0),
        ("2 4 6 at 0.25, grid.theta=1", 4.0)],
        ids=["poly1d", "two_d", "two_d, grid.theta=1", "2 4 6 at 0.25, grid.theta=1"])
    def test_checks_build_nothing_once_the_plan_ran(self, tmp_path,
                                                     monkeypatch, config, shared):
        work = self.watch_solver_work(monkeypatch)
        assert cli.main(["verify", "--config", str(self.plan_config(tmp_path, config)),
                         "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert work["checks"] == Counter()
        # the study's plan, then the checks'.  Each factors every (variant,
        # grid, fold, theta, dt) the batches it evolves step with exactly
        # once and nothing else, and assembles every operator it steps with
        # exactly once; an adjoint one is the transpose of its grid's P
        # matrix.  The bench family's operators commute with every axis
        # reflection, so a batch folds along every axis its start is even
        # along; every config here has m = 2
        steps, operators = [], []
        for plan in work["plans"]:
            batches, _ = verify._plan(plan["requests"],
                                      verify.system_fingerprint(plan["system"]), 2)
            wanted = {(b.request.variant, b.request.grid, b.fold,
                       float(b.request.theta), float(b.request.dt)) for b in batches
                      if set(b.keys.values()) & set(plan["missed"])}
            assert sorted(plan["factored"], key=repr) == sorted(wanted, key=repr)
            built = {(variant, grid) for variant, grid, *_ in wanted
                     if variant != "P_adjoint"}
            assert sorted(plan["assembled"], key=repr) == sorted(built, key=repr)
            steps.append(wanted)
            operators.append(built)
        study, checks = work["plans"]
        # the plans share only the store, so the work both do is exactly
        # what both need
        factored = Counter(study["factored"] + checks["factored"])
        assembled = Counter(study["assembled"] + checks["assembled"])
        assert {key for key, n in factored.items() if n > 1} == steps[0] & steps[1]
        assert {key for key, n in assembled.items() if n > 1} == operators[0] & operators[1]
        # which is no LU.  At theta = 1 the checks on the working radius step
        # to t_max as the study did, but their batch of the study's fold is
        # the study's, found in the store, so they factor that step only
        # for other folds
        assert steps[0] & steps[1] == set()
        unfolded = [{(v, g, th, dt) for v, g, _, th, dt in s} for s in steps]
        if shared is None:
            assert unfolded[0] & unfolded[1] == set()
        else:
            (variant, grid, theta, dt), = unfolded[0] & unfolded[1]
            assert (variant, grid.radius, theta) == ("P", shared, 1.0)
            assert dt == study["requests"][0].dt
        assert work["plan"]["splu"] == sum(factored.values())
        assert work["plan"]["evolve"] > 0 and work["plan"]["miss"] > 0

    def test_checks_alone_give_the_planned_rows_and_fields(self, tmp_path,
                                                            monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        checks = []
        for name in [n for n in verify.__all__ if n.startswith("check_")]:
            def recorded(check, outputs, store, original=getattr(verify, name)):
                checks.append(check)
                return original(check, outputs, store)
            monkeypatch.setattr(verify, name, recorded)
        chosen, measure = [], verify.WorkingRadius.measure
        monkeypatch.setattr(verify.WorkingRadius, "measure",
                            lambda study, outputs: chosen.append(
                                (study, measure(study, outputs))) or chosen[-1][1])
        planned = tmp_path / "planned"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(planned), "--jobs", "1"]) == 0
        assert len({check.name for check in checks}) == 9
        # each check alone, in the order verify measured them, each planned
        # on its own fresh store, so every one computes its own fields
        alone = [tmp_path / ("alone%d" % i) for i in range(len(checks))]
        results = [run_alone(check, verify.KernelStore(folder))
                   for check, folder in zip(checks, alone)]
        # and the study alone, with a fresh store, chooses the same radius
        (study, choice), = chosen
        alone.append(tmp_path / "study")
        assert measure(study, evolve_all(
            study.system, study.requests, verify.KernelStore(alone[-1]))) == choice
        assert verify.results_csv(results).encode() == \
            (planned / "verify_results.csv").read_bytes()
        assert verify.summary_text(results, choice).encode() == \
            (planned / "verify_summary.txt").read_bytes()
        # and every field a check stored alone has the planned bits
        planned_fields = {p.name: p.read_bytes()
                          for p in (planned / "store").iterdir()}
        for folder in alone:
            for path in folder.iterdir():
                assert planned_fields[path.name] == path.read_bytes()

    @pytest.mark.parametrize("radii, plans", [("4 8 16", 2), ("16", 1)])
    def test_verify_runs_the_study_then_one_plan(self, tmp_path, monkeypatch,
                                                 radii, plans):
        # the working-radius study's plan, then one plan of every check's
        # requests and the kernel plot's; one radius needs no study
        text = (BENCH_CONFIGS / "poly1d.cfg").read_text()
        assert "radii = 4 8 16\n" in text and "formats = txt csv svg\n" in text
        cfg = tmp_path / "poly1d.cfg"
        cfg.write_text(text.replace("radii = 4 8 16\n", "radii = %s\n" % radii))
        calls, run_plan = [], verify.run_plan
        monkeypatch.setattr(verify, "run_plan",
                            lambda *args, **kwargs: calls.append(args[1])
                            or run_plan(*args, **kwargs))
        out = tmp_path / "out"
        for _ in ("cold", "rerun"):
            del calls[:]
            assert cli.main(["verify", "--config", str(cfg), "--out", str(out)]) == 0
            assert len(calls) == plans and all(calls)
            assert (out / "kernel_section.svg").is_file()

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

    @pytest.mark.parametrize("config", ["poly1d", "2 4 6 at 0.25, grid.theta=1"])
    def test_at_most_one_lu_is_held_in_a_whole_verify(self, tmp_path, monkeypatch,
                                                       config):
        # a handle holds an LU from its factorization to its release; the
        # study's plan makes its handles as the checks' plan does
        held, most = set(), []
        factor, release = solver.OperatorHandle._factor, solver.OperatorHandle.release

        def tracked_factor(handle, theta, dt):
            out = factor(handle, theta, dt)
            held.add(handle)
            most.append(len(held))
            return out

        def tracked_release(handle):
            held.discard(handle)
            release(handle)
        monkeypatch.setattr(solver.OperatorHandle, "_factor", tracked_factor)
        monkeypatch.setattr(solver.OperatorHandle, "release", tracked_release)
        assert cli.main(["verify", "--config", str(self.plan_config(tmp_path, config)),
                         "--out", str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert len(most) > 1 and max(most) == 1 and held == set()

    def test_no_factorization_spans_the_whole_or_the_half_grid(self, tmp_path,
                                                             monkeypatch):
        # every LU of a 2-D verify is of parity blocks, and none of its
        # blocks, the connected parts of the matrix, has more nodes than a
        # quarter grid, center rows included
        from scipy.sparse.csgraph import connected_components
        grids, sizes = [], []
        factor, splu = solver.OperatorHandle._factor, solver.sparse_linalg.splu

        def tracked_factor(handle, theta, dt):
            grids.append(handle.grid)
            return factor(handle, theta, dt)

        def tracked_splu(matrix, **kwargs):
            g = grids[-1]
            largest = np.bincount(connected_components(matrix)[1]).max()
            sizes.append((largest, 2 * ((g.n_per_axis + 1) // 2) ** 2,
                          matrix.shape[0] == 2 * g.n_nodes))
            return splu(matrix, **kwargs)
        monkeypatch.setattr(solver.OperatorHandle, "_factor", tracked_factor)
        monkeypatch.setattr(solver.sparse_linalg, "splu", tracked_splu)
        cfg = make_config(tmp_path, **TWO_D)
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(tmp_path / "out"), "--jobs", "1"]) == 0
        assert all(largest <= quarter for largest, quarter, _ in sizes)
        # uneven data still step the whole grid's unknowns, on four blocks
        assert any(whole for _, _, whole in sizes)

    def test_rerun_hashes_each_data_request_once(self, tmp_path, monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        assert cli.main(args) == 0
        hashed, planned = [], []
        digest, run_plan = verify._data_digest, verify.run_plan
        monkeypatch.setattr(verify, "_data_digest",
                            lambda data: hashed.append(data.shape) or digest(data))
        monkeypatch.setattr(verify, "run_plan",
                            lambda system, requests, store, *args, **kwargs:
                            planned.extend(requests)
                            or run_plan(system, requests, store, *args, **kwargs))
        assert cli.main(args) == 0
        # the checks get the planned requests, so each data request hashes its
        # data once, for the plan and the check, the two-leg composed path of
        # the Chapman-Kolmogorov check too
        hashing = [r for r in planned if r.data is not None]
        assert len(hashed) == len(hashing) == 10
        assert [r.legs for r in planned if r.legs] == [(0.25,)]

    def test_poly1d_bench_config_pins_its_solver_work(self, tmp_path, capsys):
        # the bench traffic's solver work: a change to it re-pins this line
        cfg, out = str(BENCH_CONFIGS / "poly1d.cfg"), str(tmp_path / "out")
        plans = []
        for command in ("all", "verify"):
            assert cli.main([command, "--config", cfg, "--out", out]) == 0
            head, _, plan = capsys.readouterr().out.splitlines()[-1].partition("; plan: ")
            assert head.startswith("verify: 10 check runs in ")
            plans.append(plan)
        # solve stores the study's R = 16 columns at h = 1/16, so the 8
        # assemblies are the study's P on R = 4 and R = 8 at h and on R = 16
        # at 2h, then the checks' P on R = 4, 8 and 16 at h, plain on R = 8
        # at h, and P on R = 8 at 2h (weighted's coarse grid); the 15 LUs
        # are one per (variant, grid, fold, theta, dt), and the sources at
        # 0.5 take the whole grid, so P on R = 8 at theta = 1 is factored on
        # the half grid too at dt = 1/128 and 1/64, for the even data of the
        # mass and integrability checks; the rerun finds every field and
        # builds nothing
        assert plans == [
            "29 requests, 23 batches, 21 evolutions, 4 fields found in the store, "
            "15 factorizations, 8 assemblies, 674 steps",
            "29 requests, 23 batches, 0 evolutions, 40 fields found in the store, "
            "0 factorizations, 0 assemblies, 0 steps"]

    def test_closing_line_reports_the_plan(self, tmp_path, capsys,
                                           monkeypatch):
        cfg = make_config(tmp_path, **TWO_D)
        out = tmp_path / "out"
        records = watch_record_keys(monkeypatch)

        def plan_counts():
            assert cli.main(["verify", "--config", str(cfg), "--out",
                             str(out)]) == 0
            last = capsys.readouterr().out.splitlines()[-1]
            head, _, plan = last.partition("; plan: ")
            assert head.startswith("verify: 10 check runs in ")
            return {name: int(n) for n, name in
                    (part.split(" ", 1) for part in plan.split(", "))}

        cold, rerun = plan_counts(), plan_counts()
        assert cold["requests"] == rerun["requests"] > cold["batches"] \
            == rerun["batches"]
        assert cold["fields found in the store"] == 0
        # the checks' plan: 24 requests in 18 batches, 14 LUs and 578 steps
        # on 4 operators, P on R = 1 (monotone's), P and plain on R = 2 and P
        # on R = 2 at twice the spacing (weighted's coarse grid).  An LU is
        # per (variant, grid, fold, theta, dt): on R = 2 at theta = 1, P
        # steps data even along both axes, columns from y = (0.5, 0), even
        # along the second, and uneven data at dt = 1/128, so that step is
        # factored three times, and twice at dt = 1/64, as plain is at 1/128.  The
        # working-radius study adds its 3 batches, on R = 1 and R = 2 and on
        # R = 2 at twice the spacing, each with an LU at t = 0.5 that no
        # check steps with and 32 steps, on 3 P operators of its own: the
        # plans share only the store, so those are assembled again
        assert [cold[name] for name in verify.PLAN_COUNTS] == \
            [24 + 3, 18 + 3, 18 + 3, 0, 14 + 3, 4 + 3, 578 + 3 * 32]
        # the rerun reads each stored field once and builds nothing; the
        # certificate, ledger and row-sum records are not fields
        fields = sorted(set(os.listdir(out / "store"))
                        - record_files(out / "store", records))
        assert rerun["fields found in the store"] == len(fields)
        assert rerun["evolutions"] == rerun["factorizations"] == \
            rerun["assemblies"] == rerun["steps"] == 0
        # a truncated field file is not found: the plan evolves its batch
        # again, and no check evolves outside the plan
        path = out / "store" / fields[0]
        path.write_bytes(path.read_bytes()[:-8])
        work = self.watch_solver_work(monkeypatch)
        truncated = plan_counts()
        assert truncated["fields found in the store"] == len(fields) - 1
        assert truncated["evolutions"] == truncated["factorizations"] == \
            truncated["assemblies"] == 1
        assert 0 < truncated["steps"] < cold["steps"]
        assert work["plan"]["evolve"] > 0 and work["checks"] == Counter()


class TestVerifyRecords:
    """Certificates, the ledger and the row-sum bound as kernel-store
    records, entries keyed by verify._record_key."""

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

    def test_each_certificate_grid_is_evaluated_once_per_command(
            self, tmp_path, monkeypatch):
        # the timed, rescaled and nu1 certificates share the forward grid at
        # each of two radii; a rerun reads every certificate as a record
        calls = []
        real = lyapunov.grid_fields
        monkeypatch.setattr(lyapunov, "grid_fields",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))
        cfg = make_config(tmp_path, **self.RECORDED)
        args = ["verify", "--config", str(cfg), "--out", str(tmp_path / "out")]
        for expected in (2, 0):
            assert cli.main(args) == 0
            assert len(calls) == expected
            calls.clear()

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

    def test_check_and_synth_read_and_write_no_record(self, tmp_path,
                                                      monkeypatch):
        # bench/run.py repeats check and synth in the output directory of a
        # pass and takes every repeat for the same work, so neither stage
        # may read or write the store that verify fills
        keys = watch_record_keys(monkeypatch)
        cfg = make_config(tmp_path, **self.RECORDED)
        out, fresh = tmp_path / "out", tmp_path / "fresh"
        assert cli.main(["verify", "--config", str(cfg), "--out",
                         str(out)]) == 0
        cold = (out / "verify_results.csv").read_bytes()
        # wrong numbers under the real keys: every recorded number doubled
        for name in record_files(out / "store", keys):
            path = out / "store" / name
            verify.save_field(path, 2.0 * verify.load_field(path))
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
        # the checks' 12 LUs, one per (variant, grid, fold, theta, dt): P on
        # R = 4 at theta = 1 steps the even all-ones data of the mass check
        # and the columns off the origin at dt = 1/128 and 1/64, so each of
        # those is factored on the quarter grid and on the even and odd
        # blocks of the first axis; and the
        # working-radius study's on R = 2, R = 4 and R = 4 at twice the
        # spacing, at t = 0.5, where no check steps
        assert factored == 12 + 3
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
