"""The benchmark tracer's contract with the package.

bench/tracing.py wraps layer functions by attribute name, so renaming one in
src/ would only show when the benchmark runs.  Installing a Tracer on the
package and restoring it checks every name without running a pipeline.
"""

import contextlib
import importlib.util
import io
import os
from pathlib import Path

import kernelbound
from kernelbound import cli, hypotheses, lyapunov, solver, verify
from kernelbound.coefficients import diagonal_family

from oracles import record_files, watch_record_keys

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"

# a small 1-D run whose store holds data fields, kernel columns and records
SMALL = """schema_version = 1

[family]
kind = polynomial
m = 2
zeta = 1
alpha = 0
eta = 1
beta = 1
theta = 1 0.5; 0.5 1
gamma = 2 1; 1 2

[grid]
d = 1
radii = 2 4
spacing = 0.125

[lyapunov]
T = 1

[bounds]
s = 4

[solve]
width = 0.125

[verify]
checks = domination mass integrability weighted
seed = 7
t = 0.1 0.25

[output]
formats = txt csv
"""


def load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_the_package_and_restores_it():
    owners = (cli, hypotheses, lyapunov, solver, verify, solver.sparse_linalg,
              solver.OperatorHandle, verify.KernelStore)
    before = [dict(vars(owner)) for owner in owners]
    tracer = load_tracing().Tracer()
    try:
        tracer.install(kernelbound)
        assert tracer._patches
        for owner, attr, original in tracer._patches:
            assert getattr(owner, attr) is not original
        # cli reaches the wrapped layer functions through their modules
        assert (cli.hypotheses, cli.lyapunov, cli.solver, cli.verify) \
            == (hypotheses, lyapunov, solver, verify)
        cli.hypotheses.check_polynomial(diagonal_family("polynomial", 1, 1))
        assert [sp.name for sp in tracer.spans] == ["hypotheses.check"]
    finally:
        tracer.restore()
    for owner, snapshot in zip(owners, before):
        now = dict(vars(owner))
        assert now.keys() == snapshot.keys()
        assert all(now[key] is snapshot[key] for key in snapshot)


def test_field_io_wrappers_see_every_store_file(tmp_path, monkeypatch):
    """The tracer times store I/O by replacing verify.save_field and
    verify.load_field; the store looks both up at each call, so a cold
    verify writes each store file, field or record, once through the first,
    and a rerun reads each entry it needs once through the second."""
    cfg = tmp_path / "small.cfg"
    cfg.write_text(SMALL)
    out = tmp_path / "out"
    keys = watch_record_keys(monkeypatch)
    calls = {"save_field": [], "load_field": []}
    for name, seen in calls.items():
        real = getattr(verify, name)
        monkeypatch.setattr(verify, name, lambda path, *args, real=real, seen=seen:
                            seen.append(os.fspath(path)) or real(path, *args))
    args = ["verify", "--config", str(cfg), "--out", str(out), "--jobs", "1"]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(args) == 0
        files = sorted(str(p) for p in (out / "store").iterdir())
        assert sorted(calls["save_field"]) == files
        records = {str(out / "store" / name) for name in record_files(out / "store", keys)}
        assert records and records < set(files)
        for seen in calls.values():
            seen.clear()
        assert cli.main(args) == 0
    assert calls["save_field"] == [] and sorted(calls["load_field"]) == files
