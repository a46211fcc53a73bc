"""The benchmark tracer's contract with the package.

bench/tracing.py wraps layer functions by attribute name, so renaming one in
src/ would only show when the benchmark runs.  Installing a Tracer on the
package and restoring it checks every name without running a pipeline.
"""

import importlib.util
from pathlib import Path

import kernelbound
from kernelbound import cli, hypotheses, lyapunov, solver, verify
from kernelbound.coefficients import diagonal_family

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


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
