#!/usr/bin/env python3
"""Pipeline benchmark: per-stage wall time and per-layer counts.

Run from the root of a source checkout:

    python3 bench/run.py --workload poly2d --seed 1 --seconds 20 --trace 0

Each workload is a committed config under bench/configs.  One cold pass
runs check, synth, solve and verify in-process through kernelbound.cli.main
on a fresh output directory, then verify again in the same directory (the
store read path).  Passes repeat until --seconds have elapsed, and at least
twice, because the correctness gate needs two passes to compare.

--trace 0 prints the end-to-end metrics of BENCHMARK.json; --trace 1
alternates untraced and traced passes and prints its per-layer metrics.
The last line of standard output is one JSON object; a record with every
sample, the machine and the versions is written under .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

from tracing import CHECKS, Tracer, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_out"
SPEC = ROOT / "BENCHMARK.json"

# why each workload exists is written at the top of its config
WORKLOADS = {name: HERE / "configs" / (name + ".cfg")
             for name in ("poly2d", "poly1d", "exp1d")}
STAGES = ("check", "synth", "solve", "verify", "verify_rerun")
COLD = STAGES[:4]
MIN_PASSES = 2
SETUP_REPEATS = 5
# check and synth read nothing from the output directory, so running them
# again is the same work.  Untraced passes run them once more after each
# later stage: the extra samples are spread over the pass, because a slow
# spell on a shared machine can cover a whole stage of poly2d.
STATELESS = ("check", "synth")
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# seconds reference_seconds() takes on the 2-core VM this benchmark was
# tuned on, when that machine runs at full speed
REFERENCE_S = 0.012

# files (glob patterns) a stage must leave behind when it exits 0
EXPECTED = {
    "check": ("hypotheses.txt", "hypotheses.csv"),
    "synth": ("lyapunov_certificate.txt", "time_spec.txt", "ledger.txt",
              "certificate.txt"),
    "solve": ("column_*.csv",),
    "verify": ("verify_summary.txt", "verify_results.csv",
               "kernel_section.svg", "mass_decay.svg", "weighted_ratio.svg"),
}
RERUN_SAME = ("verify_summary.txt", "verify_results.csv")


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# one stage, one pass
# ---------------------------------------------------------------------------

def run_stage(main, stage: str, config: Path, out: Path, seed: int):
    """Run one CLI stage in-process; returns (exit code, seconds, output)."""
    argv = ["verify" if stage == "verify_rerun" else stage,
            "--config", str(config), "--out", str(out),
            "--jobs", "1", "--seed", str(seed)]
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        try:
            rc = main(argv)
        except Exception:  # an uncaught crash is a failed stage, not a halt
            traceback.print_exc()
            rc = None
    return rc, time.perf_counter() - start, sink.getvalue()


def check_verdicts(out: Path) -> list:
    """(check, status) per line of verify_summary.txt, empty if missing."""
    path = out / "verify_summary.txt"
    if not path.exists():
        return []
    rows = []
    for line in path.read_text(encoding="utf-8").splitlines()[2:]:
        name, _, rest = line.partition(":")
        if name != "overall":
            rows.append((name, rest.split()[0]))
    return rows


def digest(out: Path) -> dict:
    return {str(p.relative_to(out)): hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(out.rglob("*")) if p.is_file()}


def reference_seconds() -> float:
    """Time a fixed piece of interpreter and BLAS work: the speed reference."""
    import numpy

    block = numpy.ones((200, 200))
    start = time.perf_counter()
    total = 0
    for i in range(100_000):
        total += i * i
    for _ in range(20):
        block @ block
    return time.perf_counter() - start


class SpeedClock:
    """Scales wall times to the machine's reference speed.

    Other tenants slow a shared machine as a whole, often by half and for
    minutes at a time, longer than one run.  A reference sample is taken
    after every measured interval, and each interval is scaled by
    REFERENCE_S over the mean of the samples on its two sides.  Over ten
    runs on a 2-core shared VM, this cut the quartile spread over median
    of the per-run stage medians from 0.05-0.13 to 0.02-0.04 on poly1d,
    and from 0.10-0.17 to 0.07-0.15 on poly2d.
    """

    def __init__(self):
        self.last = reference_seconds()
        self.raw: dict = {}

    def scale(self, name, seconds: float) -> float:
        """Scaled seconds; the raw value is kept under name unless None."""
        now = reference_seconds()
        factor = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        if name is not None:
            self.raw.setdefault(name, []).append(seconds)
        return seconds * factor


def run_pass(main, config: Path, out: Path, seed: int, tracer=None,
             clock=None) -> dict:
    """One cold pipeline pass plus a verify rerun in a fresh directory.

    A stage fails when it exits nonzero or any check in its summary is not
    "pass"; a failed stage is counted and gets no time.  problems lists
    what the correctness gate found wrong inside this pass.  With a clock,
    stage times are scaled to the reference speed.
    """
    if out.exists():
        shutil.rmtree(out)
    out.mkdir(parents=True)
    times, failed, problems, notes = {}, [], [], {}
    verify_bytes = {}
    for stage in STAGES:
        span = tracer.span("stage." + stage) if tracer else \
            contextlib.nullcontext()
        with span:
            rc, seconds, text = run_stage(main, stage, config, out, seed)
        verdicts = check_verdicts(out) if stage.startswith("verify") else []
        bad = [name for name, status in verdicts if status != "pass"]
        ok = rc == 0 and not bad
        if clock is not None:
            seconds = clock.scale(stage if ok else None, seconds)
        if tracer is None and stage not in STATELESS:
            for again in STATELESS:
                if again not in times:
                    continue
                again_rc, again_s, _ = run_stage(main, again, config, out,
                                                 seed)
                if clock is not None:
                    again_s = clock.scale(again if again_rc == 0 else None,
                                          again_s)
                if again_rc != 0:
                    problems.append("%s repeat exited %s" % (again, again_rc))
                else:
                    times[again].append(again_s)
        if not ok:
            failed.append(stage)
            notes[stage] = (text.strip().splitlines() or ["(no output)"])[-1]
            continue
        times[stage] = [seconds]
        missing = [p for p in EXPECTED.get(stage, ()) if not any(out.glob(p))]
        if missing:
            problems.append("%s exited 0 without %s"
                            % (stage, ", ".join(missing)))
        if stage == "verify":
            verify_bytes = {f: (out / f).read_bytes() for f in RERUN_SAME}
        elif stage == "verify_rerun":
            changed = [f for f, b in verify_bytes.items()
                       if (out / f).read_bytes() != b]
            if changed:
                problems.append("verify rerun changed " + ", ".join(changed))
    files = digest(out)
    shutil.rmtree(out)
    return {"times": times, "failed": failed, "problems": problems,
            "notes": notes, "digest": files}


def gate(passes: list) -> list:
    """Problems found by the correctness gate over all passes of a run."""
    problems = [p for ps in passes for p in ps["problems"]]
    first = passes[0]["digest"]
    for i, ps in enumerate(passes[1:], start=1):
        if ps["digest"] != first:
            diff = sorted(set(first.items()) ^ set(ps["digest"].items()))
            names = sorted({name for name, _ in diff})
            problems.append("pass %d artifacts differ from pass 0: %s"
                            % (i, ", ".join(names[:6])))
    return problems


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def measure_setup(repeats: int, clock: SpeedClock) -> list:
    """Seconds to start a fresh interpreter and import kernelbound.cli."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [sys.executable, "-c", "import kernelbound.cli"]
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        subprocess.run(cmd, env=env, cwd=ROOT, check=True)
        samples.append(clock.scale("setup", time.perf_counter() - start))
    return samples


def stage_samples(passes: list) -> dict:
    """Seconds per end-to-end stage metric, successful stages only.

    pipeline_s adds the first run of each cold stage of a pass, the ones
    that ran in pipeline order.
    """
    samples = {stage + "_s": [t for ps in passes
                              for t in ps["times"].get(stage, ())]
               for stage in STAGES}
    samples["pipeline_s"] = [sum(ps["times"][s][0] for s in COLD)
                             for ps in passes
                             if all(s in ps["times"] for s in COLD)]
    return samples


def layer_metrics(spans, failed: int, attempted: int) -> dict:
    """The per-layer metrics of one traced pass."""
    st = summarize(spans)

    def get(name, key="s"):
        entry = st.get(name)
        return 0 if entry is None else entry[key]

    def count(name, key):
        entry = st.get(name)
        return 0 if entry is None else entry["counts"].get(key, 0)

    m = {}
    for name in ("solver.assemble", "solver.factor", "solver.lu_solve",
                 "solver.evolve", "verify.weighted_majorant", "lyapunov.synth",
                 "lyapunov.verify_certificate", "hypotheses.row_sum_bound",
                 "hypotheses.estimate_ledger", "bounds.eval_H"):
        m[name + ".calls"] = get(name, "calls")
        m[name + ".s"] = get(name)
    m["solver.factor.lu_nnz"] = count("solver.factor", "lu_nnz")
    m["solver.evolve.steps"] = count("solver.evolve", "steps")
    m["solver.evolve.columns"] = count("solver.evolve", "columns")
    m["solver.field_io.write_s"] = get("solver.field_io.write")
    m["solver.field_io.read_s"] = get("solver.field_io.read")
    m["solver.field_io.bytes_written"] = count("solver.field_io.write",
                                               "bytes")
    for short in CHECKS.values():
        m["verify.%s.s" % short] = get("verify." + short)
    hits = {key: count("verify.store", key)
            for key in ("hits_memory", "hits_disk", "misses")}
    for key, value in hits.items():
        m["verify.store." + key] = value
    lookups = sum(hits.values())
    m["verify.store.hit_ratio"] = ((hits["hits_memory"] + hits["hits_disk"])
                                   / lookups if lookups else 0.0)
    for name in ("hypotheses.check", "config.parse", "svg.plot"):
        m[name + ".s"] = get(name)
    for stage in STAGES:
        m["cli.%s.self_s" % stage] = get("stage." + stage, "self_s")
    m["ops_failed_ratio"] = failed / attempted
    return m


def src_lines() -> int:
    return sum(len(p.read_bytes().splitlines())
               for p in sorted(SRC.rglob("*.py")))


def stage_table(spans) -> list:
    """Human-readable lines: busy time and calls of each span name by stage."""
    lines = []
    for i, sp in enumerate(spans):
        if sp.parent is not None:
            continue
        lines.append("  %s  %.4fs" % (sp.name, sp.seconds))
        for name, st in sorted(summarize(spans, root=i).items()):
            if name != sp.name:
                lines.append("    %-30s calls %6d  busy %.4fs  self %.4fs %s"
                             % (name, st["calls"], st["s"], st["self_s"],
                                json.dumps(st["counts"]) if st["counts"]
                                else ""))
    return lines


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def load_kernelbound():
    """Import the package from this checkout's src/, never an installed one."""
    if not (SRC / "kernelbound" / "cli.py").is_file():
        raise BenchError("no kernelbound sources under %s" % SRC)
    sys.path.insert(0, str(SRC))
    import kernelbound
    import kernelbound.cli  # noqa: F401  (registers the submodules)

    where = Path(kernelbound.__file__).resolve().parent.parent
    if where != SRC.resolve():
        raise BenchError("kernelbound imported from %s, not %s" % (where, SRC))
    return kernelbound


def machine() -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "machine": platform.machine(),
            "system": platform.system(), "release": platform.release(),
            "cpus": os.cpu_count(),
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple:
    """Measure one workload; returns (result line, human-readable lines)."""
    if not SPEC.is_file():
        raise BenchError("missing %s" % SPEC)
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if trace else "end_to_end"]
    for var in THREAD_VARS:
        os.environ[var] = "1"
    kb = load_kernelbound()
    config = WORKLOADS[workload]
    WORK.mkdir(exist_ok=True)
    tag = "%s-seed%d-trace%d" % (workload, seed, int(trace))
    out = WORK / (tag + ".out")

    clock = None if trace else SpeedClock()
    setup = [] if trace else measure_setup(SETUP_REPEATS, clock)
    passes, traced = [], []
    last_tracer = None
    deadline = time.perf_counter() + seconds
    while len(passes) < MIN_PASSES or time.perf_counter() < deadline:
        tracer = None
        if trace and len(passes) % 2 == 1:
            tracer = Tracer()
            tracer.install(kb)
        try:
            ps = run_pass(kb.cli.main, config, out, seed, tracer,
                          None if tracer else clock)
        finally:
            if tracer is not None:
                tracer.restore()
        ps["traced"] = tracer is not None
        passes.append(ps)
        if tracer is not None:
            traced.append(layer_metrics(tracer.spans, len(ps["failed"]),
                                        len(STAGES)))
            last_tracer = tracer

    problems = gate(passes)
    attempted = len(passes) * len(STAGES)
    failed = sum(len(ps["failed"]) for ps in passes)

    samples = {}
    if trace:
        plain = stage_samples([ps for ps in passes if not ps["traced"]])
        timed = stage_samples([ps for ps in passes if ps["traced"]])
        for name in traced[0]:
            samples[name] = [m[name] for m in traced]
        if plain["pipeline_s"] and timed["pipeline_s"]:
            samples["trace.overhead_s"] = [
                statistics.median(timed["pipeline_s"])
                - statistics.median(plain["pipeline_s"])]
        samples["src.lines"] = [src_lines()]
        last_tracer.write(WORK / (tag + ".spans.jsonl"))
    else:
        samples = stage_samples(passes)
        samples["setup_s"] = setup
        samples["peak_rss_mb"] = [
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0]

    metrics, lines = {}, []
    info = machine()
    lines.append("workload %s  seed %d  trace %d  passes %d  %s"
                 % (workload, seed, int(trace), len(passes), json.dumps(info)))
    for entry in wanted:
        name, unit = entry["name"], entry["unit"]
        values = samples.get(name, [])
        if not values:
            lines.append("%-32s no sample: the stage failed in every pass"
                         % name)
            continue
        value = statistics.median(values)
        metrics[name] = {"value": value, "unit": unit}
        lines.append("%-32s %.6g %s  (median of %d, min %.6g, max %.6g)"
                     % (name, value, unit, len(values), min(values),
                        max(values)))
    for name, values in sorted(clock.raw.items() if clock else ()):
        lines.append("unscaled %-15s n %d, min %.6g, median %.6g"
                     % (name, len(values), min(values),
                        statistics.median(values)))
    lines.append("ops_failed_ratio %.4f  (%d of %d stage invocations failed)"
                 % (failed / attempted, failed, attempted))
    for stage, note in sorted({s: n for ps in passes
                               for s, n in ps["notes"].items()}.items()):
        lines.append("failed stage %s: %s" % (stage, note))
    for problem in problems:
        lines.append("GATE: " + problem)
    if last_tracer is not None:
        lines.append("last traced pass, by stage:")
        lines += stage_table(last_tracer.spans)

    result = {"correct": not problems, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    record = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": info, "samples": samples,
              "unscaled": clock.raw if clock else None,
              "problems": problems, "result": result}
    (WORK / (tag + ".json")).write_text(json.dumps(record, indent=1) + "\n",
                                        encoding="utf-8")
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result, lines = run(args.workload, args.seed, args.seconds,
                            bool(args.trace))
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
