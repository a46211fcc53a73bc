"""Spans and counts around the public functions of each kernelbound layer.

The wrappers live here, never in ``src/``: each public function is replaced
at the attribute its caller looks up (class methods on the class, module
functions in every module namespace that imported them), spans are kept in
memory, and ``Tracer.restore`` puts every original back.
"""

from __future__ import annotations

import json
import os
import time

CHECKS = {
    "check_domination": "domination",
    "check_monotone_in_R": "monotone",
    "check_mass_and_positivity": "mass",
    "check_support": "support",
    "check_duality": "duality",
    "check_chapman_kolmogorov": "chapman",
    "check_lyapunov_integrability": "integrability",
    "check_weighted_bound": "weighted",
    "check_decay_shape": "decay",
}


class Span:
    """One timed call: name, start, end, parent span index and counts."""

    __slots__ = ("name", "start", "end", "parent", "nested", "counts")

    def __init__(self, name, start, parent, nested):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.nested = nested  # a span of the same name is already open
        self.counts = None

    def add(self, key, value):
        if self.counts is None:
            self.counts = {}
        self.counts[key] = self.counts.get(key, 0) + value

    @property
    def seconds(self) -> float:
        return self.end - self.start


class _SpanContext:
    def __init__(self, tracer, name):
        self._tracer = tracer
        self._name = name

    def __enter__(self) -> Span:
        return self._tracer._open(self._name)

    def __exit__(self, *exc):
        self._tracer._close()
        return False


class _TimedLU:
    """Proxy around a SuperLU object that times each ``solve``."""

    def __init__(self, lu, tracer):
        self._lu = lu
        self._tracer = tracer

    def solve(self, *args, **kwargs):
        with self._tracer.span("solver.lu_solve"):
            return self._lu.solve(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._lu, name)


class Tracer:
    """In-memory span recorder that patches and restores layer functions.

    Single-threaded by design: the benchmark runs every stage with
    ``--jobs 1``, so one open-span stack is enough.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def span(self, name: str) -> _SpanContext:
        return _SpanContext(self, name)

    def _open(self, name: str) -> Span:
        parent = self._stack[-1] if self._stack else None
        nested = any(self.spans[i].name == name for i in self._stack)
        sp = Span(name, time.perf_counter(), parent, nested)
        self._stack.append(len(self.spans))
        self.spans.append(sp)
        return sp

    def _close(self):
        self.spans[self._stack.pop()].end = time.perf_counter()

    def write(self, path):
        """Write the spans as JSON lines, times relative to the first start."""
        t0 = self.spans[0].start if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for i, sp in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": sp.name,
                                     "start": sp.start - t0,
                                     "end": sp.end - t0, "parent": sp.parent,
                                     "counts": sp.counts}) + "\n")

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr: str, replacement):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def wrap(self, owner, attr: str, name: str, count=None):
        """Replace owner.attr by a spanned call; count(span, args, result)."""
        original = getattr(owner, attr)
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name) as sp:
                result = original(*args, **kwargs)
                if count is not None:
                    count(sp, args, result)
                return result

        self._patch(owner, attr, wrapper)

    def restore(self):
        """Put every patched attribute back, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def install(self, kb):
        """Wrap the public functions of every layer of the package ``kb``."""
        cli, hyp, lyap, solver, verify = (kb.cli, kb.hypotheses, kb.lyapunov,
                                          kb.solver, kb.verify)
        tracer = self

        self.wrap(cli, "parse_config", "config.parse")
        self.wrap(cli, "polyline_plot", "svg.plot")
        for fn in ("check_polynomial", "check_exponential", "check_base"):
            self.wrap(hyp, fn, "hypotheses.check")
        for mod in (hyp, verify):
            self.wrap(mod, "compute_row_sum_bound", "hypotheses.row_sum_bound")
        self.wrap(verify, "estimate_ledger", "hypotheses.estimate_ledger")
        for fn in ("synth_poly", "synth_exp"):
            self.wrap(lyap, fn, "lyapunov.synth")
        for mod in (lyap, verify):
            self.wrap(mod, "verify_certificate", "lyapunov.verify_certificate")
        self.wrap(verify, "eval_H", "bounds.eval_H")
        self.wrap(verify, "weighted_majorant", "verify.weighted_majorant")
        for fn, short in CHECKS.items():
            self.wrap(verify, fn, "verify." + short)

        def count_written(sp, args, result):
            sp.add("bytes", os.path.getsize(args[0]))

        self.wrap(verify, "save_field", "solver.field_io.write", count_written)
        self.wrap(solver, "save_field_csv", "solver.field_io.write",
                  count_written)
        self.wrap(verify, "load_field", "solver.field_io.read")
        self.wrap(solver, "assemble_generator", "solver.assemble")

        splu = solver.sparse_linalg.splu

        def traced_splu(*args, **kwargs):
            with tracer.span("solver.factor") as sp:
                lu = splu(*args, **kwargs)
            # building L and U costs time of its own; an "overhead." span
            # keeps it out of every layer's busy time
            with tracer.span("overhead.lu_nnz"):
                sp.add("lu_nnz", int(lu.L.nnz + lu.U.nnz))
            return _TimedLU(lu, tracer)

        self._patch(solver.sparse_linalg, "splu", traced_splu)

        def count_evolve(sp, args, result):
            handle, values = args[0], args[1]
            sp.add("steps", int(result[1]["steps"]))
            sp.add("columns",
                   values.size // (handle.grid.n_nodes * handle.m))

        self.wrap(solver.OperatorHandle, "evolve", "solver.evolve",
                  count_evolve)

        store_cls = verify.KernelStore
        get_or_compute = store_cls.get_or_compute

        def traced_get_or_compute(store, key, build):
            built = []

            def counted_build():
                built.append(True)
                return build()

            with tracer.span("verify.store") as sp:
                before = len(store)
                field = get_or_compute(store, key, counted_build)
                if built:
                    sp.add("misses", 1)
                elif len(store) > before:
                    sp.add("hits_disk", 1)
                else:
                    sp.add("hits_memory", 1)
                return field

        self._patch(store_cls, "get_or_compute", traced_get_or_compute)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def summarize(spans: list[Span], root: int | None = None) -> dict:
    """Per span name: calls, busy seconds, self seconds and summed counts.

    Busy time counts only the outermost span of a name (recursion is not
    counted twice) and excludes the tracer's own "overhead." spans below
    it; self time is a span's duration minus its direct children.  With
    root, only that span and its descendants count.
    """
    n = len(spans)
    top = [0] * n
    children = [0.0] * n
    overhead = [0.0] * n
    for i, sp in enumerate(spans):
        top[i] = i if sp.parent is None else top[sp.parent]
        if sp.parent is not None:
            children[sp.parent] += sp.seconds
        if sp.name.startswith("overhead."):
            p = sp.parent
            while p is not None:
                overhead[p] += sp.seconds
                p = spans[p].parent
    stats: dict = {}
    for i, sp in enumerate(spans):
        if sp.name.startswith("overhead.") or (root is not None
                                               and top[i] != root):
            continue
        st = stats.setdefault(sp.name, {"calls": 0, "s": 0.0, "self_s": 0.0,
                                        "counts": {}})
        st["calls"] += 1
        if not sp.nested:
            st["s"] += sp.seconds - overhead[i]
        st["self_s"] += sp.seconds - children[i]
        for key, value in (sp.counts or {}).items():
            st["counts"][key] = st["counts"].get(key, 0) + value
    return stats
