"""Numerical checks tying discrete kernels to the certified estimates.

Each check replays one provable statement against solver output: cooperative
domination, monotone growth in the domain radius, mass decay, coupling
support, forward/adjoint duality, the semigroup identity, integrability
against time-dependent weights, and the calibrated weighted majorant.  A
check returns the worst violation it measured together with the tolerance it
used and a fingerprint of its configuration, so repeated runs are comparable
byte for byte.

The evolutions run as a plan.  Each check declares its evolutions as
Evolution requests: variant, grid, t, resolved step, theta, and either point
sources, initial data, or, for the second leg of the semigroup check, the
output of an earlier request.  The check runs its requests through the
executor, evolve_all, and reads their outputs.  requests_of(check, system,
**kwargs) gives the requests of a call without running it, from the same
arguments bound to the check's own signature, defaults included; the verify
command hands those of every configured check, and of its plot, to run_plan,
and then hands each check its own (the requests argument), so the data of a
request is built once and hashed once; a check called without them builds
its own.
The executor drops duplicate requests by store key, sorts the rest by
(variant, grid, theta, dt), runs each (variant, grid) on one operator
handle, made on the first store miss, so every operator is built once and
every step size factored once, and releases the handle's LU when its last
request is done.  Requests are never merged into wider batches: each keeps
the batch it had when its check ran alone, so every column has the same
bits whether a check runs alone, in the plan, or in a thread.  Given a
kernel store, every evolution goes through it, so after run_plan the checks
compute nothing.

The constants the weighted and integrability checks rest on go through the
store too, as records: the two grid sups of each Lyapunov certificate
(stored_certificate) and the eight sups, edge flags and M of each constants
ledger (weighted_majorant), kept as float.hex text in .kbr files and
rebuilt by the functions verify_certificate and estimate_ledger build them
with, so a stored constant has the bits of a computed one.  A record's key
covers the system, every field of the specs and weights, the radius and
points per axis, s, the window, the sample plan, adjoint, the inner window
and RECORD_VERSION.  So a rerun against the same store recomputes nothing.
"""

from __future__ import annotations

import hashlib
import inspect
import math
import os
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import ConstantsLedger, eval_H
from .coefficients import CouplingSupport, _FamilyBase, operator_spec_of
from .errors import DomainError, KernelBoundError
from .hypotheses import (RowSumBound, SamplePlan, compute_row_sum_bound, estimate_ledger,
                         ledger_of)
from .lyapunov import (SAMPLE_RADIUS, CertificateReport, LyapunovSpec, RadialPoints,
                       SpaceTimeWeight, SynthesisResult, TimeLyapunovSpec, _points_per_axis,
                       certificate_report, verify_certificate)
from .solver import (DEFAULT_BUDGET, FIELD_FORMAT_VERSION, SOLVER_VERSION, DiscreteField,
                     GridSpec, OperatorHandle, default_dt, kernel_columns, load_field,
                     release_freed_memory, save_field, write_atomic)

__all__ = [
    "CheckResult", "KernelStore", "StoreKey", "system_fingerprint", "RECORD_VERSION",
    "stored_certificate", "Evolution", "PLAN_COUNTS", "evolve_all", "run_plan", "requests_of",
    "check_domination", "check_monotone_in_R", "check_mass_and_positivity",
    "check_support", "check_duality", "check_chapman_kolmogorov",
    "check_lyapunov_integrability", "check_weighted_bound",
    "check_decay_shape", "calibrate_majorant", "weighted_majorant",
    "heat_weight_image", "results_csv", "summary_text",
]

_TINY = 1e-300
# Part of every record key: bump it whenever a change can move a recorded
# certificate sup or ledger number, as SOLVER_VERSION for fields.
RECORD_VERSION = 1
# prefix of the id()-based fingerprints of opaque systems; family
# fingerprints are hex digests, so they never start with it
_OPAQUE = "spec"


@dataclass(frozen=True)
class CheckResult:
    """Outcome of one verification check.

    worst is measured in the same units as tolerance, and status is "pass"
    exactly when worst <= tolerance; "inconclusive" flags runs whose passing
    value is dominated by domain truncation and should be rerun larger.
    location is (t, x, y, h, k) with None in slots the check does not use.
    """

    check: str
    status: str
    worst: float
    location: tuple
    tolerance: float
    fingerprint: str
    details: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    def line(self) -> str:
        parts = []
        for name, val in zip(("t", "x", "y", "h", "k"), self.location):
            if val is None:
                continue
            if isinstance(val, (int, np.integer)):
                parts.append(f"{name}={val}")
            elif isinstance(val, tuple):
                parts.append(f"{name}=({', '.join(f'{v:.6g}' for v in val)})")
            else:
                parts.append(f"{name}={val:.6g}")
        at = f" at {', '.join(parts)}" if parts else ""
        return (f"{self.check}: {self.status} "
                f"(worst {self.worst:.3e}, tolerance {self.tolerance:.3e}{at})")


def _result(check: str, worst: float, tolerance: float, location: tuple,
            fingerprint: str, details: dict, inconclusive: bool = False) -> CheckResult:
    if worst > tolerance:
        status = "fail"
    elif inconclusive:
        status = "inconclusive"
    else:
        status = "pass"
    return CheckResult(check=check, status=status, worst=float(worst),
                       location=location, tolerance=float(tolerance),
                       fingerprint=fingerprint, details=details)


def _fingerprint(*parts) -> str:
    text = "|".join(str(p) for p in parts)
    return hashlib.sha1(text.encode()).hexdigest()[:12]


def system_fingerprint(system) -> str:
    """Stable identifier for family systems; id-based for opaque callables."""
    if isinstance(system, _FamilyBase):
        digest = hashlib.sha1(system.__class__.__name__.encode())
        digest.update(repr((system.dims.d, system.dims.m)).encode())
        for arr in (system.zeta, system.alpha, system.eta, system.beta,
                    system.theta, system.gamma):
            digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
        return digest.hexdigest()[:12]
    # opaque coefficient callables cannot be hashed by content
    return f"{_OPAQUE}{id(system):x}"


# ---------------------------------------------------------------------------
# kernel store
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StoreKey:
    """Key of one store entry, and the tiers the entry may live in.

    persist is False for opaque systems: their fingerprint comes from id(),
    which another process can hand to another system, so their fields never
    go to disk.  shared is False for fields that a single check reads: when
    the store has a directory they are written through to it and not kept
    in memory, so the store does not add to the peak memory of a run.
    """

    digest: str
    persist: bool = True
    shared: bool = True


def _store_key(kind: str, sys_fp: str, *parts, shared: bool = True) -> StoreKey:
    digest = _fingerprint(kind, SOLVER_VERSION, FIELD_FORMAT_VERSION, sys_fp, *parts)
    return StoreKey(digest, persist=not sys_fp.startswith(_OPAQUE), shared=shared)


class KernelStore:
    """Cache of computed fields and records, in memory and optionally in a directory.

    A plain string key is a shared, persistent StoreKey.  len() counts
    every field key loaded or built since the store was made, whichever
    tier holds it; records, read and written by record(), are not fields
    and are not counted.  Corrupt or foreign files under a key are silently
    recomputed.
    """

    def __init__(self, directory=None):
        self._memory: dict[str, DiscreteField] = {}
        self._records: dict[str, tuple] = {}
        self._seen: set[str] = set()
        # a plain string: every lookup builds a path, and pathlib is slow at it
        self._dir = os.fspath(directory) if directory is not None else None
        if self._dir is not None:
            os.makedirs(self._dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._seen)

    def _path(self, digest: str, suffix: str = ".kbf") -> str:
        name = hashlib.sha1(digest.encode()).hexdigest()[:16]
        return os.path.join(self._dir, name + suffix)

    def holds(self, key: StoreKey) -> bool:
        """Whether a field sits under key, in memory or in a file.

        The file is not read, so a corrupt one still counts; get_or_compute
        rebuilds it when it is read.
        """
        return key.digest in self._memory or (
            self._dir is not None and key.persist and os.path.exists(self._path(key.digest)))

    def get_or_compute(self, key, build: Callable[[], DiscreteField]) -> DiscreteField:
        key = StoreKey(key) if isinstance(key, str) else key
        if key.digest in self._memory:
            return self._memory[key.digest]
        path = self._path(key.digest) if self._dir is not None and key.persist else None
        fld = None
        if path is not None and os.path.exists(path):
            try:
                fld = load_field(path)
            except (KernelBoundError, ValueError, OSError, struct.error):
                fld = None
        if fld is None:
            fld = build()
            if path is not None:
                save_field(path, fld)
        self._seen.add(key.digest)
        if key.shared or path is None:
            self._memory[key.digest] = fld
        return fld

    def record(self, key: StoreKey, build: Callable[[], Sequence[float]]) -> tuple:
        """The numbers under key, as floats, from memory, from a .kbr file, or
        from build, and then kept in memory and, if key.persist, in the file.

        A file that does not parse, or holds a NaN, is rebuilt.  Numbers
        with a NaN are handed back but never kept, so they are built again.
        """
        if key.digest in self._records:
            return self._records[key.digest]
        persist = self._dir is not None and key.persist
        path = self._path(key.digest, ".kbr") if persist else None
        values = _read_record(path) if persist else None
        if values is None:
            values = tuple(float(v) for v in build())
            if any(map(math.isnan, values)):
                return values
            if persist:
                write_atomic(path, _record_text(values).encode())
        self._records[key.digest] = values
        return values


_RECORD_MAGIC = "KBR1"


def _record_text(values: tuple) -> str:
    """A record file: a header with the count, then one float.hex per line,
    so every number, infinities included, reads back to the same bits."""
    return "%s %d\n" % (_RECORD_MAGIC, len(values)) + "".join(v.hex() + "\n" for v in values)


def _read_record(path: str) -> Optional[tuple]:
    """The numbers of a record file, or None if it is missing, truncated,
    foreign or holds a NaN."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
        head, *lines = text[:-1].split("\n")
        if not text.endswith("\n") or head != "%s %d" % (_RECORD_MAGIC, len(lines)):
            return None
        values = tuple(map(float.fromhex, lines))
    except (OSError, ValueError):
        return None
    return None if any(map(math.isnan, values)) else values


def _record_key(kind: str, system, *parts) -> StoreKey:
    sys_fp = system_fingerprint(system)
    return StoreKey(_fingerprint("record", kind, RECORD_VERSION, sys_fp, *parts),
                    persist=not sys_fp.startswith(_OPAQUE))


def stored_certificate(system, lyap: LyapunovSpec | TimeLyapunovSpec,
                       radius: float = SAMPLE_RADIUS,
                       store: Optional[KernelStore] = None) -> CertificateReport:
    """verify_certificate(system, lyap, radius=radius), with its two grid sups
    kept in the store as a record.

    The record key covers the system, every field of lyap, the radius and
    the grid's points per axis.  The report is rebuilt from the sups by
    certificate_report, as verify_certificate builds it, so a stored
    certificate has the bits of a computed one.
    """
    if store is None:
        return verify_certificate(system, lyap, radius=radius)

    def sups():
        report = verify_certificate(system, lyap, radius=radius)
        return report.sup_coarse, report.sup_fine

    key = _record_key("certificate", system, lyap, radius, _points_per_axis(system.dims.d))
    return certificate_report(lyap, *store.record(key, sups), radius)


def _stored_ledger(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight,
                   nu2: SpaceTimeWeight, s: float, window: tuple, adjoint: bool,
                   inner: tuple, store: Optional[KernelStore]) -> ConstantsLedger:
    """estimate_ledger of the arguments, with its eight sups, their edge flags
    and M kept in the store as a record.

    The record key covers the system, every field of the three weights, s,
    the window, the sample plan and its points per axis, adjoint and inner.
    The ledger is rebuilt from the numbers by ledger_of, as estimate_ledger
    builds it.
    """
    def ledger() -> ConstantsLedger:
        return estimate_ledger(system, w, nu1, nu2, s, window, adjoint=adjoint, inner=inner)

    if store is None:
        return ledger()

    def numbers():
        led = ledger()
        return (*led.c, *led.boundary_flags, led.M)

    d = system.dims.d
    key = _record_key("ledger", system, w, nu1, nu2, s, window, SamplePlan(),
                      _points_per_axis(d), adjoint, inner)
    nums = store.record(key, numbers)
    return ledger_of(d, s, window, inner, nums[:8], nums[8:16], nums[16])


def _center(point, d: int) -> np.ndarray:
    return np.asarray(point, dtype=float).reshape(d)


def _loc_pt(point, d: int):
    arr = _center(point, d)
    return float(arr[0]) if d == 1 else tuple(float(v) for v in arr)


@dataclass(frozen=True, eq=False)
class Evolution:
    """One evolution a check needs, declared before anything runs.

    variant and grid name the operator; t, the resolved step dt and theta
    the time stepping.  The request evolves either the mollified point
    sources (center, component) of the given width, giving one kernel
    column per source, or the initial values data, of shape (n_nodes, m)
    or (n_nodes, m, c), giving an array of that shape, or, as a second
    stage, the output of the request after, for t more.  Build requests
    with of_sources, of_values and then.
    """

    variant: str
    grid: GridSpec
    t: float
    dt: float
    theta: float
    sources: tuple = ()
    width: float = 0.0
    data: Optional[np.ndarray] = None
    after: Optional["Evolution"] = None

    @classmethod
    def of_sources(cls, variant: str, grid: GridSpec, t: float, sources: Sequence[tuple],
                   width: Optional[float] = None, dt: Optional[float] = None,
                   theta: float = 0.5) -> "Evolution":
        """Kernel columns.  An unset width is two cells and an unset dt the
        solver default, resolved here, so a request that spells them out
        shares the store entries."""
        w = 2.0 * grid.spacing if width is None else float(width)
        step = default_dt(t, grid.spacing) if dt is None else float(dt)
        srcs = tuple((tuple(_center(point, grid.d)), k) for point, k in sources)
        return cls(variant, grid, t, step, theta, sources=srcs, width=w)

    @classmethod
    def of_values(cls, variant: str, grid: GridSpec, values: np.ndarray, t: float,
                  dt: Optional[float] = None, theta: float = 0.5) -> "Evolution":
        """Evolved data; an unset dt resolves to the solver default here."""
        step = default_dt(t, grid.spacing) if dt is None else float(dt)
        return cls(variant, grid, t, step, theta,
                   data=np.ascontiguousarray(values, dtype=float))

    def then(self, t: float) -> "Evolution":
        """This request's output evolved for t more, same operator and step."""
        return Evolution(self.variant, self.grid, t, self.dt, self.theta, after=self)

    @cached_property
    def digest(self) -> str:
        """_data_digest of the data, computed once per request."""
        return _data_digest(self.data)

    def digest_after(self, sys_fp: str, data: np.ndarray) -> str:
        """For a second stage: _data_digest of data, the output of the request
        after for the system sys_fp, computed once per request and system.

        That output has the same bits whichever run produced it, so the
        plan and the check that declared the request share one digest.
        """
        # a frozen dataclass: kept in the instance dict, as cached_property does
        known = vars(self).setdefault("_digests_after", {})
        if sys_fp not in known:
            known[sys_fp] = _data_digest(data)
        return known[sys_fp]


def _center_batch(store, sys_fp: str, variant: str, grid: GridSpec, m: int,
                  t: float, center: tuple, components, w: float, step: float,
                  theta: float, handle_of: Callable[[], OperatorHandle]) -> dict:
    """Kernel columns at one center, by component, routed through the store.

    Each component is one store entry, under a key of the system, variant,
    grid, t, center, component, width, step and theta.  A miss evolves all
    m components of the center in one batch, shared by the other misses, so
    a column has the same bits whichever components a caller asked for
    first.
    """
    for k in components:
        if not 0 <= k < m:
            raise DomainError(f"component {k} outside 0..{m - 1}")
    batch = []

    def build(k: int) -> DiscreteField:
        if not batch:
            batch.extend(kernel_columns(handle_of(), t, [(center, h) for h in range(m)],
                                        width=w, dt=step, theta=theta))
        return batch[k]

    if store is None:
        return {k: build(k) for k in components}
    return {k: store.get_or_compute(
                _column_key(sys_fp, variant, grid, t, center, k, w, step, theta),
                lambda k=k: build(k))
            for k in components}


def _column_key(sys_fp: str, variant: str, grid: GridSpec, t: float, center: tuple,
                k: int, w: float, step: float, theta: float) -> StoreKey:
    return _store_key("col", sys_fp, variant, grid.d, grid.radius, grid.spacing,
                      t, center, k, w, step, theta)


def _data_key(sys_fp: str, variant: str, grid: GridSpec, t: float, step: float,
              theta: float, digest: str, j: int) -> StoreKey:
    # read by a single check, so not shared
    return _store_key("evolve", sys_fp, variant, grid.d, grid.radius, grid.spacing,
                      t, step, theta, digest, j, shared=False)


def _data_digest(data: np.ndarray) -> str:
    """sha1 of the shape and the C-order bytes, hashed in place, not copied."""
    digest = hashlib.sha1(repr(data.shape).encode())
    digest.update(np.ascontiguousarray(data))
    return digest.hexdigest()


def _data_batch(store, sys_fp: str, variant: str, grid: GridSpec, t: float,
                data: np.ndarray, step: float, theta: float,
                handle_of: Callable[[], OperatorHandle], digest: str) -> np.ndarray:
    """Evolved data, routed through the store.

    data has shape (n_nodes, m) or (n_nodes, m, c).  Each column is one
    store entry, keyed by the data itself (digest, _data_digest(data), plus
    the column index) next to the system, variant, grid, t, step and theta.
    A miss evolves the whole batch, so a column has the same bits whichever
    columns were stored before.  The entries are read by a single check, so
    they are not shared: with a directory they go to disk only.
    """
    if store is None:
        return handle_of().evolve(data, t, dt=step, theta=theta)[0]
    evolved = []

    def build(j: int) -> DiscreteField:
        if not evolved:
            evolved.append(handle_of().evolve(data, t, dt=step, theta=theta)[0])
        out = evolved[0]
        col = out[:, :, j] if out.ndim == 3 else out
        return DiscreteField(grid, np.ascontiguousarray(col), time=t,
                             meta={"variant": variant})

    cols = [store.get_or_compute(_data_key(sys_fp, variant, grid, t, step, theta,
                                           digest, j), lambda j=j: build(j)).values
            for j in range(data.shape[2] if data.ndim == 3 else 1)]
    return np.stack(cols, axis=-1) if data.ndim == 3 else cols[0]


# ---------------------------------------------------------------------------
# the plan: every evolution declared, then each run once
# ---------------------------------------------------------------------------

# what run_plan counts: the declared requests, the distinct evolve batches
# they come to, the batches computed, the fields already stored, and the
# operator handles' factorizations and assemblies
PLAN_COUNTS = ("requests", "batches", "evolutions", "fields found in the store",
               "factorizations", "assemblies")


@dataclass(eq=False)
class _Batch:
    """One evolve batch of the plan, the unit that runs at most once.

    Column requests at one center share a batch, since all m components
    evolve together whichever of them are asked for; the batch reads the
    union of the components its requests want.  Data requests and second
    stages are batches of their own.
    """

    variant: str
    grid: GridSpec
    t: float
    dt: float
    theta: float
    stage: int = 0
    center: Optional[tuple] = None
    width: float = 0.0
    components: list = field(default_factory=list)
    request: Optional[Evolution] = None  # the first data request or second stage
    after: Optional["_Batch"] = None
    continued: bool = False  # a second stage reads this batch's output

    def order(self) -> tuple:
        g = self.grid
        return (self.variant, g.d, g.spacing, g.radius, self.theta, self.dt,
                self.stage, self.t)

    def keys(self, sys_fp: str) -> list:
        """The store keys of the batch's fields; a second stage's are unknown."""
        if self.center is not None:
            return [_column_key(sys_fp, self.variant, self.grid, self.t, self.center, k,
                                self.width, self.dt, self.theta) for k in self.components]
        data = self.request.data
        return [_data_key(sys_fp, self.variant, self.grid, self.t, self.dt, self.theta,
                          self.request.digest, j)
                for j in range(data.shape[2] if data.ndim == 3 else 1)]


def _plan(requests: Sequence[Evolution]) -> tuple:
    """The distinct batches in run order, and where each request's output lies.

    Batches are keyed by the text of their store keys, so two requests
    share a batch exactly when they would share store entries.  The run
    order is (variant, grid, theta, dt, stage, t): one handle per (variant,
    grid) steps through each (theta, dt) once, and a second stage runs right
    after the stage it continues.  A request's output lies in one batch, or,
    for kernel columns, in a list of (batch, component) picks.
    """
    batches: dict = {}
    where: dict = {}  # id(request) -> batch, or [(batch, component), ...]

    def batch_of(req: Evolution, *key, **extra) -> _Batch:
        if key not in batches:
            batches[key] = _Batch(req.variant, req.grid, req.t, req.dt, req.theta,
                                  **extra)
        return batches[key]

    for req in requests:
        g = req.grid
        op = _fingerprint(req.variant, g.d, g.radius, g.spacing, req.t, req.dt, req.theta)
        if req.after is not None:
            parent = where.get(id(req.after))
            if not isinstance(parent, _Batch):
                raise DomainError("a second stage needs its first stage declared before it")
            parent.continued = True
            where[id(req)] = batch_of(req, op, "then", id(parent), stage=parent.stage + 1,
                                      after=parent, request=req)
        elif req.data is not None:
            where[id(req)] = batch_of(req, op, "data", req.digest, request=req)
        else:
            picks = []
            for center, k in req.sources:
                b = batch_of(req, op, "col", str(center), str(req.width), center=center,
                             width=req.width)
                if k not in b.components:
                    b.components.append(k)
                picks.append((b, k))
            where[id(req)] = picks
    return sorted(batches.values(), key=_Batch.order), [where[id(r)] for r in requests]


class _Tally:
    """A store seen by one group of batches, counting the fields it hands back."""

    def __init__(self, store: KernelStore):
        self._store = store
        self.found = 0

    def holds_all(self, keys: list) -> bool:
        """Whether every key is stored; if so, they count as found."""
        if all(map(self._store.holds, keys)):
            self.found += len(keys)
            return True
        return False

    def get_or_compute(self, key, build):
        built = []

        def counted():
            built.append(True)
            return build()

        fld = self._store.get_or_compute(key, counted)
        self.found += not built
        return fld


def _execute(system, requests: Sequence[Evolution], store: Optional[KernelStore],
             jobs: int, keep: bool, budget: int = DEFAULT_BUDGET) -> tuple:
    """Run the plan of the requests; returns (outputs or None, counts).

    Batches of one (variant, grid) form a group with one OperatorHandle of
    the given budget, made on the group's first store miss, so a group
    whose every field is stored builds nothing.  A P_adjoint handle
    transposes the matrix of its grid's P handle when that group is done and
    made one.  When its last batch is done a group releases its
    factorization and hands freed heap pages back, so with one job at most
    one LU is alive.  With jobs > 1 the groups run in threads, each with its
    own handle; an adjoint group that starts before its P group is done
    assembles its own matrix.  Batches never depend on the order or the
    thread they run in, so neither do the bits.
    """
    sys_fp = system_fingerprint(system)
    m = operator_spec_of(system).dims.m
    batches, where = _plan(requests)
    groups = [list(g) for _, g in groupby(batches, key=lambda b: (b.variant, b.grid))]
    adjoint_grids = {b.grid for b in batches if b.variant == "P_adjoint"}
    forward: dict = {}  # grid -> done P handle whose matrix its adjoint group takes

    def run_group(group: list) -> tuple:
        variant, grid = group[0].variant, group[0].grid
        handle = None

        def handle_of() -> OperatorHandle:
            nonlocal handle
            if handle is None:
                fwd = forward.pop(grid, None) if variant == "P_adjoint" else None
                handle = OperatorHandle(system, grid, variant, budget, forward=fwd)
            return handle

        tally = _Tally(store) if store is not None else None
        done = {}
        for b in group:
            if not (keep or b.continued) and b.after is None and tally is not None \
                    and tally.holds_all(b.keys(sys_fp)):
                continue  # nothing to compute, and no output wanted
            if b.center is not None:
                out = _center_batch(tally, sys_fp, b.variant, b.grid, m, b.t, b.center,
                                    b.components, b.width, b.dt, b.theta, handle_of)
            elif b.after is None:
                out = _data_batch(tally, sys_fp, b.variant, b.grid, b.t, b.request.data,
                                  b.dt, b.theta, handle_of, b.request.digest)
            else:
                data = done[b.after]
                out = _data_batch(tally, sys_fp, b.variant, b.grid, b.t, data, b.dt,
                                  b.theta, handle_of, b.request.digest_after(sys_fp, data))
            if keep or b.continued:
                done[b] = out
        counts = Counter({"batches": len(group),
                          "fields found in the store": tally.found if tally else 0})
        if handle is not None:
            handle.release()
            counts.update(evolutions=handle.evolutions,
                          factorizations=handle.factorizations,
                          assemblies=handle.assemblies)
            if variant == "P" and grid in adjoint_grids:
                forward[grid] = handle
            handle = None
            release_freed_memory()
        return (done if keep else {}), counts

    if jobs > 1 and len(groups) > 1:
        with ThreadPoolExecutor(max_workers=jobs) as pool:
            ran = list(pool.map(run_group, groups))
    else:
        ran = [run_group(g) for g in groups]
    total = Counter(requests=len(requests))
    outputs: dict = {}
    for done, counts in ran:
        outputs.update(done)
        total.update(counts)
    if not keep:
        return None, total
    return [outputs[w] if isinstance(w, _Batch) else [outputs[b][k] for b, k in w]
            for w in where], total


def evolve_all(system, requests: Sequence[Evolution],
               store: Optional[KernelStore] = None,
               budget: int = DEFAULT_BUDGET) -> list:
    """Outputs of the requests in their order, each batch run at most once.

    A column request gives a list of DiscreteField, one per source; a data
    request or a second stage gives an array shaped like its data.  Every
    check runs its own requests through here; after run_plan has run them,
    every field comes from the store.  budget caps the unknowns of each
    operator, as in OperatorHandle.
    """
    return _execute(system, requests, store, 1, keep=True, budget=budget)[0]


def run_plan(system, requests: Sequence[Evolution], store: KernelStore,
             jobs: int = 1) -> Counter:
    """Run the requests of several checks into the store, keeping no output.

    Duplicates are dropped by store key and the rest run in plan order, so
    each operator is built once and each (variant, grid, theta, dt) is
    factored once; the checks then read every field from the store.
    Returns the PLAN_COUNTS.
    """
    return _execute(system, requests, store, jobs, keep=False)[1]


def _embed_indices(small: GridSpec, big: GridSpec) -> np.ndarray:
    """Node indices of the small grid inside the big one (same spacing)."""
    if small.d != big.d or small.spacing != big.spacing:
        raise DomainError("grids must share dimension and spacing")
    if big.radius < small.radius:
        raise DomainError("second grid must be the larger one")
    raw = (big.radius - small.radius) / small.spacing
    off = int(round(raw))
    if abs(off - raw) > 1e-9 * max(1.0, abs(raw)):
        raise DomainError("grid radii differ by a non-integer number of cells")
    idx = off + np.arange(small.n_per_axis)
    if small.d == 1:
        return idx
    return (idx[:, None] * big.n_per_axis + idx[None, :]).ravel()


# ---------------------------------------------------------------------------
# order and structure checks
# ---------------------------------------------------------------------------

def _domination_requests(system, grid: GridSpec, t: float, sources: Sequence[tuple],
                         dt: Optional[float], width: Optional[float], n_random: int,
                         seed: int) -> list:
    """The evolutions of check_domination, for the same arguments."""
    reqs = [Evolution.of_sources(variant, grid, t, sources, width, dt, 1.0)
            for variant in ("P", "plain")]
    if n_random:
        # the draws, in the order they were always taken, evolve as one batch
        rng = np.random.default_rng(seed)
        f = np.stack([rng.uniform(-1.0, 1.0, size=(grid.n_nodes, system.dims.m))
                      for _ in range(n_random)], axis=-1)
        reqs += [Evolution.of_values("plain", grid, f, t, dt, 1.0),
                 Evolution.of_values("P", grid, np.abs(f), t, dt, 1.0)]
    return reqs


def check_domination(system, grid: GridSpec, t: float,
                     sources: Sequence[tuple], dt: Optional[float] = None,
                     width: Optional[float] = None, tol: float = 1e-9,
                     n_random: int = 3, seed: int = 0,
                     requests: Optional[Sequence[Evolution]] = None,
                     store: Optional[KernelStore] = None) -> CheckResult:
    """Signed kernels stay below the cooperative ones, entrywise.

    Kernel level: |p_hk| <= p^P_hk at every node, for each requested source.
    Function level: |T(t)f| <= T^P(t)|f| for a few random sign-changing f.
    Backward steps keep the comparison exact, so the tolerance only covers
    linear-solver residue.
    """
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("domination", sys_fp, grid.d, grid.radius, grid.spacing,
                      t, tuple(map(repr, sources)), tol, n_random, seed)
    m = system.dims.m
    worst = -math.inf
    loc = (t, None, None, None, None)
    samples = []
    coop_cols, plain_cols, *random_runs = evolve_all(
        system, requests or _domination_requests(system, grid, t, sources, dt, width,
                                                 n_random, seed), store)
    for (center, k), cp, cf in zip(sources, coop_cols, plain_cols):
        scale = max(float(np.max(cp.values)), _TINY)
        excess = (np.abs(cf.values) - cp.values) / scale
        i = int(np.argmax(excess))
        node, h = divmod(i, m)
        val = float(excess.flat[i])
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": _loc_pt(center, grid.d), "h": h, "k": k,
                        "value": val, "bound": tol})
        if val > worst:
            worst = val
            loc = (t, _loc_pt(grid.points()[node], grid.d),
                   _loc_pt(center, grid.d), h, k)
    for j in range(n_random):
        ufs, ups = random_runs
        uf, up = ufs[:, :, j], ups[:, :, j]
        scale = max(float(np.max(np.abs(up))), _TINY)
        excess = (np.abs(uf) - up) / scale
        i = int(np.argmax(excess))
        node, h = divmod(i, m)
        val = float(excess.flat[i])
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": None, "h": h, "k": None, "value": val, "bound": tol})
        if val > worst:
            worst = val
            loc = (t, _loc_pt(grid.points()[node], grid.d), None, h, None)
    return _result("check_domination", worst, tol, loc, fp,
                   {"samples": samples, "sources": len(sources),
                    "random_data": n_random})


def _monotone_requests(system, radii: Sequence[float], spacing: float, t: float,
                       source: tuple, dt: Optional[float], width: Optional[float],
                       theta: float) -> list:
    """The evolutions of check_monotone_in_R: one column per radius, ascending."""
    if dt is None:
        dt = default_dt(t, spacing)
    if width is None:
        width = 2.0 * spacing
    return [Evolution.of_sources("P", GridSpec(d=system.dims.d, radius=R, spacing=spacing),
                                 t, [source], width, dt, theta)
            for R in sorted(float(R) for R in radii)]


def check_monotone_in_R(system, radii: Sequence[float], spacing: float,
                        t: float, source: tuple, dt: Optional[float] = None,
                        width: Optional[float] = None, tol: float = 1e-8,
                        shrink: float = 4.0, theta: float = 1.0,
                        requests: Optional[Sequence[Evolution]] = None,
                        store: Optional[KernelStore] = None) -> CheckResult:
    """Cooperative kernels grow with the box and their increments collapse.

    All grids share spacing, time step, and mollifier, so shared nodes are
    directly comparable.  Violations are absolute; the increment sequence
    on the smallest grid must shrink by the given factor per radius step,
    with a roundoff floor of 1e-12 times the kernel scale.
    """
    d = system.dims.d
    center, k = source
    radii = sorted(float(R) for R in radii)
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("monotone-R", sys_fp, tuple(radii), spacing, t,
                      tuple(_center(center, d)), k, tol, shrink, theta)
    reqs = requests or _monotone_requests(system, radii, spacing, t, source, dt, width,
                                          theta)
    grids = [req.grid for req in reqs]
    fields = [cols[0] for cols in evolve_all(system, reqs, store)]
    scale = max(max(float(np.max(f.values)) for f in fields), _TINY)
    floor = 1e-12 * scale
    worst = 0.0
    loc = (t, None, _loc_pt(center, d), None, k)
    samples = []
    violations = []
    for g_small, f_small, g_big, f_big in zip(grids, fields, grids[1:], fields[1:]):
        emb = _embed_indices(g_small, g_big)
        drop = f_small.values - f_big.values[emb]
        i = int(np.argmax(drop))
        node, h = divmod(i, f_small.m)
        val = float(drop.flat[i])
        violations.append(val)
        samples.append({"t": t, "x": _loc_pt(g_small.points()[node], d),
                        "y": _loc_pt(center, d), "h": h, "k": k,
                        "value": val, "bound": tol})
        if val > worst:
            worst = val
            loc = (t, _loc_pt(g_small.points()[node], d), _loc_pt(center, d), h, k)
    base = grids[0]
    restricted = [f.values[_embed_indices(base, g)] if g.radius > base.radius
                  else f.values for g, f in zip(grids, fields)]
    increments = [float(np.max(np.abs(b - a)))
                  for a, b in zip(restricted, restricted[1:])]
    for prev, nxt in zip(increments, increments[1:]):
        allowed = max(prev / shrink, floor)
        ratio = nxt / max(allowed, _TINY)
        worst = max(worst, tol * ratio if ratio > 1.0 else 0.0)
    return _result("check_monotone_in_R", worst, tol, loc, fp,
                   {"samples": samples, "violations": violations,
                    "increments": increments, "scale": scale})


def _mass_requests(system, grid: GridSpec, t_values: Sequence[float],
                   dt: Optional[float], theta: float, sources: Sequence[tuple],
                   width: Optional[float]) -> list:
    """The evolutions of check_mass_and_positivity: the all-ones data at each
    time, then the source columns at the last time."""
    ones = np.ones((grid.n_nodes, system.dims.m))
    return [Evolution.of_values("P", grid, ones, t, dt, theta) for t in t_values] \
        + [Evolution.of_sources("P", grid, max(t_values), sources, width, dt, theta)]


def check_mass_and_positivity(system, grid: GridSpec,
                              t_values: Sequence[float],
                              dt: Optional[float] = None, theta: float = 1.0,
                              tol: float = 0.01, pos_tol: float = 1e-10,
                              row: Optional[RowSumBound] = None,
                              sources: Sequence[tuple] = (),
                              width: Optional[float] = None,
                              requests: Optional[Sequence[Evolution]] = None,
                              store: Optional[KernelStore] = None) -> CheckResult:
    """Total kernel mass decays at the certified rate and stays nonnegative.

    Evolving the all-ones data computes sum_k of the L1 kernel masses in one
    run per time; the bound is sqrt(m) e^(-Mt) (1 + tol) with M from the
    potential row sums.  Positivity violations are folded into the same
    scale so a single worst number decides the check.
    """
    sys_fp = system_fingerprint(system)
    m = system.dims.m
    if row is None:
        row = compute_row_sum_bound(system, radius=max(SAMPLE_RADIUS, 2.0 * grid.radius))
    fp = _fingerprint("mass-positivity", sys_fp, grid.d, grid.radius,
                      grid.spacing, tuple(t_values), tol, pos_tol, row.M, theta)
    sqm = math.sqrt(m)
    *runs, cols = evolve_all(
        system, requests or _mass_requests(system, grid, t_values, dt, theta, sources, width),
        store)
    worst = -math.inf
    pos_ratio = 0.0
    loc = (None, None, None, None, None)
    samples = []
    for t, u in zip(t_values, runs):
        bound = sqm * math.exp(-row.M * t)
        i = int(np.argmax(u))
        node, h = divmod(i, m)
        excess = float(u.flat[i]) / bound - 1.0
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": None, "h": h, "k": None,
                        "value": float(u.flat[i]), "bound": bound})
        if excess > worst:
            worst = excess
            loc = (t, _loc_pt(grid.points()[node], grid.d), None, h, None)
        pos_ratio = max(pos_ratio, -float(np.min(u)) / pos_tol)
    for col in cols:
        scale = max(float(np.max(col.values)), _TINY)
        pos_ratio = max(pos_ratio, -float(np.min(col.values)) / (pos_tol * scale))
    worst = max(worst, tol * pos_ratio)
    return _result("check_mass_and_positivity", worst, tol, loc, fp,
                   {"samples": samples, "M": row.M, "certified_tail": row.certified_tail,
                    "positivity_ratio": pos_ratio})


def _support_requests(system, k: int, grid: GridSpec, t: float, center,
                      dt: Optional[float], width: Optional[float],
                      theta: float) -> list:
    """The evolution of check_support: the column of (center, k)."""
    if center is None:
        center = np.zeros(system.dims.d)
    return [Evolution.of_sources("P", grid, t, [(center, k)], width, dt, theta)]


def check_support(system, k: int, grid: GridSpec, t: float,
                  center=None, dt: Optional[float] = None,
                  width: Optional[float] = None, tol_null: float = 1e-10,
                  floor: float = 1e-12, theta: float = 1.0,
                  support: Optional[CouplingSupport] = None,
                  requests: Optional[Sequence[Evolution]] = None,
                  store: Optional[KernelStore] = None) -> CheckResult:
    """Kernel column vanishes exactly off the coupling-reachable components.

    Components outside the reachability set F_k must stay below tol_null
    relative to the column maximum (pure roundoff), reachable ones must rise
    above the relative floor.
    """
    if support is None:
        if not isinstance(system, _FamilyBase):
            raise DomainError("non-family systems need an explicit coupling support")
        support = system.support(k)
    d = system.dims.d
    if center is None:
        center = np.zeros(d)
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("support", sys_fp, k, grid.d, grid.radius, grid.spacing,
                      t, tuple(_center(center, d)), tol_null, floor,
                      sorted(support.reachable))
    m = system.dims.m
    (col,), = evolve_all(system, requests or _support_requests(system, k, grid, t, center,
                                                               dt, width, theta), store)
    scale = max(float(np.max(np.abs(col.values))), _TINY)
    per_comp = [float(np.max(np.abs(col.values[:, h]))) / scale
                for h in range(m)]
    worst = 0.0
    loc = (t, None, _loc_pt(center, d), None, k)
    samples = []
    min_reach = math.inf
    for h in range(m):
        reachable = h in support.reachable
        samples.append({"t": t, "x": None, "y": _loc_pt(center, d), "h": h,
                        "k": k, "value": per_comp[h],
                        "bound": floor if reachable else tol_null})
        if reachable:
            min_reach = min(min_reach, per_comp[h])
        elif per_comp[h] > worst:
            worst = per_comp[h]
            node = int(np.argmax(np.abs(col.values[:, h])))
            loc = (t, _loc_pt(grid.points()[node], d), _loc_pt(center, d), h, k)
    # a reachable component sitting below the floor trips the tolerance too
    if min_reach < floor:
        worst = max(worst, tol_null * floor / max(min_reach, _TINY))
    return _result("check_support", worst, tol_null, loc, fp,
                   {"samples": samples, "reachable": sorted(support.reachable),
                    "levels": [sorted(level) for level in support.levels],
                    "relative_maxima": per_comp, "floor": floor})


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def _duality_requests(system, grid: GridSpec, t: float, pairs: Sequence[tuple],
                      dt: Optional[float], width: Optional[float],
                      theta: float) -> list:
    """The evolutions of check_duality: forward columns sourced at each (y, k),
    adjoint columns sourced at each (x, h)."""
    return [Evolution.of_sources("P", grid, t, [(y, k) for _, _, y, k in pairs],
                                 width, dt, theta),
            Evolution.of_sources("P_adjoint", grid, t, [(x, h) for x, h, _, _ in pairs],
                                 width, dt, theta)]


def check_duality(system, grid: GridSpec, t: float, pairs: Sequence[tuple],
                  dt: Optional[float] = None, width: Optional[float] = None,
                  tol: float = 0.02, theta: float = 0.5,
                  requests: Optional[Sequence[Evolution]] = None,
                  store: Optional[KernelStore] = None) -> CheckResult:
    """Forward kernel values agree with transposed adjoint kernel values.

    Each pair is (x, h, y, k): the forward column sourced at (y, k) read at
    (x, h) must match the adjoint column sourced at (x, h) read at (y, k).
    Both runs mollify one argument, so agreement is up to mollifier bias;
    pairs whose values sit at solver-noise level count as agreeing.
    """
    d = grid.d
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("duality", sys_fp, grid.d, grid.radius, grid.spacing, t,
                      tuple(map(repr, pairs)), tol, theta)
    worst = 0.0
    loc = (t, None, None, None, None)
    samples = []
    fwd_cols, adj_cols = evolve_all(
        system, requests or _duality_requests(system, grid, t, pairs, dt, width, theta), store)
    for (x, h, y, k), cf, ca in zip(pairs, fwd_cols, adj_cols):
        vf = float(cf.values[grid.node_of(_center(x, d)), h])
        va = float(ca.values[grid.node_of(_center(y, d)), k])
        noise = 1e-12 * max(float(np.max(np.abs(cf.values))),
                            float(np.max(np.abs(ca.values))), _TINY)
        scale = max(abs(vf), abs(va))
        rel = 0.0 if scale <= noise else abs(vf - va) / scale
        samples.append({"t": t, "x": _loc_pt(x, d), "y": _loc_pt(y, d),
                        "h": h, "k": k, "value": rel, "bound": tol})
        if rel > worst:
            worst = rel
            loc = (t, _loc_pt(x, d), _loc_pt(y, d), h, k)
    return _result("check_duality", worst, tol, loc, fp, {"samples": samples})


def _chapman_dt(grid: GridSpec, t: float, s: float, dt: Optional[float]):
    """The step of a split (s, t): by default the largest one that divides s
    and is at most min(t, s, spacing, (t + s) / 64)."""
    if dt is None and s > 0.0:
        base = min(t, s, grid.spacing, (t + s) / 64.0)
        dt = s / math.ceil(s / base)
    return dt


def _chapman_requests(system, grid: GridSpec, t: float, s: float, variant: str,
                      dt: Optional[float], theta: float, seed: int) -> list:
    """The evolutions of check_chapman_kolmogorov: the direct path over t + s
    and the composed one, s and then, as a second stage, t more."""
    f = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(grid.n_nodes, system.dims.m))
    if s <= 0.0:
        # degenerate split: the composition is the single evolution
        return [Evolution.of_values(variant, grid, f, t, dt, theta)]
    dt = _chapman_dt(grid, t, s, dt)
    mid = Evolution.of_values(variant, grid, f, s, dt, theta)
    return [Evolution.of_values(variant, grid, f, t + s, dt, theta), mid, mid.then(t)]


def check_chapman_kolmogorov(system, grid: GridSpec, t: float, s: float,
                             variant: str = "P", dt: Optional[float] = None,
                             theta: float = 1.0, tol: float = 1e-9,
                             seed: int = 0,
                             requests: Optional[Sequence[Evolution]] = None,
                             store: Optional[KernelStore] = None) -> CheckResult:
    """Composing the evolution over s then t equals evolving over t + s.

    The default step divides s exactly, which makes both paths the same
    matrix product including the trailing partial step; the tolerance then
    only absorbs accumulated linear-solver residue.
    """
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("chapman", sys_fp, grid.d, grid.radius, grid.spacing,
                      t, s, variant, tol, seed, theta)
    reqs = requests or _chapman_requests(system, grid, t, s, variant, dt, theta, seed)
    runs = evolve_all(system, reqs, store)
    a, b = runs[0], runs[-1]
    dt = _chapman_dt(grid, t, s, dt)
    scale = max(float(np.max(np.abs(reqs[0].data))), _TINY)
    diff = np.abs(a - b)
    i = int(np.argmax(diff))
    node, h = divmod(i, system.dims.m)
    worst = float(diff.flat[i]) / scale
    loc = (t + s, _loc_pt(grid.points()[node], grid.d), None, h, None)
    samples = [{"t": t + s, "x": loc[1], "y": None, "h": h, "k": None,
                "value": worst, "bound": tol}]
    return _result("check_chapman_kolmogorov", worst, tol, loc, fp,
                   {"samples": samples, "dt": dt, "split": (t, s)})


# ---------------------------------------------------------------------------
# weight checks
# ---------------------------------------------------------------------------

def heat_weight_image(eps: float, t: float, x) -> np.ndarray:
    """Heat semigroup applied to exp(eps t (1 + y^2)) in one dimension.

    Closed form (1 - 4 a t)^(-1/2) exp(eps t + a x^2 / (1 - 4 a t)) with
    a = eps t, finite exactly while 4 eps t^2 < 1.
    """
    a = eps * t
    denom = 1.0 - 4.0 * a * t
    if denom <= 0.0:
        raise DomainError(f"need 4 eps t^2 < 1, got eps={eps}, t={t}")
    x = np.asarray(x, dtype=float)
    return np.exp(eps * t + a * x * x / denom) / math.sqrt(denom)


def _scaled(timed: TimeLyapunovSpec, scale: float) -> TimeLyapunovSpec:
    """The weight amplitude rescaled; its growth constant still to calibrate."""
    if scale == 1.0 and timed.c0 is not None:
        return timed
    base = replace(timed.base, eps_hat=timed.base.eps_hat * float(scale))
    return replace(timed, base=base, c0=None)


def _calibrated_scaled(system, timed: TimeLyapunovSpec, scale: float, radius: float,
                       store: Optional[KernelStore] = None) -> TimeLyapunovSpec:
    """Rescale the weight amplitude and recalibrate its growth constant,
    through the store's certificate records when given one."""
    candidate = _scaled(timed, scale)
    if candidate is timed:
        return timed
    return stored_certificate(system, candidate, radius, store).certified


def _integrability_requests(system, timed: TimeLyapunovSpec, grid: GridSpec,
                            t_values: Sequence[float], eps: Optional[float],
                            theta: float, dt: Optional[float]) -> list:
    """The evolutions of check_lyapunov_integrability: at each time, the weight
    and its outer shell as one two-column batch.

    The weight is the one of the rescaled spec, which calibration does not
    change, so no calibration runs here.
    """
    if eps is None:
        eps = timed.eps_T / 4.0
    w = _scaled(timed, eps / timed.eps_T).weight()
    pts = grid.points()
    at = RadialPoints(pts, grid.d)
    shell = np.max(np.abs(pts), axis=-1) >= 0.9 * grid.radius
    reqs = []
    for t in t_values:
        log_nu = np.asarray(w.log_value(t, at, grid.d), dtype=float)
        init = np.repeat(np.exp(log_nu)[:, None], system.dims.m, axis=1)
        both = np.stack([init, init * shell[:, None]], axis=-1)
        reqs.append(Evolution.of_values("P", grid, both, t, dt, theta))
    return reqs


def check_lyapunov_integrability(system, timed: TimeLyapunovSpec,
                                 grid: GridSpec, t_values: Sequence[float],
                                 x_points: Sequence, eps: Optional[float] = None,
                                 tol: float = 0.05, theta: float = 1.0,
                                 dt: Optional[float] = None,
                                 boundary_fraction: float = 0.01,
                                 g_margin: float = 0.0,
                                 cert_radius: Optional[float] = None,
                                 requests: Optional[Sequence[Evolution]] = None,
                                 store: Optional[KernelStore] = None) -> CheckResult:
    """Weighted kernel integrals stay below the certified growth envelope.

    Evolving the weight itself as initial data computes sum_k of the
    integrals of nu(t, y) p_hk(t, x, y) in one run; the result must stay
    below e^(G(t)) nu(0, x) (1 + tol).  A companion run of the weight
    restricted to the outer shell measures how much of the integral lives
    near the boundary; when that exceeds boundary_fraction the verdict is
    inconclusive (enlarge the box) rather than a pass.  g_margin subtracts
    a fixed amount from G to probe how tight the envelope is.
    """
    d = grid.d
    sys_fp = system_fingerprint(system)
    if eps is None:
        eps = timed.eps_T / 4.0
    radius = cert_radius if cert_radius is not None else max(SAMPLE_RADIUS, 2.0 * grid.radius)
    spec_used = _calibrated_scaled(system, timed, eps / timed.eps_T, radius, store)
    fp = _fingerprint("integrability", sys_fp, grid.d, grid.radius,
                      grid.spacing, tuple(t_values),
                      tuple(_loc_pt(x, d) for x in x_points), eps, tol,
                      g_margin, theta)
    runs = evolve_all(system, requests or _integrability_requests(
        system, timed, grid, t_values, eps, theta, dt), store)
    worst = -math.inf
    tail_worst = 0.0
    loc = (None, None, None, None, None)
    samples = []
    for t, both in zip(t_values, runs):
        out, out_shell = both[:, :, 0], both[:, :, 1]
        bound = math.exp(float(spec_used.G(t)) - g_margin)
        for x in x_points:
            node = grid.node_of(_center(x, d))
            val = float(np.max(out[node]))
            excess = val / bound - 1.0
            tail = float(np.max(out_shell[node])) / max(val, _TINY)
            tail_worst = max(tail_worst, tail)
            samples.append({"t": t, "x": _loc_pt(x, d), "y": None,
                            "h": int(np.argmax(out[node])), "k": None,
                            "value": val, "bound": bound})
            if excess > worst:
                worst = excess
                loc = (t, _loc_pt(x, d), None, int(np.argmax(out[node])), None)
    return _result("check_lyapunov_integrability", worst, tol, loc, fp,
                   {"samples": samples, "eps": eps, "c0": spec_used.c0,
                    "boundary_fraction": tail_worst, "g_margin": g_margin},
                   inconclusive=tail_worst > boundary_fraction)


def _checked_eps_scales(eps_scales: Sequence[float]) -> tuple:
    s0, s1, s2 = eps_scales
    if not 0.0 < s0 < s1 < s2 <= 1.0:
        raise DomainError(f"eps scales must increase within (0, 1], got {eps_scales}")
    return s0, s1, s2


def calibrate_majorant(system, synthesis: SynthesisResult,
                       eps_scales: Sequence[float] = (0.5, 0.75, 1.0),
                       cert_radius: float = SAMPLE_RADIUS,
                       store: Optional[KernelStore] = None) -> tuple:
    """The comparison weights nu1, nu2 of weighted_majorant, calibrated.

    Their growth constants depend on the synthesis, the eps scales and the
    certificate radius, not on the evaluation time, so a caller that needs
    the majorant at several times calibrates once and passes the pair to
    every weighted_majorant call.  Given a store, the certificates are
    records in it.
    """
    _, s1, s2 = _checked_eps_scales(eps_scales)
    return (_calibrated_scaled(system, synthesis.timed, s1, cert_radius, store),
            _calibrated_scaled(system, synthesis.timed, s2, cert_radius, store))


def weighted_majorant(system, synthesis: SynthesisResult, s: float,
                      t: Optional[float] = None,
                      eps_scales: Sequence[float] = (0.5, 0.75, 1.0),
                      adjoint: bool = False, cert_radius: float = SAMPLE_RADIUS,
                      window: Optional[Sequence[float]] = None,
                      calibrated: Optional[tuple] = None,
                      store: Optional[KernelStore] = None) -> tuple:
    """Ledger and constant majorant value over a time window.

    The window defaults to (t/8, t/4, t/2, 3t/4), proportional to the
    evaluation time; an explicit 4-tuple overrides it.  The three weights
    share the synthesized shape at eps_scales times the certified
    amplitude.  Because the comparison weights equal one at time zero, the
    majorant is constant in space; the value is returned along with the
    estimated ledger.  calibrated is the pair calibrate_majorant returns
    for the same arguments; it is computed here when not given.  Given a
    store, the ledger and the certificates are records in it.
    """
    timed = synthesis.timed
    s0, s1, s2 = _checked_eps_scales(eps_scales)
    if window is None:
        if t is None:
            raise DomainError("need an evaluation time or an explicit window")
        window = (t / 8.0, t / 4.0, t / 2.0, 3.0 * t / 4.0)
    elif len(window) != 4:
        raise DomainError(f"window needs 4 entries, got {len(window)}")
    eps_T = timed.eps_T
    w = timed.weight(s0 * eps_T)
    nu1 = timed.weight(s1 * eps_T)
    nu2 = timed.weight(s2 * eps_T)
    ledger = _stored_ledger(system, w, nu1, nu2, s, (window[0], window[3]), adjoint,
                            (window[1], window[2]), store)
    spec1, spec2 = calibrated or calibrate_majorant(system, synthesis, eps_scales,
                                                    cert_radius, store)
    ones = lambda pts: np.ones(pts.shape[0])
    # adjoint estimates land in the plain constant slots until merged, and
    # the starred majorant uses the same bracket structure
    H = eval_H(ledger, ones, ones, spec1.G, spec2.G, np.zeros(system.dims.d))
    return ledger, float(H)


def _weighted_requests(system, t_values: Sequence[float], sources: Sequence,
                       coarse: tuple, fine: tuple, dt: Optional[float],
                       width: Optional[float], theta: float) -> list:
    """The evolutions of check_weighted_bound: for the coarse and then the fine
    (spacing, radius) pair, each time and source, the columns of every
    component."""
    d, m = system.dims.d, system.dims.m
    return [Evolution.of_sources("P", GridSpec(d=d, radius=radius, spacing=spacing), t,
                                 [(y, k) for k in range(m)], width, dt, theta)
            for spacing, radius in (coarse, fine) for t in t_values for y in sources]


def check_weighted_bound(system, synthesis: SynthesisResult, s: float,
                         t_values: Sequence[float], sources: Sequence,
                         coarse: tuple, fine: tuple,
                         eps_scales: Sequence[float] = (0.5, 0.75, 1.0),
                         tol: float = 0.10, dt: Optional[float] = None,
                         width: Optional[float] = None, theta: float = 0.5,
                         two_sided: bool = False,
                         adjoint_synthesis: Optional[SynthesisResult] = None,
                         C_cal: Optional[float] = None,
                         majorant_override: Optional[Callable] = None,
                         cert_radius: float = SAMPLE_RADIUS,
                         requests: Optional[Sequence[Evolution]] = None,
                         store: Optional[KernelStore] = None) -> CheckResult:
    """Weighted kernel suprema stay calibrated under mesh and box refinement.

    The ratio w(t, y) sum_k |p_hk(t, x, y)| / H is computed over every
    source and node of the coarse (spacing, radius) pair; its supremum
    calibrates C_cal unless one is supplied.  The same supremum on the fine
    pair must then stay within (1 + tol) of the calibration.  two_sided adds
    the symmetrized ratio sqrt(w(t, y) w*(t, x)) / sqrt(H H*) built from the
    adjoint synthesis.  majorant_override(t, points) replaces H for probing
    deliberately broken majorants.
    """
    d = system.dims.d
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("weighted-bound", sys_fp, s, tuple(t_values),
                      tuple(_loc_pt(y, d) for y in sources), coarse, fine,
                      tuple(eps_scales), tol, two_sided, C_cal, theta)
    timed = synthesis.timed
    w = timed.weight(eps_scales[0] * timed.eps_T)
    wstar = None
    if two_sided and adjoint_synthesis is None:
        raise DomainError("two-sided ratio needs the adjoint synthesis")
    calibrated = calibrate_majorant(system, synthesis, eps_scales, cert_radius, store)
    if two_sided:
        calibrated_star = calibrate_majorant(system, adjoint_synthesis, eps_scales,
                                             cert_radius, store)
    majorants = {}
    for t in t_values:
        _, H = weighted_majorant(system, synthesis, s, t, eps_scales,
                                 adjoint=False, cert_radius=cert_radius,
                                 calibrated=calibrated, store=store)
        Hstar = None
        if two_sided:
            _, Hstar = weighted_majorant(system, adjoint_synthesis, s, t,
                                         eps_scales, adjoint=True,
                                         cert_radius=cert_radius,
                                         calibrated=calibrated_star, store=store)
        majorants[t] = (H, Hstar)
    if two_sided:
        adj = adjoint_synthesis.timed
        wstar = adj.weight(eps_scales[0] * adj.eps_T)
    reqs = requests or _weighted_requests(system, t_values, sources, coarse, fine, dt, width,
                                          theta)
    per_pair = len(reqs) // 2
    m = system.dims.m

    def sweep(pair, reqs):
        # one pair's columns at a time, in request order: by time and source
        columns = iter(evolve_all(system, reqs, store))
        spacing, radius = pair
        grid = GridSpec(d=d, radius=radius, spacing=spacing)
        pts = grid.points()
        at = RadialPoints(pts, d)
        sup = 0.0
        sup2 = 0.0
        sup_loc = (None, None, None, None, None)
        rows = []
        for t in t_values:
            H, Hstar = majorants[t]
            for y in sources:
                total = np.zeros((grid.n_nodes, m))
                for col in next(columns):
                    total += np.abs(col.values)
                wy = float(np.exp(w.log_value(t, _center(y, d)[None, :], d))[0])
                if majorant_override is not None:
                    denom = np.asarray(majorant_override(t, pts), dtype=float)[:, None]
                    ratio = wy * total / denom
                else:
                    ratio = wy * total / H
                i = int(np.argmax(ratio))
                node, h = divmod(i, m)
                val = float(ratio.flat[i])
                rows.append({"t": t, "x": _loc_pt(pts[node], d),
                             "y": _loc_pt(y, d), "h": h, "k": None,
                             "value": val, "bound": H})
                if val > sup:
                    sup = val
                    sup_loc = (t, _loc_pt(pts[node], d), _loc_pt(y, d), h, None)
                if two_sided:
                    wx = np.exp(0.5 * np.asarray(wstar.log_value(t, at, d)))
                    r2 = math.sqrt(wy) * wx[:, None] * total / math.sqrt(H * Hstar)
                    sup2 = max(sup2, float(np.max(r2)))
        return sup, sup2, sup_loc, rows

    sup_c, sup2_c, loc_c, rows_c = sweep(coarse, reqs[:per_pair])
    if not (math.isfinite(sup_c) and sup_c > 0):
        raise DomainError(f"coarse calibration sup degenerate: {sup_c}")
    cal = C_cal if C_cal is not None else sup_c
    cal2 = sup2_c if two_sided else None
    sup_f, sup2_f, loc_f, rows_f = sweep(fine, reqs[per_pair:])
    worst = sup_f / cal - 1.0
    loc = loc_f
    if two_sided and cal2 and cal2 > 0:
        worst = max(worst, sup2_f / cal2 - 1.0)
    return _result("check_weighted_bound", worst, tol, loc, fp,
                   {"samples": rows_c + rows_f, "C_cal": cal,
                    "sup_coarse": sup_c, "sup_fine": sup_f,
                    "sup2_coarse": sup2_c, "sup2_fine": sup2_f,
                    "majorants": {t: hh[0] for t, hh in majorants.items()}})


def _decay_requests(system, grid: GridSpec, t_values: Sequence[float], x0,
                    component: int, dt: Optional[float], width: Optional[float],
                    theta: float) -> list:
    """The evolutions of check_decay_shape: the adjoint column of (x0,
    component) at each time."""
    return [Evolution.of_sources("P_adjoint", grid, t, [(x0, component)], width, dt, theta)
            for t in t_values]


def check_decay_shape(system, grid: GridSpec, t_values: Sequence[float],
                      x0, component: int, weight: SpaceTimeWeight,
                      dt: Optional[float] = None, width: Optional[float] = None,
                      theta: float = 0.5, core_radius: float = 1.0,
                      tail_range: tuple = (2.0, 4.0), slack: float = 0.5,
                      requests: Optional[Sequence[Evolution]] = None,
                      store: Optional[KernelStore] = None) -> CheckResult:
    """Kernel tails decay at least as fast as the certified profile.

    Adds the log of the family's decay weight, weight.log_value(t, y), back
    onto log sum_k p_hk(t, x0, y); if the kernel obeys the bound, the
    compensated profile cannot climb from the core into the tail by more than
    slack.  Adjoint columns provide the y-dependence in a single run per time.
    """
    d = grid.d
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("decay-shape", sys_fp, grid.d, grid.radius, grid.spacing,
                      tuple(t_values), tuple(_center(x0, d)), component, weight,
                      core_radius, tail_range, slack)
    pts = grid.points()
    at = RadialPoints(pts, d)
    rr = np.sqrt(np.sum(pts * pts, axis=-1))
    worst = -math.inf
    loc = (None, None, None, None, None)
    samples = []
    runs = evolve_all(system, requests or _decay_requests(system, grid, t_values, x0,
                                                          component, dt, width, theta), store)
    for t, (col,) in zip(t_values, runs):
        total = np.sum(np.abs(col.values), axis=1)
        noise = 1e-13 * max(float(np.max(total)), _TINY)
        phi = np.log(np.maximum(total, _TINY)) + weight.log_value(t, at, d)
        core = phi[rr <= core_radius]
        tail_mask = (rr >= tail_range[0]) & (rr <= tail_range[1]) & (total > noise)
        if core.size == 0 or not np.any(tail_mask):
            raise DomainError("grid too small for the requested core/tail split")
        rise = float(np.max(phi[tail_mask])) - float(np.max(core))
        node = int(np.argmax(np.where(tail_mask, phi, -np.inf)))
        samples.append({"t": t, "x": _loc_pt(x0, d), "y": _loc_pt(pts[node], d),
                        "h": component, "k": None, "value": rise, "bound": slack})
        if rise > worst:
            worst = rise
            loc = (t, _loc_pt(x0, d), _loc_pt(pts[node], d), component, None)
    return _result("check_decay_shape", worst, slack, loc, fp,
                   {"samples": samples, "weight": weight})


# each check's signature, the function declaring its evolutions, and that
# function's parameters, named as the check's and without defaults of their own
_PLANNED = {
    check.__name__: (inspect.signature(check), requests,
                     tuple(inspect.signature(requests).parameters))
    for check, requests in [
        (check_domination, _domination_requests),
        (check_monotone_in_R, _monotone_requests),
        (check_mass_and_positivity, _mass_requests),
        (check_support, _support_requests),
        (check_duality, _duality_requests),
        (check_chapman_kolmogorov, _chapman_requests),
        (check_lyapunov_integrability, _integrability_requests),
        (check_weighted_bound, _weighted_requests),
        (check_decay_shape, _decay_requests),
    ]}


def requests_of(check: str, system, **kwargs) -> list:
    """The evolutions of the call check(system, **kwargs), not run.

    check names a check function, such as "check_support".  The arguments
    are bound to the check's own signature, defaults included, so these are
    exactly the requests the call runs, and run_plan can run them ahead of
    it into the store it is given.
    """
    signature, requests, names = _PLANNED[check]
    args = signature.bind(system, **kwargs)
    args.apply_defaults()
    return requests(*(args.arguments[name] for name in names))


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------

def _csv_cell(val) -> str:
    if val is None:
        return ""
    if isinstance(val, (int, np.integer)):
        return str(int(val))
    if isinstance(val, tuple):
        return "(" + " ".join(f"{v:.10g}" for v in val) + ")"
    return f"{float(val):.10g}"


def results_csv(results: Sequence[CheckResult]) -> str:
    """One row per sampled comparison: check,status,t,x,y,h,k,value,bound."""
    lines = ["check,status,t,x,y,h,k,value,bound"]
    for res in results:
        for row in res.details.get("samples", []):
            cells = [res.check, res.status]
            cells += [_csv_cell(row.get(key)) for key in
                      ("t", "x", "y", "h", "k", "value", "bound")]
            lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def summary_text(results: Sequence[CheckResult]) -> str:
    lines = ["verification summary", "--------------------"]
    for res in results:
        lines.append(res.line())
    if any(r.status == "fail" for r in results):
        overall = "fail"
    elif any(r.status == "inconclusive" for r in results):
        overall = "inconclusive"
    else:
        overall = "pass"
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
