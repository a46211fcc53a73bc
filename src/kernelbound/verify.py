"""Numerical checks tying discrete kernels to the certified estimates.

Each check replays one provable statement against solver output: cooperative
domination, monotone growth in the domain radius, mass decay, coupling
support, forward/adjoint duality, the semigroup identity, integrability
against time-dependent weights, and the calibrated weighted majorant.  A
check returns the worst violation it measured together with the tolerance it
used and a fingerprint of its configuration, so repeated runs are comparable
byte for byte.

Each check is a declaration, a frozen dataclass of its parameters such as
Domination, whose requests are the Evolution requests it reads (variant,
grid, t, resolved step, theta, and point sources, initial data, or the
output of an earlier request), and whose measure method turns their outputs
into a CheckResult, evolving nothing.  check_domination and its siblings run
a declaration, or the one their arguments build, through the executor,
evolve_all; the verify command first hands every check's requests to
run_plan.
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
(stored_certificate), the eight sups, edge flags and M of each constants
ledger (weighted_majorant), and the row-sum bound M and its tail verdict,
by which the mass check bounds the decay, kept as float.hex text in .kbr
files and rebuilt by the functions verify_certificate, estimate_ledger and
compute_row_sum_bound build them with, so a stored constant has the bits of
a computed one.  A record's key covers the system, every field of the specs
and weights, the radius and points per axis, s, the window, the sample plan,
adjoint, the inner window and RECORD_VERSION.  So a rerun against the same
store recomputes nothing.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import ConstantsLedger, eval_H
from .coefficients import CouplingSupport, _FamilyBase, operator_spec_of
from .errors import DomainError, KernelBoundError
from .hypotheses import (RowSumBound, SamplePlan, compute_row_sum_bound, estimate_ledger,
                         ledger_of, row_sum_bound_of)
from .lyapunov import (SAMPLE_RADIUS, CertificateReport, LyapunovSpec, RadialPoints,
                       SpaceTimeWeight, SynthesisResult, TimeLyapunovSpec, _points_per_axis,
                       certificate_report, verify_certificate)
from .solver import (DEFAULT_BUDGET, FIELD_FORMAT_VERSION, SOLVER_VERSION, DiscreteField,
                     GridSpec, OperatorHandle, default_dt, kernel_columns, load_field,
                     release_freed_memory, save_field, write_atomic)

__all__ = [
    "CheckResult", "KernelStore", "StoreKey", "system_fingerprint", "RECORD_VERSION",
    "stored_certificate", "Evolution", "PLAN_COUNTS", "evolve_all", "run_plan",
    "Domination", "MonotoneInR", "MassAndPositivity", "Support", "Duality",
    "ChapmanKolmogorov", "LyapunovIntegrability", "WeightedBound", "DecayShape",
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


def _stored_row_sum(system, radius: float, store: Optional[KernelStore]) -> RowSumBound:
    """compute_row_sum_bound(system, radius=radius), with M and the tail verdict
    kept in the store as a record.

    The record key covers the system, the radius and the points per axis.
    The bound is rebuilt from the two numbers by row_sum_bound_of, as
    compute_row_sum_bound builds it.
    """
    if store is None:
        return compute_row_sum_bound(system, radius=radius)

    def numbers():
        row = compute_row_sum_bound(system, radius=radius)
        return row.M, row.certified_tail

    n = _points_per_axis(system.dims.d)
    M, certified = store.record(_record_key("row_sum", system, radius, n), numbers)
    return row_sum_bound_of(M, bool(certified), radius, n)


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
# checks: each one declaration, with its evolutions and its measurement
# ---------------------------------------------------------------------------

class _Check:
    """Base of the check declarations: frozen dataclasses whose fields are a
    check's parameters, system first, each default written once.

    requests is built once per declaration, so the plan and the check share
    its data and digest.  measure(outputs, store) takes the outputs of the
    requests in order, and reads the synthesis and the store's records but
    evolves nothing, so it can be fed fields built by hand.
    """

    name = ""  # the public check function, and CheckResult.check

    @property
    def fingerprint(self) -> str:
        """Digest of the fields, the system by its system_fingerprint; fields
        declared with compare=False, such as callables, are left out."""
        return _fingerprint(self.name, *(
            system_fingerprint(self.system) if f.name == "system" else getattr(self, f.name)
            for f in fields(self) if f.compare))

    def result(self, worst: float, tolerance: float, location: tuple, details: dict,
               inconclusive: bool = False) -> CheckResult:
        status = "fail" if worst > tolerance else "inconclusive" if inconclusive else "pass"
        return CheckResult(check=self.name, status=status, worst=float(worst),
                           location=location, tolerance=float(tolerance),
                           fingerprint=self.fingerprint, details=details)


class _Rows:
    """The CSV rows of a check, and the largest score among them with its
    location (t, x, y, h, k); a row's score is its value unless given."""

    def __init__(self, worst: float = -math.inf, loc: tuple = (None,) * 5):
        self.samples, self.worst, self.loc = [], worst, loc

    def add(self, t, x, y, h, k, value: float, bound: float, score: Optional[float] = None):
        self.samples.append({"t": t, "x": x, "y": y, "h": h, "k": k, "value": value,
                             "bound": bound})
        score = value if score is None else score
        if score > self.worst:
            self.worst, self.loc = score, (t, x, y, h, k)


def _peak(values: np.ndarray, pts: np.ndarray, d: int) -> tuple:
    """The largest entry of an (n_nodes, m) array, its node's location and
    its component."""
    node, h = divmod(int(np.argmax(values)), values.shape[1])
    return float(values[node, h]), _loc_pt(pts[node], d), h


# ---------------------------------------------------------------------------
# order and structure checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Domination(_Check):
    """Signed kernels stay below the cooperative ones, entrywise.

    Kernel level: |p_hk| <= p^P_hk at every node, for each requested source.
    Function level: |T(t)f| <= T^P(t)|f| for a few random sign-changing f.
    Backward steps keep the comparison exact, so the tolerance only covers
    linear-solver residue.
    """

    name = "check_domination"
    system: object
    grid: GridSpec
    t: float
    sources: Sequence[tuple]
    dt: Optional[float] = None
    width: Optional[float] = None
    tol: float = 1e-9
    n_random: int = 3
    seed: int = 0

    @cached_property
    def requests(self) -> list:
        """Cooperative and plain columns, then the random draws as one batch,
        plain on f and cooperative on |f|."""
        g, t, dt = self.grid, self.t, self.dt
        reqs = [Evolution.of_sources(variant, g, t, self.sources, self.width, dt, 1.0)
                for variant in ("P", "plain")]
        if self.n_random:
            # the draws, in the order they were always taken
            rng = np.random.default_rng(self.seed)
            f = np.stack([rng.uniform(-1.0, 1.0, size=(g.n_nodes, self.system.dims.m))
                          for _ in range(self.n_random)], axis=-1)
            reqs += [Evolution.of_values("plain", g, f, t, dt, 1.0),
                     Evolution.of_values("P", g, np.abs(f), t, dt, 1.0)]
        return reqs

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, t, tol = self.grid.d, self.t, self.tol
        pts = self.grid.points()
        coop_cols, plain_cols, *random_runs = outputs
        # (signed, cooperative, scale, y, k) per comparison
        compared = [(cf.values, cp.values, max(float(np.max(cp.values)), _TINY),
                     _loc_pt(center, d), k)
                    for (center, k), cp, cf in zip(self.sources, coop_cols, plain_cols)]
        if random_runs:
            ufs, ups = random_runs
            compared += [(ufs[:, :, j], ups[:, :, j],
                          max(float(np.max(np.abs(ups[:, :, j]))), _TINY), None, None)
                         for j in range(self.n_random)]
        rows = _Rows(loc=(t, None, None, None, None))
        for signed, coop, scale, y, k in compared:
            val, x, h = _peak((np.abs(signed) - coop) / scale, pts, d)
            rows.add(t, x, y, h, k, val, tol)
        return self.result(rows.worst, tol, rows.loc,
                           {"samples": rows.samples, "sources": len(self.sources),
                            "random_data": self.n_random})


@dataclass(frozen=True, eq=False)
class MonotoneInR(_Check):
    """Cooperative kernels grow with the box and their increments collapse.

    All grids share spacing, time step, and mollifier, so shared nodes are
    directly comparable.  Violations are absolute; the increment sequence
    on the smallest grid must shrink by the given factor per radius step,
    with a roundoff floor of 1e-12 times the kernel scale.
    """

    name = "check_monotone_in_R"
    system: object
    radii: Sequence[float]
    spacing: float
    t: float
    source: tuple
    dt: Optional[float] = None
    width: Optional[float] = None
    tol: float = 1e-8
    shrink: float = 4.0
    theta: float = 1.0

    @cached_property
    def requests(self) -> list:
        """One column per radius, ascending; the grids share their spacing,
        so an unset step or width resolves alike on all of them."""
        return [Evolution.of_sources("P", GridSpec(d=self.system.dims.d, radius=R,
                                                   spacing=self.spacing),
                                     self.t, [self.source], self.width, self.dt, self.theta)
                for R in sorted(float(R) for R in self.radii)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, t, tol = self.system.dims.d, self.t, self.tol
        center, k = self.source
        y = _loc_pt(center, d)
        grids = [req.grid for req in self.requests]
        kernels = [cols[0] for cols in outputs]
        scale = max(max(float(np.max(f.values)) for f in kernels), _TINY)
        floor = 1e-12 * scale
        rows = _Rows(0.0, (t, None, y, None, k))
        for g_small, f_small, g_big, f_big in zip(grids, kernels, grids[1:], kernels[1:]):
            val, x, h = _peak(f_small.values - f_big.values[_embed_indices(g_small, g_big)],
                              g_small.points(), d)
            rows.add(t, x, y, h, k, val, tol)
        worst = rows.worst
        base = grids[0]
        restricted = [f.values[_embed_indices(base, g)] if g.radius > base.radius
                      else f.values for g, f in zip(grids, kernels)]
        increments = [float(np.max(np.abs(b - a)))
                      for a, b in zip(restricted, restricted[1:])]
        for prev, nxt in zip(increments, increments[1:]):
            allowed = max(prev / self.shrink, floor)
            ratio = nxt / max(allowed, _TINY)
            worst = max(worst, tol * ratio if ratio > 1.0 else 0.0)
        return self.result(worst, tol, rows.loc,
                           {"samples": rows.samples,
                            "violations": [row["value"] for row in rows.samples],
                            "increments": increments, "scale": scale})


@dataclass(frozen=True, eq=False)
class MassAndPositivity(_Check):
    """Total kernel mass decays at the certified rate and stays nonnegative.

    Evolving the all-ones data computes sum_k of the L1 kernel masses in one
    run per time; the bound is sqrt(m) e^(-Mt) (1 + tol) with M from the
    potential row sums.  Positivity violations are folded into the same
    scale so a single worst number decides the check.
    """

    name = "check_mass_and_positivity"
    system: object
    grid: GridSpec
    t_values: Sequence[float]
    dt: Optional[float] = None
    theta: float = 1.0
    tol: float = 0.01
    pos_tol: float = 1e-10
    row: Optional[RowSumBound] = None
    sources: Sequence[tuple] = ()
    width: Optional[float] = None

    @cached_property
    def requests(self) -> list:
        """The all-ones data at each time, then the source columns at the last
        time."""
        g = self.grid
        ones = np.ones((g.n_nodes, self.system.dims.m))
        return [Evolution.of_values("P", g, ones, t, self.dt, self.theta)
                for t in self.t_values] \
            + [Evolution.of_sources("P", g, max(self.t_values), self.sources, self.width,
                                    self.dt, self.theta)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, m, tol, pos_tol = self.grid, self.system.dims.m, self.tol, self.pos_tol
        row = self.row or _stored_row_sum(self.system, max(SAMPLE_RADIUS, 2.0 * grid.radius),
                                          store)
        sqm = math.sqrt(m)
        pts = grid.points()
        *runs, cols = outputs
        pos_ratio = 0.0
        rows = _Rows()
        for t, u in zip(self.t_values, runs):
            bound = sqm * math.exp(-row.M * t)
            val, x, h = _peak(u, pts, grid.d)
            rows.add(t, x, None, h, None, val, bound, score=val / bound - 1.0)
            pos_ratio = max(pos_ratio, -float(np.min(u)) / pos_tol)
        for col in cols:
            scale = max(float(np.max(col.values)), _TINY)
            pos_ratio = max(pos_ratio, -float(np.min(col.values)) / (pos_tol * scale))
        worst = max(rows.worst, tol * pos_ratio)
        return self.result(worst, tol, rows.loc,
                           {"samples": rows.samples, "M": row.M,
                            "certified_tail": row.certified_tail,
                            "positivity_ratio": pos_ratio})


@dataclass(frozen=True, eq=False)
class Support(_Check):
    """Kernel column vanishes exactly off the coupling-reachable components.

    Components outside the reachability set F_k must stay below tol_null
    relative to the column maximum (pure roundoff), reachable ones must rise
    above the relative floor.  The center defaults to the origin, and the
    support to the family's own.
    """

    name = "check_support"
    system: object
    k: int
    grid: GridSpec
    t: float
    center: object = None
    dt: Optional[float] = None
    width: Optional[float] = None
    tol_null: float = 1e-10
    floor: float = 1e-12
    theta: float = 1.0
    support: Optional[CouplingSupport] = None

    def __post_init__(self):
        if self.support is None and not isinstance(self.system, _FamilyBase):
            raise DomainError("non-family systems need an explicit coupling support")

    @property
    def _at(self):
        return np.zeros(self.system.dims.d) if self.center is None else self.center

    @cached_property
    def requests(self) -> list:
        """The column of (center, k)."""
        return [Evolution.of_sources("P", self.grid, self.t, [(self._at, self.k)],
                                     self.width, self.dt, self.theta)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, m, t, k = self.system.dims.d, self.system.dims.m, self.t, self.k
        tol_null, floor = self.tol_null, self.floor
        support = self.support if self.support is not None else self.system.support(k)
        y = _loc_pt(self._at, d)
        (col,), = outputs
        scale = max(float(np.max(np.abs(col.values))), _TINY)
        per_comp = [float(np.max(np.abs(col.values[:, h]))) / scale
                    for h in range(m)]
        worst = 0.0
        loc = (t, None, y, None, k)
        samples = []
        min_reach = math.inf
        pts = self.grid.points()
        for h in range(m):
            reachable = h in support.reachable
            samples.append({"t": t, "x": None, "y": y, "h": h, "k": k,
                            "value": per_comp[h], "bound": floor if reachable else tol_null})
            if reachable:
                min_reach = min(min_reach, per_comp[h])
            elif per_comp[h] > worst:
                node = int(np.argmax(np.abs(col.values[:, h])))
                worst, loc = per_comp[h], (t, _loc_pt(pts[node], d), y, h, k)
        # a reachable component sitting below the floor trips the tolerance too
        if min_reach < floor:
            worst = max(worst, tol_null * floor / max(min_reach, _TINY))
        return self.result(worst, tol_null, loc,
                           {"samples": samples, "reachable": sorted(support.reachable),
                            "levels": [sorted(level) for level in support.levels],
                            "relative_maxima": per_comp, "floor": floor})


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class Duality(_Check):
    """Forward kernel values agree with transposed adjoint kernel values.

    Each pair is (x, h, y, k): the forward column sourced at (y, k) read at
    (x, h) must match the adjoint column sourced at (x, h) read at (y, k).
    Both runs mollify one argument, so agreement is up to mollifier bias;
    pairs whose values sit at solver-noise level count as agreeing.
    """

    name = "check_duality"
    system: object
    grid: GridSpec
    t: float
    pairs: Sequence[tuple]
    dt: Optional[float] = None
    width: Optional[float] = None
    tol: float = 0.02
    theta: float = 0.5

    @cached_property
    def requests(self) -> list:
        """Forward columns sourced at each (y, k), adjoint columns sourced at
        each (x, h)."""
        return [Evolution.of_sources(variant, self.grid, self.t, sources, self.width,
                                     self.dt, self.theta)
                for variant, sources in (("P", [(y, k) for _, _, y, k in self.pairs]),
                                         ("P_adjoint", [(x, h) for x, h, _, _ in self.pairs]))]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, t, tol = self.grid, self.t, self.tol
        d = grid.d
        rows = _Rows(0.0, (t, None, None, None, None))
        for (x, h, y, k), cf, ca in zip(self.pairs, *outputs):
            vf = float(cf.values[grid.node_of(_center(x, d)), h])
            va = float(ca.values[grid.node_of(_center(y, d)), k])
            noise = 1e-12 * max(float(np.max(np.abs(cf.values))),
                                float(np.max(np.abs(ca.values))), _TINY)
            scale = max(abs(vf), abs(va))
            rel = 0.0 if scale <= noise else abs(vf - va) / scale
            rows.add(t, _loc_pt(x, d), _loc_pt(y, d), h, k, rel, tol)
        return self.result(rows.worst, tol, rows.loc, {"samples": rows.samples})


@dataclass(frozen=True, eq=False)
class ChapmanKolmogorov(_Check):
    """Composing the evolution over s then t equals evolving over t + s.

    The default step divides s exactly, which makes both paths the same
    matrix product including the trailing partial step; the tolerance then
    only absorbs accumulated linear-solver residue.
    """

    name = "check_chapman_kolmogorov"
    system: object
    grid: GridSpec
    t: float
    s: float
    variant: str = "P"
    dt: Optional[float] = None
    theta: float = 1.0
    tol: float = 1e-9
    seed: int = 0

    @property
    def step(self) -> Optional[float]:
        """The step of the split: by default the largest one that divides s
        and is at most min(t, s, spacing, (t + s) / 64)."""
        if self.dt is None and self.s > 0.0:
            base = min(self.t, self.s, self.grid.spacing, (self.t + self.s) / 64.0)
            return self.s / math.ceil(self.s / base)
        return self.dt

    @cached_property
    def requests(self) -> list:
        """The direct path over t + s and the composed one, s and then, as a
        second stage, t more; with s <= 0 the one evolution over t."""
        g, t, s, dt = self.grid, self.t, self.s, self.step
        f = np.random.default_rng(self.seed).uniform(-1.0, 1.0,
                                                     size=(g.n_nodes, self.system.dims.m))
        if s <= 0.0:
            return [Evolution.of_values(self.variant, g, f, t, dt, self.theta)]
        mid = Evolution.of_values(self.variant, g, f, s, dt, self.theta)
        return [Evolution.of_values(self.variant, g, f, t + s, dt, self.theta), mid,
                mid.then(t)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, t, s, tol = self.grid, self.t, self.s, self.tol
        scale = max(float(np.max(np.abs(self.requests[0].data))), _TINY)
        diff, x, h = _peak(np.abs(outputs[0] - outputs[-1]), grid.points(), grid.d)
        worst = diff / scale
        samples = [{"t": t + s, "x": x, "y": None, "h": h, "k": None, "value": worst,
                    "bound": tol}]
        return self.result(worst, tol, (t + s, x, None, h, None),
                           {"samples": samples, "dt": self.step, "split": (t, s)})


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


@dataclass(frozen=True, eq=False)
class LyapunovIntegrability(_Check):
    """Weighted kernel integrals stay below the certified growth envelope.

    Evolving the weight itself as initial data computes sum_k of the
    integrals of nu(t, y) p_hk(t, x, y) in one run; the result must stay
    below e^(G(t)) nu(0, x) (1 + tol).  A companion run of the weight
    restricted to the outer shell measures how much of the integral lives
    near the boundary; when that exceeds boundary_fraction the verdict is
    inconclusive (enlarge the box) rather than a pass.  g_margin subtracts
    a fixed amount from G to probe how tight the envelope is.  eps defaults
    to eps_T / 4.
    """

    name = "check_lyapunov_integrability"
    system: object
    timed: TimeLyapunovSpec
    grid: GridSpec
    t_values: Sequence[float]
    x_points: Sequence
    eps: Optional[float] = None
    tol: float = 0.05
    theta: float = 1.0
    dt: Optional[float] = None
    boundary_fraction: float = 0.01
    g_margin: float = 0.0
    cert_radius: Optional[float] = None

    @property
    def _eps(self) -> float:
        return self.timed.eps_T / 4.0 if self.eps is None else self.eps

    @cached_property
    def requests(self) -> list:
        """At each time, the weight and its outer shell as one two-column
        batch.  The weight is the one of the rescaled spec, which calibration
        does not change, so no calibration runs here."""
        grid = self.grid
        w = _scaled(self.timed, self._eps / self.timed.eps_T).weight()
        pts = grid.points()
        at = RadialPoints(pts, grid.d)
        shell = np.max(np.abs(pts), axis=-1) >= 0.9 * grid.radius
        reqs = []
        for t in self.t_values:
            log_nu = np.asarray(w.log_value(t, at, grid.d), dtype=float)
            init = np.repeat(np.exp(log_nu)[:, None], self.system.dims.m, axis=1)
            both = np.stack([init, init * shell[:, None]], axis=-1)
            reqs.append(Evolution.of_values("P", grid, both, t, self.dt, self.theta))
        return reqs

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, eps = self.grid, self._eps
        d = grid.d
        radius = self.cert_radius if self.cert_radius is not None \
            else max(SAMPLE_RADIUS, 2.0 * grid.radius)
        spec_used = _calibrated_scaled(self.system, self.timed, eps / self.timed.eps_T,
                                       radius, store)
        tail_worst = 0.0
        rows = _Rows()
        for t, both in zip(self.t_values, outputs):
            out, out_shell = both[:, :, 0], both[:, :, 1]
            bound = math.exp(float(spec_used.G(t)) - self.g_margin)
            for x in self.x_points:
                node = grid.node_of(_center(x, d))
                val = float(np.max(out[node]))
                tail_worst = max(tail_worst, float(np.max(out_shell[node])) / max(val, _TINY))
                rows.add(t, _loc_pt(x, d), None, int(np.argmax(out[node])), None, val, bound,
                         score=val / bound - 1.0)
        return self.result(rows.worst, self.tol, rows.loc,
                           {"samples": rows.samples, "eps": eps, "c0": spec_used.c0,
                            "boundary_fraction": tail_worst, "g_margin": self.g_margin},
                           inconclusive=tail_worst > self.boundary_fraction)


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


@dataclass(frozen=True, eq=False)
class WeightedBound(_Check):
    """Weighted kernel suprema stay calibrated under mesh and box refinement.

    The ratio w(t, y) sum_k |p_hk(t, x, y)| / H is computed over every
    source and node of the coarse (spacing, radius) pair; its supremum
    calibrates C_cal unless one is supplied.  The same supremum on the fine
    pair must then stay within (1 + tol) of the calibration.  two_sided adds
    the symmetrized ratio sqrt(w(t, y) w*(t, x)) / sqrt(H H*) built from the
    adjoint synthesis.  majorant_override(t, points) replaces H on the fine
    pair for probing deliberately broken majorants; the calibration always
    uses the healthy H.
    """

    name = "check_weighted_bound"
    system: object
    synthesis: SynthesisResult
    s: float
    t_values: Sequence[float]
    sources: Sequence
    coarse: tuple
    fine: tuple
    eps_scales: Sequence[float] = (0.5, 0.75, 1.0)
    tol: float = 0.10
    dt: Optional[float] = None
    width: Optional[float] = None
    theta: float = 0.5
    two_sided: bool = False
    adjoint_synthesis: Optional[SynthesisResult] = None
    C_cal: Optional[float] = None
    majorant_override: Optional[Callable] = field(default=None, compare=False)
    cert_radius: float = SAMPLE_RADIUS

    def __post_init__(self):
        if self.two_sided and self.adjoint_synthesis is None:
            raise DomainError("two-sided ratio needs the adjoint synthesis")

    @cached_property
    def requests(self) -> list:
        """For the coarse and then the fine (spacing, radius) pair, each time
        and source, the columns of every component."""
        d, m = self.system.dims.d, self.system.dims.m
        return [Evolution.of_sources("P", GridSpec(d=d, radius=radius, spacing=spacing), t,
                                     [(y, k) for k in range(m)], self.width, self.dt,
                                     self.theta)
                for spacing, radius in (self.coarse, self.fine)
                for t in self.t_values for y in self.sources]

    def majorants(self, store: Optional[KernelStore] = None, adjoint: bool = False) -> dict:
        """The healthy majorant H, or H* of the adjoint synthesis, at each
        time, with the ledgers and certificates as records in the store."""
        synthesis = self.adjoint_synthesis if adjoint else self.synthesis
        calibrated = calibrate_majorant(self.system, synthesis, self.eps_scales,
                                        self.cert_radius, store)
        return {t: weighted_majorant(self.system, synthesis, self.s, t, self.eps_scales,
                                     adjoint=adjoint, cert_radius=self.cert_radius,
                                     calibrated=calibrated, store=store)[1]
                for t in self.t_values}

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, m = self.system.dims.d, self.system.dims.m
        two_sided, adj, scale0 = self.two_sided, self.adjoint_synthesis, self.eps_scales[0]
        timed = self.synthesis.timed
        w = timed.weight(scale0 * timed.eps_T)
        wstar = adj.timed.weight(scale0 * adj.timed.eps_T) if two_sided else None
        H_of = self.majorants(store)
        Hstar_of = self.majorants(store, adjoint=True) if two_sided else {}

        def sweep(pair, columns, tested):
            # one pair's columns, in request order: by time and source
            columns = iter(columns)
            spacing, radius = pair
            grid = GridSpec(d=d, radius=radius, spacing=spacing)
            pts = grid.points()
            at = RadialPoints(pts, d)
            sup2 = 0.0
            rows = _Rows(0.0)
            for t in self.t_values:
                H = denom = H_of[t]
                if tested and self.majorant_override is not None:
                    denom = np.asarray(self.majorant_override(t, pts), dtype=float)[:, None]
                for y in self.sources:
                    total = np.zeros((grid.n_nodes, m))
                    for col in next(columns):
                        total += np.abs(col.values)
                    wy = float(np.exp(w.log_value(t, _center(y, d)[None, :], d))[0])
                    val, x, h = _peak(wy * total / denom, pts, d)
                    rows.add(t, x, _loc_pt(y, d), h, None, val, H)
                    if two_sided:
                        wx = np.exp(0.5 * np.asarray(wstar.log_value(t, at, d)))
                        r2 = math.sqrt(wy) * wx[:, None] * total / math.sqrt(H * Hstar_of[t])
                        sup2 = max(sup2, float(np.max(r2)))
            return rows, sup2

        per_pair = len(outputs) // 2
        coarse, sup2_c = sweep(self.coarse, outputs[:per_pair], tested=False)
        sup_c = coarse.worst
        if not (math.isfinite(sup_c) and sup_c > 0):
            raise DomainError(f"coarse calibration sup degenerate: {sup_c}")
        cal = self.C_cal if self.C_cal is not None else sup_c
        fine, sup2_f = sweep(self.fine, outputs[per_pair:], tested=True)
        sup_f = fine.worst
        worst = sup_f / cal - 1.0
        if two_sided and sup2_c > 0:
            worst = max(worst, sup2_f / sup2_c - 1.0)
        return self.result(worst, self.tol, fine.loc,
                           {"samples": coarse.samples + fine.samples, "C_cal": cal,
                            "sup_coarse": sup_c, "sup_fine": sup_f,
                            "sup2_coarse": sup2_c, "sup2_fine": sup2_f,
                            "majorants": H_of})


@dataclass(frozen=True, eq=False)
class DecayShape(_Check):
    """Kernel tails decay at least as fast as the certified profile.

    Adds the log of the family's decay weight, weight.log_value(t, y), back
    onto log sum_k p_hk(t, x0, y); if the kernel obeys the bound, the
    compensated profile cannot climb from the core into the tail by more than
    slack.  Adjoint columns provide the y-dependence in a single run per time.
    """

    name = "check_decay_shape"
    system: object
    grid: GridSpec
    t_values: Sequence[float]
    x0: object
    component: int
    weight: SpaceTimeWeight
    dt: Optional[float] = None
    width: Optional[float] = None
    theta: float = 0.5
    core_radius: float = 1.0
    tail_range: tuple = (2.0, 4.0)
    slack: float = 0.5

    @cached_property
    def requests(self) -> list:
        """The adjoint column of (x0, component) at each time."""
        return [Evolution.of_sources("P_adjoint", self.grid, t, [(self.x0, self.component)],
                                     self.width, self.dt, self.theta)
                for t in self.t_values]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, slack, component = self.grid.d, self.slack, self.component
        x0 = _loc_pt(self.x0, d)
        pts = self.grid.points()
        at = RadialPoints(pts, d)
        rr = np.sqrt(np.sum(pts * pts, axis=-1))
        lo, hi = self.tail_range
        rows = _Rows()
        for t, (col,) in zip(self.t_values, outputs):
            total = np.sum(np.abs(col.values), axis=1)
            noise = 1e-13 * max(float(np.max(total)), _TINY)
            phi = np.log(np.maximum(total, _TINY)) + self.weight.log_value(t, at, d)
            core = phi[rr <= self.core_radius]
            tail_mask = (rr >= lo) & (rr <= hi) & (total > noise)
            if core.size == 0 or not np.any(tail_mask):
                raise DomainError("grid too small for the requested core/tail split")
            rise = float(np.max(phi[tail_mask])) - float(np.max(core))
            y = _loc_pt(pts[int(np.argmax(np.where(tail_mask, phi, -np.inf)))], d)
            rows.add(t, x0, y, component, None, rise, slack)
        return self.result(rows.worst, slack, rows.loc,
                           {"samples": rows.samples, "weight": self.weight})


def _run(cls, args: tuple, kwargs: dict, store: Optional[KernelStore]) -> CheckResult:
    """The declaration given alone in args, or the one args and kwargs build,
    its requests evolved through the store and then measured."""
    check = args[0] if len(args) == 1 and not kwargs and isinstance(args[0], cls) \
        else cls(*args, **kwargs)
    return check.measure(evolve_all(check.system, check.requests, store), store)


# the public checks: each runs a declaration of the class it names, given
# alone or built from the same arguments

def check_domination(*args, store=None, **kwargs) -> CheckResult:
    return _run(Domination, args, kwargs, store)


def check_monotone_in_R(*args, store=None, **kwargs) -> CheckResult:
    return _run(MonotoneInR, args, kwargs, store)


def check_mass_and_positivity(*args, store=None, **kwargs) -> CheckResult:
    return _run(MassAndPositivity, args, kwargs, store)


def check_support(*args, store=None, **kwargs) -> CheckResult:
    return _run(Support, args, kwargs, store)


def check_duality(*args, store=None, **kwargs) -> CheckResult:
    return _run(Duality, args, kwargs, store)


def check_chapman_kolmogorov(*args, store=None, **kwargs) -> CheckResult:
    return _run(ChapmanKolmogorov, args, kwargs, store)


def check_lyapunov_integrability(*args, store=None, **kwargs) -> CheckResult:
    return _run(LyapunovIntegrability, args, kwargs, store)


def check_weighted_bound(*args, store=None, **kwargs) -> CheckResult:
    return _run(WeightedBound, args, kwargs, store)


def check_decay_shape(*args, store=None, **kwargs) -> CheckResult:
    return _run(DecayShape, args, kwargs, store)


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
