"""Numerical checks tying discrete kernels to the certified estimates.

Each check replays one provable statement against solver output: cooperative
domination, monotone growth in the domain radius, mass decay, coupling
support, forward/adjoint duality, the semigroup identity, integrability
against time-dependent weights, and the calibrated weighted majorant.  A
check returns the worst violation it measured together with the tolerance it
used and where it sits, and repeated runs give the same result byte for byte.

Each check is a declaration, a frozen dataclass of its parameters such as
Domination, whose requests are the Evolution requests it reads (variant,
grid, t, resolved step, theta, point sources or initial data, and any
further time legs, as the composed path of the semigroup identity has),
and whose measure method turns their outputs into a CheckResult, evolving
nothing.  The verify command hands every check's requests, in order, to
run_plan, the one executor, and measures each declaration on its own slice
of the outputs.  The executor computes every store key when it plans, so it
hashes no output.  It drops duplicate requests by store key, sorts the rest
by (variant, grid, theta, dt, fold), where a batch's fold is the symmetries
its start values keep (solver.symmetries: the axes they are mirror-even
along, and in 2-D the diagonal), which names the parity blocks it evolves
on, runs each (variant, grid) on one operator handle, made on the first
store miss, so a plan assembles every operator once and factors every
(fold, theta, dt) once, and releases the handle's LU when its last request
is done.  Every batch takes one path through the
store, whose first miss evolves it once over all its legs, and no batch
reads another's output.  Requests are never merged into wider batches: each
keeps the batch it has in a plan of its check's requests alone, so every
column has the same bits whether its check is planned alone, with the
others, or in a thread.  A wider batch would move bits: on the poly2d bench
LU a SuperLU solve of 1 to 3 columns matches single-column solves bit for
bit, but from 4 columns up some columns differ in their last bits (63 of 228
random columns at 4, by at most 8e-17 relative), while poly1d's banded LU
matched at every width up to 12.  The store holds every entry it loads or builds for
its life, and writes each one it builds to its file when its key has one.

The paper bounds the kernel on R^d, and the solver sees it through the
Dirichlet kernels of boxes.  Before the checks' plan, the verify command
runs the requests of a WorkingRadius study through run_plan as a plan of
their own, and measures the outputs: the P kernel columns of one
source on every radius and on the largest at twice the spacing.  It picks
the working radius, the smallest whose truncation error, the kernel mass
beyond it included, is at most TRUNCATION_SHARE of the Richardson estimate
of the space error.  The checks in WORKING_RADIUS_CHECKS, which evolve P
or plain columns and data at theta = 1, run on that radius; the others stay
on the grids they declare.  The two plans share only the store: each
assembles each of its operators once and factors each of its (fold, theta,
dt) once, so an operator or an LU that both need is built once in each.

The constants the weighted and integrability checks rest on go through the
store too, as records, arrays of numbers read and written by the same
get_or_compute as fields: the two grid sups of each Lyapunov certificate
(stored_certificate), the eight sups, edge flags and M of each constants
ledger (weighted_majorant), and the row-sum bound M and its tail verdict,
by which the mass check bounds the decay, rebuilt by the functions
verify_certificate, estimate_ledger and compute_row_sum_bound build them
with, so a stored constant has the bits of a computed one.  A record's key
covers the system, every field of the specs and weights, the radius, s,
the window, adjoint and RECORD_VERSION, but not the sample box, a
function of d, nor the ledger's LEDGER_TIMES.  So a rerun against the
same store recomputes nothing, and a certificate the store lacks is
computed on the family's own grids, so a command evaluates each grid
once.  Every store entry reaches
the disk in one binary format, a float64 array behind a magic and its
shape, which save_field writes and load_field reads.
"""

from __future__ import annotations

import hashlib
import math
import os
import struct
import tempfile
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from functools import cached_property
from itertools import groupby
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import ConstantsLedger, eval_H
from .coefficients import CouplingSupport, _FamilyBase
from .errors import DomainError, KernelBoundError
from .hypotheses import (RowSumBound, compute_row_sum_bound, estimate_ledger, ledger_of,
                         row_sum_bound_of)
from .lyapunov import (SAMPLE_RADIUS, CertificateReport, LyapunovSpec, RadialPoints,
                       SpaceTimeWeight, SynthesisResult, TimeLyapunovSpec, certificate_report,
                       verify_certificate)
from .solver import (DEFAULT_BUDGET, DIAGONAL, SOLVER_VERSION, GridSpec, OperatorHandle,
                     default_dt, is_whole, mollified_source, release_freed_memory, symmetries)

__all__ = [
    "CheckResult", "KernelStore", "system_fingerprint", "RECORD_VERSION",
    "FIELD_FORMAT_VERSION", "save_field", "load_field",
    "stored_certificate", "Evolution", "PLAN_COUNTS", "run_plan",
    "TRUNCATION_SHARE", "RadiusChoice", "WorkingRadius", "WORKING_RADIUS_CHECKS",
    "Domination", "MonotoneInR", "MassAndPositivity", "Support", "Duality",
    "ChapmanKolmogorov", "LyapunovIntegrability", "WeightedBound", "DecayShape",
    "check_domination", "check_monotone_in_R", "check_mass_and_positivity",
    "check_support", "check_duality", "check_chapman_kolmogorov",
    "check_lyapunov_integrability", "check_weighted_bound",
    "check_decay_shape", "weighted_majorant",
    "results_csv", "summary_text",
]

_TINY = 1e-300
# Part of every record key: bump it whenever a change can move a recorded
# certificate sup or ledger number, as SOLVER_VERSION for fields.  The keys
# leave out what the code fixes for each d: the certificates' 11-time
# ladder, the ledger's LEDGER_TIMES and the sample boxes' points per axis
# (lyapunov._GRID_POINTS), so a change of any of them needs a bump too.
RECORD_VERSION = 4
# Part of every store key, fields and records alike: bump it whenever the
# store file format changes, so no file of an older format is read.
FIELD_FORMAT_VERSION = 2
# the amplitudes of the majorant's three weights, as shares of eps_T
EPS_SCALES = (0.5, 0.75, 1.0)


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
    """Stable identifier of a family, from its kind, dimensions and values.
    Any other system raises DomainError: coefficient callables cannot be
    hashed by content."""
    if not isinstance(system, _FamilyBase):
        raise DomainError(f"{type(system).__name__} is not a family: the kernel store "
                          "keys systems by their coefficient values")
    digest = hashlib.sha1(system.__class__.__name__.encode())
    digest.update(repr((system.dims.d, system.dims.m)).encode())
    for arr in (system.zeta, system.alpha, system.eta, system.beta,
                system.theta, system.gamma):
        digest.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return digest.hexdigest()[:12]


# ---------------------------------------------------------------------------
# kernel store
# ---------------------------------------------------------------------------

# Every store file is one array: this magic, the number of axes (uint32) and
# each axis length (uint64), then the little-endian float64 payload.
_MAGIC = b"KBS\x00"
# what reading a damaged or foreign store file raises
_UNREADABLE = (KernelBoundError, ValueError, OSError, struct.error)


def save_field(path, values):
    """Write an array, a field or a record's numbers, as a store file; equal
    arrays give equal bytes.

    The bytes go to a temporary file in the same directory, which is then
    renamed over path, so a reader never sees a partial file under path and
    a failed write leaves nothing behind.
    """
    arr = np.ascontiguousarray(values, dtype="<f8")
    folder, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(dir=folder or ".", prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(struct.pack(f"<4sI{arr.ndim}Q", _MAGIC, arr.ndim, *arr.shape))
            fh.write(arr.tobytes())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_field(path) -> np.ndarray:
    """The read-only array of a store file.  DomainError for a wrong magic or
    a file whose length does not match the shape its header names;
    struct.error for a file too short to hold its first eight bytes."""
    # unbuffered: the header is read in two small reads, the payload in one
    with open(path, "rb", buffering=0) as fh:
        size = os.fstat(fh.fileno()).st_size
        magic, ndim = struct.unpack("<4sI", fh.read(8))
        if magic != _MAGIC:
            raise DomainError(f"{path} is not a kernel store file")
        start = 8 + 8 * ndim
        # a foreign axis count is never unpacked: the file must hold its axes
        shape = struct.unpack(f"<{ndim}Q", fh.read(8 * ndim)) if start <= size else None
        if shape is None or size - start != 8 * math.prod(shape):
            raise DomainError(f"{path} does not hold the array its header names")
        return np.frombuffer(fh.read(), dtype="<f8").reshape(shape)


def _store_key(kind: str, sys_fp: str, *parts) -> str:
    return _fingerprint(kind, SOLVER_VERSION, FIELD_FORMAT_VERSION, sys_fp, *parts)


class KernelStore:
    """Cache of computed arrays, in memory and optionally in a directory.

    Every entry is a float64 array, a field of shape (n_nodes, m) or a
    record's numbers, and is read and written by get_or_compute under one
    rule: every entry it loads or builds is held in memory for the life of
    the store and, when its key has a file, is in that file, written by
    save_field as .kbf.  So a command reads each file at most once, and
    len() counts the entries held.  A file that does not load, or holds a NaN, is rebuilt,
    and a built array with a NaN is handed back but neither held nor
    written.
    """

    def __init__(self, directory=None):
        self._memory: dict[str, np.ndarray] = {}
        # a plain string: every lookup builds a path, and pathlib is slow at it
        self._dir = os.fspath(directory) if directory is not None else None
        if self._dir is not None:
            os.makedirs(self._dir, exist_ok=True)

    def __len__(self) -> int:
        return len(self._memory)

    def _path(self, key: str) -> Optional[str]:
        """The file of key's entry, or None for a store in memory only."""
        if self._dir is None:
            return None
        name = hashlib.sha1(key.encode()).hexdigest()[:16]
        return os.path.join(self._dir, name + ".kbf")

    def get_or_compute(self, key: str, build: Callable[[], np.ndarray]) -> np.ndarray:
        """The array under key: from memory, else from its file, else from
        build, which is then written to the file, if the store has a
        directory; either way it is then held in memory for the life of the
        store."""
        values = self._memory.get(key)
        if values is not None:
            return values
        path = self._path(key)
        if path is not None and os.path.exists(path):
            try:
                values = load_field(path)  # looked up at each call
            except _UNREADABLE:
                pass
        if values is None or np.isnan(values).any():
            values = np.asarray(build(), dtype=float)
            if np.isnan(values).any():
                return values
            if path is not None:
                save_field(path, values)
        self._memory[key] = values
        return values


def _record_key(kind: str, system, *parts) -> str:
    return _fingerprint("record", kind, RECORD_VERSION, FIELD_FORMAT_VERSION,
                        system_fingerprint(system), *parts)


def stored_certificate(system, lyap: LyapunovSpec | TimeLyapunovSpec,
                       radius: float = SAMPLE_RADIUS,
                       store: Optional[KernelStore] = None) -> CertificateReport:
    """verify_certificate(system, lyap, radius=radius), with its two grid
    sups held in the store as a record.

    The record key covers the system, every field of lyap and the radius.
    The report is rebuilt from the sups by
    certificate_report, as verify_certificate builds it, so a stored
    certificate has the bits of a computed one.  Without a store the record
    goes to a KernelStore in memory, made for the call.
    """
    store = KernelStore() if store is None else store

    def sups():
        report = verify_certificate(system, lyap, radius=radius)
        return report.sup_coarse, report.sup_fine

    key = _record_key("certificate", system, lyap, radius)
    return certificate_report(lyap, *store.get_or_compute(key, sups).tolist(), radius)


def _stored_ledger(system, w: SpaceTimeWeight, nu1: SpaceTimeWeight,
                   nu2: SpaceTimeWeight, s: float, window: tuple, adjoint: bool,
                   store: KernelStore) -> ConstantsLedger:
    """estimate_ledger of the arguments, with its eight sups, their edge flags
    and M held in the store as a record.

    The record key covers the system, every field of the three weights, s,
    the window (a0, a, b, b0) and adjoint.
    The ledger is rebuilt from the numbers by ledger_of, as estimate_ledger
    builds it.
    """
    def numbers():
        led = estimate_ledger(system, w, nu1, nu2, s, window, adjoint=adjoint)
        return (*led.c, *led.boundary_flags, led.M)

    key = _record_key("ledger", system, w, nu1, nu2, s, window, adjoint)
    nums = store.get_or_compute(key, numbers).tolist()
    return ledger_of(system.dims.d, s, window, nums[:8], nums[8:16], nums[16])


def _stored_row_sum(system, radius: float, store: KernelStore) -> RowSumBound:
    """compute_row_sum_bound(system, radius=radius), with M and the tail verdict
    held in the store as a record.

    The record key covers the system and the radius.
    The bound is rebuilt from the two numbers by row_sum_bound_of, as
    compute_row_sum_bound builds it.
    """
    def numbers():
        row = compute_row_sum_bound(system, radius=radius)
        return row.M, row.certified_tail

    M, certified = store.get_or_compute(_record_key("row_sum", system, radius),
                                        numbers).tolist()
    return row_sum_bound_of(M, bool(certified), radius, system.dims.d)


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
    or (n_nodes, m, c), giving an array of that shape.  Each of legs then
    evolves that output for its time more, with the same operator and step.
    Build requests with of_sources, of_values and then.
    """

    variant: str
    grid: GridSpec
    t: float
    dt: float
    theta: float
    sources: tuple = ()
    width: float = 0.0
    data: Optional[np.ndarray] = None
    legs: tuple = ()

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
        """This request with one more leg: its output evolved for t more."""
        return replace(self, legs=self.legs + (float(t),))

    @cached_property
    def digest(self) -> str:
        """_data_digest of the data, computed once per request."""
        return _data_digest(self.data)

    @cached_property
    def fold(self) -> tuple:
        """solver.symmetries of the data, computed once per request."""
        return symmetries(self.grid, self.data)


# the legs come last in a key, so a request without legs is keyed by its
# operator, step and start alone

def _column_key(sys_fp: str, req: Evolution, center: tuple, k: int) -> str:
    g = req.grid
    return _store_key("col", sys_fp, req.variant, g.d, g.radius, g.spacing, req.t, center,
                      k, req.width, req.dt, req.theta, *req.legs)


def _data_key(sys_fp: str, req: Evolution, j: int) -> str:
    g = req.grid
    return _store_key("evolve", sys_fp, req.variant, g.d, g.radius, g.spacing, req.t,
                      req.dt, req.theta, req.digest, j, *req.legs)


def _data_digest(data: np.ndarray) -> str:
    """sha1 of the shape and the C-order bytes, hashed in place, not copied."""
    digest = hashlib.sha1(repr(data.shape).encode())
    digest.update(np.ascontiguousarray(data))
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# the plan: every evolution declared, then each run once
# ---------------------------------------------------------------------------

# what run_plan counts: the declared requests, the distinct evolve batches
# they come to, the batches computed, the fields already stored, and the
# operator handles' factorizations, assemblies and theta steps
PLAN_COUNTS = ("requests", "batches", "evolutions", "fields found in the store",
               "factorizations", "assemblies", "steps")


@dataclass(eq=False)
class _Batch:
    """One evolve batch of the plan, the unit that runs at most once.

    request is the batch's first request, which names its operator, its
    time stepping, its legs and its start; keys holds the store key of
    every field its requests read, by component for kernel columns and by
    column for data.  Column requests at one center share a batch, since
    all m components evolve together whichever of them are asked for.  A
    data request is a batch of its own, keyed by the digest of its data.
    No batch reads another's output, so batches run in any order.  fold, the
    symmetries its start keeps, fixes its parity blocks: solver.symmetries
    of a data request's data, and for the m sources at a center the axes
    where its coordinate is 0 on a grid of exact mirrors, with DIAGONAL at a
    2-D origin, since a Gaussian of x0^2 + x1^2 is its own transpose bit for
    bit; so a column batch builds no source to know its fold.
    """

    request: Evolution
    keys: dict
    center: Optional[tuple] = None
    fold: tuple = ()

    def order(self) -> tuple:
        r, g = self.request, self.request.grid
        return (r.variant, g.d, g.spacing, g.radius, r.theta, r.dt, self.fold, r.t)


def _plan(requests: Sequence[Evolution], sys_fp: str, m: int) -> tuple:
    """The distinct batches in run order, and where each request's output lies.

    Every store key is computed here, once, and two requests share a batch
    exactly when they would share store entries.  The run order is
    (variant, grid, theta, dt, fold, t): one handle per (variant, grid)
    steps through each (theta, dt) once, and within it through each fold
    once, so it factors each (fold, theta, dt) once.  A request's output lies in one batch,
    or, for kernel columns, in a list of (batch, component) picks.
    """
    batches: dict = {}
    where = []
    for req in requests:
        g = req.grid
        if req.data is None:
            op = _fingerprint(req.variant, g.d, g.radius, g.spacing, req.t, req.dt,
                              req.theta, req.width, *req.legs)
            picks = []
            for center, k in req.sources:
                if not 0 <= k < m:
                    raise DomainError(f"component {k} outside 0..{m - 1}")
                axes = tuple(a for a in range(g.d) if center[a] == 0.0 and g.mirrored)
                b = batches.setdefault((op, str(center)), _Batch(
                    req, {}, center, axes + (DIAGONAL,) if len(axes) == 2 else axes))
                if k not in b.keys:
                    b.keys[k] = _column_key(sys_fp, req, center, k)
                picks.append((b, k))
            where.append(picks)
            continue
        columns = req.data.shape[2] if req.data.ndim == 3 else 1
        keys = {j: _data_key(sys_fp, req, j) for j in range(columns)}
        where.append(batches.setdefault(tuple(keys.values()),
                                        _Batch(req, keys, fold=req.fold)))
    return sorted(batches.values(), key=_Batch.order), where


def _evolve_batch(b: _Batch, store: KernelStore, m: int,
                  handle_of: Callable[[], OperatorHandle]) -> tuple:
    """The output of a batch, read through the store, and how many of its
    fields were built.

    Each field is read under its key.  The first miss builds the start
    array, the m mollified sources at a center or the request's data, and
    evolves it once for every field of the batch, over t and then over each
    leg.  So a field has the same bits whichever fields were stored before,
    and none is built unless the batch evolved.  A column batch gives a
    dict of columns by component, any other an array shaped like its data.
    """
    req = b.request
    built, evolved = [], []

    def build(j: int) -> np.ndarray:
        built.append(j)
        if not evolved:
            handle = handle_of()  # its budget check precedes any grid-sized array
            u = req.data if b.center is None else np.stack(
                [mollified_source(req.grid, m, b.center, h, req.width) for h in range(m)],
                axis=-1)
            for t in (req.t, *req.legs):
                u = handle.evolve(u, t, dt=req.dt, theta=req.theta)[0]
            evolved.append(u)
        u = evolved[0]
        return np.ascontiguousarray(u[:, :, j] if u.ndim == 3 else u)

    fields = {j: store.get_or_compute(key, lambda j=j: build(j)) for j, key in b.keys.items()}
    if b.center is not None:
        return fields, len(built)
    cols = list(fields.values())
    return (np.stack(cols, axis=-1) if req.data.ndim == 3 else cols[0]), len(built)


def run_plan(system, requests: Sequence[Evolution], store: KernelStore, jobs: int = 1,
             budget: int = DEFAULT_BUDGET) -> tuple:
    """Outputs of the requests in their order, and the PLAN_COUNTS of the
    work this call did.

    Duplicates are dropped by store key and the rest run in plan order.
    Every field goes through the store, which holds it for its life, so a
    file that does not load, or holds a NaN, is rebuilt here.
    Batches of one (variant, grid) form a group with one OperatorHandle of
    the given budget, made on the group's first store miss, so a group
    whose every field is stored builds nothing, and the call assembles each
    operator once and factors each (fold, theta, dt) of it once: a batch
    evolves on the parity blocks of its fold, the symmetries its start
    keeps (OperatorHandle.evolve), and the fold is read off the batch's own
    start, so its fields have the same bits whatever ran before it.  The
    factorizations count is per (variant, grid, fold, theta, dt).  A
    P_adjoint handle transposes the matrix of its grid's P handle when that
    group is done and made one.  When its last batch is done a group releases its
    factorization, drops its handle and hands freed heap pages back, so
    with one job at most one LU is alive.  A call shares nothing with
    another but the store.  With jobs > 1 the groups run in threads, each
    with its own handle; an adjoint group that starts before its P group is
    done assembles its own matrix.  Batches never depend on the order or the
    thread they run in, so neither do the bits.
    """
    m = system.dims.m
    batches, where = _plan(requests, system_fingerprint(system), m)
    groups = [list(g) for _, g in groupby(batches, key=lambda b: (b.request.variant,
                                                                   b.request.grid))]
    adjoint_grids = {b.request.grid for b in batches if b.request.variant == "P_adjoint"}
    forward: dict = {}  # grid -> done P handle whose matrix its adjoint group takes

    def run_group(group: list) -> tuple:
        variant, grid = group[0].request.variant, group[0].request.grid
        handle = None

        def handle_of() -> OperatorHandle:
            nonlocal handle
            if handle is None:
                fwd = forward.pop(grid, None) if variant == "P_adjoint" else None
                handle = OperatorHandle(system, grid, variant, budget, forward=fwd)
            return handle

        done, found, evolved = {}, 0, 0
        for b in group:
            done[b], built = _evolve_batch(b, store, m, handle_of)
            found += len(b.keys) - built
            evolved += built > 0
        counts = Counter({"batches": len(group), "evolutions": evolved,
                          "fields found in the store": found})
        if handle is not None:
            handle.release()
            counts.update(factorizations=handle.factorizations,
                          assemblies=handle.assemblies, steps=handle.steps)
            if variant == "P" and grid in adjoint_grids:
                forward[grid] = handle
            handle = None
            release_freed_memory()
        return done, counts

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
    return [outputs[w] if isinstance(w, _Batch) else [outputs[b][k] for b, k in w]
            for w in where], total


def _embed_indices(small: GridSpec, big: GridSpec) -> np.ndarray:
    """Node indices of the small grid inside the big one, whose spacing
    divides the small grid's."""
    if small.d != big.d:
        raise DomainError("grids must share their dimension")
    if big.radius < small.radius:
        raise DomainError("second grid must be the larger one")
    stride, off = small.spacing / big.spacing, (big.radius - small.radius) / big.spacing
    if not (is_whole(stride) and is_whole(off)):
        raise DomainError("grids differ by a non-integer number of cells")
    idx = int(round(off)) + int(round(stride)) * (np.arange(small.n_per_axis) + 1) - 1
    if small.d == 1:
        return idx
    return (idx[:, None] * big.n_per_axis + idx[None, :]).ravel()


# ---------------------------------------------------------------------------
# the working radius: where the checks that step at theta = 1 run
# ---------------------------------------------------------------------------

# The working radius takes a truncation error of at most this share of the
# space error, so the move adds at most half the discretization error the
# checks carry on the largest radius anyway.  Measured on the bench configs
# at t = 0.5: it moves poly2d from R = 6 to R = 4 (truncation 1.20e-3 against
# a space error of 4.45e-3), and refuses R = 4 on poly1d (7.9e-4 against
# 1.12e-3), where the kernel mass beyond the ball is as large as the space
# error itself; every verdict of both configs stays what it was on R = 6 and
# R = 16.
TRUNCATION_SHARE = 0.5


@dataclass(frozen=True)
class RadiusChoice:
    """The working radius and what chose it: the time t, the space error
    e_h, and the truncation error of each radius, by radius: 0 for the
    largest, the reference, and infinite for one that does not hold every
    verify point.  e_h is None, and truncation empty, when no study ran and
    radius is the largest."""

    radius: float
    t: float
    e_h: Optional[float]
    truncation: dict

    def line(self) -> str:
        head = f"working radius R = {self.radius:g}"
        if self.e_h is None:
            return head + ", the largest (no study)"
        # the largest radius is the reference, so its truncation is unmeasured
        if self.radius == max(self.truncation):
            head, fits = head + ", the largest,", ""
        else:
            fits = f"truncation {self.truncation[self.radius]:.3e} <= {TRUNCATION_SHARE:g} x "
        refused = "".join(f"; R = {R:g} refused at {tau:.3e}"
                          for R, tau in self.truncation.items() if R < self.radius)
        return f"{head} at t = {self.t:g}: {fits}space error {self.e_h:.3e}{refused}"


@dataclass(frozen=True, eq=False)
class WorkingRadius:
    """The study that picks the working radius R_w from grid.radii.

    It evolves the P kernel columns of every component at source to t, on
    each radius R > reach at the verify spacing h, reach being the largest
    |coordinate| of the verify points, and once more on the largest radius
    R_max at 2h, all at one width and step.  From them:
      tau(R) = max |p_Rmax - p_R| / max p_Rmax, with p_R extended by zero
        outside B_R, so the kernel mass beyond R counts;
      e_h = max |u_h - u_2h| / (3 max u_h) over the nodes both R_max grids
        share, the Richardson estimate of the space error.
    R_w is the smallest R with tau(R) <= TRUNCATION_SHARE * e_h, else R_max.
    With one radius, or an R_max that is no multiple of 2h, R_w is R_max and
    nothing is evolved.
    """

    system: object
    radii: Sequence[float]
    spacing: float
    t: float
    source: object
    width: Optional[float]
    dt: Optional[float]
    theta: float
    reach: float

    @cached_property
    def grids(self) -> list:
        """The grids at h, ascending, then R_max at 2h; none without a study."""
        d, R_max = self.system.dims.d, max(self.radii)
        try:
            coarse = GridSpec(d, R_max, 2.0 * self.spacing)
        except DomainError:
            return []
        held = [GridSpec(d, R, self.spacing) for R in sorted(self.radii)
                if self.reach < R < R_max]
        return [] if len(self.radii) < 2 else \
            held + [GridSpec(d, R_max, self.spacing), coarse]

    @cached_property
    def requests(self) -> list:
        """One column batch per grid, all at the width and step that R_max at
        h resolves."""
        if not self.grids:
            return []
        sources = [(self.source, k) for k in range(self.system.dims.m)]
        finest = Evolution.of_sources("P", self.grids[-2], self.t, sources, self.width,
                                      self.dt, self.theta)
        return [replace(finest, grid=g) for g in self.grids]

    def measure(self, outputs: list) -> RadiusChoice:
        """The RadiusChoice, from the outputs of the requests in their order."""
        R_max = max(self.radii)
        if not self.grids:
            return RadiusChoice(R_max, self.t, None, {})
        *fine, coarse = [np.stack(cols, axis=-1) for cols in outputs]
        *small, big = self.grids[:-1]
        ref = fine[-1]
        scale = max(float(np.max(ref)), _TINY)
        e_h = float(np.max(np.abs(ref[_embed_indices(self.grids[-1], big)] - coarse))) \
            / (3.0 * scale)
        truncation = {float(R): math.inf for R in sorted(self.radii) if R <= self.reach}
        for g, p in zip(small, fine):
            outside = ref.copy()
            outside[_embed_indices(g, big)] -= p
            truncation[g.radius] = float(np.max(np.abs(outside))) / scale
        truncation[R_max] = 0.0
        R_w = next(R for R, tau in truncation.items() if tau <= TRUNCATION_SHARE * e_h)
        return RadiusChoice(R_w, self.t, e_h, truncation)


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

    def result(self, worst: float, tolerance: float, location: tuple, details: dict,
               inconclusive: bool = False) -> CheckResult:
        status = "fail" if worst > tolerance else "inconclusive" if inconclusive else "pass"
        return CheckResult(check=self.name, status=status, worst=float(worst),
                           location=location, tolerance=float(tolerance), details=details)


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


def _sample_radius(grid: GridSpec) -> float:
    """The radius of the sample box of the constants a check reads on grid."""
    return max(SAMPLE_RADIUS, 2.0 * grid.radius)


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

    @property
    def horizon(self) -> float:
        """The largest time the check evolves to."""
        return self.t

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
        compared = [(cf, cp, max(float(np.max(cp)), _TINY), _loc_pt(center, d), k)
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
        return self.result(rows.worst, tol, rows.loc, {"samples": rows.samples})


@dataclass(frozen=True, eq=False)
class MonotoneInR(_Check):
    """Cooperative kernels grow with the box and their increments collapse.

    All grids share spacing, time step, and mollifier, so shared nodes are
    directly comparable, and backward Euler steps them.  Violations are
    absolute; the increment sequence on the smallest grid must shrink by a
    factor of 4 per radius step, with a roundoff floor of 1e-12 times the
    kernel scale.
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

    @cached_property
    def requests(self) -> list:
        """One column per radius, ascending; the grids share their spacing,
        so an unset step or width resolves alike on all of them."""
        return [Evolution.of_sources("P", GridSpec(d=self.system.dims.d, radius=R,
                                                   spacing=self.spacing),
                                     self.t, [self.source], self.width, self.dt, 1.0)
                for R in sorted(float(R) for R in self.radii)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, t, tol = self.system.dims.d, self.t, self.tol
        center, k = self.source
        y = _loc_pt(center, d)
        grids = [req.grid for req in self.requests]
        kernels = [cols[0] for cols in outputs]
        scale = max(max(float(np.max(f)) for f in kernels), _TINY)
        floor = 1e-12 * scale
        rows = _Rows(0.0, (t, None, y, None, k))
        for g_small, f_small, g_big, f_big in zip(grids, kernels, grids[1:], kernels[1:]):
            val, x, h = _peak(f_small - f_big[_embed_indices(g_small, g_big)],
                              g_small.points(), d)
            rows.add(t, x, y, h, k, val, tol)
        worst = rows.worst
        base = grids[0]
        restricted = [f[_embed_indices(base, g)] if g.radius > base.radius else f
                      for g, f in zip(grids, kernels)]
        increments = [float(np.max(np.abs(b - a)))
                      for a, b in zip(restricted, restricted[1:])]
        for prev, nxt in zip(increments, increments[1:]):
            allowed = max(prev / 4.0, floor)
            ratio = nxt / max(allowed, _TINY)
            worst = max(worst, tol * ratio if ratio > 1.0 else 0.0)
        return self.result(worst, tol, rows.loc,
                           {"samples": rows.samples,
                            "violations": [row["value"] for row in rows.samples],
                            "increments": increments})


@dataclass(frozen=True, eq=False)
class MassAndPositivity(_Check):
    """Total kernel mass decays at the certified rate and stays nonnegative.

    Evolving the all-ones data by backward Euler computes sum_k of the L1
    kernel masses in one run per time; the bound is sqrt(m) e^(-Mt)
    (1 + tol) with M from the potential row sums.  Positivity violations,
    entries below -1e-10 times their run's scale, are folded into the same
    scale so a single worst number decides the check.
    """

    name = "check_mass_and_positivity"
    system: object
    grid: GridSpec
    t_values: Sequence[float]
    dt: Optional[float] = None
    tol: float = 0.01
    row: Optional[RowSumBound] = None
    sources: Sequence[tuple] = ()
    width: Optional[float] = None

    @property
    def horizon(self) -> float:
        """The largest time the check evolves to."""
        return max(self.t_values)

    @cached_property
    def requests(self) -> list:
        """The all-ones data at each time, then the source columns at the last
        time."""
        g = self.grid
        ones = np.ones((g.n_nodes, self.system.dims.m))
        return [Evolution.of_values("P", g, ones, t, self.dt, 1.0) for t in self.t_values] \
            + [Evolution.of_sources("P", g, max(self.t_values), self.sources, self.width,
                                    self.dt, 1.0)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, m, tol, pos_tol = self.grid, self.system.dims.m, self.tol, 1e-10
        row = self.row or _stored_row_sum(self.system, _sample_radius(grid),
                                          KernelStore() if store is None else store)
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
            scale = max(float(np.max(col)), _TINY)
            pos_ratio = max(pos_ratio, -float(np.min(col)) / (pos_tol * scale))
        worst = max(rows.worst, tol * pos_ratio)
        return self.result(worst, tol, rows.loc,
                           {"samples": rows.samples, "M": row.M,
                            "positivity_ratio": pos_ratio})


@dataclass(frozen=True, eq=False)
class Support(_Check):
    """Kernel column vanishes exactly off the coupling-reachable components.

    Components outside the reachability set F_k must stay below tol_null
    relative to the column maximum (pure roundoff), reachable ones must rise
    above the relative floor 1e-12.  The column is stepped by backward
    Euler, the center defaults to the origin, and the support to the
    family's own.
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
    support: Optional[CouplingSupport] = None

    @property
    def _at(self):
        return np.zeros(self.system.dims.d) if self.center is None else self.center

    @property
    def horizon(self) -> float:
        """The largest time the check evolves to."""
        return self.t

    @cached_property
    def requests(self) -> list:
        """The column of (center, k)."""
        return [Evolution.of_sources("P", self.grid, self.t, [(self._at, self.k)],
                                     self.width, self.dt, 1.0)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, m, t, k = self.system.dims.d, self.system.dims.m, self.t, self.k
        tol_null, floor = self.tol_null, 1e-12
        support = self.support if self.support is not None else self.system.support(k)
        y = _loc_pt(self._at, d)
        (col,), = outputs
        scale = max(float(np.max(np.abs(col))), _TINY)
        per_comp = [float(np.max(np.abs(col[:, h]))) / scale
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
                node = int(np.argmax(np.abs(col[:, h])))
                worst, loc = per_comp[h], (t, _loc_pt(pts[node], d), y, h, k)
        # a reachable component sitting below the floor trips the tolerance too
        if min_reach < floor:
            worst = max(worst, tol_null * floor / max(min_reach, _TINY))
        return self.result(worst, tol_null, loc,
                           {"samples": samples, "reachable": sorted(support.reachable),
                            "relative_maxima": per_comp})


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
            vf = float(cf[grid.node_of(_center(x, d)), h])
            va = float(ca[grid.node_of(_center(y, d)), k])
            noise = 1e-12 * max(float(np.max(np.abs(cf))), float(np.max(np.abs(ca))), _TINY)
            scale = max(abs(vf), abs(va))
            rel = 0.0 if scale <= noise else abs(vf - va) / scale
            rows.add(t, _loc_pt(x, d), _loc_pt(y, d), h, k, rel, tol)
        return self.result(rows.worst, tol, rows.loc, {"samples": rows.samples})


@dataclass(frozen=True, eq=False)
class ChapmanKolmogorov(_Check):
    """Composing the evolution over s then t equals evolving over t + s.

    Both paths take backward Euler steps.  The default step is the
    solver's rule for t + s, shrunk to divide s exactly, which makes both
    paths the same matrix product including the trailing partial step; the
    tolerance then only absorbs accumulated linear-solver residue.
    """

    name = "check_chapman_kolmogorov"
    system: object
    grid: GridSpec
    t: float
    s: float
    variant: str = "P"
    dt: Optional[float] = None
    tol: float = 1e-9
    seed: int = 0

    def __post_init__(self):
        if self.s <= 0.0:
            raise DomainError(f"the second leg s must be positive, got {self.s}")

    @property
    def horizon(self) -> float:
        """The largest time the check evolves to, its legs included."""
        return self.t + self.s

    @property
    def step(self) -> Optional[float]:
        """The step of the split: by default the largest one that divides s
        and is at most min(t, s, default_dt(t + s, spacing))."""
        if self.dt is None:
            base = min(self.t, self.s, default_dt(self.t + self.s, self.grid.spacing))
            return self.s / math.ceil(self.s / base)
        return self.dt

    @cached_property
    def requests(self) -> list:
        """The direct path over t + s and the composed one, s and then a leg
        of t more."""
        g, t, s, dt = self.grid, self.t, self.s, self.step
        f = np.random.default_rng(self.seed).uniform(-1.0, 1.0,
                                                     size=(g.n_nodes, self.system.dims.m))
        return [Evolution.of_values(self.variant, g, f, t + s, dt, 1.0),
                Evolution.of_values(self.variant, g, f, s, dt, 1.0).then(t)]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid, t, s, tol = self.grid, self.t, self.s, self.tol
        scale = max(float(np.max(np.abs(self.requests[0].data))), _TINY)
        direct, composed = outputs
        diff, x, h = _peak(np.abs(direct - composed), grid.points(), grid.d)
        worst = diff / scale
        samples = [{"t": t + s, "x": x, "y": None, "h": h, "k": None, "value": worst,
                    "bound": tol}]
        return self.result(worst, tol, (t + s, x, None, h, None),
                           {"samples": samples, "dt": self.step})


# ---------------------------------------------------------------------------
# weight checks
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class LyapunovIntegrability(_Check):
    """Weighted kernel integrals stay below the certified growth envelope.

    Evolving the weight itself as initial data computes sum_k of the
    integrals of nu(t, y) p_hk(t, x, y) in one run; the result must stay
    below e^(G(t)) nu(0, x) (1 + tol).  A companion run of the weight
    restricted to the outer shell measures how much of the integral lives
    near the boundary; when that exceeds boundary_fraction the verdict is
    inconclusive (enlarge the box) rather than a pass.  The weight is the
    one of amplitude eps_scale * eps_T, and the runs take backward Euler
    steps.
    """

    name = "check_lyapunov_integrability"
    eps_scale = 0.25
    system: object
    timed: TimeLyapunovSpec
    grid: GridSpec
    t_values: Sequence[float]
    x_points: Sequence
    tol: float = 0.05
    dt: Optional[float] = None
    boundary_fraction: float = 0.01
    cert_radius: Optional[float] = None

    @property
    def horizon(self) -> float:
        """The largest time the check evolves to."""
        return max(self.t_values)

    @cached_property
    def requests(self) -> list:
        """At each time, the weight and its outer shell as one two-column
        batch.  The weight is the one of the rescaled spec, which calibration
        does not change, so no calibration runs here."""
        grid = self.grid
        w = self.timed.scaled(self.eps_scale).weight()
        pts = grid.points()
        at = RadialPoints(pts, grid.d)
        shell = np.max(np.abs(pts), axis=-1) >= 0.9 * grid.radius
        reqs = []
        for t in self.t_values:
            log_nu = w.log_value(t, at)
            init = np.repeat(np.exp(log_nu)[:, None], self.system.dims.m, axis=1)
            both = np.stack([init, init * shell[:, None]], axis=-1)
            reqs.append(Evolution.of_values("P", grid, both, t, self.dt, 1.0))
        return reqs

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        grid = self.grid
        d = grid.d
        radius = self.cert_radius if self.cert_radius is not None else _sample_radius(grid)
        spec_used = stored_certificate(self.system, self.timed.scaled(self.eps_scale), radius,
                                       store).certified
        tail_worst = 0.0
        rows = _Rows()
        for t, both in zip(self.t_values, outputs):
            out, out_shell = both[:, :, 0], both[:, :, 1]
            bound = math.exp(float(spec_used.G(t)))
            for x in self.x_points:
                node = grid.node_of(_center(x, d))
                val = float(np.max(out[node]))
                tail_worst = max(tail_worst, float(np.max(out_shell[node])) / max(val, _TINY))
                rows.add(t, _loc_pt(x, d), None, int(np.argmax(out[node])), None, val, bound,
                         score=val / bound - 1.0)
        return self.result(rows.worst, self.tol, rows.loc,
                           {"samples": rows.samples, "eps": spec_used.eps_T, "c0": spec_used.c0,
                            "boundary_fraction": tail_worst},
                           inconclusive=tail_worst > self.boundary_fraction)


def checked_eps_scales(eps_scales: Sequence[float]) -> tuple:
    """The majorant's three shares of eps_T; DomainError unless they increase
    within (0, 1]."""
    s0, s1, s2 = eps_scales
    if not 0.0 < s0 < s1 < s2 <= 1.0:
        raise DomainError(f"eps scales must increase within (0, 1], got {eps_scales}")
    return s0, s1, s2


def weighted_majorant(system, synthesis: SynthesisResult, s: float,
                      t: Optional[float] = None,
                      eps_scales: Sequence[float] = EPS_SCALES,
                      adjoint: bool = False, cert_radius: float = SAMPLE_RADIUS,
                      window: Optional[Sequence[float]] = None,
                      store: Optional[KernelStore] = None) -> tuple:
    """Ledger and constant majorant value over a time window.

    The window defaults to (t/8, t/4, t/2, 3t/4), proportional to the
    evaluation time; an explicit 4-tuple overrides it.  The three weights
    w, nu1 and nu2 are those of the synthesized spec scaled by eps_scales,
    and G1 and G2 the growth integrals of the certificates of the last two,
    so the ledger reads the very weights whose growth H integrates.
    Because the comparison weights equal one at time zero, the majorant is
    constant in space; the value is returned along with the estimated
    ledger.  The ledger and the certificates of nu1 and nu2 are
    records in the store, or, without one, in a KernelStore in memory, made
    for the call; so calls at several times calibrate nu1 and nu2 once.
    """
    store = KernelStore() if store is None else store
    specs = [synthesis.timed.scaled(f) for f in checked_eps_scales(eps_scales)]
    if window is None:
        if t is None:
            raise DomainError("need an evaluation time or an explicit window")
        window = (t / 8.0, t / 4.0, t / 2.0, 3.0 * t / 4.0)
    ledger = _stored_ledger(system, *(spec.weight() for spec in specs), s, window, adjoint,
                            store)
    G1, G2 = (stored_certificate(system, spec, cert_radius, store).certified.G
              for spec in specs[1:])
    # adjoint estimates land in the plain constant slots until merged, and
    # the starred majorant uses the same bracket structure
    return ledger, eval_H(ledger, G1, G2)


@dataclass(frozen=True, eq=False)
class WeightedBound(_Check):
    """Weighted kernel suprema stay calibrated under mesh and box refinement.

    The ratio w(t, y) sum_k |p_hk(t, x, y)| / H is computed over every
    source and node of the coarse (spacing, radius) pair; its supremum
    calibrates C_cal.  The same supremum on the fine pair must then stay
    within (1 + tol) of the calibration.  Given the adjoint synthesis, the
    check is two-sided: it adds the symmetrized ratio
    sqrt(w(t, y) w*(t, x)) / sqrt(H H*).  majorant_scale f breaks the
    majorant under test: the fine pair divides by H f^(s/2), while the
    calibration always uses the healthy H.
    """

    name = "check_weighted_bound"
    system: object
    synthesis: SynthesisResult
    s: float
    t_values: Sequence[float]
    sources: Sequence
    coarse: tuple
    fine: tuple
    eps_scales: Sequence[float] = EPS_SCALES
    tol: float = 0.10
    dt: Optional[float] = None
    width: Optional[float] = None
    theta: float = 0.5
    adjoint_synthesis: Optional[SynthesisResult] = None
    majorant_scale: float = 1.0
    cert_radius: float = SAMPLE_RADIUS

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

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        store = KernelStore() if store is None else store
        d, m = self.system.dims.d, self.system.dims.m
        adj, scale0 = self.adjoint_synthesis, self.eps_scales[0]
        w = self.synthesis.timed.scaled(scale0).weight()
        wstar = adj.timed.scaled(scale0).weight() if adj is not None else None

        def majorants(synthesis, adjoint):
            # the healthy H, or H*, at each time; every time after the first
            # finds its certificates in the store
            return {t: weighted_majorant(self.system, synthesis, self.s, t, self.eps_scales,
                                         adjoint=adjoint, cert_radius=self.cert_radius,
                                         store=store)[1]
                    for t in self.t_values}

        H_of = majorants(self.synthesis, False)
        Hstar_of = majorants(adj, True) if adj is not None else {}

        # each source as a batch of one point, for its w(t, y)
        at_sources = [RadialPoints(_center(y, d)[None, :], d) for y in self.sources]

        def sweep(pair, columns, scale):
            # one pair's columns, in request order: by time and source
            columns = iter(columns)
            spacing, radius = pair
            grid = GridSpec(d=d, radius=radius, spacing=spacing)
            pts = grid.points()
            at = RadialPoints(pts, d)
            sup2 = 0.0
            rows = _Rows(0.0)
            for t in self.t_values:
                H = H_of[t]
                for y, at_y in zip(self.sources, at_sources):
                    total = np.zeros((grid.n_nodes, m))
                    for col in next(columns):
                        total += np.abs(col)
                    wy = float(np.exp(w.log_value(t, at_y))[0])
                    val, x, h = _peak(wy * total / (H * scale), pts, d)
                    rows.add(t, x, _loc_pt(y, d), h, None, val, H)
                    if adj is not None:
                        wx = np.exp(0.5 * wstar.log_value(t, at))
                        r2 = math.sqrt(wy) * wx[:, None] * total / math.sqrt(H * Hstar_of[t])
                        sup2 = max(sup2, float(np.max(r2)))
            return rows, sup2

        per_pair = len(outputs) // 2
        coarse, sup2_c = sweep(self.coarse, outputs[:per_pair], 1.0)
        sup_c = coarse.worst
        if not (math.isfinite(sup_c) and sup_c > 0):
            raise DomainError(f"coarse calibration sup degenerate: {sup_c}")
        # every bracket monomial has degree >= s/2 in the ledger constants,
        # so scaling them by f moves the majorant by at least f^(s/2); the
        # fine pair divides by that envelope, uniformly in time
        fine, sup2_f = sweep(self.fine, outputs[per_pair:], self.majorant_scale ** (self.s / 2.0))
        sup_f = fine.worst
        worst = sup_f / sup_c - 1.0
        if adj is not None and sup2_c > 0:
            worst = max(worst, sup2_f / sup2_c - 1.0)
        return self.result(worst, self.tol, fine.loc,
                           {"samples": coarse.samples + fine.samples, "C_cal": sup_c,
                            "sup_fine": sup_f,
                            "sup2_coarse": sup2_c, "sup2_fine": sup2_f,
                            "majorants": H_of})


@dataclass(frozen=True, eq=False)
class DecayShape(_Check):
    """Kernel tails decay at least as fast as the certified profile.

    Adds the log of the family's decay weight, weight.log_value(t, y), back
    onto log sum_k p_hk(t, x0, y); if the kernel obeys the bound, the
    compensated profile cannot climb from the core |y| <= 1 into the tail
    2 <= |y| <= 4 by more than slack.  Adjoint Crank-Nicolson columns
    provide the y-dependence in a single run per time.
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
    slack: float = 0.5

    @cached_property
    def requests(self) -> list:
        """The adjoint column of (x0, component) at each time."""
        return [Evolution.of_sources("P_adjoint", self.grid, t, [(self.x0, self.component)],
                                     self.width, self.dt, 0.5)
                for t in self.t_values]

    def measure(self, outputs: list, store: Optional[KernelStore] = None) -> CheckResult:
        d, slack, component = self.grid.d, self.slack, self.component
        x0 = _loc_pt(self.x0, d)
        pts = self.grid.points()
        at = RadialPoints(pts, d)
        rr = np.sqrt(np.sum(pts * pts, axis=-1))
        rows = _Rows()
        for t, (col,) in zip(self.t_values, outputs):
            total = np.sum(np.abs(col), axis=1)
            noise = 1e-13 * max(float(np.max(total)), _TINY)
            phi = np.log(np.maximum(total, _TINY)) + self.weight.log_value(t, at)
            core = phi[rr <= 1.0]
            tail_mask = (rr >= 2.0) & (rr <= 4.0) & (total > noise)
            if core.size == 0 or not np.any(tail_mask):
                raise DomainError("grid too small for the requested core/tail split")
            rise = float(np.max(phi[tail_mask])) - float(np.max(core))
            y = _loc_pt(pts[int(np.argmax(np.where(tail_mask, phi, -np.inf)))], d)
            rows.add(t, x0, y, component, None, rise, slack)
        return self.result(rows.worst, slack, rows.loc, {"samples": rows.samples})


# the checks that run on the working radius: they evolve P or plain columns
# and data at theta = 1, whose truncation the study measures; the adjoint
# checks, the weighted grids and the monotone sweep stay where they are
WORKING_RADIUS_CHECKS = (Domination, MassAndPositivity, Support, ChapmanKolmogorov,
                         LyapunovIntegrability)


# the public checks: each measures its declaration on the outputs of its
# requests.  They are no more than measure, and stay as functions because
# the bench tracer times each check, and the bench tests replace one, by
# the function of its name

def check_domination(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_monotone_in_R(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_mass_and_positivity(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_support(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_duality(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_chapman_kolmogorov(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_lyapunov_integrability(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_weighted_bound(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


def check_decay_shape(check, outputs: list, store: KernelStore) -> CheckResult:
    return check.measure(outputs, store)


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


def summary_text(results: Sequence[CheckResult],
                 radius: Optional[RadiusChoice] = None) -> str:
    """The summary of the results; its title names the working radius when
    one was chosen."""
    title = "verification summary" + (f", {radius.line()}" if radius is not None else "")
    lines = [title, "--------------------"]
    for res in results:
        lines.append(res.line())
    overall = next((status for status in ("fail", "inconclusive")
                    if any(r.status == status for r in results)), "pass")
    lines.append(f"overall: {overall}")
    return "\n".join(lines) + "\n"
