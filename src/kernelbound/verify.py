"""Numerical checks tying discrete kernels to the certified estimates.

Each check replays one provable statement against solver output: cooperative
domination, monotone growth in the domain radius, mass decay, coupling
support, forward/adjoint duality, the semigroup identity, integrability
against time-dependent weights, and the calibrated weighted majorant.  A
check returns the worst violation it measured together with the tolerance it
used and a fingerprint of its configuration, so repeated runs are comparable
byte for byte.  Given a kernel store, every evolution a check runs goes
through it, so a rerun against the same store recomputes nothing.
"""

from __future__ import annotations

import hashlib
import math
import struct
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .bounds import eval_H
from .coefficients import CouplingSupport, _FamilyBase
from .errors import DomainError, KernelBoundError
from .hypotheses import RowSumBound, compute_row_sum_bound, estimate_ledger
from .lyapunov import (SAMPLE_RADIUS, SpaceTimeWeight, SynthesisResult, TimeLyapunovSpec,
                       verify_certificate)
from .solver import (FIELD_FORMAT_VERSION, SOLVER_VERSION, DiscreteField, GridSpec,
                     OperatorHandle, default_dt, kernel_columns, load_field,
                     save_field)

__all__ = [
    "CheckResult", "KernelStore", "StoreKey", "system_fingerprint",
    "stored_column", "stored_columns", "stored_evolve",
    "check_domination", "check_monotone_in_R", "check_mass_and_positivity",
    "check_support", "check_duality", "check_chapman_kolmogorov",
    "check_lyapunov_integrability", "check_weighted_bound",
    "check_decay_shape", "calibrate_majorant", "weighted_majorant",
    "heat_weight_image", "results_csv", "summary_text",
]

_TINY = 1e-300
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
    """Cache of computed fields, in memory and optionally in a directory.

    A plain string key is a shared, persistent StoreKey.  len() counts
    every key loaded or built in this session, whichever tier holds it.
    Corrupt or foreign files under a key are silently recomputed.
    """

    def __init__(self, directory=None):
        self._memory: dict[str, DiscreteField] = {}
        self._seen: set[str] = set()
        self._dir = Path(directory) if directory is not None else None
        if self._dir is not None:
            self._dir.mkdir(parents=True, exist_ok=True)

    def __len__(self) -> int:
        return len(self._seen)

    def _path(self, digest: str) -> Path:
        name = hashlib.sha1(digest.encode()).hexdigest()[:16]
        return self._dir / f"{name}.kbf"

    def get_or_compute(self, key, build: Callable[[], DiscreteField]) -> DiscreteField:
        key = StoreKey(key) if isinstance(key, str) else key
        if key.digest in self._memory:
            return self._memory[key.digest]
        path = self._path(key.digest) if self._dir is not None and key.persist else None
        fld = None
        if path is not None and path.exists():
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


def _center(point, d: int) -> np.ndarray:
    return np.asarray(point, dtype=float).reshape(d)


def _loc_pt(point, d: int):
    arr = _center(point, d)
    return float(arr[0]) if d == 1 else tuple(float(v) for v in arr)


def stored_columns(handle: OperatorHandle, t: float, sources: Sequence[tuple],
                   width: Optional[float] = None, dt: Optional[float] = None,
                   theta: float = 0.5, store: Optional[KernelStore] = None, *,
                   sys_fp: str) -> list:
    """Kernel columns for (center, component) sources, routed through the store.

    Every source passes through the store under its own canonical key, so
    hits and misses count per column.  Unset width and step resolve to the
    solver defaults before keying, so a later call that spells them out hits
    the same entry.  A miss evolves all m components of its center in one
    batch, shared by the other misses at that center.  Batches never depend
    on which columns a caller asked for, so a column has the same bits
    whichever check computes it first.
    """
    g = handle.grid
    w = 2.0 * g.spacing if width is None else float(width)
    step = default_dt(t, g.spacing) if dt is None else float(dt)
    batches: dict = {}

    def build(center: tuple, k: int) -> DiscreteField:
        if center not in batches:
            batches[center] = kernel_columns(
                handle, t, [(center, h) for h in range(handle.m)],
                width=w, dt=step, theta=theta)
        return batches[center][k]

    out = []
    for point, k in sources:
        if not 0 <= k < handle.m:
            raise DomainError(f"component {k} outside 0..{handle.m - 1}")
        center = tuple(_center(point, g.d))
        if store is None:
            out.append(build(center, k))
            continue
        key = _store_key("col", sys_fp, handle.variant, g.d, g.radius, g.spacing,
                         t, center, k, w, step, theta)
        out.append(store.get_or_compute(key, lambda c=center, k=k: build(c, k)))
    return out


def stored_column(handle: OperatorHandle, t: float, center, component: int,
                  width: Optional[float] = None, dt: Optional[float] = None,
                  theta: float = 0.5, store: Optional[KernelStore] = None, *,
                  sys_fp: str) -> DiscreteField:
    """One kernel column through the store; see stored_columns."""
    return stored_columns(handle, t, [(center, component)], width, dt, theta,
                          store, sys_fp=sys_fp)[0]


def stored_evolve(handle: OperatorHandle, values: np.ndarray, t: float,
                  dt: Optional[float], theta: float,
                  store: Optional[KernelStore], *, sys_fp: str) -> np.ndarray:
    """handle.evolve(values, t, dt, theta)[0], routed through the store.

    values has shape (n_nodes, m) or (n_nodes, m, c).  Each column is one
    store entry, keyed by the data itself (a sha1 of the whole batch's
    bytes and shape, plus the column index) next to the system, variant,
    grid, t, the resolved step and theta.  A miss evolves the whole batch,
    so a column has the same bits whichever columns were stored before.
    The entries are read by a single check, so they are not shared: with a
    directory they go to disk only.
    """
    g = handle.grid
    step = default_dt(t, g.spacing) if dt is None else float(dt)
    if store is None:
        return handle.evolve(values, t, dt=step, theta=theta)[0]
    data = np.ascontiguousarray(values, dtype=float)
    digest = hashlib.sha1(repr(data.shape).encode() + data.tobytes()).hexdigest()
    evolved = []

    def build(j: int) -> DiscreteField:
        if not evolved:
            evolved.append(handle.evolve(data, t, dt=step, theta=theta)[0])
        out = evolved[0]
        col = out[:, :, j] if out.ndim == 3 else out
        return DiscreteField(g, np.ascontiguousarray(col), time=t,
                             meta={"variant": handle.variant})

    cols = []
    for j in range(data.shape[2] if data.ndim == 3 else 1):
        key = _store_key("evolve", sys_fp, handle.variant, g.d, g.radius,
                         g.spacing, t, step, theta, digest, j, shared=False)
        cols.append(store.get_or_compute(key, lambda j=j: build(j)).values)
    return np.stack(cols, axis=-1) if data.ndim == 3 else cols[0]


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

def check_domination(system, grid: GridSpec, t: float,
                     sources: Sequence[tuple], dt: Optional[float] = None,
                     width: Optional[float] = None, tol: float = 1e-9,
                     n_random: int = 3, seed: int = 0,
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
    coop = OperatorHandle(system, grid, variant="P")
    plain = OperatorHandle(system, grid, variant="plain")
    worst = -math.inf
    loc = (t, None, None, None, None)
    samples = []
    coop_cols = stored_columns(coop, t, sources, width, dt, 1.0, store, sys_fp=sys_fp)
    plain_cols = stored_columns(plain, t, sources, width, dt, 1.0, store, sys_fp=sys_fp)
    for (center, k), cp, cf in zip(sources, coop_cols, plain_cols):
        scale = max(float(np.max(cp.values)), _TINY)
        excess = (np.abs(cf.values) - cp.values) / scale
        i = int(np.argmax(excess))
        node, h = divmod(i, coop.m)
        val = float(excess.flat[i])
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": _loc_pt(center, grid.d), "h": h, "k": k,
                        "value": val, "bound": tol})
        if val > worst:
            worst = val
            loc = (t, _loc_pt(grid.points()[node], grid.d),
                   _loc_pt(center, grid.d), h, k)
    rng = np.random.default_rng(seed)
    if n_random:
        # the draws, in the order they were always taken, evolve as one batch
        f = np.stack([rng.uniform(-1.0, 1.0, size=(grid.n_nodes, coop.m))
                      for _ in range(n_random)], axis=-1)
        ufs = stored_evolve(plain, f, t, dt, 1.0, store, sys_fp=sys_fp)
        ups = stored_evolve(coop, np.abs(f), t, dt, 1.0, store, sys_fp=sys_fp)
    for j in range(n_random):
        uf, up = ufs[:, :, j], ups[:, :, j]
        scale = max(float(np.max(np.abs(up))), _TINY)
        excess = (np.abs(uf) - up) / scale
        i = int(np.argmax(excess))
        node, h = divmod(i, coop.m)
        val = float(excess.flat[i])
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": None, "h": h, "k": None, "value": val, "bound": tol})
        if val > worst:
            worst = val
            loc = (t, _loc_pt(grid.points()[node], grid.d), None, h, None)
    return _result("check_domination", worst, tol, loc, fp,
                   {"samples": samples, "sources": len(sources),
                    "random_data": n_random})


def check_monotone_in_R(system, radii: Sequence[float], spacing: float,
                        t: float, source: tuple, dt: Optional[float] = None,
                        width: Optional[float] = None, tol: float = 1e-8,
                        shrink: float = 4.0, theta: float = 1.0,
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
    if dt is None:
        dt = default_dt(t, spacing)
    if width is None:
        width = 2.0 * spacing
    grids = [GridSpec(d=d, radius=R, spacing=spacing) for R in radii]
    fields = [
        stored_column(OperatorHandle(system, g, variant="P"), t, center, k,
                      width, dt, theta, store, sys_fp=sys_fp)
        for g in grids
    ]
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


def check_mass_and_positivity(system, grid: GridSpec,
                              t_values: Sequence[float],
                              dt: Optional[float] = None, theta: float = 1.0,
                              tol: float = 0.01, pos_tol: float = 1e-10,
                              row: Optional[RowSumBound] = None,
                              sources: Sequence[tuple] = (),
                              width: Optional[float] = None,
                              store: Optional[KernelStore] = None) -> CheckResult:
    """Total kernel mass decays at the certified rate and stays nonnegative.

    Evolving the all-ones data computes sum_k of the L1 kernel masses in one
    run per time; the bound is sqrt(m) e^(-Mt) (1 + tol) with M from the
    potential row sums.  Positivity violations are folded into the same
    scale so a single worst number decides the check.
    """
    sys_fp = system_fingerprint(system)
    handle = OperatorHandle(system, grid, variant="P")
    if row is None:
        row = compute_row_sum_bound(system, radius=max(SAMPLE_RADIUS, 2.0 * grid.radius))
    fp = _fingerprint("mass-positivity", sys_fp, grid.d, grid.radius,
                      grid.spacing, tuple(t_values), tol, pos_tol, row.M, theta)
    sqm = math.sqrt(handle.m)
    ones = np.ones((grid.n_nodes, handle.m))
    worst = -math.inf
    pos_ratio = 0.0
    loc = (None, None, None, None, None)
    samples = []
    for t in t_values:
        u = stored_evolve(handle, ones, t, dt, theta, store, sys_fp=sys_fp)
        bound = sqm * math.exp(-row.M * t)
        i = int(np.argmax(u))
        node, h = divmod(i, handle.m)
        excess = float(u.flat[i]) / bound - 1.0
        samples.append({"t": t, "x": _loc_pt(grid.points()[node], grid.d),
                        "y": None, "h": h, "k": None,
                        "value": float(u.flat[i]), "bound": bound})
        if excess > worst:
            worst = excess
            loc = (t, _loc_pt(grid.points()[node], grid.d), None, h, None)
        pos_ratio = max(pos_ratio, -float(np.min(u)) / pos_tol)
    for col in stored_columns(handle, max(t_values), sources, width, dt, theta,
                              store, sys_fp=sys_fp):
        scale = max(float(np.max(col.values)), _TINY)
        pos_ratio = max(pos_ratio, -float(np.min(col.values)) / (pos_tol * scale))
    worst = max(worst, tol * pos_ratio)
    return _result("check_mass_and_positivity", worst, tol, loc, fp,
                   {"samples": samples, "M": row.M, "certified_tail": row.certified_tail,
                    "positivity_ratio": pos_ratio})


def check_support(system, k: int, grid: GridSpec, t: float,
                  center=None, dt: Optional[float] = None,
                  width: Optional[float] = None, tol_null: float = 1e-10,
                  floor: float = 1e-12, theta: float = 1.0,
                  support: Optional[CouplingSupport] = None,
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
    handle = OperatorHandle(system, grid, variant="P")
    col = stored_column(handle, t, center, k, width, dt, theta, store, sys_fp=sys_fp)
    scale = max(float(np.max(np.abs(col.values))), _TINY)
    per_comp = [float(np.max(np.abs(col.values[:, h]))) / scale
                for h in range(handle.m)]
    worst = 0.0
    loc = (t, None, _loc_pt(center, d), None, k)
    samples = []
    min_reach = math.inf
    for h in range(handle.m):
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

def check_duality(system, grid: GridSpec, t: float, pairs: Sequence[tuple],
                  dt: Optional[float] = None, width: Optional[float] = None,
                  tol: float = 0.02, theta: float = 0.5,
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
    forward = OperatorHandle(system, grid, variant="P")
    adjoint = OperatorHandle(system, grid, variant="P_adjoint")
    worst = 0.0
    loc = (t, None, None, None, None)
    samples = []
    fwd_cols = stored_columns(forward, t, [(y, k) for _, _, y, k in pairs],
                              width, dt, theta, store, sys_fp=sys_fp)
    adj_cols = stored_columns(adjoint, t, [(x, h) for x, h, _, _ in pairs],
                              width, dt, theta, store, sys_fp=sys_fp)
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


def check_chapman_kolmogorov(system, grid: GridSpec, t: float, s: float,
                             variant: str = "P", dt: Optional[float] = None,
                             theta: float = 1.0, tol: float = 1e-9,
                             seed: int = 0,
                             store: Optional[KernelStore] = None) -> CheckResult:
    """Composing the evolution over s then t equals evolving over t + s.

    The default step divides s exactly, which makes both paths the same
    matrix product including the trailing partial step; the tolerance then
    only absorbs accumulated linear-solver residue.
    """
    sys_fp = system_fingerprint(system)
    fp = _fingerprint("chapman", sys_fp, grid.d, grid.radius, grid.spacing,
                      t, s, variant, tol, seed, theta)
    handle = OperatorHandle(system, grid, variant=variant)
    rng = np.random.default_rng(seed)
    f = rng.uniform(-1.0, 1.0, size=(grid.n_nodes, handle.m))
    if s <= 0.0:
        # degenerate split: the composition is the single evolution
        a = stored_evolve(handle, f, t, dt, theta, store, sys_fp=sys_fp)
        b = a
    else:
        if dt is None:
            base = min(t, s, grid.spacing, (t + s) / 64.0)
            dt = s / math.ceil(s / base)
        a = stored_evolve(handle, f, t + s, dt, theta, store, sys_fp=sys_fp)
        mid = stored_evolve(handle, f, s, dt, theta, store, sys_fp=sys_fp)
        b = stored_evolve(handle, mid, t, dt, theta, store, sys_fp=sys_fp)
    scale = max(float(np.max(np.abs(f))), _TINY)
    diff = np.abs(a - b)
    i = int(np.argmax(diff))
    node, h = divmod(i, handle.m)
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


def _calibrated_scaled(system, timed: TimeLyapunovSpec, scale: float,
                       radius: float) -> TimeLyapunovSpec:
    """Rescale the weight amplitude and recalibrate its growth constant."""
    if scale == 1.0 and timed.c0 is not None:
        return timed
    base = replace(timed.base, eps_hat=timed.base.eps_hat * float(scale))
    candidate = replace(timed, base=base, c0=None)
    return verify_certificate(system, candidate, radius=radius).certified


def check_lyapunov_integrability(system, timed: TimeLyapunovSpec,
                                 grid: GridSpec, t_values: Sequence[float],
                                 x_points: Sequence, eps: Optional[float] = None,
                                 tol: float = 0.05, theta: float = 1.0,
                                 dt: Optional[float] = None,
                                 boundary_fraction: float = 0.01,
                                 g_margin: float = 0.0,
                                 cert_radius: Optional[float] = None,
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
    spec_used = _calibrated_scaled(system, timed, eps / timed.eps_T, radius)
    fp = _fingerprint("integrability", sys_fp, grid.d, grid.radius,
                      grid.spacing, tuple(t_values),
                      tuple(_loc_pt(x, d) for x in x_points), eps, tol,
                      g_margin, theta)
    handle = OperatorHandle(system, grid, variant="P")
    w = spec_used.weight()
    pts = grid.points()
    shell = np.max(np.abs(pts), axis=-1) >= 0.9 * grid.radius
    worst = -math.inf
    tail_worst = 0.0
    loc = (None, None, None, None, None)
    samples = []
    for t in t_values:
        log_nu = np.asarray(w.log_value(t, pts, d), dtype=float)
        init = np.repeat(np.exp(log_nu)[:, None], handle.m, axis=1)
        # the full weight and its outer shell share one batched evolve
        both = stored_evolve(handle, np.stack([init, init * shell[:, None]], axis=-1),
                             t, dt, theta, store, sys_fp=sys_fp)
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
                       cert_radius: float = SAMPLE_RADIUS) -> tuple:
    """The comparison weights nu1, nu2 of weighted_majorant, calibrated.

    Their growth constants depend on the synthesis, the eps scales and the
    certificate radius, not on the evaluation time, so a caller that needs
    the majorant at several times calibrates once and passes the pair to
    every weighted_majorant call.
    """
    _, s1, s2 = _checked_eps_scales(eps_scales)
    return (_calibrated_scaled(system, synthesis.timed, s1, cert_radius),
            _calibrated_scaled(system, synthesis.timed, s2, cert_radius))


def weighted_majorant(system, synthesis: SynthesisResult, s: float,
                      t: Optional[float] = None,
                      eps_scales: Sequence[float] = (0.5, 0.75, 1.0),
                      adjoint: bool = False, cert_radius: float = SAMPLE_RADIUS,
                      window: Optional[Sequence[float]] = None,
                      calibrated: Optional[tuple] = None) -> tuple:
    """Ledger and constant majorant value over a time window.

    The window defaults to (t/8, t/4, t/2, 3t/4), proportional to the
    evaluation time; an explicit 4-tuple overrides it.  The three weights
    share the synthesized shape at eps_scales times the certified
    amplitude.  Because the comparison weights equal one at time zero, the
    majorant is constant in space; the value is returned along with the
    estimated ledger.  calibrated is the pair calibrate_majorant returns
    for the same arguments; it is computed here when not given.
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
    ledger = estimate_ledger(system, w, nu1, nu2, s,
                             window=(window[0], window[3]),
                             inner=(window[1], window[2]), adjoint=adjoint)
    spec1, spec2 = calibrated or calibrate_majorant(system, synthesis, eps_scales,
                                                    cert_radius)
    ones = lambda pts: np.ones(pts.shape[0])
    # adjoint estimates land in the plain constant slots until merged, and
    # the starred majorant uses the same bracket structure
    H = eval_H(ledger, ones, ones, spec1.G, spec2.G, np.zeros(system.dims.d))
    return ledger, float(H)


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
    calibrated = calibrate_majorant(system, synthesis, eps_scales, cert_radius)
    if two_sided:
        calibrated_star = calibrate_majorant(system, adjoint_synthesis, eps_scales,
                                             cert_radius)
    majorants = {}
    for t in t_values:
        _, H = weighted_majorant(system, synthesis, s, t, eps_scales,
                                 adjoint=False, cert_radius=cert_radius,
                                 calibrated=calibrated)
        Hstar = None
        if two_sided:
            _, Hstar = weighted_majorant(system, adjoint_synthesis, s, t,
                                         eps_scales, adjoint=True,
                                         cert_radius=cert_radius,
                                         calibrated=calibrated_star)
        majorants[t] = (H, Hstar)
    if two_sided:
        adj = adjoint_synthesis.timed
        wstar = adj.weight(eps_scales[0] * adj.eps_T)

    def sweep(pair):
        spacing, radius = pair
        grid = GridSpec(d=d, radius=radius, spacing=spacing)
        handle = OperatorHandle(system, grid, variant="P")
        pts = grid.points()
        sup = 0.0
        sup2 = 0.0
        sup_loc = (None, None, None, None, None)
        rows = []
        for t in t_values:
            H, Hstar = majorants[t]
            for y in sources:
                total = np.zeros((grid.n_nodes, handle.m))
                for col in stored_columns(handle, t, [(y, k) for k in range(handle.m)],
                                          width, dt, theta, store, sys_fp=sys_fp):
                    total += np.abs(col.values)
                wy = float(np.exp(w.log_value(t, _center(y, d)[None, :], d))[0])
                if majorant_override is not None:
                    denom = np.asarray(majorant_override(t, pts), dtype=float)[:, None]
                    ratio = wy * total / denom
                else:
                    ratio = wy * total / H
                i = int(np.argmax(ratio))
                node, h = divmod(i, handle.m)
                val = float(ratio.flat[i])
                rows.append({"t": t, "x": _loc_pt(pts[node], d),
                             "y": _loc_pt(y, d), "h": h, "k": None,
                             "value": val, "bound": H})
                if val > sup:
                    sup = val
                    sup_loc = (t, _loc_pt(pts[node], d), _loc_pt(y, d), h, None)
                if two_sided:
                    wx = np.exp(0.5 * np.asarray(wstar.log_value(t, pts, d)))
                    r2 = math.sqrt(wy) * wx[:, None] * total / math.sqrt(H * Hstar)
                    sup2 = max(sup2, float(np.max(r2)))
        return sup, sup2, sup_loc, rows

    sup_c, sup2_c, loc_c, rows_c = sweep(coarse)
    if not (math.isfinite(sup_c) and sup_c > 0):
        raise DomainError(f"coarse calibration sup degenerate: {sup_c}")
    cal = C_cal if C_cal is not None else sup_c
    cal2 = sup2_c if two_sided else None
    sup_f, sup2_f, loc_f, rows_f = sweep(fine)
    worst = sup_f / cal - 1.0
    loc = loc_f
    if two_sided and cal2 and cal2 > 0:
        worst = max(worst, sup2_f / cal2 - 1.0)
    return _result("check_weighted_bound", worst, tol, loc, fp,
                   {"samples": rows_c + rows_f, "C_cal": cal,
                    "sup_coarse": sup_c, "sup_fine": sup_f,
                    "sup2_coarse": sup2_c, "sup2_fine": sup2_f,
                    "majorants": {t: hh[0] for t, hh in majorants.items()}})


def check_decay_shape(system, grid: GridSpec, t_values: Sequence[float],
                      x0, component: int, weight: SpaceTimeWeight,
                      dt: Optional[float] = None, width: Optional[float] = None,
                      theta: float = 0.5, core_radius: float = 1.0,
                      tail_range: tuple = (2.0, 4.0), slack: float = 0.5,
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
    handle = OperatorHandle(system, grid, variant="P_adjoint")
    pts = grid.points()
    rr = np.sqrt(np.sum(pts * pts, axis=-1))
    worst = -math.inf
    loc = (None, None, None, None, None)
    samples = []
    for t in t_values:
        col = stored_column(handle, t, x0, component, width, dt, theta, store,
                            sys_fp=sys_fp)
        total = np.sum(np.abs(col.values), axis=1)
        noise = 1e-13 * max(float(np.max(total)), _TINY)
        phi = np.log(np.maximum(total, _TINY)) + weight.log_value(t, pts, d)
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
