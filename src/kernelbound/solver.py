"""Dirichlet approximation of the coupled semigroups on boxes.

The whole-space kernels are limits of Dirichlet kernels on [-R, R]^d, so
everything numeric happens on a uniform interior grid of such a box:

* the generator is assembled in flux form by one stencil that loops over
  the axes.  Diffusion uses face-centered coefficients (exact local
  conservation): along each axis the faces sit at -R + (i + 1/2) h, Q is
  evaluated once per face, and the two nodes that share a face read the
  same value, so the diffusion part is exactly symmetric.  Drift is
  centered but switches to upwind differences wherever the cell Peclet
  number |b| h / (2 q) exceeds 1, and the potential couples the m
  components of each node through a dense m x m block.  Unknowns are
  ordered node-major (index = node * m + component), keeping the coupling
  bandwidth at m;
* the adjoint variant is the exact transpose of the cooperative matrix.
  The transpose of centered/upwind drift is the matching discretization of
  -div(b u), so discrete duality holds to solver precision, not just to
  discretization order;
* time stepping is the theta method.  theta = 1/2 for accuracy, theta = 1
  when order-preservation matters: with the cooperative potential the
  implicit factor is an M-matrix, so backward steps map nonnegative data
  to nonnegative data and dominated data to dominated data.

An OperatorHandle assembles its matrix on first use, so a caller whose
every field comes from a store builds nothing; an adjoint handle given the
forward handle of its grid transposes that handle's matrix instead of
assembling its own.  A handle keeps one factorization, for the latest
(theta, dt): a new step size drops the old LU before the new one is built,
and release() drops it for good, since each LU of a 2-D grid holds several
megabytes.  That one LU is enough because verify's plan orders every
evolution by (variant, grid, theta, dt), so no caller returns to an earlier
LU; each handle counts its assemblies, factorizations and evolutions.
Factorizations use SuperLU with the minimum-degree ordering of A^T + A
(MMD_AT_PLUS_A), which suits the structurally symmetric stencils here: on
the 2-D grids it needs less than half the L+U fill of the default COLAMD
ordering.  A step can carry several columns at once (values of shape
(n_nodes, m, c)).  An evolution looks its factorization up once per step
size; each step then makes one triangular solve for all columns, and one
residual per column, formed in place and held to a tolerance scaled by that
column's right-hand side.  Kernel columns are semigroup images of mollified point
sources (discrete Gaussians with unit discrete mass).  Fields round-trip
through a small binary format and CSV, both byte-stable for identical
inputs; binary writes are atomic.
"""

from __future__ import annotations

import ctypes
import math
import os
import struct
import tempfile
from dataclasses import dataclass, field as _field
from typing import Optional

import numpy as np

from .coefficients import VARIANTS, eval_VP, operator_spec_of
from .errors import (
    AssemblyError,
    BudgetError,
    DomainError,
    SolveError,
)

DEFAULT_BUDGET = 4_000_000
_RESIDUAL_TOL = 1e-10
# Part of every kernel-store key: bump it whenever a solver change can alter
# the computed fields, so columns stored by an older solver are recomputed.
SOLVER_VERSION = 2
# Version of the binary field format (the KBF header); store keys carry it too.
FIELD_FORMAT_VERSION = 1


# scipy.sparse and scipy.sparse.linalg take about half the start-up time of
# the command line tool and only operators use them, so assemble_generator
# and OperatorHandle._factor import them when they run; check and synth load
# no scipy module.  solver.sparse and solver.sparse_linalg resolve here, on
# access (PEP 562), and _factor looks splu up on scipy.sparse.linalg at each
# call, so a patch of solver.sparse_linalg.splu sees every factorization.
def __getattr__(name):
    if name == "sparse":
        from scipy import sparse
        return sparse
    if name == "sparse_linalg":
        from scipy.sparse import linalg as sparse_linalg
        return sparse_linalg
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


@dataclass(frozen=True)
class GridSpec:
    """Uniform interior grid of the box [-radius, radius]^d.

    The boundary itself carries the homogeneous Dirichlet condition and is
    eliminated; interior nodes sit at -radius + i * spacing.  radius must
    be an integer multiple of spacing so that 0 is a node and grids of
    different radii share their common nodes.
    """

    d: int
    radius: float
    spacing: float

    def __post_init__(self):
        if self.d not in (1, 2):
            raise DomainError(f"grids support d in {{1, 2}}, got d={self.d}")
        if self.spacing <= 0 or self.radius <= 0:
            raise DomainError("radius and spacing must be positive")
        ratio = self.radius / self.spacing
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio) or round(ratio) < 2:
            raise DomainError(
                f"radius must be an integer multiple (>= 2) of the spacing, "
                f"got radius={self.radius}, spacing={self.spacing}")

    @property
    def cells_per_axis(self) -> int:
        return 2 * int(round(self.radius / self.spacing))

    @property
    def n_per_axis(self) -> int:
        return self.cells_per_axis - 1

    @property
    def n_nodes(self) -> int:
        return self.n_per_axis ** self.d

    def axis_coords(self) -> np.ndarray:
        return -self.radius + self.spacing * np.arange(1, self.cells_per_axis)

    def points(self) -> np.ndarray:
        """All interior nodes, shape (n_nodes, d), row-major in the axes."""
        ax = self.axis_coords()
        if self.d == 1:
            return ax[:, None]
        mesh = np.meshgrid(ax, ax, indexing="ij")
        return np.stack([mm.ravel() for mm in mesh], axis=-1)

    def node_of(self, point) -> int:
        """Index of the node at the given point; must lie on the grid."""
        p = np.asarray(point, dtype=float).reshape(self.d)
        idx = (p + self.radius) / self.spacing - 1.0
        near = np.round(idx)
        if np.any(np.abs(idx - near) > 1e-9) or np.any(near < 0) \
                or np.any(near > self.n_per_axis - 1):
            raise DomainError(f"point {p!r} is not an interior grid node")
        flat = 0
        for a in range(self.d):
            flat = flat * self.n_per_axis + int(near[a])
        return flat


@dataclass
class DiscreteField:
    """Values of an m-component field on a grid, plus how it was produced."""

    grid: GridSpec
    values: np.ndarray  # (n_nodes, m)
    time: float = 0.0
    meta: dict = _field(default_factory=dict)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.ndim != 2 or self.values.shape[0] != self.grid.n_nodes:
            raise DomainError(
                f"field values must have shape (n_nodes, m) = ({self.grid.n_nodes}, m), "
                f"got {self.values.shape}")

    @property
    def m(self) -> int:
        return self.values.shape[1]

    def component(self, k: int) -> np.ndarray:
        out = self.values[:, k]
        if self.grid.d == 2:
            n1 = self.grid.n_per_axis
            return out.reshape(n1, n1)
        return out


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_coefficient_block(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise AssemblyError(f"{name} evaluates non-finite on the grid")


def _component_stencil(spec, grid: GridSpec, k: int):
    """Rows, columns and values of equation k's diffusion and drift, any d.

    Along axis a, node i has the faces i and i + 1 of that axis around it,
    face f sitting at -R + (f + 1/2) h; Q is evaluated once per face, so the
    two nodes that share a face read the same coefficient.
    """
    d, h, n1 = grid.d, grid.spacing, grid.n_per_axis
    n = grid.n_nodes
    pts = grid.points()
    P = np.arange(n)
    index = np.indices((n1,) * d).reshape(d, -1)  # per-axis node indices
    stride = [n1 ** (d - 1 - a) for a in range(d)]
    has = {(a, s): index[a] < n1 - 1 if s > 0 else index[a] > 0
           for a in range(d) for s in (1, -1)}

    Qn = np.asarray(spec.Q(k, pts), dtype=float).reshape(n, d, d)
    bn = np.asarray(spec.b(k, pts), dtype=float).reshape(n, d)
    _check_coefficient_block("Q", Qn)
    _check_coefficient_block("b", bn)
    eigs = np.linalg.eigvalsh(0.5 * (Qn + np.swapaxes(Qn, 1, 2)))
    if float(eigs[:, 0].min()) <= 0:
        raise AssemblyError(f"equation {k}: diffusion not positive definite on the grid")

    ax = grid.axis_coords()
    faces = -grid.radius + (np.arange(n1 + 1) + 0.5) * h
    rows, cols, vals = [], [], []
    diag = np.zeros(n)

    def couple(mask, target, value):
        rows.append(P[mask])
        cols.append(target[mask])
        vals.append(value[mask])

    for a in range(d):
        # Q on every face of axis a, then on the minus and plus face of each node
        axes = [faces if c == a else ax for c in range(d)]
        fpts = np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=-1)
        qf = np.asarray(spec.Q(k, fpts), dtype=float).reshape([len(x) for x in axes] + [d, d])
        _check_coefficient_block("Q", qf)
        Qm, Qp = (qf[(slice(None),) * a + (s,)].reshape(n, d, d)
                  for s in (slice(None, -1), slice(1, None)))
        qm, qp = Qm[:, a, a], Qp[:, a, a]
        if np.any(qp <= 0) or np.any(qm <= 0):
            raise AssemblyError(f"equation {k}: diffusion must be positive on faces")

        # drift: centered, upwind where the cell Peclet number exceeds 1
        ba = bn[:, a]
        pe = np.abs(ba) * h / (2.0 * Qn[:, a, a])
        centered = pe <= 1.0
        up_pos = (~centered) & (ba > 0)
        up_neg = (~centered) & (ba < 0)
        diag += -(qm + qp) / h ** 2
        diag += np.where(up_pos, -ba / h, 0.0) + np.where(up_neg, ba / h, 0.0)
        couple(has[(a, 1)], P + stride[a], qp / h ** 2
               + np.where(centered, ba / (2 * h), np.where(up_pos, ba / h, 0.0)))
        couple(has[(a, -1)], P - stride[a], qm / h ** 2
               + np.where(centered, -ba / (2 * h), np.where(up_neg, -ba / h, 0.0)))

        # mixed diffusion D_a(q_ao D_o u), only where present
        for o in range(d):
            if o == a or not np.any(Qn[:, a, o] != 0.0):
                continue
            qm, qp = Qm[:, a, o], Qp[:, a, o]
            c = 1.0 / (4.0 * h ** 2)
            couple(has[(o, 1)], P + stride[o], (qp - qm) * c)
            couple(has[(o, -1)], P - stride[o], -(qp - qm) * c)
            couple(has[(a, 1)] & has[(o, 1)], P + stride[a] + stride[o], qp * c)
            couple(has[(a, 1)] & has[(o, -1)], P + stride[a] - stride[o], -qp * c)
            couple(has[(a, -1)] & has[(o, 1)], P - stride[a] + stride[o], -qm * c)
            couple(has[(a, -1)] & has[(o, -1)], P - stride[a] - stride[o], qm * c)

    rows.append(P)
    cols.append(P)
    vals.append(diag)
    return rows, cols, vals


def assemble_generator(system, grid: GridSpec, variant: str = "P") -> sparse.csr_matrix:
    """Sparse matrix of the chosen operator variant on the grid.

    The adjoint is assembled as the transpose of the cooperative matrix,
    which is simultaneously a consistent discretization of the adjoint
    operator and the exact discrete dual of the forward matrix.
    """
    if variant not in VARIANTS:
        raise DomainError(f"unknown variant {variant!r}, expected one of {VARIANTS}")
    if variant == "P_adjoint":
        return assemble_generator(system, grid, "P").T.tocsr()
    from scipy import sparse

    spec = operator_spec_of(system)
    if spec.dims.d != grid.d:
        raise AssemblyError(f"system dimension {spec.dims.d} != grid dimension {grid.d}")
    m = spec.dims.m
    n = grid.n_nodes
    pts = grid.points()

    Vmat = np.asarray(spec.V(pts), dtype=float)
    _check_coefficient_block("V", Vmat)
    pot = eval_VP(Vmat) if variant == "P" else Vmat

    rows_all, cols_all, vals_all = [], [], []
    for k in range(m):
        for r, c, v in zip(*_component_stencil(spec, grid, k)):
            rows_all.append(r * m + k)
            cols_all.append(c * m + k)
            vals_all.append(v)

    node_idx = np.arange(n)
    for hh in range(m):
        for kk in range(m):
            col = pot[:, hh, kk]
            if not np.any(col):
                continue
            rows_all.append(node_idx * m + hh)
            cols_all.append(node_idx * m + kk)
            vals_all.append(-col)

    A = sparse.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n * m, n * m))
    A.sum_duplicates()
    return A.tocsr()


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def default_dt(t: float, spacing: float) -> float:
    """Theta step used when a caller leaves dt unset."""
    return min(t / 64.0, spacing)


try:  # glibc only; elsewhere freed memory is left to the allocator
    _malloc_trim = ctypes.CDLL(None).malloc_trim
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def release_freed_memory():
    """Return the heap pages that freed LU factors and fields leave behind.

    After a large block is freed, glibc raises its mmap threshold, so later
    blocks of that size come from the heap, and any small live allocation
    above them keeps the freed pages resident.  Whether that happens depends
    on the address layout: without a trim, one verify of the poly2d bench
    config carried some 35 MB of freed pages from check to check and into
    the next command, and the next run of the same verify carried none.  A
    call takes well under a millisecond.
    """
    if _malloc_trim is not None:
        _malloc_trim(0)


class OperatorHandle:
    """Generator of one variant on one grid, assembled on first use, plus
    the factorization of the latest theta step.

    forward, for a P_adjoint handle, is the P handle of the same grid: the
    adjoint matrix is then the transpose of its matrix, bit for bit what
    assemble_generator returns for P_adjoint.  assemblies, factorizations
    and evolutions count the work the handle did.
    """

    def __init__(self, system, grid: GridSpec, variant: str = "P",
                 budget: int = DEFAULT_BUDGET,
                 forward: Optional["OperatorHandle"] = None):
        spec = operator_spec_of(system)
        dof = grid.n_nodes * spec.dims.m
        if dof > budget:
            raise BudgetError(
                f"grid needs {dof} unknowns, over the budget of {budget}; "
                f"coarsen the grid or raise the budget")
        if forward is not None and (variant != "P_adjoint" or forward.variant != "P"
                                    or forward.grid != grid):
            raise DomainError("only a P_adjoint handle takes the P handle of its grid")
        self.grid = grid
        self.variant = variant
        self.m = spec.dims.m
        self.assemblies = self.factorizations = self.evolutions = 0
        self._system = system
        self._matrix: Optional[sparse.csr_matrix] = (
            None if forward is None else forward.matrix.T.tocsr())
        self._lu: Optional[tuple] = None  # ((theta, dt), (lu, M1, M0))

    @property
    def matrix(self) -> sparse.csr_matrix:
        if self._matrix is None:
            self._matrix = assemble_generator(self._system, self.grid, self.variant)
            self.assemblies += 1
        return self._matrix

    def release(self):
        """Drop the factorization; the matrix stays for later steps."""
        self._lu = None

    def _flat(self, values: np.ndarray) -> np.ndarray:
        """Node-major vector, or one column per trailing index of (n, m, c)."""
        v = np.asarray(values, dtype=float)
        if v.ndim not in (2, 3) or v.shape[:2] != (self.grid.n_nodes, self.m):
            raise DomainError(
                f"values must have shape ({self.grid.n_nodes}, {self.m}) or "
                f"({self.grid.n_nodes}, {self.m}, columns), got {v.shape}")
        return v.reshape(-1) if v.ndim == 2 else v.reshape(-1, v.shape[2])

    def apply(self, values: np.ndarray) -> np.ndarray:
        """One matvec with the generator, shape preserved."""
        return np.asarray(self.matrix @ self._flat(values)).reshape(np.shape(values))

    def _factor(self, theta: float, dt: float):
        key = (float(theta), float(dt))
        if self._lu is not None and self._lu[0] == key:
            return self._lu[1]
        self._lu = None  # free the old LU before building the next one
        from scipy import sparse
        from scipy.sparse import linalg as sparse_linalg

        A = self.matrix
        eye = sparse.identity(A.shape[0], format="csr")
        M1 = (eye - theta * dt * A).tocsc()
        try:
            lu = sparse_linalg.splu(M1, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolveError(f"implicit factor is singular: {exc}") from None
        self.factorizations += 1
        M0 = (eye + (1.0 - theta) * dt * A).tocsr() if theta < 1.0 else None
        self._lu = (key, (lu, M1.tocsr(), M0))
        return self._lu[1]

    def _steps(self, u: np.ndarray, theta: float, dt: float, count: int) -> np.ndarray:
        """count theta steps of size dt from u, one solve per step for all columns.

        The residual is checked per column, so a large column cannot hide a
        bad small one.  Products with M0 and M1 go column by column: lu.solve
        returns Fortran order, and SciPy copies such a block before a
        multi-column product, which then costs about twice what the
        single-column products do, with the same bits.
        """
        lu, M1, M0 = self._factor(theta, dt)
        n = len(u)
        for _ in range(count):
            if M0 is None:
                rhs = u
            else:
                rhs = np.empty_like(u, order="F")
                for b, v in zip(rhs.reshape(n, -1).T, u.reshape(n, -1).T):
                    b[:] = M0 @ v
            u = lu.solve(rhs)
            for j, (b, v) in enumerate(zip(rhs.reshape(n, -1).T, u.reshape(n, -1).T)):
                r = M1 @ v
                r -= b
                resid = float(np.abs(r, out=r).max())
                if not resid <= _RESIDUAL_TOL * max(1.0, float(np.abs(b).max())):
                    where = f" in column {j}" if u.ndim == 2 else ""
                    raise SolveError(f"step residual {resid:.3g} exceeds tolerance{where}")
        return u

    def evolve(self, values: np.ndarray, t: float, dt: Optional[float] = None,
               theta: float = 0.5) -> tuple[np.ndarray, dict]:
        """Semigroup image of the values at time t; returns (values, step record).

        values has shape (n_nodes, m), or (n_nodes, m, c) to evolve c columns
        together; the result has the same shape.  dt defaults to
        default_dt(t, spacing); whatever does not divide t evenly is taken as
        one trailing shorter step, recorded in the metadata.
        """
        if t <= 0:
            raise DomainError(f"evolve needs t > 0, got {t}")
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta}")
        if dt is None:
            dt = default_dt(t, self.grid.spacing)
        if dt <= 0:
            raise DomainError(f"need dt > 0, got {dt}")
        self.evolutions += 1
        dt = min(dt, t)
        full = int(math.floor(t / dt + 1e-9))
        rem = t - full * dt
        if rem <= 1e-12 * max(1.0, t):
            rem = 0.0
        u = self._steps(self._flat(values), theta, dt, full)
        if rem > 0.0:
            u = self._steps(u, theta, rem, 1)
        if not np.all(np.isfinite(u)):
            raise SolveError("evolution produced non-finite values")
        meta = {"variant": self.variant, "theta": theta, "dt": dt,
                "steps": full + (1 if rem else 0), "final_step": rem if rem else dt,
                "t": t}
        return u.reshape(np.shape(values)), meta


# ---------------------------------------------------------------------------
# kernel access
# ---------------------------------------------------------------------------

def mollified_source(grid: GridSpec, m: int, center, component: int,
                     width: Optional[float] = None) -> np.ndarray:
    """Discrete Gaussian of the given width in one component, unit discrete mass."""
    if not 0 <= component < m:
        raise DomainError(f"component {component} outside 0..{m - 1}")
    c = np.asarray(center, dtype=float).reshape(grid.d)
    if np.any(np.abs(c) >= grid.radius):
        raise DomainError(f"source {c!r} lies outside the open box of radius {grid.radius}")
    w = 2.0 * grid.spacing if width is None else float(width)
    if w <= 0:
        raise DomainError("mollifier width must be positive")
    pts = grid.points()
    g = np.exp(-np.sum((pts - c) ** 2, axis=-1) / (2.0 * w ** 2))
    mass = float(g.sum()) * grid.spacing ** grid.d
    if mass <= 0:
        raise DomainError("mollifier has zero discrete mass on this grid")
    out = np.zeros((grid.n_nodes, m))
    out[:, component] = g / mass
    return out


def kernel_columns(handle: OperatorHandle, t: float, sources,
                   width: Optional[float] = None, dt: Optional[float] = None,
                   theta: float = 0.5) -> list:
    """Kernel columns for several (center, component) sources, one batched evolve.

    Each column holds all components at time t sourced at (center,
    component); the result lists them in the order of sources.
    """
    g = handle.grid
    w = 2.0 * g.spacing if width is None else float(width)
    srcs = np.stack([mollified_source(g, handle.m, center, k, w)
                     for center, k in sources], axis=-1)
    vals, meta = handle.evolve(srcs, t, dt=dt, theta=theta)
    out = []
    for j, (center, k) in enumerate(sources):
        src = tuple(np.asarray(center, dtype=float).reshape(g.d))
        out.append(DiscreteField(g, np.ascontiguousarray(vals[:, :, j]), time=t,
                                 meta=dict(meta, source=src, source_component=k,
                                           mollifier_width=w)))
    return out


def kernel_column(handle: OperatorHandle, t: float, center, component: int,
                  width: Optional[float] = None, dt: Optional[float] = None,
                  theta: float = 0.5) -> DiscreteField:
    """Column of the kernel: all components at time t sourced at (center, component)."""
    return kernel_columns(handle, t, [(center, component)], width, dt, theta)[0]


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

_MAGIC = b"KBF1"
_VARIANT_CODES = {"plain": 0, "P": 1, "P_adjoint": 2}
_VARIANT_NAMES = {v: k for k, v in _VARIANT_CODES.items()}


def field_to_bytes(field: DiscreteField) -> bytes:
    """Binary encoding: fixed header, then row-major float64 payload.

    Deterministic for identical inputs (no timestamps, no environment)."""
    g = field.grid
    meta = field.meta
    variant = _VARIANT_CODES.get(meta.get("variant"), 255)
    comp = int(meta.get("source_component", -1))
    width = float(meta.get("mollifier_width", math.nan))
    source = meta.get("source")
    src = np.full(g.d, math.nan) if source is None else np.asarray(source, dtype=float)
    head = struct.pack("<4sIIII", _MAGIC, FIELD_FORMAT_VERSION, g.d, field.m,
                       g.n_per_axis)
    head += struct.pack("<ddd", g.radius, g.spacing, field.time)
    head += struct.pack("<Bi", variant, comp)
    head += struct.pack("<d", width)
    head += struct.pack(f"<{g.d}d", *src)
    payload = np.ascontiguousarray(field.values, dtype="<f8").tobytes()
    return head + payload


def field_from_bytes(blob: bytes) -> DiscreteField:
    fixed = struct.calcsize("<4sIIII")
    magic, version, d, m, n1 = struct.unpack_from("<4sIIII", blob, 0)
    if magic != _MAGIC:
        raise DomainError("not a kernel field blob (bad magic)")
    if version != FIELD_FORMAT_VERSION:
        raise DomainError(f"unsupported field format version {version}")
    off = fixed
    radius, spacing, time = struct.unpack_from("<ddd", blob, off)
    off += struct.calcsize("<ddd")
    variant, comp = struct.unpack_from("<Bi", blob, off)
    off += struct.calcsize("<Bi")
    (width,) = struct.unpack_from("<d", blob, off)
    off += struct.calcsize("<d")
    src = struct.unpack_from(f"<{d}d", blob, off)
    off += struct.calcsize(f"<{d}d")
    grid = GridSpec(d=d, radius=radius, spacing=spacing)
    if grid.n_per_axis != n1:
        raise DomainError("grid header is inconsistent")
    values = np.frombuffer(blob, dtype="<f8", offset=off).reshape(grid.n_nodes, m).copy()
    meta = {}
    if variant in _VARIANT_NAMES:
        meta["variant"] = _VARIANT_NAMES[variant]
    if comp >= 0:
        meta["source_component"] = comp
    if not math.isnan(width):
        meta["mollifier_width"] = width
    if not any(math.isnan(s) for s in src):
        meta["source"] = tuple(src)
    return DiscreteField(grid, values, time=time, meta=meta)


def write_atomic(path, blob: bytes):
    """Write blob to path atomically.

    The bytes go to a temporary file in the same directory, which is then
    renamed over path, so a reader never sees a partial file under path and
    a failed write leaves nothing behind.
    """
    folder, name = os.path.split(os.fspath(path))
    fd, tmp = tempfile.mkstemp(dir=folder or ".", prefix=name + ".", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.write(blob)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def save_field(path, field: DiscreteField):
    """Write the binary field atomically (write_atomic)."""
    write_atomic(path, field_to_bytes(field))


def load_field(path) -> DiscreteField:
    with open(path, "rb") as fh:
        return field_from_bytes(fh.read())


def field_to_csv(field: DiscreteField) -> str:
    g = field.grid
    cols = [f"x{a}" for a in range(g.d)] + [f"u{k}" for k in range(field.m)]
    # one % over a template of every row formats each float as %.17g
    row = ",".join(["%.17g"] * len(cols))
    data = np.concatenate([g.points(), field.values], axis=1)
    body = "\n".join([row] * g.n_nodes) % tuple(data.ravel().tolist())
    return ",".join(cols) + "\n" + body + "\n"


def save_field_csv(path, field: DiscreteField):
    with open(path, "w") as fh:
        fh.write(field_to_csv(field))
