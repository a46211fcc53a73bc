"""Dirichlet approximation of the coupled semigroups on boxes.

The whole-space kernels are limits of Dirichlet kernels on [-R, R]^d, so
everything numeric happens on a uniform interior grid of such a box:

* the generator is assembled in flux form by one stencil that loops over
  the axes.  Each equation's diffusion is one scalar q_k times the
  identity, read at nodes and at faces; the system is any object with
  dims and the callables q, b and V that coefficients.py describes.
  Diffusion uses face-centered coefficients (exact local conservation):
  along each axis the faces sit at -R + (i + 1/2) h, q is evaluated once
  per face, and the two nodes that share a face read the same value, so
  the diffusion part is exactly symmetric.  Drift is centered but
  switches to upwind differences wherever the cell Peclet number
  |b| h / (2 q) exceeds 1, and the potential couples the m components of
  each node through a dense m x m block.  Unknowns are ordered node-major
  (index = node * m + component), keeping the coupling bandwidth at m;
* the adjoint variant is the exact transpose of the cooperative matrix.
  The transpose of centered/upwind drift is the matching discretization of
  -div(b u), so discrete duality holds to solver precision, not just to
  discretization order;
* time stepping is the theta method.  theta = 1/2 for accuracy, theta = 1
  when order-preservation matters: with the cooperative potential the
  implicit factor is an M-matrix, so backward steps map nonnegative data
  to nonnegative data and dominated data to dominated data.  One rule,
  default_dt, sets the step a caller leaves unset: min(t / 32, h), which
  holds the theta = 1/2 time error below the grid's space error.

An OperatorHandle assembles its matrix on first use, so a caller whose
every field comes from a store builds nothing; an adjoint handle given the
forward handle of its grid transposes that handle's matrix instead of
assembling its own.

On a grid whose coordinates are exact mirrors (GridSpec.mirrored: spacing
1/8 is, 0.1 is not), a matrix equal bit for bit to its reflection along an
axis (mirror_axes, checked once per handle) keeps the even and odd parts
(v +- flip v) / 2 along it apart, so evolutions run on parity blocks
(Bossavit 1986, "Symmetry, groups, and boundary value problems").  The
fold is the mirror axes the start is even along bit for bit (even_axes):
there only the even part is kept, and in 2-D along every other mirror axis
both; a 1-D operator is banded, so its LU has no fill for a split to save.
Each part evolves on its block S_p A E_p: S_p keeps the nodes at or past
the center index along each even axis and past it along each odd one, E_p
copies them to their mirror images, negated through odd reflections.  The
parts step as one stacked vector on the blocks' block-diagonal, one solve
and one residual per column a step, and their images sum to the result.
A start even along every mirror axis thus has one block, the fold S A E,
and an even result bit for bit; with no mirror axis the block is A.  In
2-D, a start that is also its own transpose, under a matrix that commutes
with the swap of the axes too (commutes(DIAGONAL); every radial family's
does), folds further onto the wedge of S A E at or below its diagonal
(symmetries, fold DIAGONAL): 1,056 of the quarter's 2,048 unknowns at
R = 4, h = 1/8.  Split parts move fields at roundoff, and where a kernel's
tail lies decades below its mirror image, their sum cancels to about eps
times the image; a fold cancels nothing.

A handle keeps one factorization, for the latest (fold, theta, dt): a new
key drops the old LU before the new one is built, and release() drops it
for good, since each LU of a 2-D grid holds several megabytes.  That one LU
is enough because verify's plan orders every evolution by (variant, grid,
theta, dt, fold), so no caller returns to an earlier LU, and each plan makes
its own handles, so a plan assembles each operator once and factors each
(fold, theta, dt) once; each handle counts its assemblies and theta steps
and records the key of every factorization it made.  (The plan reads the
fold off the start values alone; a 2-D operator that commuted with the
reflection of its first axis but not of its second would fold batches of
one step in an order that comes back to an earlier fold, and factor it
again.  Both coefficient families commute with every reflection; an
operator that does not commute with the swap factors the quarter once for
the folds (0, 1) and (0, 1, DIAGONAL), which the plan orders side by side.)
Factorizations use SuperLU with the minimum-degree ordering of A^T + A
(MMD_AT_PLUS_A), which suits the structurally symmetric stencils here: on
the whole 2-D grids it needs about half the L+U fill of the default COLAMD
ordering, 0.54 to 0.62 of it on the parity blocks and 0.65 on the wedge.
A step can carry several columns at once (values of shape (n_nodes, m,
c)).  An evolution looks its factorization up once per step size; each
step then makes one triangular solve for all columns, and one
residual per column, formed in place and held to a tolerance scaled by that
column's right-hand side.  Kernel columns are semigroup images of mollified
point sources (mollified_source: discrete Gaussians with unit discrete
mass); verify's plan evolves the m sources of a center as one batch, through
its store, which is the only way the package evolves them.  Fields are
plain (n_nodes, m) arrays; save_field_csv writes one with its node
coordinates, byte-stable for identical inputs: a value row that mirror
nodes share bit for bit (-0.0 is not 0.0 there) is formatted once, and the
coordinates once per grid, with the bytes of formatting each float alone.
"""

from __future__ import annotations

import ctypes
import math
from dataclasses import dataclass
from functools import cached_property
from itertools import product
from typing import Optional

import numpy as np

from .coefficients import VARIANTS, eval_VP
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
SOLVER_VERSION = 6
# an evolution over t at the default step takes STEPS theta steps, or more
# where the spacing caps the step (default_dt)
STEPS = 32
# in a fold, after both axes of a 2-D grid: the swap of x0 and x1
DIAGONAL = "diagonal"


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


def is_whole(x: float) -> bool:
    """Whether x, a length in cells, is whole to within 1e-9 max(1, |x|)."""
    return abs(x - round(x)) <= 1e-9 * max(1.0, abs(x))


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
        if not is_whole(ratio) or round(ratio) < 2:
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

    @cached_property
    def axis_text(self) -> tuple:
        """The axis coordinates as %.17g strings, formatted once per grid."""
        return tuple("%.17g" % x for x in self.axis_coords().tolist())

    @cached_property
    def mirrored(self) -> bool:
        """Whether each node's mirror image through 0 is a node, bit for bit."""
        ax = self.axis_coords()
        return bool(np.array_equal(ax, -ax[::-1]))

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
        if not all(is_whole(v) for v in idx) or np.any(near < 0) \
                or np.any(near > self.n_per_axis - 1):
            raise DomainError(f"point {p!r} is not an interior grid node")
        flat = 0
        for a in range(self.d):
            flat = flat * self.n_per_axis + int(near[a])
        return flat

    def source_point(self, center) -> np.ndarray:
        """center as a point of the grid's dimension, where a point source
        may sit: DomainError unless it lies in the open box."""
        c = np.asarray(center, dtype=float).reshape(self.d)
        if np.any(np.abs(c) >= self.radius):
            raise DomainError(f"source {c!r} lies outside the open box of radius {self.radius}")
        return c


# ---------------------------------------------------------------------------
# assembly
# ---------------------------------------------------------------------------

def _check_coefficient_block(name: str, arr: np.ndarray):
    if not np.all(np.isfinite(arr)):
        raise AssemblyError(f"{name} evaluates non-finite on the grid")


def _component_stencil(system, grid: GridSpec, k: int):
    """Rows, columns and values of equation k's diffusion and drift, any d.

    Along axis a, node i has the faces i and i + 1 of that axis around it,
    face f sitting at -R + (f + 1/2) h; q is evaluated once per face, so the
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

    qn = np.asarray(system.q(k, pts), dtype=float).reshape(n)
    bn = np.asarray(system.b(k, pts), dtype=float).reshape(n, d)
    _check_coefficient_block("q", qn)
    _check_coefficient_block("b", bn)
    if np.any(qn <= 0):
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
        # q on every face of axis a, then on the minus and plus face of each node
        axes = [faces if c == a else ax for c in range(d)]
        fpts = np.stack([mm.ravel() for mm in np.meshgrid(*axes, indexing="ij")], axis=-1)
        qf = np.asarray(system.q(k, fpts), dtype=float).reshape([len(x) for x in axes])
        _check_coefficient_block("q", qf)
        qm, qp = (qf[(slice(None),) * a + (s,)].reshape(n)
                  for s in (slice(None, -1), slice(1, None)))
        if np.any(qp <= 0) or np.any(qm <= 0):
            raise AssemblyError(f"equation {k}: diffusion must be positive on faces")

        # drift: centered, upwind where the cell Peclet number exceeds 1
        ba = bn[:, a]
        pe = np.abs(ba) * h / (2.0 * qn)
        centered = pe <= 1.0
        up_pos = (~centered) & (ba > 0)
        up_neg = (~centered) & (ba < 0)
        diag += -(qm + qp) / h ** 2
        diag += np.where(up_pos, -ba / h, 0.0) + np.where(up_neg, ba / h, 0.0)
        couple(has[(a, 1)], P + stride[a], qp / h ** 2
               + np.where(centered, ba / (2 * h), np.where(up_pos, ba / h, 0.0)))
        couple(has[(a, -1)], P - stride[a], qm / h ** 2
               + np.where(centered, -ba / (2 * h), np.where(up_neg, -ba / h, 0.0)))

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

    if system.dims.d != grid.d:
        raise AssemblyError(f"system dimension {system.dims.d} != grid dimension {grid.d}")
    m = system.dims.m
    n = grid.n_nodes
    pts = grid.points()

    Vmat = np.asarray(system.V(pts), dtype=float)
    _check_coefficient_block("V", Vmat)
    pot = eval_VP(Vmat) if variant == "P" else Vmat

    rows_all, cols_all, vals_all = [], [], []
    for k in range(m):
        for r, c, v in zip(*_component_stencil(system, grid, k)):
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

    # tocsr sums the duplicates, at most a stencil and a potential diagonal
    # per entry, so in either order
    return sparse.coo_matrix(
        (np.concatenate(vals_all), (np.concatenate(rows_all), np.concatenate(cols_all))),
        shape=(n * m, n * m)).tocsr()


# ---------------------------------------------------------------------------
# time stepping
# ---------------------------------------------------------------------------

def default_dt(t: float, spacing: float) -> float:
    """Theta step used when a caller leaves dt unset: min(t / STEPS, spacing).

    The package's only step rule.  Its budget: at theta = 1/2, the time
    error of a kernel column is at most the space error of the same grid at
    its own spacing.  Crank-Nicolson is second order in dt, and on the 1-D
    polynomial bench system (h = 1/16, t = 0.1 to 0.5) the time error at
    t / 32 is 1.6e-4 to 4.5e-4 of the column's max, against a space error
    of 5.6e-4 to 1.8e-3; the 2-D one (h = 1/8) reads 5.1e-4 to 8.3e-4
    against 4.7e-3 to 1.9e-2.  tests/test_solver.py holds the 1-D budget,
    and shows that t / 16 breaks it at t = 0.5.

    The budget binds theta = 1/2 only.  Backward Euler (theta = 1) is
    first order: its 1-D time error is 1.3e-2 to 3.0e-2 at t / 32, and was
    over the budget at half that step too, so no affordable step meets it.
    Nothing needs it to: its implicit factor is an M-matrix, so its steps
    keep sign and order at any step size, which is all that domination,
    monotonicity, mass, support and Chapman-Kolmogorov compare, and the
    integrability check's worst moves by 3e-4 when the step doubles,
    against its tolerance of 5e-2.  grid.dt overrides the rule.
    """
    return min(t / STEPS, spacing)


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


def even_axes(grid: GridSpec, values: np.ndarray) -> tuple:
    """Axes along which node-major values, (n_nodes, ...), are mirror-even.

    Even along axis a means equal bit for bit to the values reflected along
    a.  A grid whose coordinates are not exact mirrors (spacing 0.1, say)
    has no such axis, since a node's mirror image is then no node.
    """
    if not grid.mirrored:
        return ()
    v = np.asarray(values).reshape((grid.n_per_axis,) * grid.d + (-1,))
    return tuple(a for a in range(grid.d) if np.array_equal(v, np.flip(v, axis=a)))


def symmetries(grid: GridSpec, values: np.ndarray) -> tuple:
    """even_axes of node-major values, then DIAGONAL if they are even along
    both axes of a 2-D grid and equal bit for bit to their transpose."""
    axes = even_axes(grid, values)
    v = np.asarray(values).reshape((grid.n_per_axis,) * grid.d + (-1,))
    swapped = len(axes) == 2 and np.array_equal(v, v.transpose(1, 0, 2))
    return axes + (DIAGONAL,) if swapped else axes


def _parity_blocks(grid: GridSpec, m: int, fold: tuple, split: tuple) -> tuple:
    """S_p and E_p of each parity block, even along fold and even or odd along
    each axis of split, in _project's order, as (keep, image, sign): keep
    lists the block's unknowns, at or past the center index along each even
    axis and past it along each odd one; image maps every unknown of the
    grid to the stacked unknown it copies, and sign is -1 through an odd
    number of odd reflections and 0 on an odd axis's center plane; then the
    sum of the E_p, one block's image or a sparse matrix (cheaper to apply)."""
    from scipy import sparse

    n1 = grid.n_per_axis
    center, whole = n1 // 2, np.arange(n1)
    blocks, offset = [], 0
    for odd in (sum(o, ()) for o in product(*[((), (a,)) for a in split])):
        keep = image = np.zeros(1, dtype=np.intp)
        sign = np.ones(1)
        for a in range(grid.d):
            kept = whole[center + (a in odd):] if a in fold + split else whole
            copies = np.abs(whole - center) - (a in odd) if a in fold + split else whole
            keep = (keep[:, None] * n1 + kept).ravel()
            image = (image[:, None] * len(kept) + np.maximum(copies, 0)).ravel()
            sign = (sign[:, None] * (np.sign(whole - center) if a in odd else np.ones(n1))).ravel()
        if DIAGONAL in fold:  # the quarter's nodes at or below its diagonal
            wedge = np.tril_indices(n1 - center)
            rank = np.zeros((n1 - center,) * 2, dtype=np.intp)
            rank[wedge] = np.arange(len(wedge[0]))
            keep, image = keep.reshape(rank.shape)[wedge], np.maximum(rank, rank.T).flat[image]
        keep, image = ((nodes[:, None] * m + np.arange(m)).ravel() for nodes in (keep, image))
        blocks.append((keep, image + offset, np.repeat(sign, m)))
        offset += len(keep)
    if len(blocks) == 1:
        return blocks, blocks[0][1]
    image, sign = (np.stack(maps, axis=1).ravel() for maps in list(zip(*blocks))[1:])
    return blocks, sparse.csr_matrix((sign, image, np.arange(0, len(image) + 1, len(blocks))),
                                     shape=(len(blocks[0][1]), offset))


def _gather(A, blocks: list):
    """The block-diagonal of S_p A E_p over blocks of (keep, image, sign): the
    rows of A in each keep, column c moved to image[c] times sign[c], entries
    that meet summed and, over several blocks, zeros dropped.  R A R for a
    reflection R is the one block (R, R, ones)."""
    from scipy import sparse

    sub = A[np.concatenate([keep for keep, _, _ in blocks])]
    ends = sub.indptr[np.cumsum([0] + [len(keep) for keep, _, _ in blocks])]
    image, sign = (np.concatenate(maps) for maps in zip(*(
        (im[sub.indices[lo:hi]], sg[sub.indices[lo:hi]])
        for (_, im, sg), lo, hi in zip(blocks, ends, ends[1:]))))
    out = sparse.csr_matrix((sub.data * sign, image, sub.indptr), shape=(sub.shape[0],) * 2)
    out.sum_duplicates()
    if len(blocks) > 1:
        out.eliminate_zeros()
    return out


class OperatorHandle:
    """Generator of one variant on one grid, assembled on first use, plus
    the factorization of the latest theta step.

    forward, for a P_adjoint handle, is the P handle of the same grid: the
    adjoint matrix is then the transpose of its matrix, bit for bit what
    assemble_generator returns for P_adjoint.  assemblies and steps count
    the work the handle did, and factored records the (fold, theta, dt) of
    every factorization it made.
    """

    def __init__(self, system, grid: GridSpec, variant: str = "P",
                 budget: int = DEFAULT_BUDGET,
                 forward: Optional["OperatorHandle"] = None):
        dof = grid.n_nodes * system.dims.m
        if dof > budget:
            raise BudgetError(
                f"grid needs {dof} unknowns, over the budget of {budget}; "
                f"coarsen the grid or raise the budget")
        if forward is not None and (variant != "P_adjoint" or forward.variant != "P"
                                    or forward.grid != grid):
            raise DomainError("only a P_adjoint handle takes the P handle of its grid")
        self.grid = grid
        self.variant = variant
        self.m = system.dims.m
        self.assemblies = self.steps = 0
        self.factored: list = []
        self._system = system
        self._matrix: Optional[sparse.csr_matrix] = (
            None if forward is None else forward.matrix.T.tocsr())
        self._commutes: dict = {} if forward is None else dict(forward._commutes)
        self._folds: dict = {}  # fold -> its expansion and blocks' S_p A E_p
        self._fold: tuple = ()  # the fold of the evolution in progress
        self._lu: Optional[tuple] = None  # ((fold, theta, dt), (lu, M1, M0))

    @property
    def factorizations(self) -> int:
        return len(self.factored)

    @property
    def matrix(self) -> sparse.csr_matrix:
        if self._matrix is None:
            self._matrix = assemble_generator(self._system, self.grid, self.variant)
            self.assemblies += 1
        return self._matrix

    def commutes(self, symmetry) -> bool:
        """Whether the matrix commutes bit for bit with a permutation R of
        the grid, the reflection along an axis or the swap of the axes
        (DIAGONAL): the sorted arrays of R A R and A are equal.  Each is
        checked once per handle, when first asked, and an adjoint handle takes
        what its forward handle checked, since R commutes with A exactly when
        it commutes with A^T."""
        if symmetry not in self._commutes:
            A, g = self.matrix, self.grid
            unknowns = np.arange(A.shape[0]).reshape((g.n_per_axis,) * g.d + (self.m,))
            p = (unknowns.transpose(1, 0, 2) if symmetry == DIAGONAL
                 else np.flip(unknowns, axis=symmetry)).ravel()
            R = _gather(A, [(p, p, np.ones(len(p)))])
            self._commutes[symmetry] = all(np.array_equal(getattr(R, k), getattr(A, k))
                                           for k in ("indptr", "indices", "data"))
        return self._commutes[symmetry]

    def mirror_axes(self) -> tuple:
        """Axes whose reflection commutes with the matrix, on a grid of exact mirrors."""
        return tuple(a for a in range(self.grid.d) if self.grid.mirrored and self.commutes(a))

    def release(self):
        """Drop the factorization and the block matrices; the matrix stays
        for later steps."""
        self._lu = None
        self._folds.clear()

    def _flat(self, values: np.ndarray) -> np.ndarray:
        """Node-major vector, or one column per trailing index of (n, m, c)."""
        v = np.asarray(values, dtype=float)
        if v.ndim not in (2, 3) or v.shape[:2] != (self.grid.n_nodes, self.m):
            raise DomainError(
                f"values must have shape ({self.grid.n_nodes}, {self.m}) or "
                f"({self.grid.n_nodes}, {self.m}, columns), got {v.shape}")
        return v.reshape(-1) if v.ndim == 2 else v.reshape(-1, v.shape[2])

    def _project(self, u: np.ndarray, fold: tuple, split: tuple) -> np.ndarray:
        """Node-major values stacked as the parity blocks take them: the kept half
        along each fold axis, split into (p +- flip p) / 2 along each of split."""
        g, center = self.grid, self.grid.n_per_axis // 2
        parts = [u.reshape((g.n_per_axis,) * g.d + (self.m,) + u.shape[1:])[tuple(
            slice(center, None) if a in fold else slice(None) for a in range(g.d))]]
        if DIAGONAL in fold:
            parts = [parts[0][np.tril_indices(g.n_per_axis - center)]]
        for a in split:
            parts = [(p + s * np.flip(p, a))[(slice(None),) * a + (slice(center + (s < 0), None),)]
                     / 2 for p in parts for s in (1, -1)]
        return np.concatenate([p.reshape((-1,) + u.shape[1:]) for p in parts])

    def _factor(self, theta: float, dt: float):
        key = (self._fold, float(theta), float(dt))
        if self._lu is not None and self._lu[0] == key:
            return self._lu[1]
        self._lu = None  # free the old LU before building the next one
        from scipy import sparse
        from scipy.sparse import linalg as sparse_linalg

        A = self._folds[self._fold][1]
        eye = sparse.identity(A.shape[0], format="csr")
        M1 = (eye - theta * dt * A).tocsc()
        try:
            lu = sparse_linalg.splu(M1, permc_spec="MMD_AT_PLUS_A")
        except RuntimeError as exc:
            raise SolveError(f"implicit factor is singular: {exc}") from None
        self.factored.append(key)
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
        self.steps += count
        return u

    def evolve(self, values: np.ndarray, t: float, dt: Optional[float] = None,
               theta: float = 0.5) -> tuple[np.ndarray, dict]:
        """Semigroup image of the values at time t; returns (values, step record).

        values has shape (n_nodes, m), or (n_nodes, m, c) to evolve c columns
        together; the result has the same shape.  dt defaults to
        default_dt(t, spacing); whatever does not divide t evenly is taken as
        one trailing shorter step, recorded in the step record.  The values
        evolve on the parity blocks of their fold (module docstring), so the
        result keeps the symmetries of the fold bit for bit.
        """
        if t <= 0:
            raise DomainError(f"evolve needs t > 0, got {t}")
        if not 0.0 <= theta <= 1.0:
            raise DomainError(f"theta must lie in [0, 1], got {theta}")
        if dt is None:
            dt = default_dt(t, self.grid.spacing)
        if dt <= 0:
            raise DomainError(f"need dt > 0, got {dt}")
        dt = min(dt, t)
        full = int(math.floor(t / dt + 1e-9))
        rem = t - full * dt
        if rem <= 1e-12 * max(1.0, t):
            rem = 0.0
        u = self._flat(values)
        mirrors = self.mirror_axes()
        self._fold = fold = tuple(s for s in symmetries(self.grid, u) if s in mirrors
                                  or s == DIAGONAL and len(mirrors) == 2 and self.commutes(s))
        split = tuple(a for a in mirrors if a not in fold) if self.grid.d > 1 else ()
        if fold not in self._folds:
            blocks, expand = _parity_blocks(self.grid, self.m, fold, split)
            self._folds[fold] = (expand, _gather(self.matrix, blocks))
        expand, _ = self._folds[fold]
        u = self._steps(self._project(u, fold, split), theta, dt, full)
        if rem > 0.0:
            u = self._steps(u, theta, rem, 1)
        if not np.all(np.isfinite(u)):
            raise SolveError("evolution produced non-finite values")
        record = {"variant": self.variant, "theta": theta, "dt": dt,
                  "steps": full + (1 if rem else 0), "final_step": rem if rem else dt,
                  "t": t}
        # one block is copied through its image, so an even start keeps its bits
        w = u.reshape(len(u), -1)
        out = w[expand] if isinstance(expand, np.ndarray) else expand @ w
        return out.reshape(np.shape(values)), record


# ---------------------------------------------------------------------------
# point sources
# ---------------------------------------------------------------------------

def mollified_source(grid: GridSpec, m: int, center, component: int,
                     width: float) -> np.ndarray:
    """Discrete Gaussian of the given width in one component, unit discrete mass."""
    if not 0 <= component < m:
        raise DomainError(f"component {component} outside 0..{m - 1}")
    c = grid.source_point(center)
    w = float(width)
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


# ---------------------------------------------------------------------------
# CSV output
# ---------------------------------------------------------------------------

def field_to_csv(grid: GridSpec, values: np.ndarray) -> str:
    """One row per node: its coordinates, then the (n_nodes, m) values, %.17g.

    Along an axis where the values are even bit for bit (their uint64 view
    equals its flip, so 0.0 and -0.0 differ, unlike even_axes), only the
    value rows at or past the center index are formatted, with one % over a
    template, and every node takes the string of its mirror image; a field
    even along no axis formats every row.  Coordinates are formatted once per
    grid (GridSpec.axis_text), so the files of one grid share them.  This
    gives the bytes of formatting each float alone.
    """
    m = values.shape[1]
    header = ",".join([f"x{a}" for a in range(grid.d)] + [f"u{k}" for k in range(m)])
    v = np.ascontiguousarray(values, dtype=float).reshape((grid.n_per_axis,) * grid.d + (m,))
    fold = [a for a in range(grid.d)
            if np.array_equal(v.view(np.uint64), np.flip(v.view(np.uint64), axis=a))]
    center = grid.n_per_axis // 2
    kept = v[tuple(slice(center if a in fold else 0, None) for a in range(grid.d))]
    row = ",".join(["%.17g"] * m)
    rows = np.array(("\n".join([row] * (kept.size // m)) % tuple(kept.ravel().tolist()))
                    .split("\n"), dtype=object).reshape(kept.shape[:-1])
    for a in fold:
        rows = np.take(rows, np.abs(np.arange(grid.n_per_axis) - center), axis=a)
    nodes = product(grid.axis_text, repeat=grid.d)
    return "\n".join([header] + [",".join(node + (text,))
                                 for node, text in zip(nodes, rows.ravel().tolist())]) + "\n"


def save_field_csv(path, grid: GridSpec, values: np.ndarray):
    with open(path, "w") as fh:
        fh.write(field_to_csv(grid, values))
