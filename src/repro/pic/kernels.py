"""Fused hot-path kernels for the PIC inner loop.

The reference implementations in :mod:`repro.pic.interpolation` and
:mod:`repro.pic.deposition` are written for clarity: every component gather
recomputes its CIC indices and weights from scratch (6× per step), and all
scatters go through ``np.add.at``, which is unbuffered and roughly an order
of magnitude slower than a histogram-style scatter.  This module provides
numerically equivalent kernels organised for speed:

* :class:`CICPlanSet` — a shared CIC index/weight plan.  On a Yee lattice
  every component stagger is a combination of per-axis offsets ``0`` and
  ``1/2``, so the floor/wrap/fraction work is done once per (axis, offset)
  and every component's trilinear plan is composed from the cached pieces.
* :class:`CICPlan` — flattened linear indices plus the eight corner weights
  of one stagger; gathers are a single fancy-index + ``einsum``, scatters a
  single ``np.bincount`` on the raveled indices.
* :func:`deposit_current_esirkepov_fused` — the first-order Esirkepov
  scheme evaluated in bounded particle chunks, so the per-particle stencil
  temporaries of the reference path become a fixed working set, with all
  three current components scattered by one fused ``np.bincount``.
* :func:`boris_push_fused` — the Boris rotation with in-place updates and
  one reused half-kick array instead of a fresh allocation per term.

Layout note: all stencil arrays put the *node* axes first and the particle
axis last (``(8, N)`` corner plans, ``(2, 3, 3, m)`` Esirkepov blocks).
With the particle axis innermost every broadcast ufunc runs long contiguous
inner loops; the particle-first layout spends most of its time iterating
2- or 4-element inner loops and is several times slower at laptop particle
counts.

All kernels are bit-compatible with the reference path up to floating-point
summation order; ``tests/pic/test_kernels_fused.py`` pins the equivalence
(including particles straddling the periodic boundary) and the discrete
continuity invariant of the fused Esirkepov path.
"""

from __future__ import annotations

import mmap
from typing import Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.pic.grid import STAGGER, YeeGrid
from repro.pic.particles import ParticleSpecies

#: Particles per Esirkepov chunk: bounds the (3, 2, 3, 3, chunk) temporaries
#: to a few MB regardless of the total particle count.
DEFAULT_CHUNK = 16384

_STENCIL3 = np.arange(3)


class Workspace:
    """Scratch arrays kept between calls, so a stepping simulation stops
    allocating (and the C allocator stops re-faulting) its large per-step
    temporaries.

    :meth:`array` returns a C-contiguous array of the requested shape backed
    by a flat buffer that is kept under ``name`` and only replaced to grow,
    so species of different sizes share one set of buffers.  The contents
    are unspecified; every user fully overwrites what it takes (``out=``)
    before reading it.  A workspace serves one kernel call at a time and
    belongs to one simulation — never share one between threads.

    Every buffer is an anonymous memory mapping of its own rather than a
    ``np.empty`` block: it returns to the system the moment the workspace is
    dropped.  Heap blocks this large, allocated on a stepping thread and
    freed on another, can stay resident in that thread's malloc arena while
    the next simulation's set is carved from a different arena.
    """

    def __init__(self) -> None:
        self._flat: Dict[tuple, np.ndarray] = {}

    def array(self, name, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        size = int(np.prod(shape))
        flat = self._flat.get((name, dtype))
        if flat is None or flat.size < size:
            pages = mmap.mmap(-1, max(size, 1) * dtype.itemsize,
                              flags=mmap.MAP_PRIVATE)
            flat = self._flat[name, dtype] = np.frombuffer(pages, dtype=dtype)
        return flat[:size].reshape(shape)


def _hat_weights(xi: np.ndarray, base: np.ndarray, n_nodes: int = 4) -> np.ndarray:
    """First-order (hat-function) shape weights on a local node stencil.

    Parameters
    ----------
    xi:
        Normalised particle coordinates along one axis, shape ``(N,)``.
    base:
        Integer index of the first node of the local stencil, shape ``(N,)``.

    Returns
    -------
    ``(N, n_nodes)`` array with ``S[s] = max(0, 1 - |xi - (base + s)|)``.
    """
    nodes = base[:, None] + np.arange(n_nodes)[None, :]
    return np.maximum(0.0, 1.0 - np.abs(xi[:, None] - nodes))


class CICPlan:
    """Precomputed trilinear gather/scatter plan for one stagger.

    Holds the raveled (periodic) linear indices of the eight stencil corners
    and the matching CIC weights in node-first ``(8, N)`` layout, so every
    gather/scatter against the same particle positions is a single
    vectorised pass with no index recompute.
    """

    __slots__ = ("lin", "weights", "shape", "n_cells")

    def __init__(self, lin: np.ndarray, weights: np.ndarray,
                 shape: Tuple[int, int, int]) -> None:
        self.lin = lin              #: ``(8, N)`` int64 raveled corner indices
        self.weights = weights      #: ``(8, N)`` weights; corner sums are 1
        self.shape = shape
        self.n_cells = int(shape[0]) * int(shape[1]) * int(shape[2])

    @classmethod
    def build(cls, positions: np.ndarray, cell_size: Tuple[float, float, float],
              shape: Tuple[int, int, int],
              stagger: Tuple[float, float, float]) -> "CICPlan":
        """Build a standalone plan (one stagger, no cross-component sharing)."""
        return CICPlanSet(positions, cell_size, shape).plan(stagger)

    def gather(self, field: np.ndarray) -> np.ndarray:
        """Interpolate ``field`` to the planned particle positions."""
        flat = field.reshape(-1)
        return np.einsum("cn,cn->n", self.weights, flat[self.lin])

    def scatter_add(self, target: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add per-particle ``values`` with the planned weights."""
        contrib = self.weights * values
        flat = np.bincount(self.lin.reshape(-1), weights=contrib.reshape(-1),
                           minlength=self.n_cells)
        target += flat.reshape(target.shape)


class CICPlanSet:
    """Shared CIC plans for one set of particle positions on one grid.

    The Yee staggers (:data:`repro.pic.grid.STAGGER`) only ever use per-axis
    offsets ``0`` and ``1/2``; the set computes the floor/wrap/fraction work
    once per (axis, offset) pair (at most 6 passes instead of 3 per
    component) and composes the eight-corner plan of any stagger from the
    cached per-axis pieces.  Plans themselves are cached too, so the J
    components reuse the E-component plans wherever the staggers coincide.
    """

    def __init__(self, positions: np.ndarray,
                 cell_size: Tuple[float, float, float],
                 shape: Tuple[int, int, int]) -> None:
        self.positions = np.asarray(positions, dtype=np.float64)
        self.cell_size = tuple(float(d) for d in cell_size)
        self.shape = tuple(int(n) for n in shape)
        nx, ny, nz = self.shape
        self._strides = (ny * nz, nz, 1)
        self._xi = None                      # lazily built (3, N) cell units
        self._axis_cache: Dict[float, tuple] = {}
        self._plan_cache: Dict[Tuple[float, float, float], CICPlan] = {}

    def _offset(self, offset: float) -> tuple:
        """Stride-scaled wrapped index pairs and weights of all three axes.

        Returns ``(idx, w)`` with ``idx`` a ``(3, 2, N)`` int64 array holding
        the stride-scaled lower/upper wrapped indices per axis and ``w`` the
        matching ``(3, 2, N)`` CIC weights ``(1 - frac, frac)``.  All three
        axes share one vectorised pass (the Yee staggers only use per-axis
        offsets 0 and 1/2, so at most two passes cover every component).
        """
        cached = self._axis_cache.get(offset)
        if cached is None:
            if self._xi is None:
                inv_cell = np.array([1.0 / d for d in self.cell_size])[:, None]
                # out= forces C order: positions.T is F-ordered and ufuncs
                # would propagate that layout, leaving the particle axis
                # strided in every later broadcast
                self._xi = np.empty((3, self.positions.shape[0]))
                np.multiply(self.positions.T, inv_cell, out=self._xi)
            nvec = np.array(self.shape, dtype=np.int64)[:, None]
            xi = self._xi - offset
            i0 = np.floor(xi).astype(np.int64)
            frac = xi - i0
            i0 %= nvec
            i1 = i0 + 1
            i1[i1 == nvec] = 0
            idx = np.stack((i0, i1), axis=1)                     # (3, 2, N)
            idx *= np.array(self._strides, dtype=np.int64)[:, None, None]
            w = np.stack((1.0 - frac, frac), axis=1)             # (3, 2, N)
            cached = (idx, w)
            self._axis_cache[offset] = cached
        return cached

    def _axis(self, axis: int, offset: float) -> tuple:
        """One axis' ``(2, N)`` stride-scaled index and weight pair."""
        idx, w = self._offset(offset)
        return idx[axis], w[axis]

    def plan(self, stagger: Tuple[float, float, float],
             out: Optional[Tuple[np.ndarray, np.ndarray]] = None) -> CICPlan:
        """The eight-corner plan of one component stagger.

        Plans are cached per stagger.  With ``out=(lin, weights)`` — an
        int64 and a float64 buffer of shape ``(2, 2, 2, N)`` — the plan is
        built into those buffers instead of fresh arrays; it is then only
        valid until the buffers are written again, so it is not cached.
        """
        key = tuple(stagger)
        plan = self._plan_cache.get(key) if out is None else None
        if plan is None:
            ix, wx = self._axis(0, stagger[0])
            iy, wy = self._axis(1, stagger[1])
            iz, wz = self._axis(2, stagger[2])
            n = self.positions.shape[0]
            lin, weights = out if out is not None else (
                np.empty((2, 2, 2, n), dtype=np.int64), np.empty((2, 2, 2, n)))
            # compose all eight corners in two broadcast adds / multiplies;
            # node axes lead so the inner loops run over the particle axis
            np.add(ix[:, None, None, :], iy[None, :, None, :], out=lin)
            lin += iz[None, None, :, :]
            np.multiply(wx[:, None, None, :], wy[None, :, None, :], out=weights)
            weights *= wz[None, None, :, :]
            plan = CICPlan(lin.reshape(8, n), weights.reshape(8, n), self.shape)
            if out is None:
                self._plan_cache[key] = plan
        return plan


# --------------------------------------------------------------------------- #
# gather
# --------------------------------------------------------------------------- #
def gather_fields_fused(grid: YeeGrid, positions: np.ndarray,
                        workspace: Optional[Workspace] = None
                        ) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate E and B to the particles through one shared plan set.

    Each component is gathered before the next plan is built, so all six
    share one pair of plan buffers — taken from ``workspace`` when one is
    given (``None``: allocated for this call).  The returned arrays are
    always new.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    if workspace is None:
        workspace = Workspace()
    plans = CICPlanSet(positions, grid.config.cell_size, grid.shape)
    n = positions.shape[0]
    buffers = (workspace.array("cic.lin", (2, 2, 2, n), np.int64),
               workspace.array("cic.weights", (2, 2, 2, n)))
    e_fields = np.empty((n, 3), dtype=np.float64)
    b_fields = np.empty((n, 3), dtype=np.float64)
    for fields, names in ((e_fields, ("Ex", "Ey", "Ez")), (b_fields, ("Bx", "By", "Bz"))):
        for axis, name in enumerate(names):
            plan = plans.plan(STAGGER[name], out=buffers)
            fields[:, axis] = plan.gather(grid.component(name))
    return e_fields, b_fields


# --------------------------------------------------------------------------- #
# CIC charge scatter
# --------------------------------------------------------------------------- #
def deposit_charge_cic_fused(grid: YeeGrid, positions: np.ndarray, charge: float,
                             weights: np.ndarray) -> np.ndarray:
    """Bincount-based CIC charge deposition (adds into ``grid.rho``)."""
    values = (charge / grid.config.cell_volume) * np.asarray(weights,
                                                             dtype=np.float64)
    plan = CICPlan.build(positions, grid.config.cell_size, grid.shape,
                         STAGGER["rho"])
    plan.scatter_add(grid.rho, values)
    return grid.rho


# --------------------------------------------------------------------------- #
# Esirkepov current deposition (chunked, fused bincount scatter)
# --------------------------------------------------------------------------- #
def deposit_current_esirkepov_fused(grid: YeeGrid, old_positions: np.ndarray,
                                    new_positions: np.ndarray, charge: float,
                                    weights: np.ndarray, dt: float,
                                    chunk_size: int = DEFAULT_CHUNK,
                                    workspace: Optional[Workspace] = None) -> None:
    """Charge-conserving Esirkepov deposition with a bounded working set.

    Numerically equivalent (up to summation order and identically-zero
    stencil planes, which the reference path scatters as exact zeros or
    round-off) to :func:`repro.pic.deposition.deposit_current_esirkepov`, but
    particles are processed in chunks of at most ``chunk_size`` so the
    per-axis ``(2, 3, 3, chunk)`` weight block and linear-index block are the
    only large temporaries, and all three current components are scattered
    with a single ``np.bincount`` over ``3 * n_cells`` fused bins instead of
    three unbuffered ``np.add.at`` calls against broadcast index arrays.
    Those two blocks and the ``(3, 3, chunk)`` stencil arrays they are built
    from live in ``workspace`` when one is given and are allocated once per
    call otherwise.
    """
    old_positions = np.asarray(old_positions, dtype=np.float64)
    new_positions = np.asarray(new_positions, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if old_positions.shape != new_positions.shape:
        raise ValueError("old and new positions must have the same shape")
    if dt <= 0:
        raise ValueError("dt must be positive")
    if chunk_size < 1:
        raise ValueError("chunk_size must be >= 1")
    n = old_positions.shape[0]
    if n == 0:
        return
    dx, dy, dz = grid.config.cell_size
    nx, ny, nz = grid.shape
    n_cells = nx * ny * nz
    inv_cell = np.array([1.0 / dx, 1.0 / dy, 1.0 / dz])[:, None]
    cell = np.array([-dx, -dy, -dz])[:, None, None]
    factor = (charge / grid.config.cell_volume) * weights / dt     # (N,)

    # flat views of the (C-contiguous) current arrays; += below is in place
    j_flat = (grid.Jx.reshape(-1), grid.Jy.reshape(-1), grid.Jz.reshape(-1))
    nvec = np.array([nx, ny, nz], dtype=np.int64)[:, None, None]
    svec = np.array([ny * nz, nz, 1], dtype=np.int64)[:, None, None]

    # One working set reused for every full chunk: the three per-axis weight
    # blocks and their raveled node indices, [component, along-axis,
    # transverse-1, transverse-2, particle].  Because a particle moves less
    # than one cell, old and new shape functions share a THREE-node stencil
    # anchored at floor(min(xi0, xi1)); the along-axis prefix sum then needs
    # only TWO planes — the third is the total shape-function change, which
    # vanishes identically (charge conservation) and would scatter pure
    # round-off.  That leaves 3 * 2*3*3 = 54 scattered values per particle
    # against the naive 3 * 4^3 = 192.
    if workspace is None:
        workspace = Workspace()

    for start in range(0, n, chunk_size):
        stop = min(start + chunk_size, n)
        m = stop - start
        # the first chunk is the largest, so later ones reuse its buffers
        big_lin = workspace.array("esirkepov.lin", (3, 2, 3, 3, m), np.int64)
        big_w = workspace.array("esirkepov.w", (3, 2, 3, 3, m))
        xi0, xi1, moved = workspace.array("esirkepov.xi", (3, 3, m))
        (s0, ds, a_row, b_row, s0_col, ds_col, ds_axis, term,
         tmp) = workspace.array("esirkepov.stencil", (9, 3, 3, m))
        nodes, lbc = workspace.array("esirkepov.nodes", (2, 3, 3, m), np.int64)
        # (3, m) cell-unit coordinates, axis-major; out= forces C order
        # (the transposed position slices are F-ordered and ufuncs would
        # otherwise keep that layout, striding every later particle-axis loop)
        np.multiply(old_positions[start:stop].T, inv_cell, out=xi0)
        np.multiply(new_positions[start:stop].T, inv_cell, out=xi1)
        np.subtract(xi1, xi0, out=moved)
        np.abs(moved, out=moved)
        if np.any(moved >= 1.0):
            raise ValueError("Esirkepov deposition requires particles to move "
                             "less than one cell per step")
        # Shared 3-node stencil: both hats live on nodes base .. base+2; all
        # three axes share one vectorised (3, 3, m) pass.
        np.minimum(xi0, xi1, out=moved)
        np.floor(moved, out=moved)
        np.add(moved.astype(np.int64)[:, None, :], _STENCIL3[None, :, None],
               out=nodes)
        for xi, hat in ((xi0, s0), (xi1, ds)):      # max(0, 1 - |xi - node|)
            np.subtract(xi[:, None, :], nodes, out=hat)
            np.abs(hat, out=hat)
            np.subtract(1.0, hat, out=hat)
            np.maximum(0.0, hat, out=hat)
        ds -= s0

        # Stride-scaled wrapped stencil indices; a node at (i, j, k) has
        # raveled index lin_all[0, i] + lin_all[1, j] + lin_all[2, k].
        lin_all = np.remainder(nodes, nvec, out=nodes)
        lin_all *= svec

        # Transverse row factors shared between the three components:
        # a_row = s0 + ds/2 and b_row = s0/2 + ds/3.  The per-particle charge
        # factor rides on the column factors (one (3, 3, m) pass instead of a
        # (m,) rescale per component) and the per-axis cell size on the
        # along-axis ds (one pass for all three).
        np.multiply(0.5, ds, out=a_row)
        a_row += s0
        np.multiply(0.5, s0, out=b_row)
        np.multiply(1.0 / 3.0, ds, out=tmp)
        b_row += tmp
        scale = factor[start:stop]
        np.multiply(s0, scale[None, None, :], out=s0_col)
        np.multiply(ds, scale[None, None, :], out=ds_col)
        np.multiply(ds, cell, out=ds_axis)

        # Per component: the Esirkepov transverse factor over the other two
        # axes b (rows) and c (columns) — algebraically s0_b⊗s0_c +
        # ds_b⊗s0_c/2 + s0_b⊗ds_c/2 + ds_b⊗ds_c/3, grouped into the two
        # outer products a_row_b⊗s0_c + b_row_b⊗ds_c — times the (pre-scaled,
        # truncated) along-axis ds, and the raveled indices arranged
        # [along-axis, b, c]; the along-axis index also carries the component
        # offset into the fused 3 * n_cells bins.
        for axis, (b, c) in enumerate(((1, 2), (0, 2), (0, 1))):
            np.multiply(a_row[b][:, None, :], s0_col[c][None, :, :], out=term)
            np.multiply(b_row[b][:, None, :], ds_col[c][None, :, :], out=tmp)
            term += tmp
            block = big_w[axis]
            np.multiply(ds_axis[axis, :2, None, None, :], term[None], out=block)
            # prefix sum along the (truncated) node axis: one slice add
            block[1] += block[0]
            np.add(lin_all[b][:, None, :], lin_all[c][None, :, :], out=lbc)
            np.add((lin_all[axis, :2] + axis * n_cells)[:, None, None, :],
                   lbc[None], out=big_lin[axis])
        fused = np.bincount(big_lin.reshape(-1), weights=big_w.reshape(-1),
                            minlength=3 * n_cells).reshape(3, n_cells)
        for axis in range(3):
            target = j_flat[axis]
            target += fused[axis]


# --------------------------------------------------------------------------- #
# particle push
# --------------------------------------------------------------------------- #
def _cross(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise cross product of two ``(N, 3)`` arrays.

    Equivalent to ``np.cross(a, b)`` but written out component-wise:
    ``np.cross`` routes through ``moveaxis``/``empty``/slice assignments with
    enough per-call overhead to show up at laptop particle counts.
    """
    out = np.empty_like(a)
    a0, a1, a2 = a[:, 0], a[:, 1], a[:, 2]
    b0, b1, b2 = b[:, 0], b[:, 1], b[:, 2]
    out[:, 0] = a1 * b2 - a2 * b1
    out[:, 1] = a2 * b0 - a0 * b2
    out[:, 2] = a0 * b1 - a1 * b0
    return out


def boris_push_fused(species: ParticleSpecies, e_fields: np.ndarray,
                     b_fields: np.ndarray, dt: float) -> None:
    """Relativistic Boris push with in-place momentum updates.

    Same scheme as :func:`repro.pic.pusher.boris_push` (half electric kick,
    magnetic rotation, half electric kick) but the half-kick array is
    computed once and reused, the rotation vector is scaled in place into
    the ``s`` vector, and ``species.momenta`` is updated in place instead of
    rebinding freshly allocated arrays for every intermediate.
    """
    if not species.pushed:
        return
    if dt <= 0:
        raise ValueError("dt must be positive")
    e_fields = np.asarray(e_fields, dtype=np.float64)
    b_fields = np.asarray(b_fields, dtype=np.float64)
    if e_fields.shape != species.momenta.shape or b_fields.shape != species.momenta.shape:
        raise ValueError("field arrays must have shape (N, 3)")

    qmdt2 = species.charge * dt / (2.0 * species.mass * constants.SPEED_OF_LIGHT)
    half_kick = qmdt2 * e_fields

    u = species.momenta
    u += half_kick                     # u_minus
    gamma = np.sqrt(1.0 + np.einsum("ij,ij->i", u, u))

    t_vec = b_fields * ((species.charge * dt / (2.0 * species.mass)) / gamma)[:, None]
    t_sq = np.einsum("ij,ij->i", t_vec, t_vec)
    u_prime = u + _cross(u, t_vec)
    t_vec *= (2.0 / (1.0 + t_sq))[:, None]   # t_vec becomes the s vector
    u += _cross(u_prime, t_vec)              # u_plus
    u += half_kick
