"""The kernels of the PIC inner loop — the only ones a run executes.

Each is tested against a readable ``*_reference`` oracle (``boris_push``
for the push) in :mod:`repro.pic.interpolation`, :mod:`repro.pic.pusher`
and :mod:`repro.pic.deposition`; :func:`repro.pic.hotpath.reference_step`
steps a simulation on them.  The oracles recompute the CIC indices and
weights of every component from scratch (6× per step) and scatter through
``np.add.at``, which is unbuffered and roughly an order of magnitude slower
than a histogram-style scatter; the kernels here are numerically equivalent
and organised for speed:

* :class:`CICPlanSet` — a shared CIC index/weight plan.  On a Yee lattice
  every component stagger is a combination of per-axis offsets ``0`` and
  ``1/2``, so the floor/wrap/fraction work of both offsets and all three
  axes is one ``(2, 3, m)`` pass and every component's trilinear plan is
  composed from those pieces.
* :class:`CICPlan` — flattened linear indices plus the eight corner weights
  of one stagger; gathers are a single ``np.take`` + ``einsum``, scatters a
  single ``np.bincount`` on the raveled indices.
* :func:`deposit_current_esirkepov` — the first-order Esirkepov
  scheme with all three current components scattered by one fused
  ``np.bincount``; one block body at two stencil widths, 2 nodes and one
  plane for the particles that stay in their cell, 3 and two for the rest.
* :func:`boris_push_fused` — the Boris rotation on component-major
  ``(3, m)`` rows, every term a contiguous row operation.

All of them are cache-blocked: they walk a species in blocks of
:data:`CHUNK` particles and take every per-particle temporary, written with
``out=``, from the simulation's :class:`Workspace`.  What the oracles
allocate per call and size by the species is a fixed, cache-sized working
set allocated once per simulation.  The block loops are inside the kernels
— a caller passes whole ``(N, 3)`` arrays and gets whole arrays back — and
there is one code path: a species of at most ``CHUNK`` particles is simply
one block.

Layout note: all stencil arrays put the *node* axes first and the particle
axis last (``(8, m)`` corner plans, ``(2, 5, w, m)`` Esirkepov hats,
``(3, m)`` momenta).  With the particle axis innermost every broadcast ufunc
runs long contiguous inner loops; the particle-first layout spends most of
its time iterating 2-, 3- or 4-element inner loops and is several times
slower at laptop particle counts.

All kernels are bit-compatible with their oracles up to floating-point
summation order, and gather and push do not depend on ``CHUNK`` at all (no
reduction runs across particles); ``tests/pic/test_kernels_fused.py`` pins
both (including particles straddling the periodic boundary) and the
discrete continuity invariant of the Esirkepov kernel.
"""

from __future__ import annotations

import math
import mmap
from itertools import accumulate
from typing import Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.pic.grid import STAGGER, YeeGrid
from repro.pic.particles import ParticleSpecies

#: Particles per block of the gather, push and deposit loops.  It bounds every
#: per-particle temporary (the ``(8, m)`` CIC plans, the ``(3, p, w, w, m)``
#: Esirkepov blocks) whatever the species size: ~3.7 MB per gather block,
#: inside a 4 MB L2.  Larger blocks spill, below ~4096 the per-block Python
#: overhead takes over.  Set from the sweep in ``docs/performance.md`` (PR 21).
CHUNK = 8192

_STENCIL3 = np.arange(3.0)
#: coefficients of (s0, ds) in the two Esirkepov transverse row factors
_ROW_S0 = np.array([1.0, 0.5])[:, None, None, None]
_ROW_DS = np.array([0.5, 1.0 / 3.0])[:, None, None, None]
#: row of a plan set for each of the two per-axis offsets the Yee staggers use
_OFFSET_ROW = {0.0: 0, 0.5: 1}


def _chunks(n: int):
    """``(start, stop)`` of the consecutive ``CHUNK``-particle blocks of ``n``."""
    return ((start, min(start + CHUNK, n)) for start in range(0, n, CHUNK))


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
        size = math.prod(shape)
        flat = self._flat.get((name, dtype))
        if flat is None or flat.size < size:
            pages = mmap.mmap(-1, max(size, 1) * dtype.itemsize,
                              flags=mmap.MAP_PRIVATE)
            flat = self._flat[name, dtype] = np.frombuffer(pages, dtype=dtype)
        return flat[:size].reshape(shape)


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

    def gather(self, field: np.ndarray, workspace: Workspace) -> np.ndarray:
        """Interpolate ``field`` to the planned particle positions.

        The corner values and the returned ``(N,)`` row live in ``workspace``.
        """
        values = workspace.array("cic.values", self.lin.shape)
        # the plan's indices are wrapped into the grid, so no bounds check
        # (mode="raise" would also route ``out`` through a copy)
        np.take(field.reshape(-1), self.lin, out=values, mode="clip")
        return np.einsum("cn,cn->n", self.weights, values,
                         out=workspace.array("cic.row", self.lin.shape[1:]))

    def scatter_add(self, target: np.ndarray, values: np.ndarray) -> None:
        """Scatter-add per-particle ``values`` with the planned weights."""
        contrib = self.weights * values
        flat = np.bincount(self.lin.reshape(-1), weights=contrib.reshape(-1),
                           minlength=self.n_cells)
        target += flat.reshape(target.shape)


class CICPlanSet:
    """Shared CIC plans for one block of particle positions on one grid.

    The Yee staggers (:data:`repro.pic.grid.STAGGER`) only ever use per-axis
    offsets ``0`` and ``1/2``; the set does the floor/wrap/fraction work of
    both offsets and all three axes in one ``(2, 3, m)`` pass at construction
    and composes the eight-corner plan of any stagger from those per-axis
    pieces.  Pieces and plans live in ``workspace`` (``None``: a private
    one): a plan is valid until the next :meth:`plan` call and a set until
    the next set is built on the same workspace — the kernels build one per
    ``CHUNK`` particles, so a stepping simulation allocates nothing for them.
    """

    def __init__(self, positions: np.ndarray,
                 cell_size: Tuple[float, float, float],
                 shape: Tuple[int, int, int],
                 workspace: Optional[Workspace] = None) -> None:
        positions = np.asarray(positions, dtype=np.float64)
        self.shape = tuple(int(n) for n in shape)
        nx, ny, nz = self.shape
        self._m = m = positions.shape[0]
        if workspace is None:
            workspace = Workspace()
        self._workspace = workspace
        inv_cell = np.array([1.0 / float(d) for d in cell_size])[:, None]
        nvec = np.array(self.shape, dtype=np.float64)[:, None]
        svec = np.array([ny * nz, nz, 1], dtype=np.float64)[:, None]

        # cell-unit coordinates less the offset, ``(offset, axis, m)``; out=
        # forces C order (positions.T is F-ordered and ufuncs would propagate
        # that layout, leaving the particle axis strided in every later
        # broadcast)
        shifted, base = workspace.array("cic.axis", (2, 2, 3, m))
        np.multiply(positions.T, inv_cell, out=shifted[0])
        np.subtract(shifted[0], 0.5, out=shifted[1])
        np.floor(shifted, out=base)
        #: ``(offset, axis, lower/upper, m)`` CIC weights ``(1 - frac, frac)``
        self._w = w = workspace.array("cic.w", (2, 3, 2, m))
        np.subtract(shifted, base, out=w[:, :, 1])
        np.subtract(1.0, w[:, :, 1], out=w[:, :, 0])
        # stride-scaled lower/upper node pair, still float.  The periodic
        # wrap base - n * floor(base / n) is exact: a correctly rounded
        # quotient of two integers below 2**53 floors to the exact integer
        # quotient (and beyond 2**52 a coordinate has no fraction left to
        # interpolate with).  An upper node one past the last row wraps to 0.
        pair = workspace.array("cic.pair", (2, 3, 2, m))
        lower, upper = pair[:, :, 0], pair[:, :, 1]
        np.divide(base, nvec, out=upper)
        np.floor(upper, out=upper)
        upper *= nvec
        base -= upper
        np.multiply(base, svec, out=lower)
        np.add(lower, svec, out=upper)
        np.putmask(upper, upper == nvec * svec, 0.0)
        #: ``(offset, axis, lower/upper, m)`` stride-scaled wrapped indices
        self._idx = workspace.array("cic.idx", (2, 3, 2, m), np.int64)
        np.copyto(self._idx, pair, casting="unsafe")

    def plan(self, stagger: Tuple[float, float, float]) -> CICPlan:
        """The eight-corner plan of one component stagger.

        Composed as ``(x ⊕ y) ⊕ z`` from the per-axis pieces, node axes first
        so the inner loops run over the particle axis.
        """
        try:
            rx, ry, rz = (_OFFSET_ROW[float(offset)] for offset in stagger)
        except KeyError:
            raise ValueError("stagger offsets must be 0 or 1/2") from None
        m, workspace, idx, w = self._m, self._workspace, self._idx, self._w
        lin_xy = workspace.array("cic.lin_xy", (2, 2, m), np.int64)
        lin = workspace.array("cic.lin", (2, 2, 2, m), np.int64)
        np.add(idx[rx, 0, :, None, :], idx[ry, 1, None, :, :], out=lin_xy)
        np.add(lin_xy[:, :, None, :], idx[rz, 2], out=lin)
        w_xy = workspace.array("cic.w_xy", (2, 2, m))
        weights = workspace.array("cic.weights", (2, 2, 2, m))
        np.multiply(w[rx, 0, :, None, :], w[ry, 1, None, :, :], out=w_xy)
        np.multiply(w_xy[:, :, None, :], w[rz, 2], out=weights)
        return CICPlan(lin.reshape(8, m), weights.reshape(8, m), self.shape)


# --------------------------------------------------------------------------- #
# gather
# --------------------------------------------------------------------------- #
_COMPONENTS = (("Ex", "Ey", "Ez"), ("Bx", "By", "Bz"))


def gather_fields(grid: YeeGrid, positions: np.ndarray,
                  workspace: Optional[Workspace] = None
                  ) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate E and B to the particles, ``CHUNK`` particles at a time.

    Returns ``(E, B)``, each ``(N, 3)`` in SI units (V/m and T), always new
    arrays.  Per block one :class:`CICPlanSet` is built and each of the six
    components is gathered before the next plan is composed, so the working
    set is bounded by ``CHUNK`` whatever the species size.  All scratch comes
    from ``workspace`` (``None``: a private one for this call).  There is no
    reduction across particles, so the result does not depend on ``CHUNK``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    if workspace is None:
        workspace = Workspace()
    n = positions.shape[0]
    e_fields = np.empty((n, 3), dtype=np.float64)
    b_fields = np.empty((n, 3), dtype=np.float64)
    for start, stop in _chunks(n):
        if stop - start == 1 and start:
            # einsum sums a lone particle's eight corners in another order
            # than a row of them; redo the neighbour so no block is lone
            start -= 1
        plans = CICPlanSet(positions[start:stop], grid.config.cell_size,
                           grid.shape, workspace)
        for fields, names in zip((e_fields, b_fields), _COMPONENTS):
            for axis, name in enumerate(names):
                fields[start:stop, axis] = plans.plan(STAGGER[name]).gather(
                    grid.component(name), workspace)
    return e_fields, b_fields


# --------------------------------------------------------------------------- #
# CIC charge scatter
# --------------------------------------------------------------------------- #
def deposit_charge_cic(grid: YeeGrid, positions: np.ndarray, charge: float,
                       weights: np.ndarray) -> np.ndarray:
    """Add the CIC charge density [C/m^3] of the particles into ``grid.rho``."""
    positions = np.asarray(positions, dtype=np.float64)
    values = (charge / grid.config.cell_volume) * np.asarray(weights,
                                                             dtype=np.float64)
    workspace = Workspace()
    for start, stop in _chunks(positions.shape[0]):
        plans = CICPlanSet(positions[start:stop], grid.config.cell_size,
                           grid.shape, workspace)
        plans.plan(STAGGER["rho"]).scatter_add(grid.rho, values[start:stop])
    return grid.rho


# --------------------------------------------------------------------------- #
# Esirkepov current deposition (chunked, fused bincount scatter)
# --------------------------------------------------------------------------- #
#: ``(stencil width, along-axis planes)`` of a particle that stays in its cell
#: along all three axes and of one that crosses a cell face
_STAY, _GO = (2, 1), (3, 2)


def _stencil_shapes(width: int, planes: int, m: int):
    """Shapes of the float and the int scratch arrays of one block body."""
    return (((2, 5, width, m), (2, 2, 3, width, m), (3, width, m), (3, planes, m),
             (2, 3, width, width, m)),
            ((5, width, m), (3, width, width, m), (3, planes, m)))


def _carve(flat: np.ndarray, shapes) -> list:
    """Consecutive C-contiguous arrays of ``shapes`` out of a flat buffer."""
    sizes = [math.prod(shape) for shape in shapes]
    return [flat[stop - size:stop].reshape(shape)
            for shape, size, stop in zip(shapes, sizes, accumulate(sizes))]


def deposit_current_esirkepov(grid: YeeGrid, old_positions: np.ndarray,
                              new_positions: np.ndarray, charge: float,
                              weights: np.ndarray, dt: float,
                              workspace: Optional[Workspace] = None) -> None:
    """Charge-conserving (Esirkepov, first order) current deposition.

    Adds into ``grid.Jx/Jy/Jz`` the current of particles moving from
    ``old_positions`` to ``new_positions`` (both ``(N, 3)``, the new ones not
    yet wrapped, so the displacement is continuous) in ``dt``; it satisfies
    the discrete continuity equation with the CIC charge of
    :func:`deposit_charge_cic` to machine precision.  Numerically equivalent
    (up to summation order and identically-zero stencil planes, which the
    oracle scatters as exact zeros or round-off) to
    :func:`repro.pic.deposition.deposit_current_esirkepov_reference`, but
    particles go in blocks of at most ``CHUNK`` and all three current
    components of a block are scattered by one ``np.bincount`` over
    ``3 * n_cells`` fused bins instead of three unbuffered ``np.add.at``.

    Because a particle moves less than one cell, old and new shape functions
    share a THREE-node stencil anchored at ``floor(min(xi0, xi1))``, and the
    along-axis prefix sum needs only TWO planes — the third is the total
    shape-function change, which vanishes identically (charge conservation)
    and would scatter pure round-off: ``3 * 2*3*3 = 54`` scattered values per
    particle against the naive ``3 * 4^3 = 192``.  A particle that stays in
    its cell along all three axes (most do) has more zeros of both kinds —
    its third node's hat weights are exactly ``0.0`` and its second plane is
    again the total change — so ``3 * 1*2*2 = 12`` are left.  Each block is
    ordered stay-first and the two classes run one body at their own
    ``(width, planes)``; every buffer is taken from ``workspace`` (``None``: a
    private one) once per block and sized by it, whatever the split.
    """
    old_positions = np.asarray(old_positions, dtype=np.float64)
    new_positions = np.asarray(new_positions, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    if old_positions.shape != new_positions.shape:
        raise ValueError("old and new positions must have the same shape")
    if dt <= 0:
        raise ValueError("dt must be positive")
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
    component = n_cells * np.arange(3)[:, None, None]
    if workspace is None:
        workspace = Workspace()
    n_values = 3 * _GO[1] * _GO[0] ** 2       # per particle, at most

    for start, stop in _chunks(n):
        m = stop - start
        # the first chunk is the largest, so later ones reuse its buffers
        big_lin = workspace.array("esirkepov.lin", (n_values * m,), np.int64)
        big_w = workspace.array("esirkepov.w", (n_values * m,))
        xi, cells, xi_ordered = workspace.array("esirkepov.xi", (3, 2, 3, m))
        base, base_ordered = workspace.array("esirkepov.base", (2, 3, m))
        scale_ordered = workspace.array("esirkepov.scale", (m,))
        # flat scratch for a whole block at the widest body; a class carves
        # its own contiguous arrays from the front of it
        n_float, n_int = (sum(map(math.prod, shapes))
                          for shapes in _stencil_shapes(*_GO, m))
        floats = workspace.array("esirkepov.stencil", (n_float,))
        ints = workspace.array("esirkepov.nodes", (n_int,), np.int64)
        # (old, new) cell-unit coordinates, axis-major; out= forces C order
        # (the transposed position slices are F-ordered and ufuncs would
        # otherwise keep that layout, striding every later particle-axis loop)
        np.multiply(old_positions[start:stop].T, inv_cell, out=xi[0])
        np.multiply(new_positions[start:stop].T, inv_cell, out=xi[1])
        np.subtract(xi[1], xi[0], out=base)
        np.abs(base, out=base)
        # "not all below", not "any at or above": a NaN coordinate compares
        # False either way and must not reach the integer cast
        if not np.all(base < 1.0):
            raise ValueError("Esirkepov deposition requires particles to move "
                             "less than one cell per step")
        # the stencil starts at floor(min(xi0, xi1)) = the smaller floor; a
        # particle whose floors agree on every axis stayed in its cell
        np.floor(xi, out=cells)
        np.minimum(cells[0], cells[1], out=base)
        stays = (cells[0] == cells[1]).all(axis=0)
        k = int(np.count_nonzero(stays))
        scale = factor[start:stop]
        if 0 < k < m:
            order = np.concatenate((np.flatnonzero(stays), np.flatnonzero(~stays)))
            xi = np.take(xi, order, axis=2, out=xi_ordered, mode="clip")
            base = np.take(base, order, axis=1, out=base_ordered, mode="clip")
            scale = np.take(scale, order, out=scale_ordered, mode="clip")

        filled = 0
        for (width, planes), lo, hi in ((_STAY, 0, k), (_GO, k, m)):
            if lo == hi:
                continue
            float_shapes, int_shapes = _stencil_shapes(width, planes, hi - lo)
            hats, (rows, tmp), nodes, ds_axis, term = _carve(floats, float_shapes)
            lin, lbc, along = _carve(ints, int_shapes)
            values = slice(filled, filled + 3 * planes * width * width * (hi - lo))
            filled = values.stop
            block = big_w[values].reshape(3, planes, width, width, hi - lo)

            # max(0, 1 - |xi - node|) of both positions and all axes in one
            # stacked pass; hats[0] is s0 and hats[1] becomes ds.  The axis
            # dimension has five rows [x, y, z, x, y]: component a's
            # transverse pair is (b, c) = (a+1, a+2), so the three b axes are
            # rows 1..3 and the three c axes rows 2..4 — views of one array.
            np.add(base[:, None, lo:hi], _STENCIL3[:width, None], out=nodes)
            live = hats[:, :3]
            np.subtract(xi[:, :, None, lo:hi], nodes, out=live)
            np.abs(live, out=live)
            np.subtract(1.0, live, out=live)
            np.maximum(0.0, live, out=live)
            live[1] -= live[0]
            hats[:, 3:] = hats[:, :2]

            # stride-scaled wrapped node indices, the same five rows: node
            # (i, j, k) has raveled index lin[0, i] + lin[1, j] + lin[2, k]
            np.copyto(lin[:3], nodes, casting="unsafe")
            np.remainder(lin[:3], nvec, out=lin[:3])
            lin[:3] *= svec
            lin[3:] = lin[:2]

            # The transverse factor s0_b⊗s0_c + ds_b⊗s0_c/2 + s0_b⊗ds_c/2 +
            # ds_b⊗ds_c/3 as two outer products, (s0 + ds/2)_b⊗s0_c +
            # (s0/2 + ds/3)_b⊗ds_c, times the along-axis ds truncated to
            # ``planes`` nodes, which carries the cell size and the charge.
            np.multiply(hats[0, None, 1:4], _ROW_S0, out=rows)
            np.multiply(hats[1, None, 1:4], _ROW_DS, out=tmp)
            rows += tmp
            np.multiply(rows[:, :, :, None, :], hats[:, 2:5, None, :, :], out=term)
            term[0] += term[1]
            np.multiply(hats[1, :3, :planes], cell, out=ds_axis)
            ds_axis *= scale[lo:hi]
            np.multiply(ds_axis[:, :, None, None, :], term[0][:, None], out=block)
            if planes == 2:
                # prefix sum along the (truncated) node axis: one slice add
                block[:, 1] += block[:, 0]

            # indices arranged like the weights, [component, plane, b, c];
            # the plane's carries the offset into the fused 3 * n_cells bins
            np.add(lin[1:4, :, None, :], lin[2:5, None, :, :], out=lbc)
            np.add(lin[:3, :planes], component, out=along)
            np.add(along[:, :, None, None, :], lbc[:, None],
                   out=big_lin[values].reshape(block.shape))
        fused = np.bincount(big_lin[:filled], weights=big_w[:filled],
                            minlength=3 * n_cells).reshape(3, n_cells)
        for target, part in zip(j_flat, fused):
            target += part


# --------------------------------------------------------------------------- #
# particle push
# --------------------------------------------------------------------------- #
def _cross(a: np.ndarray, b: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Cross product of two component-major ``(3, m)`` arrays into ``out``.

    Written out per component on contiguous rows: ``np.cross`` routes through
    ``moveaxis``/``empty``/slice assignments with enough per-call overhead to
    show up at laptop particle counts.  ``tmp`` is an ``(m,)`` scratch row.
    """
    for i, (j, k) in enumerate(((1, 2), (2, 0), (0, 1))):
        np.multiply(a[j], b[k], out=out[i])
        np.multiply(a[k], b[j], out=tmp)
        out[i] -= tmp


def _norm_sq(a: np.ndarray, out: np.ndarray, tmp: np.ndarray) -> None:
    """Squared length of the columns of a ``(3, m)`` array into ``out``.

    Summed as ``(a0² + a2²) + a1²`` — any order is as accurate; this is the
    one ``np.einsum("ij,ij->i")`` takes over an ``(N, 3)`` row in its two-lane
    accumulator, so the push reproduces its ``(N, 3)`` formulation (the oracle
    in ``tests/pic/test_kernels_fused.py``) bit for bit.
    """
    np.multiply(a[0], a[0], out=out)
    np.multiply(a[2], a[2], out=tmp)
    out += tmp
    np.multiply(a[1], a[1], out=tmp)
    out += tmp


def boris_push_fused(species: ParticleSpecies, e_fields: np.ndarray,
                     b_fields: np.ndarray, dt: float,
                     workspace: Optional[Workspace] = None) -> None:
    """Relativistic Boris push, ``CHUNK`` particles at a time, in place.

    Same scheme as its oracle :func:`repro.pic.pusher.boris_push` (half
    electric kick, magnetic rotation, half electric kick).  Each block is
    transposed into component-major ``(3, m)`` rows taken from
    ``workspace`` (``None``: a private one for this call), every term is a
    contiguous row operation written with ``out=``, and the result is
    transposed back into ``species.momenta`` — no ``(N, 3)`` intermediate is
    allocated and no strided column is walked more than once.
    """
    if not species.pushed:
        return
    if dt <= 0:
        raise ValueError("dt must be positive")
    e_fields = np.asarray(e_fields, dtype=np.float64)
    b_fields = np.asarray(b_fields, dtype=np.float64)
    momenta = species.momenta
    if e_fields.shape != momenta.shape or b_fields.shape != momenta.shape:
        raise ValueError("field arrays must have shape (N, 3)")
    if workspace is None:
        workspace = Workspace()

    qmdt2 = species.charge * dt / (2.0 * species.mass * constants.SPEED_OF_LIGHT)
    qdt2m = species.charge * dt / (2.0 * species.mass)
    for start, stop in _chunks(momenta.shape[0]):
        m = stop - start
        half_kick, u, t_vec, u_prime, turn = workspace.array("boris.rows",
                                                             (5, 3, m))
        scale, tmp = workspace.array("boris.scalars", (2, m))
        np.multiply(e_fields[start:stop].T, qmdt2, out=half_kick)
        np.add(momenta[start:stop].T, half_kick, out=u)        # u_minus
        _norm_sq(u, scale, tmp)
        scale += 1.0
        np.sqrt(scale, out=scale)                              # gamma
        np.divide(qdt2m, scale, out=scale)
        np.multiply(b_fields[start:stop].T, scale, out=t_vec)
        _norm_sq(t_vec, scale, tmp)
        _cross(u, t_vec, turn, tmp)
        np.add(u, turn, out=u_prime)
        scale += 1.0
        np.divide(2.0, scale, out=scale)
        t_vec *= scale                       # t_vec becomes the s vector
        _cross(u_prime, t_vec, turn, tmp)
        u += turn                                              # u_plus
        u += half_kick
        momenta[start:stop] = u.T
