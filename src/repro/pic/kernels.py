"""The kernels of the PIC inner loop — the only ones a run executes.

Each is tested against a readable ``*_reference`` oracle (``boris_push``
for the push) in :mod:`repro.pic.interpolation`, :mod:`repro.pic.pusher`
and :mod:`repro.pic.deposition`; :func:`repro.pic.simulation.reference_step`
steps a simulation on them.  The oracles recompute the CIC indices and
weights of every component from scratch (6× per step) and scatter through
``np.add.at``, which is unbuffered and roughly an order of magnitude slower
than a histogram-style scatter; the kernels here are numerically equivalent
and organised for speed:

* :func:`gather_fields` and :func:`deposit_charge_cic` — one CIC index
  scheme: :func:`_lower_nodes` floors, weighs and wraps the lower node of
  both Yee offsets (``0``, ``1/2``) on all three axes in one pass, into
  arrays with a periodic ghost plane on the upper side of each axis (E/B
  copied once per gather, charge bins folded back), so a component's eight
  corners are its lower node plus eight constant offsets: one ``np.take`` +
  ``einsum`` per component, one ``np.bincount`` per charge block.
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
set in one scratch region per stepping thread of a simulation, which the
kernels share because their calls on that thread never overlap: it holds
the largest one call needs (the deposit's), not the sum of all three.  The block loops are inside the kernels
— a caller passes whole ``(N, 3)`` arrays and gets whole arrays back — and
there is one code path: a species of at most ``CHUNK`` particles is simply
one block.

Layout note: all stencil arrays put the *node* axes first and the particle
axis last (``(8, m)`` CIC corners, ``(2, 5, w, m)`` Esirkepov hats,
``(3, m)`` momenta, the gather's ``(6, N)`` E/B).  With the particle axis
innermost every broadcast ufunc runs long contiguous inner loops; the
particle-first layout spends most of its time iterating 2-, 3- or 4-element
inner loops and is several times slower at laptop particle counts.

All kernels are bit-compatible with their oracles up to floating-point
summation order, and gather and push do not depend on ``CHUNK`` at all (no
reduction runs across particles); ``tests/pic/test_kernels_fused.py`` pins
both (including particles straddling the periodic boundary) and the
discrete continuity invariant of the Esirkepov kernel.
"""

from __future__ import annotations

import math
import mmap
from itertools import accumulate, product
from typing import Dict, Optional, Tuple

import numpy as np

from repro import constants
from repro.pic.grid import YeeGrid
from repro.pic.particles import ParticleSpecies

#: Particles per block of the gather, push and deposit loops.  It bounds every
#: per-particle temporary (the ``(8, m)`` CIC corners, the ``(3, p, w, w, m)``
#: Esirkepov blocks) whatever the species size: ~3.1 MB live in a gather
#: block, inside a 4 MB L2.  Larger blocks spill, below ~4096 the per-block
#: Python overhead takes over.  Set from the sweep in
#: ``docs/performance.md``, "Cache-blocked particle kernels".
CHUNK = 8192
#: Crossing particles per sub-block of the deposit's stencil scratch (the
#: hats, rows and node indices: 0.8 kB a particle at the wide body, which is
#: why a sub-block of the narrow body holds ~1.6x as many).  The deposit fills
#: it one sub-block at a time, each writing its scattered pairs straight to
#: their place in the block's, so the pairs and the ``bincount`` do not
#: depend on it.  It keeps that scratch at a quarter of a block's, which is
#: what lets a second stepping thread's workspace fit
#: (``docs/performance.md``, "The PIC step on two threads").
SUB_BLOCK = 2048

_STENCIL3 = np.arange(3.0)
#: coefficients of (s0, ds) in the two Esirkepov transverse row factors
_ROW_S0 = np.array([1.0, 0.5])[:, None, None, None]
_ROW_DS = np.array([0.5, 1.0 / 3.0])[:, None, None, None]
#: lower (0) / upper (1) node of each CIC corner along (x, y, z), in the
#: order of the ``(2, 2, 2, m)`` weights
_CORNERS = np.array(list(product((0, 1), repeat=3)))


def _chunks(n: int):
    """``(start, stop)`` of the consecutive ``CHUNK``-particle blocks of ``n``."""
    return ((start, min(start + CHUNK, n)) for start in range(0, n, CHUNK))


#: byte alignment of every array carved from a :class:`Workspace` region
_ALIGN = 64
#: address space a :class:`Workspace` reserves at once (its pages cost
#: memory only once written): the default problems' kernel calls all fit, so
#: the region is never outgrown mid-call, which would keep the old region
#: resident beside the new one until the call ends
_RESERVE = 32 << 20


class Workspace:
    """One scratch region kept between calls, shared by every kernel call of
    a simulation, so a stepping simulation stops allocating (and the C
    allocator stops re-faulting) its large per-step temporaries.

    A kernel calls :meth:`begin` on entry, which releases every array handed
    out before; :meth:`array` then carves a C-contiguous array of the
    requested shape from the region, after the arrays this call already
    holds.  A name asked for again in the same call, at a size that fits, is
    the same memory (a kernel re-requests its buffers once per block).  The
    gather, the push and the deposit never run at the same time, so they all
    start at the front of the region, and it is as large as the largest
    single call's need, not the sum of the kernels' needs.
    It only grows: a call that outgrows it carries on in a larger region
    (the arrays it already holds keep the old one alive until they go).  The
    contents are unspecified; every user fully overwrites what it takes
    (``out=``) before reading it.  A workspace belongs to one simulation —
    never share one between threads.

    The region is an anonymous memory mapping rather than a ``np.empty``
    block: it returns to the system the moment the workspace is dropped.
    Heap blocks this large, allocated on a stepping thread and freed on
    another, can stay resident in that thread's malloc arena while the next
    simulation's region is carved from a different arena.  It reserves
    :data:`_RESERVE` bytes of address space, of which only the pages the
    kernels write take memory.
    """

    def __init__(self) -> None:
        self._region = np.empty(0, dtype=np.uint8)
        #: ``(name, dtype) -> (offset, nbytes)`` of this call's arrays
        self._slots: Dict[tuple, Tuple[int, int]] = {}
        self._used = 0

    def begin(self) -> "Workspace":
        """Start a kernel call: every array handed out so far is released."""
        self._slots.clear()
        self._used = 0
        return self

    def array(self, name, shape: Tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        slot = self._slots.get((name, dtype))
        if slot is None or slot[1] < nbytes:
            slot = self._slots[name, dtype] = (self._used, nbytes)
            self._used += -(-nbytes // _ALIGN) * _ALIGN
            if self._used > self._region.nbytes:
                pages = mmap.mmap(-1, max(self._used, _RESERVE),
                                  flags=mmap.MAP_PRIVATE)
                self._region = np.frombuffer(pages, dtype=np.uint8)
        offset = slot[0]
        return self._region[offset:offset + nbytes].view(dtype).reshape(shape)


def _ghost_strides(shape: Tuple[int, int, int]) -> np.ndarray:
    """Element strides of a ``shape`` grid with one ghost plane on the upper
    side of each axis, ``(nx+1, ny+1, nz+1)``."""
    _, ny, nz = shape
    return np.array([(ny + 1) * (nz + 1), nz + 1, 1])


def _lower_nodes(positions: np.ndarray, cell_size: Tuple[float, float, float],
                 shape: Tuple[int, int, int],
                 workspace: Workspace) -> Tuple[np.ndarray, np.ndarray]:
    """Per-axis CIC pieces of one block of positions, for both Yee offsets.

    The Yee staggers (:data:`repro.pic.grid.STAGGER`) only use per-axis
    offsets ``0`` and ``1/2`` — rows 0 and 1 here — so the floor, fraction
    and periodic wrap of both offsets and all three axes are one
    ``(2, 3, m)`` pass.  Returns ``(w, lower)`` from ``workspace``:
    ``w[offset, axis]`` the ``(1 - f, f)`` weights of the lower and upper
    node, ``(2, 3, 2, m)``, and ``lower[offset, axis]`` the lower node
    wrapped into the grid and scaled by the :func:`_ghost_strides`,
    ``(2, 3, m)`` int64.  The arrays indexed with it are ghost-padded, so
    the upper node is always ``lower + stride``.
    """
    m = positions.shape[0]
    inv_cell = np.array([1.0 / float(d) for d in cell_size])[:, None]
    # cell-unit coordinates less the offset, ``(offset, axis, m)``; out=
    # forces C order (positions.T is F-ordered and ufuncs would propagate
    # that layout, leaving the particle axis strided in every later
    # broadcast)
    cells, lower = workspace.array("cic.axis", (2, 2, 3, m))
    np.multiply(positions.T, inv_cell, out=cells[0])
    # before any arithmetic that warns on an inf, and before the integer
    # cast, which would turn a NaN into an arbitrary cell
    if not np.isfinite(cells[0]).all():
        raise ValueError("particle positions must be finite")
    np.subtract(cells[0], 0.5, out=cells[1])
    np.floor(cells, out=lower)
    w = workspace.array("cic.w", (2, 3, 2, m))
    np.subtract(cells, lower, out=w[:, :, 1])
    np.subtract(1.0, w[:, :, 1], out=w[:, :, 0])
    # The periodic wrap lower - n * floor(lower / n) is exact in float: a
    # correctly rounded quotient of two integers below 2**53 floors to the
    # exact integer quotient (and beyond 2**52 a coordinate has no fraction
    # left to interpolate with).
    nvec = np.array(shape, dtype=np.float64)[:, None]
    np.divide(lower, nvec, out=cells)
    np.floor(cells, out=cells)
    cells *= nvec
    lower -= cells
    lower *= _ghost_strides(shape)[:, None]
    nodes = workspace.array("cic.lower", (2, 3, m), np.int64)
    np.copyto(nodes, lower, casting="unsafe")
    return w, nodes


# --------------------------------------------------------------------------- #
# gather
# --------------------------------------------------------------------------- #
_E_B = ("Ex", "Ey", "Ez", "Bx", "By", "Bz")
#: rows of the gather's ``(6, N)`` result grouped by the offset row (0 for
#: 0, 1 for 1/2) of their x and y stagger — four pairs, as Ex/By and Ey/Bx
#: share theirs — each with its z row: ``((rx, ry), ((row, rz), ...))``
_XY_PAIRS = (((1, 0), ((0, 0), (4, 1))), ((0, 1), ((1, 0), (3, 1))),
             ((0, 0), ((2, 1),)), ((1, 1), ((5, 0),)))


def gather_fields(grid: YeeGrid, positions: np.ndarray, workspace: Workspace,
                  out: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Interpolate E and B to the particles, ``CHUNK`` particles at a time.

    Returns ``(E, B)``, each ``(N, 3)`` in SI units (V/m and T): transposed
    rows of the ``(6, N)`` array ``out``, so ``E[a:b].T`` is three
    contiguous rows.  E/B are copied once per call into a ghost-padded
    workspace array; per block a component's eight corners are its
    :func:`_lower_nodes` index plus eight constant offsets, and its weights
    are composed as ``(x ⊕ y) ⊕ z``, the ``x ⊕ y`` half once per
    :data:`_XY_PAIRS` entry.  All scratch comes from ``workspace``.  No
    reduction runs across particles, so the result does not depend on
    ``CHUNK``.  A non-finite position raises ``ValueError``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    if positions.ndim != 2 or positions.shape[1] != 3:
        raise ValueError("positions must have shape (N, 3)")
    workspace.begin()
    nx, ny, nz = shape = grid.shape
    padded = workspace.array("gather.padded", (6, nx + 1, ny + 1, nz + 1))
    for row, name in enumerate(_E_B):
        padded[row, :nx, :ny, :nz] = grid.component(name)
    padded[:, nx, :ny, :nz] = padded[:, 0, :ny, :nz]
    padded[:, :, ny, :nz] = padded[:, :, 0, :nz]
    padded[:, :, :, nz] = padded[:, :, :, 0]
    flat = padded.reshape(-1)
    # row r's corners sit at r * padded[0].size + lower + a corner offset
    corners = ((_CORNERS @ _ghost_strides(shape))[:, None]
               + padded[0].size * np.arange(6)[:, None, None])
    n = positions.shape[0]
    if out is None:
        out = np.empty((6, n), dtype=np.float64)
    elif out.shape != (6, n):
        raise ValueError("out must have shape (6, N)")
    for start, stop in _chunks(n):
        if stop - start == 1 and start:
            # einsum sums a lone particle's eight corners in another order
            # than a row of them; redo the neighbour so no block is lone
            start -= 1
        m = stop - start
        w, lower = _lower_nodes(positions[start:stop], grid.config.cell_size,
                                shape, workspace)
        w_xy = workspace.array("gather.w_xy", (2, 2, m))
        weights = workspace.array("gather.weights", (2, 2, 2, m))
        base_xy, base = workspace.array("gather.base", (2, m), np.int64)
        lin = workspace.array("gather.lin", (8, m), np.int64)
        values = workspace.array("gather.values", (8, m))
        for (rx, ry), rows in _XY_PAIRS:
            np.multiply(w[rx, 0, :, None, :], w[ry, 1, None, :, :], out=w_xy)
            np.add(lower[rx, 0], lower[ry, 1], out=base_xy)
            for row, rz in rows:
                np.multiply(w_xy[:, :, None, :], w[rz, 2], out=weights)
                np.add(base_xy, lower[rz, 2], out=base)
                np.add(base, corners[row], out=lin)
                # every index is inside the padded array, so no bounds check
                # (mode="raise" would also route ``out`` through a copy)
                np.take(flat, lin, out=values, mode="clip")
                np.einsum("cn,cn->n", weights.reshape(8, m), values,
                          out=out[row, start:stop])
    return out[:3].T, out[3:].T


# --------------------------------------------------------------------------- #
# CIC charge scatter
# --------------------------------------------------------------------------- #
def deposit_charge_cic(grid: YeeGrid, positions: np.ndarray, charge: float,
                       weights: np.ndarray) -> np.ndarray:
    """Add the CIC charge density [C/m^3] of the particles into ``grid.rho``.

    The gather's index scheme: one ``np.bincount`` per block into
    ghost-padded bins, whose ghost planes are folded back at the end.  A
    non-finite position raises ``ValueError``.
    """
    positions = np.asarray(positions, dtype=np.float64)
    values = (charge / grid.config.cell_volume) * np.asarray(weights,
                                                             dtype=np.float64)
    workspace = Workspace()
    nx, ny, nz = shape = grid.shape
    corners = (_CORNERS @ _ghost_strides(shape))[:, None]
    bins = np.zeros((nx + 1, ny + 1, nz + 1))
    for start, stop in _chunks(positions.shape[0]):
        w, lower = _lower_nodes(positions[start:stop], grid.config.cell_size,
                                shape, workspace)
        w_xy = w[0, 0, :, None, :] * w[0, 1, None, :, :]
        contrib = w_xy[:, :, None, :] * w[0, 2] * values[start:stop]
        bins += np.bincount((lower[0].sum(axis=0) + corners).reshape(-1),
                            weights=contrib.reshape(-1),
                            minlength=bins.size).reshape(bins.shape)
    bins[0] += bins[nx]
    bins[:, 0] += bins[:, ny]
    bins[:, :, 0] += bins[:, :, nz]
    grid.rho += bins[:nx, :ny, :nz]
    return grid.rho


# --------------------------------------------------------------------------- #
# Esirkepov current deposition (chunked, fused bincount scatter)
# --------------------------------------------------------------------------- #
#: ``(stencil width, along-axis planes)`` of a particle that stays in its cell
#: along all three axes and of one that crosses a cell face
_STAY, _GO = (2, 1), (3, 2)


def _stencil_shapes(width: int, planes: int, m: int):
    """Shapes of the float and the int scratch arrays of one block body."""
    return (((2, 5, width, m), (2, 3, width, m), (3, width, m),
             (3, width, width, m)),
            ((5, width, m), (3, planes, m)))


def _carve(flat: np.ndarray, shapes) -> list:
    """Consecutive C-contiguous arrays of ``shapes`` out of a flat buffer."""
    sizes = [math.prod(shape) for shape in shapes]
    return [flat[stop - size:stop].reshape(shape)
            for shape, size, stop in zip(shapes, sizes, accumulate(sizes))]


def deposit_current_esirkepov(grid: YeeGrid, old_positions: np.ndarray,
                              new_positions: np.ndarray, charge: float,
                              weights: np.ndarray, dt: float,
                              workspace: Workspace,
                              blocks: Optional[np.ndarray] = None) -> None:
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
    ``(width, planes)``, in sub-blocks sized by :data:`SUB_BLOCK`, each
    writing its scattered pairs straight to their place in the block's;
    every buffer is taken from ``workspace`` once per block and sized by it,
    whatever the split.

    ``blocks`` (``None``: add into ``grid.J*``) is a ``(n_blocks(N), 3,
    n_cells)`` array that receives each block's current instead, for
    :func:`add_current` to add later in the same order.
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
    charge_density = charge / grid.config.cell_volume

    nvec = np.array([nx, ny, nz], dtype=np.int64)[:, None, None]
    svec = np.array([ny * nz, nz, 1], dtype=np.int64)[:, None, None]
    component = n_cells * np.arange(3)[:, None, None]
    workspace.begin()
    n_values = 3 * _GO[1] * _GO[0] ** 2       # per particle, at most

    for block_index, (start, stop) in enumerate(_chunks(n)):
        m = stop - start
        # the first chunk is the largest, so later ones reuse its buffers.
        # Taken in the order of how densely a block writes them — whole
        # arrays, then the stencil scratch each class carves from the front
        # of, then the scattered pairs, filled only as far as the block needs
        # — so the front of the region, where the gather and the push put
        # their scratch, is made of pages the deposit writes anyway.
        xi, xi_ordered = workspace.array("esirkepov.xi", (2, 2, 3, m))
        base, base_ordered = workspace.array("esirkepov.base", (2, 3, m))
        scale, scale_ordered = workspace.array("esirkepov.scale", (2, m))
        # flat scratch for one sub-block at the widest body; a class carves
        # its own contiguous arrays from the front of it
        n_float, n_int = (sum(map(math.prod, shapes)) for shapes
                          in _stencil_shapes(*_GO, min(m, SUB_BLOCK)))
        floats = workspace.array("esirkepov.stencil", (n_float,))
        ints = workspace.array("esirkepov.nodes", (n_int,), np.int64)
        big_lin = workspace.array("esirkepov.lin", (n_values * m,), np.int64)
        big_w = workspace.array("esirkepov.w", (n_values * m,))
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
            if not np.isfinite(base).all():
                raise ValueError("Esirkepov deposition requires finite "
                                 "particle positions")
            raise ValueError("Esirkepov deposition requires particles to move "
                             "less than one cell per step")
        # the stencil starts at floor(min(xi0, xi1)) = the smaller floor; a
        # particle whose floors agree on every axis stayed in its cell.  The
        # floors live where the reordered coordinates go once they are dead.
        cells = np.floor(xi, out=xi_ordered)
        np.minimum(cells[0], cells[1], out=base)
        stays = (cells[0] == cells[1]).all(axis=0)
        k = int(np.count_nonzero(stays))
        # charge density x weight / dt, the factor every value carries
        np.multiply(charge_density, weights[start:stop], out=scale)
        scale /= dt
        if 0 < k < m:
            order = np.concatenate((np.flatnonzero(stays), np.flatnonzero(~stays)))
            xi = np.take(xi, order, axis=2, out=xi_ordered, mode="clip")
            base = np.take(base, order, axis=1, out=base_ordered, mode="clip")
            scale = np.take(scale, order, out=scale_ordered, mode="clip")

        filled = 0
        for (width, planes), lo, hi in ((_STAY, 0, k), (_GO, k, m)):
            if lo == hi:
                continue
            values = slice(filled, filled + 3 * planes * width * width * (hi - lo))
            filled = values.stop
            shape = (3, planes, width, width, hi - lo)
            class_w = big_w[values].reshape(shape)
            class_lin = big_lin[values].reshape(shape)
            # as many particles a sub-block as the scratch holds stencils of
            # this class: the narrow body takes ~1.6x SUB_BLOCK at a time
            per_float, per_int = (sum(map(math.prod, shapes)) for shapes
                                  in _stencil_shapes(width, planes, 1))
            size = min(floats.size // per_float, ints.size // per_int)
            for sub in range(lo, hi, size):
                end = min(sub + size, hi)
                at = slice(sub - lo, end - lo)
                _esirkepov_body(xi[:, :, sub:end], base[:, sub:end],
                                scale[sub:end], width, planes, floats, ints,
                                class_w[..., at], class_lin[..., at],
                                nvec, svec, component, cell)
        fused = np.bincount(big_lin[:filled], weights=big_w[:filled],
                            minlength=3 * n_cells).reshape(3, n_cells)
        if blocks is None:
            add_current(grid, (fused,))
        else:
            blocks[block_index] = fused


def _esirkepov_body(xi: np.ndarray, base: np.ndarray, scale: np.ndarray,
                    width: int, planes: int, floats: np.ndarray,
                    ints: np.ndarray, block: np.ndarray, block_lin: np.ndarray,
                    nvec, svec, component, cell) -> None:
    """The scattered (weight, index) pairs of one sub-block of one class.

    ``xi`` ``(2, 3, s)``, ``base`` ``(3, s)`` and ``scale`` ``(s,)`` are the
    sub-block's cell-unit positions, stencil anchors and charge factors;
    ``block``/``block_lin`` the ``(3, planes, width, width, s)`` views of
    the block's pairs it writes, with ``floats``/``ints`` as scratch.
    """
    s = scale.shape[0]
    float_shapes, int_shapes = _stencil_shapes(width, planes, s)
    hats, rows, nodes, term = _carve(floats, float_shapes)
    lin, along = _carve(ints, int_shapes)
    # ``tmp`` is dead before ``term`` is written, ``ds_axis`` is taken after
    # ``nodes`` is dead: each lives in the other's memory
    tmp = term.reshape(-1)[:rows.size].reshape(rows.shape)
    ds_axis = nodes.reshape(-1)[:3 * planes * s].reshape(3, planes, s)

    # max(0, 1 - |xi - node|) of both positions and all axes in one stacked
    # pass; hats[0] is s0 and hats[1] becomes ds.  The axis dimension has
    # five rows [x, y, z, x, y]: component a's transverse pair is (b, c) =
    # (a+1, a+2), so the three b axes are rows 1..3 and the three c axes
    # rows 2..4 — views of one array.
    np.add(base[:, None], _STENCIL3[:width, None], out=nodes)
    live = hats[:, :3]
    np.subtract(xi[:, :, None], nodes, out=live)
    np.abs(live, out=live)
    np.subtract(1.0, live, out=live)
    np.maximum(0.0, live, out=live)
    live[1] -= live[0]
    hats[:, 3:] = hats[:, :2]

    # stride-scaled wrapped node indices, the same five rows: node (i, j, k)
    # has raveled index lin[0, i] + lin[1, j] + lin[2, k]
    np.copyto(lin[:3], nodes, casting="unsafe")
    np.remainder(lin[:3], nvec, out=lin[:3])
    lin[:3] *= svec
    lin[3:] = lin[:2]

    # The transverse factor s0_b⊗s0_c + ds_b⊗s0_c/2 + s0_b⊗ds_c/2 +
    # ds_b⊗ds_c/3 as two outer products, (s0 + ds/2)_b⊗s0_c +
    # (s0/2 + ds/3)_b⊗ds_c, times the along-axis ds truncated to ``planes``
    # nodes, which carries the cell size and the charge.
    np.multiply(hats[0, None, 1:4], _ROW_S0, out=rows)
    np.multiply(hats[1, None, 1:4], _ROW_DS, out=tmp)
    rows += tmp
    # (the second outer product goes to the block's last plane, which the
    # final product overwrites)
    np.multiply(rows[0, :, :, None, :], hats[0, 2:5, None, :, :], out=term)
    second = block[:, -1]
    np.multiply(rows[1, :, :, None, :], hats[1, 2:5, None, :, :], out=second)
    term += second
    np.multiply(hats[1, :3, :planes], cell, out=ds_axis)
    ds_axis *= scale
    np.multiply(ds_axis[:, :, None, None, :], term[:, None], out=block)
    if planes == 2:
        # prefix sum along the (truncated) node axis: one slice add
        block[:, 1] += block[:, 0]

    # indices arranged like the weights, [component, plane, b, c]; the
    # plane's carries the offset into the fused 3 * n_cells bins
    np.add(lin[:3, :planes], component, out=along)
    np.add(along[:, :, None, None, :], lin[1:4, None, :, None, :],
           out=block_lin)
    block_lin += lin[2:5, None, None, :, :]


def n_blocks(n: int) -> int:
    """How many ``CHUNK``-particle blocks the kernels cut ``n`` into."""
    return -(-n // CHUNK)


def add_current(grid: YeeGrid, blocks) -> None:
    """Add per-block currents (``(3, n_cells)`` each) into ``grid.J*``, in
    order — :func:`deposit_current_esirkepov`'s own sum, deferred."""
    # flat views of the (C-contiguous) current arrays; += is in place
    j_flat = (grid.Jx.reshape(-1), grid.Jy.reshape(-1), grid.Jz.reshape(-1))
    for block in blocks:
        for target, part in zip(j_flat, block):
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
                     b_fields: np.ndarray, dt: float, workspace: Workspace,
                     particles: slice) -> None:
    """Relativistic Boris push of ``species.momenta[particles]``, ``CHUNK``
    particles at a time, in place.

    Same scheme as its oracle :func:`repro.pic.pusher.boris_push` (half
    electric kick, magnetic rotation, half electric kick).  Each block is
    transposed into component-major ``(3, m)`` rows taken from
    ``workspace``, every term is a
    contiguous row operation written with ``out=``, and the result is
    transposed back into ``species.momenta`` — no ``(N, 3)`` intermediate is
    allocated and no strided column is walked more than once.  The fields
    are those of the pushed particles.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    e_fields = np.asarray(e_fields, dtype=np.float64)
    b_fields = np.asarray(b_fields, dtype=np.float64)
    # a view: the blocks below write through it into the species
    momenta = species.momenta[particles]
    if e_fields.shape != momenta.shape or b_fields.shape != momenta.shape:
        raise ValueError("field arrays must have shape (N, 3)")
    workspace.begin()

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
