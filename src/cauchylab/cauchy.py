"""Principal-value Cauchy transforms on Lipschitz graph curves.

The related transform has kernel (1/(pi i)) / ((y-x) + i(A(y)-A(x))); the
full transform multiplies the integrand by b(y) = 1 + iA'(y).  The
principal value is discretized by a punctured node sum: the coincident node
is skipped, which keeps the discretized related operator exactly
antisymmetric and makes the discrete adjoint identities hold to rounding.

Applications are dense O(rows * support) sums; no hierarchical acceleration
is attempted at desk scale.  One generator, ``_kernel_blocks``, builds every
kernel block, for a stack of layouts of one shape, each on a grid named as
``grid.index_ranges`` names it (a single function or a dense matrix is a
stack of one), and one loop, ``related_cauchy_groups``, takes every
punctured sum from those blocks: ``related_cauchy_values``,
``related_cauchy_at`` and ``apply_related_cauchy`` are groups of one, and
the dense builder reads the same generator.  A pass holds as many whole
blocks as fit in 2^18 entries (4 MB of complex), and a block that fills a
pass by itself is cut into row chunks, so the block stays in cache between
its subtraction and the complex divide that reads it back; a fresh 64 MB
chunk was page-faulted in and evicted before the divide reached it.  One
buffer serves every pass of a call.  The dense builder likewise finishes
each chunk, the quadrature weight, b and a commutator's symbol, before it
writes the chunk into the matrix; one check against physical memory precedes
every dense allocation.  On a straight piece of the curve the kernel depends
on y - x alone, and where the node coordinates are exact arithmetic
progressions (a dyadic grid on a piece of slope 0, +-1 or +-1/2, say) a
block is Toeplitz bit for bit: ``_kernel_blocks`` certifies that from TwoSum
error terms and divides only the block's n + w - 1 distinct denominators, so
the per-entry divide, most of a block's cost, runs once per diagonal and
every entry is still the one it gives.  The antisymmetry is exact entry for
entry, so a bilinear form that needs the transform of each of two functions
on the other's support (``related_cauchy_values`` with ``paired``) builds a
single support-by-support block and reads it both ways, in a group of pairs
of one layout (a factorization stage's atoms) as in a group of one.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import LipschitzCurve, eval_A, eval_slope
from .errors import PreconditionError
from .grid import GridFunction, UniformGrid, require_int

_COEF = 1.0 / (np.pi * 1j)
# Kernel-block budget per chunk: 2^18 complex entries, 4 MB, stay in cache from
# the subtraction to the divide; a fresh 64 MB buffer was page-faulted and
# evicted before the divide read it.
_CHUNK_ENTRIES = 1 << 18


def _physical_memory() -> int:
    return os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")


@lru_cache(maxsize=8)
def _cached_weight_values(curve: LipschitzCurve, left: float, spacing: float,
                          count: int) -> np.ndarray:
    b = weight_windows(curve, left, spacing, np.zeros(1, dtype=np.int64), count)[0]
    b.setflags(write=False)
    return b


def weight_values(curve: LipschitzCurve, grid: UniformGrid) -> np.ndarray:
    """b = 1 + iA' at every node of the grid (right-continuous), cached per
    curve and grid geometry; ``weight_window`` computes b on a window."""
    return _cached_weight_values(curve, grid.left, grid.spacing, grid.count)


def weight_windows(curve: LipschitzCurve, left, spacing, lo: np.ndarray, width: int) -> np.ndarray:
    """b at the nodes lo[k], ..., lo[k] + width - 1 of row k's grid, stacked as
    a (k, width) array: the one expression of b at nodes, whose every row
    rounds as it does alone."""
    left, spacing = np.asarray(left)[..., None], np.asarray(spacing)[..., None]
    return 1.0 + 1j * eval_slope(curve, left + spacing * (lo[:, None] + np.arange(width)))


def weight_window(curve: LipschitzCurve, grid: UniformGrid, lo: int, hi: int) -> np.ndarray:
    """b at the nodes lo, ..., hi - 1: a ``weight_windows`` row, equal bit for
    bit to ``weight_values(curve, grid)[lo:hi]``."""
    return weight_windows(curve, grid.left, grid.spacing, np.array([lo]), max(hi - lo, 0))[0]


def slope_node_sums(curve: LipschitzCurve, left, spacing, count, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Sum of A' over the nodes lo[k], ..., hi[k] - 1 of a grid, for every k,
    in closed form and in O(len(lo)) memory; the grid geometry (left,
    spacing, count) is one grid's or one per k.

    A' is constant on each segment of the curve, so the sum is
    sum_s slope_s * n_s with n_s the number of those nodes in segment s,
    added from +0.0 in increasing s.  A node x lies in the segment after
    every breakpoint p <= x, the right-continuous float test of
    ``eval_slope``, applied to the node coordinate as ``weight_windows``
    computes it.  The test is monotone along the grid, so a range runs from
    the segment of its first node to that of its last, and each breakpoint
    it crosses starts the next segment at the first node at or right of it.
    Where every slope times every count is exact in binary (slopes 0, +-1,
    1/2), the result equals the sum of ``eval_slope`` over the nodes bit for
    bit; otherwise it differs by rounding.
    """
    bp = curve.breakpoints
    if bp.size == 0:
        return curve.slopes[0] * (hi - lo).astype(float)
    total = np.zeros(lo.size)
    live = np.flatnonzero(np.maximum(lo, 0) < np.minimum(hi, count))
    left, h, count = (np.broadcast_to(v, lo.shape)[live] for v in (left, spacing, count))
    start, stop = np.maximum(lo[live], 0), np.minimum(hi[live], count)
    seg = np.searchsorted(bp, left + h * start, side="right")
    last = np.searchsorted(bp, left + h * (stop - 1), side="right")
    rows = np.arange(live.size)     # the ranges with a segment still to add
    while rows.size:
        s, end = seg[rows], stop[rows]
        crossing = s < last[rows]
        cross = rows[crossing]
        end[crossing] = _first_nodes(bp[s[crossing]], left[cross], h[cross], count[cross])
        total[live[rows]] += (end - start[rows]) * curve.slopes[s]
        start[cross], seg[cross] = end[crossing], s[crossing] + 1
        rows = cross
    return total


def _first_nodes(p: np.ndarray, left: np.ndarray, h: np.ndarray, count: np.ndarray):
    """The first node j in [0, count] with left + h * j >= p, count where there
    is none, for every entry: the ceiling, corrected by that float test."""
    first = np.clip(np.ceil((p - left) / h), 0, count).astype(np.int64)
    while True:
        down = (first > 0) & (left + h * (first - 1) >= p)
        up = (first < count) & (left + h * first < p)
        if not (down.any() or up.any()):
            return first
        first = first - down + up


def related_kernel_values(curve: LipschitzCurve, x, y) -> np.ndarray:
    """Kernel of the related transform at pairs (vectorized); 0 where x = y."""
    z = _curve_points(curve, y) - _curve_points(curve, x)
    return np.divide(_COEF, z, out=np.zeros_like(z), where=z != 0)[()]


def _curve_points(curve: LipschitzCurve, x) -> np.ndarray:
    """z = x + iA(x) at the coordinates x, with both parts written as computed
    (a sum with 1j*A would turn a -0.0 in A into +0.0); z(y) - z(x), the
    kernel's denominator, is then the two real differences bit for bit."""
    x = np.asarray(x, dtype=float)
    z = np.empty(x.shape, dtype=np.complex128)
    z.real = x
    z.imag = eval_A(curve, x)
    return z


def _progression_step(z: np.ndarray) -> complex | None:
    """The step d with z[k] = z[0] + k*d exactly, part by part, or None when
    z has fewer than two entries or is no such progression.

    A consecutive difference fl(v[k+1] - v[k]) is exact when the error term
    of Knuth's TwoSum, (v[k+1] - b') - (v[k] + a') with b' = s + v[k] and
    a' = s - b', is 0 (Higham, Accuracy and Stability of Numerical
    Algorithms, 2nd ed., section 4.3); the progression holds when every
    difference is exact and all of them are equal.  A NaN fails both tests.
    """
    if z.size < 2:
        return None
    steps = []
    for v in (z.real, z.imag):
        a, b = v[:-1], v[1:]
        s = b - a
        b_virtual = s + a
        a_virtual = s - b_virtual
        if np.any((b - b_virtual) - (a + a_virtual)) or np.any(s != s[0]):
            return None
        steps.append(s[0])
    return complex(*steps)


def _kernel_blocks(curve: LipschitzCurve, left, spacing, rows: np.ndarray, lo: np.ndarray,
                   w: int):
    """Punctured related kernel of a stack of k layouts of one shape, layout
    a between the nodes rows[a] (n of them) and the nodes lo[a], ...,
    lo[a] + w - 1 of its grid; a single layout is a stack of one.

    Yields (a0, a1, r0, r1, K) with K[a - a0, i, j] = (1/(pi i)) / ((y_j -
    x_i) + i(A(y_j) - A(x_i))) for x_i the node rows[a, r0 + i] and y_j the
    node lo[a] + j, and 0 where the two nodes coincide.  The denominator is
    z_j - z_i with z = ``_curve_points`` at the nodes.  A pass holds as many
    whole blocks as fit in _CHUNK_ENTRIES; a block that fills a pass by itself
    is cut into chunks of rows.  Every pass is built in place in one buffer,
    allocated once per call, so K is only valid until the next pass.

    Where the columns' z and a chunk's rows' z are exact arithmetic
    progressions with one common step d (``_progression_step``) and the rows
    are a contiguous ascending run, the exact difference of the two nodes is
    (z(y_0) - z(x_0)) + (j - i) d in each part, and IEEE subtraction rounds
    the exact difference correctly, so K[i, j] depends on j - i alone.  That
    chunk takes its n + w - 1 distinct denominators (the first column bottom
    up, then the first row) by the same subtraction, divides them once and
    copies its rows out of a strided Toeplitz view: the same bytes as one
    divide per entry.  The certificate costs O(n + w) per chunk, so it runs
    only on a block that fills a pass by itself; the stacked small blocks
    and every chunk it rejects take one subtraction and one divide per
    entry.
    """
    k, n = rows.shape
    if not (k and n and w):
        return
    per_pass = max(1, _CHUNK_ENTRIES // (n * w))
    chunk = min(n, max(1, _CHUNK_ENTRIES // w))
    left, spacing = np.asarray(left)[..., None], np.asarray(spacing)[..., None]
    buf = np.empty(min(per_pass, k) * chunk * w, dtype=np.complex128)
    for a0 in range(0, k, per_pass):
        a1 = min(a0 + per_pass, k)
        at = slice(a0, a1)
        x0 = left[at] if left.ndim > 1 else left     # a scalar is every layout's
        h = spacing[at] if spacing.ndim > 1 else spacing
        zy = _curve_points(curve, x0 + h * (lo[at, None] + np.arange(w)))
        zr = _curve_points(curve, x0 + h * rows[at])
        step = _progression_step(zy[0]) if n * w >= _CHUNK_ENTRIES else None
        for r0 in range(0, n, chunk):
            r1 = min(r0 + chunk, n)
            block = buf[:(a1 - a0) * (r1 - r0) * w].reshape(a1 - a0, r1 - r0, w)
            if (step is not None and np.all(np.diff(rows[a0, r0:r1]) == 1)
                    and _progression_step(zr[0, r0:r1]) == step):
                _toeplitz_block(zy[0], zr[0, r0:r1], rows[a0, r0] - lo[a0], block[0])
            else:
                _punctured_block(zy, zr[:, r0:r1], rows[at, r0:r1], lo[at, None], block)
            yield a0, a1, r0, r1, block


def _punctured_block(zy: np.ndarray, zr: np.ndarray, rows: np.ndarray, lo,
                     block: np.ndarray) -> None:
    """Fill the C-contiguous ``block`` (k, n, w) with K[a, i, j] = (1/(pi i))
    / (zy[a, j] - zr[a, i]), one subtraction and one divide per entry, and 0
    where the row node rows[a, i] is the column node lo[a, 0] + j."""
    np.subtract(zy[:, None, :], zr[:, :, None], out=block)
    w = block.shape[-1]
    offset = (rows - lo).ravel()    # each row node's place among the columns
    hit = np.flatnonzero((offset >= 0) & (offset < w))
    at = hit * w + offset[hit]      # its entry in the C-contiguous block
    flat = block.reshape(-1)
    flat[at] = 1.0
    np.divide(_COEF, block, out=block)
    flat[at] = 0.0


def _toeplitz_block(zy: np.ndarray, zr: np.ndarray, offset: int, block: np.ndarray) -> None:
    """Fill ``block`` with the kernel K[i, j] = f(j - i) between the rows zr
    and the columns zy, certified translation invariant by the caller;
    ``offset`` is the coincident j - i, the first row's node minus the first
    column's."""
    n, w = block.shape
    t = np.empty(n + w - 1, dtype=np.complex128)
    np.subtract(zy[0], zr[::-1], out=t[:n])
    np.subtract(zy[1:], zr[0], out=t[n:])
    coincident = n - 1 + offset
    inside = 0 <= coincident < t.size
    if inside:
        t[coincident] = 1.0
    np.divide(_COEF, t, out=t)
    if inside:
        t[coincident] = 0.0
    # row i of the block is t[n-1-i : n-1-i+w]
    block[...] = np.lib.stride_tricks.sliding_window_view(t, w)[::-1]


def apply_related_cauchy(curve: LipschitzCurve, f: GridFunction) -> GridFunction:
    """Punctured principal-value application of the related transform:
    ``related_cauchy_values`` at every node.

    Output values exist on the whole grid (singular integrals do not keep
    compact support), so the result carries full-grid support.
    """
    grid = f.grid
    return GridFunction(grid, related_cauchy_values(curve, f, np.arange(grid.count)),
                        grid.covering_interval())


def apply_cauchy(curve: LipschitzCurve, f: GridFunction) -> GridFunction:
    """Cauchy integral on the curve, computed as the related transform of b*f."""
    lo, hi = f.support_range()
    bf = GridFunction(f.grid, (lo, f.values * weight_window(curve, f.grid, lo, hi)), f.support)
    return apply_related_cauchy(curve, bf)


def apply_cauchy_adjoint(curve: LipschitzCurve, g: GridFunction) -> GridFunction:
    """Adjoint of the Cauchy integral under the bilinear pairing: -b * (related g)."""
    t = apply_related_cauchy(curve, g)
    return GridFunction(g.grid, -weight_values(curve, g.grid) * t.values, t.support)


def related_cauchy_values(curve: LipschitzCurve, f: GridFunction,
                          rows: np.ndarray, paired: np.ndarray | None = None):
    """Punctured related transform of f at a subset of node indices: a group
    of one of ``related_cauchy_groups``.

    Only the support columns and the requested rows are touched, so the
    cost is O(len(rows) * support), not O(N^2).

    ``paired``, when given, holds the samples at ``rows`` of a second
    function u that vanishes at every other node (``rows`` distinct).  Then
    the result is the pair (T(f) at rows, T(u) at the nodes of f's support
    window), both from the one kernel block M[rows, supp f]: the punctured
    related matrix is exactly antisymmetric with a zero diagonal, so
    M[supp f, rows] = -M[rows, supp f]^T holds entry for entry even where
    the two sets of nodes overlap, and T(u) there is -(u @ M[rows, supp f]).
    """
    out = related_cauchy_groups(curve, f.grid.left, f.grid.spacing, rows[None], np.array([f.lo]),
                                f.values[None], None if paired is None else paired[None])
    return out[0] if paired is None else (out[0][0], out[1][0])


def related_cauchy_groups(curve: LipschitzCurve, left, spacing, rows: np.ndarray,
                          lo: np.ndarray, f: np.ndarray, paired: np.ndarray | None = None):
    """``related_cauchy_values`` for a group of k functions, f_k on its grid
    with the samples f[k] at the nodes lo[k], ..., lo[k] + w - 1, at the
    nodes rows[k]: the (k, n) array of T(f_k) at rows[k] and, when
    ``paired`` holds the samples of u_k at the distinct nodes rows[k], the
    (k, w) array of T(u_k) on f_k's window as well.

    The one sum loop over ``_kernel_blocks``: every pass makes the matrix
    products of one block on all of its blocks at once (``np.matmul`` of
    stacked blocks rounds as that of each block alone), and the row chunks
    of a block that fills a pass by itself add up T(u_k) chunk by chunk, so
    every row is the same whatever the group and the chunk budget.
    """
    out = np.zeros(rows.shape, dtype=np.complex128)
    out_paired = np.zeros(f.shape, dtype=np.complex128)
    for a0, a1, r0, r1, block in _kernel_blocks(curve, left, spacing, rows, lo, f.shape[1]):
        out[a0:a1, r0:r1] = np.matmul(block, f[a0:a1, :, None])[..., 0]
        if paired is not None:
            out_paired[a0:a1] -= np.matmul(paired[a0:a1, None, r0:r1], block)[:, 0]
    spacing = np.asarray(spacing)[..., None]
    out *= spacing
    if paired is None:
        return out
    out_paired *= spacing
    return out, out_paired


def related_cauchy_at(curve: LipschitzCurve, f: GridFunction, x0: float) -> complex:
    """Punctured related transform of f at the grid node x0.

    x0 must be a node of f's grid; any other point raises PreconditionError.
    """
    return complex(related_cauchy_values(curve, f, np.array([f.grid.index_of(x0)]))[0])


def _require_memory(entries: int, what: str) -> None:
    """Raise PreconditionError unless ``entries`` complex values, named by
    ``what``, and one kernel-block chunk fit in physical memory; called
    before the first of them is allocated."""
    have = _physical_memory()
    if 16 * (entries + _CHUNK_ENTRIES) > have:
        raise PreconditionError(f"{what} would take more than the {have} bytes of "
                                f"physical memory")


def _assemble_dense(curve: LipschitzCurve, grid: UniformGrid, idx: np.ndarray | None,
                   weighted: bool, phi: np.ndarray | None = None) -> np.ndarray:
    """The one dense builder: the related matrix K*h, times diag(b) when
    ``weighted``, and with ``phi`` (samples on the whole grid) the commutator
    diag(phi) M - M diag(phi) of that matrix M.

    Each kernel-block chunk is finished while it is in cache, with the
    elementwise operations of the separate whole-matrix passes in their
    order, so every entry equals theirs bit for bit.  ``idx`` as in
    ``assemble_related_matrix``.
    """
    lo, hi = 0, grid.count
    if idx is not None:
        lo = int(idx[0]) if len(idx) else -1
        hi = lo + len(idx)
        if lo < 0 or hi > grid.count or not np.array_equal(idx, np.arange(lo, hi)):
            raise PreconditionError("idx must be a nonempty contiguous ascending run "
                                    "of grid nodes")
    _require_memory((hi - lo) ** 2, f"a dense {hi - lo} x {hi - lo} complex matrix")
    b = weight_window(curve, grid, lo, hi) if weighted else None
    if phi is not None:
        phi = phi[lo:hi]
    out = np.empty((hi - lo, hi - lo), dtype=np.complex128)
    for _, _, r0, r1, block in _kernel_blocks(curve, grid.left, grid.spacing,
                                              np.arange(lo, hi)[None], np.array([lo]), hi - lo):
        block, rows = block[0], out[r0:r1]
        block *= grid.spacing
        if b is not None:
            block *= b
        if phi is None:
            rows[...] = block
        else:
            np.multiply(phi[r0:r1, None], block, out=rows)
            block *= phi
            rows -= block
    return out


def assemble_related_matrix(curve: LipschitzCurve, grid: UniformGrid,
                            idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized related transform, quadrature weight included.

    With ``idx``, a nonempty contiguous ascending run of node indices, the
    matrix is restricted to those nodes (rows and columns), which is the
    compression used for windowed spectra.  Entry (i, j) maps samples to
    values, so a matvec equals the punctured node sum.  A matrix that would
    not fit in physical memory raises before it is allocated.
    """
    return _assemble_dense(curve, grid, idx, weighted=False)


def assemble_cauchy_matrix(curve: LipschitzCurve, grid: UniformGrid,
                           idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized Cauchy integral: related matrix times diag(b)."""
    return _assemble_dense(curve, grid, idx, weighted=True)


@dataclass(frozen=True)
class KernelBoundsReport:
    size_constant: float
    smoothness_constant: float


def kernel_bounds_check(curve: LipschitzCurve, trials: int, seed: int = 0) -> KernelBoundsReport:
    """Empirical size and smoothness constants of the related kernel.

    Samples random triples (x, x0, y) with |x - x0| <= |y - x|/2 across
    several length scales and returns the observed maxima of
    |K(x,y)|*|x-y| and of the second-difference smoothness quotient.
    Both are finite for any Lipschitz slope bound by the curve geometry.
    """
    trials = require_int(trials, 1, "trials")
    rng = np.random.default_rng(require_int(seed, 0, "seed"))
    x = rng.uniform(-8.0, 8.0, trials)
    gap = 10.0 ** rng.uniform(-3.0, 1.0, trials) * rng.choice([-1.0, 1.0], trials)
    y = x + gap
    u = rng.uniform(0.02, 0.5, trials) * rng.choice([-1.0, 1.0], trials)
    x0 = x + u * np.abs(gap)

    k_xy = related_kernel_values(curve, x, y)
    size_constant = float(np.max(np.abs(k_xy) * np.abs(gap)))

    diff = (np.abs(k_xy - related_kernel_values(curve, x0, y))
            + np.abs(related_kernel_values(curve, y, x) - related_kernel_values(curve, y, x0)))
    quotient = diff * gap ** 2 / np.abs(x - x0)
    smoothness_constant = float(np.max(quotient))
    return KernelBoundsReport(size_constant, smoothness_constant)

