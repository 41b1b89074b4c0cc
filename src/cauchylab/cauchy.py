"""Principal-value Cauchy transforms on Lipschitz graph curves.

The related transform has kernel (1/(pi i)) / ((y-x) + i(A(y)-A(x))); the
full transform multiplies the integrand by b(y) = 1 + iA'(y).  The
principal value is discretized by a punctured node sum: the coincident node
is skipped, which keeps the discretized related operator exactly
antisymmetric and makes the discrete adjoint identities hold to rounding.

Applications are dense O(rows * support) sums evaluated in row chunks.
Every punctured sum and every dense matrix, the single-node value and the
windowed compressions included, is built from the kernel blocks of one
helper, ``_kernel_blocks``; no hierarchical acceleration is attempted at
desk scale.  The antisymmetry is exact entry for entry, so a bilinear form
that needs the transform of each of two functions on the other's support
(``related_cauchy_values`` with ``paired``) builds a single
support-by-support block and reads it both ways.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .curve import LipschitzCurve, eval_A, eval_slope
from .errors import PreconditionError
from .grid import GridFunction, UniformGrid

_COEF = 1.0 / (np.pi * 1j)
_CHUNK_ENTRIES = 1 << 22  # kernel-block budget per chunk, ~64 MB complex


@lru_cache(maxsize=8)
def _cached_weight_values(curve: LipschitzCurve, left: float, spacing: float,
                          lo: int, hi: int) -> np.ndarray:
    b = 1.0 + 1j * eval_slope(curve, left + spacing * np.arange(lo, hi))
    b.setflags(write=False)
    return b


def weight_values(curve: LipschitzCurve, grid: UniformGrid) -> np.ndarray:
    """b = 1 + iA' sampled at the grid nodes (right-continuous), for the
    whole-grid operators; code that reads b on a support window uses
    ``weight_window``.  Cached with the windows, as the window (0, count).
    """
    return _cached_weight_values(curve, grid.left, grid.spacing, 0, grid.count)


def weight_window(curve: LipschitzCurve, grid: UniformGrid, lo: int, hi: int) -> np.ndarray:
    """b at the nodes lo, ..., hi - 1, equal bit for bit to
    ``weight_values(curve, grid)[lo:hi]`` without building the whole grid's
    array (the nodes are computed by the same expression).

    Cached per (curve, grid geometry, window): the checks, the bilinear form
    and the re-atomization of one atom read b on the same two bump windows.
    """
    return _cached_weight_values(curve, grid.left, grid.spacing, lo, max(lo, hi))


def slope_node_sums(curve: LipschitzCurve, left, spacing, count, lo: np.ndarray,
                    hi: np.ndarray) -> np.ndarray:
    """Sum of A' over the nodes lo[k], ..., hi[k] - 1 of a grid, for every k,
    in closed form; the grid geometry (left, spacing, count) is one grid's
    or one per k.

    A' is constant on each segment of the curve, so the sum is
    sum_s slope_s * n_s with n_s the number of those nodes in segment s.  A
    node x lies in the segment after every breakpoint p <= x, the
    right-continuous float test of ``eval_slope``, applied to the node
    coordinate as ``weight_values`` computes it.  Where every slope times
    every count is exact in binary (slopes 0, +-1, 1/2), the result equals
    the sum of ``eval_slope`` over the nodes bit for bit; otherwise it
    differs by rounding.
    """
    counts = (hi - lo).astype(float)
    bp = curve.breakpoints
    if bp.size == 0:
        return curve.slopes[0] * counts
    left, h, count = (np.asarray(v)[..., None] for v in (left, spacing, count))
    # first[k, m]: the first node at or right of breakpoint m, in [0, count]
    first = np.clip(np.ceil((bp - left) / h), 0, count).astype(np.int64)
    while True:
        down = (first > 0) & (left + h * (first - 1) >= bp)
        up = (first < count) & (left + h * first < bp)
        if not (down.any() or up.any()):
            break
        first = first - down + up
    first = np.broadcast_to(first, (lo.size, bp.size))
    seg_lo = np.concatenate((np.zeros((lo.size, 1), dtype=np.int64), first), axis=1)
    seg_hi = np.concatenate((first, np.broadcast_to(count, (lo.size, 1))), axis=1)
    per_segment = np.clip(np.minimum(hi[:, None], seg_hi) - np.maximum(lo[:, None], seg_lo),
                          0, None)
    # Segment by segment, so that a sum does not depend on the other ranges
    # asked for with it (NumPy orders a row reduction by the array's shape).
    total = np.zeros(lo.size)
    for s in np.flatnonzero(per_segment.any(axis=0)):
        total += per_segment[:, s] * curve.slopes[s]
    return total


def related_kernel_values(curve: LipschitzCurve, x, y) -> np.ndarray:
    """Kernel of the related transform at off-diagonal pairs (vectorized)."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    denom = (y - x) + 1j * (eval_A(curve, y) - eval_A(curve, x))
    return _COEF / denom


def _kernel_blocks(curve: LipschitzCurve, grid: UniformGrid, rows: np.ndarray,
                   lo: int, hi: int):
    """Punctured related kernel between the nodes ``rows`` and the nodes
    lo..hi-1, in row chunks of at most _CHUNK_ENTRIES entries.

    Yields (r0, r1, K) with K[i, j] = (1/(pi i)) / ((y_j - x_i) + i(A(y_j) -
    A(x_i))) for x_i the node rows[r0 + i] and y_j the node lo + j, and
    K[i, j] = 0 where the two nodes coincide.  Every block is built in place
    in one buffer, so K is only valid until the next block is requested.
    """
    ys = grid.left + grid.spacing * np.arange(lo, hi)
    Ay = eval_A(curve, ys)
    xr = grid.left + grid.spacing * rows
    Ar = eval_A(curve, xr)
    chunk = max(1, _CHUNK_ENTRIES // (hi - lo))
    buf = np.empty((min(chunk, rows.size), hi - lo), dtype=np.complex128)
    for r0 in range(0, rows.size, chunk):
        r1 = min(r0 + chunk, rows.size)
        block = buf[:r1 - r0]
        np.subtract(ys[None, :], xr[r0:r1, None], out=block.real)
        np.subtract(Ay[None, :], Ar[r0:r1, None], out=block.imag)
        hit = np.nonzero((rows[r0:r1] >= lo) & (rows[r0:r1] < hi))[0]
        cols = rows[r0 + hit] - lo
        block[hit, cols] = 1.0
        np.divide(_COEF, block, out=block)
        block[hit, cols] = 0.0
        yield r0, r1, block


def apply_related_cauchy(curve: LipschitzCurve, f: GridFunction) -> GridFunction:
    """Punctured principal-value application of the related transform.

    Output values exist on the whole grid (singular integrals do not keep
    compact support), so the result carries full-grid support.
    """
    grid = f.grid
    lo, hi = f.support_range()
    out = np.zeros(grid.count, dtype=np.complex128)
    if lo < hi:
        fy = f.samples[lo:hi]
        for r0, r1, block in _kernel_blocks(curve, grid, np.arange(grid.count), lo, hi):
            out[r0:r1] = block @ fy * grid.spacing
    return GridFunction(grid, out, grid.covering_interval())


def apply_cauchy(curve: LipschitzCurve, f: GridFunction) -> GridFunction:
    """Cauchy integral on the curve, computed as the related transform of b*f."""
    bf = GridFunction(f.grid, f.samples * weight_values(curve, f.grid), f.support)
    return apply_related_cauchy(curve, bf)


def apply_cauchy_adjoint(curve: LipschitzCurve, g: GridFunction) -> GridFunction:
    """Adjoint of the Cauchy integral under the bilinear pairing: -b * (related g)."""
    t = apply_related_cauchy(curve, g)
    return GridFunction(g.grid, -weight_values(curve, g.grid) * t.samples, t.support)


def related_cauchy_values(curve: LipschitzCurve, f: GridFunction,
                          rows: np.ndarray, paired: np.ndarray | None = None):
    """Punctured related transform of f at a subset of node indices.

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
    grid = f.grid
    lo, hi = f.support_range()
    out = np.zeros(rows.size, dtype=np.complex128)
    out_paired = np.zeros(max(hi - lo, 0), dtype=np.complex128)
    if lo < hi and rows.size:
        fy = f.samples[lo:hi]
        for r0, r1, block in _kernel_blocks(curve, grid, rows, lo, hi):
            out[r0:r1] = block @ fy * grid.spacing
            if paired is not None:
                out_paired -= paired[r0:r1] @ block
        out_paired *= grid.spacing
    return out if paired is None else (out, out_paired)


def related_cauchy_at(curve: LipschitzCurve, f: GridFunction, x0: float) -> complex:
    """Punctured related transform of f at the grid node x0.

    x0 must be a node of f's grid; any other point raises PreconditionError.
    """
    return complex(related_cauchy_values(curve, f, np.array([f.grid.index_of(x0)]))[0])


def assemble_related_matrix(curve: LipschitzCurve, grid: UniformGrid,
                            idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized related transform, quadrature weight included.

    With ``idx``, a nonempty contiguous ascending run of node indices, the
    matrix is restricted to those nodes (rows and columns), which is the
    compression used for windowed spectra.  Entry (i, j) maps samples to
    values, so a matvec equals the punctured node sum.
    """
    lo, hi = 0, grid.count
    if idx is not None:
        lo = int(idx[0]) if len(idx) else -1
        hi = lo + len(idx)
        if lo < 0 or hi > grid.count or not np.array_equal(idx, np.arange(lo, hi)):
            raise PreconditionError("idx must be a nonempty contiguous ascending run "
                                    "of grid nodes")
    out = np.empty((hi - lo, hi - lo), dtype=np.complex128)
    for r0, r1, block in _kernel_blocks(curve, grid, np.arange(lo, hi), lo, hi):
        np.multiply(block, grid.spacing, out=out[r0:r1])
    return out


def assemble_cauchy_matrix(curve: LipschitzCurve, grid: UniformGrid,
                           idx: np.ndarray | None = None) -> np.ndarray:
    """Dense discretized Cauchy integral: related matrix times diag(b)."""
    b = weight_values(curve, grid)
    out = assemble_related_matrix(curve, grid, idx)
    out *= b[None, :] if idx is None else b[idx][None, :]
    return out


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
    if trials < 1:
        raise PreconditionError("trials must be >= 1")
    rng = np.random.default_rng(seed)
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

