"""Constructive atomic decomposition of two-bump functions with b-cancellation.

Input: a ``TwoBump`` f, its samples on two radius-r bumps separated by M*r
with M > 100, and integral of f*b equal to zero.  Output: for each bump, a
telescoping chain of atoms supported on doubling intervals I(c, 2^i r),
closed by a shared tail interval centered between the bumps; 2*(i0+1) terms,
kept as table rows with one array of coefficients, where i0 is the smallest
integer with 2^i0 >= M + 1.
``_validate_two_bump`` checks the input; ``two_bump_tables`` builds the
terms' table of a group of such functions from their bump samples and
weighted sums, as its caller certified them.

Every emitted atom is one of two explicit shapes, kept as a row of a
``ProfileTable`` so it can be re-instantiated exactly on another
node-aligned grid:

* two-level: F * (chi_inner / D_inner - chi_outer / D_outer), where D_I is
  the discrete integral of b over I on the instantiation grid.  The
  weighted cancellation then holds on any grid by construction.
* bump-minus-mean: (bump samples) - F * chi_outer / D_outer with
  F = integral of bump * b, taken, like D_I, on the instantiation grid, so
  the cancellation holds on any grid of the bump's spacing that hosts it.

A table is a struct of arrays whose rows stand alone, so ``take`` is plain
indexing, and each row may sit on a grid of its own, named as in
``grid.index_ranges``.  ``summarize_profiles``, the one summarizer,
certifies every row from closed-form D_I in array passes, with Python's
complex rounding; ``profile_atom`` writes one row's atom on its outer
interval's window only.

All interval endpoints are integer multiples of the spacing (snapped), so
indicator integrals are exact per cell and the telescoping reconstruction
holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cauchy import slope_node_sums, weight_window, weight_windows
from .curve import AccretiveWeight
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import (GridFunction, Interval, UniformGrid, _complex_div, _complex_mul, complex_abs,
                   csv_text, index_ranges, ordered_sum, require_rows)
from .spaces import (ATOM_TOL, atom_accepted, cancellation_ratio, weighted_cancellation,
                     weighted_sums)

COEFF_FACTOR = 6.0     # per-coefficient bound: 6 * sup|b| * r
COEFF_SLACK = 1e-6
# Work bound: nodes of an atom's support, or of a two-bump bump, on its grid.
# An atom's factorization reads a kernel block of the square of that many
# entries, 2^32 here; at 1 stage on the tent, --m0 8192 (32,777 nodes) took
# 4.1-4.6 s on 2 cores with NumPy 2.4 and OpenBLAS.
MAX_ATOM_NODES = 1 << 16


class TwoBump(NamedTuple):
    """A function on ``grid`` that vanishes off I(x0, r) and I(y0, r), given
    by its samples ``x_bump`` and ``y_bump`` on the nodes of each bump."""

    grid: UniformGrid
    x0: float
    y0: float
    r: float
    x_bump: np.ndarray
    y_bump: np.ndarray

    def ranges(self) -> list[tuple[int, int]]:
        """The node range [lo, hi) of each bump."""
        return [self.grid.index_range(Interval(c, self.r)) for c in (self.x0, self.y0)]

    def on(self, support: Interval) -> GridFunction:
        """f on the nodes of ``support``, which holds both bumps: the bumps
        are added into zeros, so a node they share carries their sum."""
        lo, hi = self.grid.index_range(support)
        values = np.zeros(hi - lo, dtype=np.complex128)
        for (start, _), bump in zip(self.ranges(), (self.x_bump, self.y_bump)):
            values[start - lo:start - lo + bump.size] += bump
        return GridFunction(self.grid, (lo, values), support)


class Bump(NamedTuple):
    """Samples of a bump row on the nodes of its inner interval, at ``spacing``."""

    values: np.ndarray
    spacing: float


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Atom shapes, one row each, as a struct of arrays.

    Row k is F * (chi_inner / D_inner - chi_outer / D_outer) with F =
    ``scale[k]``, the inner interval I(inner_center[k], inner_radius[k]) and
    the outer interval I(outer_center[k], outer_radius[k]), or, where
    ``bumps[k]`` holds a ``Bump`` sampled on the inner interval, (bump
    samples) - F * chi_outer / D_outer.  ``scale`` is read only on two-level
    rows: a bump row's F is the integral of its samples times b on the grid
    it is summarized on.
    """

    inner_center: np.ndarray
    inner_radius: np.ndarray
    outer_center: np.ndarray
    outer_radius: np.ndarray
    scale: np.ndarray
    bumps: tuple

    def __len__(self) -> int:
        return self.scale.size

    def inner_interval(self, k: int) -> Interval:
        return Interval(float(self.inner_center[k]), float(self.inner_radius[k]))

    def outer_interval(self, k: int) -> Interval:
        return Interval(float(self.outer_center[k]), float(self.outer_radius[k]))

    def take(self, rows) -> "ProfileTable":
        """The given rows, in order."""
        rows = np.asarray(rows, dtype=np.int64)
        return ProfileTable(self.inner_center[rows], self.inner_radius[rows],
                            self.outer_center[rows], self.outer_radius[rows],
                            self.scale[rows], tuple(self.bumps[k] for k in rows))

    @staticmethod
    def concat(tables) -> "ProfileTable":
        """The rows of one or more tables, one table after another."""
        columns = zip(*((t.inner_center, t.inner_radius, t.outer_center, t.outer_radius,
                         t.scale) for t in tables))
        return ProfileTable(*map(np.concatenate, columns),
                            tuple(bump for t in tables for bump in t.bumps))


@dataclass(frozen=True, eq=False)
class AtomicDecomposition:
    """Terms as arrays, one entry per row of ``table``: row k is the term
    (j, i) = divmod(k, i0 + 1) + (1, 1), with the coefficient
    ``coefficient[k]``, the support ``table.outer_interval(k)`` and the
    certificate quantities of ``summary``; ``profile_atom`` writes its atom."""

    coefficient: np.ndarray
    i0: int
    radius: float
    weight_sup: float
    grid: UniformGrid
    table: "ProfileTable"
    summary: "ProfileSummary"


def _require_atom_nodes(grid: UniformGrid, support: Interval, what: str) -> None:
    """Raise PreconditionError, before any array is built, when the atom on
    ``support`` covers more than MAX_ATOM_NODES nodes of ``grid``."""
    lo, hi = grid.index_range(support)
    if hi - lo > MAX_ATOM_NODES:
        raise PreconditionError(
            f"{what} covers {hi - lo} nodes, over the work bound of {MAX_ATOM_NODES}: its "
            f"factorization's kernel block would hold {(hi - lo) ** 2} entries")


def _interval_integrals(weight: AccretiveWeight, left, spacing, count,
                        center: np.ndarray, radius: np.ndarray):
    """Closed node ranges [lo, hi) and the real and imaginary parts of the
    discrete integrals D_I = h * (sum of b over the range) of the intervals
    I(center[k], radius[k]), on one grid (left, spacing, count) or on one
    grid each; an interval without nodes raises."""
    lo, hi = index_ranges(left, spacing, count, center, radius)
    require_rows(lo < hi, GridTooNarrowError, lambda q: f"interval "
                 f"{Interval(float(center[q]), float(radius[q]))} has no nodes on the grid")
    slope_sum = slope_node_sums(weight.curve, left, spacing, count, lo, hi)
    return lo, hi, (hi - lo) * spacing, slope_sum * spacing


def containment_index(big_m: float) -> int:
    """Smallest i with 2^i >= M + 1, the doubling chain length, for a finite M >= 1."""
    if not (1.0 <= big_m < math.inf):
        raise PreconditionError(f"the doubling chain needs a finite M >= 1, got {big_m}")
    return math.ceil(math.log2(big_m + 1.0) - 1e-12)


def two_bump_host_grid(x0: float, y0: float, r: float, spacing: float) -> UniformGrid:
    """Grid of the given spacing, with x0 on a node, just wide enough for the
    doubling chains and the shared tail interval of the two-bump layout
    (x0, y0, r); y0 may sit on either side of x0.

    The tail I(mid, 2^(i0+1) r) contains both chains I(x0, 2^i0 r) and
    I(y0, 2^i0 r), because |x0 - mid| = M r / 2 and 2^i0 >= M + 1, so the
    tail alone fixes the span.  A radius under one cell, centers less than
    r apart, or a span beyond the float range raises PreconditionError.
    """
    if not (all(math.isfinite(v) for v in (x0, y0, r, spacing)) and spacing > 0
            and 1.0 - 1e-9 <= r / spacing < math.inf):
        raise PreconditionError(
            f"two-bump layout needs finite centers, a positive finite spacing and a radius of "
            f"at least one and finitely many cells, got x0={x0}, y0={y0}, r={r}, spacing={spacing}")
    if not 1.0 <= abs(y0 - x0) / r < math.inf:
        raise PreconditionError(f"two-bump centers x0={x0} and y0={y0} must lie at least one "
                                f"and finitely many radii r={r} apart")
    mid = 0.5 * (x0 + y0)
    tail = (2.0 ** (containment_index(abs(y0 - x0) / r) + 1)) * r
    if not (math.isfinite(mid - tail) and math.isfinite(mid + tail)):
        raise PreconditionError(
            f"two-bump layout x0={x0}, y0={y0}, r={r} spans beyond the float range")
    left = x0 - (math.ceil((x0 - (mid - tail)) / spacing - 1e-9) + 2) * spacing
    return UniformGrid(left, spacing, math.ceil((mid + tail - left) / spacing - 1e-9) + 3)


@dataclass(frozen=True, eq=False)
class ProfileSummary:
    """What ``summarize_profiles`` computed for each row of a table on a grid.

    Coefficient ``alpha`` (sup |f| times the outer length), the certificate
    quantities, the node ranges of the inner interval (the bump's on bump
    rows) and of the outer interval, and the levels the atom is written
    from: ``level_in`` = F / D_inner on the inner nodes (unused on bump
    rows) and ``v_out`` = F / D_outer, subtracted on the outer nodes.
    """

    alpha: np.ndarray
    size_value: np.ndarray
    residual: np.ndarray
    inner_lo: np.ndarray
    inner_hi: np.ndarray
    outer_lo: np.ndarray
    outer_hi: np.ndarray
    level_in: np.ndarray
    v_out: np.ndarray

    def accepted(self) -> np.ndarray:
        return atom_accepted(self.size_value, self.residual)


# Samples in one stack of bump rows.  On a factorize-smooth benchmark pass,
# stacks of 2^13 complex samples (128 KiB, glibc's default mmap threshold)
# raised the peak RSS by 1.1 MB over stacks of one row; stacks of 2^12 or 2^11
# read as stacks of one row do.
_STACK_ENTRIES = 1 << 12


def _stacks(sizes: np.ndarray) -> list[np.ndarray]:
    """The positions 0, 1, ... of ``sizes`` grouped by equal size, in
    increasing order, and cut into stacks of at most _STACK_ENTRIES entries
    (one position at least) each."""
    if not sizes.size:
        return []
    order = np.argsort(sizes, kind="stable")
    stacks = []
    for group in np.split(order, np.flatnonzero(np.diff(sizes[order])) + 1):
        per = max(1, _STACK_ENTRIES // int(sizes[group[0]]))
        stacks += np.split(group, range(per, group.size, per))
    return stacks


def summarize_profiles(weight: AccretiveWeight, left, spacing, count,
                       table: ProfileTable) -> ProfileSummary:
    """Coefficients, certificates and levels of every row of a table, each on
    its node-aligned grid (left, spacing, count as in ``grid.index_ranges``:
    one grid's, or one per row), without materializing an atom.

    The D_I of every row's two intervals are integrated in closed form, in
    one pass, and checked against |D_I| >= |I| (Re b = 1).  A bump row's F
    is the ``weighted_sums`` of its samples on its own grid, as
    ``check_atom`` takes it, so its weighted cancellation holds on that
    grid.  The certificate quantities are the discrete sums the materialized
    atom would produce, as array expressions over the rows: the bump rows
    read their samples and b on the bump window in stacks of rows of one
    sample count, and the products and quotients (``_complex_mul``,
    ``_complex_div``) round as Python's complex ``*`` and ``/``, as NumPy's
    sums and ``complex_abs`` round as its ``+``, ``-`` and ``abs``.  A bump
    row off the grid's spacing or node range raises for the first such row.
    """
    n = len(table)
    left, spacing, count = (np.broadcast_to(v, n) for v in (left, spacing, count))
    center = np.concatenate([table.inner_center, table.outer_center])
    radius = np.concatenate([table.inner_radius, table.outer_radius])
    lo, hi, d_re, d_im = _interval_integrals(weight, np.tile(left, 2), np.tile(spacing, 2),
                                             np.tile(count, 2), center, radius)
    length = 2.0 * radius
    d = np.empty(d_re.shape, dtype=np.complex128)
    d.real, d.imag = d_re, d_im
    require_rows(complex_abs(d) >= length * (1.0 - 1e-12), NumericalCheckError,
                 lambda q: f"denominator floor violated on "
                           f"{Interval(float(center[q]), float(radius[q]))}: "
                           f"|{complex(d[q])}| < {length[q]}")
    bump_rows = np.flatnonzero([bump is not None for bump in table.bumps])
    bumps = [bump for bump in table.bumps if bump is not None]
    scale = table.scale.astype(np.complex128)
    ilo, ihi, olo, ohi = lo[:n], hi[:n], lo[n:], hi[n:]
    row_spacing = spacing[bump_rows]
    sizes = np.array([bump.values.size for bump in bumps], dtype=np.int64)
    off_spacing = (np.abs(np.array([bump.spacing for bump in bumps], dtype=float) - row_spacing)
                   > 1e-12 * row_spacing)
    bad = np.flatnonzero(off_spacing | ((ihi - ilo)[bump_rows] != sizes))
    if bad.size:
        if off_spacing[bad[0]]:
            raise PreconditionError("bump profiles only re-instantiate at the same spacing")
        raise GridTooNarrowError("grid does not host the bump node range")
    d_in, d_out = d[:n], d[n:]
    # per bump row, from one read of its samples: F, sup and sum of |bump - F / D_outer|
    bump_sup, bump_abs = np.empty(n), np.empty(n)
    for stack in _stacks(sizes):
        rows = bump_rows[stack]
        values = np.stack([bumps[i].values for i in stack.tolist()])
        b = weight_windows(weight.curve, left[rows], spacing[rows], ilo[rows], values.shape[1])
        scale[rows] = weighted_sums(values, b, spacing[rows])
        inner = np.abs(values - _complex_div(scale[rows], d_out[rows])[:, None])
        bump_sup[rows] = np.max(inner, axis=1)
        bump_abs[rows] = np.sum(inner, axis=1)
    v = _complex_div(scale, d_out)
    level = _complex_div(scale, d_in)
    v_in = level - v
    abs_out = complex_abs(v)
    # Per row over the inner nodes: sup |f|, sum |f|, the integral of f*b
    # (F on bump rows); and D of the outer nodes that carry -v_out alone.
    sup_in = complex_abs(v_in)
    inner_int = _complex_mul(v_in, d_in)
    ring = d_out - d_in
    inner_abs = sup_in * (ihi - ilo)
    sup_in[bump_rows], inner_abs[bump_rows] = bump_sup[bump_rows], bump_abs[bump_rows]
    inner_int[bump_rows] = scale[bump_rows]
    ring[bump_rows] = d_out[bump_rows]
    sup = np.maximum(sup_in, abs_out)
    gap = inner_int - _complex_mul(v, ring)
    cancel = complex_abs(gap)
    mass = (inner_abs + abs_out * ((ohi - olo) - (ihi - ilo))) * spacing
    alpha = sup * length[n:]
    # alpha is 0 only when every level is 0, and then the mass is 0 too
    size_value = np.divide(sup * length[n:], alpha, out=np.zeros(n), where=alpha != 0.0)
    residual = cancellation_ratio(cancel, mass * weight.sup_norm)
    return ProfileSummary(alpha, size_value, residual, ilo, ihi, olo, ohi, level, v)


def _row_at(table: ProfileTable, summary: ProfileSummary, k: int,
            nodes: np.ndarray) -> np.ndarray:
    """Row k's unit-coefficient atom at the sorted ``nodes``, which hold
    every node of a bump row's inner range; each range is a slice of them."""
    ends = (summary.inner_lo[k], summary.inner_hi[k], summary.outer_lo[k], summary.outer_hi[k])
    ilo, ihi, olo, ohi = np.searchsorted(nodes, ends).tolist()
    values = np.zeros(nodes.size, dtype=np.complex128)
    bump = table.bumps[k]
    if bump is None:
        values[ilo:ihi] += complex(summary.level_in[k])
    else:
        values[ilo:ihi] = bump.values
    values[olo:ohi] -= complex(summary.v_out[k])
    alpha = float(summary.alpha[k])
    if alpha > 0.0:
        values[olo:ohi] /= alpha
    return values


def profile_atom(grid: UniformGrid, table: ProfileTable, summary: ProfileSummary,
                 k: int) -> GridFunction:
    """Unit-coefficient atom of row k on its grid, written on the outer window."""
    lo = min(int(summary.inner_lo[k]), int(summary.outer_lo[k]))
    nodes = np.arange(lo, max(int(summary.inner_hi[k]), int(summary.outer_hi[k])))
    return GridFunction(grid, (lo, _row_at(table, summary, k, nodes)), table.outer_interval(k))


def _validate_two_bump(weight: AccretiveWeight, f: TwoBump) -> np.ndarray:
    """Check the two-bump input contract (PreconditionError): r > 0, M > 100,
    one sample of f on each bump node, at most 1 and cancelling to ATOM_TOL
    of its weighted mass; return its weighted sum over each bump."""
    if not f.r > 0:
        raise PreconditionError("bump radius must be positive")
    big_m = abs(f.y0 - f.x0) / f.r
    if not big_m > 100.0:
        raise PreconditionError(f"bump separation ratio must exceed 100, got {big_m}")
    # M > 100 keeps the two ranges apart, so each node is counted once
    ranges, bumps = f.ranges(), (f.x_bump, f.y_bump)
    if any(np.shape(bump) != (hi - lo,) for (lo, hi), bump in zip(ranges, bumps)):
        raise PreconditionError("f needs one sample on each node of its two bumps")
    if not all(np.all(np.abs(bump) <= 1.0 + 1e-12) for bump in bumps):
        raise PreconditionError("f must be bounded by the two bump indicators")
    sums, cancel, mass = weighted_cancellation(
        [(bump[None], weight_window(weight.curve, f.grid, lo, hi)[None])
         for (lo, hi), bump in zip(ranges, bumps)], f.grid.spacing, weight.sup_norm)
    require_rows(cancellation_ratio(cancel, mass) <= ATOM_TOL, PreconditionError,
                 lambda _: f"weighted cancellation violated: |integral f*b| = {cancel[0]:.3e} "
                           f"exceeds {ATOM_TOL:.1e} of the mass {mass[0]:.3e}")
    return sums[0]


def two_bump_tables(fs: list[TwoBump], sums: np.ndarray) -> tuple[ProfileTable, int]:
    """Profile table of the decomposition terms of the two-bump functions
    ``fs`` of one chain length i0, with i0, as array passes: f_k's bump
    samples are kept in the table as they are, and sums[k] are its weighted
    sums over its bumps, as its caller certified them; only the grids' room
    for the tails and the chains is checked here.

    Each function's rows follow those of the one before.  They run (j=1,
    i=1..i0+1), then (j=2, i=1..i0+1).  Row (j, i) has the inner interval
    I(c_j, 2^(i-1) r), the bump on row (j, 1), and the outer interval
    I(c_j, 2^i r), the shared tail on row (j, i0+1).
    """
    x0, y0, r = (np.array([getattr(f, name) for f in fs], dtype=float)
                 for name in ("x0", "y0", "r"))
    chain = {containment_index(abs(b - a) / c) for a, b, c in zip(x0.tolist(), y0.tolist(),
                                                                   r.tolist())}
    if len(chain) != 1:
        raise PreconditionError(f"two-bump functions of chain lengths {sorted(chain)} "
                                f"make no single table")
    i0 = chain.pop()
    left, right, spacing = (np.array([getattr(f.grid, name) for f in fs])
                            for name in ("left", "right", "spacing"))
    mid = 0.5 * (x0 + y0)
    for what, center, radius in (("the shared tail interval", mid, (2.0 ** (i0 + 1)) * r),
                                 ("the doubling chain", x0, (2.0 ** i0) * r),
                                 ("the doubling chain", y0, (2.0 ** i0) * r)):
        require_rows((center - radius >= left - 1e-9 * spacing)
                     & (center + radius <= right + 1e-9 * spacing), GridTooNarrowError,
                     lambda q: f"grid [{left[q]}, {right[q]}] cannot host {what} "
                               f"{Interval(float(center[q]), float(radius[q]))}")

    radii = r[:, None] * 2.0 ** np.arange(i0 + 2)
    centers = np.repeat(np.stack([x0, y0], axis=1), i0 + 1, axis=1)
    outer_center = centers.copy()
    outer_center[:, i0::i0 + 1] = mid[:, None]
    rows = []
    for f, h in zip(fs, spacing.tolist()):
        rows += [Bump(f.x_bump, h)] + [None] * i0 + [Bump(f.y_bump, h)] + [None] * i0
    return (ProfileTable(centers.ravel(), np.tile(radii[:, :-1], 2).ravel(), outer_center.ravel(),
                         np.tile(radii[:, 1:], 2).ravel(),
                         np.repeat(sums, i0 + 1, axis=1).ravel(), tuple(rows)),
            i0)


def decompose_two_bump(weight: AccretiveWeight, f: TwoBump) -> AtomicDecomposition:
    """Telescoping atomic decomposition of a two-bump function."""
    table, i0 = two_bump_tables([f], _validate_two_bump(weight, f)[None])
    summary = summarize_profiles(weight, f.grid.left, f.grid.spacing, f.grid.count, table)
    bound = COEFF_FACTOR * weight.sup_norm * f.r + COEFF_SLACK * max(f.r, 1.0)
    require_rows(summary.alpha <= bound, NumericalCheckError,
                 lambda k: f"coefficient bound violated at (j={k // (i0 + 1) + 1}, "
                           f"i={k % (i0 + 1) + 1}): {summary.alpha[k]:.6g} > {bound:.6g}")
    return AtomicDecomposition(summary.alpha.astype(np.complex128), i0, f.r, weight.sup_norm,
                               f.grid, table, summary)


def reconstruction_error(dec: AtomicDecomposition, f: TwoBump) -> float:
    """max |sum of coefficient * atom - f| over the grid, over max |f|.

    Off the bumps every atom is constant between the ends of the terms' node
    ranges, so the sum is read at the first node of each such piece and at
    every bump node, term by term with the elementwise operations of the sum
    over the whole grid, whose error this is to the bit."""
    s, ranges = dec.summary, f.ranges()
    ends = np.concatenate([s.inner_lo, s.inner_hi, s.outer_lo, s.outer_hi])
    nodes = np.union1d(np.concatenate([np.arange(lo, hi) for lo, hi in ranges]),
                       ends[ends < f.grid.count])
    total = np.zeros(nodes.size, dtype=np.complex128)
    for k, coefficient in enumerate(dec.coefficient.tolist()):
        total += coefficient * _row_at(dec.table, s, k, nodes)
    samples = np.zeros(nodes.size, dtype=np.complex128)
    for (lo, _), bump in zip(ranges, (f.x_bump, f.y_bump)):
        start = int(np.searchsorted(nodes, lo))
        samples[start:start + bump.size] = bump
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    return float(np.max(np.abs(total - samples))) / scale


def two_bump_norm_bound(dec: AtomicDecomposition) -> float:
    """Sum of |coefficients|, checked against 12 * sup|b| * r * (i0 + 1)."""
    total = ordered_sum(complex_abs(dec.coefficient))
    cap = 12.0 * dec.weight_sup * dec.radius * (dec.i0 + 1)
    if not total <= cap * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"coefficient sum {total:.6g} exceeds the bound {cap:.6g}")
    return total


def make_two_bump_input(weight: AccretiveWeight, grid: UniformGrid,
                        x0: float, y0: float, r: float) -> TwoBump:
    """Canonical two-bump test function with exact weighted cancellation.

    s * (chi_1 / D_1 - chi_2 / D_2) with s the smaller |D_j|, so the sup is
    exactly 1 on one bump and at most 1 on the other; the second bump is
    0 - s / D_2, the value that subtracting it from zeros writes.  A bump of
    more than MAX_ATOM_NODES nodes raises PreconditionError first."""
    for c in (x0, y0):
        _require_atom_nodes(grid, Interval(c, r), f"the bump on I({c}, {r})")
    lo, hi, re, im = _interval_integrals(weight, grid.left, grid.spacing, grid.count,
                                         np.array([x0, y0]), np.array([r, r]))
    d1, d2 = complex(re[0], im[0]), complex(re[1], im[1])
    s = min(abs(d1), abs(d2))
    return TwoBump(grid, x0, y0, r, np.full(hi[0] - lo[0], s / d1),
                   np.full(hi[1] - lo[1], 0j - s / d2))


def make_test_atom(weight: AccretiveWeight, grid: UniformGrid,
                   x0: float, r: float) -> GridFunction:
    """Certified atom on I(x0, r): two opposing half-bumps whose weighted
    integrals cancel exactly, normalized so sup equals 1/|I|."""
    f = make_two_bump_input(weight, grid, x0 - r / 2.0, x0 + r / 2.0, r / 2.0).on(Interval(x0, r))
    return GridFunction(grid, (f.lo, f.values / (f.sup_norm() * 2.0 * r)), f.support)


def decomposition_csv(dec: AtomicDecomposition) -> str:
    """Rows: j, i, re_alpha, im_alpha, support_center, support_radius,
    cert_cancel_residual."""
    j, i = np.divmod(np.arange(len(dec.table)), dec.i0 + 1)
    return csv_text(["j", "i", "re_alpha", "im_alpha", "support_center",
                     "support_radius", "cert_cancel_residual"],
                    zip((j + 1).tolist(), (i + 1).tolist(), dec.coefficient.real.tolist(),
                        dec.coefficient.imag.tolist(), dec.table.outer_center.tolist(),
                        dec.table.outer_radius.tolist(), dec.summary.residual.tolist()))
