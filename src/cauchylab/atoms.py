"""Constructive atomic decomposition of two-bump functions with b-cancellation.

Input: f supported on two radius-r bumps separated by M*r with M > 100 and
integral of f*b equal to zero.  Output: for each bump, a telescoping chain
of atoms supported on doubling intervals I(c, 2^i r), closed by a shared
tail interval centered between the bumps; 2*(i0+1) terms in total, where
i0 is the smallest integer with 2^i0 >= M + 1.

Every emitted atom is one of two explicit shapes, kept as a row of a
``ProfileTable`` so it can be re-instantiated exactly on another
node-aligned grid:

* two-level: F * (chi_inner / D_inner - chi_outer / D_outer), where D_I is
  the discrete integral of b over I on the instantiation grid.  The
  weighted cancellation then holds on any grid by construction.
* bump-minus-mean: (bump samples) - F * chi_outer / D_outer with
  F = integral of bump * b; exact under same-spacing embedding.

A table is a struct of arrays.  It lists each interval whose D_I its rows
use once (the 2 i0 chain intervals and the tail of a two-bump layout, 17 at
M = 128), and per row the scale F, the inner and outer interval and, on the
two bump rows, the samples.  ``summarize_profiles`` is the one summarizer:
it integrates every D_I once in closed form (b = 1 + iA' is piecewise
constant, so D_I = h (n + i sum_k s_k n_k) with n_k the nodes of I in segment
k) and computes levels, sup, cancellation, mass and coefficient as array
expressions, with the complex products and quotients spelled out in real
arithmetic as Python's complex type rounds them.  ``realize_profile``
summarizes a one-row table and writes its atom on the outer interval's
window only.

All interval endpoints are integer multiples of the spacing (snapped), so
indicator integrals are exact per cell and the telescoping reconstruction
holds to rounding.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .cauchy import slope_node_sums, weight_window
from .curve import AccretiveWeight
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import GridFunction, Interval, UniformGrid, csv_text, index_ranges
from .spaces import ATOM_TOL, AtomCertificate

COEFF_FACTOR = 6.0     # per-coefficient bound: 6 * sup|b| * r
COEFF_SLACK = 1e-6


class Bump(NamedTuple):
    """Samples of a bump row on the nodes of ``interval``, at ``spacing``."""

    values: np.ndarray
    interval: Interval
    spacing: float


@dataclass(frozen=True, eq=False)
class ProfileTable:
    """Atom shapes, one row each, as a struct of arrays.

    ``center`` and ``radius`` list the intervals whose D_I the rows use,
    each once.  Row k is F * (chi_inner / D_inner - chi_outer / D_outer)
    with F = ``scale[k]`` and the intervals ``inner[k]`` and ``outer[k]``,
    or, where ``bumps[k]`` holds a ``Bump``, (bump samples) - F * chi_outer /
    D_outer; ``inner[k]`` is then -1.
    """

    center: np.ndarray
    radius: np.ndarray
    scale: np.ndarray
    inner: np.ndarray
    outer: np.ndarray
    bumps: tuple

    def __len__(self) -> int:
        return self.scale.size

    def interval(self, q: int) -> Interval:
        return Interval(float(self.center[q]), float(self.radius[q]))

    def outer_interval(self, k: int) -> Interval:
        return self.interval(self.outer[k])

    def take(self, rows) -> "ProfileTable":
        """The given rows, in order, each with its own copy of its intervals,
        so that every row can be summarized on a grid of its own."""
        rows = np.asarray(rows, dtype=np.int64)
        inner, outer = self.inner[rows], self.outer[rows]
        two_level = inner >= 0
        width = 1 + two_level
        start = np.cumsum(width) - width
        picked = np.empty(int(width.sum()), dtype=np.int64)
        picked[start[two_level]] = inner[two_level]
        picked[start + two_level] = outer
        return ProfileTable(self.center[picked], self.radius[picked], self.scale[rows],
                            np.where(two_level, start, -1), start + two_level,
                            tuple(self.bumps[k] for k in rows))

    def row(self, k: int) -> "ProfileTable":
        """Row k as a one-row table."""
        return self.take([k])


def concat_tables(tables: list[ProfileTable]) -> ProfileTable:
    """The rows of all tables, in order, as one table."""
    offsets = np.cumsum([0] + [t.center.size for t in tables[:-1]])
    return ProfileTable(
        np.concatenate([t.center for t in tables]),
        np.concatenate([t.radius for t in tables]),
        np.concatenate([t.scale for t in tables]),
        np.concatenate([np.where(t.inner >= 0, t.inner + off, -1)
                        for t, off in zip(tables, offsets)]),
        np.concatenate([t.outer + off for t, off in zip(tables, offsets)]),
        tuple(chain.from_iterable(t.bumps for t in tables)))


def two_level_profile(scale: complex, inner: Interval, outer: Interval) -> ProfileTable:
    """One-row table: scale * (chi_inner / D_inner - chi_outer / D_outer)."""
    return ProfileTable(np.array([inner.center, outer.center]),
                        np.array([inner.radius, outer.radius]),
                        np.array([scale], dtype=np.complex128),
                        np.array([0]), np.array([1]), (None,))


def bump_profile(bump: Bump, scale: complex, outer: Interval) -> ProfileTable:
    """One-row table: (bump samples) - scale * chi_outer / D_outer."""
    return ProfileTable(np.array([outer.center]), np.array([outer.radius]),
                        np.array([scale], dtype=np.complex128),
                        np.array([-1]), np.array([0]), (bump,))


@dataclass(frozen=True, eq=False)
class AtomicDecomposition:
    terms: list["DecompositionTerm"]
    i0: int
    big_m: float
    radius: float
    weight_sup: float
    grid: UniformGrid


@dataclass(frozen=True, eq=False)
class DecompositionTerm:
    j: int
    i: int
    coefficient: complex
    atom: GridFunction
    support: Interval
    certificate: AtomCertificate
    profile: ProfileTable | None    # one row; None for externally built atoms


def _complex(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = np.empty(np.shape(re), dtype=np.complex128)
    out.real, out.imag = re, im
    return out


def _cmul(ar, ai, br, bi):
    """(ar + i ai) * (br + i bi), elementwise, as Python's complex type rounds it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _cdiv(ar, ai, br, bi):
    """(ar + i ai) / (br + i bi), elementwise, as Python's complex type rounds
    it (Smith's algorithm, scaled by the larger part of the divisor; NumPy's
    complex division multiplies by a reciprocal instead)."""
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = bi / br
        denom = br + bi * ratio
        re1, im1 = (ar + ai * ratio) / denom, (ai - ar * ratio) / denom
        ratio = br / bi
        denom = br * ratio + bi
        re2, im2 = (ar * ratio + ai) / denom, (ai * ratio - ar) / denom
    real_major = np.abs(br) >= np.abs(bi)
    return np.where(real_major, re1, re2), np.where(real_major, im1, im2)


def _interval_integrals(weight: AccretiveWeight, left, spacing, count,
                        center: np.ndarray, radius: np.ndarray):
    """Closed node ranges [lo, hi) and the real and imaginary parts of the
    discrete integrals D_I = h * (sum of b over the range) of the intervals
    I(center[k], radius[k]), on one grid (left, spacing, count) or on one
    grid each; an interval without nodes raises."""
    lo, hi = index_ranges(left, spacing, count, center, radius)
    empty = np.flatnonzero(lo >= hi)
    if empty.size:
        q = empty[0]
        raise GridTooNarrowError(
            f"interval {Interval(float(center[q]), float(radius[q]))} has no nodes on the grid")
    slope_sum = slope_node_sums(weight.curve, left, spacing, count, lo, hi)
    return lo, hi, (hi - lo) * spacing, slope_sum * spacing


def _weighted_interval_integral(weight: AccretiveWeight, grid: UniformGrid,
                                interval: Interval) -> complex:
    """Discrete integral of b over the interval's (closed) node range."""
    _, _, re, im = _interval_integrals(weight, grid.left, grid.spacing, grid.count,
                                       np.array([interval.center]),
                                       np.array([interval.radius]))
    return complex(re[0], im[0])


def _require_hosted(grid: UniformGrid, interval: Interval, what: str) -> None:
    if interval.center - interval.radius < grid.left - 1e-9 * grid.spacing or \
       interval.center + interval.radius > grid.right + 1e-9 * grid.spacing:
        raise GridTooNarrowError(
            f"grid [{grid.left}, {grid.right}] cannot host {what} {interval}")


def containment_index(big_m: float) -> int:
    """Smallest i with 2^i >= M + 1, i.e. the doubling chain length."""
    return max(1, math.ceil(math.log2(big_m + 1.0) - 1e-12))


def two_bump_host_grid(x0: float, y0: float, r: float, spacing: float) -> UniformGrid:
    """Grid of the given spacing, with x0 on a node, just wide enough for the
    doubling chains and the shared tail interval of the two-bump layout
    (x0, y0, r); y0 may sit on either side of x0.

    The tail I(mid, 2^(i0+1) r) contains both chains I(x0, 2^i0 r) and
    I(y0, 2^i0 r), because |x0 - mid| = M r / 2 and 2^i0 >= M + 1, so the
    tail alone fixes the span.  A layout whose span leaves the float range
    raises PreconditionError.
    """
    if not (all(math.isfinite(v) for v in (x0, y0, r, spacing)) and r > 0 and spacing > 0):
        raise PreconditionError(
            f"two-bump layout needs finite centers and a positive finite radius and "
            f"spacing, got x0={x0}, y0={y0}, r={r}, spacing={spacing}")
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

    def certificate(self, k: int) -> AtomCertificate:
        return AtomCertificate(True, float(self.size_value[k]), float(self.residual[k]),
                               ATOM_TOL)

    def accepted(self) -> np.ndarray:
        return (self.size_value <= 1.0 + ATOM_TOL) & (self.residual <= ATOM_TOL)


def summarize_profiles(weight: AccretiveWeight, grid, table: ProfileTable) -> ProfileSummary:
    """Coefficients, certificates and levels of every row of a table, on one
    node-aligned grid or, with a sequence of grids, row k on ``grid[k]``
    (rows that share an interval must share the grid), without
    materializing an atom.

    Each listed D_I is integrated once, in closed form, and checked against
    |D_I| >= |I| (Re b = 1).  The certificate quantities are the discrete
    sums the materialized atom would produce: the bump rows read their
    samples and b on the bump window, every other quantity is an array
    expression over the rows.
    """
    out, inner = table.outer, table.inner
    two_level = inner >= 0
    row_grids = [grid] * len(table) if isinstance(grid, UniformGrid) else list(grid)
    geometry = np.array([(g.left, g.spacing, g.count) for g in row_grids]).reshape(-1, 3)
    per_interval = np.repeat(geometry[:1], table.center.size, axis=0)
    per_interval[out] = geometry
    per_interval[inner[two_level]] = geometry[two_level]
    lo, hi, d_re, d_im = _interval_integrals(weight, per_interval[:, 0], per_interval[:, 1],
                                             per_interval[:, 2].astype(np.int64),
                                             table.center, table.radius)
    length = 2.0 * table.radius
    short = np.flatnonzero(np.hypot(d_re, d_im) < length * (1.0 - 1e-12))
    if short.size:
        q = short[0]
        raise NumericalCheckError(
            f"denominator floor violated on {table.interval(q)}: "
            f"|{complex(d_re[q], d_im[q])}| < {length[q]}")
    inn = np.where(two_level, inner, out)   # bump rows: overwritten below
    f_re, f_im = table.scale.real, table.scale.imag
    out_re, out_im = d_re[out], d_im[out]
    in_re, in_im = d_re[inn], d_im[inn]
    v_re, v_im = _cdiv(f_re, f_im, out_re, out_im)
    level_re, level_im = _cdiv(f_re, f_im, in_re, in_im)
    vin_re, vin_im = level_re - v_re, level_im - v_im
    abs_out = np.hypot(v_re, v_im)
    # Per row over the inner nodes: sup |f|, sum |f|, the integral of f*b;
    # and D of the outer nodes that carry -v_out alone.
    sup_in = np.hypot(vin_re, vin_im)
    a_re, a_im = _cmul(vin_re, vin_im, in_re, in_im)
    ring_re, ring_im = out_re - in_re, out_im - in_im
    ilo, ihi = lo[inn], hi[inn]
    inner_abs = sup_in * (ihi - ilo)
    for k in np.flatnonzero(~two_level):
        bump, row_grid = table.bumps[k], row_grids[k]
        if abs(bump.spacing - row_grid.spacing) > 1e-12 * row_grid.spacing:
            raise PreconditionError("bump profiles only re-instantiate at the same spacing")
        blo, bhi = row_grid.index_range(bump.interval)
        if bhi - blo != bump.values.size:
            raise GridTooNarrowError("grid does not host the bump node range")
        inner_vals = bump.values - complex(v_re[k], v_im[k])
        sup_in[k] = float(np.max(np.abs(inner_vals))) if inner_vals.size else 0.0
        b = weight_window(weight.curve, row_grid, blo, bhi)
        s_bump = complex(np.sum(bump.values * b) * row_grid.spacing)
        a_re[k], a_im[k] = s_bump.real, s_bump.imag
        ring_re[k], ring_im[k] = out_re[k], out_im[k]
        ilo[k], ihi[k] = blo, bhi
        inner_abs[k] = float(np.sum(np.abs(inner_vals)))
    olo, ohi = lo[out], hi[out]
    sup = np.maximum(sup_in, abs_out)
    c_re, c_im = _cmul(v_re, v_im, ring_re, ring_im)
    cancel = np.hypot(a_re - c_re, a_im - c_im)
    mass = (inner_abs + abs_out * ((ohi - olo) - (ihi - ilo))) * geometry[:, 1]
    alpha = sup * length[out]
    with np.errstate(divide="ignore", invalid="ignore"):
        # alpha is 0 only when every level is 0, and then the mass is 0 too
        size_value = np.where(alpha != 0.0, sup * length[out] / alpha, 0.0)
        residual = np.where(mass > 0, cancel / (mass * weight.sup_norm), 0.0)
    return ProfileSummary(alpha, size_value, residual, ilo, ihi, olo, ohi,
                          _complex(level_re, level_im), _complex(v_re, v_im))


def profile_atom(grid: UniformGrid, table: ProfileTable, summary: ProfileSummary,
                 k: int) -> GridFunction:
    """Unit-coefficient atom of row k on its grid, written on the outer window."""
    ilo, ihi = int(summary.inner_lo[k]), int(summary.inner_hi[k])
    olo, ohi = int(summary.outer_lo[k]), int(summary.outer_hi[k])
    lo = min(ilo, olo)
    values = np.zeros(max(ihi, ohi) - lo, dtype=np.complex128)
    bump = table.bumps[k]
    if bump is None:
        values[ilo - lo:ihi - lo] += complex(summary.level_in[k])
    else:
        values[ilo - lo:ihi - lo] = bump.values
    values[olo - lo:ohi - lo] -= complex(summary.v_out[k])
    alpha = float(summary.alpha[k])
    if alpha > 0.0:
        values[olo - lo:ohi - lo] /= alpha
    return GridFunction.from_window(grid, table.outer_interval(k), lo, values)


def realize_profile(weight: AccretiveWeight, grid: UniformGrid, profile: ProfileTable
                    ) -> tuple[float, AtomCertificate, GridFunction]:
    """Coefficient, certificate and unit-coefficient atom of a one-row table
    on a node-aligned grid."""
    summary = summarize_profiles(weight, grid, profile)
    atom = profile_atom(grid, profile, summary, 0)
    return float(summary.alpha[0]), summary.certificate(0), atom


def _validate_two_bump(weight: AccretiveWeight, f: GridFunction,
                       bumps: list[tuple[int, int]], big_m: float) -> list[complex]:
    """Check the two-bump input contract on the node ranges of the two bumps
    and return the sum of f * b over each."""
    if big_m <= 100.0:
        raise PreconditionError(f"bump separation ratio must exceed 100, got {big_m}")
    # M > 100 keeps the two ranges apart, so each node is counted once
    grid = f.grid
    if not f.vanishes_outside(*bumps):
        raise PreconditionError("f must vanish outside the two declared bumps")
    mags = [np.abs(f.samples[lo:hi]) for lo, hi in bumps]
    if any(np.any(m > 1.0 + 1e-12) for m in mags):
        raise PreconditionError("f must be bounded by the two bump indicators")
    sums = [np.sum(f.samples[lo:hi] * weight_window(weight.curve, grid, lo, hi))
            for lo, hi in bumps]
    cancel = abs(sum(sums) * grid.spacing)
    mass = sum(float(np.sum(m)) for m in mags) * grid.spacing * weight.sup_norm
    if mass > 0 and cancel > ATOM_TOL * mass:
        raise PreconditionError(
            f"weighted cancellation violated: |integral f*b| = {cancel:.3e} "
            f"exceeds {ATOM_TOL:.1e} of the mass {mass:.3e}")
    return sums


def two_bump_profiles(weight: AccretiveWeight, f: GridFunction,
                      x0: float, y0: float, r: float
                      ) -> tuple[ProfileTable, int, float]:
    """Profile table of the decomposition terms, with i0 and M.

    Rows run (j=1, i=1..i0+1), then (j=2, i=1..i0+1); row (j, 1) is the
    bump row of chain j.  The table lists the chain intervals I(c_j, 2^i r),
    i = 1..i0, of both chains and then the shared tail.
    """
    if r <= 0:
        raise PreconditionError("bump radius must be positive")
    grid = f.grid
    big_m = abs(y0 - x0) / r
    bumps = (Interval(x0, r), Interval(y0, r))
    ranges = [grid.index_range(bump) for bump in bumps]
    sums = _validate_two_bump(weight, f, ranges, big_m)
    i0 = containment_index(big_m)
    tail = Interval(0.5 * (x0 + y0), (2.0 ** (i0 + 1)) * r)
    _require_hosted(grid, tail, "the shared tail interval")
    for c in (x0, y0):
        _require_hosted(grid, Interval(c, (2.0 ** i0) * r), "the doubling chain")

    h = grid.spacing
    radii = [(2.0 ** i) * r for i in range(1, i0 + 1)]
    # interval q = (j - 1) i0 + (i - 1) is I(c_j, 2^i r); 2 i0 is the tail
    chain = np.arange(i0)
    inner = np.concatenate([[-1], chain[:-1], [i0 - 1], [-1], chain[:-1] + i0, [2 * i0 - 1]])
    outer = np.concatenate([chain, [2 * i0], chain + i0, [2 * i0]])
    rows = [Bump(f.samples[lo:hi].copy(), bump, h) for bump, (lo, hi) in zip(bumps, ranges)]
    return (ProfileTable(np.array([x0] * i0 + [y0] * i0 + [tail.center]),
                         np.array(radii * 2 + [tail.radius]),
                         np.repeat(np.array([complex(t * h) for t in sums]), i0 + 1),
                         inner, outer,
                         (rows[0],) + (None,) * i0 + (rows[1],) + (None,) * i0),
            i0, big_m)


def decompose_two_bump(weight: AccretiveWeight, f: GridFunction,
                       x0: float, y0: float, r: float) -> AtomicDecomposition:
    """Telescoping atomic decomposition of a two-bump function."""
    table, i0, big_m = two_bump_profiles(weight, f, x0, y0, r)
    grid = f.grid
    summary = summarize_profiles(weight, grid, table)
    bound = COEFF_FACTOR * weight.sup_norm * r + COEFF_SLACK * max(r, 1.0)
    terms: list[DecompositionTerm] = []
    for k in range(len(table)):
        j, i = divmod(k, i0 + 1)
        alpha = float(summary.alpha[k])
        if alpha > bound:
            raise NumericalCheckError(
                f"coefficient bound violated at (j={j + 1}, i={i + 1}): "
                f"{alpha:.6g} > {bound:.6g}")
        terms.append(DecompositionTerm(j + 1, i + 1, complex(alpha),
                                       profile_atom(grid, table, summary, k),
                                       table.outer_interval(k), summary.certificate(k),
                                       table.row(k)))
    return AtomicDecomposition(terms, i0, big_m, r, weight.sup_norm, grid)


def reconstruct(dec: AtomicDecomposition) -> GridFunction:
    """Sum of coefficient * atom; equals the decomposed f to rounding."""
    total = np.zeros(dec.grid.count, dtype=np.complex128)
    support = None
    for term in dec.terms:
        total += term.coefficient * term.atom.samples
        support = term.support if support is None else support.hull(term.support)
    return GridFunction(dec.grid, total, support)


def two_bump_norm_bound(dec: AtomicDecomposition) -> float:
    """Sum of |coefficients|, checked against 12 * sup|b| * r * (i0 + 1)."""
    total = float(sum(abs(t.coefficient) for t in dec.terms))
    cap = 12.0 * dec.weight_sup * dec.radius * (dec.i0 + 1)
    if total > cap * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"coefficient sum {total:.6g} exceeds the bound {cap:.6g}")
    return total


def make_two_bump_input(weight: AccretiveWeight, grid: UniformGrid,
                        x0: float, y0: float, r: float) -> GridFunction:
    """Canonical two-bump test function with exact weighted cancellation.

    s * (chi_1 / D_1 - chi_2 / D_2) with s the smaller |D_j|, so the sup is
    exactly 1 on one bump and at most 1 on the other.
    """
    bump1, bump2 = Interval(x0, r), Interval(y0, r)
    d1 = _weighted_interval_integral(weight, grid, bump1)
    d2 = _weighted_interval_integral(weight, grid, bump2)
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    lo1, hi1 = grid.index_range(bump1)
    lo2, hi2 = grid.index_range(bump2)
    samples[lo1:hi1] = s / d1
    samples[lo2:hi2] = -s / d2
    return GridFunction(grid, samples, bump1.hull(bump2))


def make_test_atom(weight: AccretiveWeight, grid: UniformGrid,
                   x0: float, r: float) -> GridFunction:
    """Certified atom on I(x0, r): two opposing half-bumps whose weighted
    integrals cancel exactly, normalized so sup equals 1/|I|."""
    left = Interval(x0 - r / 2.0, r / 2.0)
    right = Interval(x0 + r / 2.0, r / 2.0)
    d1 = _weighted_interval_integral(weight, grid, left)
    d2 = _weighted_interval_integral(weight, grid, right)
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    lo, hi = grid.index_range(left)
    samples[lo:hi] = s / d1
    lo, hi = grid.index_range(right)
    samples[lo:hi] -= s / d2
    samples /= float(np.max(np.abs(samples))) * 2.0 * r
    return GridFunction(grid, samples, Interval(x0, r))


def decomposition_csv(dec: AtomicDecomposition) -> str:
    """Rows: j, i, re_alpha, im_alpha, support_center, support_radius,
    cert_cancel_residual."""
    return csv_text(["j", "i", "re_alpha", "im_alpha", "support_center",
                     "support_radius", "cert_cancel_residual"],
                    ([t.j, t.i, t.coefficient.real, t.coefficient.imag, t.support.center,
                      t.support.radius, t.certificate.cancellation_residual]
                     for t in dec.terms))


def write_decomposition_csv(dec: AtomicDecomposition, path) -> None:
    Path(path).write_text(decomposition_csv(dec), encoding="utf-8", newline="")
