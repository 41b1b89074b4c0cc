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

A table is a struct of arrays: per row the scale F, the inner and the outer
interval and, on bump rows, the samples on the inner interval.  Rows stand
alone, so ``take`` and ``concat_tables`` are plain indexing and
concatenation, and every row may sit on a grid of its own.
``summarize_profiles`` is the one summarizer: it integrates the D_I of every
row's two intervals in closed form (b = 1 + iA' is piecewise constant, so
D_I = h (n + i sum_k s_k n_k) with n_k the nodes of I in segment k) and
computes levels, sup, cancellation, mass and coefficient as array
expressions, with the complex products and quotients spelled out in real
arithmetic as Python's complex type rounds them.  ``profile_atom`` writes
one row's atom on its outer interval's window only.

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
    samples) - F * chi_outer / D_outer.
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


def concat_tables(tables: list[ProfileTable]) -> ProfileTable:
    """The rows of all tables, in order, as one table."""
    return ProfileTable(*(np.concatenate([getattr(t, name) for t in tables])
                          for name in ("inner_center", "inner_radius", "outer_center",
                                       "outer_radius", "scale")),
                        tuple(chain.from_iterable(t.bumps for t in tables)))


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
    node-aligned grid or, with a sequence of grids, row k on ``grid[k]``,
    without materializing an atom.

    The D_I of every row's two intervals are integrated in closed form, in
    one pass, and checked against |D_I| >= |I| (Re b = 1).  The certificate
    quantities are the discrete sums the materialized atom would produce:
    the bump rows read their samples and b on the bump window, every other
    quantity is an array expression over the rows.
    """
    n = len(table)
    row_grids = [grid] * n if isinstance(grid, UniformGrid) else list(grid)
    geometry = np.array([(g.left, g.spacing, g.count) for g in row_grids]).reshape(-1, 3)
    both = np.concatenate([geometry, geometry])
    center = np.concatenate([table.inner_center, table.outer_center])
    radius = np.concatenate([table.inner_radius, table.outer_radius])
    lo, hi, d_re, d_im = _interval_integrals(weight, both[:, 0], both[:, 1],
                                             both[:, 2].astype(np.int64), center, radius)
    length = 2.0 * radius
    short = np.flatnonzero(np.hypot(d_re, d_im) < length * (1.0 - 1e-12))
    if short.size:
        q = short[0]
        raise NumericalCheckError(
            f"denominator floor violated on {Interval(float(center[q]), float(radius[q]))}: "
            f"|{complex(d_re[q], d_im[q])}| < {length[q]}")
    two_level = np.array([bump is None for bump in table.bumps], dtype=bool)
    f_re, f_im = table.scale.real, table.scale.imag
    in_re, in_im, out_re, out_im = d_re[:n], d_im[:n], d_re[n:], d_im[n:]
    ilo, ihi, olo, ohi = lo[:n], hi[:n], lo[n:], hi[n:]
    v_re, v_im = _cdiv(f_re, f_im, out_re, out_im)
    level_re, level_im = _cdiv(f_re, f_im, in_re, in_im)
    vin_re, vin_im = level_re - v_re, level_im - v_im
    abs_out = np.hypot(v_re, v_im)
    # Per row over the inner nodes: sup |f|, sum |f|, the integral of f*b;
    # and D of the outer nodes that carry -v_out alone.
    sup_in = np.hypot(vin_re, vin_im)
    a_re, a_im = _cmul(vin_re, vin_im, in_re, in_im)
    ring_re, ring_im = out_re - in_re, out_im - in_im
    inner_abs = sup_in * (ihi - ilo)
    for k in np.flatnonzero(~two_level):
        bump, row_grid = table.bumps[k], row_grids[k]
        if abs(bump.spacing - row_grid.spacing) > 1e-12 * row_grid.spacing:
            raise PreconditionError("bump profiles only re-instantiate at the same spacing")
        blo, bhi = int(ilo[k]), int(ihi[k])
        if bhi - blo != bump.values.size:
            raise GridTooNarrowError("grid does not host the bump node range")
        inner_vals = bump.values - complex(v_re[k], v_im[k])
        sup_in[k] = float(np.max(np.abs(inner_vals))) if inner_vals.size else 0.0
        b = weight_window(weight.curve, row_grid, blo, bhi)
        s_bump = complex(np.sum(bump.values * b) * row_grid.spacing)
        a_re[k], a_im[k] = s_bump.real, s_bump.imag
        ring_re[k], ring_im[k] = out_re[k], out_im[k]
        inner_abs[k] = float(np.sum(np.abs(inner_vals)))
    sup = np.maximum(sup_in, abs_out)
    c_re, c_im = _cmul(v_re, v_im, ring_re, ring_im)
    cancel = np.hypot(a_re - c_re, a_im - c_im)
    mass = (inner_abs + abs_out * ((ohi - olo) - (ihi - ilo))) * geometry[:, 1]
    alpha = sup * length[n:]
    with np.errstate(divide="ignore", invalid="ignore"):
        # alpha is 0 only when every level is 0, and then the mass is 0 too
        size_value = np.where(alpha != 0.0, sup * length[n:] / alpha, 0.0)
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

    Rows run (j=1, i=1..i0+1), then (j=2, i=1..i0+1).  Row (j, i) has the
    inner interval I(c_j, 2^(i-1) r), the bump on row (j, 1), and the outer
    interval I(c_j, 2^i r), the shared tail on row (j, i0+1).
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
    radii = r * 2.0 ** np.arange(i0 + 2)
    centers = np.repeat([x0, y0], i0 + 1)
    outer_center = centers.copy()
    outer_center[i0::i0 + 1] = tail.center
    rows = [Bump(f.samples[lo:hi].copy(), h) for lo, hi in ranges]
    return (ProfileTable(centers, np.tile(radii[:-1], 2), outer_center, np.tile(radii[1:], 2),
                         np.repeat(np.array([complex(t * h) for t in sums]), i0 + 1),
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
                                       table.outer_interval(k), summary.certificate(k)))
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
    (lo1, lo2), (hi1, hi2), re, im = _interval_integrals(
        weight, grid.left, grid.spacing, grid.count, np.array([x0, y0]), np.array([r, r]))
    d1, d2 = complex(re[0], im[0]), complex(re[1], im[1])
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[lo1:hi1] = s / d1
    samples[lo2:hi2] = -s / d2
    return GridFunction(grid, samples, Interval(x0, r).hull(Interval(y0, r)))


def make_test_atom(weight: AccretiveWeight, grid: UniformGrid,
                   x0: float, r: float) -> GridFunction:
    """Certified atom on I(x0, r): two opposing half-bumps whose weighted
    integrals cancel exactly, normalized so sup equals 1/|I|."""
    (lo1, lo2), (hi1, hi2), re, im = _interval_integrals(
        weight, grid.left, grid.spacing, grid.count,
        np.array([x0 - r / 2.0, x0 + r / 2.0]), np.array([r / 2.0, r / 2.0]))
    d1, d2 = complex(re[0], im[0]), complex(re[1], im[1])
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[lo1:hi1] = s / d1
    samples[lo2:hi2] -= s / d2
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
