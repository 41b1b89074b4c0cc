"""Constructive atomic decomposition of two-bump functions with b-cancellation.

Input: f supported on two radius-r bumps separated by M*r with M > 100 and
integral of f*b equal to zero.  Output: for each bump, a telescoping chain
of atoms supported on doubling intervals I(c, 2^i r), closed by a shared
tail interval centered between the bumps; 2*(i0+1) terms in total, where
i0 is the smallest integer with 2^i0 >= M + 1.

Every emitted atom is one of two explicit shapes, recorded as a profile so
it can be re-instantiated exactly on another node-aligned grid:

* two-level: F * (chi_inner / D_inner - chi_outer / D_outer), where D_I is
  the discrete integral of b over I on the instantiation grid.  The
  weighted cancellation then holds on any grid by construction.
* bump-minus-mean: (bump samples) - F * chi_outer / D_outer with
  F = integral of bump * b; exact under same-spacing embedding.

All interval endpoints are integer multiples of the spacing (snapped), so
indicator integrals are exact per cell and the telescoping reconstruction
holds to rounding.  ``realize_profile`` builds each atom from the levels
``summarize_profile`` computed, so every D_I is integrated once per grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .cauchy import weight_values
from .curve import AccretiveWeight
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import GridFunction, Interval, UniformGrid, csv_text, merged_ranges
from .spaces import ATOM_TOL, AtomCertificate

COEFF_FACTOR = 6.0     # per-coefficient bound: 6 * sup|b| * r
COEFF_SLACK = 1e-6


@dataclass(frozen=True)
class TwoLevelProfile:
    """F * (chi_inner / D_inner - chi_outer / D_outer); inner inside outer."""

    scale: complex
    inner: Interval
    outer: Interval


@dataclass(frozen=True, eq=False)
class BumpProfile:
    """(embedded bump samples) - F * chi_outer / D_outer."""

    bump_values: np.ndarray
    bump_interval: Interval
    spacing: float
    scale: complex
    outer: Interval


Profile = TwoLevelProfile | BumpProfile


@dataclass(frozen=True, eq=False)
class DecompositionTerm:
    j: int
    i: int
    coefficient: complex
    atom: GridFunction
    support: Interval
    certificate: AtomCertificate
    profile: Profile | None    # None for externally built atoms


@dataclass(frozen=True, eq=False)
class AtomicDecomposition:
    terms: list[DecompositionTerm]
    i0: int
    big_m: float
    radius: float
    weight_sup: float
    grid: UniformGrid


def _weighted_interval_integral(weight: AccretiveWeight, grid: UniformGrid,
                                interval: Interval) -> complex:
    """Discrete integral of b over the interval's (closed) node range."""
    lo, hi = grid.index_range(interval)
    if lo >= hi:
        raise GridTooNarrowError(f"interval {interval} has no nodes on the grid")
    return complex(np.sum(weight_values(weight.curve, grid)[lo:hi]) * grid.spacing)


def _floored_integral(weight: AccretiveWeight, grid: UniformGrid,
                      interval: Interval) -> complex:
    """D_I = integral of b over I, checked against |D_I| >= |I| (Re b = 1)."""
    d = _weighted_interval_integral(weight, grid, interval)
    if abs(d) < interval.length * (1.0 - 1e-12):
        raise NumericalCheckError(
            f"denominator floor violated on {interval}: |{d}| < {interval.length}")
    return d


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
    tail alone fixes the span.
    """
    mid = 0.5 * (x0 + y0)
    tail = (2.0 ** (containment_index(abs(y0 - x0) / r) + 1)) * r
    left = x0 - (math.ceil((x0 - (mid - tail)) / spacing - 1e-9) + 2) * spacing
    return UniformGrid(left, spacing, math.ceil((mid + tail - left) / spacing - 1e-9) + 3)


def summarize_profile(weight: AccretiveWeight, grid: UniformGrid, profile: Profile
                      ) -> tuple[float, AtomCertificate, tuple[tuple, tuple]]:
    """Coefficient, certificate and levels of a profile without materializing it.

    The coefficient is sup |f| times the outer interval length; the
    certificate quantities are the same discrete sums the materialized atom
    would produce, evaluated slice-wise; every D_I is checked against |I|.
    The levels, ((lo, hi, F / D_inner or None for the bump's nodes),
    (lo, hi, F / D_outer)), are what ``realize_profile`` writes.
    """
    h = grid.spacing
    olo, ohi = grid.index_range(profile.outer)
    d_out = _floored_integral(weight, grid, profile.outer)
    v_out = profile.scale / d_out
    if isinstance(profile, TwoLevelProfile):
        d_in = _floored_integral(weight, grid, profile.inner)
        ilo, ihi = grid.index_range(profile.inner)
        level_in = profile.scale / d_in
        v_in = level_in - v_out
        sup = max(abs(v_in), abs(v_out))
        cancel = abs(v_in * d_in - v_out * (d_out - d_in))
        mass = (abs(v_in) * (ihi - ilo) + abs(v_out) * ((ohi - olo) - (ihi - ilo))) * h
        inner = (ilo, ihi, level_in)
    else:
        if abs(profile.spacing - h) > 1e-12 * h:
            raise PreconditionError("bump profiles only re-instantiate at the same spacing")
        blo, bhi = grid.index_range(profile.bump_interval)
        if bhi - blo != profile.bump_values.size:
            raise GridTooNarrowError("grid does not host the bump node range")
        b_bump = weight_values(weight.curve, grid)[blo:bhi]
        inner_vals = profile.bump_values - v_out
        sup = max(float(np.max(np.abs(inner_vals))) if inner_vals.size else 0.0,
                  abs(v_out))
        s_bump = complex(np.sum(profile.bump_values * b_bump) * h)
        cancel = abs(s_bump - v_out * d_out)
        mass = (float(np.sum(np.abs(inner_vals))) +
                abs(v_out) * ((ohi - olo) - (bhi - blo))) * h
        inner = (blo, bhi, None)
    alpha = sup * profile.outer.length
    # alpha is 0 only when every level is 0, and then the mass is 0 too
    size_value = sup * profile.outer.length / alpha if alpha else 0.0
    residual = cancel / (mass * weight.sup_norm) if mass > 0 else 0.0
    cert = AtomCertificate(True, float(size_value), float(residual), ATOM_TOL)
    return float(alpha), cert, (inner, (olo, ohi, v_out))


def realize_profile(weight: AccretiveWeight, grid: UniformGrid, profile: Profile
                    ) -> tuple[float, AtomCertificate, GridFunction]:
    """Coefficient, certificate and unit-coefficient atom of a profile on a
    node-aligned grid, built from the levels ``summarize_profile`` computed,
    so every D_I is integrated once."""
    alpha, cert, ((lo, hi, level_in), (olo, ohi, v_out)) = \
        summarize_profile(weight, grid, profile)
    samples = np.zeros(grid.count, dtype=np.complex128)
    if level_in is None:
        samples[lo:hi] = profile.bump_values
    else:
        samples[lo:hi] += level_in
    samples[olo:ohi] -= v_out
    if alpha > 0.0:
        samples[olo:ohi] /= alpha
    return alpha, cert, GridFunction(grid, samples, profile.outer)


def _validate_two_bump(weight: AccretiveWeight, f: GridFunction,
                       bump1: Interval, bump2: Interval, big_m: float) -> None:
    if big_m <= 100.0:
        raise PreconditionError(f"bump separation ratio must exceed 100, got {big_m}")
    grid = f.grid
    bumps = merged_ranges(grid.index_range(bump1), grid.index_range(bump2))
    if not f.vanishes_outside(*bumps):
        raise PreconditionError("f must vanish outside the two declared bumps")
    mags = [np.abs(f.samples[lo:hi]) for lo, hi in bumps]
    if any(np.any(m > 1.0 + 1e-12) for m in mags):
        raise PreconditionError("f must be bounded by the two bump indicators")
    b = weight_values(weight.curve, grid)
    cancel = abs(sum(np.sum(f.samples[lo:hi] * b[lo:hi]) for lo, hi in bumps)
                 * grid.spacing)
    mass = sum(float(np.sum(m)) for m in mags) * grid.spacing * weight.sup_norm
    if mass > 0 and cancel > ATOM_TOL * mass:
        raise PreconditionError(
            f"weighted cancellation violated: |integral f*b| = {cancel:.3e} "
            f"exceeds {ATOM_TOL:.1e} of the mass {mass:.3e}")


def two_bump_profiles(weight: AccretiveWeight, f: GridFunction,
                      x0: float, y0: float, r: float
                      ) -> tuple[list[tuple[int, int, Profile]], int, float]:
    """Profiles of the decomposition terms, ordered (j=1 chain, j=2 chain)."""
    if r <= 0:
        raise PreconditionError("bump radius must be positive")
    grid = f.grid
    big_m = abs(y0 - x0) / r
    bump1, bump2 = Interval(x0, r), Interval(y0, r)
    _validate_two_bump(weight, f, bump1, bump2, big_m)
    i0 = containment_index(big_m)
    mid = 0.5 * (x0 + y0)
    tail = Interval(mid, (2.0 ** (i0 + 1)) * r)
    _require_hosted(grid, tail, "the shared tail interval")
    for c in (x0, y0):
        _require_hosted(grid, Interval(c, (2.0 ** i0) * r), "the doubling chain")

    h = grid.spacing
    out: list[tuple[int, int, Profile]] = []
    for j, center in ((1, x0), (2, y0)):
        blo, bhi = grid.index_range(Interval(center, r))
        bump_vals = f.samples[blo:bhi].copy()
        scale = complex(np.sum(bump_vals * weight_values(weight.curve, grid)[blo:bhi]) * h)
        out.append((j, 1, BumpProfile(bump_vals, Interval(center, r), h,
                                      scale, Interval(center, 2.0 * r))))
        for i in range(2, i0 + 1):
            out.append((j, i, TwoLevelProfile(scale,
                                              Interval(center, (2.0 ** (i - 1)) * r),
                                              Interval(center, (2.0 ** i) * r))))
        out.append((j, i0 + 1, TwoLevelProfile(scale,
                                               Interval(center, (2.0 ** i0) * r),
                                               tail)))
    out.sort(key=lambda rec: (rec[0], rec[1]))
    return out, i0, big_m


def decompose_two_bump(weight: AccretiveWeight, f: GridFunction,
                       x0: float, y0: float, r: float) -> AtomicDecomposition:
    """Telescoping atomic decomposition of a two-bump function."""
    profiles, i0, big_m = two_bump_profiles(weight, f, x0, y0, r)
    grid = f.grid
    bound = COEFF_FACTOR * weight.sup_norm * r + COEFF_SLACK * max(r, 1.0)
    terms: list[DecompositionTerm] = []
    for j, i, profile in profiles:
        alpha, cert, atom = realize_profile(weight, grid, profile)
        if alpha > bound:
            raise NumericalCheckError(
                f"coefficient bound violated at (j={j}, i={i}): "
                f"{alpha:.6g} > {bound:.6g}")
        terms.append(DecompositionTerm(j, i, complex(alpha), atom,
                                       profile.outer, cert, profile))
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
