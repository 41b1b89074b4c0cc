"""Bilinear forms, approximate factorization of atoms, and the iterative
weak factorization.

The weighted bilinear form is
    Pi_b(g, h) = (1/b) * (g * C(h) - h * C*(g))
with C the Cauchy integral on the curve; the unweighted form Pi uses the
related transform in both slots, and b * Pi_b(g, h) = Pi(g, b h), so both
come from one core, ``_stacked_terms``.  Each term carries a factor g or h,
so the form vanishes off supp(g) union supp(h); the core computes it only
there, for one pair or a stage's stack, from one kernel call read directly
and through the exact antisymmetry of the punctured related matrix.

An atom a supported on I(x0, r) is approximately factored through
    g = chi_{I(y0, r)},  h = -a / d,  d = (related C)*(g)(x0),  y0 = x0 + M r,
for a given M; ``select_big_m`` turns the target accuracy eps into the
smallest power of two M >= 128 with log(M)/M < eps.  The defect a - Pi_b(g, h)
is again a two-bump function with weighted cancellation, so it re-enters the
two-bump decomposition; iterating stage by stage drives the residual to zero
geometrically.  Every atom sits on its own node-aligned working grid sized
to its radius (the footprint grows by about 4M per stage), and is read and
written only on its support windows, so its cost follows its supports.

A stage is one ``_factor_stage`` call.  It keeps its pending atoms as one
profile table (see ``atoms``) and their working grids as arrays
(``grid.index_ranges``).  One array pass, ``summarize_profiles``, certifies
every atom and gives its coefficient and levels from closed-form D_I, and
the stage stops on a rejected row before it factors any atom.  Then it runs
over consecutive chunks of its atoms (_STAGE_CHUNK_ATOMS) in three passes:
  * per atom, the factor pair: ``profile_atom`` writes each atom on its
    support window, on the one grid object built for it, and
    ``approx_factor_atom`` re-certifies it from its samples (``check_atom``,
    to ATOM_TOL = 1e-8) and bounds |d| and |g|_2 |h|_2;
  * per layout, the residuals: the chunk's atoms are grouped by the node
    counts of the atom and of g, and each group is one set of array passes
    over its atoms stacked on a leading axis (``_certify_residuals``).  The
    form Pi_b(g, h) is the group's two terms on the two bump windows
    (``_stacked_terms``) over b, from kernel blocks that ``cauchy`` sizes
    into passes (a Toeplitz chunk shared by translated atoms filled once),
    so res vanishes off the bumps by construction and is checked by shape;
    the certificate checks that sup * M * r <= 10 and that the weighted sums
    of res / sup cancel to ATOM_TOL of its mass.  A residual is kept as its
    two certified bump windows, a ``TwoBump``; the chunk's res / s and sums,
    in atom order, make one profile table (``two_bump_tables``);
  * one more pass over that residual table certifies every row to
    ATOM_TOL; its rows with a nonzero coefficient are atoms of the next
    stage, which the last stage does not build.
A chunk keeps only its factor terms (lam, y0, d, |g|_2, |h|_2), its trace
terms and the next stage's rows, and the stage joins them in chunk order
into one ``FactorStage``, one ordered trace sum and one table.  Every value
is the one the same operations give on each atom alone, bit for bit, so the
chunk size moves no output, and ``residual`` is this certificate on a group
of one.  Each failure but ``check_atom``'s is a NumericalCheckError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .atoms import (AtomicDecomposition, Bump, ProfileSummary, ProfileTable, TwoBump,
                    _require_atom_nodes, containment_index, make_two_bump_input, profile_atom,
                    summarize_profiles, two_bump_host_grid, two_bump_tables)
from .cauchy import (related_cauchy_groups, related_cauchy_values, weight_values, weight_window,
                     weight_windows)
from .curve import AccretiveWeight
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import (GridFunction, Interval, UniformGrid, _complex_div, _complex_mul, complex_abs,
                   indicator, lp_norm, merged_ranges, ordered_sum, require_int, require_rows,
                   require_same_grid)
from .spaces import (ATOM_TOL, cancellation_ratio, check_atom, h1b_norm_upper,
                     weighted_cancellation)

MIN_BIG_M = 128
RESIDUAL_SUP_FACTOR = 10.0   # assert sup|a - Pi_b| * M * r <= this
EARLY_STOP_FRACTION = 1e-12
BUMP_NODE_CAP = 1536         # bump samples per atom before 2x coarsening
# Largest separation M.  The weighted sums of a residual's res / s cancel only
# to rounding amplified by 1 / s, about M r, and must cancel to ATOM_TOL of its
# mass.  Over factor-atom's atom on the flat, slope-1/2, tent and a
# 24-breakpoint curve, at x0 = 0 and 1000 and 8 to 16384 cells per radius,
# every M <= 2^20 used at most 1/60 of that tolerance, and the first failure
# came at 2^25 (512 cells, slope 1/2).
MAX_BIG_M = 1 << 20
# Atoms per chunk of a stage.  A chunk's atoms, factor pairs, residual windows
# and re-atomization table took about 15 KB per atom at stage 5 of the flat
# run (maxrss 173 MB at 1024 atoms a chunk, 205 MB at 4096, 388 MB at 16384,
# 1,439 MB unchunked), so a 64 MiB budget holds 4096 of them, and a stage of
# a 3-stage run (at most 324 atoms) is one chunk.
_STAGE_CHUNK_ATOMS = (64 << 20) // (16 << 10)


def select_big_m(eps: float) -> int:
    """Smallest power of two >= 128 with log(M)/M < eps; an eps that is not
    positive and finite, or that needs M above MAX_BIG_M, raises
    PreconditionError."""
    if not (eps > 0 and math.isfinite(eps)):
        raise PreconditionError("eps must be positive and finite")
    m = MIN_BIG_M
    while math.log(m) / m >= eps:
        m *= 2
        if m > MAX_BIG_M:
            raise PreconditionError(f"eps={eps} needs a separation M above {MAX_BIG_M}, "
                                    f"beyond which residuals lose their certified cancellation")
    return m


def _validate_big_m(big_m: int) -> int:
    big_m = require_int(big_m, 1, "M")
    if big_m < MIN_BIG_M or big_m > MAX_BIG_M or big_m & (big_m - 1):
        raise PreconditionError(f"M must be a power of two from {MIN_BIG_M} to {MAX_BIG_M}, "
                                f"beyond which residuals lose their certified cancellation; "
                                f"got {big_m}")
    return big_m


def _stacked_terms(curve, left, spacing, g_lo: np.ndarray, g: np.ndarray, h_lo: np.ndarray,
                   h: np.ndarray, b_h: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
    """The two terms of Pi(g_k, b_k h_k) = g T(b h) + b h T(g) for a stack of
    pairs of one layout, g[k] and h[k] the samples from the nodes g_lo[k] and
    h_lo[k] of pair k's grid and b_h[k] b there (None for the unweighted
    form): b h T(g) on supp(h), then g T(b h) on supp(g), each added into
    zero (which turns a -0.0 into +0.0).  T is the related transform, from
    one ``related_cauchy_groups`` call whose kernel rows are supp(h), where
    a residual cancels to about 1/M of a: the direct product rounds less."""
    rows = h_lo[:, None] + np.arange(h.shape[1])
    related_g, transform_h = related_cauchy_groups(curve, left, spacing, rows, g_lo, g,
                                                   h if b_h is None else h * b_h)
    term_g = 0j + g * transform_h
    if b_h is None:
        return 0j + h * related_g, term_g
    # np.multiply, not *: NumPy evaluates x * (a temporary of 256 KiB or more)
    # as temporary * x in place, and its complex product rounds by operand
    # order, so the bytes would follow the array's size
    return 0j - np.multiply(h, -b_h * related_g), term_g


def _form(weight: AccretiveWeight, g: GridFunction, h: GridFunction,
          weighted: bool) -> GridFunction:
    """Pi_b(g, h) when ``weighted``, else Pi(g, h), from the first to the last
    node of supp(g) union supp(h): ``_stacked_terms`` of a stack of one added
    into zero, then for Pi_b divided by b, read only on the supports."""
    require_same_grid(g, h)
    grid, curve = g.grid, weight.curve
    (glo, ghi), (hlo, hhi) = g.support_range(), h.support_range()
    b_h = weight_window(curve, grid, hlo, hhi)[None] if weighted else None
    term_h, term_g = _stacked_terms(curve, grid.left, grid.spacing, np.array([glo]),
                                    g.values[None], np.array([hlo]), h.values[None], b_h)
    spans = merged_ranges((glo, ghi), (hlo, hhi))
    lo = spans[0][0] if spans else 0
    out = np.zeros(spans[-1][1] - lo if spans else 0, dtype=np.complex128)
    out[glo - lo:ghi - lo] += term_g[0]
    out[hlo - lo:hhi - lo] += term_h[0]
    for wlo, whi in spans if weighted else ():
        out[wlo - lo:whi - lo] /= weight_window(curve, grid, wlo, whi)
    return GridFunction(grid, (lo, out), g.support.hull(h.support))


def pi_b(weight: AccretiveWeight, g: GridFunction, h: GridFunction) -> GridFunction:
    """Weighted bilinear form, truncated exactly to supp(g) union supp(h)."""
    return _form(weight, g, h, True)


def pi_classic(weight: AccretiveWeight, big_g: GridFunction,
               big_h: GridFunction) -> GridFunction:
    """Unweighted bilinear form G * C~(H) - H * (C~)*(G), same truncation."""
    return _form(weight, big_g, big_h, False)


@dataclass(frozen=True, eq=False)
class FactorPair:
    """One approximate factorization a ~ Pi_b(g, h), with the separation M,
    the far bump's center y0, the denominator d and the norms of g and h."""

    g: GridFunction
    h: GridFunction
    big_m: int
    y0: float
    denom: complex
    g_l2: float
    h_l2: float


def denominator_floor(weight: AccretiveWeight, big_m: int) -> float:
    """Curve-quantified lower bound for |(related C)*(g)(x0)|, at M > 1."""
    if not big_m > 1:
        raise PreconditionError(f"the denominator floor needs M > 1, got {big_m}")
    return math.log((big_m + 1.0) / (big_m - 1.0)) / math.pi / weight.sup_norm


def approx_factor_atom(weight: AccretiveWeight, a: GridFunction,
                       support: Interval, *, big_m: int) -> FactorPair:
    """Factor pair for a certified atom supported on I(x0, r), at the
    separation M = ``big_m``, a power of two >= 128 (``select_big_m`` turns
    an accuracy target into one); an atom over the work bound or outside the
    float range at M raises PreconditionError before g is built."""
    cert = check_atom(a, support, weight)
    if not cert.accepted:
        raise PreconditionError(
            f"input is not a certified atom: size={cert.size_value:.6g}, "
            f"cancellation={cert.cancellation_residual:.3g}, support_ok={cert.support_ok}")
    m = _validate_big_m(big_m)
    x0, r = support.center, support.radius
    _require_atom_nodes(a.grid, support, "the atom to factor")
    _require_float_range(weight, (r,), m, 1)
    y0 = x0 + m * r
    grid = a.grid
    if not y0 + r <= grid.right + 1e-9 * grid.spacing:
        raise GridTooNarrowError(
            f"grid right edge {grid.right} cannot host I({y0}, {r}); enlarge the grid")
    g = indicator(grid, Interval(y0, r))
    denom = -complex(related_cauchy_values(weight.curve, g, np.array([grid.index_of(x0)]))[0])
    floor = denominator_floor(weight, m)
    if not abs(denom) >= floor * (1.0 - 1e-12):
        raise NumericalCheckError(
            f"factor denominator {abs(denom):.3e} fell below the floor {floor:.3e}")
    h = a.scaled(-1.0 / denom)
    g_l2, h_l2 = lp_norm(g, 2), lp_norm(h, 2)
    if not g_l2 * h_l2 <= 2.0 * math.pi * weight.sup_norm * m * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"|g|_2 |h|_2 = {g_l2 * h_l2:.6g} exceeds the O(M) bound for M={m}")
    return FactorPair(g, h, m, y0, denom, g_l2, h_l2)


class Residual(NamedTuple):
    """An atom's certified defect res = a - Pi_b(g, h), which vanishes off the
    bumps of a and of g: its sup s, res and res / s (``unit``, None when s is
    0) as ``TwoBump``s, and the weighted sums of res / s (() when s is 0)."""

    sup: float
    res: TwoBump
    unit: TwoBump | None
    sums: tuple


class _Certified(NamedTuple):
    """``_certify_residuals`` of a group: per pair the sup s, and res and
    res / s on the two bumps (rows of the latter are 0 where s is 0), with
    the weighted sums of res / s over them."""

    sup: np.ndarray
    res: tuple[np.ndarray, np.ndarray]
    unit: tuple[np.ndarray, np.ndarray]
    sums: np.ndarray


def _certify_residuals(weight: AccretiveWeight, left, spacing, atoms, pairs) -> _Certified:
    """Certify the residuals a_k - Pi_b(g_k, h_k) of a group of atoms of one
    layout, atom k on its grid, in array passes: the form, ``_stacked_terms``
    over b with each row ``pi_b`` of its pair bit for bit, its terms checked
    by shape before the division; s * M * r <= 10; the weighted sums of res / s
    cancelling to ATOM_TOL of its mass.  Each failure raises NumericalCheckError
    for the first atom it holds on; ``residual`` is this on a group of one."""
    curve = weight.curve
    a = np.stack([atom.values for atom in atoms])
    g = np.stack([pair.g.values for pair in pairs])
    a_lo = np.array([atom.lo for atom in atoms])
    g_lo = np.array([pair.g.lo for pair in pairs])
    b_a = weight_windows(curve, left, spacing, a_lo, a.shape[1])
    b_g = weight_windows(curve, left, spacing, g_lo, g.shape[1])
    # supp(h) is supp(a): the form's terms are on the two bumps and nowhere else
    form_a, form_g = _stacked_terms(curve, left, spacing, g_lo, g, a_lo,
                                    np.stack([pair.h.values for pair in pairs]), b_a)
    if form_a.shape != a.shape or form_g.shape != g.shape:
        raise NumericalCheckError("residual leaked outside the two bumps")
    form_a, form_g = form_a / b_a, form_g / b_g
    res_a = a - form_a
    res_g = 0j - form_g
    sup = np.maximum(np.max(np.abs(res_a), axis=1, initial=0.0),
                     np.max(np.abs(res_g), axis=1, initial=0.0))
    big_m = np.array([pair.big_m for pair in pairs])
    radius = np.array([atom.support.radius for atom in atoms])
    require_rows(sup * big_m * radius <= RESIDUAL_SUP_FACTOR * (1.0 + 1e-9), NumericalCheckError,
                 lambda q: f"residual sup {sup[q]:.3e} violates the O(1/(M r)) bound at "
                           f"M={big_m[q]}")
    inverse = np.divide(1.0, sup, out=np.zeros_like(sup), where=sup != 0.0)[:, None]
    unit_a, unit_g = res_a * inverse, res_g * inverse
    sums, cancel, mass = weighted_cancellation(
        [(unit_a, b_a), (unit_g, b_g)], spacing, weight.sup_norm)
    require_rows(cancellation_ratio(cancel, mass) <= ATOM_TOL, NumericalCheckError,
                 lambda q: f"residual lost the weighted cancellation: {cancel[q]:.3e} "
                           f"exceeds {ATOM_TOL:.1e} of the mass {mass[q]:.3e}")
    return _Certified(sup, (res_a, res_g), (unit_a, unit_g), sums)


def residual(weight: AccretiveWeight, a: GridFunction, pair: FactorPair) -> Residual:
    """The certified defect of ``a`` (a ``Residual``): ``_certify_residuals``
    on a group of one, raising NumericalCheckError when the form does not
    have the bumps' shape, s * M * r exceeds 10 or the sums of res / s do not
    cancel to ATOM_TOL of its weighted mass.  ``pair`` must be a's factor pair."""
    require_same_grid(a, pair.h)
    if pair.h.support_range() != a.support_range():
        raise PreconditionError("pair was not factored from this atom: supp(h) is not supp(a)")
    cert = _certify_residuals(weight, a.grid.left, a.grid.spacing, [a], [pair])
    bumps = (a.grid, a.support.center, pair.y0, a.support.radius)
    res = TwoBump(*bumps, *(window[0] for window in cert.res))
    sup = float(cert.sup[0])
    if sup == 0.0:
        return Residual(sup, res, None, ())
    unit = TwoBump(*bumps, *(window[0] for window in cert.unit))
    return Residual(sup, res, unit, tuple(cert.sums[0].tolist()))


def _require_certified(summary, table: ProfileTable, origin: str) -> None:
    """Raise if a row of a summary was rejected, naming where the row came
    from (``origin``) and its interval."""
    require_rows(summary.accepted(), NumericalCheckError,
                 lambda q: f"{origin} has a rejected certificate on {table.outer_interval(q)}")


def estimate_residual_h1b(weight: AccretiveWeight, certified: Residual) -> float:
    """Atomic upper estimate of a residual that ``residual`` certified: s times the
    coefficient sum of the decomposition of res / s, built from its certified sums."""
    if certified.sup == 0.0:
        return 0.0
    table = two_bump_tables([certified.unit], np.array([certified.sums]))[0]
    grid = certified.unit.grid
    summary = summarize_profiles(weight, grid.left, grid.spacing, grid.count, table)
    _require_certified(summary, table, "a re-atomization row")
    return certified.sup * ordered_sum(summary.alpha[summary.alpha > 0.0])


@dataclass(frozen=True, eq=False)
class FactorStage:
    """The factor terms lam_k Pi_b(g_k, h_k) of one stage as arrays, one entry
    per atom in atom order: lam, and of the pair y0, the denominator d and
    |g|_2, |h|_2 (M is the run's); its length is the atom count."""

    lam: np.ndarray
    y0: np.ndarray
    denom: np.ndarray
    g_l2: np.ndarray
    h_l2: np.ndarray

    def __len__(self) -> int:
        return self.lam.size


@dataclass(frozen=True, eq=False)
class WeakFactorization:
    """Stagewise factor terms, residual trace, and measured constants.

    The sums over the terms add left to right in atom order (``ordered_sum``,
    of ``complex_abs``), which fixes their rounding; ``np.sum`` adds pairwise."""

    stages: list[FactorStage]
    residual_trace: list[float]
    epsilon: float
    big_m: int
    initial_estimate: float

    @property
    def final_residual_estimate(self) -> float:
        return self.residual_trace[-1] if self.residual_trace else self.initial_estimate

    def contraction_ratios(self) -> list[float]:
        prev = [self.initial_estimate] + list(self.residual_trace[:-1])
        return [t / p if p > 0 else 0.0 for t, p in zip(self.residual_trace, prev)]

    def lambda_l1(self) -> float:
        return ordered_sum(*(complex_abs(stage.lam) for stage in self.stages))

    def lambda_pair_weighted(self) -> float:
        return ordered_sum(*(complex_abs(stage.lam) * stage.g_l2 * stage.h_l2
                             for stage in self.stages))

    @property
    def c0_measured(self) -> float:
        """The largest, over the stages, of sum |lam| over the previous
        residual estimate and of the estimate drop over eps, so that
        trace[k] <= (eps * c0) * trace[k-1]."""
        c0, prev = 0.0, self.initial_estimate
        for stage, t in zip(self.stages, self.residual_trace):
            if prev > 0:
                c0 = max(c0, ordered_sum(complex_abs(stage.lam)) / prev,
                         (t / prev) / self.epsilon)
            prev = t
        return c0

    @property
    def non_contracting(self) -> bool:
        """eps * c0 >= 1: the measured constants do not certify geometric decay."""
        return self.epsilon * self.c0_measured >= 1.0


def _working_grids(pending: ProfileTable, big_m: int):
    """Each pending atom's own working grid, as (left, spacing, count) arrays.

    Two-level shapes re-instantiate exactly at any aligned spacing; an
    eighth of the radius keeps every endpoint offset (including the
    off-center tail inner interval) on a node.  Bump shapes carry sampled
    data and keep their native spacing.
    """
    grids = (two_bump_host_grid(c, c + big_m * r, r, r / 8.0 if bump is None else bump.spacing)
             for c, r, bump in zip(pending.outer_center.tolist(), pending.outer_radius.tolist(),
                                   pending.bumps))
    left, spacing, count = np.fromiter(((g.left, g.spacing, g.count) for g in grids),
                                       np.dtype((float, 3)), len(pending)).T
    return left, spacing, count.astype(np.int64)


def _stage_residuals(weight: AccretiveWeight, left, spacing, atoms: list, pairs: list):
    """Certify the residual of every factored atom of a stage, one group of
    array passes per layout (the node counts of the atom and of g), and
    build the profile table of res / s of every nonzero one in one pass.
    Returns the sups, the table rows and the atom each row belongs to, all
    in atom order."""
    layouts: dict[tuple[int, int], list[int]] = {}
    for k, (atom, pair) in enumerate(zip(atoms, pairs)):
        layouts.setdefault((atom.values.size, pair.g.values.size), []).append(k)
    sups = np.zeros(len(atoms))
    sums = np.zeros((len(atoms), 2), dtype=np.complex128)
    units = [None] * len(atoms)
    for members in map(np.array, layouts.values()):
        cert = _certify_residuals(weight, left[members], spacing[members],
                                  [atoms[k] for k in members], [pairs[k] for k in members])
        sups[members] = cert.sup
        sums[members] = cert.sums
        for k, unit_a, unit_g in zip(members.tolist(), *cert.unit):
            units[k] = TwoBump(atoms[k].grid, atoms[k].support.center, pairs[k].y0,
                               atoms[k].support.radius, unit_a, unit_g)
    keep = np.flatnonzero(sups != 0.0)
    if not keep.size:
        return sups, None, keep
    table, i0 = two_bump_tables([units[k] for k in keep], sums[keep])
    return sups, table, np.repeat(keep, 2 * (i0 + 1))


def _children(table: ProfileTable, keep: np.ndarray) -> ProfileTable:
    """The kept rows of a stage's re-atomization, the resolution of each bump
    over the cap halved until its sample count is within it.

    Every other node is kept (interval radii are even multiples of the
    spacing, so both endpoints survive).  The row's weighted integral is
    taken on the grid the row is summarized on, which keeps the realized
    cancellation exact; the shape drift is quadrature-sized and lands in
    the measured stage constants.
    """
    children = table.take(keep)
    bumps = list(children.bumps)
    for k, bump in enumerate(bumps):
        if bump is not None and bump.values.size > BUMP_NODE_CAP:
            values = bump.values
            while values.size > BUMP_NODE_CAP:
                values = values[::2]
            bumps[k] = Bump(values.copy(), children.inner_interval(k).length / (values.size - 1))
    return replace(children, bumps=tuple(bumps))


def _require_float_range(weight: AccretiveWeight, radii, big_m: int, stages: int) -> None:
    """Reject a run whose atoms, of the given initial radii (a sequence of
    floats), leave the float range in which its checks are exact.

    An atom on I(x, R) is at most 1/(2R) and its factor h = -a/d, with |d|
    at least ``denominator_floor``, at most 1/(2R floor); ``lp_norm`` sums
    the squares of h, which on the smallest atom, an initial one, must stay
    2^20 (a million nodes) below overflow.  The bilinear form multiplies h
    by kernel entries of about 1/(pi M R), into products of about 1/(4R^2);
    a stage grows the largest radius by at most 2^(i0+1), the shared tail
    of a residual's chains, and on the last stage's largest atom these
    products must keep 40 bits above the subnormal floor 2^-1074.
    """
    smallest, largest = min(radii), max(radii)
    low = 1.0 + math.log2(smallest) + math.log2(denominator_floor(weight, big_m))
    if not low >= -(1024 - 20) / 2:
        raise PreconditionError(f"atom radius {smallest:.3g} is too small for M={big_m}: "
                                f"its factor's squared samples overflow a float")
    high = math.log2(largest) + (containment_index(big_m) + 1) * (stages - 1)
    if not high <= (1074 - 40 - 2) / 2:
        raise PreconditionError(f"atom radius {largest:.3g} grows to about 2^{high:.1f} "
                                f"over {stages} stages at M={big_m}, where the bilinear "
                                f"form underflows a float")


class _Stage(NamedTuple):
    """A stage's factor terms, its trace term (the estimate of what remains)
    and the next stage's rows and coefficients, None when it builds none."""

    terms: FactorStage
    trace: float
    pending: ProfileTable | None
    coefficients: np.ndarray | None


def _factor_stage(weight: AccretiveWeight, pending: ProfileTable, coefficients: np.ndarray,
                  big_m: int, stage: int, last: bool) -> _Stage:
    """Stage ``stage`` (from 0) of ``weak_factorize`` on the ``pending`` rows, of the
    given coefficients, at M = ``big_m``; the ``last`` builds no next rows."""
    geometry = _working_grids(pending, big_m)
    realized = summarize_profiles(weight, *geometry, pending)
    _require_certified(realized, pending, f"stage {stage + 1}'s pending row")
    live = np.flatnonzero(realized.alpha != 0.0)
    lams = _complex_mul(coefficients[live], realized.alpha[live])
    # chunk by chunk, keeping the pairs' arrays, the trace terms and the next
    # stage's rows and coefficients; the last stage has no next stage, and a
    # stage without a live atom runs one empty chunk for its empty terms
    pair_arrays, trace_terms, children, scaled = [], [], [], []
    for c0 in range(0, max(live.size, 1), _STAGE_CHUNK_ATOMS):
        rows = live[c0:c0 + _STAGE_CHUNK_ATOMS]
        left, spacing, count = (v[rows] for v in geometry)
        atoms, pairs = [], []
        for k, *grid in zip(rows.tolist(), left.tolist(), spacing.tolist(), count.tolist()):
            atoms.append(profile_atom(UniformGrid(*grid), pending, realized, k))
            pairs.append(approx_factor_atom(weight, atoms[-1], atoms[-1].support, big_m=big_m))
        lam = lams[c0:c0 + _STAGE_CHUNK_ATOMS]
        sups, table, owner = _stage_residuals(weight, left, spacing, atoms, pairs)
        pair_arrays.append([np.array([getattr(p, f) for p in pairs])
                            for f in ("y0", "denom", "g_l2", "h_l2")])
        if table is None:
            continue
        # rows of res / s with a nonzero coefficient hold the next stage's atoms;
        # the stage's estimate is the sum of |lam| * s * alpha over them in order
        summary = summarize_profiles(weight, left[owner], spacing[owner], count[owner], table)
        _require_certified(summary, table, "a re-atomization row")
        keep = np.flatnonzero(summary.alpha > 0.0)
        trace_terms.append((complex_abs(lam) * sups)[owner[keep]] * summary.alpha[keep])
        if not last:
            children.append(_children(table, keep))
            scaled.append(_complex_mul(lam, sups)[owner[keep]])
    return _Stage(FactorStage(lams, *map(np.concatenate, zip(*pair_arrays))),
                  ordered_sum(*trace_terms), ProfileTable.concat(children) if children else None,
                  np.concatenate(scaled) if children else None)


def weak_factorize(weight: AccretiveWeight, initial, eps: float,
                   stages: int) -> WeakFactorization:
    """Iterative approximate factorization of an atomic decomposition.

    Stage k is one ``_factor_stage`` call: it factors every pending atom on
    a working grid sized to its own radius, collects the factor terms,
    re-atomizes every defect through the two-bump decomposition, and records
    the coefficient-sum estimate of the remaining part; the module docstring
    lists a stage's passes and checks.  The run stops early once the estimate
    falls below 1e-12 of the initial one.  Initial radii whose run would
    leave the float range raise PreconditionError before any stage.
    """
    stages = require_int(stages, 0, "stage count")
    big_m = select_big_m(eps)
    # row k is term k's atom times alpha_k, so its coefficient is the term's over alpha_k
    nonzero = np.flatnonzero(initial.coefficient != 0.0)
    if np.any(initial.summary.alpha[nonzero] == 0.0):
        raise ZeroDivisionError("complex division by zero: an initial row of alpha 0")
    coefficients = _complex_div(initial.coefficient[nonzero], initial.summary.alpha[nonzero])
    if nonzero.size and stages > 0:
        _require_float_range(weight, initial.table.outer_radius[nonzero].tolist(), big_m, stages)
    initial_estimate = h1b_norm_upper(initial)

    # the initial estimate, then each stage's trace term
    stage_terms, estimates = [], [initial_estimate]
    pending = initial.table.take(nonzero)
    for stage in range(stages):
        if not len(pending) or estimates[-1] <= EARLY_STOP_FRACTION * initial_estimate:
            break
        out = _factor_stage(weight, pending, coefficients, big_m, stage, stage + 1 == stages)
        stage_terms.append(out.terms)
        estimates.append(out.trace)
        # peak RSS here moves with allocator placement (CHANGES.md FOUND), not with this free order
        if out.pending is None:
            break
        pending, coefficients = out.pending, out.coefficients
    return WeakFactorization(stage_terms, estimates[1:], eps, big_m, initial_estimate)


def single_two_bump_initial(weight: AccretiveWeight, x0: float, big_m0: int,
                            r: float):
    """One-term initial decomposition: a certified two-bump atom.

    The atom is the canonical cancelling bump pair at separation big_m0 * r,
    normalized on the covering interval, on the two-bump host grid of spacing
    r / 4 (the iteration builds its own working grids); its one table row is
    the atom, written with alpha 1 and no levels.  A support of more than
    MAX_ATOM_NODES nodes (big_m0 above 8192) raises PreconditionError first.
    """
    _validate_big_m(big_m0)
    y0 = x0 + big_m0 * r
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    support = Interval(0.5 * (x0 + y0), (0.5 * big_m0 + 1.0) * r)
    _require_atom_nodes(grid, support, f"the initial atom at M0={big_m0}")
    f = make_two_bump_input(weight, grid, x0, y0, r).on(support)
    alpha = f.sup_norm() * support.length
    atom = f.scaled(1.0 / alpha)
    cert = check_atom(atom, support, weight)
    if not cert.accepted:
        raise NumericalCheckError("initial two-bump atom failed certification")
    one = np.array([support.center]), np.array([support.radius])
    lo, hi = np.array([atom.lo]), np.array([atom.lo + atom.values.size])
    zero = np.zeros(1, dtype=np.complex128)
    table = ProfileTable(*one, *one, zero, (Bump(atom.values, grid.spacing),))
    summary = ProfileSummary(np.ones(1), np.array([cert.size_value]),
                             np.array([cert.cancellation_residual]), lo, hi, lo, hi, zero, zero)
    return AtomicDecomposition(np.array([complex(alpha)]), 0, support.radius, weight.sup_norm,
                               grid, table, summary)


def h1_factor_from_h1b(weight: AccretiveWeight,
                       pair: FactorPair) -> tuple[GridFunction, GridFunction]:
    """Convert a weighted factor pair (g, h) into the unweighted pair (g, b h),
    checking the conversion identity (1/b) Pi(G, H) = Pi_b(g, h)
    node-for-node to 1e-10 relative."""
    grid = pair.h.grid
    b = weight_values(weight.curve, grid)
    big_h = GridFunction(grid, b * pair.h.samples, pair.h.support)
    h_l2 = lp_norm(pair.h, 2)
    # a zero h has a zero bh, and no ratio
    ratio = lp_norm(big_h, 2) / h_l2 if h_l2 != 0.0 else 1.0
    if not 1.0 - 1e-9 <= ratio <= weight.sup_norm * (1.0 + 1e-9):
        raise NumericalCheckError(f"|bh|_2 / |h|_2 = {ratio} escaped [1, sup|b|]")
    lhs = pi_classic(weight, pair.g, big_h).samples / b
    rhs = pi_b(weight, pair.g, pair.h).samples
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    if not float(np.max(np.abs(lhs - rhs))) <= 1e-10 * scale:
        raise NumericalCheckError("bilinear-form conversion identity failed")
    return pair.g, big_h
