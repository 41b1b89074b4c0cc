"""Bilinear forms, approximate factorization of atoms, and the iterative
weak factorization.

The weighted bilinear form is
    Pi_b(g, h) = (1/b) * (g * C(h) - h * C*(g))
with C the Cauchy integral on the curve; the unweighted form Pi uses the
related transform in both slots, and b * Pi_b(g, h) = Pi(g, b h), so both
come from one core.  Each term carries a factor g or h, so the form vanishes
off supp(g) union supp(h); the core computes it only there, from one
supp(g) x supp(h) kernel block read once directly and once through the
exact antisymmetry of the punctured related matrix.

An atom a supported on I(x0, r) is approximately factored through
    g = chi_{I(y0, r)},  h = -a / d,  d = (related C)*(g)(x0),  y0 = x0 + M r,
for a given M; ``select_big_m`` turns the target accuracy eps into the
smallest power of two M >= 128 with log(M)/M < eps.  The defect a - Pi_b(g, h)
is again a two-bump function with weighted cancellation, so it re-enters the
two-bump decomposition; iterating stage by stage drives the residual to zero
geometrically.  Every atom sits on its own node-aligned working grid sized
to its radius (the footprint grows by about 4M per stage), and is read and
written only on its support windows, so its cost follows its supports.

A stage keeps its pending atoms as one profile table (see ``atoms``).  Per
stage, ``summarize_profiles`` gives every atom's coefficient and levels on
its working grid from closed-form D_I; ``approx_factor_atom`` re-certifies
the atom from its samples (``check_atom``, to ATOM_TOL = 1e-8; a rejection
is bad input) and bounds |d| and |g|_2 |h|_2; ``residual`` certifies the
defect (zero off the bumps, sup * M * r <= 10, weighted sums cancelling to
ATOM_TOL of the mass of defect / sup), whose sums are the F of its table's
bump rows (``two_bump_profiles`` checks only that the grid hosts the table);
and one more pass over the stage's concatenated residual tables certifies
every row to ATOM_TOL.  Each failure but ``check_atom``'s is a
NumericalCheckError.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atoms import (AtomicDecomposition, Bump, DecompositionTerm, ProfileTable,
                    _validate_two_bump, concat_tables, containment_index,
                    make_two_bump_input, profile_atom, summarize_profiles,
                    two_bump_host_grid, two_bump_profiles)
from .cauchy import related_cauchy_at, related_cauchy_values, weight_values, weight_window
from .curve import AccretiveWeight
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import GridFunction, Interval, indicator, lp_norm, merged_ranges, require_same_grid
from .spaces import ATOM_TOL, check_atom, h1b_norm_upper, weighted_sum

MIN_BIG_M = 128
RESIDUAL_SUP_FACTOR = 10.0   # assert sup|a - Pi_b| * M * r <= this
EARLY_STOP_FRACTION = 1e-12
BUMP_NODE_CAP = 1536         # bump samples per atom before 2x coarsening


def select_big_m(eps: float) -> int:
    """Smallest power of two >= 128 with log(M)/M < eps."""
    if not eps > 0:
        raise PreconditionError("eps must be positive")
    m = MIN_BIG_M
    while math.log(m) / m >= eps:
        m *= 2
        if m > 1 << 40:
            raise PreconditionError(f"eps={eps} demands an absurd separation")
    return m


def _validate_big_m(big_m: int) -> int:
    if big_m < MIN_BIG_M or big_m & (big_m - 1):
        raise PreconditionError(f"M must be a power of two >= {MIN_BIG_M}, got {big_m}")
    return big_m


def _form_window(weight: AccretiveWeight, g: GridFunction, h: GridFunction,
                 b_h: np.ndarray | None) -> tuple[int, np.ndarray]:
    """Samples of Pi(g, b h) = g * T(b h) + b h * T(g), that is b * Pi_b(g, h),
    from one kernel block; T is the related transform and b_h the second
    slot's weight on supp(h) (None for the unweighted form).  Returned as
    (lo, values) over the nodes from the first to the last of supp(g) union
    supp(h); zero at every other node."""
    require_same_grid(g, h)
    glo, ghi = g.support_range()
    hlo, hhi = h.support_range()
    # The block's rows are supp(h): an atom's residual a - Pi_b(g, h) cancels
    # there to about 1/M of a, so supp(h) gets the direct product, which
    # rounds less than the transposed one.
    related_g, transform_h = related_cauchy_values(
        weight.curve, g, np.arange(hlo, hhi), paired=h.values if b_h is None else h.values * b_h)
    spans = merged_ranges((glo, ghi), (hlo, hhi))
    lo = spans[0][0] if spans else 0
    out = np.zeros(spans[-1][1] - lo if spans else 0, dtype=np.complex128)
    out[glo - lo:ghi - lo] += g.values * transform_h
    if b_h is None:
        out[hlo - lo:hhi - lo] += h.values * related_g
    else:
        out[hlo - lo:hhi - lo] -= h.values * (-b_h * related_g)
    return lo, out


def pi_b(weight: AccretiveWeight, g: GridFunction, h: GridFunction) -> GridFunction:
    """Weighted bilinear form, truncated exactly to supp(g) union supp(h).

    b is read only on those supports."""
    grid, curve = g.grid, weight.curve
    hlo, hhi = h.support_range()
    lo, out = _form_window(weight, g, h, weight_window(curve, grid, hlo, hhi))
    for wlo, whi in merged_ranges(g.support_range(), (hlo, hhi)):
        out[wlo - lo:whi - lo] /= weight_window(curve, grid, wlo, whi)
    return GridFunction(grid, (lo, out), g.support.hull(h.support))


def pi_classic(weight: AccretiveWeight, big_g: GridFunction,
               big_h: GridFunction) -> GridFunction:
    """Unweighted bilinear form G * C~(H) - H * (C~)*(G), same truncation."""
    lo, out = _form_window(weight, big_g, big_h, None)
    return GridFunction(big_g.grid, (lo, out), big_g.support.hull(big_h.support))


@dataclass(frozen=True, eq=False)
class FactorPair:
    """One approximate factorization a ~ Pi_b(g, h).

    g and h are dropped (None) in deep iterative runs to keep memory flat;
    the norms, separation, and denominator are always retained.
    """

    g: GridFunction | None
    h: GridFunction | None
    big_m: int
    y0: float
    denom: complex
    g_l2: float
    h_l2: float

    def light(self) -> "FactorPair":
        return FactorPair(None, None, self.big_m, self.y0, self.denom,
                          self.g_l2, self.h_l2)


def denominator_floor(weight: AccretiveWeight, big_m: int) -> float:
    """Curve-quantified lower bound for |(related C)*(g)(x0)|."""
    return math.log((big_m + 1.0) / (big_m - 1.0)) / math.pi / weight.sup_norm


def approx_factor_atom(weight: AccretiveWeight, a: GridFunction,
                       support: Interval, *, big_m: int) -> FactorPair:
    """Factor pair for a certified atom supported on I(x0, r), at the
    separation M = ``big_m``, a power of two >= 128 (``select_big_m`` turns
    an accuracy target into one)."""
    cert = check_atom(a, support, weight)
    if not cert.accepted:
        raise PreconditionError(
            f"input is not a certified atom: size={cert.size_value:.6g}, "
            f"cancellation={cert.cancellation_residual:.3g}, support_ok={cert.support_ok}")
    m = _validate_big_m(big_m)
    x0, r = support.center, support.radius
    y0 = x0 + m * r
    grid = a.grid
    if y0 + r > grid.right + 1e-9 * grid.spacing:
        raise GridTooNarrowError(
            f"grid right edge {grid.right} cannot host I({y0}, {r}); enlarge the grid")
    g = indicator(grid, Interval(y0, r))
    denom = -related_cauchy_at(weight.curve, g, x0)
    floor = denominator_floor(weight, m)
    if abs(denom) < floor * (1.0 - 1e-12):
        raise NumericalCheckError(
            f"factor denominator {abs(denom):.3e} fell below the floor {floor:.3e}")
    h = a.scaled(-1.0 / denom)
    g_l2 = lp_norm(g, 2)
    h_l2 = lp_norm(h, 2)
    if g_l2 * h_l2 > 2.0 * math.pi * weight.sup_norm * m * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"|g|_2 |h|_2 = {g_l2 * h_l2:.6g} exceeds the O(M) bound for M={m}")
    return FactorPair(g, h, m, y0, denom, g_l2, h_l2)


def residual(weight: AccretiveWeight, a: GridFunction, pair: FactorPair):
    """(res, s, res / s, sums): the defect res = a - Pi_b(g, h), its sup s and
    the weighted sums of res / s over the bumps of a and g (None and () when
    s is 0).  The one certificate of res, raising NumericalCheckError: zero
    off the bumps, s * M * r <= 10, the sums cancelling to ATOM_TOL of the
    weighted mass of res / s."""
    if pair.g is None or pair.h is None:
        raise PreconditionError("pair was lightened; re-factor to compute a residual")
    grid = a.grid
    form = pi_b(weight, pair.g, pair.h)
    bumps = (a.support_range(), pair.g.support_range())
    # a vanishes off its support, so the residual leaks exactly where the
    # form is nonzero outside both bumps, the gap between them included
    if not form.vanishes_outside(*bumps):
        raise NumericalCheckError("residual leaked outside the two bumps")
    spans = merged_ranges(*bumps)
    start, stop = (spans[0][0], spans[-1][1]) if spans else (0, 0)
    res = a.values_on(start, stop) - form.values_on(start, stop)
    sup = float(np.max(np.abs(res), initial=0.0))
    if sup * pair.big_m * a.support.radius > RESIDUAL_SUP_FACTOR * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"residual sup {sup:.3e} violates the O(1/(M r)) bound at M={pair.big_m}")
    out = GridFunction(grid, (start, res), a.support.hull(pair.g.support))
    if sup == 0.0:
        return out, sup, None, ()
    unit = out.scaled(1.0 / sup)
    windows = [unit.values_on(lo, hi) for lo, hi in bumps]
    sums = tuple(weighted_sum(weight, grid, lo, w) for (lo, _), w in zip(bumps, windows))
    cancel = abs(sum(sums))
    mass = sum(float(np.sum(np.abs(w))) for w in windows) * grid.spacing * weight.sup_norm
    if cancel > ATOM_TOL * mass:
        raise NumericalCheckError(f"residual lost the weighted cancellation: {cancel:.3e} "
                                  f"exceeds {ATOM_TOL:.1e} of the mass {mass:.3e}")
    return out, sup, unit, sums


def _require_certified(summary, table: ProfileTable) -> None:
    """Raise if a row of a re-atomization was rejected, naming its interval."""
    rejected = np.flatnonzero(~summary.accepted())
    if rejected.size:
        raise NumericalCheckError(f"re-atomization produced a rejected certificate on "
                                  f"{table.outer_interval(int(rejected[0]))}")


def estimate_residual_h1b(weight: AccretiveWeight, res: GridFunction,
                          x0: float, y0: float, r: float) -> float:
    """Atomic upper estimate of a two-bump function: sup-normalize, check the
    two-bump contract (``_validate_two_bump``), decompose the unit function,
    return sup * sum of coefficients."""
    s = res.sup_norm()
    if s == 0.0:
        return 0.0
    unit = res.scaled(1.0 / s)
    table = two_bump_profiles(unit, x0, y0, r, _validate_two_bump(weight, unit, x0, y0, r))[0]
    summary = summarize_profiles(weight, res.grid, table)
    _require_certified(summary, table)
    return s * float(sum(summary.alpha[summary.alpha > 0.0].tolist()))


@dataclass(frozen=True, eq=False)
class WeakFactorization:
    """Stagewise factor terms, residual trace, and measured constants."""

    stages: list[list[tuple[complex, FactorPair]]]
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
        return float(sum(abs(lam) for stage in self.stages for lam, _ in stage))

    def lambda_pair_weighted(self) -> float:
        return float(sum(abs(lam) * fp.g_l2 * fp.h_l2
                         for stage in self.stages for lam, fp in stage))

    @property
    def c0_measured(self) -> float:
        """The largest, over the stages, of sum |lam| over the previous
        residual estimate and of the estimate drop over eps, so that
        trace[k] <= (eps * c0) * trace[k-1]."""
        c0, prev = 0.0, self.initial_estimate
        for stage, t in zip(self.stages, self.residual_trace):
            if prev > 0:
                lam_in = 0.0
                for lam, _ in stage:
                    lam_in += abs(lam)
                c0 = max(c0, lam_in / prev, (t / prev) / self.epsilon)
            prev = t
        return c0

    @property
    def non_contracting(self) -> bool:
        """eps * c0 >= 1: the measured constants do not certify geometric decay."""
        return self.epsilon * self.c0_measured >= 1.0


def _coarsen_bump(bump: Bump, interval: Interval) -> Bump:
    """Halve the resolution of a bump sampled on ``interval`` until its
    sample count is within the cap.

    Every other node is kept (interval radii are even multiples of the
    spacing, so both endpoints survive).  The row's weighted integral is
    taken on the grid the row is summarized on, which keeps the realized
    cancellation exact; the shape drift is quadrature-sized and lands in
    the measured stage constants.
    """
    values, spacing = bump.values, bump.spacing
    while values.size > BUMP_NODE_CAP:
        values = values[::2]
        spacing = interval.length / (values.size - 1)
    return Bump(values.copy(), spacing)


def _working_grids(pending: ProfileTable, big_m: int):
    """Each pending atom's support and its own working grid.

    Two-level shapes re-instantiate exactly at any aligned spacing; an
    eighth of the radius keeps every endpoint offset (including the
    off-center tail inner interval) on a node.  Bump shapes carry sampled
    data and keep their native spacing.
    """
    supports, grids = [], []
    for k, bump in enumerate(pending.bumps):
        support = pending.outer_interval(k)
        c, radius = support.center, support.radius
        spacing = radius / 8.0 if bump is None else bump.spacing
        supports.append(support)
        grids.append(two_bump_host_grid(c, c + big_m * radius, radius, spacing))
    return supports, grids


def _next_pending(weight: AccretiveWeight, tables: list[ProfileTable], grids: list,
                  coefficients: list[complex], weights: list[float]):
    """Re-atomize one stage's residuals in one pass.

    ``tables`` holds the profile table of each residual (of res / s),
    ``grids`` the grid of every row, ``coefficients`` lam * s and
    ``weights`` |lam| * s per residual.  Returns the rows with a nonzero
    coefficient as the next stage's atoms (oversized bumps coarsened), their
    coefficients lam * s, and the stage's residual estimate, the sum of
    |lam| * s * alpha over those rows in order.
    """
    if not tables:
        return None, [], 0.0
    table = concat_tables(tables)
    summary = summarize_profiles(weight, grids, table)
    _require_certified(summary, table)
    owner = np.repeat(np.arange(len(tables)), [len(t) for t in tables])
    keep = np.flatnonzero(summary.alpha > 0.0)
    trace = 0.0
    for k, alpha in zip(owner[keep].tolist(), summary.alpha[keep].tolist()):
        trace += weights[k] * alpha
    children = table.take(keep)
    bumps = tuple(_coarsen_bump(bump, children.inner_interval(k))
                  if bump is not None and bump.values.size > BUMP_NODE_CAP else bump
                  for k, bump in enumerate(children.bumps))
    children = replace(children, bumps=bumps)
    return children, [coefficients[k] for k in owner[keep].tolist()], trace


def _pending_from_initial(dec) -> tuple[ProfileTable | None, list[complex]]:
    """The nonzero terms as bump rows sampled on their supports, with their
    coefficients."""
    terms = [t for t in dec.terms if abs(t.coefficient) != 0.0]
    if not terms:
        return None, []
    center = np.array([t.support.center for t in terms])
    radius = np.array([t.support.radius for t in terms])
    bumps = tuple(Bump(t.atom.values, dec.grid.spacing) for t in terms)
    return (ProfileTable(center, radius, center, radius,
                         np.zeros(len(terms), dtype=np.complex128), bumps),
            [t.coefficient for t in terms])


def _require_float_range(weight: AccretiveWeight, radii: np.ndarray, big_m: int,
                         stages: int) -> None:
    """Reject a run whose atoms, of the given initial radii, leave the float
    range in which its checks are exact.

    An atom on I(x, R) is at most 1/(2R) and its factor h = -a/d, with |d|
    at least ``denominator_floor``, at most 1/(2R floor); ``lp_norm`` sums
    the squares of h, which on the smallest atom, an initial one, must stay
    2^20 (a million nodes) below overflow.  The bilinear form multiplies h
    by kernel entries of about 1/(pi M R), into products of about 1/(4R^2);
    a stage grows the largest radius by at most 2^(i0+1), the shared tail
    of a residual's chains, and on the last stage's largest atom these
    products must keep 40 bits above the subnormal floor 2^-1074.
    """
    low = 1.0 + math.log2(float(np.min(radii))) + math.log2(denominator_floor(weight, big_m))
    if low < -(1024 - 20) / 2:
        raise PreconditionError(f"atom radius {np.min(radii):.3g} is too small for M={big_m}: "
                                f"its factor's squared samples overflow a float")
    high = math.log2(float(np.max(radii))) + (containment_index(big_m) + 1) * (stages - 1)
    if high > (1074 - 40 - 2) / 2:
        raise PreconditionError(f"atom radius {np.max(radii):.3g} grows to about 2^{high:.1f} "
                                f"over {stages} stages at M={big_m}, where the bilinear "
                                f"form underflows a float")


def weak_factorize(weight: AccretiveWeight, initial, eps: float,
                   stages: int) -> WeakFactorization:
    """Iterative approximate factorization of an atomic decomposition.

    Stage k factors every pending atom on a working grid sized to its own
    radius, collects the factor terms, re-atomizes every defect through the
    two-bump decomposition, and records the coefficient-sum estimate of the
    remaining part; the module docstring lists a stage's passes and checks.
    The run stops early once the estimate falls below 1e-12 of the initial
    one.  Initial radii whose run would leave the float range raise
    PreconditionError before any stage.
    """
    if stages < 0:
        raise PreconditionError("stage count must be >= 0")
    big_m = select_big_m(eps)
    pending, coefficients = _pending_from_initial(initial)
    if pending is not None and stages > 0:
        _require_float_range(weight, pending.outer_radius, big_m, stages)
    initial_estimate = h1b_norm_upper(initial)

    stage_terms: list[list[tuple[complex, FactorPair]]] = []
    trace: list[float] = []
    prev_estimate = initial_estimate
    for _ in range(stages):
        if not coefficients or prev_estimate <= EARLY_STOP_FRACTION * initial_estimate:
            break
        terms_k: list[tuple[complex, FactorPair]] = []
        tables, row_grids, child_coefficients, child_weights = [], [], [], []
        supports, grids = _working_grids(pending, big_m)
        realized = summarize_profiles(weight, grids, pending)
        for k, alpha in enumerate(realized.alpha.tolist()):
            if alpha == 0.0:
                continue
            support, grid = supports[k], grids[k]
            lam = coefficients[k] * alpha
            atom = profile_atom(grid, pending, realized, k)
            pair = approx_factor_atom(weight, atom, support, big_m=big_m)
            _, s, unit, sums = residual(weight, atom, pair)
            terms_k.append((lam, pair.light()))
            if s > 0.0:
                table = two_bump_profiles(unit, support.center, pair.y0, support.radius, sums)[0]
                tables.append(table)
                row_grids.extend([grid] * len(table))
                child_coefficients.append(lam * s)
                child_weights.append(abs(lam) * s)
        pending, coefficients, trace_k = _next_pending(weight, tables, row_grids,
                                                       child_coefficients, child_weights)
        stage_terms.append(terms_k)
        trace.append(trace_k)
        prev_estimate = trace_k
    return WeakFactorization(stage_terms, trace, eps, big_m, initial_estimate)


def single_two_bump_initial(weight: AccretiveWeight, x0: float, big_m0: int,
                            r: float):
    """One-term initial decomposition: a certified two-bump atom.

    The atom is the canonical cancelling bump pair at separation big_m0 * r,
    normalized on the covering interval, on the two-bump host grid of
    spacing r / 4 (the iteration builds its own working grids).
    """
    _validate_big_m(big_m0)
    y0 = x0 + big_m0 * r
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    f = make_two_bump_input(weight, grid, x0, y0, r)
    support = Interval(0.5 * (x0 + y0), (0.5 * big_m0 + 1.0) * r)
    alpha = f.sup_norm() * support.length
    atom = f.scaled(1.0 / alpha)
    cert = check_atom(atom, support, weight)
    if not cert.accepted:
        raise NumericalCheckError("initial two-bump atom failed certification")
    term = DecompositionTerm(1, 0, complex(alpha), atom, support, cert)
    return AtomicDecomposition([term], 0, support.radius, weight.sup_norm, grid)


def h1_factor_from_h1b(weight: AccretiveWeight,
                       pair: FactorPair) -> tuple[GridFunction, GridFunction]:
    """Convert a weighted factor pair (g, h) into the unweighted pair (g, b h),
    checking the conversion identity (1/b) Pi(G, H) = Pi_b(g, h)
    node-for-node to 1e-10 relative."""
    if pair.g is None or pair.h is None:
        raise PreconditionError("pair was lightened; re-factor to convert it")
    grid = pair.h.grid
    b = weight_values(weight.curve, grid)
    big_g = pair.g
    big_h = GridFunction(grid, b * pair.h.samples, pair.h.support)
    lift = weight.sup_norm
    ratio = lp_norm(big_h, 2) / lp_norm(pair.h, 2)
    if not (1.0 - 1e-9 <= ratio <= lift * (1.0 + 1e-9)):
        raise NumericalCheckError(f"|bh|_2 / |h|_2 = {ratio} escaped [1, sup|b|]")
    lhs = pi_classic(weight, big_g, big_h).samples / b
    rhs = pi_b(weight, pair.g, pair.h).samples
    scale = max(float(np.max(np.abs(rhs))), 1e-300)
    if float(np.max(np.abs(lhs - rhs))) > 1e-10 * scale:
        raise NumericalCheckError("bilinear-form conversion identity failed")
    return big_g, big_h
