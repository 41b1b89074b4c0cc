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
geometrically.  Every atom is processed on its own node-aligned working grid
sized to its radius, because the construction's footprint grows by a factor
of about 4M per stage and no single uniform grid can host several stages.
The factorization, the residual and their checks read b and the samples only
on the support windows of that grid (``weight_window``), and write their
results from those windows, so an atom's cost follows its supports, not the
working-grid length.

A stage keeps its pending atoms as one profile table (see ``atoms``).  One
``summarize_profiles`` pass gives every atom's coefficient and levels on its
working grid; after the per-atom factor pairs and residuals, one more pass
re-atomizes all of the stage's residuals, whose tables are concatenated,
with every D_I in closed form.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .atoms import (AtomicDecomposition, Bump, DecompositionTerm, ProfileTable,
                    concat_tables, make_two_bump_input, profile_atom,
                    summarize_profiles, two_bump_host_grid, two_bump_profiles)
from .cauchy import related_cauchy_at, related_cauchy_values, weight_values, weight_window
from .curve import AccretiveWeight, eval_b
from .errors import GridTooNarrowError, NumericalCheckError, PreconditionError
from .grid import (GridFunction, Interval, indicator, integrate_window, lp_norm,
                   merged_ranges, require_same_grid)
from .spaces import check_atom, h1b_norm_upper

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
    g_rows, h_rows = g.samples[glo:ghi], h.samples[hlo:hhi]
    # The block's rows are supp(h): an atom's residual a - Pi_b(g, h) cancels
    # there to about 1/M of a, so supp(h) gets the direct product, which
    # rounds less than the transposed one.
    related_g, transform_h = related_cauchy_values(
        weight.curve, g, np.arange(hlo, hhi), paired=h_rows if b_h is None else h_rows * b_h)
    spans = merged_ranges((glo, ghi), (hlo, hhi))
    lo = spans[0][0] if spans else 0
    out = np.zeros(spans[-1][1] - lo if spans else 0, dtype=np.complex128)
    if glo < ghi:
        out[glo - lo:ghi - lo] += g_rows * transform_h
    if hlo < hhi:
        if b_h is None:
            out[hlo - lo:hhi - lo] += h_rows * related_g
        else:
            out[hlo - lo:hhi - lo] -= h_rows * (-b_h * related_g)
    return lo, out


def pi_b(weight: AccretiveWeight, g: GridFunction, h: GridFunction) -> GridFunction:
    """Weighted bilinear form, truncated exactly to supp(g) union supp(h).

    b is read only on those supports."""
    grid, curve = g.grid, weight.curve
    hlo, hhi = h.support_range()
    lo, out = _form_window(weight, g, h, weight_window(curve, grid, hlo, hhi))
    for wlo, whi in merged_ranges(g.support_range(), (hlo, hhi)):
        out[wlo - lo:whi - lo] /= weight_window(curve, grid, wlo, whi)
    return GridFunction.from_window(grid, g.support.hull(h.support), lo, out)


def pi_classic(weight: AccretiveWeight, big_g: GridFunction,
               big_h: GridFunction) -> GridFunction:
    """Unweighted bilinear form G * C~(H) - H * (C~)*(G), same truncation."""
    lo, out = _form_window(weight, big_g, big_h, None)
    return GridFunction.from_window(big_g.grid, big_g.support.hull(big_h.support), lo, out)


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


def residual(weight: AccretiveWeight, a: GridFunction, pair: FactorPair) -> GridFunction:
    """Defect a - Pi_b(g, h); asserted two-bump shaped, small, and b-cancelling."""
    if pair.g is None or pair.h is None:
        raise PreconditionError("pair was lightened; re-factor to compute a residual")
    grid = a.grid
    form = pi_b(weight, pair.g, pair.h)
    # a vanishes off its support, so the residual leaks exactly where the
    # form is nonzero outside both bumps, the gap between them included
    bumps = merged_ranges(a.support_range(), pair.g.support_range())
    if not form.vanishes_outside(*bumps):
        raise NumericalCheckError("residual leaked outside the two bumps")
    start = bumps[0][0] if bumps else 0
    res = np.zeros(bumps[-1][1] - start if bumps else 0, dtype=np.complex128)
    pieces = []
    for lo, hi in bumps:
        piece = res[lo - start:hi - start]
        np.subtract(a.samples[lo:hi], form.samples[lo:hi], out=piece)
        pieces.append((lo, hi, piece))
    r = a.support.radius
    sup = max((float(np.max(np.abs(piece))) for _, _, piece in pieces), default=0.0)
    if sup * pair.big_m * r > RESIDUAL_SUP_FACTOR * (1.0 + 1e-9):
        raise NumericalCheckError(
            f"residual sup {sup:.3e} violates the O(1/(M r)) bound at M={pair.big_m}")
    cancel = abs(sum(integrate_window(grid, piece * weight_window(weight.curve, grid, lo, hi),
                                      lo)
                     for lo, hi, piece in pieces))
    form_l1 = sum(float(np.sum(np.abs(form.samples[lo:hi]))) for lo, hi in bumps)
    mass = (lp_norm(a, 1) + form_l1 * grid.spacing) * weight.sup_norm
    if mass > 0 and cancel > 1e-7 * mass:
        raise NumericalCheckError(
            f"residual lost the weighted cancellation: {cancel:.3e} vs mass {mass:.3e}")
    return GridFunction.from_window(grid, a.support.hull(pair.g.support), start, res)


def _residual_table(weight: AccretiveWeight, res: GridFunction,
                    x0: float, y0: float, r: float) -> tuple[float, ProfileTable | None]:
    """Sup s of the residual and the profile table of its two-bump
    decomposition of res / s; no table when the residual vanishes."""
    s = res.sup_norm()
    if s == 0.0:
        return 0.0, None
    return s, two_bump_profiles(weight, res.scaled(1.0 / s), x0, y0, r)[0]


def _require_certified(summary, table_rows: np.ndarray) -> None:
    """Raise if a row of a re-atomization was rejected; ``table_rows`` holds
    the row counts of the concatenated per-residual tables, each 2(i0+1)."""
    rejected = np.flatnonzero(~summary.accepted())
    if rejected.size:
        k = int(rejected[0])
        owner = int(np.searchsorted(np.cumsum(table_rows), k, side="right"))
        local = k - int(np.sum(table_rows[:owner]))
        j, i = divmod(local, int(table_rows[owner]) // 2)
        raise NumericalCheckError(
            f"re-atomization produced a rejected certificate at (j={j + 1}, i={i + 1})")


def estimate_residual_h1b(weight: AccretiveWeight, res: GridFunction,
                          x0: float, y0: float, r: float) -> float:
    """Atomic upper estimate of the residual: sup-normalize, decompose the
    unit two-bump function, return sup * sum of coefficients."""
    s, table = _residual_table(weight, res, x0, y0, r)
    if table is None:
        return 0.0
    summary = summarize_profiles(weight, res.grid, table)
    _require_certified(summary, np.array([len(table)]))
    return s * float(sum(summary.alpha[summary.alpha > 0.0].tolist()))


@dataclass(frozen=True, eq=False)
class WeakFactorization:
    """Stagewise factor terms, residual trace, and measured constants."""

    stages: list[list[tuple[complex, FactorPair]]]
    residual_trace: list[float]
    epsilon: float
    big_m: int
    c0_measured: float
    initial_estimate: float
    non_contracting: bool

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


def _coarsen_bump(weight: AccretiveWeight, bump: Bump,
                  interval: Interval) -> tuple[Bump, complex]:
    """Halve the resolution of a bump sampled on ``interval`` until its
    sample count is within the cap; returns the bump and its new scale.

    Every other node is kept (interval radii are even multiples of the
    spacing, so both endpoints survive) and the weighted integral is
    recomputed on the surviving nodes, which keeps the realized
    cancellation exact; the shape drift is quadrature-sized and lands in
    the measured stage constants.
    """
    values, spacing, scale = bump.values, bump.spacing, 0j
    while values.size > BUMP_NODE_CAP:
        values = values[::2]
        spacing = interval.length / (values.size - 1)
        xs = interval.center - interval.radius + spacing * np.arange(values.size)
        scale = complex(np.sum(values * eval_b(weight, xs)) * spacing)
        values = values.copy()
    return Bump(values, spacing), scale


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
    rows = np.array([len(t) for t in tables])
    _require_certified(summary, rows)
    owner = np.repeat(np.arange(len(tables)), rows)
    keep = np.flatnonzero(summary.alpha > 0.0)
    trace = 0.0
    for k, alpha in zip(owner[keep].tolist(), summary.alpha[keep].tolist()):
        trace += weights[k] * alpha
    children = table.take(keep)
    scale, bumps = children.scale.copy(), list(children.bumps)
    for k, bump in enumerate(bumps):
        if bump is not None and bump.values.size > BUMP_NODE_CAP:
            bumps[k], scale[k] = _coarsen_bump(weight, bump, children.inner_interval(k))
    children = replace(children, scale=scale, bumps=tuple(bumps))
    return children, [coefficients[k] for k in owner[keep].tolist()], trace


def _pending_from_initial(dec) -> tuple[ProfileTable | None, list[complex]]:
    """The nonzero terms as bump rows sampled on their supports, with their
    coefficients."""
    terms = [t for t in dec.terms if abs(t.coefficient) != 0.0]
    if not terms:
        return None, []
    center = np.array([t.support.center for t in terms])
    radius = np.array([t.support.radius for t in terms])
    bumps = tuple(Bump(t.atom.samples[slice(*t.atom.support_range())].copy(),
                       dec.grid.spacing) for t in terms)
    return (ProfileTable(center, radius, center, radius,
                         np.zeros(len(terms), dtype=np.complex128), bumps),
            [t.coefficient for t in terms])


def weak_factorize(weight: AccretiveWeight, initial, eps: float,
                   stages: int) -> WeakFactorization:
    """Iterative approximate factorization of an atomic decomposition.

    Stage k factors every pending atom on a working grid sized to its own
    radius, collects the factor terms, re-atomizes every defect through the
    two-bump decomposition, and records the coefficient-sum estimate of the
    remaining part.  The pending atoms of a stage are one profile table,
    summarized in one pass on their working grids; the residuals' tables
    are summarized together in one more pass.  The run stops early once
    the estimate falls below 1e-12 of the initial one.  The reported
    constant c0_measured is the largest of the per-stage coefficient-mass
    ratios and the eps-rescaled contraction ratios, the smallest value for
    which both trace[k] <= (eps * c0) * trace[k-1] and the l1 coefficient
    bound hold.
    """
    if stages < 0:
        raise PreconditionError("stage count must be >= 0")
    big_m = select_big_m(eps)
    pending, coefficients = _pending_from_initial(initial)
    initial_estimate = h1b_norm_upper(initial)

    stage_terms: list[list[tuple[complex, FactorPair]]] = []
    trace: list[float] = []
    lambda_in_sums: list[float] = []
    prev_estimate = initial_estimate
    for _ in range(stages):
        if not coefficients or prev_estimate <= EARLY_STOP_FRACTION * initial_estimate:
            break
        terms_k: list[tuple[complex, FactorPair]] = []
        tables, row_grids, child_coefficients, child_weights = [], [], [], []
        lambda_in_k = 0.0
        supports, grids = _working_grids(pending, big_m)
        realized = summarize_profiles(weight, grids, pending)
        for k, alpha in enumerate(realized.alpha.tolist()):
            if alpha == 0.0:
                continue
            support, grid = supports[k], grids[k]
            lam = coefficients[k] * alpha
            lambda_in_k += abs(lam)
            atom = profile_atom(grid, pending, realized, k)
            pair = approx_factor_atom(weight, atom, support, big_m=big_m)
            res = residual(weight, atom, pair)
            terms_k.append((lam, pair.light()))
            s, table = _residual_table(weight, res, support.center, pair.y0, support.radius)
            if table is not None:
                tables.append(table)
                row_grids.extend([grid] * len(table))
                child_coefficients.append(lam * s)
                child_weights.append(abs(lam) * s)
        pending, coefficients, trace_k = _next_pending(weight, tables, row_grids,
                                                       child_coefficients, child_weights)
        stage_terms.append(terms_k)
        trace.append(trace_k)
        lambda_in_sums.append(lambda_in_k)
        prev_estimate = trace_k

    # Measured decomposition constant.  Two stage ratios feed it: the fresh
    # coefficient mass against the previous residual estimate, and the
    # estimate drop rescaled by the per-atom factorization accuracy eps, so
    # that trace[k] <= (eps * C0) * trace[k-1] holds for the reported C0.
    c0 = 0.0
    prev = initial_estimate
    for lam_in, t in zip(lambda_in_sums, trace):
        if prev > 0:
            c0 = max(c0, lam_in / prev, (t / prev) / eps)
        prev = t
    return WeakFactorization(stage_terms, trace, eps, big_m, c0,
                             initial_estimate, eps * c0 >= 1.0)


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
    return AtomicDecomposition([term], 0, float(big_m0), support.radius,
                               weight.sup_norm, grid)


def h1_factor_from_h1b(weight: AccretiveWeight, pair: FactorPair,
                       verify: bool = False) -> tuple[GridFunction, GridFunction]:
    """Convert a weighted factor pair (g, h) into the unweighted pair (g, b h).

    With ``verify`` the conversion identity (1/b) Pi(G, H) = Pi_b(g, h) is
    checked node-for-node to 1e-10 relative.
    """
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
    if verify:
        lhs = pi_classic(weight, big_g, big_h).samples / b
        rhs = pi_b(weight, pair.g, pair.h).samples
        scale = max(float(np.max(np.abs(rhs))), 1e-300)
        if float(np.max(np.abs(lhs - rhs))) > 1e-10 * scale:
            raise NumericalCheckError("bilinear-form conversion identity failed")
    return big_g, big_h
