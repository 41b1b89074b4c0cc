"""Oscillation norms and memberships: BMO estimator, vanishing-oscillation
profiles, atom certification, and the atomic upper norm.

The supremum over all intervals is approximated by dyadic intervals of the
grid span plus their half-shifted copies; every interval is comparable to
one of these, so the estimator is equivalent to the true supremum up to a
fixed factor that the qualitative bounds absorb.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cauchy import weight_window
from .curve import AccretiveWeight
from .errors import PreconditionError
from .grid import (GridFunction, Interval, complex_abs, csv_text, ordered_sum, require_int,
                   require_rows)

ATOM_TOL = 1e-8


def _max_oscillation(s: np.ndarray, width: int, starts) -> float:
    """Largest mean oscillation over the windows s[lo:lo + width], lo in
    ``starts``, in one array pass; -inf for no window.  A window holding a NaN
    sample is skipped; any other whose oscillation is no finite float (inf,
    or NaN from inf - inf) raises PreconditionError.  Rows reduce along their
    contiguous axis, so each window's value is bitwise that of it alone."""
    if len(starts) == 0:
        return -math.inf
    rows = sliding_window_view(s, width)[starts]
    with np.errstate(over="ignore", invalid="ignore"):
        osc = np.mean(np.abs(rows - np.mean(rows, axis=1)[:, None]), axis=1)
    if not np.isfinite(osc).all():
        osc = osc[~np.isnan(rows).any(axis=1)]
        if not np.isfinite(osc).all():
            raise PreconditionError(f"the mean oscillation over {width} samples is no finite float")
    return float(osc.max(initial=-math.inf))


def _scanned(best: float) -> float:
    """``best``; -inf, every window of the scan holding a NaN sample, raises."""
    if best == -math.inf:
        raise PreconditionError("every window of the oscillation scan holds a NaN sample")
    return best


def bmo_norm(f: GridFunction, max_level: int) -> float:
    """Sup of mean oscillation over dyadic intervals and their half shifts.

    Level l splits the grid span into 2^l intervals; the shifted family
    moves each by half its length.  Intervals shorter than two nodes are
    skipped, and so is a window holding a NaN sample (``_scanned``).
    """
    max_level = require_int(max_level, 1, "max_level")
    s = f.samples
    n = s.size
    best = -math.inf
    for level in range(0, max_level + 1):
        pieces = 1 << level
        width = n / pieces
        if width < 2:
            break
        starts_by_width: dict[int, list[int]] = {}
        for kind in (0.0, 0.5):
            start = kind * width
            while start + width <= n + 1e-9:
                lo = int(round(start))
                hi = min(int(round(start + width)), n)
                if hi - lo >= 2:
                    starts_by_width.setdefault(hi - lo, []).append(lo)
                start += width
        for nodes, starts in starts_by_width.items():
            best = max(best, _max_oscillation(s, nodes, starts))
    return _scanned(best)


@dataclass(frozen=True)
class OscillationReport:
    """Oscillation suprema along the three vanishing-mean-oscillation limits."""

    small_scale: list[tuple[float, float]]
    large_scale: list[tuple[float, float]]
    far_field: list[tuple[float, float]]

    def to_csv(self) -> str:
        series = (("small", self.small_scale), ("large", self.large_scale),
                  ("far", self.far_field))
        return csv_text(["kind", "scale", "oscillation"],
                        ([kind, scale, osc] for kind, rows in series for scale, osc in rows))

def _sliding_max_oscillation(s: np.ndarray, width_nodes: int, step_nodes: int) -> float:
    if width_nodes < 2 or width_nodes > s.size:
        return -math.inf
    step = max(1, step_nodes)
    tail = s.size - width_nodes
    starts = list(range(0, tail + 1, step))
    if tail % step:
        starts.append(tail)
    return _max_oscillation(s, width_nodes, starts)


def vmo_scales(scales, spacing: float) -> list[float]:
    """The scales as floats, checked for ``vmo_profile`` on a grid of this
    spacing: positive, finite and sorted increasingly, and neither the
    largest scale nor the unit far window more spacings wide than a float
    can count."""
    scales = [float(t) for t in scales]
    if not scales or not all(t > 0 and math.isfinite(t) for t in scales) \
            or sorted(scales) != scales:
        raise PreconditionError(
            f"scales must be positive, finite and sorted increasingly, got {scales}")
    widest = max(scales[-1], 1.0)
    if not math.isfinite(widest / spacing):
        raise PreconditionError(f"scales: a width of {widest} is more grid spacings "
                                f"({spacing}) than a float can count")
    return scales


def vmo_profile(f: GridFunction, scales) -> OscillationReport:
    """Oscillation suprema at small, large, and far-from-origin intervals.

    For each scale d the small family holds sliding windows of dyadic
    lengths below d, the large family windows of dyadic lengths above the
    scale (capped at the span), and the far family unit-length windows
    disjoint from the centered interval of radius d.  The families nest as
    the scale moves toward its limit, so each reported curve is monotone.
    Windows holding a NaN sample are skipped (``_scanned``); a family with none left reads 0.
    """
    s = f.samples
    grid = f.grid
    h = grid.spacing
    scales = vmo_scales(scales, h)
    span = h * (grid.count - 1)

    small, large, far = [], [], []
    for d in scales:
        best = -math.inf
        width = d / 2.0
        while width >= 4 * h:
            wn = int(round(width / h)) + 1
            best = max(best, _sliding_max_oscillation(s, wn, max(1, wn // 2)))
            width /= 2.0
        small.append((d, best))

    for d in scales:
        best = -math.inf
        width = 2.0 * d
        while width <= span:
            wn = int(round(width / h)) + 1
            best = max(best, _sliding_max_oscillation(s, min(wn, s.size), max(1, wn // 2)))
            width *= 2.0
        best = max(best, _max_oscillation(s, s.size, [0]))
        large.append((d, best))

    unit_nodes = int(round(1.0 / h)) + 1
    starts = left = right = np.arange(0)
    if 2 <= unit_nodes <= s.size:
        starts = np.arange(0, s.size - unit_nodes + 1, unit_nodes // 2)
        left, right = grid.left + h * starts, grid.left + h * (starts + unit_nodes - 1)
    for d in scales:
        far.append((d, _max_oscillation(s, unit_nodes, starts[(right <= -d) | (left >= d)])))
    families = (small, large, far)
    _scanned(max(osc for rows in families for _, osc in rows))
    return OscillationReport(*([(d, max(osc, 0.0)) for d, osc in rows] for rows in families))


def atom_accepted(size_value, residual):
    """The one acceptance test of an atom's certificate quantities, element
    by element: size at most 1 + ATOM_TOL and residual at most ATOM_TOL."""
    return (size_value <= 1.0 + ATOM_TOL) & (residual <= ATOM_TOL)


@dataclass(frozen=True)
class AtomCertificate:
    """Outcome of the three atom checks: support, size, weighted cancellation."""

    support_ok: bool
    size_value: float
    cancellation_residual: float

    @property
    def accepted(self) -> bool:
        return self.support_ok and atom_accepted(self.size_value, self.cancellation_residual)


def weighted_sums(values: np.ndarray, b: np.ndarray, spacing) -> np.ndarray:
    """h * sum f * b over the last axis of a stack of samples f, b at their
    nodes and each row's spacing h, every row rounded as alone: the one rule
    of every D_I, every bump row's F and every atom's cancellation check."""
    return (values * b).sum(axis=-1) * spacing


def weighted_cancellation(windows, spacing, sup_b: float):
    """The one cancellation rule: for a stack of functions given on windows,
    a list of (f, b) stacks of one row per function, the ``weighted_sums`` per
    window on the last axis, |their total| and the mass h * sum |f| * sup|b|,
    the windows' sums added left to right; h is one spacing or one per row."""
    sums = [weighted_sums(f, b, spacing) for f, b in windows]
    mass = functools.reduce(np.add, [np.abs(f).sum(axis=-1) for f, _ in windows])
    return (np.concatenate([s[..., None] for s in sums], axis=-1),
            complex_abs(functools.reduce(np.add, sums)), mass * spacing * sup_b)


def cancellation_ratio(cancel, mass) -> np.ndarray:
    """cancel / mass element by element, 0 where the mass is 0 and NaN where
    either is NaN, so that a NaN certificate fails ``<= ATOM_TOL``."""
    return np.divide(cancel, mass, out=np.zeros(cancel.shape),
                     where=(mass != 0.0) | np.isnan(cancel))


def check_atom(a: GridFunction, support: Interval,
               weight: AccretiveWeight) -> AtomCertificate:
    """Certify a candidate atom: supported in the interval, sup norm at most
    1/|I|, and weighted integral against b vanishing (relative to the atom
    mass) to ATOM_TOL.  Rejection is reported in the certificate, not raised."""
    support_ok = a.vanishes_outside(a.grid.index_range(support))
    b = weight_window(weight.curve, a.grid, a.lo, a.lo + a.values.size)
    _, cancel, mass = weighted_cancellation([(a.values[None], b[None])], a.grid.spacing,
                                            weight.sup_norm)
    residual = cancellation_ratio(cancel, mass)[0]
    return AtomCertificate(support_ok, float(a.sup_norm() * support.length), float(residual))


def h1b_norm_upper(dec) -> float:
    """Coefficient-sum upper estimate of the atomic norm of a decomposition.

    Every row of its summary must be accepted; the infimum over all
    decompositions is not attempted.
    """
    require_rows(dec.summary.accepted(), PreconditionError, lambda k: "term (j={}, i={}) carries "
                 "a rejected certificate".format(*(v + 1 for v in divmod(k, dec.i0 + 1))))
    return ordered_sum(complex_abs(dec.coefficient))
