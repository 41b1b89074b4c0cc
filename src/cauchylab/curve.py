"""Piecewise-linear Lipschitz graph curves and the accretive weight 1 + iA'.

A curve is the graph {x + iA(x)} of a piecewise-linear function A.  The
derivative A' is piecewise constant, so the weight b(x) = 1 + iA'(x) is
piecewise constant with Re b = 1 everywhere, and both A and b can be
evaluated exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import CurveFormatError, PreconditionError


@dataclass(frozen=True, eq=False)
class LipschitzCurve:
    """Graph function A: piecewise linear with bounded slopes.

    ``slopes[k]`` is the slope on the k-th segment; segment 0 is the left
    tail (-inf, breakpoints[0]] and the last segment is the right tail.
    ``anchor`` is the value of A at ``breakpoints[0]`` (at 0 if there are
    no breakpoints).  A' at a breakpoint uses the right-hand slope.
    """

    breakpoints: np.ndarray
    slopes: np.ndarray
    anchor: float
    values: np.ndarray = field(repr=False)  # A at each breakpoint

    @property
    def lipschitz_constant(self) -> float:
        return float(np.max(np.abs(self.slopes)))


def make_curve(breakpoints, slopes, anchor: float) -> LipschitzCurve:
    """Build a curve from breakpoints, per-segment slopes, and an anchor value.

    Requires strictly increasing breakpoints and exactly one more slope than
    breakpoints (the two unbounded tails included), and a curve whose sup |b|^2
    = 1 + max|slope|^2 and whose A at every breakpoint are finite floats.
    """
    bp = np.asarray(breakpoints, dtype=float)
    sl = np.asarray(slopes, dtype=float)
    if bp.ndim != 1 or sl.ndim != 1:
        raise PreconditionError("breakpoints and slopes must be 1-d sequences")
    if sl.size != bp.size + 1:
        raise PreconditionError(
            f"need {bp.size + 1} slopes for {bp.size} breakpoints, got {sl.size}"
        )
    if bp.size and not np.all(np.diff(bp) > 0):
        raise PreconditionError("breakpoints must be strictly increasing")
    if not (np.all(np.isfinite(bp)) and np.all(np.isfinite(sl))):
        raise PreconditionError("breakpoints and slopes must be finite")
    if not math.isfinite(anchor):
        raise PreconditionError("anchor must be finite")

    with np.errstate(over="ignore", invalid="ignore"):
        b_sup_sq = 1.0 + np.max(np.abs(sl)) ** 2
        # A at the breakpoints, accumulated from the anchor at breakpoints[0].
        values = np.zeros(0)
        if bp.size:
            values = anchor + np.concatenate(([0.0], np.cumsum(np.diff(bp) * sl[1:-1])))
    if not np.isfinite(b_sup_sq):
        raise PreconditionError("1 + max|slope|^2 overflows the float range")
    if not np.all(np.isfinite(values)):
        raise PreconditionError("A at a breakpoint overflows the float range")
    return LipschitzCurve(bp, sl, float(anchor), values)


def eval_A(curve: LipschitzCurve, x):
    """Exact value of A at x (scalar or array)."""
    xs = np.asarray(x, dtype=float)
    bp = curve.breakpoints
    if bp.size == 0:
        out = curve.anchor + curve.slopes[0] * xs
        return out if xs.ndim else float(out)
    idx = np.searchsorted(bp, xs, side="right")
    ref_idx = np.clip(idx - 1, 0, bp.size - 1)
    out = curve.values[ref_idx] + curve.slopes[idx] * (xs - bp[ref_idx])
    return out if xs.ndim else float(out)


def eval_slope(curve: LipschitzCurve, x):
    """A'(x) with the right-continuous convention at breakpoints."""
    xs = np.asarray(x, dtype=float)
    if curve.breakpoints.size == 0:
        out = np.broadcast_to(curve.slopes[0], xs.shape).copy()
        return out if xs.ndim else float(out)
    idx = np.searchsorted(curve.breakpoints, xs, side="right")
    out = curve.slopes[idx]
    return out if xs.ndim else float(out)


@dataclass(frozen=True, eq=False)
class AccretiveWeight:
    """The weight b(x) = 1 + iA'(x); Re b is identically 1."""

    curve: LipschitzCurve

    @cached_property
    def sup_norm(self) -> float:
        """sup |b|, exact from the slopes."""
        return math.sqrt(1.0 + self.curve.lipschitz_constant ** 2)


def eval_b(weight: AccretiveWeight, x):
    """b(x) = 1 + iA'(x), right-continuous at breakpoints."""
    slope = eval_slope(weight.curve, x)
    if np.ndim(slope):
        return 1.0 + 1j * np.asarray(slope)
    return complex(1.0, slope)


def load_curve_file(path) -> LipschitzCurve:
    """Parse a three-line curve file.

    Line 1: ``anchor <real>``; line 2: ``breakpoints <reals...>`` (possibly
    none); line 3: ``slopes <reals...>``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln.strip() for ln in fh.readlines() if ln.strip()]
    except OSError as exc:
        raise CurveFormatError(f"cannot read curve file {path}: {exc}") from exc
    if len(lines) != 3:
        raise CurveFormatError(f"curve file must have 3 non-blank lines, got {len(lines)}")

    def fields(line: str, key: str) -> list[float]:
        parts = line.split()
        if not parts or parts[0] != key:
            raise CurveFormatError(f"expected line starting with '{key}', got: {line!r}")
        try:
            return [float(tok) for tok in parts[1:]]
        except ValueError as exc:
            raise CurveFormatError(f"bad number on '{key}' line: {line!r}") from exc

    anchor_vals = fields(lines[0], "anchor")
    if len(anchor_vals) != 1:
        raise CurveFormatError("anchor line must carry exactly one value")
    breakpoints = fields(lines[1], "breakpoints")
    slopes = fields(lines[2], "slopes")
    try:
        return make_curve(breakpoints, slopes, anchor_vals[0])
    except PreconditionError as exc:
        raise CurveFormatError(f"inconsistent curve data: {exc}") from exc


def write_curve_file(curve: LipschitzCurve, path) -> None:
    """Inverse of load_curve_file, used by tests and batch tooling."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"anchor {float(curve.anchor)!r}\n")
        fh.write("breakpoints " + " ".join(repr(float(v)) for v in curve.breakpoints) + "\n")
        fh.write("slopes " + " ".join(repr(float(v)) for v in curve.slopes) + "\n")
