"""Named symbol families used by the oscillation and commutator experiments.

Each builder returns the real divided symbol phi; the matching weighted
symbol is phi * b, so the divided form is real by construction (the shape
the converse-direction sweeps require).
"""

from __future__ import annotations

import numpy as np

from .cauchy import weight_values
from .curve import AccretiveWeight
from .grid import GridFunction, Interval, UniformGrid

TRIANGLE_EXTENT = 6.0
LOG_EXTENT = 8.0
# The clamp keeps the log finite; a floor a few cells wide lets the
# small-scale oscillation survive every tested window size.
LOG_FLOOR_CELLS = 4


def smooth_bump(grid: UniformGrid, amplitude: float = 1.0,
                radius: float = 4.0) -> GridFunction:
    """C^1 quartic bump (1 - (x/R)^2)^2 on |x| < R, zero outside.

    The quartic is evaluated inside only: squared, a far node overflows."""
    u = grid.nodes() / radius
    inside = np.abs(u) < 1.0
    vals = np.zeros(grid.count)
    vals[inside] = (1.0 - u[inside] * u[inside]) ** 2
    vals *= amplitude
    return GridFunction(grid, vals.astype(np.complex128), Interval(0.0, radius))


def triangle_wave(grid: UniformGrid, amplitude: float = 1.0) -> GridFunction:
    """Continuous unit-period triangle wave on |x| <= TRIANGLE_EXTENT,
    truncated at integer zeros."""
    xs = grid.nodes()
    frac = xs - np.floor(xs)
    tri = 1.0 - 2.0 * np.abs(frac - 0.5)
    vals = np.where(np.abs(xs) <= TRIANGLE_EXTENT, tri, 0.0) * amplitude
    return GridFunction(grid, vals.astype(np.complex128), Interval(0.0, TRIANGLE_EXTENT))


def clamped_log(grid: UniformGrid, amplitude: float = 1.0) -> GridFunction:
    """log(LOG_EXTENT / max(|x|, LOG_FLOOR_CELLS * spacing)), the canonical
    unbounded oscillator."""
    xs = grid.nodes()
    floor = LOG_FLOOR_CELLS * grid.spacing
    vals = np.log(LOG_EXTENT / np.maximum(np.abs(xs), floor))
    vals = np.where(np.abs(xs) < LOG_EXTENT, np.maximum(vals, 0.0), 0.0) * amplitude
    return GridFunction(grid, vals.astype(np.complex128), Interval(0.0, LOG_EXTENT))


def weighted_symbol(weight: AccretiveWeight, phi: GridFunction) -> GridFunction:
    """phi * b, whose divided form is exactly phi."""
    b = weight_values(weight.curve, phi.grid)
    return GridFunction(phi.grid, phi.samples * b, phi.support)


def correlation_gallery(grid: UniformGrid) -> list[tuple[str, GridFunction]]:
    """Five divided symbols spanning a wide oscillation range, in a fixed
    order: smooth bumps at three amplitudes, a triangle wave, and the
    clamped logarithm."""
    return [
        ("bump", smooth_bump(grid, 1.0)),
        ("bump_tenth", smooth_bump(grid, 0.1)),
        ("triangle", triangle_wave(grid, 0.6)),
        ("clamped_log", clamped_log(grid, 1.0)),
        ("clamped_log_triple", clamped_log(grid, 3.0)),
    ]
