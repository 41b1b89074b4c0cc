"""Uniform grids, sampled complex functions, quadrature, norms, and the pairing.

Conventions that the rest of the library leans on:

* Interval endpoints and bump centers are snapped to grid nodes; the nodes
  of an interval are resolved by index arithmetic (closed membership, so a
  node sitting exactly on an endpoint belongs to the interval).  This keeps
  every indicator integral exact per cell and makes the cancellation
  identities built downstream hold to rounding instead of O(spacing).
* ``integrate_window`` is the one composite trapezoid rule; ``integrate``
  applies it to a function's support window and ``pair``, the bilinear form
  integrate(f*g) with no conjugation, to the overlap of two supports.  The
  pair forms f*g in explicit real arithmetic, so it is symmetric bit for bit.
* A ``GridFunction`` built from caller samples is scanned once to check
  that it vanishes outside its support.  The library's own results
  (``GridFunction.from_window``: ``scaled``, ``indicator``, profile atoms,
  the bilinear forms, residuals) are written from a window inside the
  support's node range, so they vanish outside it by construction and cost
  what the window costs, apart from one zero-filled allocation.
* ``csv_text`` renders every CSV the library and the CLI write.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import PreconditionError

_SNAP = 1e-9  # endpoint fuzz, as a fraction of one cell


@dataclass(frozen=True, eq=False)
class UniformGrid:
    left: float
    spacing: float
    count: int

    def __post_init__(self):
        if not (self.spacing > 0 and math.isfinite(self.spacing)):
            raise PreconditionError("grid spacing must be positive and finite")
        if self.count < 2:
            raise PreconditionError("grid needs at least two nodes")
        if not (math.isfinite(self.left) and math.isfinite(self.right)):
            raise PreconditionError(
                f"grid ends must be finite, got left {self.left} and right {self.right}")
        if self.left + self.spacing == self.left or self.right - self.spacing == self.right:
            raise PreconditionError(
                f"grid spacing {self.spacing} is below the float resolution at its ends "
                f"{self.left} and {self.right}")

    @property
    def right(self) -> float:
        return self.left + self.spacing * (self.count - 1)

    def nodes(self) -> np.ndarray:
        return self.left + self.spacing * np.arange(self.count)

    def node(self, i: int) -> float:
        return self.left + self.spacing * i

    def index_of(self, x: float) -> int:
        """Index of the node at x; x must sit on a node up to snapping fuzz."""
        pos = (x - self.left) / self.spacing
        idx = int(round(pos))
        if abs(pos - idx) > 1e-6 or not (0 <= idx < self.count):
            raise PreconditionError(f"{x} is not a node of the grid")
        return idx

    def index_range(self, interval: "Interval") -> tuple[int, int]:
        """Half-open node-index range [lo, hi) covered by the interval.

        Closed membership with endpoint fuzz: nodes landing exactly on a
        snapped endpoint are included.  The endpoint positions are clipped
        to [-1, count], which leaves the range as it is, before the integer
        conversion, which far endpoints would overflow.
        """
        lo = (interval.center - interval.radius - self.left) / self.spacing - _SNAP
        hi = (interval.center + interval.radius - self.left) / self.spacing + _SNAP
        lo, hi = (math.ceil(min(max(lo, -1), self.count)),
                  math.floor(min(max(hi, -1), self.count)))
        return max(lo, 0), min(hi + 1, self.count)

    def covering_interval(self) -> "Interval":
        """An interval strictly containing every node of the grid."""
        mid = 0.5 * (self.left + self.right)
        return Interval(mid, 0.5 * (self.right - self.left) + self.spacing)


def index_ranges(left, spacing, count, centers: np.ndarray, radii: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray]:
    """``UniformGrid.index_range`` of the intervals I(centers[k], radii[k]) at
    once, by the same float formula, as two int64 arrays; the grid geometry
    (left, spacing, count) is one grid's or one per interval."""
    # Clipped to [-1, count] before the integer conversion, which far
    # intervals would overflow; the clipped ranges are those of index_range
    # wherever that one is nonempty, and empty wherever it is empty.
    lo = np.ceil(np.clip((centers - radii - left) / spacing - _SNAP, -1, count))
    hi = np.floor(np.clip((centers + radii - left) / spacing + _SNAP, -1, count))
    return np.maximum(lo, 0).astype(np.int64), np.minimum(hi + 1, count).astype(np.int64)


@dataclass(frozen=True)
class Interval:
    """Open interval |x - center| < radius; length is 2*radius."""

    center: float
    radius: float

    def __post_init__(self):
        if not (self.radius > 0 and math.isfinite(self.radius) and math.isfinite(self.center)):
            raise PreconditionError("interval needs a finite center and positive radius")

    @property
    def length(self) -> float:
        return 2.0 * self.radius

    def contains(self, x: float) -> bool:
        return abs(x - self.center) < self.radius

    def hull(self, other: "Interval") -> "Interval":
        lo = min(self.center - self.radius, other.center - other.radius)
        hi = max(self.center + self.radius, other.center + other.radius)
        return Interval(0.5 * (lo + hi), 0.5 * (hi - lo))


@dataclass(frozen=True, eq=False)
class GridFunction:
    """Complex samples on a uniform grid with a declared compact support.

    Samples must vanish exactly at nodes outside the declared support; this
    is validated at construction so support bookkeeping can be trusted
    downstream.
    """

    grid: UniformGrid
    samples: np.ndarray
    support: Interval

    def __post_init__(self):
        samples = np.asarray(self.samples, dtype=np.complex128)
        if samples.shape != (self.grid.count,):
            raise PreconditionError(
                f"samples length {samples.shape} does not match grid count {self.grid.count}"
            )
        lo, hi = self.grid.index_range(self.support)
        if np.any(samples[:lo]) or np.any(samples[hi:]):
            raise PreconditionError("samples must vanish outside the declared support")
        samples.setflags(write=False)
        object.__setattr__(self, "samples", samples)
        object.__setattr__(self, "_support_range", (lo, hi))

    @classmethod
    def from_window(cls, grid: UniformGrid, support: Interval, lo: int,
                    values: np.ndarray) -> "GridFunction":
        """The function equal to ``values`` at the nodes lo, lo + 1, ... and
        zero at every other node.

        The window must lie inside the support's node range; then the
        samples vanish outside the support by construction and are not
        scanned.
        """
        slo, shi = grid.index_range(support)
        values = np.asarray(values, dtype=np.complex128)
        if values.ndim != 1:
            raise PreconditionError("window values must be one-dimensional")
        if values.size and not (slo <= lo and lo + values.size <= shi):
            raise PreconditionError(
                f"window [{lo}, {lo + values.size}) lies outside the support's "
                f"node range [{slo}, {shi})")
        samples = np.zeros(grid.count, dtype=np.complex128)
        samples[lo:lo + values.size] = values
        samples.setflags(write=False)
        f = object.__new__(cls)
        for name, value in (("grid", grid), ("samples", samples), ("support", support),
                            ("_support_range", (slo, shi))):
            object.__setattr__(f, name, value)
        return f

    def support_range(self) -> tuple[int, int]:
        """Half-open node-index range of the declared support."""
        return self._support_range

    def __add__(self, other: "GridFunction") -> "GridFunction":
        require_same_grid(self, other)
        return GridFunction(self.grid, self.samples + other.samples,
                            self.support.hull(other.support))

    def scaled(self, c: complex) -> "GridFunction":
        lo, hi = self.support_range()
        return GridFunction.from_window(self.grid, self.support, lo,
                                        self.samples[lo:hi] * c)

    def sup_norm(self) -> float:
        lo, hi = self.support_range()
        return float(np.max(np.abs(self.samples[lo:hi]), initial=0.0))

    def vanishes_outside(self, *ranges: tuple[int, int]) -> bool:
        """True when every sample outside the given node-index ranges is zero.

        Only the declared support is read: the samples vanish outside it by
        construction.
        """
        lo, hi = self.support_range()
        for a, b in merged_ranges(*ranges):
            if np.any(self.samples[lo:min(a, hi)]):
                return False
            lo = max(lo, b)
        return not np.any(self.samples[lo:hi])


def require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid is g.grid:
        return
    if (f.grid.left, f.grid.spacing, f.grid.count) != (g.grid.left, g.grid.spacing, g.grid.count):
        raise PreconditionError("grid functions live on different grids")


def indicator(grid: UniformGrid, interval: Interval) -> GridFunction:
    """Characteristic function of the interval, snapped to nodes (closed)."""
    lo, hi = grid.index_range(interval)
    return GridFunction.from_window(grid, interval, lo, np.ones(max(hi - lo, 0)))


def merged_ranges(*ranges: tuple[int, int]) -> list[tuple[int, int]]:
    """The union of half-open index ranges as sorted, disjoint, nonempty ones."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(r for r in ranges if r[0] < r[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def integrate_window(grid: UniformGrid, values: np.ndarray, lo: int) -> complex:
    """Composite trapezoid rule over the whole grid for samples that vanish
    outside the nodes lo, lo + 1, ..., where ``values`` holds them."""
    if values.size == 0:
        return 0j
    first = values[0] if lo == 0 else 0.0
    last = values[-1] if lo + values.size == grid.count else 0.0
    total = np.sum(values) - 0.5 * (first + last)
    return complex(total * grid.spacing)


def integrate(f: GridFunction) -> complex:
    """Composite trapezoid rule over the whole grid."""
    lo, hi = f.support_range()
    return integrate_window(f.grid, f.samples[lo:hi], lo)


def lp_norm(f: GridFunction, p) -> float:
    """Discrete L^p norm (sum |f|^p * spacing)^(1/p); max |f| for p = inf."""
    if p == math.inf or p == "inf":
        return f.sup_norm()
    p = float(p)
    if not p >= 1.0:
        raise PreconditionError(f"p must be >= 1 or infinity, got {p}")
    lo, hi = f.support_range()
    mags = np.abs(f.samples[lo:hi])
    if p == 1.0:
        return float(np.sum(mags) * f.grid.spacing)
    if p == 2.0:
        return float(math.sqrt(np.sum(mags * mags) * f.grid.spacing))
    return float(np.sum(mags ** p) * f.grid.spacing) ** (1.0 / p)


def pair(f: GridFunction, g: GridFunction) -> complex:
    """Bilinear pairing integrate(f*g); no complex conjugation anywhere.

    The product is formed in real arithmetic, re = fr gr - fi gi and
    im = fr gi + fi gr, each term rounded on its own, so pair(f, g) equals
    pair(g, f) bit for bit (NumPy's complex product may fuse a multiply and
    an add, and is then not commutative in the last bit).
    """
    require_same_grid(f, g)
    (flo, fhi), (glo, ghi) = f.support_range(), g.support_range()
    lo, hi = max(flo, glo), min(fhi, ghi)
    fw, gw = f.samples[lo:hi], g.samples[lo:hi]
    product = np.empty(fw.shape, dtype=np.complex128)
    product.real = fw.real * gw.real - fw.imag * gw.imag
    product.imag = fw.real * gw.imag + fw.imag * gw.real
    return integrate_window(f.grid, product, lo)


def csv_text(header: list[str], rows) -> str:
    """CSV text with a header line; floats, NumPy floating scalars included,
    are written as repr(float(v)) and every other value as str(v)."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def write_function_csv(f: GridFunction, path) -> None:
    """One row per node: x, re, im."""
    rows = zip(f.grid.nodes(), f.samples.real, f.samples.imag)
    Path(path).write_text(csv_text(["x", "re", "im"], rows), encoding="utf-8", newline="")
