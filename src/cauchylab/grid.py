"""Uniform grids, sampled complex functions, quadrature, norms, and the pairing.

Conventions that the rest of the library leans on:

* Interval endpoints and bump centers are snapped to grid nodes; the nodes
  of an interval are resolved by index arithmetic (closed membership, so a
  node sitting exactly on an endpoint belongs to the interval).  This keeps
  every indicator integral exact per cell and makes the cancellation
  identities built downstream hold to rounding instead of O(spacing).
* ``integrate`` is the one composite trapezoid rule, summed over a
  function's support window.  ``pair``, the bilinear form h * sum f*g with
  no conjugation, is a node sum over the overlap of two supports, the rule
  of the punctured sums, so the adjoint identities hold to rounding up to
  the grid's end nodes.  It forms f*g in explicit real arithmetic, so it is
  symmetric bit for bit.
* A ``GridFunction`` stores its samples on its support's node range only
  (``values``); ``samples``, the whole grid's array, is built when read.
  Caller samples on the whole grid are scanned once to check that they
  vanish outside the support.  The library's own results (``scaled``,
  ``indicator``, profile atoms, the bilinear forms, residuals) are given as
  a window inside the support's node range, so they vanish outside it by
  construction and cost what the window costs.
* ``csv_text`` renders every CSV the CLI writes; the rounding rules of the
  values in its cells are written once, next to it.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field

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
        require_int(self.count, 2, "grid node count")
        if not math.isfinite(self.count / self.spacing):
            # count / spacing bounds the punctured row sums and the symbols' floors
            raise PreconditionError(
                f"grid spacing {self.spacing} is too small for {self.count} nodes: "
                f"count / spacing overflows a float")
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
        idx = round(pos) if math.isfinite(pos) else -1
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
    once, by the same float formula, as two int64 arrays.  (left, spacing,
    count) is how every batched layer names the grids of its rows: each a
    scalar, one grid's, or an array with one entry per row, row k's grid."""
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
    """Complex samples on a uniform grid with a declared compact support,
    stored as ``values`` on the support's node range [lo, hi) only.

    Built from samples on the whole grid, scanned once to check that they
    vanish outside the support, or from a window (start, values) of samples
    at the nodes start, start + 1, ... inside that range, with no scan.
    """

    grid: UniformGrid
    values: np.ndarray
    support: Interval
    lo: int = field(init=False)

    def __post_init__(self):
        lo, hi = self.grid.index_range(self.support)
        if isinstance(self.values, tuple):
            start, window = self.values
            window = np.asarray(window, dtype=np.complex128)
            if window.ndim != 1 or window.size and not lo <= start <= hi - window.size:
                raise PreconditionError(
                    f"window of shape {window.shape} at node {start} is not one-dimensional "
                    f"or lies outside the support's node range [{lo}, {hi})")
            values = window
            if (start, window.size) != (lo, hi - lo):
                values = np.zeros(hi - lo, dtype=np.complex128)
                values[start - lo:start - lo + window.size] = window
        else:
            samples = np.asarray(self.values, dtype=np.complex128)
            if samples.shape != (self.grid.count,):
                raise PreconditionError(
                    f"samples length {samples.shape} does not match grid count "
                    f"{self.grid.count}")
            if np.any(samples[:lo]) or np.any(samples[hi:]):
                raise PreconditionError("samples must vanish outside the declared support")
            values = samples if (lo, hi) == (0, samples.size) else samples[lo:hi].copy()
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "lo", lo)

    @property
    def samples(self) -> np.ndarray:
        """Samples on the whole grid, built on each read: a view of ``values``
        when the support covers the grid."""
        return self.values_on(0, self.grid.count)

    def support_range(self) -> tuple[int, int]:
        """Half-open node-index range of the declared support."""
        return self.lo, self.lo + self.values.size

    def values_on(self, lo: int, hi: int) -> np.ndarray:
        """Read-only samples at the nodes lo, ..., hi - 1: a view of ``values``
        when the range lies inside the support's node range, else a copy."""
        start, stop = lo - self.lo, hi - self.lo
        if 0 <= start and stop <= self.values.size:
            return self.values[start:stop]
        out = np.zeros(hi - lo, dtype=np.complex128)
        a, b = max(start, 0), min(stop, self.values.size)
        if a < b:
            out[a - start:b - start] = self.values[a:b]
        out.setflags(write=False)
        return out

    def __add__(self, other: "GridFunction") -> "GridFunction":
        require_same_grid(self, other)
        return GridFunction(self.grid, self.samples + other.samples,
                            self.support.hull(other.support))

    def scaled(self, c: complex) -> "GridFunction":
        return GridFunction(self.grid, (self.lo, self.values * c), self.support)

    def sup_norm(self) -> float:
        return float(np.max(np.abs(self.values), initial=0.0))

    def vanishes_outside(self, *ranges: tuple[int, int]) -> bool:
        """True when every sample outside the given node-index ranges is zero."""
        start = 0
        for a, b in merged_ranges(*ranges):
            if np.any(self.values[start:max(a - self.lo, start)]):
                return False
            start = max(start, b - self.lo)
        return not np.any(self.values[start:])


def require_same_grid(f: GridFunction, g: GridFunction) -> None:
    if f.grid is g.grid:
        return
    if (f.grid.left, f.grid.spacing, f.grid.count) != (g.grid.left, g.grid.spacing, g.grid.count):
        raise PreconditionError("grid functions live on different grids")


def indicator(grid: UniformGrid, interval: Interval) -> GridFunction:
    """Characteristic function of the interval, snapped to nodes (closed)."""
    lo, hi = grid.index_range(interval)
    return GridFunction(grid, (lo, np.ones(max(hi - lo, 0))), interval)


def merged_ranges(*ranges: tuple[int, int]) -> list[tuple[int, int]]:
    """The union of half-open index ranges as sorted, disjoint, nonempty ones."""
    out: list[tuple[int, int]] = []
    for lo, hi in sorted(r for r in ranges if r[0] < r[1]):
        if out and lo <= out[-1][1]:
            out[-1] = (out[-1][0], max(out[-1][1], hi))
        else:
            out.append((lo, hi))
    return out


def integrate(f: GridFunction) -> complex:
    """Composite trapezoid rule over the whole grid, summed over the support
    window: an end node weighs 1/2 where the window reaches it."""
    values = f.values
    if values.size == 0:
        return 0j
    first = values[0] if f.lo == 0 else 0.0
    last = values[-1] if f.lo + values.size == f.grid.count else 0.0
    return complex((np.sum(values) - 0.5 * (first + last)) * f.grid.spacing)


def lp_norm(f: GridFunction, p) -> float:
    """Discrete L^p norm (sum |f|^p * spacing)^(1/p); max |f| for p = inf.

    For p other than 1 and 2 the sum is taken of (|f| / max |f|)^p, each term
    at most 1, and scaled back: |f|^p itself overflows or underflows for
    large p (|f| = 3 at p = 1000)."""
    if p == math.inf:
        return f.sup_norm()
    p = float(p)
    if not p >= 1.0:
        raise PreconditionError(f"p must be >= 1 or infinity, got {p}")
    mags = np.abs(f.values)
    if p == 1.0:
        return float(np.sum(mags) * f.grid.spacing)
    if p == 2.0:
        return float(math.sqrt(np.sum(mags * mags) * f.grid.spacing))
    top = float(np.max(mags, initial=0.0))
    if top == 0.0:
        return 0.0
    return top * float(np.sum((mags / top) ** p) * f.grid.spacing) ** (1.0 / p)


def pair(f: GridFunction, g: GridFunction) -> complex:
    """Bilinear pairing h * sum f*g over the nodes; no complex conjugation
    anywhere.  Every node weighs fully, the end nodes too, as in the punctured
    sums, so pair(C f, g) = pair(f, C* g) wherever f and g sit on the grid;
    away from the end nodes this is the trapezoid integral of f*g.

    The product is formed in real arithmetic, re = fr gr - fi gi and
    im = fr gi + fi gr, each term rounded on its own, so pair(f, g) equals
    pair(g, f) bit for bit (NumPy's complex product may fuse a multiply and
    an add, and is then not commutative in the last bit).
    """
    require_same_grid(f, g)
    (flo, fhi), (glo, ghi) = f.support_range(), g.support_range()
    lo, hi = max(flo, glo), min(fhi, ghi)
    fw, gw = f.values_on(lo, max(lo, hi)), g.values_on(lo, max(lo, hi))
    product = np.empty(fw.shape, dtype=np.complex128)
    product.real = fw.real * gw.real - fw.imag * gw.imag
    product.imag = fw.real * gw.imag + fw.imag * gw.real
    return complex(np.sum(product) * f.grid.spacing)


def csv_text(header: list[str], rows) -> str:
    """CSV text with a header line; floats, NumPy floating scalars included,
    are written as repr(float(v)) and every other value as str(v)."""
    lines = [",".join(header)]
    lines.extend(",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                          for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def require_int(value, least: int, name: str) -> int:
    """``value`` as an int (``operator.index``: a Python or NumPy integer, no
    float) when it is at least ``least``; else PreconditionError."""
    try:
        if operator.index(value) >= least:
            return operator.index(value)
    except TypeError:
        pass
    raise PreconditionError(f"{name} must be an integer >= {least}, got {value!r}")


def require_rows(accepted: np.ndarray, error: type[Exception], message) -> None:
    """Raise ``error(message(k))`` for the first row k where the acceptance
    mask ``accepted`` is False; a row whose test compared a NaN is False."""
    rejected = np.flatnonzero(~accepted)
    if rejected.size:
        raise error(message(int(rejected[0])))


def ordered_sum(*parts) -> float | complex:
    """The values of ``parts``, one after another, added left to right from
    +0.0 as CPython 3.11's ``sum`` adds floats or complexes (3.12's is
    compensated and rounds otherwise), with no warning on overflow or NaN."""
    with np.errstate(over="ignore", invalid="ignore"):
        return np.add.accumulate(np.concatenate([[0.0], *parts]))[-1].item()


def complex_abs(z: np.ndarray) -> np.ndarray:
    """|z| element by element as Python's ``abs`` of a complex rounds it, the
    hypot of its parts; ``np.abs`` of a complex array rounds otherwise."""
    return np.hypot(z.real, z.imag)


def _complex_mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b element by element, rounded as Python's complex product:
    CPython 3.11's ``_Py_c_prod`` on the real and imaginary parts, a real b
    taken as b + 0j.  NumPy's own complex product rounds differently."""
    out = np.empty(a.shape, dtype=np.complex128)
    # Python's complex arithmetic overflows and makes NaN without a warning
    with np.errstate(over="ignore", invalid="ignore"):
        out.real = a.real * b.real - a.imag * b.imag
        out.imag = a.real * b.imag + a.imag * b.real
    return out


def _complex_div(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a / b element by element, rounded as Python's complex quotient:
    CPython 3.11's ``_Py_c_quot``, Smith's division, a real b taken as
    b + 0j.  Rows with |Re b| >= |Im b| divide through by Re b, rows with
    |Im b| > |Re b| by Im b, each branch on its own rows only; rows where a
    part of b is NaN get NaN in both parts.  A zero b[k], where Python raises
    ZeroDivisionError, gives NaN: callers check their divisors first."""
    out = np.full(a.shape, complex(math.nan, math.nan))
    ar, ai, br, bi = a.real, a.imag, b.real, b.imag
    with np.errstate(over="ignore", invalid="ignore"):
        m = np.abs(br) >= np.abs(bi)
        ratio = bi[m] / br[m]
        denom = br[m] + bi[m] * ratio
        out.real[m] = (ar[m] + ai[m] * ratio) / denom
        out.imag[m] = (ai[m] - ar[m] * ratio) / denom
        m = np.abs(bi) > np.abs(br)
        ratio = br[m] / bi[m]
        denom = br[m] * ratio + bi[m]
        out.real[m] = (ar[m] * ratio + ai[m]) / denom
        out.imag[m] = (ai[m] * ratio - ar[m]) / denom
    return out
