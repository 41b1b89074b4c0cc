import numpy as np
import pytest

from cauchylab import (AccretiveWeight, GridFunction, Interval, UniformGrid,
                       atoms, cauchy, eval_A, make_curve)


def make_random_curve(seed=42, n_break=8, slope_bound=0.5):
    """Random piecewise-linear curve with the slope bound attained exactly."""
    rng = np.random.default_rng(seed)
    bp = np.sort(rng.uniform(-6.0, 6.0, n_break))
    sl = rng.uniform(-slope_bound, slope_bound, n_break + 1)
    sl *= slope_bound / np.max(np.abs(sl))
    return make_curve(bp, sl, 0.0)


def rough_curve(seed=0):
    """The benchmark's rough curve (perfbench/workloads.py ``_rough_curve``):
    24 breakpoints log-uniform in |x| over [1, 10^9.5] with random sign, and
    25 slopes uniform in [-1, 1], drawn from ``np.random.default_rng(seed)``."""
    rng = np.random.default_rng(seed)
    mag = 10.0 ** rng.uniform(0.0, 9.5, 24)
    bp = np.sort(mag * rng.choice([-1.0, 1.0], 24))
    return make_curve(bp, rng.uniform(-1.0, 1.0, 25), 0.0)


def std_grid(n=2048, half=8.0):
    return UniformGrid(-half, 2.0 * half / n, n + 1)


def two_bump_host_grid(x0, y0, r, spacing):
    """Grid hosting the doubling chains and the shared tail of a two-bump
    layout, with x0 on a node."""
    return atoms.two_bump_host_grid(x0, y0, r, spacing)


def two_bump(grid, x0, y0, r, samples):
    """The ``TwoBump`` of host-grid samples that vanish off I(x0, r) and
    I(y0, r): their windows on the two bumps."""
    (xl, xh), (yl, yh) = (grid.index_range(Interval(c, r)) for c in (x0, y0))
    return atoms.TwoBump(grid, x0, y0, r, samples[xl:xh], samples[yl:yh])


def on_hull(f):
    """A ``TwoBump`` as one window over the hull of its bumps."""
    return f.on(Interval(f.x0, f.r).hull(Interval(f.y0, f.r)))


def windows(f):
    """(first node, samples) of each bump of a ``TwoBump``."""
    return [(lo, bump) for (lo, _), bump in zip(f.ranges(), (f.x_bump, f.y_bump))]


def parent_profile_atom(grid, table, summary, k):
    """``atoms.profile_atom`` as written before it shared a row writer with
    ``reconstruction_error``: row k on its window, by slices of the window."""
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
    return GridFunction(grid, (lo, values), table.outer_interval(k))


def parent_reconstruction_error(dec, f):
    """The two-bump reconstruction error as computed before the sum was read
    piece by piece: every term's atom written on the whole host grid and
    added into a host-grid total (the body of the former ``reconstruct``),
    against f's host-grid samples, over max |f|."""
    total = np.zeros(dec.grid.count, dtype=np.complex128)
    for k, coefficient in enumerate(dec.coefficient.tolist()):
        total += coefficient * parent_profile_atom(dec.grid, dec.table, dec.summary,
                                                   k).samples
    samples = on_hull(f).samples
    scale = max(float(np.max(np.abs(samples))), 1e-300)
    return float(np.max(np.abs(total - samples))) / scale


def random_support_function(rng, grid, max_frac=3):
    """Random complex samples on a random interior sub-interval."""
    n = grid.count
    width = int(rng.integers(n // 16, n // max_frac))
    start = int(rng.integers(2, n - width - 2))
    samples = np.zeros(n, dtype=np.complex128)
    samples[start:start + width] = (rng.standard_normal(width)
                                    + 1j * rng.standard_normal(width))
    center = grid.node(start) + (width // 2) * grid.spacing
    support = Interval(center, (width // 2 + 2) * grid.spacing)
    return GridFunction(grid, samples, support)


def window_function(rng, grid, lo, hi):
    """Random complex samples on the nodes lo..hi-1, support exactly there."""
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[lo:hi] = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    half = 0.5 * (hi - 1 - lo) * grid.spacing
    return GridFunction(grid, samples, Interval(grid.node(lo) + half, half))


def strided_kernel_blocks(curve, grid, rows, lo, hi, chunk_entries):
    """The kernel blocks as built before: the real and the imaginary part of
    each denominator written by two strided real subtractions."""
    ys = grid.left + grid.spacing * np.arange(lo, hi)
    Ay = eval_A(curve, ys)
    xr = grid.left + grid.spacing * rows
    Ar = eval_A(curve, xr)
    chunk = max(1, chunk_entries // (hi - lo))
    for r0 in range(0, rows.size, chunk):
        r1 = min(r0 + chunk, rows.size)
        block = np.empty((r1 - r0, hi - lo), dtype=np.complex128)
        np.subtract(ys[None, :], xr[r0:r1, None], out=block.real)
        np.subtract(Ay[None, :], Ar[r0:r1, None], out=block.imag)
        hit = np.nonzero((rows[r0:r1] >= lo) & (rows[r0:r1] < hi))[0]
        cols = rows[r0 + hit] - lo
        block[hit, cols] = 1.0
        np.divide(cauchy._COEF, block, out=block)
        block[hit, cols] = 0.0
        yield r0, r1, block


def parent_slope_node_sums(curve, left, spacing, count, lo, hi):
    """``cauchy.slope_node_sums`` as written before it cut each range only at
    the breakpoints it crosses: the first node of every segment, and every
    range's count in every segment, as (ranges x breakpoints) arrays."""
    counts = (hi - lo).astype(float)
    bp = curve.breakpoints
    if bp.size == 0:
        return curve.slopes[0] * counts
    left, h, count = (np.asarray(v)[..., None] for v in (left, spacing, count))
    first = np.clip(np.ceil((bp - left) / h), 0, count).astype(np.int64)
    while True:
        down = (first > 0) & (left + h * (first - 1) >= bp)
        up = (first < count) & (left + h * first < bp)
        if not (down.any() or up.any()):
            break
        first = first - down + up
    first = np.broadcast_to(first, (lo.size, bp.size))
    seg_lo = np.concatenate((np.zeros((lo.size, 1), dtype=np.int64), first), axis=1)
    seg_hi = np.concatenate((first, np.broadcast_to(count, (lo.size, 1))), axis=1)
    per_segment = np.clip(np.minimum(hi[:, None], seg_hi) - np.maximum(lo[:, None], seg_lo),
                          0, None)
    total = np.zeros(lo.size)
    for s in np.flatnonzero(per_segment.any(axis=0)):
        total += per_segment[:, s] * curve.slopes[s]
    return total


@pytest.fixture(scope="session")
def flat_weight():
    return AccretiveWeight(make_curve([], [0.0], 0.0))


@pytest.fixture(scope="session")
def tent_weight():
    return AccretiveWeight(make_curve([0.0], [1.0, -1.0], 0.0))


@pytest.fixture(scope="session")
def random_weight():
    # eight segments (seven interior breakpoints), slope bound attained
    return AccretiveWeight(make_random_curve(seed=42, n_break=7))


@pytest.fixture(scope="session")
def curve_trio(flat_weight, tent_weight, random_weight):
    return [("flat", flat_weight), ("tent", tent_weight), ("random", random_weight)]
