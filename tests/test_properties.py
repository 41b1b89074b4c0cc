"""Identities checked as properties over random curves, grids and supports.

The profile table and its closed-form D_I are checked against the scalar
summary the library used before, with D_I summed over the sampled weight;
the windowed weight and the windowed constructor against their full-array
counterparts; the pairing for bitwise symmetry.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cauchylab import (AccretiveWeight, GridFunction, Interval, PreconditionError,
                       UniformGrid, make_curve, make_two_bump_input, pair)
from cauchylab.atoms import (concat_tables, summarize_profiles, two_bump_host_grid,
                             two_bump_profiles)
from cauchylab.cauchy import slope_node_sums, weight_values, weight_window
from cauchylab.grid import index_ranges

from conftest import window_function

PROPERTY = settings(deadline=None, derandomize=True, database=None)
EXACT_SLOPES = (0.0, 1.0, -1.0, 0.5, -0.5)


@st.composite
def curves(draw, exact: bool):
    """A curve with up to four breakpoints in [-40, 170], some on multiples of
    1/16 (nodes of every grid below) and some anywhere; slopes from
    EXACT_SLOPES, or any in [-2, 2]."""
    count = draw(st.integers(0, 4))
    on_nodes = draw(st.lists(st.integers(-640, 2720), min_size=count, max_size=count))
    anywhere = draw(st.lists(st.floats(-40.0, 170.0), min_size=count, max_size=count))
    picks = draw(st.lists(st.booleans(), min_size=count, max_size=count))
    breakpoints = sorted({k / 16.0 if pick else x
                          for k, x, pick in zip(on_nodes, anywhere, picks)})
    slope = st.sampled_from(EXACT_SLOPES) if exact else st.floats(-2.0, 2.0)
    slopes = draw(st.lists(slope, min_size=len(breakpoints) + 1,
                           max_size=len(breakpoints) + 1))
    return make_curve(breakpoints, slopes, 0.0)


def _scalar_integral(weight, grid, interval):
    """D_I as summed before: the sampled weight over the closed node range."""
    lo, hi = grid.index_range(interval)
    return complex(np.sum(weight_values(weight.curve, grid)[lo:hi]) * grid.spacing)


def _scalar_summary(weight, grid, table, k):
    """The scalar summarize_profile the library used before the table, on
    row k: (alpha, size_value, residual, level_in or None, v_out, inner
    range, outer range)."""
    h = grid.spacing
    outer, scale, bump = table.outer_interval(k), complex(table.scale[k]), table.bumps[k]
    olo, ohi = grid.index_range(outer)
    d_out = _scalar_integral(weight, grid, outer)
    assert abs(d_out) >= outer.length * (1.0 - 1e-12)
    v_out = scale / d_out
    if bump is None:
        inner = table.inner_interval(k)
        d_in = _scalar_integral(weight, grid, inner)
        assert abs(d_in) >= inner.length * (1.0 - 1e-12)
        ilo, ihi = grid.index_range(inner)
        level_in = scale / d_in
        v_in = level_in - v_out
        sup = max(abs(v_in), abs(v_out))
        cancel = abs(v_in * d_in - v_out * (d_out - d_in))
        mass = (abs(v_in) * (ihi - ilo) + abs(v_out) * ((ohi - olo) - (ihi - ilo))) * h
    else:
        level_in = None
        ilo, ihi = grid.index_range(table.inner_interval(k))
        b_bump = weight_values(weight.curve, grid)[ilo:ihi]
        inner_vals = bump.values - v_out
        sup = max(float(np.max(np.abs(inner_vals))) if inner_vals.size else 0.0, abs(v_out))
        s_bump = complex(np.sum(bump.values * b_bump) * h)
        cancel = abs(s_bump - v_out * d_out)
        mass = (float(np.sum(np.abs(inner_vals))) + abs(v_out) * ((ohi - olo) - (ihi - ilo))) * h
    alpha = sup * outer.length
    size_value = sup * outer.length / alpha if alpha else 0.0
    residual = cancel / (mass * weight.sup_norm) if mass > 0 else 0.0
    return alpha, size_value, residual, level_in, v_out, (ilo, ihi), (olo, ohi)


def _two_bump_input(weight, rng, x0, big_m, r, spacing):
    """A cancelling two-bump function with random bump shapes, sup 1."""
    y0 = x0 + big_m * r
    grid = two_bump_host_grid(x0, y0, r, spacing)
    base = make_two_bump_input(weight, grid, x0, y0, r)
    samples = base.samples * rng.uniform(0.2, 1.0, grid.count)
    lo, hi = grid.index_range(Interval(x0, r))
    b = weight_values(weight.curve, grid)
    samples[lo:hi] -= np.sum(samples * b) * grid.spacing / _scalar_integral(
        weight, grid, Interval(x0, r))
    samples /= np.max(np.abs(samples))
    return GridFunction(grid, samples, base.support), y0


def _assert_rows_match(weight, grids, table, summary, exact):
    for k, grid in enumerate(grids):
        alpha, size_value, residual, level_in, v_out, inner, outer = \
            _scalar_summary(weight, grid, table, k)
        got = (summary.alpha[k], summary.size_value[k], complex(summary.level_in[k]),
               complex(summary.v_out[k]))
        assert (int(summary.inner_lo[k]), int(summary.inner_hi[k])) == inner
        assert (int(summary.outer_lo[k]), int(summary.outer_hi[k])) == outer
        if exact:
            assert got[:2] == (alpha, size_value) and summary.residual[k] == residual
            assert got[3] == v_out and (level_in is None or got[2] == level_in)
        else:
            assert got[0] == pytest.approx(alpha, rel=1e-14, abs=0.0)
            assert got[1] == pytest.approx(size_value, rel=1e-14, abs=0.0)
            assert got[3] == pytest.approx(v_out, rel=1e-14, abs=0.0)
            assert level_in is None or got[2] == pytest.approx(level_in, rel=1e-14, abs=0.0)
            # the residual is a rounding-level ratio, compared absolutely
            assert abs(summary.residual[k] - residual) <= 1e-14


@pytest.mark.parametrize("exact", [True, False], ids=["exact-slopes", "random-slopes"])
@settings(PROPERTY, max_examples=25)
@given(data=st.data())
def test_profile_table_matches_scalar_summary(exact, data):
    weight = AccretiveWeight(data.draw(curves(exact)))
    x0 = data.draw(st.integers(-16, 16)) / 4.0
    big_m = data.draw(st.sampled_from([128, 256]))
    r = data.draw(st.sampled_from([0.5, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    f, y0 = _two_bump_input(weight, rng, x0, big_m, r, r / 4)
    table, i0, _ = two_bump_profiles(weight, f, x0, y0, r)
    assert len(table) == 2 * (i0 + 1)
    # the two-level rows' D_I: the 2 i0 chain intervals and the tail
    two_level = np.array([bump is None for bump in table.bumps])
    used = set(zip(table.inner_center[two_level], table.inner_radius[two_level]))
    assert len(used | set(zip(table.outer_center, table.outer_radius))) == 2 * i0 + 1
    summary = summarize_profiles(weight, f.grid, table)
    _assert_rows_match(weight, [f.grid] * len(table), table, summary, exact)
    # the rows re-instantiated, each on a working grid of its own
    rows = table.take(np.arange(len(table)))
    grids = []
    for k, bump in enumerate(rows.bumps):
        support = rows.outer_interval(k)
        c, radius = support.center, support.radius
        spacing = radius / 8.0 if bump is None else bump.spacing
        grids.append(two_bump_host_grid(c, c + 128 * radius, radius, spacing))
    _assert_rows_match(weight, grids, rows, summarize_profiles(weight, grids, rows), exact)


def _working_grid(table, k, fine):
    """Row k's working grid as the iterative factorization builds it; a
    two-level row also at half that spacing when ``fine``."""
    support, bump = table.outer_interval(k), table.bumps[k]
    c, radius = support.center, support.radius
    spacing = radius / (16.0 if fine else 8.0) if bump is None else bump.spacing
    return two_bump_host_grid(c, c + 128 * radius, radius, spacing)


@settings(PROPERTY, max_examples=25)
@given(curve=st.one_of(curves(True), curves(False)), data=st.data())
def test_profile_rows_stand_alone(curve, data):
    # takes concatenate back to the table, array for array; and a batch of
    # rows on mixed grids summarizes as each row does alone, bit for bit
    weight = AccretiveWeight(curve)
    x0 = data.draw(st.integers(-16, 16)) / 4.0
    r = data.draw(st.sampled_from([0.5, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    f, y0 = _two_bump_input(weight, rng, x0, 128, r, r / 4)
    table = two_bump_profiles(weight, f, x0, y0, r)[0]
    n = len(table)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    pieces = [table.take(np.arange(a, b)) for a, b in zip([0, *cuts], [*cuts, n])]
    back = concat_tables(pieces)
    for name in ("inner_center", "inner_radius", "outer_center", "outer_radius", "scale"):
        got, want = getattr(back, name), getattr(table, name)
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    assert len(back.bumps) == n and all(a is b for a, b in zip(back.bumps, table.bumps))

    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    rows = table.take(picks)
    where = data.draw(st.lists(st.sampled_from(["host", "work", "fine"]),
                               min_size=len(picks), max_size=len(picks)))
    grids = [f.grid if w == "host" else _working_grid(rows, k, w == "fine")
             for k, w in enumerate(where)]
    batch = summarize_profiles(weight, grids, rows)
    for k, grid in enumerate(grids):
        alone = summarize_profiles(weight, grid, rows.take([k]))
        for field in dataclasses.fields(batch):
            got = getattr(batch, field.name)[k:k + 1]
            assert got.tobytes() == getattr(alone, field.name).tobytes(), field.name


@st.composite
def grids_and_windows(draw):
    count = draw(st.integers(2, 3000))
    spacing = draw(st.sampled_from([1 / 16, 1 / 8, 0.1, 0.25, 1 / 3]))
    grid = UniformGrid(draw(st.integers(-800, 400)) / 16.0, spacing, count)
    lo = draw(st.integers(0, count))
    return grid, lo, draw(st.integers(lo, count))


@settings(PROPERTY, max_examples=80)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_windows())
def test_weight_window_equals_weight_values_slice(curve, layout):
    grid, lo, hi = layout
    full = weight_values(curve, grid)
    assert weight_window(curve, grid, lo, hi).tobytes() == full[lo:hi].tobytes()
    sums = slope_node_sums(curve, grid.left, grid.spacing, grid.count,
                           np.array([lo]), np.array([hi]))
    reference = float(np.sum(full[lo:hi].imag))
    if all(s in EXACT_SLOPES for s in curve.slopes):
        assert sums[0] == reference
    else:
        assert sums[0] == pytest.approx(reference, rel=1e-12, abs=1e-12)


@settings(PROPERTY, max_examples=80)
@given(center=st.floats(-10.0, 10.0), radius=st.floats(0.01, 6.0),
       lo=st.integers(-5, 520), size=st.integers(0, 200))
def test_windowed_constructor_rejects_windows_outside_the_support(center, radius, lo, size):
    grid = UniformGrid(-8.0, 1 / 32, 513)
    support = Interval(center, radius)
    slo, shi = grid.index_range(support)
    values = np.arange(1, size + 1) * (1.0 - 0.5j)
    if size == 0 or slo <= lo <= lo + size <= shi:
        f = GridFunction.from_window(grid, support, lo, values)
        full = np.zeros(grid.count, dtype=np.complex128)
        full[lo:lo + size] = values
        assert f.samples.tobytes() == full.tobytes()
        assert f.support_range() == (slo, shi)
        assert GridFunction(grid, full, support).vanishes_outside((slo, shi))
    else:
        with pytest.raises(PreconditionError, match="outside the support"):
            GridFunction.from_window(grid, support, lo, values)


@settings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1),
       f_window=st.tuples(st.integers(0, 510), st.integers(2, 400)),
       g_window=st.tuples(st.integers(0, 510), st.integers(2, 400)))
def test_pair_is_bitwise_symmetric(seed, f_window, g_window):
    grid = UniformGrid(-8.0, 1 / 32, 513)
    rng = np.random.default_rng(seed)
    (a, wa), (c, wc) = f_window, g_window
    f = window_function(rng, grid, a, min(a + wa, grid.count))
    g = window_function(rng, grid, c, min(c + wc, grid.count))
    forward, backward = pair(f, g), pair(g, f)
    assert (forward.real, forward.imag) == (backward.real, backward.imag)


@settings(PROPERTY, max_examples=80)
@given(centers=st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=20),
       radii=st.lists(st.floats(1e-3, 1e300), min_size=20, max_size=20),
       layout=grids_and_windows())
def test_index_ranges_match_index_range(centers, radii, layout):
    # the same closed ranges as the scalar formula, and empty where it is empty,
    # for intervals inside, across and far outside the grid
    grid = layout[0]
    centers = np.array(centers + [grid.left + radii[0], grid.right - 0.3, grid.node(1)])
    radii = np.array(radii[:centers.size - 3] + [radii[0], 0.3, grid.spacing])
    lo, hi = index_ranges(grid.left, grid.spacing, grid.count, centers, radii)
    for k, (c, r) in enumerate(zip(centers, radii)):
        slo, shi = grid.index_range(Interval(float(c), float(r)))
        if slo < shi:
            assert (lo[k], hi[k]) == (slo, shi)
        else:
            assert lo[k] >= hi[k]
