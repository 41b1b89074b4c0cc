"""Identities checked as properties over random curves, grids and supports.

The profile table and its closed-form D_I are checked against the scalar
summary the library used before, with D_I summed over the sampled weight;
the windowed weight and the windowed constructor against their full-array
counterparts; the pairing for bitwise symmetry; the adjoint identity, the
weighted cancellation of Pi_b and the two-bump reconstruction to the
tolerances of their point tests.  The kernel blocks, the Toeplitz chunks
among them, the punctured sums of every evaluator and of stacked groups,
the commutator matrix and the oscillation scans are checked bit for bit
against copies of the constructions they replaced: the strided real and
imaginary denominators (``conftest.strided_kernel_blocks``), the
one-function sum loops built on them, the three whole-matrix passes, and
the per-window oscillation loops.  Every residual
table of the iterative factorization, with the stage-batched s, res, res / s
and weighted sums it is built from, is checked bit for bit against the
residual built one atom at a time and the builder that took the bumps'
weighted sums itself; ``residual``'s two bump windows against the residual
over the hull of the bumps it returned before; and ``check_atom``
against the ``summarize_profiles`` row each factored atom was written from.
The complex products and quotients of the summarizer and the stage are
checked against Python's ``*`` and ``/``, byte for byte, the ordered sum
against a left-to-right ``functools.reduce``, and the summarizer's stacked
bump rows against each row summarized alone.
"""

import dataclasses
import functools
import math
import operator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cauchylab import (AccretiveWeight, CommutatorSpec, GridFunction, Interval,
                       PreconditionError, UniformGrid, apply_cauchy, apply_cauchy_adjoint,
                       bmo_norm, commutator_matrix, decompose_two_bump, lp_norm, make_curve,
                       make_two_bump_input, pair, pi_b, reconstruction_error, vmo_profile)
from cauchylab import atoms, cauchy, check_atom, containment_index, factorization
from cauchylab import single_two_bump_initial, weak_factorize
from cauchylab.atoms import (Bump, ProfileTable, _interval_integrals, _validate_two_bump,
                             make_test_atom, summarize_profiles, two_bump_host_grid)
from cauchylab.cauchy import (assemble_related_matrix, slope_node_sums, weight_values,
                              weight_window)
from cauchylab.grid import (_complex_div, _complex_mul, index_ranges, integrate, merged_ranges,
                           ordered_sum)
from cauchylab.spaces import ATOM_TOL, weighted_cancellation, weighted_sums

from conftest import (geometry, make_random_curve, on_hull, parent_reconstruction_error,
                      parent_slope_node_sums, strided_kernel_blocks, two_bump, window_function,
                      windows)

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


def _weighted_sum(weight, grid, lo, values):
    """h * sum f * b of samples f at the nodes lo, lo + 1, ...: ``weighted_sums``
    of a stack of one, the rule of every weighted sum of the library."""
    b = weight_window(weight.curve, grid, lo, lo + values.size)
    return complex(weighted_sums(values[None], b[None], grid.spacing)[0])


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
    base = on_hull(make_two_bump_input(weight, grid, x0, y0, r))
    samples = base.samples * rng.uniform(0.2, 1.0, grid.count)
    lo, hi = grid.index_range(Interval(x0, r))
    b = weight_values(weight.curve, grid)
    samples[lo:hi] -= np.sum(samples * b) * grid.spacing / _scalar_integral(
        weight, grid, Interval(x0, r))
    samples /= np.max(np.abs(samples))
    return two_bump(grid, x0, y0, r, samples), y0


def _two_bump_table(weight, f):
    """The profile table of f's decomposition terms, with i0."""
    return atoms.two_bump_tables([f], np.array([_validate_two_bump(weight, f)]))


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
    table, i0 = _two_bump_table(weight, f)
    assert len(table) == 2 * (i0 + 1)
    # the two-level rows' D_I: the 2 i0 chain intervals and the tail
    two_level = np.array([bump is None for bump in table.bumps])
    used = set(zip(table.inner_center[two_level], table.inner_radius[two_level]))
    assert len(used | set(zip(table.outer_center, table.outer_radius))) == 2 * i0 + 1
    summary = summarize_profiles(weight, f.grid.left, f.grid.spacing, f.grid.count, table)
    _assert_rows_match(weight, [f.grid] * len(table), table, summary, exact)
    # the rows re-instantiated, each on a working grid of its own
    rows = table.take(np.arange(len(table)))
    grids = []
    for k, bump in enumerate(rows.bumps):
        support = rows.outer_interval(k)
        c, radius = support.center, support.radius
        spacing = radius / 8.0 if bump is None else bump.spacing
        grids.append(two_bump_host_grid(c, c + 128 * radius, radius, spacing))
    _assert_rows_match(weight, grids, rows, summarize_profiles(weight, *geometry(grids), rows),
                       exact)


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
    # a batch of rows on mixed grids summarizes as each row does alone, bit
    # for bit
    weight = AccretiveWeight(curve)
    x0 = data.draw(st.integers(-16, 16)) / 4.0
    r = data.draw(st.sampled_from([0.5, 1.0]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    f, y0 = _two_bump_input(weight, rng, x0, 128, r, r / 4)
    table = _two_bump_table(weight, f)[0]
    n = len(table)
    picks = data.draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2 * n))
    rows = table.take(picks)
    where = data.draw(st.lists(st.sampled_from(["host", "work", "fine"]),
                               min_size=len(picks), max_size=len(picks)))
    grids = [f.grid if w == "host" else _working_grid(rows, k, w == "fine")
             for k, w in enumerate(where)]
    batch = summarize_profiles(weight, *geometry(grids), rows)
    for k, grid in enumerate(grids):
        alone = summarize_profiles(weight, grid.left, grid.spacing, grid.count, rows.take([k]))
        for field in dataclasses.fields(batch):
            got = getattr(batch, field.name)[k:k + 1]
            assert got.tobytes() == getattr(alone, field.name).tobytes(), field.name


# Parts of complex numbers: anything, the IEEE edge values, and every binade
# from the subnormals to the top, so that products and ratios reach past the
# overflow and underflow thresholds
PARTS = st.one_of(
    st.floats(),
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1.7976931348623157e308,
                     -1.7976931348623157e308, math.inf, -math.inf, math.nan]),
    st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1100, 1023)))
COMPLEXES = st.builds(complex, PARTS, PARTS)
# divisors with |Re| = |Im|, which CPython divides through by the real part
TIES = st.builds(lambda x, sign: complex(x, math.copysign(x, sign)), PARTS,
                 st.sampled_from([1.0, -1.0]))


def _same_parts(got: complex, want: complex) -> bool:
    """Equal bytes in each part, or NaN in both."""
    return all((math.isnan(g) and math.isnan(w)) or
               np.float64(g).tobytes() == np.float64(w).tobytes()
               for g, w in ((got.real, want.real), (got.imag, want.imag)))


@settings(PROPERTY, max_examples=300)
@given(pairs=st.lists(st.tuples(COMPLEXES, st.one_of(COMPLEXES, TIES)), min_size=1,
                      max_size=40))
def test_complex_mul_and_div_round_as_python(pairs):
    # the array transcriptions of CPython's complex product and Smith
    # quotient give Python's * and / part for part; Python raises on a zero
    # divisor, which the summarizer never passes
    a, b = (np.array(side, dtype=np.complex128) for side in zip(*pairs))
    got = _complex_mul(a, b).tolist()
    assert all(_same_parts(g, x * y) for g, (x, y) in zip(got, pairs))
    pairs = [(x, y) for x, y in pairs if y != 0]
    a, b = (np.array([p[i] for p in pairs], dtype=np.complex128) for i in (0, 1))
    got = _complex_div(a, b).tolist()
    assert all(_same_parts(g, x / y) for g, (x, y) in zip(got, pairs))
    # a real b, as a stage's alpha and s, is taken as b + 0j
    r = b.real
    got = _complex_mul(a, r).tolist()
    assert all(_same_parts(g, x * complex(y)) for g, x, y in zip(got, a.tolist(), r.tolist()))
    a, r = a[r != 0], r[r != 0]
    got = _complex_div(a, r).tolist()
    assert all(_same_parts(g, x / complex(y)) for g, x, y in zip(got, a.tolist(), r.tolist()))


# every binade, subnormals included, each with either sign
BINADES = st.builds(math.ldexp, st.floats(-1.0, 1.0), st.integers(-1074, 1023))


@settings(PROPERTY, max_examples=300)
@given(xs=st.lists(st.one_of(st.floats(allow_nan=False), BINADES), max_size=60),
       zs=st.lists(COMPLEXES, max_size=20))
@example(xs=[1e16, 1.0, -1e16], zs=[]).via("CPython 3.12's sum gives 1.0")
@example(xs=[], zs=[]).via("3.11's sum gives 0.0")
@example(xs=[-0.0], zs=[complex(-0.0, -0.0)]).via("3.11's sum gives 0.0 and 0j")
def test_ordered_sum_adds_left_to_right_from_zero(xs, zs):
    # CPython 3.11's sum of floats or complexes, whatever the interpreter's own
    assert np.float64(ordered_sum(xs)).tobytes() == \
        np.float64(functools.reduce(operator.add, xs, 0.0)).tobytes()
    assert _same_parts(complex(ordered_sum(zs)), functools.reduce(operator.add, zs, 0j))
    assert ordered_sum([1e16, 1.0, -1e16]) == 0.0
    assert repr(ordered_sum([])) == repr(ordered_sum([-0.0])) == "0.0"


def _finite_stack(rng, rows, width):
    """A (rows, width) complex stack of finite parts of magnitudes 1e-3 to
    1e3, a quarter of them +0.0 or -0.0."""
    parts = rng.standard_normal((rows, width, 2)) * 10.0 ** rng.integers(-3, 4, (rows, width, 2))
    parts[rng.random(parts.shape) < 0.25] = 0.0
    parts = np.copysign(parts, rng.choice([-1.0, 1.0], parts.shape))
    return parts.view(np.complex128)[..., 0]


@settings(PROPERTY, max_examples=60)
@given(seed=st.integers(0, 2 ** 32 - 1), rows=st.integers(1, 5),
       widths=st.tuples(st.integers(1, 40), st.integers(1, 40)))
def test_cancellation_rule_equals_its_three_parent_formulas(seed, rows, widths):
    # weighted_cancellation gives, byte for byte, the sums and the mass of
    # check_atom (one window), of the two-bump input check (two windows, a
    # stack of one) and of the residual certificate (two windows, a stack),
    # as each wrote them before; its |total| is Python's abs of their total
    rng = np.random.default_rng(seed)
    sup_b = float(rng.uniform(1.0, 3.0))
    h = rng.uniform(1e-3, 1.0, rows)
    (f0, b0), (f1, b1) = ((_finite_stack(rng, rows, w), _finite_stack(rng, rows, w))
                          for w in widths)
    # check_atom: abs of the weighted sum, and lp_norm(a, 1) * sup|b|
    sums, cancel, mass = weighted_cancellation([(f0[:1], b0[:1])], h[0], sup_b)
    want = complex(np.sum(f0[0] * b0[0]) * h[0])
    assert _same_parts(complex(sums[0, 0]), want)
    assert _same_bytes(cancel[0], np.float64(abs(want)))
    assert _same_bytes(mass[0], np.float64(float(np.sum(np.abs(f0[0])) * h[0]) * sup_b))
    # the two-bump input check: the ordered sum of the two bumps' sums and masses
    sums, cancel, mass = weighted_cancellation([(f0[:1], b0[:1]), (f1[:1], b1[:1])], h[0],
                                               sup_b)
    want = [complex(np.sum(f[0] * b[0]) * h[0]) for f, b in ((f0, b0), (f1, b1))]
    assert all(_same_parts(got, w) for got, w in zip(sums[0].tolist(), want))
    assert _same_bytes(cancel[0], np.float64(abs(ordered_sum(want))))
    assert _same_bytes(mass[0], np.float64(
        ordered_sum([np.sum(np.abs(f[0])) for f in (f0, f1)]) * h[0] * sup_b))
    # the residual certificate: the two sums stacked, and their masses added
    sums, cancel, mass = weighted_cancellation([(f0, b0), (f1, b1)], h, sup_b)
    want = np.stack([np.sum(f0 * b0, axis=1) * h, np.sum(f1 * b1, axis=1) * h], axis=1)
    assert _same_bytes(sums, want)
    assert _same_bytes(cancel, np.array([abs(z) for z in (want[:, 0] + want[:, 1]).tolist()]))
    assert _same_bytes(mass, (np.sum(np.abs(f0), axis=1) + np.sum(np.abs(f1), axis=1))
                       * h * sup_b)


STACKED_CURVES = {"flat": make_curve([], [0.0], 0.0), "tent": make_curve([0.0], [1.0, -1.0], 0.0),
                  "seeded": make_random_curve(seed=23)}


def _signed_zeros(rng, n):
    """n complex zeros whose parts have random signs."""
    values = np.empty(n, dtype=np.complex128)
    values.real = np.copysign(0.0, rng.choice([-1.0, 1.0], n))
    values.imag = np.copysign(0.0, rng.choice([-1.0, 1.0], n))
    return values


@pytest.mark.parametrize("name", sorted(STACKED_CURVES))
@settings(PROPERTY, max_examples=10)
@given(data=st.data())
def test_stacked_bump_rows_stand_alone(name, data):
    # Bump rows of several sample counts, more rows of one count than one
    # stack holds and a row whose weighted sum is exactly 0, shuffled among
    # two-level rows, each row on a grid of its own: the batch summarizes as
    # each row does alone, bit for bit
    weight = AccretiveWeight(STACKED_CURVES[name])
    h = data.draw(st.sampled_from([1 / 16, 0.1]))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    big = 512                                     # 1025 samples per bump
    per_stack = atoms._STACK_ENTRIES // (2 * big + 1)
    small = st.sampled_from([1, 4, 16])
    rows = ([(big, "bump")] * data.draw(st.integers(per_stack + 1, 2 * per_stack + 1))
            + [(q, "bump") for q in data.draw(st.lists(small, min_size=2, max_size=8))]
            + [(data.draw(small), "zero")]
            + [(q, "two-level") for q in data.draw(st.lists(st.sampled_from([1, 8, 64]),
                                                            min_size=1, max_size=6))])
    rows = [rows[k] for k in rng.permutation(len(rows))]
    centers = rng.integers(-128, 129, len(rows)) * h
    grids, bumps = [], []
    for (q, kind), center in zip(rows, centers.tolist()):
        pad = int(rng.integers(0, 40))
        grid = UniformGrid(center - (2 * q + pad) * h, h, 4 * q + pad + int(rng.integers(2, 40)))
        lo, hi = grid.index_range(Interval(center, q * h))
        grids.append(grid)
        bumps.append(None if kind == "two-level" else Bump(
            _signed_zeros(rng, hi - lo) if kind == "zero"
            else rng.uniform(-1, 1, hi - lo) + 1j * rng.uniform(-1, 1, hi - lo), h))
    radius = np.array([q * h for q, _ in rows])
    table = ProfileTable(centers, radius, centers, 2 * radius,
                         rng.uniform(-1, 1, len(rows)) + 1j * rng.uniform(-1, 1, len(rows)),
                         tuple(bumps))
    batch = summarize_profiles(weight, *geometry(grids), table)
    assert batch.v_out[[kind for _, kind in rows].index("zero")] == 0
    for k, grid in enumerate(grids):
        alone = summarize_profiles(weight, grid.left, grid.spacing, grid.count, table.take([k]))
        for field in dataclasses.fields(batch):
            got = getattr(batch, field.name)[k:k + 1]
            assert got.tobytes() == getattr(alone, field.name).tobytes(), field.name


@settings(PROPERTY, max_examples=60)
@given(data=st.data())
def test_bump_row_cancels_on_every_grid_that_hosts_it(data):
    # A bump row's F is the sum of its samples times b times h on the grid
    # it is summarized on.  Breakpoints sit at node positions c + k h, so
    # on grids of the same spacing whose left ends differ a node may land
    # on either side of one; the row still cancels on each grid, and the
    # F stored in the table, taken on the first grid, is not read.
    h = data.draw(st.sampled_from([1 / 16, 0.0375, 0.075, 0.1, 0.3]))
    center = data.draw(st.floats(-1e3, 1e3))
    n_in = data.draw(st.integers(1, 40))
    n_out = n_in + data.draw(st.integers(0, 40))
    ks = data.draw(st.lists(st.integers(-n_in, n_in), min_size=1, max_size=3, unique=True))
    breakpoints = sorted(center + k * h for k in ks)
    slopes = data.draw(st.lists(st.floats(-2.0, 2.0), min_size=len(breakpoints) + 1,
                                max_size=len(breakpoints) + 1))
    weight = AccretiveWeight(make_curve(breakpoints, slopes, 0.0))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    values = rng.uniform(-1, 1, 2 * n_in + 1) + 1j * rng.uniform(-1, 1, 2 * n_in + 1)
    grids = []
    for pads in data.draw(st.lists(st.tuples(st.integers(0, 3000), st.integers(0, 50)),
                                   min_size=2, max_size=4)):
        grids.append(UniformGrid(center - (n_out + pads[0]) * h, h,
                                 2 * n_out + pads[0] + pads[1] + 1))
    radius = (n_in * h, n_out * h)

    def sums(grid):
        lo, hi, d_re, d_im = _interval_integrals(
            weight, grid.left, h, grid.count, np.array([center] * 2), np.array(radius))
        b = weight_window(weight.curve, grid, int(lo[0]), int(hi[0]))
        f = complex(np.sum(values * b) * h)
        return f, complex(d_re[1], d_im[1])

    table = ProfileTable(np.array([center]), np.array([radius[0]]), np.array([center]),
                         np.array([radius[1]]), np.array([sums(grids[0])[0]]),
                         (Bump(values, h),))
    for grid in grids:
        summary = summarize_profiles(weight, grid.left, grid.spacing, grid.count, table)
        f, d_out = sums(grid)
        assert summary.residual[0] <= ATOM_TOL
        assert complex(summary.v_out[0]) == f / d_out


@st.composite
def grids_and_windows(draw, dyadic=False):
    count = draw(st.integers(2, 3000))
    spacing = draw(st.sampled_from([1 / 16, 1 / 8, 0.25] if dyadic else
                                   [1 / 16, 1 / 8, 0.1, 0.25, 1 / 3]))
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


@st.composite
def slope_sum_layouts(draw):
    """Ranges of nodes on one grid or on one grid each (spacing 1/8, 0.1 or
    1/3), some empty and some the whole grid, and a curve of 0 to 24
    breakpoints, each on a node, on a range's first or last node, between
    two nodes or anywhere, or one float off it, with slopes 0, +-1, +-1/2,
    -0.0 or random."""
    n = draw(st.integers(1, 12))
    one_grid = draw(st.booleans())
    size = 1 if one_grid else n
    lefts = np.array(draw(st.lists(st.integers(-64, 64), min_size=size, max_size=size))) / 8.0
    spacings = np.array(draw(st.lists(st.sampled_from([1 / 8, 0.1, 1 / 3]), min_size=size,
                                      max_size=size)))
    counts = np.array(draw(st.lists(st.integers(1, 200), min_size=size, max_size=size)))
    left, spacing, count = (np.broadcast_to(v, n) for v in (lefts, spacings, counts))
    lo, hi = np.zeros(n, dtype=np.int64), np.zeros(n, dtype=np.int64)
    for k in range(n):
        kind = draw(st.sampled_from(["empty", "full", "range"]))
        if kind == "full":
            lo[k], hi[k] = 0, count[k]
        else:
            lo[k] = draw(st.integers(0, int(count[k])))
            hi[k] = lo[k] if kind == "empty" else draw(st.integers(int(lo[k]), int(count[k])))
    points = []
    for _ in range(draw(st.integers(0, 24))):
        k = draw(st.integers(0, n - 1))
        node = {"node": draw(st.integers(0, int(count[k]) - 1)), "first": lo[k],
                "last": hi[k] - 1, "between": draw(st.integers(0, int(count[k]))) - 0.5}
        kind = draw(st.sampled_from(["node", "first", "last", "between", "anywhere"]))
        x = draw(st.floats(-20.0, 90.0)) if kind == "anywhere" else \
            left[k] + spacing[k] * node[kind]
        # or the float next to it, where a node coordinate rounded otherwise
        # would fall on the breakpoint's other side
        points.append(np.nextafter(x, draw(st.sampled_from([x, -np.inf, np.inf]))))
    breakpoints = np.unique(points)
    slope = st.one_of(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.5]), st.floats(-2.0, 2.0))
    slopes = draw(st.lists(slope, min_size=breakpoints.size + 1, max_size=breakpoints.size + 1))
    geometry = (float(lefts[0]), float(spacings[0]), int(counts[0])) if one_grid else \
        (left, spacing, count)
    return make_curve(breakpoints, slopes, 0.0), geometry, lo, hi


@settings(PROPERTY, max_examples=300)
@given(layout=slope_sum_layouts())
def test_slope_node_sums_equal_the_parent_array_form(layout):
    # the sums cut at the crossed breakpoints alone are the bytes of the
    # (ranges x breakpoints) form they replaced
    curve, geometry, lo, hi = layout
    got = slope_node_sums(curve, *geometry, lo, hi)
    assert got.tobytes() == parent_slope_node_sums(curve, *geometry, lo, hi).tobytes()


@settings(PROPERTY, max_examples=80)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_windows(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_weighted_sum_is_the_node_sum(curve, layout, seed):
    grid, lo, hi = layout
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(hi - lo) + 1j * rng.standard_normal(hi - lo)
    b = weight_values(curve, grid)[lo:hi]
    got = np.complex128(_weighted_sum(AccretiveWeight(curve), grid, lo, values)).tobytes()
    assert got == np.complex128(complex(np.sum(values * b) * grid.spacing)).tobytes()
    if 0 < lo < hi < grid.count:
        # away from the grid ends the trapezoid rule it replaced is the node sum
        half = 0.5 * (hi - 1 - lo) * grid.spacing
        window = GridFunction(grid, (lo, values * b),
                              Interval(grid.node(lo) + half, half + 0.25 * grid.spacing))
        assert window.support_range() == (lo, hi)
        assert got == np.complex128(integrate(window)).tobytes()


@settings(PROPERTY, max_examples=80)
@given(center=st.floats(-10.0, 10.0), radius=st.floats(0.01, 6.0),
       lo=st.integers(-5, 520), size=st.integers(0, 200))
def test_windowed_constructor_rejects_windows_outside_the_support(center, radius, lo, size):
    grid = UniformGrid(-8.0, 1 / 32, 513)
    support = Interval(center, radius)
    slo, shi = grid.index_range(support)
    values = np.arange(1, size + 1) * (1.0 - 0.5j)
    if size == 0 or slo <= lo <= lo + size <= shi:
        f = GridFunction(grid, (lo, values), support)
        full = np.zeros(grid.count, dtype=np.complex128)
        full[lo:lo + size] = values
        assert f.samples.tobytes() == full.tobytes()
        assert f.support_range() == (slo, shi)
        assert GridFunction(grid, full, support).vanishes_outside((slo, shi))
    else:
        with pytest.raises(PreconditionError, match="outside the support"):
            GridFunction(grid, (lo, values), support)


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


@st.composite
def kernel_layouts(draw, dyadic=False):
    """A grid, a nonempty column window lo..hi-1 and distinct ascending rows
    that may lie inside, around or away from it."""
    grid, lo, hi = draw(grids_and_windows(dyadic))
    if lo == hi:
        lo, hi = (lo - 1, hi) if hi == grid.count else (lo, hi + 1)
    rows = draw(st.one_of(
        st.tuples(st.integers(0, grid.count - 1), st.integers(1, 400)).map(
            lambda a: np.arange(a[0], min(a[0] + a[1], grid.count))),
        st.lists(st.integers(0, grid.count - 1), min_size=1, max_size=200,
                 unique=True).map(lambda r: np.array(sorted(r)))))
    return grid, rows, lo, min(hi, lo + 1200)


@settings(PROPERTY, max_examples=60)
@given(curve=st.one_of(curves(True), curves(False)), layout=kernel_layouts(),
       budget=st.sampled_from([1, 3000, 1 << 18]))
def test_kernel_blocks_equal_the_strided_construction(curve, layout, budget):
    grid, rows, lo, hi = layout
    got = np.empty((rows.size, hi - lo), dtype=np.complex128)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cauchy, "_CHUNK_ENTRIES", budget)
        for _, _, r0, r1, block in cauchy._kernel_blocks(curve, grid.left, grid.spacing,
                                                         rows[None], np.array([lo]), hi - lo):
            got[r0:r1] = block[0]
    want = np.concatenate([block for _, _, block in
                           strided_kernel_blocks(curve, grid, rows, lo, hi, budget)])
    assert got.tobytes() == want.tobytes()
    hit = np.nonzero((rows >= lo) & (rows < hi))[0]
    assert got[hit, rows[hit] - lo].tobytes() == np.zeros(hit.size, complex).tobytes()


@st.composite
def straight_curves(draw):
    """A curve with no breakpoints and a slope from EXACT_SLOPES: on a dyadic
    grid its node coordinates are exact arithmetic progressions."""
    return make_curve([], [draw(st.sampled_from(EXACT_SLOPES))], draw(st.integers(-64, 64)) / 16.0)


@st.composite
def kernel_groups(draw, toeplitz=False):
    """k layouts of one shape, each on a grid of its own: n contiguous rows
    and w columns, placed anywhere on the grid, so rows and columns may
    share nodes.  With ``toeplitz``, k >= 2 blocks of 60 to 150 rows and
    columns on dyadic grids: on a straight curve each fills a chunk of 3000
    entries alone and takes the Toeplitz path."""
    if toeplitz:
        k, n, w = (draw(st.integers(2, 4)), draw(st.integers(60, 150)),
                   draw(st.integers(60, 150)))
        spacings = [1 / 16, 1 / 8, 0.25]
    else:
        k, n, w = draw(st.integers(1, 6)), draw(st.integers(1, 40)), draw(st.integers(1, 40))
        spacings = [1 / 16, 1 / 8, 0.1, 0.25, 1 / 3]
    grids, rows, lo = [], [], []
    for _ in range(k):
        count = draw(st.integers(max(n, w, 2), 200))
        grids.append(UniformGrid(draw(st.integers(-800, 400)) / 16.0,
                                 draw(st.sampled_from(spacings)), count))
        first = draw(st.integers(0, count - n))
        rows.append(np.arange(first, first + n))
        lo.append(draw(st.integers(0, count - w)))
    return grids, np.array(rows), np.array(lo), w


def _samples(rng, shape):
    """Real, imaginary or complex samples per row, some zero: on a straight
    curve the kernel is nearly imaginary, so sums of exact zeros and their
    signs occur."""
    return (rng.standard_normal(shape) * rng.choice([1.0, 1j, 1.0 + 1j], (shape[0], 1))
            * (rng.random(shape) < 0.8))


def _on_window(grid, lo, values):
    """The function with the samples ``values`` at the nodes lo, lo + 1, ...,
    its support's node range exactly those nodes."""
    half = 0.5 * (values.size - 1) * grid.spacing
    f = GridFunction(grid, (lo, values),
                     Interval(grid.node(lo) + half, half + 0.25 * grid.spacing))
    assert f.support_range() == (lo, lo + values.size)
    return f


def _parent_related_values(curve, f, rows, paired, budget):
    """related_cauchy_values as it was before it became a group of one: f's
    kernel blocks in row chunks of ``budget`` entries, each product taken on
    one block alone."""
    grid = f.grid
    lo, hi = f.support_range()
    out = np.zeros(rows.size, dtype=np.complex128)
    out_paired = np.zeros(hi - lo, dtype=np.complex128)
    if lo < hi and rows.size:
        for r0, r1, block in strided_kernel_blocks(curve, grid, rows, lo, hi, budget):
            out[r0:r1] = block @ f.values * grid.spacing
            if paired is not None:
                out_paired -= paired[r0:r1] @ block
        out_paired *= grid.spacing
    return out if paired is None else (out, out_paired)


def _parent_apply_related_cauchy(curve, f, budget):
    """apply_related_cauchy's own loop, as it was before it called
    related_cauchy_values."""
    grid = f.grid
    lo, hi = f.support_range()
    out = np.zeros(grid.count, dtype=np.complex128)
    if lo < hi:
        for r0, r1, block in strided_kernel_blocks(curve, grid, np.arange(grid.count), lo, hi,
                                                   budget):
            out[r0:r1] = block @ f.values * grid.spacing
    return out


@settings(PROPERTY, max_examples=40)
@given(curve=st.one_of(straight_curves(), curves(True), curves(False)),
       layout=st.one_of(kernel_layouts(dyadic=True), kernel_layouts()),
       seed=st.integers(0, 2 ** 32 - 1))
def test_evaluators_equal_the_parent_loops(curve, layout, seed):
    # related_cauchy_values at many rows and at one, related_cauchy_groups
    # with a paired function and apply_related_cauchy, each a group of one,
    # give the bytes of the loops they replaced at every chunk budget
    grid, rows, lo, hi = layout
    rng = np.random.default_rng(seed)
    f = _on_window(grid, lo, _samples(rng, (1, hi - lo))[0])
    u = _samples(rng, (1, rows.size))[0]
    node = int(rows[rows.size // 2])
    for budget in (1, 50, 3000, 1 << 18):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cauchy, "_CHUNK_ENTRIES", budget)
            values = cauchy.related_cauchy_values(curve, f, rows)
            pair_values = [v[0] for v in cauchy.related_cauchy_groups(
                curve, grid.left, grid.spacing, rows[None], np.array([lo]), f.values[None],
                u[None])]
            at = cauchy.related_cauchy_values(curve, f, np.array([node]))
            applied = cauchy.apply_related_cauchy(curve, f).samples
        want = _parent_related_values(curve, f, rows, None, budget)
        assert values.tobytes() == want.tobytes()
        for got, want in zip(pair_values, _parent_related_values(curve, f, rows, u, budget),
                             strict=True):
            assert got.tobytes() == want.tobytes()
        want = _parent_related_values(curve, f, np.array([node]), None, budget)
        assert at.tobytes() == want.tobytes()
        assert applied.tobytes() == _parent_apply_related_cauchy(curve, f, budget).tobytes()


def test_grouped_kernel_sums_equal_one_call_each():
    # stacked blocks, groups of several passes of several blocks, and blocks
    # that fill a chunk alone, Toeplitz chunks among them, give each
    # function's punctured sums, with and without the paired function, and
    # its b window bit for bit
    seen = {"toeplitz": 0, "several passes": 0}
    toeplitz_block, punctured_block = cauchy._toeplitz_block, cauchy._punctured_block
    stacked = []

    def count_toeplitz(*args):
        seen["toeplitz"] += 1
        toeplitz_block(*args)

    def count_stacked(zy, zr, rows, lo, block):
        stacked.append(block.shape[0])
        punctured_block(zy, zr, rows, lo, block)

    @settings(PROPERTY, max_examples=60)
    @given(case=st.one_of(st.tuples(st.one_of(curves(True), curves(False)), kernel_groups()),
                          st.tuples(straight_curves(), kernel_groups(toeplitz=True))),
           seed=st.integers(0, 2 ** 32 - 1))
    @example(case=(make_curve([], [0.5], 0.0),
                   ([UniformGrid(-8.0, 1 / 16, 200)], np.arange(20, 100)[None], np.array([50]),
                    80)),
             seed=0).via("a block on a dyadic grid of a straight curve fills a pass and takes "
                         "the Toeplitz path, whichever examples are drawn")
    @example(case=(make_curve([0.0], [1.0, -1.0], 0.0),
                   ([UniformGrid(-2.0, 0.1, 30), UniformGrid(1.0, 0.25, 40),
                     UniformGrid(-5.0, 1 / 3, 20)],
                    np.array([np.arange(3, 7), np.arange(10, 14), np.arange(4)]),
                    np.array([5, 2, 12]), 5)),
             seed=1).via("three blocks of 20 entries take two passes, of two blocks and of "
                         "one, at the budget of 50, whichever examples are drawn")
    def check(case, seed):
        curve, (grids, rows, lo, w) = case
        k, n = rows.shape
        left, spacing, _ = geometry(grids)
        rng = np.random.default_rng(seed)
        f, paired = _samples(rng, (k, w)), _samples(rng, (k, n))
        for budget in (1, 50, 3000, 2 * n * w, 1 << 18):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cauchy, "_CHUNK_ENTRIES", budget)
                mp.setattr(cauchy, "_toeplitz_block", count_toeplitz)
                mp.setattr(cauchy, "_punctured_block", count_stacked)
                stacked.clear()
                got, got_paired = cauchy.related_cauchy_groups(curve, left, spacing, rows, lo, f,
                                                               paired)
                seen["several passes"] += len(stacked) > 1 and max(stacked) > 1
                alone = cauchy.related_cauchy_groups(curve, left, spacing, rows, lo, f)
            for i, grid in enumerate(grids):
                fi = _on_window(grid, int(lo[i]), f[i])
                want, want_paired = _parent_related_values(curve, fi, rows[i], paired[i], budget)
                assert got[i].tobytes() == want.tobytes() == alone[i].tobytes()
                assert got_paired[i].tobytes() == want_paired.tobytes()
        b = cauchy.weight_windows(curve, left, spacing, lo, w)
        for i, grid in enumerate(grids):
            assert b[i].tobytes() == \
                weight_window(curve, grid, int(lo[i]), int(lo[i]) + w).tobytes()

    check()
    assert seen["toeplitz"] and seen["several passes"]


def test_toeplitz_chunks_equal_the_strided_construction():
    # both kinds of chunk are built, and each equals the strided construction
    chunks = {"all": 0, "toeplitz": 0}
    toeplitz_block = cauchy._toeplitz_block

    def spy(*args):
        chunks["toeplitz"] += 1
        toeplitz_block(*args)

    @settings(PROPERTY, max_examples=80)
    @given(curve=st.one_of(straight_curves(), curves(True), curves(False)),
           layout=st.one_of(kernel_layouts(dyadic=True), kernel_layouts()))
    @example(curve=make_curve([], [0.5], 0.0),
             layout=(UniformGrid(-8.0, 1 / 16, 400), np.arange(100, 300), 50, 250)).via(
        "a block on a dyadic grid of a straight curve takes the Toeplitz path, whichever "
        "examples are drawn")
    @example(curve=make_curve([0.0], [1.0, -1.0], 0.0),
             layout=(UniformGrid(-8.0, 1 / 16, 400), np.arange(100, 300), 50, 250)).via(
        "the same block across the tent's breakpoint takes the strided path")
    def check(curve, layout):
        grid, rows, lo, hi = layout
        got = np.empty((rows.size, hi - lo), dtype=np.complex128)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cauchy, "_CHUNK_ENTRIES", 3000)
            mp.setattr(cauchy, "_toeplitz_block", spy)
            for _, _, r0, r1, block in cauchy._kernel_blocks(curve, grid.left, grid.spacing,
                                                             rows[None], np.array([lo]), hi - lo):
                got[r0:r1] = block[0]
                chunks["all"] += 1
        want = np.concatenate([block for _, _, block in
                               strided_kernel_blocks(curve, grid, rows, lo, hi, 3000)])
        assert got.tobytes() == want.tobytes()

    check()
    assert 0 < chunks["toeplitz"] < chunks["all"]


@settings(PROPERTY, max_examples=30)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_windows())
def test_assembly_is_bitwise_independent_of_the_chunk_budget(curve, layout):
    grid, lo, hi = layout
    grid = UniformGrid(grid.left, grid.spacing, min(grid.count, 400))
    idx = np.arange(min(lo, grid.count - 1), min(max(hi, lo + 1), grid.count))
    for window in (None, idx):
        matrices = []
        for budget in (1 << 22, 1 << 18, 1):  # one row per block at the last
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(cauchy, "_CHUNK_ENTRIES", budget)
                matrices.append(assemble_related_matrix(curve, grid, window))
        assert all(m.tobytes() == matrices[0].tobytes() for m in matrices[1:])
        assert np.array_equal(matrices[0], -matrices[0].T)


def _three_pass_commutator(spec, idx):
    """commutator_matrix as built before: K*h chunk by chunk into the whole
    matrix, then diag(b) over the whole matrix, then
    phi_i C - C phi_j in row blocks of 2^16 entries."""
    curve, grid = spec.weight.curve, spec.symbol.grid
    lo, hi = (0, grid.count) if idx is None else (int(idx[0]), int(idx[-1]) + 1)
    op = np.empty((hi - lo, hi - lo), dtype=np.complex128)
    for _, _, r0, r1, block in cauchy._kernel_blocks(curve, grid.left, grid.spacing,
                                                     np.arange(lo, hi)[None], np.array([lo]),
                                                     hi - lo):
        np.multiply(block[0], grid.spacing, out=op[r0:r1])
    op *= weight_values(curve, grid)[lo:hi][None, :]
    phi = spec.divided_symbol()[lo:hi]
    step = max(1, (1 << 16) // op.shape[1])
    for r0 in range(0, op.shape[0], step):
        rows = op[r0:r0 + step]
        rows[...] = phi[r0:r0 + step, None] * rows - rows * phi[None, :]
    return op


@settings(PROPERTY, max_examples=30)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_windows(),
       budget=st.sampled_from([1, 3000, 1 << 18]), seed=st.integers(0, 2 ** 32 - 1))
def test_commutator_matrix_equals_the_three_pass_construction(curve, layout, budget, seed):
    grid, lo, hi = layout
    grid = UniformGrid(grid.left, grid.spacing, min(grid.count, 400))
    idx = np.arange(min(lo, grid.count - 1), min(max(hi, lo + 1), grid.count))
    rng = np.random.default_rng(seed)
    symbol = rng.standard_normal(grid.count) + 1j * rng.standard_normal(grid.count)
    spec = CommutatorSpec(GridFunction(grid, symbol, grid.covering_interval()),
                          AccretiveWeight(curve))
    for window in (None, idx):
        want = _three_pass_commutator(spec, window)
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(cauchy, "_CHUNK_ENTRIES", budget)
            got = commutator_matrix(spec, window)
        assert got.tobytes() == want.tobytes()


def _mean_oscillation(block):
    m = np.mean(block)
    return float(np.mean(np.abs(block - m)))


def _loop_bmo_norm(f, max_level):
    """bmo_norm as it was: one window at a time."""
    s, best = f.samples, 0.0
    n = s.size
    for level in range(0, max_level + 1):
        width = n / (1 << level)
        if width < 2:
            break
        for kind in (0.0, 0.5):
            start = kind * width
            while start + width <= n + 1e-9:
                lo = int(round(start))
                hi = min(int(round(start + width)), n)
                if hi - lo >= 2:
                    best = max(best, _mean_oscillation(s[lo:hi]))
                start += width
    return best


def _loop_sliding(s, width_nodes, step_nodes):
    best = 0.0
    if width_nodes < 2 or width_nodes > s.size:
        return best
    step = max(1, step_nodes)
    for lo in range(0, s.size - width_nodes + 1, step):
        best = max(best, _mean_oscillation(s[lo:lo + width_nodes]))
    tail = s.size - width_nodes
    if tail % step:
        best = max(best, _mean_oscillation(s[tail:]))
    return best


def _loop_vmo_profile(f, scales):
    """vmo_profile's three families as they were: one window at a time."""
    s, grid, h = f.samples, f.grid, f.grid.spacing
    span = h * (grid.count - 1)
    small, large, far = [], [], []
    for d in scales:
        best, width = 0.0, d / 2.0
        while width >= 4 * h:
            wn = int(round(width / h)) + 1
            best = max(best, _loop_sliding(s, wn, max(1, wn // 2)))
            width /= 2.0
        small.append((d, best))
    for d in scales:
        best, width = 0.0, 2.0 * d
        while width <= span:
            wn = int(round(width / h)) + 1
            best = max(best, _loop_sliding(s, min(wn, s.size), max(1, wn // 2)))
            width *= 2.0
        large.append((d, max(best, _mean_oscillation(s))))
    unit_nodes = int(round(1.0 / h)) + 1
    for d in scales:
        best = 0.0
        if unit_nodes >= 2:
            for lo in range(0, s.size - unit_nodes + 1, max(1, unit_nodes // 2)):
                if grid.node(lo + unit_nodes - 1) <= -d or grid.node(lo) >= d:
                    best = max(best, _mean_oscillation(s[lo:lo + unit_nodes]))
        far.append((d, best))
    return small, large, far


@st.composite
def sampled_functions(draw):
    """Samples on a grid of 2 to 1500 nodes: smooth, rough, stepped (with
    ties) or real, and zero outside a drawn window."""
    count = draw(st.integers(2, 1500))
    spacing = draw(st.sampled_from([1 / 64, 1 / 16, 0.1, 0.25, 1 / 3, 1.5]))
    grid = UniformGrid(draw(st.integers(-400, 100)) / 8.0, spacing, count)
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["smooth", "rough", "steps", "real"]))
    x = grid.nodes()
    if kind == "smooth":
        samples = np.exp(-x ** 2 / rng.uniform(1, 50)) * (1 + 1j * np.sin(x))
    elif kind == "rough":
        samples = rng.standard_normal(count) + 1j * rng.standard_cauchy(count)
    elif kind == "steps":
        samples = rng.integers(-3, 4, count) * (0.5 - 0.25j)
    else:
        samples = np.log1p(np.abs(x)) + 0j
    lo = draw(st.integers(0, count - 1))
    samples[:lo] = 0.0
    return GridFunction(grid, samples, grid.covering_interval())


@settings(PROPERTY, max_examples=60)
@given(f=sampled_functions(), max_level=st.integers(1, 12),
       scales=st.lists(st.floats(0.01, 200.0), min_size=1, max_size=5).map(sorted))
def test_scans_equal_the_per_window_loops(f, max_level, scales):
    assert bmo_norm(f, max_level) == _loop_bmo_norm(f, max_level)
    report = vmo_profile(f, scales)
    assert (report.small_scale, report.large_scale, report.far_field) == \
        _loop_vmo_profile(f, scales)


def test_scans_skip_a_window_whose_oscillation_is_nan():
    # a NaN node makes every window holding it NaN; the loops' max(best, x)
    # skipped those windows, and the array pass skips them too
    grid = UniformGrid(-8.0, 1 / 16, 257)
    samples = np.where(np.arange(257) % 8 < 4, 1.0, -1.0) + 0j
    samples[200] = np.nan
    f = GridFunction(grid, samples, grid.covering_interval())
    got = bmo_norm(f, 6)
    assert got == _loop_bmo_norm(f, 6) and got == 1.0
    report = vmo_profile(f, [0.25, 1.0, 4.0])
    families = (report.small_scale, report.large_scale, report.far_field)
    assert families == _loop_vmo_profile(f, [0.25, 1.0, 4.0])
    assert not any(np.isnan(osc) for rows in families for _, osc in rows)


@st.composite
def grids_and_two_windows(draw):
    """A grid of up to 600 nodes among the curves' breakpoints, and two node
    windows of at least two nodes on it, either of which may hold an end node."""
    count = draw(st.integers(4, 600))
    spacing = draw(st.sampled_from([1 / 16, 1 / 8, 0.25]))
    grid = UniformGrid(draw(st.integers(-640, 1600)) / 16.0, spacing, count)
    windows = []
    for _ in range(2):
        lo = draw(st.integers(0, count - 2))
        windows.append((lo, draw(st.integers(lo + 2, count))))
    return grid, windows


@settings(PROPERTY, max_examples=40)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_two_windows(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_adjoint_identity(curve, layout, seed):
    grid, ((a, b), (c, d)) = layout
    rng = np.random.default_rng(seed)
    f, g = window_function(rng, grid, a, b), window_function(rng, grid, c, d)
    lhs = pair(apply_cauchy(curve, f), g)
    rhs = pair(f, apply_cauchy_adjoint(curve, g))
    assert abs(lhs - rhs) <= 1e-6 * lp_norm(f, 2) * lp_norm(g, 2)


@settings(PROPERTY, max_examples=40)
@given(curve=st.one_of(curves(True), curves(False)), layout=grids_and_two_windows(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_pi_b_cancels_against_b(curve, layout, seed):
    grid, ((a, b), (c, d)) = layout
    rng = np.random.default_rng(seed)
    g, h = window_function(rng, grid, a, b), window_function(rng, grid, c, d)
    weight = AccretiveWeight(curve)
    form = pi_b(weight, g, h)
    total = _weighted_sum(weight, grid, form.lo, form.values)
    assert abs(total) <= 1e-4 * lp_norm(g, 2) * lp_norm(h, 2)


def _random_bumps(weight, x0, y0, r, seed):
    """The canonical two-bump function at (x0, y0, r) with random bump shapes,
    re-cancelled against b on the first bump and normalized to sup 1."""
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    base = on_hull(make_two_bump_input(weight, grid, x0, y0, r))
    rng = np.random.default_rng(seed)
    values = base.values * rng.uniform(0.2, 1.0, base.values.size)
    lo1, hi1 = grid.index_range(Interval(x0, r))
    start = lo1 - base.lo
    defect = _weighted_sum(weight, grid, base.lo, values)
    values[start:start + hi1 - lo1] -= defect / _weighted_sum(weight, grid, lo1,
                                                              np.ones(hi1 - lo1))
    values /= np.max(np.abs(values))
    return two_bump(grid, x0, y0, r, GridFunction(grid, (base.lo, values), base.support).samples)


@settings(PROPERTY, max_examples=25)
@given(curve=st.one_of(curves(True), curves(False)), x0=st.integers(-160, 160),
       r=st.sampled_from([0.25, 0.5, 1.0]), big_m=st.sampled_from([128, 256]),
       side=st.sampled_from([1, -1]), seed=st.integers(0, 2 ** 32 - 1))
def test_two_bump_reconstruction_is_exact(curve, x0, r, big_m, side, seed):
    weight = AccretiveWeight(curve)
    x0 = x0 / 16.0
    f = _random_bumps(weight, x0, x0 + side * big_m * r, r, seed)
    assert reconstruction_error(decompose_two_bump(weight, f), f) <= 1e-10


@settings(PROPERTY, max_examples=40)
@given(curve=st.one_of(curves(True), curves(False)),
       x0=st.one_of(st.integers(-160, 160).map(lambda k: k / 16.0), st.floats(-40.0, 40.0)),
       r=st.sampled_from([0.3, 0.5, 0.75, 1.0]),
       big_m=st.one_of(st.sampled_from([128, 1024, 4096]), st.integers(101, 4096)),
       side=st.sampled_from([1, -1]), seed=st.integers(0, 2 ** 32 - 1))
def test_reconstruction_error_equals_the_host_grid_error(curve, x0, r, big_m, side, seed):
    # the sum read at one node of each piece and at every bump node gives the
    # error of the sum of every atom over the whole host grid, bit for bit
    weight = AccretiveWeight(curve)
    f = _random_bumps(weight, x0, x0 + side * big_m * r, r, seed)
    dec = decompose_two_bump(weight, f)
    got = reconstruction_error(dec, f)
    assert _same_bytes(np.float64(got), np.float64(parent_reconstruction_error(dec, f)))
    assert got <= 1e-10


# The curves of the factorization properties: flat, a line of slope 1/2, the
# tent, and a seeded rough curve with 24 breakpoints.
FACTORIZATION_CURVES = {
    "flat": make_curve([], [0.0], 0.0),
    "line": make_curve([], [0.5], 0.0),
    "tent": make_curve([0.0], [1.0, -1.0], 0.0),
    "rough24": make_random_curve(seed=5, n_break=24),
}


def _spied_run(weight, x0, r, m0, stages, spies):
    """A ``weak_factorize`` run from the two-bump atom at (x0, r, m0) with
    eps 0.05, each factorization-module function named in ``spies`` wrapped
    to append its arguments and result to ``spies[name]``."""
    initial = single_two_bump_initial(weight, x0, m0, r)
    with pytest.MonkeyPatch.context() as patch:
        for name, calls in spies.items():
            def spy(*args, _true=getattr(factorization, name), _calls=calls):
                out = _true(*args)
                _calls.append((args, out))
                return out
            patch.setattr(factorization, name, spy)
        return weak_factorize(weight, initial, 0.05, stages)


def _parent_residual_table(weight, res, x0, y0, r):
    """The sup s of a residual and the profile table of res / s as built
    before ``residual`` returned its certified sums: ``res.sup_norm()``, then
    the two-bump builder that took the weighted sums over the bumps itself."""
    s = res.sup_norm()
    f = res.scaled(1.0 / s)
    grid = f.grid
    ranges = [grid.index_range(Interval(c, r)) for c in (x0, y0)]
    sums = [_weighted_sum(weight, grid, lo, f.values_on(lo, hi)) for lo, hi in ranges]
    i0 = containment_index(abs(y0 - x0) / r)
    radii = r * 2.0 ** np.arange(i0 + 2)
    centers = np.repeat([x0, y0], i0 + 1)
    outer_center = centers.copy()
    outer_center[i0::i0 + 1] = 0.5 * (x0 + y0)
    rows = [Bump(f.values_on(lo, hi).copy(), grid.spacing) for lo, hi in ranges]
    return s, ProfileTable(centers, np.tile(radii[:-1], 2), outer_center, np.tile(radii[1:], 2),
                           np.repeat(np.array(sums), i0 + 1),
                           (rows[0],) + (None,) * i0 + (rows[1],) + (None,) * i0)


def _parent_residual(weight, a, pair_):
    """(res, s, res / s, sums) as ``residual`` built them one atom at a time
    before the stage-batched engine: ``pi_b`` on the hull of the two bumps,
    res over the hull, its sup, res scaled by 1 / s and ``_weighted_sum`` over
    each bump window."""
    form = pi_b(weight, pair_.g, pair_.h)
    bumps = (a.support_range(), pair_.g.support_range())
    assert form.vanishes_outside(*bumps)
    spans = merged_ranges(*bumps)
    start, stop = spans[0][0], spans[-1][1]
    res = a.values_on(start, stop) - form.values_on(start, stop)
    sup = float(np.max(np.abs(res), initial=0.0))
    out = GridFunction(a.grid, (start, res), a.support.hull(pair_.g.support))
    if sup == 0.0:
        return out, sup, None, ()
    unit = out.scaled(1.0 / sup)
    sums = tuple(_weighted_sum(weight, a.grid, lo, unit.values_on(lo, hi)) for lo, hi in bumps)
    return out, sup, unit, sums


def _same_bytes(got, want) -> bool:
    got, want = np.asarray(got), np.asarray(want)
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@settings(PROPERTY, max_examples=12)
@given(curve=st.sampled_from(sorted(FACTORIZATION_CURVES)), x0=st.integers(-16, 16),
       r=st.sampled_from([0.5, 1.0]), m0=st.sampled_from([128, 256]), stages=st.integers(2, 3))
def test_residual_tables_equal_the_parent_construction(curve, x0, r, m0, stages):
    # every stage's batched residuals (s, res and res / s on the two bumps, the
    # weighted sums) and every residual table equal, bit for bit, the residual
    # built one atom at a time and the builder that took the bumps' weighted
    # sums of res / s itself
    weight = AccretiveWeight(FACTORIZATION_CURVES[curve])
    spies = {"_stage_residuals": [], "_certify_residuals": [], "_stacked_terms": []}
    _spied_run(weight, x0 / 4.0, r, m0, stages, spies)
    groups = spies["_certify_residuals"]
    # the stacked form, each term over b, is pi_b's, signed zeros included
    for ((*_, atoms, pairs), _), ((_, _, _, g_lo, _, h_lo, _, _), terms) in zip(
            groups, spies["_stacked_terms"], strict=True):
        for k, pair_ in enumerate(pairs):
            form = pi_b(weight, pair_.g, pair_.h)
            for lo, values in zip((h_lo, g_lo), terms, strict=True):
                hi = lo[k] + values.shape[1]
                b = weight_window(weight.curve, pair_.g.grid, lo[k], hi)
                assert _same_bytes(values[k] / b, form.values_on(lo[k], hi))
    # stage 1 is a group of one; stage 2 holds 17-node atoms and bump atoms
    assert any(len(atoms) == 1 for (*_, atoms, _), _ in groups)
    assert any(len({a.values.size for a in atoms}) > 1
               for (*_, atoms, _), _ in spies["_stage_residuals"])
    parent = {}
    for (*_, atoms, pairs), cert in groups:
        for k, (atom, pair_) in enumerate(zip(atoms, pairs)):
            res, s, unit, sums = parent[id(atom)] = _parent_residual(weight, atom, pair_)
            assert _same_bytes(cert.sup[k], np.float64(s))
            bumps = (atom.support_range(), pair_.g.support_range())
            for got, (lo, hi) in zip(cert.res, bumps):
                assert _same_bytes(got[k], res.values_on(lo, hi))
            if s != 0.0:
                for got, (lo, hi) in zip(cert.unit, bumps):
                    assert _same_bytes(got[k], unit.values_on(lo, hi))
                assert _same_bytes(cert.sums[k], np.array(sums))
    for (*_, atoms, pairs), (sups, table, owner) in spies["_stage_residuals"]:
        for k, (atom, pair_) in enumerate(zip(atoms, pairs)):
            res = parent[id(atom)][0]
            # the rows run in atom order
            rows = np.arange(*np.searchsorted(owner, [k, k + 1]))
            if sups[k] == 0.0:
                assert rows.size == 0
                continue
            support = atom.support
            want_s, want = _parent_residual_table(weight, res, support.center, pair_.y0,
                                                  support.radius)
            assert _same_bytes(sups[k], np.float64(want_s))
            got = table.take(rows)
            for name in ("inner_center", "inner_radius", "outer_center", "outer_radius",
                         "scale"):
                assert _same_bytes(getattr(got, name), getattr(want, name))
            for got_bump, want_bump in zip(got.bumps, want.bumps, strict=True):
                assert (got_bump is None) == (want_bump is None)
                if got_bump is not None:
                    assert got_bump.spacing == want_bump.spacing
                    assert _same_bytes(got_bump.values, want_bump.values)


def _parent_hull_residual(weight, a, pair_):
    """(res, s, res / s, sums) as ``residual`` returned them before it kept
    only the two bump windows: the windows ``_certify_residuals`` certified,
    written into res and res / s over the hull of the bumps."""
    cert = factorization._certify_residuals(weight, a.grid.left, a.grid.spacing, [a], [pair_])
    bumps = (a.support_range(), pair_.g.support_range())
    spans = merged_ranges(*bumps)
    start, stop = spans[0][0], spans[-1][1]
    support = a.support.hull(pair_.g.support)

    def on_hull(windows):
        values = np.zeros(stop - start, dtype=np.complex128)
        for (lo, hi), window in zip(bumps, windows):
            values[lo - start:hi - start] = window[0]
        return GridFunction(a.grid, (start, values), support)

    sup = float(cert.sup[0])
    if sup == 0.0:
        return on_hull(cert.res), sup, None, ()
    return on_hull(cert.res), sup, on_hull(cert.unit), tuple(cert.sums[0].tolist())


@settings(PROPERTY, max_examples=20)
@given(curve=st.one_of(curves(True), curves(False)), x0=st.integers(-16, 16),
       r=st.sampled_from([0.5, 1.0]), m=st.sampled_from([128, 1024, 1 << 14]),
       cells=st.sampled_from([8, 32]))
def test_residual_windows_equal_the_parent_hull_residual(curve, x0, r, m, cells):
    # residual keeps res and res / s as their windows on the two bumps: there
    # they equal, bit for bit, the residual over the hull of the bumps, which
    # vanishes between them
    weight = AccretiveWeight(curve)
    x0 = x0 / 4.0
    grid = two_bump_host_grid(x0, x0 + m * r, r, r / cells)
    atom = make_test_atom(weight, grid, x0, r)
    pair_ = factorization.approx_factor_atom(weight, atom, Interval(x0, r), big_m=m)
    got = factorization.residual(weight, atom, pair_)
    res, sup, unit, sums = _parent_hull_residual(weight, atom, pair_)
    bumps = [atom.support_range(), pair_.g.support_range()]
    assert got.res.grid is grid
    assert [(lo, lo + values.size) for lo, values in windows(got.res)] == bumps
    assert res.vanishes_outside(*bumps)
    assert _same_bytes(np.float64(got.sup), np.float64(sup))
    assert _same_bytes(*(np.array(x, dtype=np.complex128) for x in (got.sums, sums)))
    assert (got.unit is None) == (unit is None)
    for bumps, hull in ((got.res, res), (got.unit, unit)):
        for lo, values in windows(bumps) if bumps else ():
            assert _same_bytes(values, hull.values_on(lo, lo + values.size))


def _parent_estimate(weight, certified, x0, y0, r):
    """``estimate_residual_h1b`` as it took the bumps I(x0, r) and I(y0, r)
    from its caller: the table of res / s built from the certified windows
    and sums by the parent's array construction, summarized on their grid."""
    if certified.sup == 0.0:
        return 0.0
    unit = certified.unit
    i0 = containment_index(abs(y0 - x0) / r)
    radii = np.array([r])[:, None] * 2.0 ** np.arange(i0 + 2)
    centers = np.repeat(np.array([[x0, y0]]), i0 + 1, axis=1)
    outer_center = centers.copy()
    outer_center[:, i0::i0 + 1] = 0.5 * (x0 + y0)
    h = unit.grid.spacing
    rows = (Bump(unit.x_bump, h),) + (None,) * i0 + (Bump(unit.y_bump, h),) + (None,) * i0
    table = ProfileTable(centers.ravel(), np.tile(radii[:, :-1], 2).ravel(), outer_center.ravel(),
                         np.tile(radii[:, 1:], 2).ravel(),
                         np.repeat(np.array([certified.sums]), i0 + 1, axis=1).ravel(), rows)
    summary = summarize_profiles(weight, unit.grid.left, h, unit.grid.count, table)
    assert summary.accepted().all()
    return certified.sup * float(sum(summary.alpha[summary.alpha > 0.0].tolist()))


@settings(PROPERTY, max_examples=20)
@given(curve=st.one_of(curves(True), curves(False)),
       x0=st.one_of(st.integers(-16, 16).map(lambda k: k / 4.0), st.floats(-40.0, 40.0)),
       r=st.sampled_from([0.5, 1.0]), m=st.sampled_from([128, 1024, 1 << 14]),
       cells=st.sampled_from([8, 32]))
def test_estimate_takes_the_bumps_of_the_residual(curve, x0, r, m, cells):
    # the estimate reads the bumps from the certified windows themselves, and
    # equals, bit for bit, the estimate that took them from its caller
    weight = AccretiveWeight(curve)
    grid = two_bump_host_grid(x0, x0 + m * r, r, r / cells)
    atom = make_test_atom(weight, grid, x0, r)
    pair_ = factorization.approx_factor_atom(weight, atom, Interval(x0, r), big_m=m)
    certified = factorization.residual(weight, atom, pair_)
    assert (certified.unit.x0, certified.unit.y0, certified.unit.r) == (x0, pair_.y0, r)
    got = factorization.estimate_residual_h1b(weight, certified)
    assert _same_bytes(np.float64(got), np.float64(_parent_estimate(weight, certified, x0,
                                                                    pair_.y0, r)))


@settings(PROPERTY, max_examples=12)
@given(curve=st.sampled_from(sorted(FACTORIZATION_CURVES)), x0=st.integers(-16, 16),
       r=st.sampled_from([0.5, 1.0]), m0=st.sampled_from([128, 256]))
def test_check_atom_accepts_every_row_the_summary_accepts(curve, x0, r, m0):
    # the stage loop certifies a row from closed-form D_I (summarize_profiles)
    # and the atom written from it once more from its samples (check_atom);
    # the two agree on every row, and their values differ by rounding
    weight = AccretiveWeight(FACTORIZATION_CURVES[curve])
    spies = {"profile_atom": []}
    _spied_run(weight, x0 / 4.0, r, m0, 3, spies)
    accepted = [(table, k, summary, atom) for (_, table, summary, k), atom
                in spies["profile_atom"] if summary.accepted()[k]]
    assert accepted
    for table, k, summary, atom in accepted:
        cert = check_atom(atom, table.outer_interval(k), weight)
        assert cert.accepted
        # over 27,440 rows the gaps were at most 4.5e-16
        assert abs(cert.size_value - float(summary.size_value[k])) <= 1e-14
        assert abs(cert.cancellation_residual - float(summary.residual[k])) <= 1e-14
