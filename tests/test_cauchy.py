import tracemalloc

import numpy as np
import pytest

from cauchylab import (GridFunction, Interval, PreconditionError, UniformGrid,
                       apply_cauchy, apply_cauchy_adjoint, apply_related_cauchy,
                       assemble_cauchy_matrix, assemble_related_matrix, eval_A,
                       eval_b, eval_slope, indicator, kernel_bounds_check,
                       lp_norm, make_curve, pair, related_kernel_values)
from cauchylab import cauchy
from cauchylab.cauchy import related_cauchy_values

from conftest import (random_support_function, rough_curve, std_grid, strided_kernel_blocks,
                      window_function)


def hilbert_indicator(xs, a, b):
    """Analytic oracle: Hilbert transform of the indicator of [a, b]."""
    return np.log(np.abs((xs - a) / (xs - b))) / np.pi


def indicator_oracle_error(curve, grid):
    f = indicator(grid, Interval(0.0, 1.0))
    out = apply_related_cauchy(curve, f)
    xs = grid.nodes()
    keep = np.abs(np.abs(xs) - 1.0) > 0.1
    oracle = 1j * hilbert_indicator(xs[keep], -1.0, 1.0)
    valid = np.abs(oracle) > 1e-12
    return np.max(np.abs(out.samples[keep][valid] - oracle[valid])
                  / np.abs(oracle[valid]))


def test_flat_indicator_matches_hilbert_oracle(flat_weight):
    grid = UniformGrid(-8.0, 1.0 / 256.0, 4097)
    assert indicator_oracle_error(flat_weight.curve, grid) <= 2e-2


def test_refinement_improves_oracle_error(flat_weight):
    coarse = indicator_oracle_error(flat_weight.curve,
                                    UniformGrid(-8.0, 1.0 / 256.0, 4097))
    fine = indicator_oracle_error(flat_weight.curve,
                                  UniformGrid(-8.0, 1.0 / 512.0, 8193))
    assert coarse / fine >= 1.5


def test_zero_input_gives_zero(tent_weight):
    grid = std_grid(256)
    zero = GridFunction(grid, np.zeros(grid.count, complex), Interval(0.0, 1.0))
    assert np.all(apply_related_cauchy(tent_weight.curve, zero).samples == 0)
    assert np.all(apply_cauchy(tent_weight.curve, zero).samples == 0)
    assert np.all(apply_cauchy_adjoint(tent_weight.curve, zero).samples == 0)


def test_linearity(random_weight):
    grid = std_grid(512)
    rng = np.random.default_rng(6)
    f = random_support_function(rng, grid)
    g = random_support_function(rng, grid)
    a, b = 1.5 - 0.5j, -0.25 + 2.0j
    combo = f.scaled(a) + g.scaled(b)
    lhs = apply_related_cauchy(random_weight.curve, combo).samples
    rhs = (a * apply_related_cauchy(random_weight.curve, f).samples
           + b * apply_related_cauchy(random_weight.curve, g).samples)
    scale = np.max(np.abs(rhs))
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale


def test_cauchy_equals_related_on_flat_curve(flat_weight):
    grid = std_grid(512)
    rng = np.random.default_rng(7)
    f = random_support_function(rng, grid)
    lhs = apply_cauchy(flat_weight.curve, f).samples
    rhs = apply_related_cauchy(flat_weight.curve, f).samples
    assert np.array_equal(lhs, rhs)


def test_cauchy_matches_direct_kernel_quadrature(tent_weight):
    # independent oracle: punctured sum with the combined kernel
    # (1/(pi i)) (1 + iA'(y)) / (y - x + i(A(y) - A(x)))
    curve = tent_weight.curve
    grid = std_grid(512)
    f = indicator(grid, Interval(2.5, 0.5))  # support inside one slope segment
    out = apply_cauchy(curve, f).samples
    xs = grid.nodes()
    A = eval_A(curve, xs)
    by = eval_b(tent_weight, xs)
    expected = np.zeros(grid.count, dtype=np.complex128)
    lo, hi = f.support_range()
    for i in range(grid.count):
        total = 0.0 + 0.0j
        for j in range(lo, hi):
            if j == i:
                continue
            denom = (xs[j] - xs[i]) + 1j * (A[j] - A[i])
            total += by[j] * f.samples[j] / denom
        expected[i] = total * grid.spacing / (np.pi * 1j)
    assert np.max(np.abs(out - expected)) <= 1e-12 * np.max(np.abs(expected))


def test_adjoint_pairing_identity(curve_trio):
    rng = np.random.default_rng(8)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        for _ in range(20):
            f = random_support_function(rng, grid)
            g = random_support_function(rng, grid)
            lhs = pair(apply_cauchy(weight.curve, f), g)
            rhs = pair(f, apply_cauchy_adjoint(weight.curve, g))
            assert abs(lhs - rhs) <= 1e-6 * lp_norm(f, 2) * lp_norm(g, 2)


def test_adjoint_pairing_identity_at_the_end_nodes(flat_weight):
    # f and g on nodes 0-1 of a 4-node grid: the pairing must weigh the end
    # nodes as the punctured sums do, or the two sides differ by O(h)
    grid = UniformGrid(0.0, 1 / 16, 4)
    rng = np.random.default_rng(0)
    f, g = window_function(rng, grid, 0, 2), window_function(rng, grid, 0, 2)
    lhs = pair(apply_cauchy(flat_weight.curve, f), g)
    rhs = pair(f, apply_cauchy_adjoint(flat_weight.curve, g))
    assert abs(lhs - rhs) <= 1e-6 * lp_norm(f, 2) * lp_norm(g, 2)


def test_related_antisymmetry(curve_trio):
    rng = np.random.default_rng(9)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        for _ in range(5):
            f = random_support_function(rng, grid)
            g = random_support_function(rng, grid)
            s = pair(apply_related_cauchy(weight.curve, f), g) \
                + pair(f, apply_related_cauchy(weight.curve, g))
            assert abs(s) <= 1e-6 * lp_norm(f, 2) * lp_norm(g, 2)


def test_adjoint_of_indicator_is_negated_oracle(flat_weight):
    grid = UniformGrid(-8.0, 1.0 / 256.0, 4097)
    g = indicator(grid, Interval(0.0, 1.0))
    out = apply_cauchy_adjoint(flat_weight.curve, g)
    xs = grid.nodes()
    keep = np.abs(np.abs(xs) - 1.0) > 0.1
    oracle = -1j * hilbert_indicator(xs[keep], -1.0, 1.0)
    valid = np.abs(oracle) > 1e-12
    err = np.abs(out.samples[keep][valid] - oracle[valid]) / np.abs(oracle[valid])
    assert np.max(err) <= 2e-2


def test_kernel_size_constant_flat(flat_weight):
    report = kernel_bounds_check(flat_weight.curve, trials=10_000, seed=0)
    assert report.size_constant == pytest.approx(1.0 / np.pi, rel=1e-12)
    assert np.isfinite(report.smoothness_constant)


def test_kernel_size_constant_tent(tent_weight):
    report = kernel_bounds_check(tent_weight.curve, trials=100_000, seed=1)
    assert report.size_constant <= 0.46
    assert np.isfinite(report.smoothness_constant)


def test_kernel_smoothness_finite_across_slopes():
    from cauchylab import make_curve
    for L in (0.0, 0.5, 1.0):
        curve = make_curve([0.0], [L, -L], 0.0)
        report = kernel_bounds_check(curve, trials=50_000, seed=2)
        assert np.isfinite(report.smoothness_constant)
        assert report.size_constant <= 1.0 / np.pi + 1e-12


def test_kernel_antisymmetric_values(random_weight):
    rng = np.random.default_rng(10)
    x = rng.uniform(-5, 5, 100)
    y = x + rng.uniform(0.1, 3.0, 100)
    k1 = related_kernel_values(random_weight.curve, x, y)
    k2 = related_kernel_values(random_weight.curve, y, x)
    assert np.max(np.abs(k1 + k2)) == 0.0


def dense_related_reference(curve, grid, idx=None):
    """The direct dense formula: every entry divided out at once."""
    xs = grid.nodes()
    if idx is not None:
        xs = xs[idx]
    A = eval_A(curve, xs)
    denom = (xs[None, :] - xs[:, None]) + 1j * (A[None, :] - A[:, None])
    np.fill_diagonal(denom, 1.0)
    out = (1.0 / (np.pi * 1j)) / denom * grid.spacing
    np.fill_diagonal(out, 0.0)
    return out


@pytest.mark.parametrize("chunk", [None, 3000])
def test_assembly_is_bitwise_the_dense_formula(curve_trio, monkeypatch, chunk):
    from cauchylab import cauchy
    if chunk is not None:   # many row blocks, a partial last one included
        monkeypatch.setattr(cauchy, "_CHUNK_ENTRIES", chunk)
    grid = UniformGrid(-8.0, 1.0 / 32.0, 513)
    for _, weight in curve_trio:
        curve = weight.curve
        for idx in (None, np.arange(100, 357), np.arange(0, 40), np.arange(470, 513)):
            expected = dense_related_reference(curve, grid, idx)
            assert np.array_equal(assemble_related_matrix(curve, grid, idx), expected)
            b = 1.0 + 1j * eval_slope(curve, grid.nodes() if idx is None else grid.nodes()[idx])
            assert np.array_equal(assemble_cauchy_matrix(curve, grid, idx),
                                  expected * b[None, :])


def test_assembly_rejects_non_contiguous_idx(tent_weight):
    grid = std_grid(128)
    for idx in (np.array([3, 5, 6]), np.arange(10, 0, -1), np.arange(120, 130),
                np.arange(-2, 5), np.arange(0)):
        with pytest.raises(PreconditionError):
            assemble_related_matrix(tent_weight.curve, grid, idx)


def test_one_row_values_are_the_node_value(curve_trio):
    grid = std_grid(512)
    rng = np.random.default_rng(11)
    for _, weight in curve_trio:
        f = random_support_function(rng, grid)
        rows = np.array([0, 37, 256, 300, grid.count - 1])
        values = related_cauchy_values(weight.curve, f, rows)
        for i, value in zip(rows, values):
            # a one-row block may round differently from a five-row one
            one = related_cauchy_values(weight.curve, f, np.array([grid.index_of(grid.node(i))]))
            assert one[0] == pytest.approx(value, rel=1e-13)
        with pytest.raises(PreconditionError):
            grid.index_of(grid.node(37) + 0.4 * grid.spacing)
        with pytest.raises(PreconditionError):
            grid.index_of(grid.right + grid.spacing)


LINE = make_curve([], [0.5], 0.0)
EXACT_GRID = UniformGrid(-8.0, 1.0 / 128.0, 2049)


def _step(curve, grid, nodes):
    points = cauchy._curve_points(curve, grid.left + grid.spacing * nodes)
    return cauchy._progression_step(points)


def _toeplitz_chunks(monkeypatch, curve, grid, rows, lo, hi):
    """Run ``_kernel_blocks``, check every block against the strided
    construction by bytes, and return the first row node of every chunk and
    of the chunks that took the Toeplitz path."""
    taken = []
    toeplitz_block = cauchy._toeplitz_block

    def spy(zy, zr, offset, block):
        taken.append(lo + offset)
        toeplitz_block(zy, zr, offset, block)

    monkeypatch.setattr(cauchy, "_toeplitz_block", spy)
    got = [(r0, block[0].copy()) for _, _, r0, _, block in
           cauchy._kernel_blocks(curve, grid.left, grid.spacing, rows[None], np.array([lo]),
                                 hi - lo)]
    want = strided_kernel_blocks(curve, grid, rows, lo, hi, cauchy._CHUNK_ENTRIES)
    for (r0, block), (w0, _, reference) in zip(got, want, strict=True):
        assert r0 == w0 and block.tobytes() == reference.tobytes()
    return [int(rows[r0]) for r0, _ in got], taken


def test_progression_certificate_accepts_straight_pieces(flat_weight, tent_weight):
    h = 1.0 / 128.0
    tent = tent_weight.curve
    with np.errstate(all="raise"):
        assert _step(flat_weight.curve, EXACT_GRID, np.arange(2049)) == complex(h, 0.0)
        assert _step(LINE, EXACT_GRID, np.arange(2049)) == complex(h, h / 2)
        assert _step(tent, EXACT_GRID, np.arange(0, 1025)) == complex(h, h)
        assert _step(tent, EXACT_GRID, np.arange(1024, 2049)) == complex(h, -h)
        # the kink is node 1024
        assert _step(tent, EXACT_GRID, np.arange(1000, 1100)) is None
        assert _step(tent, EXACT_GRID, np.arange(1023, 1026)) is None
        assert _step(flat_weight.curve, EXACT_GRID, np.arange(5)) is not None
        assert _step(flat_weight.curve, EXACT_GRID, np.arange(1)) is None


@pytest.mark.parametrize("left, spacing", [(-0.63, 1 / 8), (-3.3, 0.0875), (12345.678, 0.0375)])
def test_progression_certificate_rejects_inexact_placements(flat_weight, left, spacing):
    grid = UniformGrid(left, spacing, 2049)
    with np.errstate(all="raise"):
        for curve in (flat_weight.curve, LINE):
            assert _step(curve, grid, np.arange(2049)) is None


def test_toeplitz_path_rejects_an_inexact_step_equal_to_the_rows_step(monkeypatch,
                                                                      flat_weight):
    # x_2 - x_1 = 0.513 - 0.213 rounds to the exact step x_7 - x_6, with a
    # TwoSum error of -2.8e-17, and a Toeplitz block would differ in its bytes
    grid = UniformGrid(-0.087, 0.3, 400)
    assert _step(flat_weight.curve, grid, np.arange(1, 3)) is None
    assert _step(flat_weight.curve, grid, np.arange(6, 8)) == 0.30000000000000004
    monkeypatch.setattr(cauchy, "_CHUNK_ENTRIES", 4)
    assert _toeplitz_chunks(monkeypatch, flat_weight.curve, grid, np.arange(6, 8), 1, 3) == \
        ([6], [])


def test_toeplitz_path_rejects_a_kink_and_a_gap_in_the_rows(monkeypatch, flat_weight,
                                                            tent_weight):
    # 255 rows per chunk of 1025 columns; the second chunk straddles the kink
    with np.errstate(all="raise"):
        starts, taken = _toeplitz_chunks(monkeypatch, tent_weight.curve, EXACT_GRID,
                                         np.arange(700, 1100), 0, 1025)
    assert starts == [700, 955] and taken == [700]
    # node 800 is missing from the second chunk's rows
    rows = np.delete(np.arange(400, 1300), 400)
    with np.errstate(all="raise"):
        starts, taken = _toeplitz_chunks(monkeypatch, flat_weight.curve, EXACT_GRID,
                                         rows, 0, 1025)
    assert starts == [400, 655, 911, 1166] and taken == [400, 911, 1166]


def test_toeplitz_path_raises_nothing_at_large_coordinates(monkeypatch):
    # nodes of about 1e150: an exact placement (dyadic) and an inexact one
    for left, spacing, fast in ((2.0 ** 500, 2.0 ** 450, True), (1.3e150, 7.1e136, False)):
        grid = UniformGrid(left, spacing, 600)
        with np.errstate(all="raise"):
            starts, taken = _toeplitz_chunks(monkeypatch, LINE, grid, np.arange(600), 0, 600)
        assert taken == (starts if fast else [])


@pytest.mark.parametrize("curve", [make_curve([], [0.0], 0.0), LINE], ids=["flat", "line"])
def test_toeplitz_path_gives_the_strided_bytes_at_benchmark_scale(monkeypatch, curve):
    grid = EXACT_GRID
    h = grid.spacing
    rng = np.random.default_rng(13)
    f = window_function(rng, grid, 300, 1700)
    rows = np.arange(200, 1900)
    u = rng.standard_normal(rows.size) + 1j * rng.standard_normal(rows.size)

    want = np.zeros(grid.count, dtype=np.complex128)
    want_rows = np.zeros(rows.size, dtype=np.complex128)
    want_paired = np.zeros(1400, dtype=np.complex128)
    for r0, r1, block in strided_kernel_blocks(curve, grid, np.arange(grid.count), 300, 1700,
                                               cauchy._CHUNK_ENTRIES):
        want[r0:r1] = block @ f.values * h
    for r0, r1, block in strided_kernel_blocks(curve, grid, rows, 300, 1700,
                                               cauchy._CHUNK_ENTRIES):
        want_rows[r0:r1] = block @ f.values * h
        want_paired -= u[r0:r1] @ block
    want_paired *= h

    calls = []
    toeplitz_block = cauchy._toeplitz_block
    monkeypatch.setattr(cauchy, "_toeplitz_block",
                        lambda *args: calls.append(1) or toeplitz_block(*args))
    assert apply_related_cauchy(curve, f).samples.tobytes() == want.tobytes()
    assert len(calls) == 11   # every chunk of 187 rows
    got_rows, got_paired = (v[0] for v in cauchy.related_cauchy_groups(
        curve, grid.left, h, rows[None], np.array([300]), f.values[None], u[None]))
    assert got_rows.tobytes() == want_rows.tobytes()
    assert got_paired.tobytes() == want_paired.tobytes()
    assert len(calls) == 11 + 10


@pytest.mark.parametrize("k, n", [(2000, 17), (4, 2081)])
def test_grouped_sums_hold_one_pass_of_kernel_blocks(tent_weight, k, n):
    # 2000 blocks of 17 x 17 take three passes, and a 2081 x 2081 block fills
    # a pass alone and is cut into row chunks: one pass of at most
    # _CHUNK_ENTRIES entries is alive at a time, beside the outputs
    left = np.array([-8.0 + i / 16.0 for i in range(k)])
    rows = np.tile(np.arange(n), (k, 1))
    lo = np.full(k, 4)
    rng = np.random.default_rng(5)
    f, paired = (rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))
                 for _ in range(2))
    tracemalloc.start()
    try:
        cauchy.related_cauchy_groups(tent_weight.curve, left, 1.0 / 128.0, rows, lo, f, paired)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * 16 * cauchy._CHUNK_ENTRIES + 16 * k * (n + n)


def test_slope_node_sums_keep_to_the_size_of_their_output():
    # 209,952 ranges, as many as a 4-stage run's last summary, on one grid
    # each near the rough curve's breakpoints, a third of them crossing some:
    # the form with (ranges x breakpoints) arrays peaked at 210 MiB on them,
    # this one at 27 MiB, for an output of 1.6 MiB
    curve = rough_curve(0)
    n = 209_952
    rng = np.random.default_rng(1)
    spacing = rng.choice([1 / 8, 0.1, 1 / 3], n)
    left = rng.choice(curve.breakpoints, n) + rng.integers(-64, 64, n) - 512 * spacing
    lo = rng.integers(0, 512, n)
    hi = lo + rng.integers(1, 513, n)
    count = np.full(n, 1025)
    tracemalloc.start()
    try:
        sums = cauchy.slope_node_sums(curve, left, spacing, count, lo, hi)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sums.shape == (n,) and np.all(np.isfinite(sums))
    assert peak < 40 * 2 ** 20
