import numpy as np
import pytest

from cauchylab import (GridFunction, Interval, PreconditionError, UniformGrid,
                       apply_cauchy, apply_cauchy_adjoint, apply_related_cauchy,
                       assemble_cauchy_matrix, assemble_related_matrix, eval_A,
                       eval_b, eval_slope, indicator, kernel_bounds_check,
                       lp_norm, pair, related_cauchy_at, related_kernel_values)
from cauchylab.cauchy import related_cauchy_values

from conftest import random_support_function, std_grid, window_function


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


def test_related_cauchy_at_is_the_node_value(curve_trio):
    grid = std_grid(512)
    rng = np.random.default_rng(11)
    for _, weight in curve_trio:
        f = random_support_function(rng, grid)
        rows = np.array([0, 37, 256, 300, grid.count - 1])
        values = related_cauchy_values(weight.curve, f, rows)
        for i, value in zip(rows, values):
            # a one-row block may round differently from a five-row one
            assert related_cauchy_at(weight.curve, f, grid.node(i)) == \
                pytest.approx(value, rel=1e-13)
        with pytest.raises(PreconditionError):
            related_cauchy_at(weight.curve, f, grid.node(37) + 0.4 * grid.spacing)
        with pytest.raises(PreconditionError):
            related_cauchy_at(weight.curve, f, grid.right + grid.spacing)
