import math

import numpy as np
import pytest

from cauchylab import (GridFunction, Interval, PreconditionError, UniformGrid,
                       indicator, integrate, lp_norm, pair, write_function_csv)

from conftest import random_support_function, std_grid, window_function

SQRT_PI = 1.7724538509055159  # refined-grid oracle value, spacing 1/8192


def test_indicator_integral_within_one_cell():
    grid = UniformGrid(-4.0, 1.0 / 256.0, 2049)
    chi = indicator(grid, Interval(0.5, 0.5))
    assert abs(integrate(chi) - 1.0) <= grid.spacing + 1e-12


def test_linear_ramp_integral():
    grid = UniformGrid(-4.0, 1.0 / 256.0, 2049)
    xs = grid.nodes()
    samples = np.where((xs >= 0.0) & (xs <= 1.0), xs, 0.0).astype(np.complex128)
    f = GridFunction(grid, samples, Interval(0.5, 0.5))
    assert abs(integrate(f) - 0.5) <= grid.spacing + 1e-12


def test_gaussian_integral_matches_refined_oracle():
    grid = UniformGrid(-8.0, 1.0 / 512.0, 8193)
    xs = grid.nodes()
    f = GridFunction(grid, np.exp(-xs ** 2).astype(np.complex128),
                     grid.covering_interval())
    # independent oracle: same integrand at spacing 1/8192
    fine = np.linspace(-8.0, 8.0, 8192 * 16 + 1)
    vals = np.exp(-fine ** 2)
    oracle = (np.sum(vals) - 0.5 * (vals[0] + vals[-1])) * (fine[1] - fine[0])
    assert abs(oracle - SQRT_PI) < 1e-10
    assert abs(integrate(f) - oracle) < 1e-6


def test_l2_norm_of_indicator():
    grid = UniformGrid(-4.0, 1.0 / 256.0, 2049)
    chi = indicator(grid, Interval(0.5, 0.5))
    assert abs(lp_norm(chi, 2) - 1.0) <= grid.spacing + 1e-12


def test_lp_homogeneity_exact():
    grid = std_grid(512)
    rng = np.random.default_rng(1)
    f = random_support_function(rng, grid)
    c = 2.5 - 1.25j
    for p in (1, 2, 3.5, math.inf):
        assert lp_norm(f.scaled(c), p) == pytest.approx(abs(c) * lp_norm(f, p),
                                                        rel=1e-13)


def test_linf_norm_of_indicator():
    grid = std_grid(512)
    chi = indicator(grid, Interval(2.0, 2.0))
    assert lp_norm(chi, math.inf) == 1.0


def test_lp_rejects_bad_exponent():
    grid = std_grid(128)
    chi = indicator(grid, Interval(0.0, 1.0))
    with pytest.raises(PreconditionError):
        lp_norm(chi, 0.5)


def test_pairing_indicator_and_symmetry():
    grid = UniformGrid(-4.0, 1.0 / 256.0, 2049)
    chi = indicator(grid, Interval(0.5, 0.5))
    assert abs(pair(chi, chi) - 1.0) <= grid.spacing + 1e-12
    rng = np.random.default_rng(2)
    f = random_support_function(rng, grid)
    g = random_support_function(rng, grid)
    assert pair(f, g) == pair(g, f)
    assert pair(f.scaled(1j), g) == pytest.approx(1j * pair(f, g), rel=1e-13)


def test_pair_equals_integral_of_product():
    grid = std_grid(512)
    rng = np.random.default_rng(3)
    f = random_support_function(rng, grid)
    g = random_support_function(rng, grid)
    product = GridFunction(grid, f.samples * g.samples,
                           f.support.hull(g.support))
    assert pair(f, g) == integrate(product)


def test_pair_equals_integral_of_overlapping_product():
    # the seeds whose supports overlap; the two sums run over different
    # windows, so they agree to rounding, not bit for bit
    grid = std_grid(512)
    overlapping = 0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        f = random_support_function(rng, grid)
        g = random_support_function(rng, grid)
        product = f.samples * g.samples
        if not np.any(product):
            continue
        overlapping += 1
        integral = integrate(GridFunction(grid, product, f.support.hull(g.support)))
        assert abs(pair(f, g) - integral) <= 1e-14 * lp_norm(f, 2) * lp_norm(g, 2)
    assert overlapping >= 50


def test_integrate_additive():
    grid = std_grid(512)
    rng = np.random.default_rng(4)
    f = random_support_function(rng, grid)
    g = random_support_function(rng, grid)
    scale = abs(integrate(f)) + abs(integrate(g)) + 1.0
    assert abs(integrate(f + g) - integrate(f) - integrate(g)) <= 1e-12 * scale


def test_lp_triangle_inequality():
    grid = std_grid(512)
    rng = np.random.default_rng(5)
    for _ in range(10):
        f = random_support_function(rng, grid)
        g = random_support_function(rng, grid)
        for p in (1, 2, 4):
            assert lp_norm(f + g, p) <= lp_norm(f, p) + lp_norm(g, p) + 1e-12


def test_support_validation():
    grid = std_grid(128)
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[0] = 1.0
    with pytest.raises(PreconditionError):
        GridFunction(grid, samples, Interval(4.0, 1.0))


def test_csv_export(tmp_path):
    grid = std_grid(64)
    chi = indicator(grid, Interval(0.0, 2.0))
    path = tmp_path / "f.csv"
    write_function_csv(chi, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "x,re,im"
    assert len(lines) == grid.count + 1


def test_interval_membership_is_strict():
    box = Interval(1.0, 2.0)
    assert box.contains(2.99)
    assert not box.contains(3.0)
    assert not box.contains(-1.0)
    assert box.length == 4.0


def test_windowed_reductions_match_full_array_formulas():
    grid = std_grid(512)
    rng = np.random.default_rng(6)
    n = grid.count
    funcs = [random_support_function(rng, grid) for _ in range(5)]
    # supports reaching the grid ends exercise the trapezoid end corrections
    funcs += [window_function(rng, grid, 0, 40), window_function(rng, grid, n - 40, n),
              window_function(rng, grid, 0, n)]
    for f in funcs:
        s = f.samples
        mags = np.abs(s)
        full_integral = (np.sum(s) - 0.5 * (s[0] + s[-1])) * grid.spacing
        assert integrate(f) == pytest.approx(full_integral, rel=1e-13)
        for p in (1, 2, 3):
            full = float(np.sum(mags ** p) * grid.spacing) ** (1.0 / p)
            assert lp_norm(f, p) == pytest.approx(full, rel=1e-13)
        assert lp_norm(f, math.inf) == float(np.max(mags))
        assert f.sup_norm() == float(np.max(mags))


def test_support_validation_reads_both_sides_and_nan():
    grid = std_grid(128)
    for index, value in ((0, 1.0), (grid.count - 1, 1j), (3, np.nan),
                         (grid.count - 2, complex(0.0, np.nan))):
        samples = np.zeros(grid.count, dtype=np.complex128)
        samples[index] = value
        with pytest.raises(PreconditionError):
            GridFunction(grid, samples, Interval(0.0, 1.0))


def test_vanishes_outside_reads_the_gap():
    grid = std_grid(256)
    rng = np.random.default_rng(7)
    f = window_function(rng, grid, 20, 200)
    assert f.vanishes_outside((20, 200))
    assert f.vanishes_outside((10, 120), (100, 230))
    assert not f.vanishes_outside((20, 60), (80, 200))   # gap 60..79 is nonzero
    samples = f.samples.copy()
    samples[60:80] = 0.0
    gapped = GridFunction(grid, samples, f.support)
    assert gapped.vanishes_outside((80, 200), (20, 60))
    samples = samples.copy()
    samples[70] = np.nan
    assert not GridFunction(grid, samples, f.support).vanishes_outside((20, 60), (80, 200))


def test_pair_matches_full_array_trapezoid():
    grid = std_grid(512)
    rng = np.random.default_rng(8)
    n = grid.count
    layouts = [((40, 120), (200, 300)),       # disjoint
               ((40, 200), (150, 300)),       # overlapping
               ((40, 400), (100, 180)),       # nested
               ((0, 90), (0, 60)),            # both at the left end
               ((n - 90, n), (n - 200, n)),   # both at the right end
               ((0, n), (300, n))]
    for (a, b), (c, d) in layouts:
        f = window_function(rng, grid, a, b)
        g = window_function(rng, grid, c, d)
        prod = f.samples * g.samples
        full = (np.sum(prod) - 0.5 * (prod[0] + prod[-1])) * grid.spacing
        if b <= c:
            assert pair(f, g) == 0j and full == 0
        else:
            assert pair(f, g) == pytest.approx(full, rel=1e-14)


def test_function_csv_fields_parse_as_floats(tmp_path):
    grid = std_grid(64)
    rng = np.random.default_rng(9)
    path = tmp_path / "f.csv"
    write_function_csv(window_function(rng, grid, 10, 50), path)
    rows = [line.split(",") for line in path.read_text().strip().split("\n")[1:]]
    assert len(rows) == grid.count
    assert all(len(row) == 3 for row in rows)
    values = [[float(v) for v in row] for row in rows]
    assert values[0][0] == grid.left


@pytest.mark.parametrize("left,spacing,count", [
    (math.nan, 0.1, 10), (math.inf, 0.1, 10), (-math.inf, 0.1, 10), (1e308, 1e307, 100),
])
def test_grid_ends_must_be_finite(left, spacing, count):
    with pytest.raises(PreconditionError, match="finite"):
        UniformGrid(left, spacing, count)


def test_library_results_vanish_outside_their_support():
    # scaled and indicator are written from a window, with no scan; the
    # samples still match the full-array construction bit for bit
    grid = std_grid(256)
    rng = np.random.default_rng(10)
    f = window_function(rng, grid, 30, 90)
    scaled = f.scaled(0.3 - 2.0j)
    full = np.zeros(grid.count, dtype=np.complex128)
    full[30:90] = f.samples[30:90] * (0.3 - 2.0j)
    assert scaled.samples.tobytes() == full.tobytes()
    assert scaled.support_range() == f.support_range()
    chi = indicator(grid, Interval(0.5, 1.0))
    lo, hi = grid.index_range(Interval(0.5, 1.0))
    full = np.zeros(grid.count, dtype=np.complex128)
    full[lo:hi] = 1.0
    assert chi.samples.tobytes() == full.tobytes()
    assert not chi.samples.flags.writeable
