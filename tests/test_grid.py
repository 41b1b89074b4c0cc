import math
import types

import numpy as np
import pytest

import cauchylab
from cauchylab import (CommutatorSpec, GridFunction, Interval, PreconditionError, UniformGrid,
                       approx_factor_atom, bmo_norm, cauchy, commutator_norm_estimate,
                       compactness_profile, containment_index, indicator, integrate,
                       kernel_bounds_check, lp_norm, make_test_atom, pair, related_kernel_values,
                       single_two_bump_initial, two_bump_host_grid, vmo_profile,
                       weak_factorize)
from cauchylab.symbols import smooth_bump, weighted_symbol

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


def test_lp_norm_at_large_p_neither_overflows_nor_underflows():
    # |f|^1000 is inf for |f| = 3 and 0 for |f| = 1e-3
    grid = UniformGrid(0.0, 0.5, 9)
    for level in (3.0, 1e-3):
        f = GridFunction(grid, np.full(9, level, dtype=np.complex128), grid.covering_interval())
        assert lp_norm(f, 1000) == pytest.approx(level * 4.5 ** 1e-3, rel=1e-13)


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


def test_pair_matches_full_array_node_sum():
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
        full = np.sum(prod) * grid.spacing
        if b <= c:
            assert pair(f, g) == 0j and full == 0
        else:
            assert pair(f, g) == pytest.approx(full, rel=1e-14)


@pytest.mark.parametrize("left,spacing,count", [
    (math.nan, 0.1, 10), (math.inf, 0.1, 10), (-math.inf, 0.1, 10), (1e308, 1e307, 100),
])
def test_grid_ends_must_be_finite(left, spacing, count):
    with pytest.raises(PreconditionError, match="finite"):
        UniformGrid(left, spacing, count)


@pytest.mark.parametrize("spacing", [5e-324, 1e-308])
def test_count_over_spacing_must_be_finite(spacing):
    # count / spacing bounds every punctured row sum; 65 / 1e-300 still fits
    with pytest.raises(PreconditionError, match="count / spacing"):
        UniformGrid(0.0, spacing, 65)
    assert UniformGrid(0.0, 1e-300, 65).right == 64e-300


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



def _fail_closed_inputs(weight):
    """The objects the fail-closed cases call into: a curve, an atom on a
    two-bump host grid, a commutator spec and a one-term initial
    decomposition."""
    atom = make_test_atom(weight, two_bump_host_grid(0.0, 128.0, 1.0, 0.25), 0.0, 1.0)
    spec = CommutatorSpec(weighted_symbol(weight, smooth_bump(std_grid(64))), weight)
    return weight.curve, atom, spec, single_two_bump_initial(weight, 0.0, 128, 1.0)


def _coincident_kernel(curve, *_):
    """related_kernel_values at coincident pairs and beside them: 0 there,
    and the off-diagonal quotient, bit for bit, everywhere else."""
    x, y = np.array([0.5, -1.0, 3.0]), np.array([0.5, 2.0, 3.0])
    off = cauchy._COEF / (cauchy._curve_points(curve, y[1:2]) - cauchy._curve_points(curve, x[1:2]))
    got = related_kernel_values(curve, x, y)
    return (got.tobytes() == np.array([0j, off[0], 0j]).tobytes()
            and related_kernel_values(curve, 0.5, 0.5) == 0)


def _constant(value, spacing):
    """``value`` (a number, or 41 of them) at each of 41 nodes, the whole grid."""
    grid = UniformGrid(0.0, spacing, 41)
    return GridFunction(grid, np.full(41, value, dtype=complex), grid.covering_interval())


_ALTERNATING = np.resize([1e308, -1e308], 41)


def _huge_sums():
    """lp_norm and integrate of samples whose plain sums overflow but whose
    results fit: the scaled sums, to rounding."""
    f, g = _constant(1e200, 0.25), _constant(1e308, 1 / 64)
    return (lp_norm(f, 2) == pytest.approx(1e200 * math.sqrt(41 / 4), rel=1e-14)
            and lp_norm(g, 1) == pytest.approx(1e308 * (41 / 64), rel=1e-14)
            and integrate(g) == pytest.approx(1e308 * (40 / 64), rel=1e-14))


# Integer arguments that are no integer, non-finite or coincident points, a
# two-bump layout under one cell or one radius, and sums past the float range:
# each raised TypeError, ValueError, OverflowError or IndexError, returned nan
# with a RuntimeWarning, exited 3 or named an internal quantity before the
# library checked them.
FAIL_CLOSED = {
    "grid count 2.5": lambda *_: UniformGrid(0.0, 1.0, 2.5),
    "bmo_norm level nan": lambda curve, atom, *_: bmo_norm(atom, math.nan),
    "bmo_norm level 2.5": lambda curve, atom, *_: bmo_norm(atom, 2.5),
    "commutator trials 1.5": lambda curve, atom, spec, _: commutator_norm_estimate(spec, 2, 1.5),
    "commutator seed 0.5":
        lambda curve, atom, spec, _: commutator_norm_estimate(spec, 2, 1, seed=0.5),
    "kernel bounds trials 2.5": lambda curve, *_: kernel_bounds_check(curve, 2.5),
    "kernel bounds seed 1.5": lambda curve, *_: kernel_bounds_check(curve, 10, seed=1.5),
    "compactness rank cap 1.5":
        lambda curve, atom, spec, _: compactness_profile(spec, Interval(0.0, 4.0), 1.5),
    "weak_factorize stages 1.5":
        lambda curve, atom, spec, initial: weak_factorize(spec.weight, initial, 0.05, 1.5),
    "approx_factor_atom M 128.0": lambda curve, atom, spec, _: approx_factor_atom(
        spec.weight, atom, atom.support, big_m=128.0),
    "single_two_bump_initial M0 128.5":
        lambda curve, atom, spec, _: single_two_bump_initial(spec.weight, 0.0, 128.5, 1.0),
    "containment_index nan": lambda *_: containment_index(math.nan),
    "containment_index inf": lambda *_: containment_index(math.inf),
    "containment_index -5": lambda *_: containment_index(-5),
    "containment_index 0.5": lambda *_: containment_index(0.5),
    "index_of nan": lambda curve, atom, *_: atom.grid.index_of(math.nan),
    "index_of inf": lambda curve, atom, *_: atom.grid.index_of(math.inf),
    "two_bump_host_grid radius under a cell":
        lambda *_: two_bump_host_grid(0.0, 128e-100, 1e-100, 0.25),
    "two_bump_host_grid x0 1e308": lambda *_: two_bump_host_grid(1e308, 1e308 + 128.0, 1.0, 0.25),
    "lp_norm 1e200 samples": lambda *_: _huge_sums(),
    "lp_norm 1e308 samples": lambda *_: lp_norm(_constant(1e308, 0.25), 2),
    "integrate 1e308 samples": lambda *_: integrate(_constant(1e308, 0.25)),
    "pair 1e200 samples": lambda *_: pair(_constant(1e200, 0.25), _constant(1e200, 0.25)),
    "bmo_norm 1e308 samples": lambda *_: bmo_norm(_constant(1e308, 0.25), 3),
    "vmo_profile 1e308 samples": lambda *_: vmo_profile(_constant(1e308, 0.25), [1.0]),
    "bmo_norm alternating 1e308 samples": lambda *_: bmo_norm(_constant(_ALTERNATING, 0.25), 3),
    "vmo_profile alternating 1e308 samples":
        lambda *_: vmo_profile(_constant(_ALTERNATING, 0.25), [1.0]),
    # windows of 10 nodes or more, whose pairwise sums make inf - inf = NaN in every one
    "bmo_norm alternating 1e308 samples level 1":
        lambda *_: bmo_norm(_constant(_ALTERNATING, 0.25), 1),
    "bmo_norm alternating 1e308 samples level 2":
        lambda *_: bmo_norm(_constant(_ALTERNATING, 0.25), 2),
    "vmo_profile alternating 1e308 samples wide windows":  # 16, 31 and 41 nodes
        lambda *_: vmo_profile(_constant(_ALTERNATING, 2.0), [15.0]),
    "related_kernel_values coincident": _coincident_kernel,
    "GridFunction window start 12.5": lambda *_: GridFunction(
        UniformGrid(0.0, 0.25, 41), (12.5, np.ones(3)), Interval(5.0, 2.0)),
    "GridFunction window start 12.0": lambda *_: GridFunction(
        UniformGrid(0.0, 0.25, 41), (12.0, np.ones(3)), Interval(5.0, 2.0)),
}


# the message names the input, not an internal quantity
FAIL_CLOSED_NAMES = {"two_bump_host_grid x0 1e308": "x0=1e[+]308 and y0=1e[+]308"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("case", sorted(FAIL_CLOSED))
def test_integer_and_non_finite_arguments_fail_closed(tent_weight, case):
    inputs = _fail_closed_inputs(tent_weight)
    if case in ("related_kernel_values coincident", "lp_norm 1e200 samples"):
        assert FAIL_CLOSED[case](*inputs)
        return
    with pytest.raises(PreconditionError, match=FAIL_CLOSED_NAMES.get(case)):
        FAIL_CLOSED[case](*inputs)


def test_integer_arguments_take_numpy_integers():
    # the working grids' counts are int64; a float is no count, even a whole one
    assert UniformGrid(0.0, 1.0, np.int64(5)).right == 4.0
    with pytest.raises(PreconditionError, match="grid node count must be an integer >= 2"):
        UniformGrid(0.0, 1.0, np.float64(5.0))


def test_the_package_exports_names_not_submodules():
    # importing the public names binds their submodules in the package too;
    # __all__ lists the names, each of which resolves, and no submodule
    assert len(set(cauchylab.__all__)) == len(cauchylab.__all__) > 0
    for name in cauchylab.__all__:
        assert not isinstance(getattr(cauchylab, name), types.ModuleType), name
