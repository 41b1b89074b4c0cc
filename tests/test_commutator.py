import numpy as np
import pytest

from cauchylab import (AccretiveWeight, CommutatorSpec, GridFunction, Interval,
                       PreconditionError, apply_commutator, commutator_matrix,
                       commutator_norm_estimate, compactness_profile, make_curve)
from cauchylab import cauchy
from cauchylab.cauchy import apply_related_cauchy, assemble_cauchy_matrix, weight_values
from cauchylab.symbols import (clamped_log, correlation_gallery, smooth_bump,
                               weighted_symbol)

from conftest import random_support_function, std_grid


def constant_symbol(grid, weight, value=2.0):
    b = weight_values(weight.curve, grid)
    return GridFunction(grid, value * b, grid.covering_interval())


def test_constant_symbol_commutes(tent_weight):
    grid = std_grid(512)
    spec = CommutatorSpec(constant_symbol(grid, tent_weight), tent_weight)
    rng = np.random.default_rng(41)
    f = random_support_function(rng, grid)
    assert np.all(apply_commutator(spec, f).samples == 0)
    assert commutator_norm_estimate(spec, 2, 2, seed=1) <= 1e-8


def test_negative_seed_is_a_precondition_error(tent_weight):
    grid = std_grid(64)
    spec = CommutatorSpec(weighted_symbol(tent_weight, smooth_bump(grid)), tent_weight)
    with pytest.raises(PreconditionError, match="seed"):
        commutator_norm_estimate(spec, 2, 1, seed=-1)
    with pytest.raises(PreconditionError, match="seed"):
        cauchy.kernel_bounds_check(tent_weight.curve, 10, seed=-1)


def test_transfer_identity(curve_trio):
    rng = np.random.default_rng(42)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        symbol = weighted_symbol(weight, smooth_bump(grid))
        spec = CommutatorSpec(symbol, weight)
        phi = spec.divided_symbol()
        b = weight_values(weight.curve, grid)
        for _ in range(3):
            f = random_support_function(rng, grid)
            bf = GridFunction(grid, b * f.samples, f.support)
            phi_bf = GridFunction(grid, phi * bf.samples, f.support)
            lhs = apply_commutator(spec, f).samples
            rhs = (phi * apply_related_cauchy(weight.curve, bf).samples
                   - apply_related_cauchy(weight.curve, phi_bf).samples)
            scale = max(np.max(np.abs(lhs)), 1e-300)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_commutator_linear_in_argument_and_symbol(tent_weight):
    grid = std_grid(512)
    rng = np.random.default_rng(43)
    phi = smooth_bump(grid)
    spec = CommutatorSpec(weighted_symbol(tent_weight, phi), tent_weight)
    f = random_support_function(rng, grid)
    g = random_support_function(rng, grid)
    a, c = 0.5 + 1.5j, -2.0 + 0.25j
    lhs = apply_commutator(spec, f.scaled(a) + g.scaled(c)).samples
    rhs = a * apply_commutator(spec, f).samples + c * apply_commutator(spec, g).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(np.max(np.abs(rhs)), 1e-300)
    spec3 = CommutatorSpec(weighted_symbol(tent_weight, phi.scaled(3.0)),
                           tent_weight)
    lhs3 = apply_commutator(spec3, f).samples
    rhs3 = 3.0 * apply_commutator(spec, f).samples
    assert np.max(np.abs(lhs3 - rhs3)) <= 1e-12 * max(np.max(np.abs(rhs3)), 1e-300)


def test_norm_estimate_homogeneous_in_symbol(flat_weight):
    grid = std_grid(512)
    phi = smooth_bump(grid)
    base = commutator_norm_estimate(
        CommutatorSpec(weighted_symbol(flat_weight, phi), flat_weight), 2, 1,
        seed=7)
    tripled = commutator_norm_estimate(
        CommutatorSpec(weighted_symbol(flat_weight, phi.scaled(3.0)),
                       flat_weight), 2, 1, seed=7)
    assert tripled == pytest.approx(3.0 * base, rel=1e-10)


def test_norm_estimate_shift_invariant(flat_weight):
    grid = std_grid(512)
    phi = smooth_bump(grid)
    b = weight_values(flat_weight.curve, grid)
    shifted = GridFunction(grid, (phi.samples + 5.0) * b,
                           grid.covering_interval())
    base = commutator_norm_estimate(
        CommutatorSpec(weighted_symbol(flat_weight, phi), flat_weight), 2, 1,
        seed=9)
    moved = commutator_norm_estimate(
        CommutatorSpec(shifted, flat_weight), 2, 1, seed=9)
    assert moved == pytest.approx(base, rel=1e-2)


def test_norm_estimate_matches_svd(tent_weight):
    grid = std_grid(256)
    spec = CommutatorSpec(weighted_symbol(tent_weight, smooth_bump(grid)),
                          tent_weight)
    est = commutator_norm_estimate(spec, 2, 2, seed=5)
    top = np.linalg.svd(commutator_matrix(spec), compute_uv=False)[0]
    assert est == pytest.approx(top, rel=5e-2)


def test_probe_estimate_is_lower_bound(tent_weight):
    grid = std_grid(256)
    spec = CommutatorSpec(weighted_symbol(tent_weight, smooth_bump(grid)),
                          tent_weight)
    probe = commutator_norm_estimate(spec, 4.0, 5, seed=6)
    assert probe > 0
    certified = commutator_norm_estimate(spec, 2, 2, seed=6)
    # crude sanity: the p=4 probe of a bounded operator stays near scale
    assert probe <= 40.0 * certified


def test_compactness_profile_constant_symbol(flat_weight):
    grid = std_grid(512)
    spec = CommutatorSpec(constant_symbol(grid, flat_weight), flat_weight)
    prof = compactness_profile(spec, Interval(0.0, 4.0), 6)
    assert max(prof) <= 1e-14


def _spectral_curve(seed):
    """A curve built like the spectral benchmark's: 8 breakpoints uniform in
    [-6, 6], slopes uniform and scaled so that the largest magnitude is 0.5."""
    rng = np.random.default_rng(seed)
    breakpoints = np.sort(rng.uniform(-6.0, 6.0, 8))
    slopes = rng.uniform(-0.5, 0.5, 9)
    slopes *= 0.5 / np.max(np.abs(slopes))
    return make_curve(breakpoints, slopes, 0.0)


def _no_svd(*args, **kwargs):
    raise AssertionError("the SVD ran where the Gram path was expected")


@pytest.mark.parametrize("curve_name", ["flat", "tent", "seeded"])
def test_gram_path_agrees_with_the_svd(curve_name, flat_weight, tent_weight, monkeypatch):
    # the CLI's grid, window and symbols: a 1025-node window
    weight = {"flat": flat_weight, "tent": tent_weight,
              "seeded": AccretiveWeight(_spectral_curve(0))}[curve_name]
    grid, window = std_grid(2048), Interval(0.0, 4.0)
    idx = np.arange(*grid.index_range(window))
    assert idx.size == 1025
    for phi in (smooth_bump(grid), clamped_log(grid)):
        spec = CommutatorSpec(weighted_symbol(weight, phi), weight)
        want = np.linalg.svd(commutator_matrix(spec, idx), compute_uv=False)[:12]
        with monkeypatch.context() as mp:
            mp.setattr(np.linalg, "svd", _no_svd)
            got = np.array(compactness_profile(spec, window, 12))
        assert np.max(np.abs(got - want) / want) <= 1e-8


def test_gram_guard_falls_back_to_the_svd(flat_weight):
    # the zero matrix of a constant symbol; a rank cap past the rank of a
    # symbol that is constant but at one node of the window (its commutator
    # vanishes outside that node's row and column, so it has rank 2); and a
    # symbol so small that the Gram matrix is subnormal, where its values
    # are off by 2e-6 although sigma_12 / sigma_1 passes the ratio test
    grid, window = std_grid(512), Interval(0.0, 4.0)
    idx = np.arange(*grid.index_range(window))
    spike = constant_symbol(grid, flat_weight).samples.copy()
    spike[idx[100]] = 3.0
    for symbol in (constant_symbol(grid, flat_weight),
                   GridFunction(grid, spike, grid.covering_interval()),
                   weighted_symbol(flat_weight, smooth_bump(grid).scaled(1e-156))):
        spec = CommutatorSpec(symbol, flat_weight)
        want = np.linalg.svd(commutator_matrix(spec, idx), compute_uv=False)[:12]
        got = np.array(compactness_profile(spec, window, 12))
        assert got.tobytes() == want.tobytes()


def test_compactness_separation_small(flat_weight):
    grid = std_grid(1024)
    win = Interval(0.0, 4.0)
    smooth = compactness_profile(
        CommutatorSpec(weighted_symbol(flat_weight, smooth_bump(grid)),
                       flat_weight), win, 12)
    logp = compactness_profile(
        CommutatorSpec(weighted_symbol(flat_weight, clamped_log(grid)),
                       flat_weight), win, 12)
    assert smooth[9] / smooth[0] <= 1e-1
    assert logp[9] / logp[0] >= 5.0 * (smooth[9] / smooth[0])
    assert prof_sorted(smooth) and prof_sorted(logp)


def prof_sorted(values):
    return all(values[i] >= values[i + 1] - 1e-12 for i in range(len(values) - 1))


def _old_commutator_matrix(spec, idx=None):
    """commutator_matrix as one dense expression with two N^2 temporaries."""
    op = assemble_cauchy_matrix(spec.weight.curve, spec.symbol.grid, idx)
    phi = spec.divided_symbol()
    if idx is not None:
        phi = phi[idx]
    return phi[:, None] * op - op * phi[None, :]


def _old_norm_estimate(spec, trials, seed):
    """p = 2 commutator_norm_estimate with a zero-matrix pre-check and the
    adjoint matvec through a conjugated copy."""
    rng = np.random.default_rng(seed)
    matrix = _old_commutator_matrix(spec)
    if float(np.max(np.abs(matrix))) == 0.0:
        return 0.0
    best = 0.0
    for _ in range(trials):
        n = matrix.shape[0]
        v = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        v /= np.linalg.norm(v)
        sigma = 0.0
        for _ in range(800):
            w = matrix @ v
            new_sigma = float(np.linalg.norm(w))
            if new_sigma < 1e-150:
                new_sigma = 0.0
                break
            u = matrix.conj().T @ w
            v = u / np.linalg.norm(u)
            if abs(new_sigma - sigma) <= 1e-3 * max(new_sigma, 1e-150):
                break
            sigma = new_sigma
        best = max(best, new_sigma)
    return best


@pytest.mark.parametrize("block_entries", [None, 700])
def test_commutator_matrix_matches_dense_expression(curve_trio, monkeypatch,
                                                    block_entries):
    if block_entries is not None:   # one row per block at N = 513
        monkeypatch.setattr(cauchy, "_CHUNK_ENTRIES", block_entries)
    grid = std_grid(512)
    lo, hi = grid.index_range(Interval(0.5, 3.0))
    for _, weight in curve_trio:
        for phi in (smooth_bump(grid), clamped_log(grid)):
            spec = CommutatorSpec(weighted_symbol(weight, phi), weight)
            for idx in (None, np.arange(lo, hi)):
                assert np.array_equal(commutator_matrix(spec, idx),
                                      _old_commutator_matrix(spec, idx))


def test_norm_estimate_matches_previous_body(curve_trio):
    grid = std_grid(512)
    for _, weight in curve_trio:
        symbols = [weighted_symbol(weight, phi) for _, phi in correlation_gallery(grid)]
        symbols.append(constant_symbol(grid, weight))
        for seed, symbol in enumerate(symbols):
            spec = CommutatorSpec(symbol, weight)
            assert commutator_norm_estimate(spec, 2, 2, seed=seed) == \
                _old_norm_estimate(spec, 2, seed)
        assert commutator_norm_estimate(spec, 2, 2) == 0.0   # the constant symbol
