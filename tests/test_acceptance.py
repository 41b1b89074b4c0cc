"""Acceptance suite: one test per criterion, each printing a pass line.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import time

import numpy as np

from cauchylab import (CommutatorSpec, GridFunction, Interval, UniformGrid,
                       apply_cauchy, apply_cauchy_adjoint, apply_related_cauchy,
                       approx_factor_atom, commutator_norm_estimate,
                       compactness_profile, containment_index,
                       decompose_two_bump, estimate_residual_h1b, indicator,
                       lp_norm, make_test_atom, make_two_bump_input, pair,
                       pi_b, pi_classic, reconstruction_error, residual,
                       single_two_bump_initial, two_bump_norm_bound,
                       vmo_profile, weak_factorize, apply_commutator, bmo_norm)
from cauchylab.cauchy import weight_values
from cauchylab.spaces import ATOM_TOL
from cauchylab.symbols import (clamped_log, correlation_gallery, smooth_bump,
                               weighted_symbol)

from conftest import random_support_function, two_bump_host_grid


def _report(num, detail):
    print(f"\n[PASS] criterion {num}: {detail}")


def _indicator_error(curve, grid):
    f = indicator(grid, Interval(0.0, 1.0))
    out = apply_related_cauchy(curve, f)
    xs = grid.nodes()
    keep = np.abs(np.abs(xs) - 1.0) > 0.1
    oracle = 1j / np.pi * np.log(np.abs((xs[keep] + 1.0) / (xs[keep] - 1.0)))
    valid = np.abs(oracle) > 1e-12
    return float(np.max(np.abs(out.samples[keep][valid] - oracle[valid])
                        / np.abs(oracle[valid])))


def test_criterion_1_flat_curve_oracle(flat_weight):
    start = time.perf_counter()
    coarse = _indicator_error(flat_weight.curve, UniformGrid(-8.0, 1 / 256, 4097))
    fine = _indicator_error(flat_weight.curve, UniformGrid(-8.0, 1 / 512, 8193))
    elapsed = time.perf_counter() - start
    assert coarse <= 2e-2
    assert coarse / fine >= 1.5
    assert elapsed < 10.0
    _report(1, f"max rel err {coarse:.2e} (<= 2e-2), refinement gain "
               f"{coarse / fine:.2f}x (>= 1.5), {elapsed:.1f}s (< 10s)")


def test_criterion_2_adjoint_and_pairing(curve_trio):
    rng = np.random.default_rng(101)
    grid = UniformGrid(-8.0, 1 / 128, 2049)
    worst_rel = worst_adj = 0.0
    for _, weight in curve_trio:
        for _ in range(20):
            f = random_support_function(rng, grid)
            g = random_support_function(rng, grid)
            scale = lp_norm(f, 2) * lp_norm(g, 2)
            anti = abs(pair(apply_related_cauchy(weight.curve, f), g)
                       + pair(f, apply_related_cauchy(weight.curve, g)))
            adj = abs(pair(apply_cauchy(weight.curve, f), g)
                      - pair(f, apply_cauchy_adjoint(weight.curve, g)))
            worst_rel = max(worst_rel, anti / scale)
            worst_adj = max(worst_adj, adj / scale)
    assert worst_rel <= 1e-6
    assert worst_adj <= 1e-6
    _report(2, f"antisymmetry defect {worst_rel:.1e}, adjoint defect "
               f"{worst_adj:.1e} (both <= 1e-6) over 20 pairs x 3 curves")


def test_criterion_3_cancellation_and_conversion(curve_trio):
    rng = np.random.default_rng(102)
    grid = UniformGrid(-8.0, 1 / 128, 2049)
    worst_cancel = worst_conv = 0.0
    for _, weight in curve_trio:
        b = weight_values(weight.curve, grid)
        for _ in range(20):
            g = random_support_function(rng, grid)
            h = random_support_function(rng, grid)
            form = pi_b(weight, g, h)
            weighted = GridFunction(grid, form.samples * b, form.support)
            from cauchylab import integrate
            worst_cancel = max(worst_cancel, abs(integrate(weighted))
                               / (lp_norm(g, 2) * lp_norm(h, 2)))
            h_div = GridFunction(grid, h.samples / b, h.support)
            lhs = pi_classic(weight, g, h).samples / b
            rhs = pi_b(weight, g, h_div).samples
            scale = max(float(np.max(np.abs(rhs))), 1e-300)
            worst_conv = max(worst_conv, float(np.max(np.abs(lhs - rhs))) / scale)
    assert worst_cancel <= 1e-4
    assert worst_conv <= 1e-10
    _report(3, f"cancellation {worst_cancel:.1e} (<= 1e-4), conversion "
               f"{worst_conv:.1e} (<= 1e-10)")


def test_criterion_4_two_bump_decomposition(curve_trio):
    ratios = []
    for name, weight in curve_trio:
        for m in (128, 256, 512, 1024):
            r = 1.0
            grid = two_bump_host_grid(0.0, m * r, r, r / 4)
            f = make_two_bump_input(weight, grid, 0.0, m * r, r)
            dec = decompose_two_bump(weight, f)
            assert reconstruction_error(dec, f) <= 1e-10
            assert dec.summary.accepted().all()
            assert ATOM_TOL == 1e-8
            cap = 6.0 * weight.sup_norm + 1e-6
            assert np.all(np.abs(dec.coefficient) <= cap)
            assert dec.i0 == containment_index(m)
            assert len(dec.coefficient) == 2 * (dec.i0 + 1)
            ratios.append(two_bump_norm_bound(dec) / np.log2(m))
    assert max(ratios) <= 2.0 * min(ratios)
    _report(4, f"reconstruction exact, certificates accepted, coefficients "
               f"bounded; sum/log2(M) in [{min(ratios):.2f}, {max(ratios):.2f}] "
               f"(factor {max(ratios) / min(ratios):.2f} <= 2)")


def test_criterion_5_approximate_factorization(flat_weight):
    r = 1.0
    sweep = (128, 256, 512, 1024, 2048, 4096)

    def constants(spacing):
        sup_consts, est_consts, norm_consts = [], [], []
        for m in sweep:
            grid = two_bump_host_grid(0.0, m * r, r, spacing)
            atom = make_test_atom(flat_weight, grid, 0.0, r)
            fp = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=m)
            certified = residual(flat_weight, atom, fp)
            sup_consts.append(certified.sup * m * r)
            est = estimate_residual_h1b(flat_weight, certified)
            est_consts.append(est * m / np.log2(m))
            norm_consts.append(fp.g_l2 * fp.h_l2 / m)
        return max(sup_consts), max(est_consts), max(norm_consts)

    sup_c, est_c, norm_c = constants(r / 8)
    assert sup_c <= 10.0
    assert est_c <= 120.0
    sup2, est2, norm2 = constants(r / 16)
    assert abs(est2 - est_c) <= 0.3 * max(est_c, est2)
    assert norm_c <= 2.0 * np.pi and norm2 <= 2.0 * np.pi
    _report(5, f"sup*Mr <= {sup_c:.2f} (<= 10), est*M/log2M <= {est_c:.2f} "
               f"(<= 120, refined {est2:.2f}, drift "
               f"{abs(est2 - est_c) / max(est_c, est2):.0%} <= 30%), "
               f"|g||h|/M <= {norm_c:.2f}")


def test_criterion_6_weak_factorization(flat_weight, tent_weight):
    eps, stages = 0.05, 4
    for name, weight in (("flat", flat_weight), ("tent", tent_weight)):
        start = time.perf_counter()
        initial = single_two_bump_initial(weight, 0.0, 128, 1.0)
        wf = weak_factorize(weight, initial, eps, stages)
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0
        trace = wf.residual_trace
        assert len(trace) == stages
        assert all(trace[i + 1] < trace[i] for i in range(len(trace) - 1))
        assert trace[0] < wf.initial_estimate
        cap = eps * wf.c0_measured + 0.05
        assert all(rho <= cap for rho in wf.contraction_ratios())
        assert not wf.non_contracting
        bound = wf.c0_measured / (1.0 - eps * wf.c0_measured) * wf.initial_estimate
        assert wf.lambda_l1() <= bound
        assert np.isfinite(wf.lambda_pair_weighted())
        _report(6, f"{name}: trace {['%.3g' % t for t in trace]}, ratios <= "
                   f"{max(wf.contraction_ratios()):.3f} (cap {cap:.3f}), "
                   f"l1 {wf.lambda_l1():.1f} <= {bound:.1f}, {elapsed:.0f}s < 60s")


def test_criterion_7_duality(curve_trio):
    rng = np.random.default_rng(107)
    grid = UniformGrid(-8.0, 1 / 128, 2049)
    worst = 0.0
    for _, weight in curve_trio:
        symbol = weighted_symbol(weight, smooth_bump(grid))
        spec = CommutatorSpec(symbol, weight)
        for _ in range(20):
            g = random_support_function(rng, grid)
            h = random_support_function(rng, grid)
            lhs = pair(symbol, pi_b(weight, g, h))
            rhs = pair(g, apply_commutator(spec, h))
            worst = max(worst, abs(lhs - rhs) / (lp_norm(g, 2) * lp_norm(h, 2)))
    assert worst <= 1e-4
    _report(7, f"duality defect {worst:.1e} (<= 1e-4) over 20 cases x 3 curves")


def test_criterion_8_commutator_bmo_correlation(flat_weight, tent_weight):
    grid = UniformGrid(-8.0, 16.0 / 2048, 2049)

    def spearman(a, b):
        ra = np.argsort(np.argsort(a)).astype(float)
        rb = np.argsort(np.argsort(b)).astype(float)
        ra -= ra.mean()
        rb -= rb.mean()
        return float(np.sum(ra * rb) / np.sqrt(np.sum(ra ** 2) * np.sum(rb ** 2)))

    rhos = []
    for name, weight in (("flat", flat_weight), ("tent", tent_weight)):
        bmos, ests = [], []
        for idx, (_, phi) in enumerate(correlation_gallery(grid)):
            spec = CommutatorSpec(weighted_symbol(weight, phi), weight)
            ests.append(commutator_norm_estimate(spec, 2, 2, seed=200 + idx))
            bmos.append(bmo_norm(phi, 10))
        rhos.append(spearman(np.array(bmos), np.array(ests)))
        b = weight_values(weight.curve, grid)
        const = GridFunction(grid, 2.0 * b, grid.covering_interval())
        assert commutator_norm_estimate(CommutatorSpec(const, weight), 2, 2,
                                        seed=3) <= 1e-8
    assert all(rho >= 0.8 for rho in rhos)
    _report(8, f"Spearman flat {rhos[0]:.2f}, tent {rhos[1]:.2f} (>= 0.8); "
               f"constant symbol at the iteration floor")


def test_criterion_9_compactness_proxy(flat_weight):
    window = Interval(0.0, 4.0)
    ratios = {}
    for n in (2048, 4096):
        grid = UniformGrid(-8.0, 16.0 / n, n + 1)
        smooth = compactness_profile(
            CommutatorSpec(weighted_symbol(flat_weight, smooth_bump(grid)),
                           flat_weight), window, 12)
        logp = compactness_profile(
            CommutatorSpec(weighted_symbol(flat_weight, clamped_log(grid)),
                           flat_weight), window, 12)
        ratios[n] = (smooth[9] / smooth[0], logp[9] / logp[0])
        assert ratios[n][0] <= 1e-1
        assert ratios[n][1] >= 5.0 * ratios[n][0]
    _report(9, f"sigma10/sigma1 smooth/log: N=2048 "
               f"{ratios[2048][0]:.1e}/{ratios[2048][1]:.1e}, N=4096 "
               f"{ratios[4096][0]:.1e}/{ratios[4096][1]:.1e} (separation "
               f"persists)")


def test_criterion_10_vmo_profile(flat_weight):
    grid = UniformGrid(-32.0, 1 / 32, 2049)
    scales = [0.5, 1.0, 2.0, 4.0, 8.0, 16.0]

    smooth = vmo_profile(smooth_bump(grid, 1.0, 1.0), scales)
    small = [v for _, v in smooth.small_scale]      # limit at index 0
    assert all(small[i] <= small[i + 1] + 1e-12 for i in range(len(small) - 1))
    assert small[0] <= 0.35 * small[-1]
    large = [v for _, v in smooth.large_scale]      # limit at the last index
    assert all(large[i + 1] <= large[i] + 1e-12 for i in range(len(large) - 1))
    assert large[-1] <= 0.35 * large[0]
    far = [v for _, v in smooth.far_field]
    assert all(far[i + 1] <= far[i] + 1e-12 for i in range(len(far) - 1))
    assert far[-1] <= 1e-12

    # the log symbol keeps its oscillation at small scales; resolve them
    # on the finer standard grid so the clamp floor sits far below the
    # smallest window
    fine = UniformGrid(-8.0, 16.0 / 2048, 2049)
    log_report = vmo_profile(clamped_log(fine), [0.25, 0.5, 1.0, 2.0, 4.0])
    log_small = [v for _, v in log_report.small_scale]
    assert log_small[0] >= 0.5 * log_small[-1]
    _report(10, f"smooth limits {small[0]:.3f}/{large[-1]:.3f}/{far[-1]:.1e} "
                f"all shrinking; log small-scale floor "
                f"{log_small[0] / log_small[-1]:.0%} >= 50%")
