import dataclasses
import functools
import operator
import tracemalloc

import numpy as np
import pytest

from cauchylab import (AccretiveWeight, GridFunction, Interval, PreconditionError, Residual,
                       TwoBump, UniformGrid,
                       approx_factor_atom, make_curve, check_atom, decompose_two_bump,
                       denominator_floor, estimate_residual_h1b, h1_factor_from_h1b,
                       h1b_norm_upper, indicator, lp_norm, make_test_atom,
                       make_two_bump_input, pair, pi_b, pi_classic, residual,
                       select_big_m, single_two_bump_initial, weak_factorize,
                       write_curve_file)
from cauchylab import NumericalCheckError
from cauchylab import atoms as atoms_module
from cauchylab import cauchy as cauchy_module
from cauchylab import factorization as factorization_module
from cauchylab import spaces as spaces_module
from cauchylab.cli import main
from cauchylab.cauchy import related_cauchy_groups, related_cauchy_values, weight_values
from cauchylab.grid import _complex_div, merged_ranges
from cauchylab.spaces import ATOM_TOL, weighted_cancellation

from conftest import (make_random_curve, random_support_function, rough_curve, std_grid,
                      two_bump_host_grid, window_function, windows)


def test_pi_b_zero_second_slot(tent_weight):
    grid = std_grid(512)
    g = indicator(grid, Interval(0.0, 1.0))
    zero = GridFunction(grid, np.zeros(grid.count, complex), Interval(2.0, 1.0))
    assert np.all(pi_b(tent_weight, g, zero).samples == 0)
    assert np.all(pi_classic(tent_weight, g, zero).samples == 0)


def test_pi_b_flat_indicator_oracle(flat_weight):
    grid = UniformGrid(-8.0, 1.0 / 256.0, 4097)
    chi = indicator(grid, Interval(0.0, 1.0))
    out = pi_b(flat_weight, chi, chi)
    xs = grid.nodes()
    keep = (np.abs(xs) < 1.0) & (np.abs(np.abs(xs) - 1.0) > 0.1) & (np.abs(xs) > 0.05)
    oracle = 2j / np.pi * np.log(np.abs((xs[keep] + 1.0) / (xs[keep] - 1.0)))
    err = np.abs(out.samples[keep] - oracle) / np.abs(oracle)
    assert np.max(err) <= 2e-2
    # truncation: identically zero outside the support
    lo, hi = grid.index_range(chi.support)
    assert np.all(out.samples[:lo] == 0) and np.all(out.samples[hi:] == 0)


def test_pi_b_cancellation_random(curve_trio):
    rng = np.random.default_rng(31)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        b = weight_values(weight.curve, grid)
        for _ in range(5):
            g = random_support_function(rng, grid)
            h = random_support_function(rng, grid)
            form = pi_b(weight, g, h)
            total = np.sum(form.samples * b) * grid.spacing
            total -= 0.5 * grid.spacing * (form.samples[0] * b[0]
                                           + form.samples[-1] * b[-1])
            assert abs(total) <= 1e-4 * lp_norm(g, 2) * lp_norm(h, 2)


def test_conversion_identity(curve_trio):
    rng = np.random.default_rng(32)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        b = weight_values(weight.curve, grid)
        for _ in range(3):
            big_g = random_support_function(rng, grid)
            big_h = random_support_function(rng, grid)
            h_div = GridFunction(grid, big_h.samples / b, big_h.support)
            lhs = pi_classic(weight, big_g, big_h).samples / b
            rhs = pi_b(weight, big_g, h_div).samples
            scale = max(np.max(np.abs(rhs)), 1e-300)
            assert np.max(np.abs(lhs - rhs)) <= 1e-10 * scale


def test_pi_classic_equals_pi_b_on_flat_curve(flat_weight):
    rng = np.random.default_rng(33)
    grid = std_grid(512)
    g = random_support_function(rng, grid)
    h = random_support_function(rng, grid)
    lhs = pi_classic(flat_weight, g, h).samples
    rhs = pi_b(flat_weight, g, h).samples
    assert np.max(np.abs(lhs - rhs)) <= 1e-14 * max(np.max(np.abs(rhs)), 1.0)


def test_select_big_m_frozen_values():
    assert select_big_m(0.1) == 128
    assert select_big_m(0.05) == 128
    assert select_big_m(0.03) == 256   # ln(128)/128 = 0.0379 fails 0.03
    assert select_big_m(0.0005) == 32768
    with pytest.raises(PreconditionError):
        select_big_m(0.0)


def test_factor_denominator_flat_oracle(flat_weight):
    # closed-endpoint node sums overshoot the principal value by about
    # spacing/(2r) relative, so the oracle tolerance tracks the spacing
    r = 1.0
    for m in (128, 512):
        grid = two_bump_host_grid(0.0, m * r, r, r / 32)
        atom = make_test_atom(flat_weight, grid, 0.0, r)
        pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=m)
        analytic = 1j / np.pi * np.log((m + 1.0) / (m - 1.0))
        assert pair_.denom == pytest.approx(analytic, rel=2e-2)
        assert abs(pair_.denom) == pytest.approx(2.0 / (np.pi * m), rel=2.5e-2)
        assert abs(pair_.denom) >= denominator_floor(flat_weight, m)
        assert pair_.g_l2 == pytest.approx(np.sqrt(2.0 * r), rel=2e-2)
        assert pair_.g_l2 * pair_.h_l2 <= 2.0 * np.pi * m


def test_factor_rejects_uncertified_atom(flat_weight):
    grid = std_grid(512)
    chi = indicator(grid, Interval(0.0, 1.0))
    with pytest.raises(PreconditionError):
        approx_factor_atom(flat_weight, chi, Interval(0.0, 1.0), big_m=128)


def test_factor_rejects_narrow_grid(flat_weight):
    grid = UniformGrid(-2.0, 0.125, 65)  # spans [-2, 6] only
    atom = make_test_atom(flat_weight, grid, 0.0, 1.0)
    from cauchylab import GridTooNarrowError
    with pytest.raises(GridTooNarrowError):
        approx_factor_atom(flat_weight, atom, Interval(0.0, 1.0), big_m=128)


def test_residual_contract(curve_trio):
    for name, weight in curve_trio:
        r = 1.0
        grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
        atom = make_test_atom(weight, grid, 0.0, r)
        pair_ = approx_factor_atom(weight, atom, Interval(0.0, r), big_m=128)
        certified = residual(weight, atom, pair_)
        # support algebra: res is its windows on the two bumps, zero elsewhere
        bumps = [grid.index_range(atom.support), grid.index_range(pair_.g.support)]
        assert [(lo, lo + values.size) for lo, values in windows(certified.res)] == bumps
        assert certified.sup == max(np.max(np.abs(values))
                                    for _, values in windows(certified.res))
        assert certified.sup * 128.0 * r <= 10.0
        b = weight_values(weight.curve, grid)
        cancel = abs(sum(np.sum(values * b[lo:lo + values.size])
                         for lo, values in windows(certified.res)) * grid.spacing)
        assert cancel <= 1e-4 * lp_norm(atom, 1) * weight.sup_norm


def test_residual_sweep_constants(flat_weight):
    sups, ests = {}, {}
    r = 1.0
    for m in (128, 256, 512, 1024, 2048, 4096):
        grid = two_bump_host_grid(0.0, m * r, r, r / 8)
        atom = make_test_atom(flat_weight, grid, 0.0, r)
        pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=m)
        certified = residual(flat_weight, atom, pair_)
        sups[m] = certified.sup * m * r
        ests[m] = estimate_residual_h1b(flat_weight, certified)
    assert max(sups.values()) <= 10.0
    consts = [ests[m] * m / np.log2(m) for m in ests]
    assert max(consts) <= 120.0
    for m in (128, 256, 512, 1024, 2048):
        assert 1.6 <= ests[m] / ests[2 * m] <= 2.4


def test_residual_and_its_estimate_hold_only_the_bump_windows(tent_weight):
    # at M = 2^16 the two 17-node bumps are 2^19 nodes apart: the certified
    # residual and its estimate read and keep the bumps alone, where a residual
    # on the hull of the bumps took 16 MiB
    r, m = 1.0, 1 << 16
    grid = two_bump_host_grid(0.0, m * r, r, r / 8)
    atom = make_test_atom(tent_weight, grid, 0.0, r)
    pair_ = approx_factor_atom(tent_weight, atom, Interval(0.0, r), big_m=m)
    tracemalloc.start()
    try:
        certified = residual(tent_weight, atom, pair_)
        estimate_residual_h1b(tent_weight, certified)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [values.size for _, values in windows(certified.res)] == [17, 17]
    assert peak < 1 << 20


def test_estimate_of_zero_residual(flat_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    zero = TwoBump(grid, 0.0, 128.0, 1.0, np.zeros(9, complex), np.zeros(9, complex))
    assert estimate_residual_h1b(flat_weight, Residual(0.0, zero, None, ())) == 0.0


def test_pi_b_upper_bound_consistency(curve_trio):
    # atomic estimates of the form itself stay below a fixed multiple of
    # |g|_2 |h|_2 across the corpus; the constant is reported by this test
    rng = np.random.default_rng(34)
    worst = 0.0
    r = 1.0
    for _, weight in curve_trio:
        grid = two_bump_host_grid(0.0, 128.0, r, r / 4)
        for _ in range(3):
            gl, gh = grid.index_range(Interval(128.0, r))
            hl, hh = grid.index_range(Interval(0.0, r))
            gs = np.zeros(grid.count, complex)
            gs[gl:gh] = rng.uniform(0.3, 1.0, gh - gl)
            hs = np.zeros(grid.count, complex)
            hs[hl:hh] = (rng.standard_normal(hh - hl)
                         + 1j * rng.standard_normal(hh - hl))
            g = GridFunction(grid, gs, Interval(128.0, r))
            h = GridFunction(grid, hs, Interval(0.0, r))
            form = pi_b(weight, g, h)
            assert form.vanishes_outside((hl, hh), (gl, gh))
            s = form.sup_norm()
            unit = form.scaled(1.0 / s)
            f = TwoBump(grid, 0.0, 128.0, r, unit.values_on(hl, hh), unit.values_on(gl, gh))
            est = s * h1b_norm_upper(decompose_two_bump(weight, f))
            worst = max(worst, est / (lp_norm(g, 2) * lp_norm(h, 2)))
    print(f"\npi_b atomic-estimate consistency constant: {worst:.3f}")
    assert worst <= 60.0


def test_duality_identity(curve_trio):
    from cauchylab import CommutatorSpec, apply_commutator
    from cauchylab.symbols import smooth_bump, weighted_symbol
    rng = np.random.default_rng(35)
    grid = std_grid(1024)
    for _, weight in curve_trio:
        symbol = weighted_symbol(weight, smooth_bump(grid))
        spec = CommutatorSpec(symbol, weight)
        for _ in range(5):
            g = random_support_function(rng, grid)
            h = random_support_function(rng, grid)
            lhs = pair(symbol, pi_b(weight, g, h))
            rhs = pair(g, apply_commutator(spec, h))
            assert abs(lhs - rhs) <= 1e-4 * lp_norm(g, 2) * lp_norm(h, 2)


def test_weak_factorize_zero_stages(flat_weight):
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    wf = weak_factorize(flat_weight, initial, 0.05, 0)
    assert wf.stages == []
    assert wf.residual_trace == []
    assert wf.final_residual_estimate == wf.initial_estimate
    assert wf.c0_measured == 0.0


def test_weak_factorize_two_stages(tent_weight):
    initial = single_two_bump_initial(tent_weight, 0.0, 128, 1.0)
    wf = weak_factorize(tent_weight, initial, 0.05, 2)
    assert len(wf.residual_trace) == 2
    assert wf.residual_trace[0] > wf.residual_trace[1]
    ratios = wf.contraction_ratios()
    assert all(rho <= 0.05 * wf.c0_measured + 0.05 for rho in ratios)
    assert not wf.non_contracting
    assert wf.lambda_l1() <= (wf.c0_measured / (1 - 0.05 * wf.c0_measured)
                              * wf.initial_estimate)
    assert np.isfinite(wf.lambda_pair_weighted())
    # a stage keeps its pairs' norms and geometry as arrays
    first = wf.stages[0]
    assert wf.big_m == 128 and first.g_l2[0] > 0 and first.h_l2[0] > 0


def test_h1_factor_conversion(flat_weight, tent_weight):
    r = 1.0
    for weight in (flat_weight, tent_weight):
        grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
        atom = make_test_atom(weight, grid, 0.0, r)
        pair_ = approx_factor_atom(weight, atom, Interval(0.0, r), big_m=128)
        big_g, big_h = h1_factor_from_h1b(weight, pair_)
        ratio = lp_norm(big_h, 2) / lp_norm(pair_.h, 2)
        assert 1.0 - 1e-12 <= ratio <= weight.sup_norm + 1e-12
        if weight is flat_weight:
            assert np.max(np.abs(big_h.samples - pair_.h.samples)) <= 1e-15
            assert big_g is pair_.g
        else:
            assert np.sqrt(2.0) >= ratio >= 1.0


def test_h1_factor_conversion_checks_the_identity(tent_weight, monkeypatch):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.125)
    atom = make_test_atom(tent_weight, grid, 0.0, 1.0)
    pair_ = approx_factor_atom(tent_weight, atom, Interval(0.0, 1.0), big_m=128)
    h1_factor_from_h1b(tent_weight, pair_)
    monkeypatch.setattr(factorization_module, "pi_classic",
                        lambda weight, g, h: pi_classic(weight, g, h).scaled(1.0 + 1e-8))
    with pytest.raises(NumericalCheckError, match="conversion identity"):
        h1_factor_from_h1b(tent_weight, pair_)


def test_weak_factorize_small_radius_on_tent(tent_weight):
    # radius 0.3: a bump row lands on a 1,064,965-node working grid of
    # spacing 0.075 whose breakpoint sits at node position
    # 465666.00000000006; the row's weighted integral is taken on that grid,
    # so it sees the node there on the same side of the breakpoint as b does
    initial = single_two_bump_initial(tent_weight, 0.0, 128, 0.3)
    wf = weak_factorize(tent_weight, initial, 0.05, 3)
    assert len(wf.residual_trace) == 3
    assert wf.residual_trace[2] < wf.residual_trace[1] < wf.residual_trace[0]
    assert not wf.non_contracting


def test_residual_rejects_a_pair_factored_on_another_grid(tent_weight):
    # two tent atoms on grids of their own that both cover the nodes
    # 3578-3594: the pair of one is not the other's, which is a caller's
    # error, not a broken certificate
    atoms_, pairs = [], []
    for x0 in (0.0, -3.0):
        grid = two_bump_host_grid(x0, x0 + 128.0, 1.0, 0.125)
        atoms_.append(make_test_atom(tent_weight, grid, x0, 1.0))
        pairs.append(approx_factor_atom(tent_weight, atoms_[-1], Interval(x0, 1.0), big_m=128))
    assert atoms_[0].support_range() == atoms_[1].support_range() == (3578, 3595)
    with pytest.raises(PreconditionError, match="different grids"):
        residual(tent_weight, atoms_[0], pairs[1])


def test_weak_factorize_takes_any_decomposition(tent_weight):
    # a decomposition's table rows are its atoms times their alphas, so the
    # first stage factors each nonzero term with the term's coefficient, up
    # to the drift of its row's quadrature on its working grid (a two-level
    # row moves from spacing 1/4 to radius / 8: at most 10.3 % here)
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    f = make_two_bump_input(tent_weight, grid, 0.0, 128.0, 1.0)
    dec = decompose_two_bump(tent_weight, f)
    wf = weak_factorize(tent_weight, dec, 0.05, 1)
    nonzero = [c for c in dec.coefficient.tolist() if c != 0]
    assert len(nonzero) == len(dec.coefficient) == 18
    assert wf.stages[0].lam.tolist() == pytest.approx(nonzero, rel=0.2)
    # a nonzero coefficient on a row of alpha 0 divides by zero, as Python's / does
    alpha = dec.summary.alpha.copy()
    alpha[3] = 0.0
    with pytest.raises(ZeroDivisionError):
        weak_factorize(tent_weight, dataclasses.replace(
            dec, summary=dataclasses.replace(dec.summary, alpha=alpha)), 0.05, 1)


def test_non_contraction_flag(flat_weight):
    # with a uselessly loose accuracy target the measured constants cannot
    # certify the geometric bound, and the run reports that instead of failing
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    wf = weak_factorize(flat_weight, initial, 1.5, 1)
    assert wf.non_contracting
    assert wf.residual_trace[0] < wf.initial_estimate


def _two_call_forms(weight, g, h):
    """Pi_b(g, h) and Pi(g, h) with one related_cauchy_values call per
    support and the union mask, as a reference for the single-block path."""
    grid, curve = g.grid, weight.curve
    b = weight_values(curve, grid)
    glo, ghi = g.support_range()
    hlo, hhi = h.support_range()
    g_rows, h_rows = np.arange(glo, ghi), np.arange(hlo, hhi)
    bh = GridFunction(grid, h.samples * b, h.support)
    weighted = np.zeros(grid.count, dtype=np.complex128)
    weighted[glo:ghi] += g.samples[glo:ghi] * related_cauchy_values(curve, bh, g_rows)
    weighted[hlo:hhi] += (h.samples[hlo:hhi] * b[hlo:hhi]
                          * related_cauchy_values(curve, g, h_rows))
    used = np.zeros(grid.count, dtype=bool)
    used[glo:ghi] = True
    used[hlo:hhi] = True
    weighted[used] /= b[used]
    classic = np.zeros(grid.count, dtype=np.complex128)
    classic[glo:ghi] += g.samples[glo:ghi] * related_cauchy_values(curve, h, g_rows)
    classic[hlo:hhi] += h.samples[hlo:hhi] * related_cauchy_values(curve, g, h_rows)
    return weighted, classic


@pytest.mark.parametrize("chunk_entries", [None, 3000])
def test_single_block_forms_match_two_call_reference(curve_trio, monkeypatch,
                                                      chunk_entries):
    # windows: disjoint, partly overlapping, nested, identical, one empty
    # (support off the grid); a small chunk budget splits every block
    if chunk_entries is not None:
        monkeypatch.setattr(cauchy_module, "_CHUNK_ENTRIES", chunk_entries)
    rng = np.random.default_rng(36)
    grid = std_grid(1024)
    layouts = [((100, 300), (600, 900)), ((600, 900), (100, 300)),
               ((100, 400), (300, 700)), ((100, 800), (300, 500)),
               ((200, 500), (200, 500))]
    for _, weight in curve_trio:
        for (glo, ghi), (hlo, hhi) in layouts:
            g = window_function(rng, grid, glo, ghi)
            h = window_function(rng, grid, hlo, hhi)
            weighted, classic = _two_call_forms(weight, g, h)
            for got, ref in ((pi_b(weight, g, h).samples, weighted),
                             (pi_classic(weight, g, h).samples, classic)):
                assert np.max(np.abs(got - ref)) <= 1e-13 * np.max(np.abs(ref))
        off_grid = GridFunction(grid, np.zeros(grid.count, complex), Interval(40.0, 1.0))
        g = window_function(rng, grid, 100, 300)
        for form in (pi_b, pi_classic):
            assert not np.any(form(weight, g, off_grid).samples)
            assert not np.any(form(weight, off_grid, g).samples)


def _paired_values(curve, f, rows, u):
    """T(f) at ``rows`` and T(u) on f's window, u given by its samples at
    ``rows``: ``related_cauchy_groups`` with a paired function, on a stack
    of one."""
    grid = f.grid
    got, got_paired = related_cauchy_groups(curve, grid.left, grid.spacing, rows[None],
                                            np.array([f.lo]), f.values[None], u[None])
    return got[0], got_paired[0]


def _parent_pi_b(weight, g, h):
    """pi_b's body before it moved into the shared single-block core."""
    grid = g.grid
    glo, ghi = grid.index_range(g.support)
    hlo, hhi = grid.index_range(h.support)
    b = weight_values(weight.curve, grid)
    g_rows, h_rows = g.samples[glo:ghi], h.samples[hlo:hhi]
    related_g, cauchy_h = _paired_values(weight.curve, g, np.arange(hlo, hhi),
                                         h_rows * b[hlo:hhi])
    out = np.zeros(grid.count, dtype=np.complex128)
    out[glo:ghi] += g_rows * cauchy_h
    out[hlo:hhi] -= h_rows * (-b[hlo:hhi] * related_g)
    for lo, hi in merged_ranges((glo, ghi), (hlo, hhi)):
        out[lo:hi] /= b[lo:hi]
    return out


def _parent_pi_classic(weight, big_g, big_h):
    """pi_classic's body before it moved into the shared single-block core."""
    grid = big_g.grid
    glo, ghi = grid.index_range(big_g.support)
    hlo, hhi = grid.index_range(big_h.support)
    g_rows, h_rows = big_g.samples[glo:ghi], big_h.samples[hlo:hhi]
    related_g, related_h = _paired_values(weight.curve, big_g, np.arange(hlo, hhi), h_rows)
    out = np.zeros(grid.count, dtype=np.complex128)
    out[glo:ghi] += g_rows * related_h
    out[hlo:hhi] += h_rows * related_g
    return out


def test_forms_bitwise_equal_parent_bodies(curve_trio):
    # windows: disjoint (both orders), overlapping, nested, identical, one
    # empty (support off the grid), then random supports
    rng = np.random.default_rng(71)
    grid = std_grid(1024)
    layouts = [((100, 300), (600, 900)), ((600, 900), (100, 300)),
               ((100, 400), (300, 700)), ((100, 800), (300, 500)),
               ((200, 500), (200, 500))]
    off_grid = GridFunction(grid, np.zeros(grid.count, complex), Interval(40.0, 1.0))
    for _, weight in curve_trio:
        pairs = [(window_function(rng, grid, *gw), window_function(rng, grid, *hw))
                 for gw, hw in layouts]
        g = window_function(rng, grid, 100, 300)
        pairs += [(g, off_grid), (off_grid, g)]
        pairs += [(random_support_function(rng, grid), random_support_function(rng, grid))
                  for _ in range(6)]
        for g, h in pairs:
            assert pi_b(weight, g, h).samples.tobytes() == \
                _parent_pi_b(weight, g, h).tobytes()
            assert pi_classic(weight, g, h).samples.tobytes() == \
                _parent_pi_classic(weight, g, h).tobytes()


def _weak_factorize_exits_3(tmp_path):
    """Whether a 1-stage ``weak-factorize`` run on the flat curve exits 3
    and writes nothing."""
    curve = tmp_path / "flat.txt"
    curve.write_text("anchor 0.0\nbreakpoints\nslopes 0.0\n")
    out = tmp_path / "out"
    return main(["weak-factorize", "--curve", str(curve), "--stages", "1",
                 "--out", str(out)]) == 3 and not out.exists()


def _leaky_form(true_terms, value):
    """The stacked form's terms with the one on supp(h) one node longer, into
    the gap between the bumps, carrying ``value`` there."""

    def leaky(*args):
        term_h, term_g = true_terms(*args)
        extra = np.full((term_h.shape[0], 1), value, dtype=np.complex128)
        return np.concatenate([term_h, extra], axis=1), term_g

    return leaky


def test_residual_leak_into_gap_is_caught(flat_weight, monkeypatch, tmp_path):
    r = 1.0
    grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
    atom = make_test_atom(flat_weight, grid, 0.0, r)
    pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=128)
    residual(flat_weight, atom, pair_)
    true_terms = factorization_module._stacked_terms
    # a form reaching one node into the gap is a leak, even with a zero there
    for value in (0.0, 1e-300):
        monkeypatch.setattr(factorization_module, "_stacked_terms", _leaky_form(true_terms, value))
        with pytest.raises(NumericalCheckError, match="leaked"):
            residual(flat_weight, atom, pair_)
    with pytest.raises(NumericalCheckError, match="leaked"):
        weak_factorize(flat_weight, single_two_bump_initial(flat_weight, 0.0, 128, r), 0.05, 1)
    assert _weak_factorize_exits_3(tmp_path)


def _broken_form(true_terms, weight, defect):
    """The stacked form's terms with one node of each form, the middle of
    supp(g), moved by ``defect(weight, spacing, windows)``, one value per pair;
    ``windows`` are the terms' (first nodes, values) on the two bumps.  On the
    flat curve b = 1, so the terms are the form and a defect on a term is the
    same defect on the form."""

    def broken(curve, left, spacing, g_lo, g, h_lo, *args):
        term_h, term_g = true_terms(curve, left, spacing, g_lo, g, h_lo, *args)
        windows = [(h_lo, term_h), (g_lo, term_g)]
        term_g = term_g.copy()
        term_g[:, term_g.shape[1] // 2] += defect(weight, spacing, windows)
        return term_h, term_g

    return broken


def _cancellation_defect(weight, spacing, windows):
    # on the flat curve b = 1: the form's weighted integral moves by 1e-9 of
    # its weighted mass over the two windows
    mass = sum(np.sum(np.abs(form), axis=1) for _, form in windows) * spacing * weight.sup_norm
    return 1e-9 * mass / spacing


def _oversized_defect(weight, spacing, windows):
    # twice the residual's sup bound 10 / (M r), M r = y0 - x0, the distance
    # between the first nodes of the two windows of one width
    (h_lo, _), (g_lo, _) = windows
    return 2.0 * factorization_module.RESIDUAL_SUP_FACTOR / ((g_lo - h_lo) * spacing)


def _nan_defect(weight, spacing, windows):
    # a NaN, which every bound compared with it must reject
    return np.full(len(windows[0][0]), np.nan)


@pytest.mark.parametrize("defect,match", [(_cancellation_defect, "weighted cancellation"),
                                          (_oversized_defect, "sup"), (_nan_defect, "sup")])
def test_broken_residual_is_a_numerical_failure(flat_weight, monkeypatch, tmp_path, defect,
                                                match):
    r = 1.0
    grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
    atom = make_test_atom(flat_weight, grid, 0.0, r)
    pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=128)
    residual(flat_weight, atom, pair_)
    initial = single_two_bump_initial(flat_weight, 0.0, 128, r)
    monkeypatch.setattr(factorization_module, "_stacked_terms",
                        _broken_form(factorization_module._stacked_terms, flat_weight, defect))
    with pytest.raises(NumericalCheckError, match=match):
        residual(flat_weight, atom, pair_)
    with pytest.raises(NumericalCheckError, match=match):
        weak_factorize(flat_weight, initial, 0.05, 1)
    assert _weak_factorize_exits_3(tmp_path)


STAGE_CURVES = {
    "flat": make_curve([], [0.0], 0.0),
    "line": make_curve([], [0.5], 0.0),
    "tent": make_curve([0.0], [1.0, -1.0], 0.0),
    "rough24": make_random_curve(seed=5, n_break=24),
}


def _left_to_right(xs):
    """xs added in order from +0.0: the rounding of the stage sums, written
    out rather than taken from the builtin sum, which is compensated from
    CPython 3.12 on."""
    return functools.reduce(operator.add, xs, 0.0)


# "-complex": the initial coefficient times 0.6+0.8i, so every lam is complex
@pytest.mark.parametrize("curve", sorted(STAGE_CURVES) + ["flat-complex", "tent-complex"])
def test_stage_arrays_hold_every_factored_atom_in_order(monkeypatch, curve):
    # every approx_factor_atom return and its lam, in call order, are the
    # stage arrays' entries bit for bit; lam is recomputed here from the
    # recorded summaries as the coefficient of the atom's row times its
    # realized alpha, in Python's complex arithmetic.  The sums over the
    # terms and the residual trace add Python's abs(lam) left to right.
    shape, _, kind = curve.partition("-")
    weight = AccretiveWeight(STAGE_CURVES[shape])
    calls = {"approx_factor_atom": [], "summarize_profiles": [], "_stage_residuals": []}
    for name, record in calls.items():
        def spy(*args, _true=getattr(factorization_module, name), _record=record, **kwargs):
            out = _true(*args, **kwargs)
            _record.append(out)
            return out
        monkeypatch.setattr(factorization_module, name, spy)
    initial = single_two_bump_initial(weight, 0.0, 128, 1.0)
    if kind:
        initial = dataclasses.replace(initial, coefficient=initial.coefficient * (0.6 + 0.8j))
    wf = weak_factorize(weight, initial, 0.05, 3)
    # per stage, summarize_profiles runs on the pending atoms, then on the residual table
    summaries = calls["summarize_profiles"]
    assert len(summaries) == 2 * len(wf.stages) == 6
    coefficients = [complex(initial.coefficient[0]) / float(initial.summary.alpha[0])]
    pairs = iter(calls["approx_factor_atom"])
    recorded, trace = [], []
    for realized, reatomized, (sups, _, owner) in zip(summaries[0::2], summaries[1::2],
                                                      calls["_stage_residuals"], strict=True):
        lams = [c * alpha for c, alpha in zip(coefficients, realized.alpha.tolist())
                if alpha != 0.0]
        recorded.append([(lam, next(pairs)) for lam in lams])
        sups = sups.tolist()
        kept = reatomized.alpha > 0.0
        trace.append(_left_to_right(abs(lams[k]) * sups[k] * alpha for k, alpha in
                                    zip(owner[kept].tolist(), reatomized.alpha[kept].tolist())))
        coefficients = [lams[k] * sups[k] for k in owner[kept].tolist()]
    assert next(pairs, None) is None
    assert [len(stage) for stage in wf.stages] == [len(r) for r in recorded] == [1, 18, 324]
    if kind:
        assert all(lam.imag != 0.0 for terms in recorded for lam, _ in terms)
    for stage, terms in zip(wf.stages, recorded):
        for name, dtype, values in (
                ("lam", np.complex128, [lam for lam, _ in terms]),
                ("y0", np.float64, [p.y0 for _, p in terms]),
                ("denom", np.complex128, [p.denom for _, p in terms]),
                ("g_l2", np.float64, [p.g_l2 for _, p in terms]),
                ("h_l2", np.float64, [p.h_l2 for _, p in terms])):
            got = getattr(stage, name)
            assert got.dtype == dtype and got.tobytes() == np.array(values, dtype).tobytes()
        assert all(p.big_m == wf.big_m for _, p in terms)
    assert wf.residual_trace == trace
    every = [term for terms in recorded for term in terms]
    assert wf.lambda_l1() == _left_to_right(abs(lam) for lam, _ in every)
    assert wf.lambda_pair_weighted() == _left_to_right(abs(lam) * p.g_l2 * p.h_l2
                                                       for lam, p in every)

    def python_c0(stages, trace, initial_estimate):
        c0, prev = 0.0, initial_estimate
        for terms, t in zip(stages, trace):
            lam_in = _left_to_right(abs(lam) for lam, _ in terms)
            c0 = max(c0, lam_in / prev, (t / prev) / wf.epsilon)
            prev = t
        return c0

    assert wf.c0_measured == python_c0(recorded, wf.residual_trace, wf.initial_estimate)
    # the run from stage 2 on, whose c0 is not stage 1's sum of a single |lam|
    tail = dataclasses.replace(wf, stages=wf.stages[1:], residual_trace=wf.residual_trace[1:],
                               initial_estimate=wf.residual_trace[0])
    assert tail.c0_measured == python_c0(recorded[1:], wf.residual_trace[1:],
                                         wf.residual_trace[0])


def test_each_atom_is_certified_once(flat_weight, monkeypatch):
    # per factored atom: check_atom applies the cancellation rule once and
    # reads its support, and the residual certificate applies it once per
    # layout group of atoms and reads the form's support
    counts = {"weighted_cancellation": 0, "vanishes_outside": 0, "atoms": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    for module in (spaces_module, atoms_module, factorization_module):
        monkeypatch.setattr(module, "weighted_cancellation",
                            counted("weighted_cancellation", weighted_cancellation))
    monkeypatch.setattr(GridFunction, "vanishes_outside",
                        counted("vanishes_outside", GridFunction.vanishes_outside))
    monkeypatch.setattr(factorization_module, "approx_factor_atom",
                        counted("atoms", approx_factor_atom))
    wf = weak_factorize(flat_weight, initial, 0.05, 2)
    assert counts["atoms"] == sum(len(stage) for stage in wf.stages) == 19
    assert counts["weighted_cancellation"] <= 5 * counts["atoms"] + 3
    assert counts["vanishes_outside"] <= 2 * counts["atoms"]


def test_a_stage_gates_on_its_own_summary(flat_weight, monkeypatch):
    # a pending atom that the stage's own summary rejects is a fault of the
    # library, named by its interval, raised before the stage factors any atom
    summaries = []

    def rejecting(weight, left, spacing, count, table,
                  _true=factorization_module.summarize_profiles):
        summary = _true(weight, left, spacing, count, table)
        summaries.append(table)
        if len(summaries) == 3:    # the pending atoms of stage 2
            residual_ = summary.residual.copy()
            residual_[5] = 2.0 * ATOM_TOL
            summary = dataclasses.replace(summary, residual=residual_)
        return summary

    factored = []

    def factor(*args, **kwargs):
        factored.append(approx_factor_atom(*args, **kwargs))
        return factored[-1]

    monkeypatch.setattr(factorization_module, "summarize_profiles", rejecting)
    monkeypatch.setattr(factorization_module, "approx_factor_atom", factor)
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    with pytest.raises(NumericalCheckError, match="rejected certificate") as raised:
        weak_factorize(flat_weight, initial, 0.05, 2)
    assert str(summaries[2].outer_interval(5)) in str(raised.value)
    assert len(factored) == 1


def test_a_rejected_initial_row_is_named_as_a_pending_row(flat_weight, monkeypatch):
    # stage 1's pending rows are the initial decomposition's, not a
    # re-atomization's, and the gate names them so
    true_summarize = factorization_module.summarize_profiles

    def rejecting(weight, left, spacing, count, table):
        summary = true_summarize(weight, left, spacing, count, table)
        return dataclasses.replace(summary, residual=np.full_like(summary.residual, 1.0))

    monkeypatch.setattr(factorization_module, "summarize_profiles", rejecting)
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    with pytest.raises(NumericalCheckError, match="rejected certificate") as raised:
        weak_factorize(flat_weight, initial, 0.05, 1)
    assert "re-atomization" not in str(raised.value)
    assert str(raised.value).startswith("stage 1's pending row")
    assert str(initial.table.outer_interval(0)) in str(raised.value)


def _weak_factorize_csvs(curve, out, stages=3):
    """The CSV bytes of a ``weak-factorize`` run at eps 0.05 on ``curve``."""
    path = out.parent / f"{out.name}.txt"
    write_curve_file(curve, path)
    assert main(["weak-factorize", "--curve", str(path), "--eps", "0.05", "--stages",
                 str(stages), "--out", str(out)]) == 0
    return {p.name: p.read_bytes() for p in out.iterdir()}


@pytest.mark.parametrize("curve", ["flat", "tent", "rough"])
def test_stage_chunks_move_no_output_byte(curve, monkeypatch, tmp_path):
    # a 3-stage run is one chunk a stage; in chunks of 5 atoms it writes the
    # same bytes
    curve = {"flat": make_curve([], [0.0], 0.0), "tent": make_curve([0.0], [1.0, -1.0], 0.0),
             "rough": rough_curve(0)}[curve]
    chunks = []
    true_residuals = factorization_module._stage_residuals

    def counted(weight, left, spacing, atoms, pairs):
        chunks.append(len(atoms))
        return true_residuals(weight, left, spacing, atoms, pairs)

    monkeypatch.setattr(factorization_module, "_stage_residuals", counted)
    whole = _weak_factorize_csvs(curve, tmp_path / "whole")
    assert chunks == [1, 18, 324]
    chunks.clear()
    monkeypatch.setattr(factorization_module, "_STAGE_CHUNK_ATOMS", 5)
    assert _weak_factorize_csvs(curve, tmp_path / "chunked") == whole
    assert chunks == [1, 5, 5, 5, 3] + [5] * 64 + [4]


def test_a_large_group_certifies_each_residual_as_alone(tent_weight):
    # NumPy evaluates x * (a temporary of 256 KiB or more) as temporary * x in
    # place, and its complex product rounds by operand order; a layout group
    # of 1,100 atoms of 17 nodes passes that size, and each of its residuals
    # is still the group of one's, so how a stage is cut into chunks moves no
    # byte
    grid = UniformGrid(-80.0, 0.125, 3000)
    atoms = [make_test_atom(tent_weight, grid, k / 8.0, 1.0) for k in range(-550, 550)]
    pairs = [approx_factor_atom(tent_weight, a, a.support, big_m=128) for a in atoms]
    assert len({a.values.size for a in atoms}) == 1 and 16 * 17 * len(atoms) >= 256 * 1024
    group = factorization_module._certify_residuals(tent_weight, grid.left, grid.spacing, atoms,
                                                    pairs)
    for k, (atom, pair_) in enumerate(zip(atoms, pairs)):
        alone = residual(tent_weight, atom, pair_)
        assert group.res[0][k].tobytes() == alone.res.x_bump.tobytes()
        assert group.res[1][k].tobytes() == alone.res.y_bump.tobytes()
        assert group.sums[k].tobytes() == np.array(alone.sums).tobytes()


def test_a_stage_in_chunks_bounds_the_peak(flat_weight):
    # stage 4 of the flat run factors 5,832 atoms; with all of them at once
    # the run peaked at 74 MiB under tracemalloc, in chunks at 54 MiB, and
    # with the working grids kept as arrays, not one grid object per atom,
    # at 48 MiB
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    tracemalloc.start()
    try:
        wf = weak_factorize(flat_weight, initial, 0.05, 4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert [len(stage) for stage in wf.stages] == [1, 18, 324, 5832]
    assert peak < 51 * 2 ** 20


@pytest.mark.parametrize("curve", ["flat", "tent", "rough"])
def test_working_grids_are_the_host_grids(curve, monkeypatch):
    # row for row, a stage's (left, spacing, count) arrays are the geometry of
    # the two-bump host grid of the row's support at the separation M, at an
    # eighth of its radius or at its bump's spacing, on every stage of a run
    weight = AccretiveWeight({"flat": make_curve([], [0.0], 0.0),
                              "tent": make_curve([0.0], [1.0, -1.0], 0.0),
                              "rough": rough_curve(0)}[curve])
    seen = []

    def recorded(pending, big_m, _true=factorization_module._working_grids):
        seen.append((pending, big_m, _true(pending, big_m)))
        return seen[-1][2]

    monkeypatch.setattr(factorization_module, "_working_grids", recorded)
    weak_factorize(weight, single_two_bump_initial(weight, 0.0, 128, 1.0), 0.05, 3)
    assert [len(pending) for pending, _, _ in seen] == [1, 18, 324]
    for pending, big_m, (left, spacing, count) in seen:
        assert left.dtype == spacing.dtype == np.float64 and count.dtype == np.int64
        for k, bump in enumerate(pending.bumps):
            support = pending.outer_interval(k)
            c, radius = support.center, support.radius
            grid = two_bump_host_grid(c, c + big_m * radius, radius,
                                      radius / 8.0 if bump is None else bump.spacing)
            assert np.array([left[k], spacing[k]]).tobytes() == \
                np.array([grid.left, grid.spacing]).tobytes() and count[k] == grid.count


STAGE_FIELDS = ("lam", "y0", "denom", "g_l2", "h_l2")


def _same_stages(stages, expected):
    """Two lists of ``FactorStage``s hold the same arrays, bit for bit."""
    return len(stages) == len(expected) and all(
        getattr(s, f).dtype == getattr(e, f).dtype and
        getattr(s, f).tobytes() == getattr(e, f).tobytes()
        for s, e in zip(stages, expected) for f in STAGE_FIELDS)


def test_an_early_stop_ends_the_run(flat_weight, monkeypatch):
    # stage 1's estimate is 2 % of the initial one: at a stop fraction of 1/2
    # a 3-stage run stops after stage 1, with a 1-stage run's terms and trace;
    # at 1 it stops before stage 1, as the initial estimate is at the fraction
    initial = single_two_bump_initial(flat_weight, 0.0, 128, 1.0)
    one = weak_factorize(flat_weight, initial, 0.05, 1)
    assert one.residual_trace[0] < 0.5 * one.initial_estimate
    monkeypatch.setattr(factorization_module, "EARLY_STOP_FRACTION", 0.5)
    stopped = weak_factorize(flat_weight, initial, 0.05, 3)
    assert _same_stages(stopped.stages, one.stages) and len(stopped.stages) == 1
    assert np.array(stopped.residual_trace).tobytes() == np.array(one.residual_trace).tobytes()
    monkeypatch.setattr(factorization_module, "EARLY_STOP_FRACTION", 1.0)
    none = weak_factorize(flat_weight, initial, 0.05, 3)
    assert none.stages == none.residual_trace == []
    assert none.final_residual_estimate == one.initial_estimate


@pytest.mark.parametrize("chunk", [None, 5])
def test_the_last_stage_builds_no_next_rows(flat_weight, monkeypatch, chunk):
    # every chunk of a stage but the last takes its kept rows once, and the
    # last stage's chunks take none
    events = []

    def logged(name, fn):
        def wrapper(*args):
            events.append(name)
            return fn(*args)
        return wrapper

    for name in ("_working_grids", "_stage_residuals", "_children"):
        monkeypatch.setattr(factorization_module, name,
                            logged(name, getattr(factorization_module, name)))
    if chunk is not None:
        monkeypatch.setattr(factorization_module, "_STAGE_CHUNK_ATOMS", chunk)
    weak_factorize(flat_weight, single_two_bump_initial(flat_weight, 0.0, 128, 1.0), 0.05, 3)
    chunks = [1, 1, 1] if chunk is None else [1, 4, 65]    # of 1, 18 and 324 atoms
    expected = []
    for n, last in zip(chunks, [False, False, True]):
        expected += ["_working_grids"] + n * (["_stage_residuals"] + ["_children"] * (not last))
    assert events == expected


@pytest.mark.parametrize("curve", ["flat", "tent", "rough"])
def test_a_run_is_one_factor_stage_call_per_stage(curve, monkeypatch):
    # weak_factorize calls _factor_stage once a stage, at the run's M, and
    # _factor_stage chained by hand from the initial rows gives the run's
    # stages and residual trace bit for bit
    weight = AccretiveWeight({"flat": make_curve([], [0.0], 0.0),
                              "tent": make_curve([0.0], [1.0, -1.0], 0.0),
                              "rough": rough_curve(0)}[curve])
    true_stage = factorization_module._factor_stage
    calls = []

    def recorded(weight_, pending, coefficients, big_m, stage, last):
        calls.append((len(pending), big_m, stage, last))
        return true_stage(weight_, pending, coefficients, big_m, stage, last)

    monkeypatch.setattr(factorization_module, "_factor_stage", recorded)
    initial = single_two_bump_initial(weight, 0.0, 128, 1.0)
    wf = weak_factorize(weight, initial, 0.05, 3)
    assert calls == [(n, wf.big_m, k, k == 2) for k, n in enumerate([1, 18, 324])]
    nonzero = np.flatnonzero(initial.coefficient != 0.0)
    pending = initial.table.take(nonzero)
    coefficients = _complex_div(initial.coefficient[nonzero], initial.summary.alpha[nonzero])
    stages, trace = [], []
    for k in range(3):
        out = true_stage(weight, pending, coefficients, wf.big_m, k, k == 2)
        stages.append(out.terms)
        trace.append(out.trace)
        pending, coefficients = out.pending, out.coefficients
    assert pending is None and coefficients is None
    assert _same_stages(stages, wf.stages)
    assert np.array(trace).tobytes() == np.array(wf.residual_trace).tobytes()


@pytest.mark.parametrize("big_m", [1, 0, -3, 1.0, float("nan")])
def test_denominator_floor_needs_a_separation_above_one(flat_weight, big_m):
    with pytest.raises(PreconditionError, match="M > 1"):
        denominator_floor(flat_weight, big_m)


def test_h1_factor_conversion_of_a_zero_factor(tent_weight):
    # the zero atom is certified (size 0, residual 0) and factors into h = 0,
    # whose |bh|_2 / |h|_2 would be 0 / 0; the conversion identity still holds
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.125)
    zero = make_test_atom(tent_weight, grid, 0.0, 1.0).scaled(0.0)
    pair_ = approx_factor_atom(tent_weight, zero, Interval(0.0, 1.0), big_m=128)
    assert pair_.h_l2 == 0.0
    big_g, big_h = h1_factor_from_h1b(tent_weight, pair_)
    assert big_g is pair_.g and not np.any(big_h.values)


def _old_host_grid(x0, y0, r, spacing):
    """The grid of the initial decomposition before it used
    two_bump_host_grid: reaching just past both bumps, spacing r / 4."""
    count = int(round((y0 - x0 + 2 * r) / spacing)) + 9
    return UniformGrid(x0 - r - 4 * spacing, spacing, count)


@pytest.mark.parametrize("curve,x0,r", [
    ("flat", 0.0, 1.0), ("tent", 0.0, 1.0), ("random", 0.0, 1.0),
    ("rough24", 0.0, 1.0), ("tent", 0.3, 0.7),
])
def test_single_two_bump_initial_matches_old_grid(curve_trio, monkeypatch, curve, x0, r):
    weights = dict(curve_trio)
    weights["rough24"] = AccretiveWeight(make_random_curve(seed=5, n_break=24))
    weight = weights[curve]
    new = single_two_bump_initial(weight, x0, 128, r)
    with monkeypatch.context() as patch:
        patch.setattr(factorization_module, "two_bump_host_grid", _old_host_grid)
        old = single_two_bump_initial(weight, x0, 128, r)
    assert new.coefficient.tolist() == old.coefficient.tolist() and len(new.coefficient) == 1
    assert new.table.outer_interval(0) == old.table.outer_interval(0)
    assert new.grid.spacing == old.grid.spacing
    assert new.grid.left != old.grid.left
    atom_new, atom_old = (atoms_module.profile_atom(dec.grid, dec.table, dec.summary, 0)
                          for dec in (new, old))
    assert np.array_equal(atom_new.values, atom_old.values)
    assert atom_new.values.tobytes() == new.table.bumps[0].values.tobytes()
    # what the iteration reads of the initial term is the same, so is the run
    wf_new = weak_factorize(weight, new, 0.05, 2)
    wf_old = weak_factorize(weight, old, 0.05, 2)
    assert wf_new.residual_trace == wf_old.residual_trace
    for name in ("lam", "y0", "denom"):
        assert [getattr(s, name).tolist() for s in wf_new.stages] == \
            [getattr(s, name).tolist() for s in wf_old.stages]


def test_atom_at_the_grid_end_is_certified_and_factors(tent_weight):
    # the atom's left endpoint is the grid's first node: its cancellation is
    # checked by the node sum it was built to cancel under, which weighs that
    # node as fully as every other
    grid = UniformGrid(-1.0, 1.0 / 128.0, 17000)
    atom = make_test_atom(tent_weight, grid, 0.0, 1.0)
    cert = check_atom(atom, Interval(0.0, 1.0), tent_weight)
    assert cert.accepted and cert.cancellation_residual <= 1e-12
    pair_ = approx_factor_atom(tent_weight, atom, Interval(0.0, 1.0), big_m=128)
    assert residual(tent_weight, atom, pair_).sup * 128.0 <= 10.0


def test_rejected_reatomization_row_names_its_interval(tent_weight, monkeypatch):
    row = 5
    seen = []
    true_summarize = factorization_module.summarize_profiles

    def rejecting(weight, left, spacing, count, table):
        summary = true_summarize(weight, left, spacing, count, table)
        if len(table) <= row:
            return summary
        seen.append(table.outer_interval(row))
        rejected = summary.residual.copy()
        rejected[row] = 1.0
        return dataclasses.replace(summary, residual=rejected)

    monkeypatch.setattr(factorization_module, "summarize_profiles", rejecting)
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.125)
    atom = make_test_atom(tent_weight, grid, 0.0, 1.0)
    pair_ = approx_factor_atom(tent_weight, atom, Interval(0.0, 1.0), big_m=128)
    certified = residual(tent_weight, atom, pair_)
    initial = single_two_bump_initial(tent_weight, 0.0, 128, 1.0)
    for run in (lambda: estimate_residual_h1b(tent_weight, certified),
                lambda: weak_factorize(tent_weight, initial, 0.05, 1)):
        seen.clear()
        with pytest.raises(NumericalCheckError, match="rejected certificate") as info:
            run()
        assert len(seen) == 1 and str(seen[0]) in str(info.value)
        assert "re-atomization" in str(info.value)


def _initial_radius(weight, r):
    return single_two_bump_initial(weight, 0.0, 128, r).table.outer_interval(0).radius


@pytest.mark.parametrize("stages,r", [
    (4, 1e-100), (4, 1e100), (4, 1e120), (4, 1e-150), (2, 1e150), (2, 1e-150),
])
def test_float_range_accepts_the_documented_radii(curve_trio, stages, r):
    for _, weight in curve_trio:
        radii = np.array([_initial_radius(weight, r)])
        factorization_module._require_float_range(weight, radii, 128, stages)


@pytest.mark.parametrize("stages,r", [(2, 1e200), (2, 1e-200), (4, 1e150), (3, 1e155)])
def test_float_range_rejects_radii_the_run_cannot_hold(curve_trio, stages, r):
    for _, weight in curve_trio:
        radii = np.array([_initial_radius(weight, r)])
        with pytest.raises(PreconditionError, match="float"):
            factorization_module._require_float_range(weight, radii, 128, stages)
        # weak_factorize asks before its first stage, so this costs no stage
        with pytest.raises(PreconditionError, match="float"):
            weak_factorize(weight, single_two_bump_initial(weight, 0.0, 128, r), 0.05, stages)


def test_float_range_follows_the_stage_count_and_m(tent_weight):
    # each stage grows the largest radius by 2^(i0 + 1), 2^9 at M = 128 and
    # 2^32 at M = 2^30, from 1e100 ~ 2^332.2 up to the bound 2^516
    radii = np.array([1e100])
    check = factorization_module._require_float_range
    check(tent_weight, radii, 128, 21)
    with pytest.raises(PreconditionError, match="over 22 stages"):
        check(tent_weight, radii, 128, 22)
    check(tent_weight, radii, 1 << 30, 6)
    with pytest.raises(PreconditionError, match="over 7 stages"):
        check(tent_weight, radii, 1 << 30, 7)


def _factor_test_atom(weight, r, spacing):
    """approx_factor_atom at M = 128 on factor-atom's atom of radius r."""
    grid = two_bump_host_grid(0.0, 128.0 * r, r, spacing)
    atom = make_test_atom(weight, grid, 0.0, r)
    return approx_factor_atom(weight, atom, Interval(0.0, r), big_m=128)


def _two_bump_input(weight, r, spacing):
    return make_two_bump_input(weight, two_bump_host_grid(0.0, 128.0 * r, r, spacing),
                               0.0, 128.0 * r, r)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("curve", ["flat", "tent"])
@pytest.mark.parametrize("run,r,spacing,message,module,unreached", [
    pytest.param(_factor_test_atom, 1e-200, 1.25e-201, "its factor's squared samples overflow "
                 "a float", factorization_module, "related_cauchy_values",
                 id="atom-radius-1e-200"),
    pytest.param(_factor_test_atom, 1e200, 1.25e199, "where the bilinear form underflows a "
                 "float", factorization_module, "related_cauchy_values", id="atom-radius-1e200"),
    # 2^16 + 1 nodes, made of two half bumps of 2^15 + 1 nodes each
    pytest.param(_factor_test_atom, 1.0, 2.0 ** -15, "covers 65537 nodes, over the work bound",
                 factorization_module, "related_cauchy_values",
                 id="atom-over-the-work-bound"),
    pytest.param(_two_bump_input, 0.5, 2.0 ** -16, "covers 65537 nodes, over the work bound",
                 atoms_module, "_interval_integrals", id="bump-over-the-work-bound"),
])
def test_factor_path_rejects_an_out_of_bound_input_before_the_work(
        flat_weight, tent_weight, monkeypatch, curve, run, r, spacing, message, module,
        unreached):
    # each bound is checked in the function that does the bounded work, as a
    # PreconditionError before that work starts and before any float leaves its range
    def spy(*args, **kwargs):
        raise AssertionError(f"{unreached} ran on an input over a bound")

    weight = {"flat": flat_weight, "tent": tent_weight}[curve]
    monkeypatch.setattr(module, unreached, spy)
    with pytest.raises(PreconditionError, match=message):
        run(weight, r, spacing)
