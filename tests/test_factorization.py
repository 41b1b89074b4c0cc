import numpy as np
import pytest

from cauchylab import (AccretiveWeight, AtomicDecomposition, DecompositionTerm,
                       GridFunction, Interval, PreconditionError, UniformGrid,
                       approx_factor_atom, check_atom, denominator_floor,
                       estimate_residual_h1b, h1_factor_from_h1b, indicator,
                       lp_norm, make_test_atom, make_two_bump_input, pair, pi_b,
                       pi_classic, residual, select_big_m,
                       single_two_bump_initial, weak_factorize)
from cauchylab import NumericalCheckError
from cauchylab import cauchy as cauchy_module
from cauchylab import factorization as factorization_module
from cauchylab.cauchy import related_cauchy_values, weight_values
from cauchylab.grid import merged_ranges

from conftest import (make_random_curve, random_support_function, std_grid,
                      two_bump_host_grid, window_function)


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
        res = residual(weight, atom, pair_)
        # support algebra: exactly zero off the two bumps
        lo1, hi1 = grid.index_range(atom.support)
        lo2, hi2 = grid.index_range(pair_.g.support)
        mask = np.ones(grid.count, dtype=bool)
        mask[lo1:hi1] = False
        mask[lo2:hi2] = False
        assert np.all(res.samples[mask] == 0)
        assert res.sup_norm() * 128.0 * r <= 10.0
        b = weight_values(weight.curve, grid)
        cancel = abs(np.sum(res.samples * b) * grid.spacing)
        assert cancel <= 1e-4 * lp_norm(atom, 1) * weight.sup_norm


def test_residual_sweep_constants(flat_weight):
    sups, ests = {}, {}
    r = 1.0
    for m in (128, 256, 512, 1024, 2048, 4096):
        grid = two_bump_host_grid(0.0, m * r, r, r / 8)
        atom = make_test_atom(flat_weight, grid, 0.0, r)
        pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=m)
        res = residual(flat_weight, atom, pair_)
        sups[m] = res.sup_norm() * m * r
        ests[m] = estimate_residual_h1b(flat_weight, res, 0.0, pair_.y0, r)
    assert max(sups.values()) <= 10.0
    consts = [ests[m] * m / np.log2(m) for m in ests]
    assert max(consts) <= 120.0
    for m in (128, 256, 512, 1024, 2048):
        assert 1.6 <= ests[m] / ests[2 * m] <= 2.4


def test_estimate_of_zero_residual(flat_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    zero = GridFunction(grid, np.zeros(grid.count, complex),
                        Interval(64.0, 66.0))
    assert estimate_residual_h1b(flat_weight, zero, 0.0, 128.0, 1.0) == 0.0


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
            est = estimate_residual_h1b(weight, form, 0.0, 128.0, r)
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
        spec = CommutatorSpec(symbol, weight, "cauchy")
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
    # stage pairs are lightened but keep their norms and geometry
    lam, pair_ = wf.stages[0][0]
    assert pair_.g is None and pair_.h is None
    assert pair_.big_m == 128 and pair_.g_l2 > 0 and pair_.h_l2 > 0


def test_h1_factor_conversion(flat_weight, tent_weight):
    r = 1.0
    for weight in (flat_weight, tent_weight):
        grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
        atom = make_test_atom(weight, grid, 0.0, r)
        pair_ = approx_factor_atom(weight, atom, Interval(0.0, r), big_m=128)
        big_g, big_h = h1_factor_from_h1b(weight, pair_, verify=True)
        ratio = lp_norm(big_h, 2) / lp_norm(pair_.h, 2)
        assert 1.0 - 1e-12 <= ratio <= weight.sup_norm + 1e-12
        if weight is flat_weight:
            assert np.max(np.abs(big_h.samples - pair_.h.samples)) <= 1e-15
            assert big_g is pair_.g
        else:
            assert np.sqrt(2.0) >= ratio >= 1.0


def test_lightened_pair_rejected_for_residual(flat_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.125)
    atom = make_test_atom(flat_weight, grid, 0.0, 1.0)
    pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, 1.0), big_m=128)
    with pytest.raises(PreconditionError):
        residual(flat_weight, atom, pair_.light())


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


def _parent_pi_b(weight, g, h):
    """pi_b's body before it moved into the shared single-block core."""
    grid = g.grid
    glo, ghi = grid.index_range(g.support)
    hlo, hhi = grid.index_range(h.support)
    b = weight_values(weight.curve, grid)
    g_rows, h_rows = g.samples[glo:ghi], h.samples[hlo:hhi]
    related_g, cauchy_h = related_cauchy_values(weight.curve, g, np.arange(hlo, hhi),
                                                paired=h_rows * b[hlo:hhi])
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
    related_g, related_h = related_cauchy_values(weight.curve, big_g,
                                                 np.arange(hlo, hhi), paired=h_rows)
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


def test_residual_leak_into_gap_is_caught(flat_weight, monkeypatch):
    r = 1.0
    grid = two_bump_host_grid(0.0, 128.0, r, r / 8)
    atom = make_test_atom(flat_weight, grid, 0.0, r)
    pair_ = approx_factor_atom(flat_weight, atom, Interval(0.0, r), big_m=128)
    residual(flat_weight, atom, pair_)
    gap_node = grid.index_of(64.0)
    true_pi_b = factorization_module.pi_b

    def leaky_pi_b(weight, g, h):
        form = true_pi_b(weight, g, h)
        samples = form.samples.copy()
        samples[gap_node] = 1e-300
        return GridFunction(form.grid, samples, form.support)

    monkeypatch.setattr(factorization_module, "pi_b", leaky_pi_b)
    with pytest.raises(NumericalCheckError, match="leaked"):
        residual(flat_weight, atom, pair_)


def _old_single_two_bump_initial(weight, x0, big_m0, r):
    """The initial decomposition as built before it used two_bump_host_grid:
    a grid reaching just past both bumps, spacing r / 4."""
    spacing = r / 4
    y0 = x0 + big_m0 * r
    count = int(round((y0 - x0 + 2 * r) / spacing)) + 9
    grid = UniformGrid(x0 - r - 4 * spacing, spacing, count)
    f = make_two_bump_input(weight, grid, x0, y0, r)
    support = Interval(0.5 * (x0 + y0), (0.5 * big_m0 + 1.0) * r)
    alpha = f.sup_norm() * support.length
    atom = f.scaled(1.0 / alpha)
    term = DecompositionTerm(1, 0, complex(alpha), atom, support,
                             check_atom(atom, support, weight))
    return AtomicDecomposition([term], 0, float(big_m0), support.radius,
                               weight.sup_norm, grid)


@pytest.mark.parametrize("curve,x0,r", [
    ("flat", 0.0, 1.0), ("tent", 0.0, 1.0), ("random", 0.0, 1.0),
    ("rough24", 0.0, 1.0), ("tent", 0.3, 0.7),
])
def test_single_two_bump_initial_matches_old_grid(curve_trio, curve, x0, r):
    weights = dict(curve_trio)
    weights["rough24"] = AccretiveWeight(make_random_curve(seed=5, n_break=24))
    weight = weights[curve]
    new = single_two_bump_initial(weight, x0, 128, r)
    old = _old_single_two_bump_initial(weight, x0, 128, r)
    (t_new,), (t_old,) = new.terms, old.terms
    assert t_new.coefficient == t_old.coefficient
    assert t_new.support == t_old.support
    assert new.grid.spacing == old.grid.spacing
    nlo, nhi = t_new.atom.support_range()
    olo, ohi = t_old.atom.support_range()
    assert np.array_equal(t_new.atom.samples[nlo:nhi], t_old.atom.samples[olo:ohi])
    # what the iteration reads of the initial term is the same, so is the run
    wf_new = weak_factorize(weight, new, 0.05, 2)
    wf_old = weak_factorize(weight, old, 0.05, 2)
    assert wf_new.residual_trace == wf_old.residual_trace
    assert [lam for s in wf_new.stages for lam, _ in s] == \
        [lam for s in wf_old.stages for lam, _ in s]
    assert [p.y0 for s in wf_new.stages for _, p in s] == \
        [p.y0 for s in wf_old.stages for _, p in s]
    assert [p.denom for s in wf_new.stages for _, p in s] == \
        [p.denom for s in wf_old.stages for _, p in s]
