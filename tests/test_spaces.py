import numpy as np
import pytest

from cauchylab import (GridFunction, Interval, PreconditionError, UniformGrid,
                       bmo_norm, check_atom, decompose_two_bump, h1b_norm_upper,
                       indicator, make_two_bump_input, vmo_profile)
from cauchylab.symbols import clamped_log, smooth_bump

from conftest import std_grid, two_bump_host_grid


def constant_fn(grid, value):
    return GridFunction(grid, np.full(grid.count, value, dtype=np.complex128),
                        grid.covering_interval())


def test_bmo_of_constant_is_zero():
    grid = std_grid(512)
    assert bmo_norm(constant_fn(grid, 3.0 - 1.0j), 8) == 0.0


def test_bmo_shift_invariance_exact():
    grid = std_grid(512)
    f = clamped_log(grid)
    shifted = GridFunction(grid, f.samples + (2.0 + 1.0j),
                           grid.covering_interval())
    assert bmo_norm(shifted, 8) == pytest.approx(bmo_norm(f, 8), rel=1e-12)


def test_bmo_homogeneity_exact():
    grid = std_grid(512)
    f = clamped_log(grid)
    assert bmo_norm(f.scaled(-2.5), 8) == pytest.approx(2.5 * bmo_norm(f, 8), rel=1e-12)


def test_bmo_of_log_stable_under_refinement():
    values = []
    for n in (1024, 2048, 4096):
        grid = std_grid(n)
        values.append(bmo_norm(clamped_log(grid), 10))
    base = values[-1]
    assert all(abs(v - base) <= 0.05 * base for v in values)


def test_vmo_smooth_curves_shrink_toward_limits():
    grid = std_grid(2048)
    report = vmo_profile(smooth_bump(grid, 1.0, 1.0), [0.25, 0.5, 1.0, 2.0, 4.0])
    small = [v for _, v in report.small_scale]
    assert all(small[i] <= small[i + 1] + 1e-12 for i in range(len(small) - 1))
    assert small[0] <= 0.35 * small[-1]
    far = [v for _, v in report.far_field]
    assert all(far[i + 1] <= far[i] + 1e-12 for i in range(len(far) - 1))
    assert far[-1] == 0.0


def test_vmo_log_small_scale_stays_up():
    grid = std_grid(2048)
    report = vmo_profile(clamped_log(grid), [0.25, 0.5, 1.0, 2.0, 4.0])
    small = [v for _, v in report.small_scale]
    assert small[0] >= 0.5 * small[-1]


def test_vmo_constant_is_identically_zero():
    grid = std_grid(512)
    report = vmo_profile(constant_fn(grid, 2.0), [0.5, 1.0, 2.0])
    for series in (report.small_scale, report.large_scale, report.far_field):
        assert all(v == 0.0 for _, v in series)


def test_vmo_values_below_bmo_scale():
    grid = std_grid(1024)
    f = clamped_log(grid)
    cap = 2.0 * bmo_norm(f, 10) + 1e-9
    report = vmo_profile(f, [0.25, 0.5, 1.0, 2.0, 4.0])
    for series in (report.small_scale, report.large_scale, report.far_field):
        assert all(v <= cap for _, v in series)


def test_vmo_rejects_unsorted_scales():
    grid = std_grid(128)
    with pytest.raises(PreconditionError):
        vmo_profile(constant_fn(grid, 1.0), [1.0, 0.5])


def test_odd_atom_accepted(flat_weight):
    grid = UniformGrid(-4.0, 1.0 / 128.0, 1025)
    xs = grid.nodes()
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[(xs > 0) & (xs <= 1)] = 0.5
    samples[(xs >= -1) & (xs < 0)] = -0.5
    a = GridFunction(grid, samples, Interval(0.0, 1.0))
    cert = check_atom(a, Interval(0.0, 1.0), flat_weight)
    assert cert.accepted
    assert cert.size_value == pytest.approx(1.0, abs=1e-12)
    assert cert.cancellation_residual <= 1e-12


def test_plain_indicator_rejected(flat_weight):
    grid = UniformGrid(-4.0, 1.0 / 128.0, 1025)
    chi = indicator(grid, Interval(0.5, 0.5)).scaled(1.0)
    cert = check_atom(chi, Interval(0.5, 0.5), flat_weight)
    assert not cert.accepted
    assert cert.cancellation_residual > 0.5  # no cancellation at all


def test_decomposed_atoms_all_accepted(tent_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    f = make_two_bump_input(tent_weight, grid, 0.0, 128.0, 1.0)
    dec = decompose_two_bump(tent_weight, f, 0.0, 128.0, 1.0)
    for term in dec.terms:
        assert term.certificate.accepted
        cross = check_atom(term.atom, term.support, tent_weight)
        assert cross.accepted


def test_h1b_upper_single_atom(flat_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    f = make_two_bump_input(flat_weight, grid, 0.0, 128.0, 1.0)
    dec = decompose_two_bump(flat_weight, f, 0.0, 128.0, 1.0)
    single = type(dec)(dec.terms[:1], dec.i0, dec.big_m, dec.radius,
                       dec.weight_sup, dec.grid)
    only = dec.terms[0]
    scaled_term = type(only)(only.j, only.i, 1.0 + 0j, only.atom, only.support,
                             only.certificate)
    single_unit = type(dec)([scaled_term], dec.i0, dec.big_m, dec.radius,
                            dec.weight_sup, dec.grid)
    assert h1b_norm_upper(single_unit) == 1.0
    assert h1b_norm_upper(single) == abs(only.coefficient)


def test_h1b_upper_homogeneity_and_additivity(flat_weight):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    f = make_two_bump_input(flat_weight, grid, 0.0, 128.0, 1.0)
    dec = decompose_two_bump(flat_weight, f, 0.0, 128.0, 1.0)
    total = h1b_norm_upper(dec)
    scaled = [type(t)(t.j, t.i, 3.0 * t.coefficient, t.atom, t.support,
                      t.certificate) for t in dec.terms]
    dec3 = type(dec)(scaled, dec.i0, dec.big_m, dec.radius, dec.weight_sup,
                     dec.grid)
    assert h1b_norm_upper(dec3) == pytest.approx(3.0 * total, rel=1e-13)
    both = type(dec)(list(dec.terms) + scaled, dec.i0, dec.big_m, dec.radius,
                     dec.weight_sup, dec.grid)
    assert h1b_norm_upper(both) == pytest.approx(4.0 * total, rel=1e-13)


def test_h1b_upper_rejects_uncertified(flat_weight):
    grid = UniformGrid(-4.0, 1.0 / 64.0, 513)
    chi = indicator(grid, Interval(0.0, 1.0))
    cert = check_atom(chi, Interval(0.0, 1.0), flat_weight)
    assert not cert.accepted
    dec = decompose_two_bump  # placeholder to reuse the dataclass
    from cauchylab import AtomicDecomposition, DecompositionTerm
    bad = AtomicDecomposition(
        [DecompositionTerm(1, 1, 1.0 + 0j, chi, Interval(0.0, 1.0), cert)],
        1, 128.0, 1.0, flat_weight.sup_norm, grid)
    with pytest.raises(PreconditionError):
        h1b_norm_upper(bad)


def test_bmo_of_weighted_symbol_divided(tent_weight):
    # the weighted symbol divided by b recovers the real profile exactly
    from cauchylab.symbols import weighted_symbol
    from cauchylab.cauchy import weight_values
    grid = std_grid(512)
    phi = smooth_bump(grid)
    a = weighted_symbol(tent_weight, phi)
    divided = a.samples / weight_values(tent_weight.curve, grid)
    assert np.max(np.abs(divided - phi.samples)) <= 1e-14


def test_oscillation_report_csv(tmp_path):
    grid = std_grid(512)
    report = vmo_profile(clamped_log(grid), [0.5, 1.0])
    path = tmp_path / "osc.csv"
    report.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "kind,scale,oscillation"
    assert len(lines) == 1 + 3 * 2
    kinds = [ln.split(",")[0] for ln in lines[1:]]
    assert kinds == ["small", "small", "large", "large", "far", "far"]
