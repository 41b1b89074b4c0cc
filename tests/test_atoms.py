import numpy as np
import pytest

from cauchylab import (GridFunction, Interval, NumericalCheckError,
                       PreconditionError, UniformGrid, atoms, containment_index,
                       decompose_two_bump, eval_b, h1b_norm_upper,
                       make_two_bump_input, reconstruct, two_bump_norm_bound)
from cauchylab.atoms import (Bump, ProfileTable, profile_atom, summarize_profiles,
                             two_bump_profiles)
from cauchylab.cauchy import weight_values
from cauchylab.spaces import AtomCertificate

from conftest import two_bump_host_grid


def canonical_run(weight, big_m, r=1.0, x0=0.0, cells_per_radius=4):
    y0 = x0 + big_m * r
    grid = two_bump_host_grid(x0, y0, r, r / cells_per_radius)
    f = make_two_bump_input(weight, grid, x0, y0, r)
    return f, decompose_two_bump(weight, f, x0, y0, r)


def canonical_rows(weight, big_m):
    """The decomposition of ``canonical_run`` and its profile table's rows,
    one-row tables in term order."""
    f, dec = canonical_run(weight, big_m)
    table = two_bump_profiles(weight, f, 0.0, float(big_m), 1.0)[0]
    return dec, [table.take([k]) for k in range(len(table))]


def one_row(scale, inner, outer, bump=None):
    """One-row table: scale * (chi_inner / D_inner - chi_outer / D_outer), or
    (bump samples on inner) - scale * chi_outer / D_outer."""
    return ProfileTable(np.array([inner.center]), np.array([inner.radius]),
                        np.array([outer.center]), np.array([outer.radius]),
                        np.array([scale], dtype=np.complex128), (bump,))


def realize(weight, grid, row):
    """Coefficient, certificate and unit-coefficient atom of a one-row table."""
    summary = summarize_profiles(weight, grid, row)
    return float(summary.alpha[0]), summary.certificate(0), profile_atom(grid, row, summary, 0)


def _scalar_integral(weight, grid, interval):
    """D_I summed over the sampled weight on the closed node range."""
    lo, hi = grid.index_range(interval)
    return complex(np.sum(weight_values(weight.curve, grid)[lo:hi]) * grid.spacing)


def _library_integral(weight, grid, interval):
    """D_I as the library integrates it, in closed form."""
    _, _, re, im = atoms._interval_integrals(weight, grid.left, grid.spacing, grid.count,
                                             np.array([interval.center]),
                                             np.array([interval.radius]))
    return complex(re[0], im[0])


def test_containment_index_values():
    # smallest i with 2^i >= M + 1
    assert [containment_index(m) for m in (128, 256, 512, 1024)] == [8, 9, 10, 11]
    assert containment_index(100.5) == 7
    for m in (128, 256, 512, 1024):
        i0 = containment_index(m)
        assert 2 ** i0 >= m + 1 > 2 ** (i0 - 1)


def test_canonical_decomposition_shape(flat_weight):
    f, dec = canonical_run(flat_weight, 128)
    assert dec.i0 == 8
    assert len(dec.terms) == 18
    assert all(t.certificate.accepted for t in dec.terms)
    rec = reconstruct(dec)
    scale = np.max(np.abs(f.samples))
    assert np.max(np.abs(rec.samples - f.samples)) <= 1e-10 * scale


def test_coefficient_bound(curve_trio):
    for _, weight in curve_trio:
        _, dec = canonical_run(weight, 128)
        cap = 6.0 * weight.sup_norm + 1e-6
        assert all(abs(t.coefficient) <= cap for t in dec.terms)


def test_term_count_follows_containment(flat_weight):
    for m in (128, 256, 512, 1024):
        _, dec = canonical_run(flat_weight, m)
        assert dec.i0 == containment_index(m)
        assert len(dec.terms) == 2 * (dec.i0 + 1)


def test_norm_bound_and_log_band(curve_trio):
    for _, weight in curve_trio:
        ratios = []
        for m in (128, 256, 512, 1024):
            _, dec = canonical_run(weight, m)
            total = two_bump_norm_bound(dec)
            assert total <= 12.0 * weight.sup_norm * (dec.i0 + 1) + 1e-9
            ratios.append(total / np.log2(m))
        assert max(ratios) <= 2.0 * min(ratios)


def test_upper_estimate_at_m1024(flat_weight):
    _, dec = canonical_run(flat_weight, 1024)
    assert h1b_norm_upper(dec) <= 12.0 * (dec.i0 + 1)
    assert h1b_norm_upper(dec) <= 144.0


def test_doubling_radius_doubles_sum(flat_weight):
    _, dec1 = canonical_run(flat_weight, 128, r=1.0)
    _, dec2 = canonical_run(flat_weight, 128, r=2.0)
    s1 = two_bump_norm_bound(dec1)
    s2 = two_bump_norm_bound(dec2)
    assert s2 == pytest.approx(2.0 * s1, rel=1e-12)


def test_denominator_floor_on_used_intervals(random_weight):
    _, dec = canonical_run(random_weight, 256)
    for term in dec.terms:
        d = _scalar_integral(random_weight, dec.grid, term.support)
        assert abs(d) >= term.support.length * (1.0 - 1e-12)


def test_random_two_bump_inputs(curve_trio):
    rng = np.random.default_rng(21)
    for _, weight in curve_trio:
        r, x0, y0 = 1.0, 0.0, 128.0
        grid = two_bump_host_grid(x0, y0, r, r / 4)
        base = make_two_bump_input(weight, grid, x0, y0, r)
        for _ in range(3):
            # random bump shapes, re-cancelled against b and renormalized
            noise = rng.uniform(0.2, 1.0, grid.count)
            samples = base.samples * noise
            f0 = GridFunction(grid, samples, base.support)
            lo1, hi1 = grid.index_range(Interval(x0, r))
            d1 = _scalar_integral(weight, grid, Interval(x0, r))
            b = weight_values(weight.curve, grid)
            defect = np.sum(f0.samples * b) * grid.spacing
            corrected = f0.samples.copy()
            corrected[lo1:hi1] -= defect / d1 * 1.0
            corrected /= max(1e-300, np.max(np.abs(corrected)))
            f = GridFunction(grid, corrected, base.support)
            dec = decompose_two_bump(weight, f, x0, y0, r)
            rec = reconstruct(dec)
            assert np.max(np.abs(rec.samples - f.samples)) <= 1e-10
            assert all(t.certificate.accepted for t in dec.terms)
            assert all(abs(t.coefficient) <= 6.0 * weight.sup_norm + 1e-6
                       for t in dec.terms)


def test_zero_coefficient_terms_are_canonical(flat_weight):
    # kill one bump's weighted mass: its chain collapses to zero atoms
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    xs = grid.nodes()
    samples = np.zeros(grid.count, dtype=np.complex128)
    inside = np.abs(xs - x0) <= r
    samples[inside] = np.sign(xs[inside] - x0)  # odd, vanishes at x0
    f = GridFunction(grid, samples, Interval(x0, r).hull(Interval(y0, r)))
    dec = decompose_two_bump(flat_weight, f, x0, y0, r)
    assert len(dec.terms) == 2 * (dec.i0 + 1)
    chain2 = [t for t in dec.terms if t.j == 2]
    assert all(t.coefficient == 0 for t in chain2)
    assert all(t.certificate.accepted for t in chain2)
    rec = reconstruct(dec)
    assert np.max(np.abs(rec.samples - f.samples)) <= 1e-10


def test_preconditions_rejected(flat_weight):
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    good = make_two_bump_input(flat_weight, grid, x0, y0, r)
    # cancellation violated
    bad = GridFunction(grid, np.abs(good.samples).astype(complex), good.support)
    with pytest.raises(PreconditionError):
        decompose_two_bump(flat_weight, bad, x0, y0, r)
    # bump bound violated
    with pytest.raises(PreconditionError):
        decompose_two_bump(flat_weight, good.scaled(3.0), x0, y0, r)
    # separation too small
    with pytest.raises(PreconditionError):
        near = make_two_bump_input(flat_weight, grid, x0, x0 + 50.0, r)
        decompose_two_bump(flat_weight, near, x0, x0 + 50.0, r)


def test_grid_too_narrow_raises(flat_weight):
    from cauchylab import GridTooNarrowError
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = UniformGrid(x0 - 2.0, 0.25, int((y0 - x0 + 4.0) / 0.25) + 1)
    f = make_two_bump_input(flat_weight, grid, x0, y0, r)
    with pytest.raises(GridTooNarrowError):
        decompose_two_bump(flat_weight, f, x0, y0, r)


def test_two_bump_input_contract(curve_trio):
    for _, weight in curve_trio:
        grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
        f = make_two_bump_input(weight, grid, 0.0, 128.0, 1.0)
        assert f.sup_norm() <= 1.0 + 1e-12
        from cauchylab.cauchy import weight_values
        b = weight_values(weight.curve, grid)
        assert abs(np.sum(f.samples * b) * grid.spacing) <= 1e-13


def test_decomposition_csv_export(flat_weight, tmp_path):
    from cauchylab import write_decomposition_csv
    _, dec = canonical_run(flat_weight, 128)
    path = tmp_path / "dec.csv"
    write_decomposition_csv(dec, path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == ("j,i,re_alpha,im_alpha,support_center,support_radius,"
                        "cert_cancel_residual")
    assert len(lines) == 1 + len(dec.terms)
    first = lines[1].split(",")
    assert int(first[0]) == 1 and int(first[1]) == 1


def test_upper_estimate_dominates_l1_floor(curve_trio):
    # the coefficient-sum upper estimate must sit above the plain L1 mass,
    # the desk-scale floor for any atomic-norm estimate
    from cauchylab import h1b_norm_upper, lp_norm
    for _, weight in curve_trio:
        f, dec = canonical_run(weight, 256)
        assert h1b_norm_upper(dec) >= lp_norm(f, 1)


def test_profiles_reinstantiate_exactly(tent_weight):
    # two-level atoms rebuild on rescaled grids with the weighted
    # cancellation intact and only quadrature-sized coefficient drift
    dec, rows = canonical_rows(tent_weight, 128)
    sample = [(t, row) for t, row in zip(dec.terms, rows) if row.bumps[0] is None]
    assert sample
    for term, row in sample[:4] + sample[-2:]:
        radius = term.support.radius
        for spacing in (radius / 8, radius / 16):
            grid = UniformGrid(term.support.center - 2 * radius - 2 * spacing,
                               spacing,
                               int(round(4 * radius / spacing)) + 5)
            raw = realize(tent_weight, grid, row)[2].samples
            b = weight_values(tent_weight.curve, grid)
            cancel = abs(np.sum(raw * b) * spacing)
            assert cancel <= 1e-12 * max(np.sum(np.abs(raw)) * spacing, 1e-300)
            summary = summarize_profiles(tent_weight, grid, row)
            alpha, cert = summary.alpha[0], summary.certificate(0)
            assert cert.accepted
            assert alpha == pytest.approx(abs(term.coefficient),
                                          rel=8 * spacing / radius)


def test_decomposition_mirrored_orientation(flat_weight):
    # the second bump may sit to the left; chains and tail mirror cleanly
    r, x0, y0 = 1.0, 0.0, -128.0
    grid = two_bump_host_grid(y0, x0, r, r / 4)
    f = make_two_bump_input(flat_weight, grid, x0, y0, r)
    dec = decompose_two_bump(flat_weight, f, x0, y0, r)
    assert len(dec.terms) == 2 * (dec.i0 + 1)
    assert all(t.certificate.accepted for t in dec.terms)
    rec = reconstruct(dec)
    assert np.max(np.abs(rec.samples - f.samples)) <= 1e-10


@pytest.mark.parametrize("layout,expected", [
    # two-bump CLI defaults (spacing 0.25) at M = 128 and 1024
    ((0.0, 128.0, 1.0, 0.25), (-448.5, 0.25, 4101)),
    ((0.0, 1024.0, 1.0, 0.25), (-3584.5, 0.25, 32773)),
    # factor-atom CLI default spacing at M = 4096
    ((0.0, 4096.0, 1.0, 0.125), (-14336.25, 0.125, 262149)),
    # off-origin x0
    ((-3.5, 124.5, 0.5, 0.125), (-451.75, 0.125, 8197)),
    # mirrored: the second bump on the left
    ((0.0, -128.0, 1.0, 0.25), (-576.5, 0.25, 4101)),
    # working grids of the iterative factorization, (c, c + M R, R, spacing)
    ((3.0, 259.0, 2.0, 0.25), (-893.5, 0.25, 8197)),
    ((-5.0, 187.0, 0.75, 0.75 / 8), (-677.1875, 0.09375, 16389)),
])
def test_two_bump_host_grid_pinned(layout, expected):
    from cauchylab import two_bump_host_grid
    grid = two_bump_host_grid(*layout)
    assert (grid.left, grid.spacing, grid.count) == expected
    assert grid.node(grid.index_of(layout[0])) == layout[0]


@pytest.mark.parametrize("kind", ["two-level", "bump"])
def test_summarize_profile_checks_denominator_floor(tent_weight, monkeypatch, kind):
    grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
    if kind == "two-level":
        profile = one_row(1.0 + 0.5j, Interval(0.0, 1.0), Interval(0.0, 2.0))
    else:
        lo, hi = grid.index_range(Interval(0.0, 1.0))
        values = np.linspace(-1.0, 2.0, hi - lo) + 0j
        scale = complex(np.sum(values * eval_b(tent_weight, grid.nodes()[lo:hi]))
                        * grid.spacing)
        profile = one_row(scale, Interval(0.0, 1.0), Interval(0.0, 2.0),
                          Bump(values, grid.spacing))
    alpha, cert, _ = realize(tent_weight, grid, profile)
    assert alpha > 0 and cert.accepted
    exact = atoms._interval_integrals

    def halved(*args):
        # Re b = 1 gives |D_I| >= |I| + spacing on node-aligned intervals; halve it
        lo, hi, re, im = exact(*args)
        return lo, hi, 0.5 * re, 0.5 * im

    monkeypatch.setattr(atoms, "_interval_integrals", halved)
    with pytest.raises(NumericalCheckError, match="denominator floor"):
        summarize_profiles(tent_weight, grid, profile)


def _parent_summary(weight, grid, profile):
    """summarize_profile as written before it also returned the levels, on a
    one-row table."""
    h = grid.spacing
    outer, scale, bump = profile.outer_interval(0), complex(profile.scale[0]), profile.bumps[0]
    olo, ohi = grid.index_range(outer)
    d_out = _library_integral(weight, grid, outer)
    v_out = scale / d_out
    if bump is None:
        inner = profile.inner_interval(0)
        d_in = _library_integral(weight, grid, inner)
        ilo, ihi = grid.index_range(inner)
        v_in = scale / d_in - v_out
        sup = max(abs(v_in), abs(v_out))
        cancel = abs(v_in * d_in - v_out * (d_out - d_in))
        mass = (abs(v_in) * (ihi - ilo) + abs(v_out) * ((ohi - olo) - (ihi - ilo))) * h
    else:
        blo, bhi = grid.index_range(profile.inner_interval(0))
        b_bump = weight_values(weight.curve, grid)[blo:bhi]
        inner_vals = bump.values - v_out
        sup = max(float(np.max(np.abs(inner_vals))) if inner_vals.size else 0.0,
                  abs(v_out))
        s_bump = complex(np.sum(bump.values * b_bump) * h)
        cancel = abs(s_bump - v_out * d_out)
        mass = (float(np.sum(np.abs(inner_vals))) +
                abs(v_out) * ((ohi - olo) - (bhi - blo))) * h
    alpha = sup * outer.length
    if alpha == 0.0:
        return 0.0, AtomCertificate(True, 0.0, 0.0, 1e-8)
    size_value = sup * outer.length / alpha
    residual = cancel / (mass * weight.sup_norm) if mass > 0 else 0.0
    return float(alpha), AtomCertificate(True, float(size_value), float(residual), 1e-8)


def _parent_raw(weight, grid, profile):
    """The atom of a one-row table as written before it was built on the
    summary's levels."""
    samples = np.zeros(grid.count, dtype=np.complex128)
    outer, scale, bump = profile.outer_interval(0), complex(profile.scale[0]), profile.bumps[0]
    if bump is None:
        inner = profile.inner_interval(0)
        d_in = _library_integral(weight, grid, inner)
        d_out = _library_integral(weight, grid, outer)
        ilo, ihi = grid.index_range(inner)
        olo, ohi = grid.index_range(outer)
        samples[ilo:ihi] += scale / d_in
        samples[olo:ohi] -= scale / d_out
        return samples
    d_out = _library_integral(weight, grid, outer)
    blo, bhi = grid.index_range(profile.inner_interval(0))
    samples[blo:bhi] = bump.values
    olo, ohi = grid.index_range(outer)
    samples[olo:ohi] -= scale / d_out
    return samples


def test_realize_profile_bitwise_equals_parent_sequence(curve_trio):
    # each profile on its host grid (decompose_two_bump's normalization, the
    # whole array over alpha) and on a working grid as weak_factorize builds
    # it (in place over the outer window); a zero-scale profile has alpha 0
    for _, weight in curve_trio:
        dec, rows = canonical_rows(weight, 128)
        profiles = [(dec.grid, row) for row in rows]
        pairs = list(zip(dec.terms, rows))
        for t, p in pairs[:3] + pairs[-2:]:
            c, radius = t.support.center, t.support.radius
            spacing = radius / 8 if p.bumps[0] is None else p.bumps[0].spacing
            profiles.append((two_bump_host_grid(c, c + 128 * radius, radius, spacing), p))
        profiles.append((dec.grid, one_row(0j, Interval(0.0, 1.0), Interval(0.0, 2.0))))
        assert {p.bumps[0] is None for _, p in profiles} == {True, False}
        for grid, profile in profiles:
            alpha, cert = _parent_summary(weight, grid, profile)
            raw = _parent_raw(weight, grid, profile)
            whole = raw / alpha if alpha > 0 else raw
            lo, hi = grid.index_range(profile.outer_interval(0))
            if alpha > 0:
                raw[lo:hi] /= alpha
            got_alpha, got_cert, atom = realize(weight, grid, profile)
            assert (got_alpha, got_cert) == (alpha, cert)
            assert atom.samples.tobytes() == whole.tobytes() == raw.tobytes()
            assert atom.support == profile.outer_interval(0)
            summary = summarize_profiles(weight, grid, profile)
            assert (summary.alpha[0], summary.certificate(0)) == (alpha, cert)


def test_bump_profile_keeps_its_spacing(tent_weight):
    _, rows = canonical_rows(tent_weight, 128)
    bump = next(row for row in rows if row.bumps[0] is not None)
    c, radius = bump.outer_interval(0).center, bump.outer_interval(0).radius
    finer = two_bump_host_grid(c, c + 128 * radius, radius, bump.bumps[0].spacing / 2)
    with pytest.raises(PreconditionError, match="same spacing"):
        realize(tent_weight, finer, bump)


@pytest.mark.parametrize("layout", [
    (0.0, float("inf"), 1.0, 0.25), (float("nan"), 128.0, 1.0, 0.25),
    (0.0, 128.0, 1.0, float("nan")), (0.0, 128.0, -1.0, 0.25),
    # finite centers whose tail interval leaves the float range
    (0.0, 1.28e308, 1e306, 2.5e305),
])
def test_two_bump_host_grid_rejects_non_finite_layouts(layout):
    from cauchylab import two_bump_host_grid
    with pytest.raises(PreconditionError):
        two_bump_host_grid(*layout)
