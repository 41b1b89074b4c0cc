import dataclasses
import tracemalloc

import numpy as np
import pytest

from cauchylab import (GridTooNarrowError, Interval, NumericalCheckError,
                       PreconditionError, UniformGrid, atoms, containment_index,
                       decompose_two_bump, decomposition_csv, eval_b, h1b_norm_upper,
                       make_two_bump_input, reconstruction_error, two_bump_norm_bound)
from cauchylab.atoms import (Bump, ProfileTable, _interval_integrals, make_test_atom,
                             profile_atom, summarize_profiles)
from cauchylab.cauchy import weight_values
from cauchylab.spaces import AtomCertificate

from conftest import on_hull, two_bump, two_bump_host_grid


def canonical_run(weight, big_m, r=1.0, x0=0.0, cells_per_radius=4):
    y0 = x0 + big_m * r
    grid = two_bump_host_grid(x0, y0, r, r / cells_per_radius)
    f = make_two_bump_input(weight, grid, x0, y0, r)
    return f, decompose_two_bump(weight, f)


def canonical_rows(weight, big_m):
    """The decomposition of ``canonical_run`` and its profile table's rows,
    one-row tables in term order."""
    _, dec = canonical_run(weight, big_m)
    return dec, [dec.table.take([k]) for k in range(len(dec.table))]


def one_row(scale, inner, outer, bump=None):
    """One-row table: scale * (chi_inner / D_inner - chi_outer / D_outer), or
    (bump samples on inner) - scale * chi_outer / D_outer."""
    return ProfileTable(np.array([inner.center]), np.array([inner.radius]),
                        np.array([outer.center]), np.array([outer.radius]),
                        np.array([scale], dtype=np.complex128), (bump,))


def certificate(summary, k):
    """Row k's certificate quantities, as the ``AtomCertificate`` of an atom
    on its support."""
    return AtomCertificate(True, float(summary.size_value[k]), float(summary.residual[k]))


def realize(weight, grid, row):
    """Coefficient, certificate and unit-coefficient atom of a one-row table."""
    summary = summarize_profiles(weight, grid.left, grid.spacing, grid.count, row)
    return float(summary.alpha[0]), certificate(summary, 0), profile_atom(grid, row, summary, 0)


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
    assert len(dec.coefficient) == 18
    assert dec.summary.accepted().all()
    assert reconstruction_error(dec, f) <= 1e-10


def test_coefficient_bound(curve_trio):
    for _, weight in curve_trio:
        _, dec = canonical_run(weight, 128)
        cap = 6.0 * weight.sup_norm + 1e-6
        assert np.all(np.abs(dec.coefficient) <= cap)


def test_term_count_follows_containment(flat_weight):
    for m in (128, 256, 512, 1024):
        _, dec = canonical_run(flat_weight, m)
        assert dec.i0 == containment_index(m)
        assert len(dec.coefficient) == 2 * (dec.i0 + 1)


def test_norm_bound_and_log_band(curve_trio):
    for _, weight in curve_trio:
        ratios = []
        for m in (128, 256, 512, 1024):
            _, dec = canonical_run(weight, m)
            total = two_bump_norm_bound(dec)
            assert total <= 12.0 * weight.sup_norm * (dec.i0 + 1) + 1e-9
            ratios.append(total / np.log2(m))
        assert max(ratios) <= 2.0 * min(ratios)
        # a NaN coefficient fails the bound
        coefficient = dec.coefficient.copy()
        coefficient[3] = np.nan
        with pytest.raises(NumericalCheckError, match="exceeds the bound"):
            two_bump_norm_bound(dataclasses.replace(dec, coefficient=coefficient))


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
    for k in range(len(dec.table)):
        support = dec.table.outer_interval(k)
        d = _scalar_integral(random_weight, dec.grid, support)
        assert abs(d) >= support.length * (1.0 - 1e-12)


def test_two_bump_pipeline_holds_only_the_bump_windows(tent_weight):
    # at M = 2^16 the host grid has 2^21 + 5 nodes, of which the bumps hold 18:
    # the input, the decomposition, its bound, its CSV and the reconstruction
    # error read the bump windows and one node per piece, where host-grid
    # arrays of the input, the terms' atoms and their sum took 260 MiB
    r, m = 1.0, 1 << 16
    grid = two_bump_host_grid(0.0, m * r, r, r / 4)
    tracemalloc.start()
    try:
        f = make_two_bump_input(tent_weight, grid, 0.0, m * r, r)
        dec = decompose_two_bump(tent_weight, f)
        two_bump_norm_bound(dec)
        decomposition_csv(dec)
        error = reconstruction_error(dec, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert grid.count == (1 << 21) + 5 and error <= 1e-10
    assert peak < 4 << 20


def test_random_two_bump_inputs(curve_trio):
    rng = np.random.default_rng(21)
    for _, weight in curve_trio:
        r, x0, y0 = 1.0, 0.0, 128.0
        grid = two_bump_host_grid(x0, y0, r, r / 4)
        base = on_hull(make_two_bump_input(weight, grid, x0, y0, r))
        for _ in range(3):
            # random bump shapes, re-cancelled against b and renormalized
            noise = rng.uniform(0.2, 1.0, grid.count)
            samples = base.samples * noise
            lo1, hi1 = grid.index_range(Interval(x0, r))
            d1 = _scalar_integral(weight, grid, Interval(x0, r))
            b = weight_values(weight.curve, grid)
            defect = np.sum(samples * b) * grid.spacing
            corrected = samples.copy()
            corrected[lo1:hi1] -= defect / d1 * 1.0
            corrected /= max(1e-300, np.max(np.abs(corrected)))
            f = two_bump(grid, x0, y0, r, corrected)
            dec = decompose_two_bump(weight, f)
            assert reconstruction_error(dec, f) <= 1e-10
            assert dec.summary.accepted().all()
            assert np.all(np.abs(dec.coefficient) <= 6.0 * weight.sup_norm + 1e-6)


def test_zero_coefficient_terms_are_canonical(flat_weight):
    # kill one bump's weighted mass: its chain collapses to zero atoms
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    xs = grid.nodes()
    samples = np.zeros(grid.count, dtype=np.complex128)
    inside = np.abs(xs - x0) <= r
    samples[inside] = np.sign(xs[inside] - x0)  # odd, vanishes at x0
    f = two_bump(grid, x0, y0, r, samples)
    dec = decompose_two_bump(flat_weight, f)
    assert len(dec.coefficient) == 2 * (dec.i0 + 1)
    chain2 = np.arange(len(dec.table)) // (dec.i0 + 1) == 1     # the rows with j = 2
    assert np.all(dec.coefficient[chain2] == 0)
    assert dec.summary.accepted()[chain2].all()
    assert reconstruction_error(dec, f) <= 1e-10


def test_preconditions_rejected(flat_weight):
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = two_bump_host_grid(x0, y0, r, r / 4)
    good = make_two_bump_input(flat_weight, grid, x0, y0, r)
    # cancellation violated
    bad = good._replace(x_bump=np.abs(good.x_bump).astype(complex),
                        y_bump=np.abs(good.y_bump).astype(complex))
    with pytest.raises(PreconditionError):
        decompose_two_bump(flat_weight, bad)
    # bump bound violated
    with pytest.raises(PreconditionError):
        decompose_two_bump(flat_weight, good._replace(x_bump=3.0 * good.x_bump,
                                                      y_bump=3.0 * good.y_bump))
    # a bump without one sample per node
    for short in (good._replace(x_bump=good.x_bump[1:]),
                  good._replace(y_bump=good.y_bump[:, None])):
        with pytest.raises(PreconditionError, match="one sample on each node"):
            decompose_two_bump(flat_weight, short)
    # a NaN sample, which the bound on |f| rejects
    x_bump = good.x_bump.copy()
    x_bump[1] = np.nan
    with pytest.raises(PreconditionError, match="bounded"):
        decompose_two_bump(flat_weight, good._replace(x_bump=x_bump))
    # separation too small
    with pytest.raises(PreconditionError):
        near = make_two_bump_input(flat_weight, grid, x0, x0 + 50.0, r)
        decompose_two_bump(flat_weight, near)


def test_grid_too_narrow_raises(flat_weight):
    from cauchylab import GridTooNarrowError
    r, x0, y0 = 1.0, 0.0, 128.0
    grid = UniformGrid(x0 - 2.0, 0.25, int((y0 - x0 + 4.0) / 0.25) + 1)
    f = make_two_bump_input(flat_weight, grid, x0, y0, r)
    with pytest.raises(GridTooNarrowError):
        decompose_two_bump(flat_weight, f)


def test_two_bump_input_contract(curve_trio):
    for _, weight in curve_trio:
        grid = two_bump_host_grid(0.0, 128.0, 1.0, 0.25)
        f = on_hull(make_two_bump_input(weight, grid, 0.0, 128.0, 1.0))
        assert f.sup_norm() <= 1.0 + 1e-12
        from cauchylab.cauchy import weight_values
        b = weight_values(weight.curve, grid)
        assert abs(np.sum(f.samples * b) * grid.spacing) <= 1e-13


def test_decomposition_csv_export(flat_weight):
    from cauchylab import decomposition_csv
    _, dec = canonical_run(flat_weight, 128)
    lines = decomposition_csv(dec).strip().split("\n")
    assert lines[0] == ("j,i,re_alpha,im_alpha,support_center,support_radius,"
                        "cert_cancel_residual")
    assert len(lines) == 1 + len(dec.coefficient)
    first = lines[1].split(",")
    assert int(first[0]) == 1 and int(first[1]) == 1


def test_upper_estimate_dominates_l1_floor(curve_trio):
    # the coefficient-sum upper estimate must sit above the plain L1 mass,
    # the desk-scale floor for any atomic-norm estimate
    from cauchylab import h1b_norm_upper, lp_norm
    for _, weight in curve_trio:
        f, dec = canonical_run(weight, 256)
        assert h1b_norm_upper(dec) >= lp_norm(on_hull(f), 1)


def test_profiles_reinstantiate_exactly(tent_weight):
    # two-level atoms rebuild on rescaled grids with the weighted
    # cancellation intact and only quadrature-sized coefficient drift
    dec, rows = canonical_rows(tent_weight, 128)
    sample = [(k, row) for k, row in enumerate(rows) if row.bumps[0] is None]
    assert sample
    for k, row in sample[:4] + sample[-2:]:
        support = dec.table.outer_interval(k)
        radius = support.radius
        for spacing in (radius / 8, radius / 16):
            grid = UniformGrid(support.center - 2 * radius - 2 * spacing,
                               spacing,
                               int(round(4 * radius / spacing)) + 5)
            raw = realize(tent_weight, grid, row)[2].samples
            b = weight_values(tent_weight.curve, grid)
            cancel = abs(np.sum(raw * b) * spacing)
            assert cancel <= 1e-12 * max(np.sum(np.abs(raw)) * spacing, 1e-300)
            summary = summarize_profiles(tent_weight, grid.left, grid.spacing, grid.count, row)
            alpha, cert = summary.alpha[0], certificate(summary, 0)
            assert cert.accepted
            assert alpha == pytest.approx(abs(dec.coefficient[k]),
                                          rel=8 * spacing / radius)


def test_decomposition_mirrored_orientation(flat_weight):
    # the second bump may sit to the left; chains and tail mirror cleanly
    r, x0, y0 = 1.0, 0.0, -128.0
    grid = two_bump_host_grid(y0, x0, r, r / 4)
    f = make_two_bump_input(flat_weight, grid, x0, y0, r)
    dec = decompose_two_bump(flat_weight, f)
    assert len(dec.coefficient) == 2 * (dec.i0 + 1)
    assert dec.summary.accepted().all()
    assert reconstruction_error(dec, f) <= 1e-10


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
        summarize_profiles(tent_weight, grid.left, grid.spacing, grid.count, profile)


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
        return 0.0, AtomCertificate(True, 0.0, 0.0)
    size_value = sup * outer.length / alpha
    residual = cancel / (mass * weight.sup_norm) if mass > 0 else 0.0
    return float(alpha), AtomCertificate(True, float(size_value), float(residual))


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
        for p in rows[:3] + rows[-2:]:
            c, radius = p.outer_interval(0).center, p.outer_interval(0).radius
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
            summary = summarize_profiles(weight, grid.left, grid.spacing, grid.count, profile)
            assert (summary.alpha[0], certificate(summary, 0)) == (alpha, cert)


def test_bump_profile_keeps_its_spacing(tent_weight):
    _, rows = canonical_rows(tent_weight, 128)
    bump = next(row for row in rows if row.bumps[0] is not None)
    c, radius = bump.outer_interval(0).center, bump.outer_interval(0).radius
    finer = two_bump_host_grid(c, c + 128 * radius, radius, bump.bumps[0].spacing / 2)
    with pytest.raises(PreconditionError, match="same spacing"):
        realize(tent_weight, finer, bump)


def test_first_offending_bump_row_names_the_error(tent_weight):
    # a bump row off the grid's spacing raises PreconditionError, one off
    # its node range GridTooNarrowError, whichever comes first in row order
    # and the spacing first within a row
    _, rows = canonical_rows(tent_weight, 128)
    k = next(k for k, row in enumerate(rows) if row.bumps[0] is not None)
    c, radius = rows[k].outer_interval(0).center, rows[k].outer_interval(0).radius
    bump = rows[k].bumps[0]
    grid = two_bump_host_grid(c, c + 128 * radius, radius, bump.spacing)
    faults = {"spacing": Bump(bump.values, bump.spacing / 2),
              "range": Bump(bump.values[:-1], bump.spacing),
              "both": Bump(bump.values[:-1], bump.spacing / 2)}
    for first, second, error in (("range", "spacing", GridTooNarrowError),
                                 ("spacing", "range", PreconditionError),
                                 ("both", "range", PreconditionError)):
        table = rows[k].take([0, 0, 0, 0])
        table = dataclasses.replace(table, bumps=(bump, faults[first], bump, faults[second]))
        with pytest.raises(error) as raised:
            summarize_profiles(tent_weight, grid.left, grid.spacing, grid.count, table)
        assert type(raised.value) is error


def test_two_bump_tables_take_one_chain_length():
    # a stage reads one chain length i0 per chunk of residuals: two-bump
    # functions at M = 128 and M = 512 make a table each, and none together
    fs = [atoms.TwoBump(two_bump_host_grid(0.0, big_m, 1.0, 0.25), 0.0, big_m, 1.0,
                        np.ones(9, dtype=np.complex128), -np.ones(9, dtype=np.complex128))
          for big_m in (128.0, 512.0)]
    sums = np.zeros((2, 2), dtype=np.complex128)
    chains = [atoms.two_bump_tables([f], sums[:1])[1] for f in fs]
    assert chains == [containment_index(128), containment_index(512)]
    assert chains[0] != chains[1]
    with pytest.raises(PreconditionError, match="make no single table"):
        atoms.two_bump_tables(fs, sums)


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


def _old_make_two_bump_input(weight, grid, x0, y0, r):
    (lo1, lo2), (hi1, hi2), re, im = _interval_integrals(
        weight, grid.left, grid.spacing, grid.count, np.array([x0, y0]), np.array([r, r]))
    d1, d2 = complex(re[0], im[0]), complex(re[1], im[1])
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[lo1:hi1] = s / d1
    samples[lo2:hi2] = -s / d2
    return samples


def _old_make_test_atom(weight, grid, x0, r):
    (lo1, lo2), (hi1, hi2), re, im = _interval_integrals(
        weight, grid.left, grid.spacing, grid.count,
        np.array([x0 - r / 2.0, x0 + r / 2.0]), np.array([r / 2.0, r / 2.0]))
    d1, d2 = complex(re[0], im[0]), complex(re[1], im[1])
    s = min(abs(d1), abs(d2))
    samples = np.zeros(grid.count, dtype=np.complex128)
    samples[lo1:hi1] = s / d1
    samples[lo2:hi2] -= s / d2
    samples /= float(np.max(np.abs(samples))) * 2.0 * r
    return samples


@pytest.mark.parametrize("x0,r", [(0.0, 1.0), (-3.0, 1.0), (2.5, 0.5), (0.3, 0.7)])
def test_cancelling_pair_builders_equal_their_old_bodies(curve_trio, x0, r):
    # one builder writes both; bit for bit, signed zeros included
    grid = two_bump_host_grid(x0, x0 + 128.0 * r, r, r / 8)
    for _, weight in curve_trio:
        new = on_hull(make_two_bump_input(weight, grid, x0, x0 + 128.0 * r, r)).samples
        assert new.tobytes() == _old_make_two_bump_input(weight, grid, x0,
                                                         x0 + 128.0 * r, r).tobytes()
        new = make_test_atom(weight, grid, x0, r).samples
        assert new.tobytes() == _old_make_test_atom(weight, grid, x0, r).tobytes()
