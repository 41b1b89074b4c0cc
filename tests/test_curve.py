import numpy as np
import pytest

from cauchylab import (AccretiveWeight, CurveFormatError, PreconditionError,
                       eval_A, eval_b, eval_slope, load_curve_file, make_curve,
                       write_curve_file)

from conftest import make_random_curve


def test_flat_curve():
    curve = make_curve([], [0.0], 0.0)
    assert curve.lipschitz_constant == 0.0
    assert eval_A(curve, 3.7) == 0.0
    assert eval_b(AccretiveWeight(curve), 11.0) == 1.0 + 0.0j


def test_tent_evaluation():
    tent = make_curve([0.0], [1.0, -1.0], 0.0)
    assert tent.lipschitz_constant == 1.0
    assert eval_A(tent, -2.0) == -2.0
    assert eval_A(tent, 2.0) == -2.0
    assert eval_A(tent, 0.0) == 0.0


def test_slope_right_continuous_at_breakpoint():
    tent = make_curve([0.0], [1.0, -1.0], 0.0)
    w = AccretiveWeight(tent)
    assert eval_b(w, 0.0) == 1.0 - 1.0j
    assert eval_slope(tent, -1e-12) == 1.0
    assert abs(eval_b(w, 0.5)) == pytest.approx(np.sqrt(2.0))


def test_accretive_real_part_is_one():
    curve = make_random_curve(seed=5)
    w = AccretiveWeight(curve)
    xs = np.linspace(-10, 10, 501)
    b = eval_b(w, xs)
    assert np.all(b.real == 1.0)
    assert np.all(np.abs(b) <= w.sup_norm + 1e-15)


def test_lipschitz_inequality_sampled():
    curve = make_random_curve(seed=7)
    L = curve.lipschitz_constant
    rng = np.random.default_rng(0)
    x1 = rng.uniform(-20, 20, 10_000)
    x2 = rng.uniform(-20, 20, 10_000)
    lhs = np.abs(eval_A(curve, x1) - eval_A(curve, x2))
    assert np.all(lhs <= L * np.abs(x1 - x2) + 1e-12)
    assert L == 0.5


def test_sup_slope_matches_max_slope():
    curve = make_random_curve(seed=9)
    xs = np.linspace(-15, 15, 20_001)
    assert np.max(np.abs(eval_slope(curve, xs))) == curve.lipschitz_constant


def test_continuity_at_breakpoints():
    curve = make_random_curve(seed=11)
    for bp in curve.breakpoints:
        below = eval_A(curve, bp - 1e-9)
        at = eval_A(curve, bp)
        assert abs(below - at) < 1e-8


@pytest.mark.parametrize("breakpoints,slopes", [
    ([1.0, 0.5], [0.0, 1.0, 0.0]),    # non-monotone breakpoints
    ([0.0], [1.0]),                   # slope count mismatch
    ([0.0], [np.inf, 0.0]),           # non-finite slope
])
def test_make_curve_rejects(breakpoints, slopes):
    with pytest.raises(PreconditionError):
        make_curve(breakpoints, slopes, 0.0)


@pytest.mark.parametrize("breakpoints,slopes,anchor", [
    ([], [1e200], 0.0),                        # 1 + slope^2 overflows
    ([0.0, 1e308], [1.0, 1e10, 1.0], 1e308),   # A at the second breakpoint overflows
])
def test_make_curve_rejects_curves_outside_the_float_range(breakpoints, slopes, anchor):
    # RuntimeWarnings are errors under pytest, so the check itself must not warn
    with pytest.raises(PreconditionError, match="float range"):
        make_curve(breakpoints, slopes, anchor)
    assert AccretiveWeight(make_curve([], [1e154], 0.0)).sup_norm == 1e154


def test_curve_file_roundtrip(tmp_path):
    curve = make_random_curve(seed=13)
    path = tmp_path / "curve.txt"
    write_curve_file(curve, path)
    loaded = load_curve_file(path)
    assert np.allclose(loaded.breakpoints, curve.breakpoints)
    assert np.allclose(loaded.slopes, curve.slopes)
    xs = np.linspace(-9, 9, 97)
    assert np.allclose(eval_A(loaded, xs), eval_A(curve, xs))


@pytest.mark.parametrize("text", [
    "anchor 0.0\nslopes 0.0\n",
    "anchor 0.0\nbreakpoints 0.0\nslopes 1.0\n",
    "anchor zero\nbreakpoints\nslopes 0.0\n",
    "breakpoints\nanchor 0.0\nslopes 0.0\n",
])
def test_curve_file_rejects_malformed(tmp_path, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    with pytest.raises(CurveFormatError):
        load_curve_file(path)


def test_weight_sup_norm_attained():
    curve = make_random_curve(seed=17)
    w = AccretiveWeight(curve)
    xs = np.linspace(-15, 15, 40_001)
    assert np.max(np.abs(eval_b(w, xs))) == pytest.approx(w.sup_norm, rel=1e-14)
