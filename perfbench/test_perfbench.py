"""Tests of the benchmark itself (not part of the library's suite).

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import cauchylab  # noqa: E402
from cauchylab import cauchy, grid  # noqa: E402

import passrun  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402


def _namespace_snapshot():
    """Every attribute of every cauchylab module, plus the two counted methods."""
    snap = {}
    for name, module in sys.modules.items():
        if name == "cauchylab" or name.startswith("cauchylab."):
            snap.update({(name, attr): value for attr, value in vars(module).items()})
    snap["GridFunction.__post_init__"] = grid.GridFunction.__post_init__
    snap["UniformGrid.index_range"] = grid.UniformGrid.index_range
    return snap


def _changed(before, after):
    return sorted(str(k) for k in before if after.get(k) is not before[k])


@pytest.fixture
def small_transform(monkeypatch):
    """The transform workload on one small grid with one pair per curve."""
    monkeypatch.setattr(workloads, "TRANSFORM_GRID_COUNTS", (257,))
    monkeypatch.setattr(workloads, "TRANSFORM_PAIRS", 1)
    seen = {}
    original_run = workloads.Transform.run

    def observed_run(self, begin_op):
        seen["during"] = _namespace_snapshot()
        return original_run(self, begin_op)

    monkeypatch.setattr(workloads.Transform, "run", observed_run)
    return seen


@pytest.mark.parametrize("traced", [False, True])
def test_only_a_traced_pass_installs_wrappers(small_transform, tmp_path, traced):
    before = _namespace_snapshot()
    result = passrun.run_pass("transform", 0, traced, tmp_path, time.monotonic(),
                              tmp_path / "spans.csv")
    assert result["failed"] == 0 and result["attempted"] > 0
    during = _changed(before, small_transform["during"])
    if traced:
        assert "('cauchylab.factorization', 'related_cauchy_values')" in during
        assert result["layers"]["cauchy.apply_related_cauchy.calls"] > 0
    else:
        assert during == []
        assert "layers" not in result
    assert _changed(before, _namespace_snapshot()) == []


def test_perturbed_result_counts_as_failed(small_transform, tmp_path, monkeypatch):
    original = cauchy.apply_cauchy_adjoint

    def perturbed(curve, g):
        out = original(curve, g)
        return cauchylab.GridFunction(out.grid, out.samples * (1.0 + 1e-3), out.support)

    monkeypatch.setattr(cauchy, "apply_cauchy_adjoint", perturbed)
    result = passrun.run_pass("transform", 0, False, tmp_path, time.monotonic())
    assert result["failed"] > 0
    assert result["failed"] / result["attempted"] > 0
    assert any("c2.adjoint" in message for message in result["failures"])


def test_reference_comparison_catches_a_relative_drift():
    reference = passrun.load_reference("factorize-rough", 7)["tent"]
    outcome = workloads.Outcome()
    assert workloads.compare_reference(outcome, dict(reference), reference) == []
    drifted = dict(reference, lambda_l1=reference["lambda_l1"] * (1.0 + 1e-11))
    assert workloads.compare_reference(outcome, drifted, reference)
    fewer = dict(reference, atoms_per_stage=[1, 18, 323])
    assert workloads.compare_reference(outcome, fewer, reference)


def _traced_shape_classes(breakpoints, slopes):
    """Shape classes of a two-stage factorization (1 + 18 atoms), traced."""
    weight = cauchylab.AccretiveWeight(cauchylab.make_curve(breakpoints, slopes, 0.0))
    tr = tracer.Tracer()
    tr.install()
    try:
        initial = cauchylab.single_two_bump_initial(weight, 0.0, 128, 1.0)
        wf = cauchylab.weak_factorize(weight, initial, workloads.EPS, 2)
    finally:
        tr.uninstall()
    return tr.shape_classes({"curve": [len(terms) for terms in wf.stages]})["curve"]


def test_shape_classes_separate_atoms_only_by_what_they_see():
    flat = _traced_shape_classes([], [0.0])
    tent = _traced_shape_classes([0.0], [1.0, -1.0])
    assert flat["atoms"] == tent["atoms"] == [1, 18]
    # Without a breakpoint the 18 children are copies of a few shapes; the
    # tent's breakpoint sits at another offset in each child's working grid.
    assert flat["grid_classes"][1] < 18
    assert tent["grid_classes"] == [1, 18]
    assert flat["grid_classes_total"] == flat["pair_classes_total"]
