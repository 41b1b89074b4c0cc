"""The summary rules of tools/bench.py, the ABBA benchmark harness."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "bench.py"
_SPEC = importlib.util.spec_from_file_location("bench_tool", _PATH)
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_pairs_are_won_by_the_metric_direction_and_ties_count_for_neither():
    head, base = [1.0, 2.0, 3.0, 4.0], [2.0, 2.0, 1.0, 5.0]
    assert bench.wins(head, base, "lower") == {"head": 2, "base": 1, "ties": 1}
    assert bench.wins(head, base, "higher") == {"head": 1, "base": 2, "ties": 1}
    with pytest.raises(ValueError):
        bench.wins(head, base[:3], "lower")


def test_summary_gives_the_median_and_the_interquartile_range():
    got = bench.summary([4.0, 1.0, 3.0, 2.0, 5.0])
    assert (got["q1"], got["median"], got["q3"], got["iqr"]) == (2.0, 3.0, 4.0, 2.0)
    assert bench.summary([0.25]) == {"median": 0.25, "iqr": 0.0, "q1": 0.25, "q3": 0.25,
                                     "runs": 1}
