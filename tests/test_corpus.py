"""The CLI's CSVs, regenerated in process, against the committed corpus.

Under the NumPy and BLAS versions recorded in corpus/VERSIONS.json every
file must match byte for byte.  Under other versions a float cell may move
by 1e-12 relative to the largest magnitude in its column, and every other
cell must match exactly.
"""

import json
import math

from make_corpus import CORPUS, RUNS, generate, versions


def _rows(text: str) -> list[list[str]]:
    return [line.split(",") for line in text.splitlines()]


def _cell_float(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _close(want: str, got: str) -> bool:
    """Same header and non-float cells; float cells within 1e-12 of their column."""
    want_rows, got_rows = _rows(want), _rows(got)
    if len(want_rows) != len(got_rows) or want_rows[:1] != got_rows[:1]:
        return False
    if any(len(w) != len(g) for w, g in zip(want_rows, got_rows)):
        return False
    for col in range(len(want_rows[0])):
        pairs = [(w[col], g[col]) for w, g in zip(want_rows[1:], got_rows[1:])]
        floats = [(_cell_float(w), _cell_float(g)) for w, g in pairs]
        scale = max((abs(v) for pair in floats for v in pair
                     if v is not None and math.isfinite(v)), default=0.0)
        for (w, g), (wf, gf) in zip(pairs, floats):
            if w == g:
                continue
            if wf is None or gf is None or not abs(wf - gf) <= 1e-12 * scale:
                return False
    return True


def test_cli_outputs_match_the_corpus(tmp_path):
    generate(tmp_path, RUNS)
    recorded = json.loads((CORPUS / "VERSIONS.json").read_text(encoding="utf-8"))
    exact = recorded == versions()
    mismatched = []
    for run in RUNS:
        names = sorted(p.name for p in (CORPUS / run).iterdir())
        assert sorted(p.name for p in (tmp_path / run).iterdir()) == names, run
        for name in names:
            want = (CORPUS / run / name).read_bytes()
            got = (tmp_path / run / name).read_bytes()
            if want != got and (exact or not _close(want.decode(), got.decode())):
                mismatched.append(f"{run}/{name}")
    how = "byte for byte" if exact else "to 1e-12 of each column"
    assert not mismatched, (f"differ from the corpus {how} (corpus made under {recorded}, "
                            f"this run under {versions()}): {mismatched}")
