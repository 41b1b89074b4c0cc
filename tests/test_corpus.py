"""The CLI's CSVs, regenerated in process, against the committed corpus.

Under the NumPy and BLAS versions recorded in corpus/VERSIONS.json every
file must match byte for byte.  Under other versions a float cell may move
by 1e-12 relative to the largest magnitude in its column, and every other
cell must match exactly.  The same holds with CPython 3.12's compensated
builtin ``sum`` put in every library module: no cell rests on the
interpreter's ``sum``.
"""

import json
import math
import sys

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


def _assert_matches_corpus(out) -> None:
    """Every file of ``RUNS`` under ``out`` equals the corpus: byte for byte
    under the recorded versions, else to 1e-12 of each column."""
    recorded = json.loads((CORPUS / "VERSIONS.json").read_text(encoding="utf-8"))
    exact = recorded == versions()
    mismatched = []
    for run in RUNS:
        names = sorted(p.name for p in (CORPUS / run).iterdir())
        assert sorted(p.name for p in (out / run).iterdir()) == names, run
        for name in names:
            want = (CORPUS / run / name).read_bytes()
            got = (out / run / name).read_bytes()
            if want != got and (exact or not _close(want.decode(), got.decode())):
                mismatched.append(f"{run}/{name}")
    how = "byte for byte" if exact else "to 1e-12 of each column"
    assert not mismatched, (f"differ from the corpus {how} (corpus made under {recorded}, "
                            f"this run under {versions()}): {mismatched}")


def test_cli_outputs_match_the_corpus(tmp_path):
    generate(tmp_path, RUNS)
    _assert_matches_corpus(tmp_path)


def _cpython312_sum(iterable, /, start=0):
    """CPython 3.12's builtin sum (builtin_sum_impl in Python/bltinmodule.c),
    transcribed: ints are added exactly, then floats by Neumaier's
    compensated summation, then, from the first other item on, by +."""
    items = iter(iterable)
    result = start
    if type(result) is int:
        for item in items:
            result = result + item
            if type(item) not in (int, bool):
                break
    if type(result) is float:
        total, c = result, 0.0
        for item in items:
            if type(item) is float:
                t = total + item
                c += (total - t) + item if abs(total) >= abs(item) else (item - t) + total
                total = t
            elif isinstance(item, int) and -2 ** 63 <= item < 2 ** 63:
                total += float(item)
            else:
                result = (total + c if c and math.isfinite(c) else total) + item
                break
        else:
            return total + c if c and math.isfinite(c) else total
    for item in items:
        result = result + item
    return result


def test_cli_outputs_do_not_depend_on_the_interpreter_sum(tmp_path, monkeypatch):
    # CPython 3.12 made the builtin sum compensated; the CSVs add in order
    # under every interpreter, so 3.12's sum in every library module moves none
    for name, module in list(sys.modules.items()):
        if name == "cauchylab" or name.startswith("cauchylab."):
            monkeypatch.setattr(module, "sum", _cpython312_sum, raising=False)
    generate(tmp_path, RUNS)
    _assert_matches_corpus(tmp_path)
