"""Write the CLI output corpus that test_corpus.py compares against.

    PYTHONPATH=src python tests/make_corpus.py

Every run of ``RUNS`` writes its CSVs into ``tests/corpus/<run name>/``:
the README commands with ``weak-factorize`` at 3 stages, plus 3-stage
``weak-factorize`` on the flat curve and on the line of slope 1/2,
``two-bump`` on the flat curve, ``factor-atom`` on the tent and
``commutator-study`` on the tent at p = 3, the probe path.
``README_RUNS`` holds the README's 4-stage ``weak-factorize`` on the tent and
the same run on the flat curve, too slow for the test suite; CI diffs its
README step against those copies.
``VERSIONS.json`` records the NumPy and BLAS versions the files were made
with.
"""

from __future__ import annotations

import json
import tempfile
from pathlib import Path

import numpy as np

from cauchylab.cli import main

CORPUS = Path(__file__).resolve().parent / "corpus"

CURVES = {
    "flat": "anchor 0.0\nbreakpoints\nslopes 0.0\n",
    "tent": "anchor 0.0\nbreakpoints 0.0\nslopes 1.0 -1.0\n",
    "line": "anchor 0.0\nbreakpoints\nslopes 0.5\n",
}

# run name: (command, curve, options)
RUNS = {
    "hilbert-check-flat": ("hilbert-check", "flat", []),
    "two-bump-tent": ("two-bump", "tent", ["--m-list", "128,256,512,1024"]),
    "factor-atom-flat": ("factor-atom", "flat", ["--m-list", "128,256,512"]),
    "weak-factorize-tent": ("weak-factorize", "tent", ["--eps", "0.05", "--stages", "3"]),
    "commutator-study-tent": ("commutator-study", "tent", ["--p", "2", "--trials", "2"]),
    "compactness-profile-flat": ("compactness-profile", "flat", ["--rank-cap", "12"]),
    "vmo-profile-flat": ("vmo-profile", "flat", []),
    "weak-factorize-flat": ("weak-factorize", "flat", ["--eps", "0.05", "--stages", "3"]),
    "weak-factorize-line": ("weak-factorize", "line", ["--eps", "0.05", "--stages", "3"]),
    "two-bump-flat": ("two-bump", "flat", ["--m-list", "128,256,512,1024"]),
    "factor-atom-tent": ("factor-atom", "tent", ["--m-list", "128,256,512"]),
    "commutator-study-tent-p3": ("commutator-study", "tent",
                                 ["--p", "3", "--trials", "2", "--grid-count", "513",
                                  "--grid-spacing", "0.03125"]),
}

README_RUNS = {
    "readme-weak-factorize-tent-4": ("weak-factorize", "tent",
                                     ["--eps", "0.05", "--stages", "4"]),
    "readme-weak-factorize-flat-4": ("weak-factorize", "flat",
                                     ["--eps", "0.05", "--stages", "4"]),
}


def versions() -> dict:
    """The NumPy version and the BLAS NumPy was built against."""
    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    return {"numpy": np.__version__, "blas": f"{blas['name']} {blas['version']}"}


def generate(out: Path, runs: dict) -> None:
    """Run every command of ``runs`` in process, each into out/<run name>/."""
    with tempfile.TemporaryDirectory() as tmp:
        for name, text in CURVES.items():
            (Path(tmp) / f"{name}.txt").write_text(text, encoding="utf-8")
        for run, (command, curve, options) in runs.items():
            argv = [command, "--curve", str(Path(tmp) / f"{curve}.txt"), *options,
                    "--out", str(out / run)]
            status = main(argv)
            if status != 0:
                raise RuntimeError(f"{run}: cauchylab {' '.join(argv)} exited {status}")


if __name__ == "__main__":
    generate(CORPUS, {**RUNS, **README_RUNS})
    (CORPUS / "VERSIONS.json").write_text(json.dumps(versions(), indent=1) + "\n",
                                          encoding="utf-8")
