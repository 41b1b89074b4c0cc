"""Run the benchmark as it is, in this tree and against a revision, and
summarize its end-to-end metrics.

    python3 tools/bench.py --out BENCH.json [--against REV] [--pairs 10]
                           [--seconds 6] [--seed 0] [--workload NAME ...]

Each run is one ``perfbench/run.py --workload NAME --seed N --seconds S``
process, whose last stdout line gives its correctness, its failed and
attempted operations and the median of each end-to-end metric over its
passes.  The runs read copies: this tree's files as the working tree holds
them (tracked, or new and not ignored) in ``head/`` of a temporary
directory and, with ``--against``, the committed files of REV (``git
archive``) in ``base/`` beside it, so both checkouts have paths of one
length (a pass's maxrss has been seen to follow that length); the directory
is removed on exit, whatever ends the run.  Without ``--against`` the head
runs ``--pairs`` times per workload; with it the two run in ABBA order, the
head first in even pairs and REV first in odd ones, so a drift of the
machine weighs on both sides alike.

The JSON written to ``--out`` holds, per workload and per end-to-end metric
of ``BENCHMARK.json``, the median and interquartile range of each side's
runs, and with ``--against`` the number of pairs each side won (by the
metric's ``better`` direction, a tie counting for neither), beside every
run's ``correct``, ``failed``, ``attempted`` and metrics.  It records the
interpreter, NumPy, the BLAS runtime core and thread count, ``nproc`` and
whether ``PYTHONDONTWRITEBYTECODE`` is set.  The exit status is 1 when a run
is not correct or its output is unreadable.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The first quartile, the median and the third quartile of ``values``
    (inclusive method; a single value is all three)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def summary(values: list[float]) -> dict:
    q1, median, q3 = quartiles(values)
    return {"median": median, "iqr": q3 - q1, "q1": q1, "q3": q3, "runs": len(values)}


def wins(head: list[float], base: list[float], better: str) -> dict:
    """Pairs won by each side, pair i being (head[i], base[i]); a tie counts
    for neither."""
    sign = 1.0 if better == "higher" else -1.0
    won = sum(sign * (h - b) > 0 for h, b in zip(head, base, strict=True))
    lost = sum(sign * (h - b) < 0 for h, b in zip(head, base, strict=True))
    return {"head": won, "base": lost, "ties": len(head) - won - lost}


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` process in ``tree``; its last stdout line."""
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                           "--seed", str(seed), "--seconds", repr(seconds)],
                          cwd=tree, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        last = json.loads(lines[-1])
        metrics = {name: entry["value"] for name, entry in last["metrics"].items()}
        return {"correct": last["correct"], "failed": last["failed"],
                "attempted": last["attempted"], "metrics": metrics}
    except (IndexError, ValueError, KeyError, TypeError):
        return {"correct": False, "failed": None, "attempted": None, "metrics": {},
                "error": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}"}


def copy_tree(into: Path) -> None:
    """This tree's files, tracked or new and not ignored, under ``into``."""
    names = subprocess.run(["git", "ls-files", "-z", "--cached", "--others", "--exclude-standard"],
                           cwd=ROOT, check=True, capture_output=True).stdout.split(b"\0")
    for name in map(os.fsdecode, filter(None, names)):
        if (ROOT / name).is_file():     # a tracked file deleted in the tree is skipped
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)


def extract(rev: str, into: Path) -> str:
    """The committed files of ``rev`` under ``into``; returns its commit."""
    commit = subprocess.run(["git", "rev-parse", "--verify", f"{rev}^{{commit}}"], cwd=ROOT,
                            check=True, capture_output=True, text=True).stdout.strip()
    archive = into.parent / "tree.tar"
    subprocess.run(["git", "archive", "--format=tar", "-o", str(archive), commit], cwd=ROOT,
                   check=True)
    with tarfile.open(archive) as tar:
        tar.extractall(into, filter="data")
    archive.unlink()
    return commit


def environment() -> dict:
    sys.path[:0] = [str(ROOT / "tests"), str(ROOT / "src")]
    import numpy as np
    from make_corpus import blas_runtime
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas_runtime": blas_runtime(), "nproc": os.cpu_count(),
            "PYTHONDONTWRITEBYTECODE": bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))}


def head_commit() -> dict:
    def git(*args):
        out = subprocess.run(["git", *args], cwd=ROOT, capture_output=True, text=True)
        return out.stdout.strip() if out.returncode == 0 else None
    status = git("status", "--porcelain", "--untracked-files=no")
    return {"commit": git("rev-parse", "HEAD"), "modified": bool(status)}


def measure(args, trees: dict[str, Path], spec: dict) -> dict:
    """Every run of every workload, and their summaries."""
    out = {}
    for workload in args.workload:
        runs = []
        for pair in range(args.pairs):
            sides = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for side in sides:
                run = run_once(trees[side], workload, args.seed, args.seconds)
                runs.append({"pair": pair, "side": side, **run})
                value = run["metrics"].get("wall_s")
                print(f"{workload} pair {pair} {side}: correct {run['correct']}, "
                      f"wall_s {value}", file=sys.stderr, flush=True)
        metrics = {}
        for metric in spec["end_to_end"]:
            name = metric["name"]
            entry = {"unit": metric["unit"], "better": metric["better"],
                     "bound": metric["bound"]}
            series = {side: [r["metrics"].get(name) for r in runs if r["side"] == side]
                      for side in trees}
            if all(v is not None for values in series.values() for v in values):
                for side, values in series.items():
                    entry[side] = summary(values)
                if "base" in trees:
                    entry["wins"] = wins(series["head"], series["base"], metric["better"])
                    entry["change"] = entry["head"]["median"] / entry["base"]["median"] - 1.0
            metrics[name] = entry
        out[workload] = {"metrics": metrics, "runs": runs}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--against", metavar="REV")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=6.0)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workload", action="append", choices=names)
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0 or args.seed < 0:
        parser.error("--pairs must be >= 1, --seconds > 0 and --seed >= 0")
    args.workload = args.workload or names
    # a terminated run unwinds too, so the extracted tree is removed
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    record = {"seed": args.seed, "seconds": args.seconds, "pairs": args.pairs,
              "order": "ABBA" if args.against else "head only",
              "head": head_commit(), "environment": environment()}
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        trees = {"head": Path(tmp) / "head"}
        copy_tree(trees["head"])
        if args.against:
            base = Path(tmp) / "base"
            record["base"] = {"rev": args.against, "commit": extract(args.against, base)}
            trees["base"] = base
        record["workloads"] = measure(args, trees, spec)
    args.out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    bad = [f"{w} pair {r['pair']} {r['side']}" for w, entry in record["workloads"].items()
           for r in entry["runs"] if not r["correct"]]
    for workload, entry in record["workloads"].items():
        for name, metric in entry["metrics"].items():
            line = " ".join(f"{side} {metric[side]['median']:.6g} (IQR {metric[side]['iqr']:.3g})"
                            for side in trees if side in metric)
            if "wins" in metric:
                line += f", head won {metric['wins']['head']} of {args.pairs} pairs"
            print(f"{workload} {name}: {line}")
    if bad:
        print("runs not correct: " + ", ".join(bad), file=sys.stderr)
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main())
