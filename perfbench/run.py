"""cauchylab benchmark: run one workload, check its outputs, print metrics.

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the library is imported from
``src/``.  Each pass runs in a fresh process (``passrun.py``), one at a
time, so the only concurrency is the BLAS thread pool and no cache
survives between passes.  Passes repeat until ``--seconds`` would be
exceeded, with at least three (four with ``--trace 1``); a pass that
crashes ends the run.  After each pass, ``SETUP_SAMPLES`` more processes
only set up, so that ``setup_s`` is a median of several samples.

``--trace 0`` reports the ``end_to_end`` metrics of ``BENCHMARK.json``
from untraced passes.  ``--trace 1`` alternates untraced and traced passes
and reports its ``per_layer`` metrics from the traced ones, with
``trace.overhead_s`` = traced minus untraced median ``wall_s``; traced
passes also count the canonical shape classes of the factorized atoms.

Every metric is printed by name with its unit; ``fail_frac`` (failed over
attempted operations) is printed too, and carried by the ``attempted`` and
``failed`` fields of the last stdout line, a JSON object.  Provenance,
check margins, workload sizes and every pass record go to
``.perfbench-work/<workload>-seed<N>/run.json``; traced passes also write
their spans there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".perfbench-work"
RUN_LIMIT_S = 160.0      # stop starting passes here; a run must end within 180 s
SETUP_SAMPLES = 2        # setup-only processes after each pass


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("seed must be >= 0")
    return value


def _seconds(text: str) -> float:
    value = float(text)
    if not value > 0:
        raise argparse.ArgumentTypeError("seconds must be positive")
    return value


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


def run_one_pass(workload: str, seed: int, traced: bool, index: int, run_dir: Path,
                 timeout: float, setup_only: bool = False) -> dict:
    """Start one pass process, wait for it, and return its record."""
    scratch = run_dir / f"pass{index}"
    cmd = [sys.executable, str(HERE / "passrun.py"), "--workload", workload,
           "--seed", str(seed), "--trace", str(int(traced)), "--work", str(scratch)]
    if traced:
        cmd += ["--spans", str(run_dir / f"spans-pass{index}.csv")]
    if setup_only:
        cmd += ["--setup-only"]
    started = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--spawned-at", repr(started)], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"crashed": f"pass exceeded {timeout:.0f} s", "trace": int(traced)}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    elapsed = time.monotonic() - started
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"crashed": f"exit {proc.returncode}: {proc.stderr.strip()[-2000:]}",
                "trace": int(traced), "process_s": elapsed}
    try:
        record = json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"crashed": f"unreadable result: {lines[-1][:200]}",
                "trace": int(traced), "process_s": elapsed}
    record["process_s"] = elapsed
    return record


def run_passes(workload: str, seed: int, seconds: float, trace: bool,
               run_dir: Path) -> tuple[list[dict], list[dict]]:
    """Passes, alternating untraced and traced when tracing, until the time
    is up, each followed by setup-only samples; returns both lists."""
    min_passes = 4 if trace else 3
    passes: list[dict] = []
    setups: list[dict] = []
    start = time.monotonic()

    def timeout() -> float:
        return max(RUN_LIMIT_S + 10.0 - (time.monotonic() - start), 1.0)

    while True:
        traced = trace and len(passes) % 2 == 1
        passes.append(run_one_pass(workload, seed, traced, len(passes), run_dir,
                                   timeout()))
        if "crashed" in passes[-1]:
            break
        for _ in range(SETUP_SAMPLES):
            setups.append(run_one_pass(workload, seed, False, len(passes), run_dir,
                                       timeout(), setup_only=True))
            if "crashed" in setups[-1]:
                return passes + [setups[-1]], setups[:-1]
        elapsed = time.monotonic() - start
        typical = (statistics.median(p["process_s"] for p in passes)
                   + SETUP_SAMPLES * statistics.median(p["process_s"] for p in setups))
        if elapsed + typical > RUN_LIMIT_S:
            break
        if len(passes) >= min_passes and elapsed + typical > seconds:
            break
    return passes, setups


def end_to_end(untraced: list[dict], setups: list[dict]) -> dict[str, float]:
    """``setup_s`` is the median over the passes and the setup-only samples."""
    return {
        "wall_s": statistics.median(p["wall_s"] for p in untraced),
        "ops_per_s": statistics.median(p["units"] / p["wall_s"] for p in untraced),
        "setup_s": statistics.median(p["setup_s"] for p in untraced + setups),
        "peak_rss_mb": statistics.median(p["rss_mb"] for p in untraced),
    }


def per_layer(names: list[str], untraced: list[dict], traced: list[dict]) -> dict[str, float]:
    layers = {name: statistics.median(p["layers"][name] for p in traced)
              for name in names if name != "trace.overhead_s"}
    layers["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                  - statistics.median(p["wall_s"] for p in untraced))
    return layers


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS that numpy loaded, asked through ctypes."""
    import ctypes
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            libs = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    for path in sorted(libs):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                return int(fn())
    return None


def provenance(seed: int) -> dict:
    import numpy as np
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                 capture_output=True, timeout=10)
            commit = out.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "cauchylab").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {"name": blas.get("name"), "version": blas.get("version"),
                 "threads": _blas_threads()},
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "seed": seed,
    }


def main(argv=None) -> int:
    if not (ROOT / "src" / "cauchylab" / "__init__.py").is_file():
        print(f"error: no cauchylab sources under {ROOT / 'src'}; run from a source "
              "checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(HERE), str(ROOT / "src")]
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=_seed, default=0)
    parser.add_argument("--seconds", type=_seconds, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    spec = load_spec()

    run_dir = WORK_DIR / f"{args.workload}-seed{args.seed}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    passes, setups = run_passes(args.workload, args.seed, args.seconds, bool(args.trace),
                                run_dir)

    done = [p for p in passes if "crashed" not in p]
    untraced = [p for p in done if not p["trace"]]
    traced = [p for p in done if p["trace"]]
    crashed = [p["crashed"] for p in passes if "crashed" in p]
    attempted = sum(p["attempted"] for p in done) + len(crashed)
    failed = sum(p["failed"] for p in done) + len(crashed)
    for message in crashed:
        print(f"pass failed: {message}", file=sys.stderr)
    for p in done:
        for message in p["failures"]:
            print(f"check failed: {message}", file=sys.stderr)
    if not untraced or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    e2e = end_to_end(untraced, setups)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    metrics = (per_layer([m["name"] for m in spec["per_layer"]], untraced, traced)
               if args.trace else e2e)
    margins: dict[str, float] = {}
    for p in done:
        for check, ratio in p["margins"].items():
            margins[check] = max(margins.get(check, 0.0), ratio)
    record = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
              "provenance": provenance(args.seed), "end_to_end": e2e,
              "fail_frac": failed / attempted, "margins": margins,
              "sizes": (traced or done)[0]["info"], "passes": passes,
              "setup_samples": [p["setup_s"] for p in setups]}
    if args.trace:
        record["per_layer"] = metrics
    (run_dir / "run.json").write_text(json.dumps(record, indent=1), encoding="utf-8")

    print(f"{args.workload} seed {args.seed}: {len(untraced)} untraced and "
          f"{len(traced)} traced passes, {len(setups)} setup-only samples")
    samples = {"wall_s": len(untraced), "setup_s": len(untraced) + len(setups)}
    for name, value in metrics.items():
        note = f"   median of {samples[name]} samples" if name in samples else ""
        print(f"  {name:42s} {value:>16.6g} {units[name]}{note}")
    print(f"  {'fail_frac':42s} {failed / attempted:>16.6g} ratio   "
          f"{failed} of {attempted} operations")
    print("provenance " + json.dumps(record["provenance"]))
    print("margins " + json.dumps(margins, sort_keys=True))
    for label, counts in record["sizes"].get("shape_classes", {}).items():
        print(f"shape classes {label}: " + json.dumps(counts))
    print(f"run record {run_dir.relative_to(ROOT) / 'run.json'}")
    print(json.dumps({
        "correct": not crashed and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
