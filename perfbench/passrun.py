"""One benchmark pass in a fresh process: set up, time, check, report.

    python3 perfbench/passrun.py --workload NAME --seed N --trace 0|1 \\
        --spawned-at MONOTONIC --work DIR [--spans FILE] [--setup-only]

``run.py`` starts one of these per pass, so no library cache survives from
one pass to the next, as for a CLI user.  The last stdout line is one JSON
object describing the pass.  ``setup_s`` runs from ``--spawned-at`` (the
parent's ``time.monotonic()`` just before it started this process) to the
first timed call: interpreter start, the numpy and cauchylab imports, and
input generation.  With ``--setup-only`` the process stops there and
reports ``setup_s`` alone, an extra sample of it.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

from cauchylab import cauchy  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, Outcome  # noqa: E402


def load_reference(workload: str, seed: int) -> dict:
    """Recorded values for this workload and seed, keyed by input label;
    the ``any`` entries are inputs that do not depend on the seed."""
    with open(HERE / "reference.json", encoding="utf-8") as fh:
        entries = json.load(fh).get(workload, {})
    return {**entries.get("any", {}), **entries.get(str(seed), {})}


def per_layer_names() -> list[str]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return [m["name"] for m in json.load(fh)["per_layer"]]


def run_pass(name: str, seed: int, trace: bool, work: Path, spawned_at: float,
             spans: Path | None = None, setup_only: bool = False) -> dict:
    work.mkdir(parents=True, exist_ok=True)
    workload = WORKLOADS[name](seed, work)
    workload.setup()
    if setup_only:
        return {"setup_s": time.monotonic() - spawned_at}
    tracer = Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    setup_s = time.monotonic() - spawned_at
    start = time.perf_counter()
    try:
        workload.run(tracer.begin_op if tracer is not None else lambda label: None)
    finally:
        wall_s = time.perf_counter() - start
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cache = cauchy._cached_weight_values.cache_info()
    try:
        outcome = workload.check(load_reference(name, seed))
    except Exception as exc:  # a check that cannot run fails the whole pass
        outcome = Outcome(attempted=workload.nominal_ops, failed=workload.nominal_ops,
                          failures=[f"check raised {type(exc).__name__}: {exc}"])
    result = {
        "workload": name, "seed": seed, "trace": int(trace),
        "setup_s": setup_s, "wall_s": wall_s, "rss_mb": rss_mb,
        "units": outcome.units, "attempted": outcome.attempted,
        "failed": outcome.failed, "failures": outcome.failures[:20],
        "margins": outcome.margins, "info": outcome.info,
    }
    if tracer is not None:
        atoms_per_stage = outcome.info.get("atoms_per_stage", {})
        result["layers"] = tracer.layer_metrics(per_layer_names(), atoms_per_stage,
                                                workload.csv_bytes(), cache)
        if atoms_per_stage:
            result["info"]["shape_classes"] = tracer.shape_classes(atoms_per_stage)
        if spans is not None:
            tracer.write(spans)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spans", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    result = run_pass(args.workload, args.seed, bool(args.trace), args.work,
                      args.spawned_at, args.spans, args.setup_only)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
