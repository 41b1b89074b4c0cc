"""Record the values the checks compare with, into reference.json.

    python3 perfbench/record_reference.py

Run once at the commit whose outputs are the reference; later commits are
checked against the recorded values (see ``workloads.REFERENCE_TOLERANCE``).
Inputs that do not depend on the seed (a workload's ``fixed_inputs``) are
recorded under ``any`` and checked on every seed; the seeded ones are
recorded for seed 0.
"""

from __future__ import annotations

import json
import shutil

from passrun import HERE, ROOT
from workloads import WORKLOADS

RECORDED = ("factorize-smooth", "factorize-rough", "spectral")


def main() -> int:
    reference: dict[str, dict] = {}
    for name in RECORDED:
        work = ROOT / ".perfbench-work" / "reference" / name
        shutil.rmtree(work, ignore_errors=True)
        work.mkdir(parents=True)
        workload = WORKLOADS[name](0, work)
        workload.setup()
        workload.run(lambda label: None)
        outcome = workload.check({})
        if outcome.failed:
            raise SystemExit(f"{name}: checks failed: {outcome.failures}")
        for label, values in workload.fingerprint().items():
            key = "any" if label in workload.fixed_inputs else "0"
            reference.setdefault(name, {}).setdefault(key, {})[label] = values
        shutil.rmtree(work)
    text = json.dumps(reference, indent=1, sort_keys=True) + "\n"
    (HERE / "reference.json").write_text(text, encoding="utf-8")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
