"""Record the output digests the benchmark checks every run against.

    python3 perfbench/record_digests.py

Run it from the root of the checkout whose outputs are the reference: the
commit that introduced the benchmark. ROADMAP's rule is that outputs stay
byte-identical, so later commits are checked against this table and do not
re-record it. It writes perfbench/digests.json with

  corpus     CLI check, stats and export-dot --inferred on the bundled corpus;
  reference  per workload and seed 0..15, the outputs of the small reference
             inputs that every run checks (seed modulo 16);
  full       per workload and seed 0..run.FULL_SEEDS-1, the outputs of the
             full-size inputs, checked when a run uses one of those seeds.

Every child runs with PYTHONHASHSEED=0; benchmark runs use other hash seeds,
so the table also checks that outputs do not depend on the hash seed.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from time import perf_counter

import run


def main() -> int:
    root = Path.cwd()
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    run.SETUP_REPS = 1
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    table: dict = {"corpus": None, "reference": {}, "full": {}}
    for workload in (w["name"] for w in config["workloads"]):
        table["reference"][workload] = {}
        table["full"][workload] = {}
        for seed in range(max(run.REF_SEEDS, run.FULL_SEEDS)):
            runner = run.Runner(root, workload, seed, perf_counter() + 600)
            raw = runner.collect(0, 0, (0, 0))
            failures = raw["timed"]["failures"] + raw["verify"]["failures"]
            if failures:
                print(f"{workload} seed {seed}: {failures}", file=sys.stderr)
                return 1
            table["corpus"] = raw["verify"]["digests"]["corpus"]
            table["reference"][workload][str(raw["ref_seed"])] = raw["verify"]["digests"]["reference"]
            if seed < run.FULL_SEEDS:
                first = raw["timed"]["first_digests"]
                if raw["n_queries"]:
                    first = {"stream": first["stream"]}
                table["full"][workload][str(seed)] = first
            print(f"{workload} seed {seed} recorded", flush=True)
    (run.HERE / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
