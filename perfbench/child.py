"""One benchmark child process: set up, signal ready, then run one phase.

Usage: python3 perfbench/child.py SPEC.json

The parent starts it and reads "ready" from its stdout once set-up is done,
then writes "go" (run the phase named in the spec) or anything else (exit)
to its stdin. Results go to the JSON file the spec names. If set-up raises
(for query_mix, a MemoryError while loading, say), the child prints
"set-up failed: ..." instead of "ready" and exits with code 1.

Phases:
  timed   run iterations for the given seconds, untraced; with trace on,
          the first half untraced and the second half traced. A calibration
          sample (calibrate.py) is timed before and after each CLI command
          or batch of queries
  verify  run one iteration of a small reference input, the corpus
          competency suite and the corpus commands, for digest checks
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
from collections import Counter, defaultdict
from time import perf_counter

from calibrate import Calibration, scaled


def _cap_memory(mb: int) -> None:
    limit = mb * 1024 * 1024
    resource.setrlimit(resource.RLIMIT_AS, (limit, limit))


def _peak_rss_kb() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def _rss_kb() -> int:
    with open("/proc/self/statm", encoding="ascii") as fh:
        return int(fh.read().split()[1]) * (resource.getpagesize() // 1024)


class Outputs:
    """What a timed phase keeps of the outputs: digest counts per output key
    and the first iteration whole (for the oracles). Later iterations are
    reduced to digests at once, so they add nothing to the peak RSS."""

    def __init__(self) -> None:
        self.digest_counts: dict[str, Counter] = defaultdict(Counter)
        self.first = None
        self.samples: list[float] = []  # calibration samples


def _measure(workload, api, calibration, seconds: float, into: Outputs, tracer=None):
    """Whole iterations until the next one would end past `seconds` (at
    least one); returns their program times, their times at reference
    speed, and per-operation times."""
    walls: list[float] = []
    scaled_walls: list[float] = []
    op_times: dict[str, list[float]] = defaultdict(list)
    start = perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.iteration = len(walls)
        began = perf_counter()
        it = workload.iteration(api, calibration)
        elapsed = perf_counter() - began
        walls.append(it.wall)
        scaled_walls.append(scaled(it.wall, it.samples))
        into.samples.extend(it.samples)
        for name, times in it.op_times.items():
            op_times[name].extend(times)
        for key, digest in workload.digests(it).items():
            into.digest_counts[key][digest] += 1
        if into.first is None:
            into.first = it
        if perf_counter() - start + elapsed > seconds:
            return walls, scaled_walls, op_times


def _layer_metrics(tracer, n_iterations: int) -> dict[str, float]:
    self_times = tracer.self_times()
    calls = tracer.calls()
    metrics = {f"{name}.self_s": total / n_iterations for name, total in self_times.items()}
    metrics.update({f"{name}.calls": n / n_iterations for name, n in calls.items()})
    metrics.update({key: value / n_iterations for key, value in tracer.counters.items()})
    parse_s = self_times.get("oft.parse_oft", 0.0)
    if parse_s:
        metrics["oft.lines_per_s"] = tracer.counters["oft.lines"] / parse_s
    return metrics


def _traced_setup(spec: dict, api):
    """Set up under the tracer; returns the workload and the layer metrics
    of its one load (none for the CLI workloads, whose set-up loads nothing)."""
    from spans import Tracer
    from workloads import make_workload

    tracer = Tracer()
    restore = tracer.install(api)
    try:
        workload = make_workload(spec)
    finally:
        restore()
    return workload, _layer_metrics(tracer, 1)


def _timed(spec: dict, workload, api, setup_layers: dict[str, float]) -> dict:
    """Timings come from the traced half when tracing; the outputs of every
    iteration are checked either way.

    The calibration table is built first. It stays resident to the end, so
    its size is taken off every later peak of the resident set."""
    peak_before = _peak_rss_kb()
    rss_before = _rss_kb()
    calibration = Calibration()
    calibration_kb = _rss_kb() - rss_before
    workload.prepare()
    seconds = spec["seconds"]
    outputs = Outputs()
    result: dict = {}
    if spec["trace"]:
        from spans import Tracer

        result["untraced_walls"] = _measure(workload, api, calibration, seconds / 2, outputs)[0]
        tracer = Tracer()
        restore = tracer.install(api)
        try:
            walls, scaled_walls, op_times = _measure(workload, api, calibration, seconds / 2, outputs, tracer)
        finally:
            restore()
        tracer.dump(spec["spans"])
        # A layer the iterations do not call keeps its set-up figure: on
        # query_mix, the oft, model and reasoner layers of the load.
        result["layers"] = {**setup_layers, **_layer_metrics(tracer, len(walls))}
        result["layers"]["bench.self_sum_s"] = sum(tracer.self_times().values()) / len(walls)
    else:
        walls, scaled_walls, op_times = _measure(workload, api, calibration, seconds, outputs)
    # Read before the oracles run, which load ontologies of their own.
    result["peak_rss_kb"] = max(peak_before, _peak_rss_kb() - calibration_kb)
    result.update(
        walls=walls,
        scaled_walls=scaled_walls,
        calibration=outputs.samples,
        op_times=op_times,
        digest_counts=outputs.digest_counts,
        first_digests=workload.digests(outputs.first),
        failures=workload.oracle(outputs.first),
        checks=workload.oracle_checks,
    )
    return result


def _verify(spec: dict, api) -> dict:
    from workloads import competency_suite, corpus_digests, make_workload

    failures = competency_suite(api, spec["corpus_files"], spec["competency"])
    digests = {"corpus": corpus_digests(api, spec["corpus_files"]), "reference": {}}
    checks = len(spec["competency"])
    os.chdir(spec["ref"]["workdir"])
    try:
        ref = make_workload(spec["ref"])
        ref.prepare()
    except Exception as exc:  # a crash or MemoryError is a failed check
        return {
            "failures": failures + [f"reference: set-up raised {type(exc).__name__}: {exc}"],
            "checks": checks + 1,
            "digests": digests,
        }
    it = ref.iteration(api)
    failures += [f"reference: {f}" for f in ref.oracle(it)]
    digests["reference"] = ref.digests(it)
    if spec["ref"]["n_queries"]:
        digests["reference"] = {"stream": digests["reference"]["stream"]}
    checks += ref.oracle_checks
    return {"failures": failures, "checks": checks, "digests": digests}


def main() -> int:
    with open(sys.argv[1], encoding="utf-8") as fh:
        spec = json.load(fh)
    _cap_memory(spec["mem_mb"])
    sys.path[:0] = [os.path.join(spec["root"], "src"), os.path.join(spec["root"], "tests")]
    from workloads import make_api, make_workload

    api = make_api()
    os.chdir(spec["workdir"])
    workload, setup_layers = None, {}
    try:
        if spec["phase"] == "timed" and spec["trace"]:
            workload, setup_layers = _traced_setup(spec, api)
        elif spec["phase"] == "timed":
            workload = make_workload(spec)
    except Exception as exc:  # nothing can be timed without its set-up
        print(f"set-up failed: {type(exc).__name__}: {exc}", flush=True)
        return 1
    print("ready", flush=True)
    if sys.stdin.readline().strip() != "go":
        return 0
    if workload is None:
        result = _verify(spec, api)
    else:
        result = _timed(spec, workload, api, setup_layers)
    with open(spec["result"], "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
