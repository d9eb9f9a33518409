"""ontokit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of an ontokit checkout; it needs only the sources
(``src/`` and ``tests/bruteforce.py``), not an installed package. It
generates the workload's inputs from the seed, starts the workload in a
single-threaded child process (one child at a time), measures for the given
seconds, checks every output, prints a report, and prints as its last line
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics of BENCHMARK.json with ``--trace 0``, its per-layer
metrics with ``--trace 1``). See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from calibrate import REF_S, Calibration, scaled

HERE = Path(__file__).resolve().parent
SETUP_REPS = 9  # set-up is repeated and its median reported
MEM_MB = 1536  # address-space cap of each child
QUERIES = 2000  # length of the query_mix stream
REF_SCALE = 0.05  # size of the reference inputs checked against recorded digests
REF_SEEDS = 16
REF_QUERIES = 200
FULL_SEEDS = 24  # seeds whose full-size outputs digests.json records
BUDGET_S = 170  # the whole run, set-up and checks included
REQUIRED = ["src/ontokit/cli.py", "src/ontokit/corpus/queries.tsv", "tests/bruteforce.py"]
CORPUS = ["date_fruit.oft", "date_fruit_instances.oft"]


class ChildFailed(RuntimeError):
    pass


def _write_files(directory: Path, files: dict[str, str]) -> None:
    for name, text in files.items():
        (directory / name).write_text(text, encoding="utf-8")


def _workload_spec(workload: str, seed: int, scale: float, n_queries: int, directory: Path) -> dict:
    """Generate and write one input set; returns what a child needs to run
    it. The query_mix child draws its query stream from the loaded ontology,
    so the program runs only in the capped children."""
    import gen

    inputs = gen.GENERATORS[workload](seed, scale)
    _write_files(directory, inputs.files)
    return {
        "workdir": str(directory),
        "files": sorted(inputs.files),
        "ops": inputs.ops,
        "expect": inputs.expect,
        "sizes": inputs.sizes,
        "seed": seed,
        "n_queries": n_queries if workload == "query_mix" else 0,
    }


def _competency_rows(root: Path) -> list[list[str]]:
    text = (root / "src/ontokit/corpus/queries.tsv").read_text(encoding="utf-8")
    return [line.split("\t") for line in text.splitlines() if line.strip() and not line.startswith("#")]


class Runner:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.workload = workload
        self.seed = seed
        self.deadline = deadline
        self.work = root / "perfbench" / "_work" / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def _left(self) -> float:
        return max(1.0, self.deadline - perf_counter())

    def spawn(self, spec: dict, hash_seed: int) -> subprocess.Popen:
        path = self.work / f"{spec['phase']}.spec.json"
        path.write_text(json.dumps(spec), encoding="utf-8")
        env = dict(os.environ, PYTHONHASHSEED=str(hash_seed))
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), str(path)],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )
        ready, _, _ = select.select([proc.stdout], [], [], self._left())
        line = proc.stdout.readline().decode(errors="replace").strip() if ready else ""
        if line != "ready":
            self.finish(proc, b"")
            raise ChildFailed(f"{spec['phase']} child did not finish set-up: {line or 'no answer'}")
        return proc

    def finish(self, proc: subprocess.Popen, command: bytes) -> None:
        try:
            proc.stdin.write(command)
            proc.stdin.close()
        except BrokenPipeError:
            pass
        try:
            proc.wait(self._left())
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()

    def run_phase(self, proc: subprocess.Popen, spec: dict) -> dict:
        self.finish(proc, b"go\n")
        if proc.returncode != 0:
            raise ChildFailed(f"{spec['phase']} child exited with code {proc.returncode}")
        with open(spec["result"], encoding="utf-8") as fh:
            return json.load(fh)

    def collect(self, seconds: float, trace: int, hash_seeds: tuple[int, int]) -> dict:
        """Set up SETUP_REPS times, run the timed phase in the last child,
        then the verify phase in a child with another hash seed.

        Set-up time runs from starting the child until it is ready: the
        interpreter, the program's imports and, for query_mix, loading the
        ontology. The inputs are generated and written once beforehand. A
        calibration sample is timed before and after each set-up.
        """
        base = {"root": str(self.root), "mem_mb": MEM_MB, "seconds": seconds, "trace": trace}
        ref_dir = self.work / "ref"
        corpus_dir = self.work / "corpus"
        ref_dir.mkdir()
        corpus_dir.mkdir()
        for name in CORPUS:
            shutil.copyfile(self.root / "src/ontokit/corpus" / name, corpus_dir / name)
        ref_seed = self.seed % REF_SEEDS
        verify = dict(
            base,
            phase="verify",
            workdir=str(self.work),
            result=str(self.work / "verify.result.json"),
            ref=_workload_spec(self.workload, ref_seed, REF_SCALE, REF_QUERIES, ref_dir),
            corpus_files=[f"corpus/{name}" for name in CORPUS],
            competency=_competency_rows(self.root),
        )

        calibration = Calibration()
        samples = [calibration.sample()]
        setup_times = []
        proc = None
        spec = _workload_spec(self.workload, self.seed, 1.0, QUERIES, self.work)
        spec.update(
            base,
            phase="timed",
            result=str(self.work / "timed.result.json"),
            spans=str(self.work / "spans.json"),
        )
        for rep in range(SETUP_REPS):
            start = perf_counter()
            proc = self.spawn(spec, hash_seeds[0])
            setup_times.append(perf_counter() - start)
            samples.append(calibration.sample())  # the child waits, blocked on its stdin
            if rep < SETUP_REPS - 1:
                self.finish(proc, b"exit\n")
        timed = self.run_phase(proc, spec)
        checked = self.run_phase(self.spawn(verify, hash_seeds[1]), verify)
        return {
            "setup_times": setup_times,
            "scaled_setups": [scaled(t, samples[i : i + 2]) for i, t in enumerate(setup_times)],
            "sizes": spec["sizes"],
            "n_queries": spec["n_queries"],
            "timed": timed,
            "verify": checked,
            "ref_seed": ref_seed,
        }


def _count_failures(workload: str, seed: int, raw: dict, table: dict) -> tuple[int, int, list[str]]:
    """Attempted and failed operations, and a line per problem found."""
    timed, verify = raw["timed"], raw["verify"]
    problems = list(timed["failures"]) + list(verify["failures"])
    attempted = timed["checks"] + verify["checks"]
    failed = len(problems)
    first = timed["first_digests"]
    counts = timed["digest_counts"]
    for key, by_digest in counts.items():
        if key == "stream":
            continue
        n = sum(by_digest.values())
        attempted += n
        if by_digest[first[key]] != n:
            failed += n - by_digest[first[key]]
            problems.append(f"{key}: output changed between iterations")

    def compare(label: str, got: dict, want: dict | None, weight) -> None:
        nonlocal attempted, failed
        for key, digest in (want or {}).items():
            attempted += 1
            if got.get(key) != digest:
                failed += weight(key)
                problems.append(f"{label} {key}: digest differs from the recorded one")

    per_query = raw["n_queries"] or 1
    compare(
        f"seed {seed}",
        first,
        table.get("full", {}).get(workload, {}).get(str(seed)),
        lambda key: counts[key][first[key]] * (per_query if key == "stream" else 1),
    )
    compare("corpus", verify["digests"]["corpus"], table.get("corpus"), lambda key: 1)
    compare(
        f"reference {raw['ref_seed']}",
        verify["digests"]["reference"],
        table.get("reference", {}).get(workload, {}).get(str(raw["ref_seed"])),
        lambda key: 1,
    )
    return attempted, failed, problems


def _quantile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def end_to_end(raw: dict) -> tuple[dict[str, float], dict[str, tuple[float, str, int]]]:
    """The gated metrics, and every end-to-end figure for the report."""
    timed = raw["timed"]
    walls = timed["walls"]
    calibration = timed["calibration"]
    report = {
        "setup_s": (statistics.median(raw["scaled_setups"]), "s", len(raw["scaled_setups"])),
        "run_s": (statistics.median(timed["scaled_walls"]), "s", len(timed["scaled_walls"])),
        "peak_rss_mb": (timed["peak_rss_kb"] / 1024, "MB", 1),
        "wall_setup_s": (statistics.median(raw["setup_times"]), "s", len(raw["setup_times"])),
        "wall_run_s": (statistics.median(walls), "s", len(walls)),
        "host_slowdown": (statistics.median(calibration) / REF_S, "x", len(calibration)),
    }
    for name, times in timed["op_times"].items():
        if name != "query" or not raw["n_queries"]:
            report[f"{name}_s"] = (statistics.median(times), "s", len(times))
    if raw["n_queries"]:
        lat = timed["op_times"]["query"]
        report["queries_per_s"] = (len(lat) / sum(walls), "1/s", len(lat))
        report["query_p50_ms"] = (statistics.median(lat) * 1000, "ms", len(lat))
        report["query_p99_ms"] = (_quantile(lat, 0.99) * 1000, "ms", len(lat))
    return {k: v[0] for k, v in report.items()}, report


def per_layer(raw: dict) -> dict[str, float]:
    """Per-iteration means, so that the self times add up to the traced run_s."""
    timed = raw["timed"]
    layers = dict(timed["layers"])
    layers["bench.traced_run_s"] = statistics.fmean(timed["walls"])
    layers["bench.untraced_run_s"] = statistics.fmean(timed["untraced_walls"])
    layers["bench.tracing_overhead_s"] = layers["bench.traced_run_s"] - layers["bench.untraced_run_s"]
    return layers


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = perf_counter()

    root = Path.cwd()
    missing = [p for p in REQUIRED if not (root / p).is_file()]
    if missing:
        print(f"perfbench: not an ontokit checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2
    config = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in config["workloads"]}:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(root / "src"), str(root / "tests")]
    table = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))

    runner = Runner(root, args.workload, args.seed, started + BUDGET_S)
    seed_hash = args.seed % 2**32
    try:
        raw = runner.collect(args.seconds, args.trace, (seed_hash, (seed_hash + 7919) % 2**32))
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    attempted, failed, problems = _count_failures(args.workload, args.seed, raw, table)

    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("input " + " ".join(f"{k}={v}" for k, v in raw["sizes"].items()))
    gated, report = end_to_end(raw)
    if not args.trace:  # traced timings are not end-to-end figures
        for name, (value, unit, n) in report.items():
            print(f"metric {name} {value:.6g} {unit} n={n}")
    print(f"metric error_rate {failed / attempted:.6g} ratio n={attempted}")
    for problem in problems:
        print(f"FAILED {problem}")

    if args.trace:
        values = per_layer(raw)
        for name, value in sorted(values.items()):
            print(f"layer {name} {value:.6g}")
        wanted = config["per_layer"]
    else:
        values = gated
        wanted = config["end_to_end"]
    metrics = {m["name"]: {"value": values.get(m["name"], 0.0), "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
