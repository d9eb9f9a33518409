"""What one iteration of each workload runs, and how its outputs are checked.

A workload is driven the way a user drives ontokit: CLI commands through
``ontokit.cli.run`` in-process with stdout and stderr captured, or library
queries through ``parse_query`` + ``eval_query``. Every output is reduced to
a digest; the oracles compare the first iteration's outputs against the
generator's expectations and the brute-force references in
``tests/bruteforce.py``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import types
from collections import Counter
from dataclasses import dataclass
from time import perf_counter

import bruteforce
import ontokit.cli
import ontokit.dlquery
from ontokit.dlquery import QueryMode, format_expr, make_and
from ontokit.oft import load_sources
from ontokit.reasoner import compute_closure, realize


ORACLE_SAMPLE = 8  # query_mix instance answers checked against the oracle
QUERY_BATCH = 200  # queries timed between two calibration samples


def sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def make_api() -> types.SimpleNamespace:
    """The entry points the benchmark calls; the tracer rebinds these."""
    return types.SimpleNamespace(
        run=ontokit.cli.run,
        parse_query=ontokit.dlquery.parse_query,
        eval_query=ontokit.dlquery.eval_query,
    )


def load(paths: list[str]):
    sources = []
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            sources.append((path, fh.read()))
    onto, diags = load_sources(sources)
    if onto is None:
        raise RuntimeError("generated ontology does not load: " + diags[0].render())
    closure, diags = compute_closure(onto)
    if closure is None:
        raise RuntimeError("generated ontology has a cycle: " + diags[0].render())
    return onto, closure, realize(onto, closure)


def query_stream(onto, seed: int, n: int) -> list[tuple[QueryMode, str]]:
    """A seeded stream of (mode, query text), an equal share of each of the
    five modes in seeded order.

    No record of real query traffic exists, so no mode is weighted above
    another. The shares are fixed rather than drawn, so that the mix of
    modes, whose costs differ by orders of magnitude, does not vary between
    seeds. Taxonomy modes accept only named classes and their
    intersections, so they get depth-0 expressions; every query in the
    stream evaluates without error.
    """
    rng = random.Random(f"query_mix/{seed}")
    modes = [list(QueryMode)[i % len(QueryMode)] for i in range(n)]
    rng.shuffle(modes)
    stream = []
    for mode in modes:
        if mode is QueryMode.INSTANCES:
            expr = bruteforce.random_expr(rng, onto, depth=2)
        else:
            expr = make_and(bruteforce.random_expr(rng, onto, depth=0) for _ in range(rng.randint(1, 2)))
        stream.append((mode, format_expr(expr)))
    return stream


@dataclass
class Iteration:
    """One iteration. `wall` is the program's time only: the CLI commands, or
    the batches of queries. `samples` holds the calibration samples timed
    before each command or batch and after the last; it is empty when the
    iteration runs without calibration."""

    wall: float
    op_times: dict[str, list[float]]  # operation name -> seconds of each call
    outputs: dict[str, str]  # digest key -> output text
    samples: list[float]


def _call_cli(api, argv: list[str], out_file: str | None) -> tuple[float, str]:
    """Run one CLI command; returns its time and its output as one text
    (exit code, stdout, stderr, and the -o file when there is one)."""
    if out_file is not None and os.path.exists(out_file):
        os.remove(out_file)
    out, err = io.StringIO(), io.StringIO()
    start = perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = api.run(argv)
    except Exception as exc:  # a crash or MemoryError is a failed operation
        return perf_counter() - start, f"raised {type(exc).__name__}: {exc}"
    elapsed = perf_counter() - start
    text = f"exit {code}\n--stdout\n{out.getvalue()}--stderr\n{err.getvalue()}"
    if out_file is not None:
        try:
            with open(out_file, encoding="utf-8") as fh:
                text += f"--{out_file}\n{fh.read()}"
        except OSError:
            text += f"--{out_file} missing\n"
    return elapsed, text


class CliWorkload:
    """deep_check and assert_heavy: the same CLI commands every iteration."""

    def __init__(self, spec: dict):
        self.ops = spec["ops"]
        self.expect = spec["expect"]
        self.oracle_checks = len(self.ops)

    def prepare(self) -> None:
        pass

    def iteration(self, api, calibration=None) -> Iteration:
        op_times: dict[str, list[float]] = {}
        outputs = {}
        wall = 0.0
        samples = [calibration.sample()] if calibration else []
        for name, argv, out_file in self.ops:
            elapsed, outputs[name] = _call_cli(api, argv, out_file)
            op_times.setdefault(name, []).append(elapsed)
            wall += elapsed
            if calibration:
                samples.append(calibration.sample())
        return Iteration(wall, op_times, outputs, samples)

    def digests(self, it: Iteration) -> dict[str, str]:
        return {name: sha(text) for name, text in it.outputs.items()}

    def oracle(self, it: Iteration) -> list[str]:
        """Mismatches between the outputs and the generator's expectations."""
        failures = []

        def expect(name: str, wanted: str) -> None:
            if it.outputs[name] != wanted:
                failures.append(f"{name}: output differs from the expected output")

        e = self.expect
        if "dot" in e:  # deep_check
            expect("check", "exit 0\n--stdout\n0 errors, 0 warnings\n--stderr\n")
            expect("export_dot", f"exit 0\n--stdout\n{e['dot']}--stderr\n")
            try:
                onto, _, _ = load(["deep.oft"])
                answer = bruteforce.oracle_instances(onto, ontokit.dlquery.parse_query(e["query"]))
            except Exception as exc:  # a crash or MemoryError is a failed check
                failures.append(f"query: the oracle raised {type(exc).__name__}: {exc}")
            else:
                expect("query", "exit 0\n--stdout\n" + "".join(f"{n}\n" for n in sorted(answer)) + "--stderr\n")
            return failures
        # assert_heavy
        text = it.outputs["check"]
        stdout, _, stderr = text.partition("--stdout\n")[2].partition("--stderr\n")
        codes = Counter(line.split(" ")[2] for line in stderr.splitlines())
        if not text.startswith("exit 1\n") or stdout != e["summary"] or codes != Counter(e["codes"]):
            failures.append(f"check: diagnostics {dict(codes)} differ from {e['codes']}")
        merged = it.outputs["merge"]
        if not merged.startswith("exit 1\n") or "--merged.oft\nontology assert_a\n" not in merged:
            failures.append("merge: no merged file, or an unexpected exit code")
        combined = it.outputs["ingest"]
        rows = combined.count("\nindividual N")
        if not combined.startswith("exit 0\n--stdout\n--stderr\n--combined.oft\n") or rows != e["csv_rows"]:
            failures.append(f"ingest: {rows} ingested individuals, expected {e['csv_rows']}")
        return failures


class QueryWorkload:
    """query_mix: one closed-loop client evaluating a seeded query stream.

    Loading the ontology (parse, build, closure, realize) is set-up; one
    iteration is one pass over the stream. The stream and the oracle sample
    are drawn from the loaded ontology by `prepare`, after set-up and before
    the timed phase.
    """

    def __init__(self, spec: dict):
        self.seed = spec["seed"]
        self.n_queries = spec["n_queries"]
        self.onto, self.closure, self.realization = load(spec["files"])
        self.stream: list[tuple[QueryMode, str]] = []
        self.sample: list[int] = []
        self.oracle_checks = 0

    def prepare(self) -> None:
        self.stream = query_stream(self.onto, self.seed, self.n_queries)
        instance_queries = [i for i, (mode, _) in enumerate(self.stream) if mode is QueryMode.INSTANCES]
        rng = random.Random(f"oracle/{self.seed}")
        self.sample = sorted(rng.sample(instance_queries, min(ORACLE_SAMPLE, len(instance_queries))))
        self.oracle_checks = len(self.sample)

    def iteration(self, api, calibration=None) -> Iteration:
        latencies = []
        outputs = {}
        wall = 0.0
        samples = [calibration.sample()] if calibration else []
        o, c, r = self.onto, self.closure, self.realization
        for lo in range(0, len(self.stream), QUERY_BATCH):
            start = perf_counter()
            for i in range(lo, min(lo + QUERY_BATCH, len(self.stream))):
                mode, text = self.stream[i]
                t0 = perf_counter()
                try:
                    names = api.eval_query(o, c, r, api.parse_query(text), mode)
                except Exception as exc:
                    names = [f"raised {type(exc).__name__}: {exc}"]
                latencies.append(perf_counter() - t0)
                outputs[f"q{i}"] = "\n".join(names)
            wall += perf_counter() - start
            if calibration:
                samples.append(calibration.sample())
        return Iteration(wall, {"query": latencies}, outputs, samples)

    def digests(self, it: Iteration) -> dict[str, str]:
        digests = {key: sha(text) for key, text in it.outputs.items()}
        digests["stream"] = sha("\n".join(digests[f"q{i}"] for i in range(len(self.stream))))
        return digests

    def oracle(self, it: Iteration) -> list[str]:
        failures = []
        for i in self.sample:
            try:
                expr = ontokit.dlquery.parse_query(self.stream[i][1])
                wanted = "\n".join(sorted(bruteforce.oracle_instances(self.onto, expr)))
            except Exception as exc:  # a crash or MemoryError is a failed check
                failures.append(f"query {i}: the oracle raised {type(exc).__name__}: {exc}")
                continue
            if it.outputs[f"q{i}"] != wanted:
                failures.append(f"query {i} {self.stream[i][1]!r}: answer differs from the oracle")
        return failures


def make_workload(spec: dict):
    """The workload of a spec, set up (for query_mix, with its ontology loaded)."""
    return QueryWorkload(spec) if spec["n_queries"] else CliWorkload(spec)


def competency_suite(api, corpus_files: list[str], rows: list[list[str]]) -> list[str]:
    """Run each row of the corpus's query suite through the CLI and compare
    with its hand-written expectation."""
    failures = []
    for mode, text, expected in rows:
        _, got = _call_cli(api, ["query", *corpus_files, "-q", text, "-m", mode], None)
        names = expected.split(",") if expected else []
        if got != "exit 0\n--stdout\n" + "".join(f"{n}\n" for n in names) + "--stderr\n":
            failures.append(f"competency {mode} {text!r}: answer differs from queries.tsv")
    return failures


CORPUS_OPS = [
    ("check", ["check"]),
    ("stats", ["stats"]),
    ("export_dot", ["export-dot", "--inferred"]),
]


def corpus_digests(api, corpus_files: list[str]) -> dict[str, str]:
    return {
        name: sha(_call_cli(api, [*argv[:1], *corpus_files, *argv[1:]], None)[1])
        for name, argv in CORPUS_OPS
    }
