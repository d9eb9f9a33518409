"""Self-tests of the benchmark: honest outputs pass every check, corrupted
outputs (a wrong query answer, a changed digest) and an oracle that raises
count as failures, and the tracer's self times add up.

    PYTHONPATH=src python3 -m pytest perfbench/test_perfbench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "perfbench"), str(ROOT / "src"), str(ROOT / "tests")]

import child  # noqa: E402
import run  # noqa: E402
from calibrate import REF_S, Calibration, scaled  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import QUERY_BATCH, make_api, make_workload  # noqa: E402

SEED = 3


def _workload(name: str, tmp_path: Path, monkeypatch):
    spec = run._workload_spec(name, SEED, run.REF_SCALE, 60, tmp_path)
    monkeypatch.chdir(tmp_path)
    workload = make_workload(spec)
    workload.prepare()
    return workload


def _raw(first: dict[str, str], n_queries: int = 0) -> dict:
    """A run's raw results with one iteration whose digests are `first`."""
    return {
        "timed": {
            "failures": [],
            "checks": 0,
            "first_digests": first,
            "digest_counts": {key: {digest: 1} for key, digest in first.items()},
        },
        "verify": {"failures": [], "checks": 0, "digests": {"corpus": {}, "reference": {}}},
        "n_queries": n_queries,
        "ref_seed": SEED,
    }


@pytest.mark.parametrize("name", ["deep_check", "assert_heavy", "query_mix"])
def test_honest_outputs_pass_the_oracles(name, tmp_path, monkeypatch):
    workload = _workload(name, tmp_path, monkeypatch)
    assert workload.oracle(workload.iteration(make_api())) == []


def test_wrong_query_answer_is_a_failure(tmp_path, monkeypatch):
    workload = _workload("query_mix", tmp_path, monkeypatch)
    api = make_api()
    honest = workload.iteration(api)
    nonempty = [i for i in workload.sample if honest.outputs[f"q{i}"]]
    assert nonempty
    evaluate = api.eval_query
    api.eval_query = lambda *args: evaluate(*args)[1:]  # drop one name from every answer
    assert len(workload.oracle(workload.iteration(api))) == len(nonempty)


def test_changed_digest_is_a_failure(tmp_path, monkeypatch):
    workload = _workload("deep_check", tmp_path, monkeypatch)
    api = make_api()
    recorded = {"full": {"deep_check": {str(SEED): workload.digests(workload.iteration(api))}}}
    assert run._count_failures("deep_check", SEED, _raw(recorded["full"]["deep_check"][str(SEED)]), recorded)[1] == 0

    cli_run = api.run

    def noisy_run(argv):
        code = cli_run(argv)
        print("one more line")
        return code

    api.run = noisy_run
    changed = workload.digests(workload.iteration(api))
    attempted, failed, problems = run._count_failures("deep_check", SEED, _raw(changed), recorded)
    assert failed == 3 and len(problems) == 3


def test_output_changing_between_iterations_is_a_failure():
    raw = _raw({"check": "a"})
    raw["timed"]["digest_counts"]["check"] = {"a": 2, "b": 1}
    attempted, failed, _ = run._count_failures("deep_check", SEED, raw, {})
    assert (attempted, failed) == (3, 1)


def test_self_times_add_up_to_the_root_spans(tmp_path, monkeypatch):
    workload = _workload("assert_heavy", tmp_path, monkeypatch)
    api = make_api()
    tracer = Tracer()
    restore = tracer.install(api)
    try:
        it = workload.iteration(api)
    finally:
        restore()
    assert workload.oracle(it) == []
    roots = [end - start for _, start, end, parent, _ in tracer.spans if parent < 0]
    assert len(roots) == 3  # one cli.run per command
    assert sum(tracer.self_times().values()) == pytest.approx(sum(roots))
    assert sum(roots) <= it.wall
    assert tracer.calls()["exchange.merge"] == 1
    assert tracer.counters["exchange.csv_rows"] == workload.expect["csv_rows"]


def test_traced_setup_reports_the_query_mix_load(tmp_path, monkeypatch):
    spec = run._workload_spec("query_mix", SEED, run.REF_SCALE, 60, tmp_path)
    monkeypatch.chdir(tmp_path)
    _, layers = child._traced_setup(spec, make_api())
    assert layers["reasoner.compute_closure.calls"] == 1 and layers["reasoner.realize.calls"] == 1
    assert layers["oft.lines_per_s"] > 0 and layers["model.build_ontology.self_s"] > 0


def test_scaled_divides_by_the_mean_sample():
    assert scaled(3.0, [REF_S, 2 * REF_S]) == pytest.approx(2.0)


@pytest.mark.parametrize("name", ["assert_heavy", "query_mix"])
def test_iterations_time_a_sample_around_each_step(name, tmp_path, monkeypatch):
    workload = _workload(name, tmp_path, monkeypatch)
    it = workload.iteration(make_api(), Calibration())
    steps = len(workload.ops) if name == "assert_heavy" else -(-len(workload.stream) // QUERY_BATCH)
    assert len(it.samples) == steps + 1
    assert workload.oracle(it) == []


def test_oracle_that_raises_is_a_failure(tmp_path, monkeypatch):
    workload = _workload("deep_check", tmp_path, monkeypatch)
    it = workload.iteration(make_api())
    (tmp_path / "deep.oft").unlink()
    assert any("the oracle raised FileNotFoundError" in f for f in workload.oracle(it))


def _copy_checkout(dest: Path, with_program: bool) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(ROOT / "perfbench", dest / "perfbench", ignore=shutil.ignore_patterns("_work", "__pycache__"))
    if with_program:
        shutil.copytree(ROOT / "src", dest / "src", ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        (dest / "tests").mkdir()
        shutil.copy(ROOT / "tests" / "bruteforce.py", dest / "tests")


def _bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


def test_tampered_digest_table_fails_the_run(tmp_path):
    _copy_checkout(tmp_path, with_program=True)
    table_path = tmp_path / "perfbench" / "digests.json"
    table = json.loads(table_path.read_text())
    table["corpus"]["check"] = "0" * 64
    table_path.write_text(json.dumps(table))
    done = _bench(tmp_path, "--workload", "query_mix", "--seed", "3", "--seconds", "0.1", "--trace", "0")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert set(result["metrics"]) == {m["name"] for m in config["end_to_end"]}


def test_refuses_to_run_without_the_program(tmp_path):
    _copy_checkout(tmp_path, with_program=False)
    done = _bench(tmp_path, "--workload", "deep_check", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and done.stdout == ""
