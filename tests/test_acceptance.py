"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest -s tests/test_acceptance.py` to see them live).

Criteria:
  1. corpus fidelity          5. serialization round-trip
  2. competency query suite   6. merge algebra
  3. taxonomic semantics      7. DOT export
  4. facet enforcement        8. query evaluator vs oracle
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import bruteforce
from test_corpus import ALL_CLASSES
from ontokit.cli import run
from ontokit.corpus import corpus_dir, corpus_paths, load_corpus, load_query_suite
from ontokit.dlquery import QueryMode, eval_query, parse_query
from ontokit.exchange import export_dot, merge
from ontokit.model import (
    IndividualDecl,
    ValueType,
    build_ontology,
    canonical_axioms,
)
from ontokit.oft import load_sources, parse_oft, serialize_oft
from ontokit.reasoner import compute_closure, realize
from ontokit.validator import validate


def report(number: int, name: str, ok: bool) -> None:
    print(f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"criterion {number} ({name}) failed"


def load_with_extra(extra_text: str, extra_name: str = "seeded.oft"):
    main = corpus_dir() / "date_fruit.oft"
    sources = [(str(main), main.read_text(encoding="utf-8")), (extra_name, extra_text)]
    onto, diags = load_sources(sources)
    assert onto is not None, diags
    closure, cdiags = compute_closure(onto)
    assert closure is not None, cdiags
    return validate(onto, realize(onto, closure))


def test_criterion_1_corpus_fidelity(capsys):
    start = time.perf_counter()
    files = [str(p) for p in corpus_paths()]
    exit_code = run(["check", *files])
    elapsed = time.perf_counter() - start
    captured = capsys.readouterr()
    onto = load_corpus()
    ok = (
        exit_code == 0
        and captured.out == "0 errors, 0 warnings\n"
        and captured.err == ""
        and all(name in onto.classes for name in ALL_CLASSES)
        and elapsed < 1.0
    )
    with capsys.disabled():
        report(1, "corpus fidelity", ok)


def test_criterion_2_competency_suite(corpus, corpus_closure, corpus_realization):
    results = {}
    for case in load_query_suite():
        got = eval_query(
            corpus, corpus_closure, corpus_realization, parse_query(case.text), case.mode
        )
        results[(case.mode, case.text)] = tuple(got) == case.expected
    required = {
        (QueryMode.SUBCLASSES, "Developing_stages"): (
            "Hababauk",
            "Khalaal",
            "Kimri",
            "Rotab",
            "Tamr",
        ),
        (QueryMode.SUBCLASSES, "Storage"): (
            "Fumigation",
            "Heat_treatment",
            "Irradiation",
            "Refrigeration",
        ),
    }
    required_ok = all(
        tuple(
            eval_query(corpus, corpus_closure, corpus_realization, parse_query(text), mode)
        )
        == expected
        for (mode, text), expected in required.items()
    )
    report(2, "competency suite", all(results.values()) and required_ok)


def test_criterion_3_taxonomic_semantics():
    rng = random.Random(2025)
    start = time.perf_counter()
    ok = True
    for _ in range(200):
        n_classes = rng.randint(2, 100)
        axioms = bruteforce.random_taxonomy_axioms(rng, n_classes)
        classes = [f"C{i:03d}" for i in range(n_classes)]
        for i in range(rng.randint(0, 200)):
            types = tuple(rng.sample(classes, rng.randint(1, min(2, len(classes)))))
            axioms.append(IndividualDecl(f"i{i:03d}", types))
        onto, diags = build_ontology("t", axioms)
        assert onto is not None, diags
        closure, cdiags = compute_closure(onto)
        assert closure is not None, cdiags
        realization = realize(onto, closure)
        oracle = bruteforce.reachability(bruteforce.direct_parents(onto))
        ok &= {c: set(a) for c, a in closure.ancestors.items()} == oracle
        members = realization.members_of
        for child, parents in closure.direct_parents.items():
            for parent in parents:
                ok &= members[child] <= members[parent]
    elapsed = time.perf_counter() - start
    report(3, "taxonomic semantics", ok and elapsed < 30.0)


def test_criterion_4_facet_enforcement():
    seeded = [
        (
            'individual Barhee type Species\nattr Barhee has_date_of_origin "old"\n',
            ("E_TYPE_MISMATCH", 2),
        ),
        (
            'individual Barhee type Species\nattr Barhee has_common_name "rude name"\n',
            ("E_ALLOWED_VALUE", 2),
        ),
        (
            "individual Barhee type Species\n"
            'attr Barhee has_common_name "honey balls"\n'
            'attr Barhee has_common_name "visitors dates"\n',
            ("E_CARD_SINGLE", 3),
        ),
    ]
    ok = True
    for text, expected in seeded:
        diags = load_with_extra(text).diagnostics
        ok &= [(d.code, d.line) for d in diags] == [expected]
        ok &= all(d.file == "seeded.oft" for d in diags)
    report(4, "facet enforcement", ok)


def test_criterion_5_round_trip(corpus):
    def survives(onto) -> bool:
        result = parse_oft(serialize_oft(onto), "<roundtrip>")
        if result.diagnostics:
            return False
        rebuilt, diags = build_ontology(result.ontology_name, result.axioms)
        if rebuilt is None:
            return False
        return [bruteforce.identity(a) for a in canonical_axioms(rebuilt)] == [
            bruteforce.identity(a) for a in canonical_axioms(onto)
        ]

    ok = survives(corpus)
    rng = random.Random(55)
    for _ in range(100):
        ok &= survives(bruteforce.random_ontology(rng))
    report(5, "round-trip", ok)


def test_criterion_6_merge_algebra(corpus):
    def identities(onto):
        return [bruteforce.identity(a) for a in canonical_axioms(onto)]

    self_report = merge(corpus, corpus, "merged")
    ok = (
        self_report.added == 0
        and self_report.conflicts == ()
        and identities(self_report.merged) == identities(corpus)
    )

    rng = random.Random(77)
    for _ in range(50):
        a = bruteforce.random_ontology(rng, entity_prefix="a_")
        b = bruteforce.random_ontology(rng, entity_prefix="b_")
        ab = merge(a, b, "m")
        ba = merge(b, a, "m")
        ok &= not ab.conflicts and not ba.conflicts
        ok &= identities(ab.merged) == identities(ba.merged)
        ok &= identities(merge(a, a, "m").merged) == identities(a)

    clash_text = (
        "ontology other\nclass Species\n"
        "dataprop has_date_of_origin domain Species type string card single\n"
    )
    result = parse_oft(clash_text, "other.oft")
    other, diags = build_ontology(result.ontology_name, result.axioms)
    assert other is not None, diags
    clash_report = merge(corpus, other, "merged")
    ok &= len(clash_report.conflicts) == 1
    ok &= clash_report.conflicts[0].code == "E_FACET_CLASH"
    kept = clash_report.merged.declarations["has_date_of_origin"]
    ok &= kept.facet.value_type is ValueType.NUMBER
    report(6, "merge algebra", ok)


def test_criterion_7_dot_export(corpus, corpus_closure):
    first = export_dot(corpus, corpus_closure, inferred=False)
    second = export_dot(corpus, corpus_closure, inferred=False)
    ok = first == second and first.startswith("digraph taxonomy {\n")

    # Byte-identical across separate OS processes as well.
    command = [
        sys.executable,
        "-c",
        "from ontokit.cli import main; main()",
        "export-dot",
        *[str(p) for p in corpus_paths()],
    ]
    runs = [
        subprocess.run(command, capture_output=True, check=True).stdout
        for _ in range(2)
    ]
    ok &= runs[0] == runs[1] == first.encode()

    rng = random.Random(99)
    for _ in range(50):
        n = rng.randint(3, 60)
        axioms = bruteforce.random_taxonomy_axioms(rng, n, redundant=rng.randint(1, 5))
        onto, diags = build_ontology("t", axioms)
        assert onto is not None, diags
        closure, cdiags = compute_closure(onto)
        assert closure is not None, cdiags
        drawn: dict[str, frozenset[str]] = {}
        for line in export_dot(onto, closure, inferred=True).splitlines():
            if "->" not in line:
                continue
            parent, child = [part.strip().strip('";') for part in line.split("->")]
            drawn[child] = drawn.get(child, frozenset()) | {parent}
        reach = bruteforce.reachability(drawn)
        ok &= all(reach.get(c, set()) == set(closure.ancestors[c]) for c in onto.classes)
    report(7, "DOT export", ok)


def test_criterion_8_query_evaluator():
    rng = random.Random(404)
    start = time.perf_counter()
    ok = True
    for _ in range(100):
        onto = bruteforce.random_ontology(
            rng,
            n_classes=rng.randint(2, 30),
            n_individuals=rng.randint(0, 50),
            n_obj_props=rng.randint(1, 4),
            n_data_props=rng.randint(1, 4),
            n_assertions=rng.randint(0, 100),
        )
        closure, _ = compute_closure(onto)
        realization = realize(onto, closure)
        for _ in range(5):
            expr = bruteforce.random_expr(rng, onto)
            got = eval_query(onto, closure, realization, expr, QueryMode.INSTANCES)
            ok &= set(got) == bruteforce.oracle_instances(onto, expr)
            ok &= got == sorted(got)
    elapsed = time.perf_counter() - start
    report(8, "query evaluator", ok and elapsed < 30.0)
