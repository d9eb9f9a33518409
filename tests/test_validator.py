"""Facet enforcement and domain/range conformance."""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import replace

import bruteforce
from ontokit.model import (
    DataAssertion,
    DataPropDecl,
    IndividualDecl,
    Severity,
    build_ontology,
)
from ontokit.oft import parse_oft
from ontokit.reasoner import compute_closure, realize
from ontokit.validator import validate

BASE = """\
class Fruit
class Stock sub Fruit
objprop linked_to domain Stock range Fruit
dataprop nickname domain Stock type string allowed "sweet", "plain" card single
dataprop grade domain Stock type number card single
dataprop tag type string card multiple
individual item1 type Stock
individual item2 type Fruit
"""


def check(extra: str):
    source = BASE + extra
    result = parse_oft(source, "v.oft")
    assert result.diagnostics == [], result.diagnostics
    onto, diags = build_ontology("v", result.axioms)
    assert onto is not None, diags
    closure, cdiags = compute_closure(onto)
    assert closure is not None, cdiags
    return validate(onto, realize(onto, closure))


def codes(report):
    return [(d.code, d.line, d.severity) for d in report.diagnostics]


class TestValueFacets:
    def test_allowed_value_passes(self):
        report = check('attr item1 nickname "sweet"\n')
        assert report.ok and not report.diagnostics
        assert report.checked_assertions == 1

    def test_type_mismatch(self):
        report = check('attr item1 grade "old"\n')
        assert codes(report) == [("E_TYPE_MISMATCH", 9, Severity.ERROR)]

    def test_value_outside_allowed_set(self):
        report = check('attr item1 nickname "bitter"\n')
        assert codes(report) == [("E_ALLOWED_VALUE", 9, Severity.ERROR)]

    def test_allowed_check_skipped_when_type_wrong(self):
        report = check("attr item1 nickname 5\n")
        assert codes(report) == [("E_TYPE_MISMATCH", 9, Severity.ERROR)]

    def test_numeric_allowed_matching(self):
        report = check("dataprop score domain Stock type number allowed 1, 2.5\nattr item1 score 2.50\n")
        assert report.ok


class TestCardinality:
    def test_second_value_flagged_for_single(self):
        report = check('attr item1 nickname "sweet"\nattr item1 nickname "plain"\n')
        assert codes(report) == [("E_CARD_SINGLE", 10, Severity.ERROR)]

    def test_three_values_flag_two_lines(self):
        report = check(
            'attr item1 nickname "sweet"\nattr item1 nickname "plain"\nattr item1 nickname "sweet"\n'
        )
        assert [d.line for d in report.diagnostics] == [10, 11]
        assert {d.code for d in report.diagnostics} == {"E_CARD_SINGLE"}

    def test_single_per_individual_not_global(self):
        report = check(
            'individual item3 type Stock\nattr item1 nickname "sweet"\nattr item3 nickname "plain"\n'
        )
        assert report.ok

    def test_multiple_missing_value_is_warning(self):
        report = check("dataprop label domain Stock type string card multiple\n")
        assert codes(report) == [("E_CARD_MULTIPLE", 7, Severity.WARNING)]
        assert report.ok  # warnings do not fail validation

    def test_multiple_satisfied(self):
        report = check(
            'dataprop label domain Stock type string card multiple\nattr item1 label "x"\n'
        )
        assert report.ok and not report.diagnostics

    def test_multiple_without_domain_not_checked(self):
        # `tag` is card multiple with no domain: nothing to enumerate.
        report = check("")
        assert not report.diagnostics


class TestDomainRange:
    def test_object_assertion_domain(self):
        report = check("rel item2 linked_to item1\n")
        assert ("E_DOMAIN", 9, Severity.ERROR) in codes(report)

    def test_object_assertion_range(self):
        report = check(
            "class Unrelated\nindividual other type Unrelated\nrel item1 linked_to other\n"
        )
        assert codes(report) == [("E_RANGE", 11, Severity.ERROR)]

    def test_object_assertion_through_subclass_ok(self):
        report = check("rel item1 linked_to item2\n")
        assert report.ok

    def test_data_assertion_outside_domain(self):
        report = check('attr item2 nickname "sweet"\n')
        assert codes(report) == [("E_DOMAIN", 9, Severity.ERROR)]

    def test_domainless_data_property_unchecked(self):
        report = check('attr item2 tag "anything"\n')
        assert report.ok


class TestReportShape:
    def test_passing_validation_means_no_duplicate_singles(self, corpus, corpus_realization):
        from ontokit.model import Cardinality
        from ontokit.validator import validate as run_validate

        report = run_validate(corpus, corpus_realization)
        assert report.ok
        counts: dict[tuple[str, str], int] = {}
        for ax in corpus.data_assertions:
            counts[(ax.prop, ax.subject)] = counts.get((ax.prop, ax.subject), 0) + 1
        for (prop, _), n in counts.items():
            decl = corpus.declarations[prop]
            if decl.facet.cardinality is Cardinality.SINGLE:
                assert n == 1

    def test_sorted_and_deterministic(self):
        extra = 'attr item1 grade "a"\nattr item2 nickname "bitter"\nrel item2 linked_to item1\n'
        first = check(extra)
        second = check(extra)
        assert first.diagnostics == second.diagnostics
        keys = [(d.file, d.line, d.code) for d in first.diagnostics]
        assert keys == sorted(keys)

    def test_corpus_mutations_never_add_errors(self, corpus):
        # Dropping any single assertion keeps the corpus error-free.
        assertion_idx = [
            i
            for i, ax in enumerate(corpus.axioms)
            if type(ax).__name__ in ("ObjAssertion", "DataAssertion")
        ]
        for i in assertion_idx:
            axioms = [ax for j, ax in enumerate(corpus.axioms) if j != i]
            onto, diags = build_ontology(corpus.name, axioms)
            assert onto is not None, diags
            closure, _ = compute_closure(onto)
            report = validate(onto, realize(onto, closure))
            assert not [d for d in report.diagnostics if d.severity is Severity.ERROR]


class TestOracle:
    def test_validate_matches_the_oracle(self):
        rng = random.Random(7)
        seen: Counter[str] = Counter()
        for _ in range(300):
            onto = bruteforce.random_ontology(rng)
            axioms = list(onto.axioms)
            # Values drawn for another facet: the generator alone never
            # writes a value of the wrong type.
            props = [ax.name for ax in axioms if isinstance(ax, DataPropDecl)]
            individuals = sorted(onto.individuals)
            for _ in range(3):
                value = bruteforce.random_literal(rng, bruteforce.random_facet(rng))
                axioms.append(DataAssertion(rng.choice(individuals), rng.choice(props), value))
            onto, diags = build_ontology(
                "t", [replace(ax, file="t.oft", line=i + 1) for i, ax in enumerate(axioms)]
            )
            assert onto is not None, diags
            closure, _ = compute_closure(onto)
            report = validate(onto, realize(onto, closure))
            got = sorted((d.code, d.file, d.line) for d in report.diagnostics)
            assert got == sorted(bruteforce.oracle_validate(onto))
            seen.update(code for code, _, _ in got)
        assert set(seen) == {
            "E_TYPE_MISMATCH",
            "E_ALLOWED_VALUE",
            "E_CARD_SINGLE",
            "E_CARD_MULTIPLE",
            "E_DOMAIN",
            "E_RANGE",
        }, seen

    def test_a_redeclared_individual_is_warned_of_at_its_first_declaration(self):
        """`E_CARD_MULTIPLE` falls on an individual's first declaration,
        whether the individual is declared again in the same build or in an
        extension by `base=`; the oracle places it by its own axiom scan."""
        rng = random.Random(23)
        placed: Counter[str] = Counter()
        for _ in range(100):
            onto = bruteforce.random_ontology(rng)
            axioms = [replace(ax, file="t.oft", line=i + 1) for i, ax in enumerate(onto.axioms)]
            again = [
                IndividualDecl(ind, (rng.choice(sorted(onto.classes)),), file="u.oft", line=i + 1)
                for i, ind in enumerate(rng.sample(sorted(onto.individuals), 4))
            ]
            first, diags = build_ontology("t", axioms + again[:2])
            assert first is not None, diags
            onto, diags = build_ontology("t", again[2:], base=first)
            assert onto is not None, diags
            closure, _ = compute_closure(onto)
            report = validate(onto, realize(onto, closure))
            got = sorted((d.code, d.file, d.line) for d in report.diagnostics)
            assert got == sorted(bruteforce.oracle_validate(onto))
            redeclared = {ax.name: "build" for ax in again[:2]} | {ax.name: "base" for ax in again[2:]}
            for d in report.diagnostics:
                name = d.message.split()[0]
                if d.code == "E_CARD_MULTIPLE" and name in redeclared:
                    placed[redeclared[name]] += 1
        assert min(placed["build"], placed["base"]) >= 10, placed


def findings(extra: str):
    """(code, line, message) of each finding on BASE + extra, once the
    oracle has found the same (code, file, line)s."""
    result = parse_oft(BASE + extra, "v.oft")
    assert result.diagnostics == [], result.diagnostics
    onto, diags = build_ontology("v", result.axioms)
    assert onto is not None, diags
    closure, _ = compute_closure(onto)
    report = validate(onto, realize(onto, closure))
    got = sorted((d.code, d.file, d.line) for d in report.diagnostics)
    assert got == sorted(bruteforce.oracle_validate(onto))
    return [(d.code, d.line, d.message) for d in report.diagnostics]


class TestPropertyGroups:
    """The validator tests each property's assertions as a group and walks
    them only to place findings."""

    def test_sound_values_with_a_repeated_subject(self):
        extra = "attr item1 grade 1\nrel item1 linked_to item2\nattr item1 grade 2\nattr item1 grade 1\n"
        message = "item1 has more than one value for single-cardinality grade"
        assert findings(extra) == [("E_CARD_SINGLE", 11, message), ("E_CARD_SINGLE", 12, message)]

    def test_fault_in_the_last_assertion_of_a_group(self):
        extra = (
            "class Other\nindividual other type Other\n"
            'attr item1 tag "a"\nattr item2 tag "b"\nattr item1 tag 5\n'
            "rel item1 linked_to item2\nrel item1 linked_to item1\nrel item2 linked_to other\n"
        )
        assert findings(extra) == [
            ("E_TYPE_MISMATCH", 13, "value '5' of tag is not a string"),
            ("E_DOMAIN", 16, "item2 is outside the domain Stock of linked_to"),
            ("E_RANGE", 16, "other is outside the range Fruit of linked_to"),
        ]

    def test_multiple_cardinality_property_without_assertions(self):
        extra = "dataprop label domain Stock type string card multiple\nindividual item3 type Stock\n"
        assert findings(extra) == [
            ("E_CARD_MULTIPLE", 7, "item1 has no value for multiple-cardinality label"),
            ("E_CARD_MULTIPLE", 10, "item3 has no value for multiple-cardinality label"),
        ]

    def test_equal_values_keep_their_own_lexical_forms(self):
        extra = (
            "dataprop p domain Stock type number allowed 2, 3 card multiple\n"
            "attr item1 p 1\nattr item1 p 1.0\n"
        )
        assert findings(extra) == [
            ("E_ALLOWED_VALUE", 10, "value '1' of p is outside the allowed set"),
            ("E_ALLOWED_VALUE", 11, "value '1.0' of p is outside the allowed set"),
        ]
