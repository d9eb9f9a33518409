"""DOT export, CSV ingestion, and ontology merging."""

from __future__ import annotations

import csv
import dataclasses
import io
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from ontokit.exchange import export_dot, ingest_csv, merge
from ontokit.model import (
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    IndividualDecl,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
    canonical_axioms,
)
from ontokit.oft import parse_oft, serialize_oft
from ontokit.reasoner import compute_closure


def built(axioms, name="t"):
    onto, diags = build_ontology(name, axioms)
    assert onto is not None, diags
    return onto


def closed(axioms, name="t"):
    onto = built(axioms, name)
    closure, diags = compute_closure(onto)
    assert closure is not None, diags
    return onto, closure


def parse_built(source, name="t"):
    result = parse_oft(source, f"{name}.oft")
    assert result.diagnostics == [], result.diagnostics
    return built(result.axioms, name)


def tagged_chain(n):
    """`C(i) sub C(i-1), A(i)`, each `A(i)` a root whose name sorts first, so
    the topological order puts every `A` before the whole chain."""
    lines = [f"class A{i:04d}" for i in range(n)] + ["class C0000"]
    lines += [f"class C{i:04d} sub C{i - 1:04d}, A{i:04d}" for i in range(1, n)]
    return "\n".join(lines) + "\n"


def identities(onto):
    return [bruteforce.identity(ax) for ax in canonical_axioms(onto)]


def dot_edges(dot_text):
    edges = set()
    for line in dot_text.splitlines():
        if "->" in line:
            left, right = line.strip().rstrip(";").split(" -> ")
            edges.add((left.strip('"'), right.strip('"')))
    return edges


class TestExportDot:
    def test_two_class_chain(self):
        onto, closure = closed(
            [ClassDecl("Date_fruit"), ClassDecl("Dates"), SubClassOf("Dates", "Date_fruit")]
        )
        assert export_dot(onto, closure) == (
            "digraph taxonomy {\n"
            '  "Date_fruit";\n'
            '  "Dates";\n'
            '  "Thing";\n'
            '  "Date_fruit" -> "Dates";\n'
            '  "Thing" -> "Date_fruit";\n'
            "}\n"
        )

    def test_empty_ontology(self):
        onto, closure = closed([])
        assert export_dot(onto, closure) == "digraph taxonomy {\n}\n"

    def test_inferred_omits_redundant_edge(self):
        onto, closure = closed(
            [
                ClassDecl("A"),
                ClassDecl("B"),
                ClassDecl("C"),
                SubClassOf("B", "A"),
                SubClassOf("C", "B"),
                SubClassOf("C", "A"),
            ]
        )
        asserted = dot_edges(export_dot(onto, closure, inferred=False))
        inferred = dot_edges(export_dot(onto, closure, inferred=True))
        assert ("A", "C") in asserted
        assert ("A", "C") not in inferred
        assert ("B", "C") in inferred

    def test_byte_deterministic(self, corpus, corpus_closure):
        assert export_dot(corpus, corpus_closure) == export_dot(corpus, corpus_closure)

    def test_inferred_reachability_equals_closure(self):
        rng = random.Random(19)
        for _ in range(20):
            n = rng.randint(3, 40)
            onto, closure = closed(
                bruteforce.random_taxonomy_axioms(rng, n, redundant=rng.randint(1, 4))
            )
            drawn = dot_edges(export_dot(onto, closure, inferred=True))
            child_to_parents: dict[str, frozenset[str]] = {}
            for parent, child in drawn:
                child_to_parents.setdefault(child, frozenset())
                child_to_parents[child] |= {parent}
            reach = bruteforce.reachability(child_to_parents)
            for cls in onto.classes:
                assert reach.get(cls, set()) == set(closure.ancestors[cls])

    def test_inferred_edges_equal_transitive_reduction(self):
        rng = random.Random(37)
        cases = [
            parse_built("class A\nclass B\nclass C sub Thing, B\n").axioms,
            parse_built("class A\nclass B sub A\nclass C sub A\nclass D sub B, C, A\n").axioms,
            bruteforce.deep_taxonomy_axioms(rng, 60, window=3),
            parse_built(tagged_chain(300)).axioms,
            bruteforce.deep_taxonomy_axioms(random.Random(7), 2000),
        ]
        cases += [
            bruteforce.random_taxonomy_axioms(rng, rng.randint(3, 40), redundant=rng.randint(1, 6))
            for _ in range(30)
        ]
        for axioms in cases:
            onto, closure = closed(axioms)
            drawn = dot_edges(export_dot(onto, closure, inferred=True))
            assert drawn == bruteforce.transitive_reduction(bruteforce.direct_parents(onto))

    def test_reduction_oracle_matches_the_between_definition(self):
        """On any DAG, an edge of the transitive reduction joins a class to
        a strict ancestor with no third class between them: no other
        ancestor of the class reaches it. A class that only appears as a
        parent is a node, and a drawn edge may be redundant."""
        rng = random.Random(41)
        redundant = 0
        for _ in range(150):
            names = [f"C{i}" for i in range(rng.randint(1, 40))]
            density = rng.choice((0.5, 1.5, 3.0)) / len(names)
            # Parents come from earlier names, so the graph is acyclic.
            parents = {
                a: frozenset(b for b in names[:i] if rng.random() < density)
                for i, a in enumerate(names)
                if rng.random() < 0.9
            }
            reach = bruteforce.reachability(parents)
            expected = {
                (a, c)
                for c, ancestors in reach.items()
                for a in ancestors
                if not any(a in reach[b] for b in ancestors)
            }
            assert bruteforce.transitive_reduction(parents) == expected
            redundant += len(expected) < sum(map(len, parents.values()))
        assert 0 < redundant < 150  # graphs with and without a redundant edge both occur


INGEST_BASE = """\
class Dates
dataprop has_common_name domain Dates type string
dataprop has_year domain Dates type number
"""


class TestIngestCsv:
    def test_basic_row(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(
            onto,
            "id,common_name\nBarhee,honey balls\n",
            "Dates",
            [("common_name", "has_common_name")],
        )
        assert diags == []
        assert axioms[0] == IndividualDecl("Barhee", ("Dates",), file="<csv>", line=2)
        assert axioms[1].value.lexical == "honey balls"

    def test_header_only(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(onto, "id,common_name\n", "Dates", [])
        assert (axioms, diags) == ([], [])

    def test_empty_cells_skipped(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(
            onto,
            "id,common_name,year\na,,1990\nb,x,\n",
            "Dates",
            [("common_name", "has_common_name"), ("year", "has_year")],
        )
        assert diags == []
        assert len(axioms) == 4  # 2 decls + 1 assertion each

    def test_counting_oracle_on_synthetic_csv(self):
        rng = random.Random(23)
        onto = parse_built(INGEST_BASE)
        rows = ["id,common_name,year"]
        nonempty = 0
        for i in range(100):
            name = f"v{i:03d}" if rng.random() < 0.7 else ""
            year = str(1900 + i) if rng.random() < 0.5 else ""
            nonempty += bool(name) + bool(year)
            rows.append(f"r{i:03d},{name},{year}")
        axioms, diags = ingest_csv(
            onto,
            "\n".join(rows) + "\n",
            "Dates",
            [("common_name", "has_common_name"), ("year", "has_year")],
        )
        assert diags == []
        assert len(axioms) == 100 + nonempty

    def test_quoted_fields(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(
            onto,
            'id,common_name\nBarhee,"honey, ""ball"" dates"\n',
            "Dates",
            [("common_name", "has_common_name")],
        )
        assert diags == []
        assert axioms[1].value.lexical == 'honey, "ball" dates'

    def test_multi_line_cell_reported_and_lines_kept(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(
            onto,
            'id,common_name,year\nA,"a\nb",1990\nB,x,old\nB,y,\r\nC,"p\r\nq",\n',
            "Dates",
            [("common_name", "has_common_name"), ("year", "has_year")],
        )
        assert axioms == []
        assert [(d.code, d.line) for d in diags] == [
            ("E_SYNTAX", 2),
            ("E_TYPE_MISMATCH", 4),
            ("E_DUP_INDIVIDUAL", 5),
            ("E_SYNTAX", 6),
        ]

    def test_unreadable_csv_reported(self):
        onto = parse_built(INGEST_BASE)
        huge = "x" * (csv.field_size_limit() + 1)
        axioms, diags = ingest_csv(onto, f"id\nA\n{huge}\n", "Dates", [])
        assert axioms == [] and [(d.code, d.line) for d in diags] == [("E_SYNTAX", 3)]

    def test_malformed_quotes_reported(self):
        """An unterminated quote at the end of the text, and text after a
        closing quote, are errors rather than silently read values."""
        onto = parse_built(INGEST_BASE)
        for text in ('id,year\nA,"1990', 'id,year\nA,"19"90\n'):
            axioms, diags = ingest_csv(onto, text, "Dates", [("year", "has_year")])
            assert axioms == []
            assert [(d.code, d.line) for d in diags] == [("E_SYNTAX", 2)], text
            assert diags[0].message.startswith("unreadable CSV: ")

    def test_missing_mapped_header(self):
        onto = parse_built(INGEST_BASE)
        _, diags = ingest_csv(onto, "id,x\nA,1\n", "Dates", [("nope", "has_year")])
        assert [d.code for d in diags] == ["E_CSV_HEADER"]

    @pytest.mark.parametrize(
        "text, column_map, header",
        [
            ("id,id\nq,z\n", [], "id"),
            ("id,n,n\nq,1,2\n", [("n", "has_year")], "n"),
        ],
    )
    def test_repeated_column_that_is_read(self, text, column_map, header):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(onto, text, "Dates", column_map)
        assert axioms == []
        assert [(d.code, d.line, d.message) for d in diags] == [
            ("E_CSV_HEADER", 1, f"duplicate column {header!r} in header")
        ]

    def test_repeated_column_that_is_not_read(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(onto, "id,x,x\nq,1,2\n", "Dates", [])
        assert diags == []
        assert axioms == [IndividualDecl("q", ("Dates",), file="<csv>", line=2)]

    def test_missing_id_column(self):
        onto = parse_built(INGEST_BASE)
        _, diags = ingest_csv(onto, "name\nA\n", "Dates", [])
        assert [d.code for d in diags] == ["E_CSV_HEADER"]

    def test_duplicate_individual(self):
        onto = parse_built(INGEST_BASE + "individual Barhee type Dates\n")
        _, diags = ingest_csv(
            onto, "id\nBarhee\nFresh\nFresh\n", "Dates", []
        )
        assert [(d.code, d.line) for d in diags] == [
            ("E_DUP_INDIVIDUAL", 2),
            ("E_DUP_INDIVIDUAL", 4),
        ]

    def test_boolean_row_id_reported(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(onto, "id\ntrue\nfalse\nokay\n", "Dates", [])
        assert axioms == []
        assert [(d.code, d.line, d.message) for d in diags] == [
            ("E_SYNTAX", 2, "row id 'true' is not a valid identifier"),
            ("E_SYNTAX", 3, "row id 'false' is not a valid identifier"),
        ]

    def test_cell_takes_the_allowed_value_it_spells(self):
        onto = parse_built(
            INGEST_BASE
            + 'dataprop grade domain Dates type enum allowed "1", "2" card single\n'
            + "dataprop level domain Dates type enum allowed 2, 1\n"
            + 'dataprop rank domain Dates type literal allowed "1", 1\n'
        )
        axioms, diags = ingest_csv(
            onto,
            "id,grade,level,rank\na,1,1,1\nb,3,1.0,1.0\n",
            "Dates",
            [("grade", "grade"), ("level", "level"), ("rank", "rank")],
        )
        assert diags == []
        values = [(ax.prop, ax.value) for ax in axioms if isinstance(ax, DataAssertion)]
        assert [(p, v.value_type, v.lexical) for p, v in values] == [
            ("grade", ValueType.STRING, "1"),
            ("level", ValueType.NUMBER, "1"),
            ("rank", ValueType.STRING, "1"),
            # No allowed value is spelled so: the cell is read as before.
            ("grade", ValueType.NUMBER, "3"),
            ("level", ValueType.NUMBER, "1.0"),
            ("rank", ValueType.NUMBER, "1.0"),
        ]
        assert values[0][1] is onto.declarations["grade"].facet.allowed[0]

    def test_type_mismatch_cell(self):
        onto = parse_built(INGEST_BASE)
        _, diags = ingest_csv(
            onto, "id,year\nA,old\n", "Dates", [("year", "has_year")]
        )
        assert [(d.code, d.line) for d in diags] == [("E_TYPE_MISMATCH", 2)]

    def test_later_value_of_a_single_property_reported(self):
        """Each value after a row's first for a single-cardinality property
        is one finding; empty cells and a multiple-cardinality property's
        values are not."""
        onto = parse_built(INGEST_BASE + "dataprop tag domain Dates type string card multiple\n")
        column_map = [("x", "has_year"), ("y", "has_year"), ("z", "has_year")]
        column_map += [("s", "tag"), ("t", "tag")]
        text = "id,x,y,z,s,t\nA,1,2,2,a,b\nB,,2,,a,b\n"
        axioms, diags = ingest_csv(onto, text, "Dates", column_map, "d.csv")
        assert axioms == []
        message = "A has more than one value for single-cardinality has_year"
        assert [d.render() for d in diags] == [f"d.csv:2: error E_CARD_SINGLE {message}"] * 2
        axioms, diags = ingest_csv(onto, "id,x,y,z,s,t\nB,,2,,a,b\n", "Dates", column_map)
        assert diags == [] and len(axioms) == 4
        # A cell that does not parse gives its property no value, so the
        # next column's value is the row's first.
        text = "id,x,y,z,s,t\nC,old,2,,a,b\n"
        axioms, diags = ingest_csv(onto, text, "Dates", column_map, "d.csv")
        assert axioms == []
        message = "cell 'old' is not a number for has_year"
        assert [d.render() for d in diags] == [f"d.csv:2: error E_TYPE_MISMATCH {message}"]
        # The value after a row's first is a later one wherever it stands.
        text = "id,x,y,z,s,t\nE,,2,3,a,b\nF,1,,3,a,b\n"
        axioms, diags = ingest_csv(onto, text, "Dates", column_map, "d.csv")
        message = "has more than one value for single-cardinality has_year"
        assert [d.render() for d in diags] == [
            f"d.csv:2: error E_CARD_SINGLE E {message}",
            f"d.csv:3: error E_CARD_SINGLE F {message}",
        ]
        # A row refused for its id gives no cell finding.
        text = "id,x,y,z,s,t\ntrue,old,2,3,a,b\nD,1,,,a,b\nD,old,2,3,a,b\n"
        axioms, diags = ingest_csv(onto, text, "Dates", column_map, "d.csv")
        assert axioms == []
        assert [d.render() for d in diags] == [
            "d.csv:2: error E_SYNTAX row id 'true' is not a valid identifier",
            "d.csv:4: error E_DUP_INDIVIDUAL D already exists",
        ]

    def test_diagnostics_suppress_axioms(self):
        onto = parse_built(INGEST_BASE)
        axioms, diags = ingest_csv(
            onto, "id,year\nA,1990\nB,old\n", "Dates", [("year", "has_year")]
        )
        assert axioms == [] and diags

    def test_conservativity(self):
        onto = parse_built(INGEST_BASE)
        axioms, _ = ingest_csv(
            onto,
            "id,common_name,year\na,x,1\nb,y,2\n",
            "Dates",
            [("common_name", "has_common_name"), ("year", "has_year")],
        )
        fresh = {"a", "b"}
        for ax in axioms:
            if isinstance(ax, IndividualDecl):
                assert ax.name in fresh and ax.types == ("Dates",)
            else:
                assert isinstance(ax, DataAssertion)
                assert ax.subject in fresh
                assert ax.prop in {"has_common_name", "has_year"}


class TestMerge:
    def test_self_merge_idempotent(self, corpus):
        report = merge(corpus, corpus, "merged")
        assert report.added == 0
        assert report.conflicts == ()
        assert identities(report.merged) == identities(corpus)

    def test_invalid_name_rejected(self, corpus):
        with pytest.raises(ValueError, match="invalid ontology name 'not a name'"):
            merge(corpus, corpus, "not a name")

    def test_added_counts_new_axioms(self, corpus):
        extra = parse_built("ontology more\nclass Species\nclass Medjool sub Species\n", "more")
        report = merge(corpus, extra, "merged")
        assert report.added == 2  # declaration + edge
        assert report.conflicts == ()
        assert "Medjool" in report.merged.classes

    def test_facet_clash_first_wins(self, corpus):
        other = parse_built(
            "ontology other\nclass Species\n"
            "dataprop has_date_of_origin domain Species type string card single\n",
            "other",
        )
        report = merge(corpus, other, "merged")
        assert len(report.conflicts) == 1
        assert report.conflicts[0].code == "E_FACET_CLASH"
        assert report.conflicts[0].message == (
            "has_date_of_origin re-declared with a different facet; keeping the first"
        )
        kept = report.merged.declarations["has_date_of_origin"]
        assert kept.facet.value_type is ValueType.NUMBER

    def test_kind_clash_drops_dependents(self):
        # b declares Sweet as a class; a declares it as an individual.
        a = parse_built("class Fruit\nindividual Sweet type Fruit\n", "a")
        b = parse_built("class Fruit\nclass Sweet sub Fruit\nclass Extra sub Sweet\n", "b")
        report = merge(a, b, "m")
        codes = [d.code for d in report.conflicts]
        assert "E_KIND_CLASH" in codes
        # Extra's edge into the clashing name is dropped and reported too.
        assert "Extra" in report.merged.classes
        closure, _ = compute_closure(report.merged)
        assert closure.direct_parents["Extra"] == {THING}

    def test_commutative_when_conflict_free(self):
        rng = random.Random(29)
        for _ in range(10):
            a = bruteforce.random_ontology(rng, n_classes=8, n_individuals=5)
            b = bruteforce.random_ontology(rng, n_classes=8, n_individuals=5)
            ab = merge(a, b, "m")
            ba = merge(b, a, "m")
            if not ab.conflicts and not ba.conflicts:
                assert identities(ab.merged) == identities(ba.merged)

    def test_union_cycle_reported(self):
        a = parse_built("class A\nclass B sub A\n", "a")
        b = parse_built("class B\nclass A sub B\n", "b")
        report = merge(a, b, "m")
        assert any(d.code == "E_CYCLE" for d in report.conflicts)

    def test_shared_declarations_dedupe(self):
        a = parse_built("class Fruit\ndataprop origin domain Fruit type string\n", "a")
        b = parse_built(
            "class Fruit\ndataprop origin domain Fruit type string\n"
            'individual Medjool type Fruit\nattr Medjool origin "oasis"\n',
            "b",
        )
        report = merge(a, b, "m")
        assert report.conflicts == ()
        assert report.added == 2  # only the individual and its assertion are new
        assert "Medjool" in report.merged.individuals
        decls = [ax for ax in canonical_axioms(report.merged) if isinstance(ax, DataPropDecl)]
        assert len(decls) == 1

    def test_dropped_declaration_undeclares_its_name(self):
        """A name stays declared only while a surviving declaration declares
        it: `objprop p` falls with the clashing class K, and so does the
        assertion that uses p."""
        a = parse_built("ontology a\nclass A\nindividual K type A\n", "a")
        b = parse_built(
            "ontology b\nclass K\nobjprop p domain K\nclass C\n"
            "individual j type C\nrel j p j\n",
            "b",
        )
        report = merge(a, b, "m")
        assert [d.render() for d in report.conflicts] == [
            "b.oft:2: error E_KIND_CLASH K is individual in the first ontology, "
            "class in the second; keeping the first",
            "b.oft:3: error E_KIND_CLASH dropped: K is declared as individual, needed as class",
            "b.oft:6: error E_UNKNOWN_REF dropped: p is not declared, needed as object property",
        ]
        assert "p" not in report.merged.symbols
        assert report.merged.individuals == {"K", "j"}

    def test_dropped_individual_declaration_undeclares_its_name(self):
        a = parse_built("class A\nindividual K type A\nobjprop p\n", "a")
        b = parse_built("class K\nindividual j type K\nobjprop p\nrel j p j\n", "b")
        report = merge(a, b, "m")
        assert [(d.code, d.line) for d in report.conflicts] == [
            ("E_KIND_CLASH", 1),
            ("E_KIND_CLASH", 2),
            ("E_UNKNOWN_REF", 4),
        ]
        assert "j" not in report.merged.symbols


# Names that the generated ontologies' individuals and properties are renamed
# to, so a pair shares names across kinds as well as within them.
_NAME_POOL = (
    [f"C{i:03d}" for i in range(8)]
    + [f"i{i:03d}" for i in range(6)]
    + ["op0", "op1", "op2", "dp0", "dp1", "dp2", "x0", "x1", "x2", "x3"]
)


def _renamed(rng, onto, name):
    """`onto` rebuilt under `name` with each individual and property renamed
    to a distinct name of `_NAME_POOL` that is not one of its classes."""
    old = sorted(onto.symbols.keys() - onto.classes - {THING})
    fresh = rng.sample([n for n in _NAME_POOL if n not in onto.classes], len(old))
    to = dict(zip(old, fresh))
    axioms = [
        dataclasses.replace(
            ax,
            file=f"{name}.oft",
            **{
                f: to.get(getattr(ax, f), getattr(ax, f))
                for f in ("name", "subject", "prop", "object")
                if hasattr(ax, f)
            },
        )
        for ax in onto.axioms
    ]
    return built(axioms, name)


def _random_pair(seed):
    rng = random.Random(seed)

    def one(name):
        onto = bruteforce.random_ontology(
            rng,
            n_classes=rng.randint(2, 8),
            n_individuals=rng.randint(0, 5),
            n_obj_props=rng.randint(0, 3),
            n_data_props=rng.randint(0, 3),
            n_assertions=rng.randint(0, 15),
        )
        return _renamed(rng, onto, name)

    return rng, one("a"), one("b")


def _same_ontology(got, want):
    assert got.name == want.name
    assert got.axioms == want.axioms
    assert dict(got.symbols) == dict(want.symbols)
    assert serialize_oft(got) == serialize_oft(want)
    assert list(got.declarations.items()) == list(want.declarations.items())


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_merge_extends_like_a_rebuild(seed):
    """The union built on `a` is the one a from-scratch build of a's axioms
    and the survivors gives, first declarations included. Its text is that
    of a build of a's canonical axioms and the survivors."""
    _, a, b = _random_pair(seed)
    report = merge(a, b, "m")
    survivors = list(report.merged.axioms[len(a.axioms):])
    assert report.added == len(survivors)
    rebuilt, diags = build_ontology("m", list(a.axioms) + survivors)
    assert rebuilt is not None, diags
    _same_ontology(report.merged, rebuilt)
    canonical, diags = build_ontology("m", canonical_axioms(a) + survivors)
    assert canonical is not None, diags
    assert serialize_oft(report.merged) == serialize_oft(canonical)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_merge_screens_each_new_key_once(seed):
    """Each distinct non-implicit key of b that a lacks is either added or
    reported once, at its first axiom in b, and a reported one is missing
    from the union. Implicit root bookkeeping is never screened."""
    _, a, b = _random_pair(seed)
    axioms = [*b.axioms, ClassDecl(THING), SubClassOf(min(b.classes), THING)]
    b = built([dataclasses.replace(ax, line=i) for i, ax in enumerate(axioms, 1)], "b")
    old = {bruteforce.identity(ax) for ax in a.axioms}
    first = {}
    for ax in b.axioms:
        implicit = type(ax).implicit
        if not (implicit is not None and implicit(ax)) and bruteforce.identity(ax) not in old:
            first.setdefault(bruteforce.identity(ax), ax)
    report = merge(a, b, "m")
    screened = [(d.file, d.line) for d in report.conflicts if d.code != "E_CYCLE"]
    assert report.added + len(screened) == len(first)
    merged = {bruteforce.identity(ax) for ax in report.merged.axioms}
    missing = [(ax.file, ax.line) for ax in first.values() if bruteforce.identity(ax) not in merged]
    assert Counter(screened) == Counter(missing)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_ingest_extends_like_a_rebuild(seed):
    """Ingested rows built on the loaded ontology give what a rebuild of
    its axioms followed by the rows gives."""
    rng, onto, _ = _random_pair(seed)
    props = rng.sample(sorted(onto.data_properties), rng.randint(0, len(onto.data_properties)))
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow(["id", *props])
    facets = [onto.declarations[p].facet for p in props]
    for i in rng.sample(range(20), rng.randint(0, 8)):
        writer.writerow([f"r{i}"] + [bruteforce.random_literal(rng, f).lexical for f in facets])
    target = rng.choice(sorted(onto.classes))
    rows, diags = ingest_csv(onto, out.getvalue(), target, [(p, p) for p in props])
    assert diags == []
    combined, diags = build_ontology(onto.name, rows, base=onto)
    assert combined is not None, diags
    rebuilt, _ = build_ontology(onto.name, list(onto.axioms) + rows)
    _same_ontology(combined, rebuilt)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_extending_build_matches_rebuild(seed):
    """Building any axioms on an ontology finds what a from-scratch build of
    the ontology's axioms and them finds: the same diagnostics, or the same
    ontology."""
    _, a, b = _random_pair(seed)
    extra = list(b.axioms)
    extended, diags = build_ontology("m", extra, base=a)
    rebuilt, rebuilt_diags = build_ontology("m", list(a.axioms) + extra)
    assert diags == rebuilt_diags
    assert (extended is None) == (rebuilt is None)
    if extended is not None:
        _same_ontology(extended, rebuilt)


def test_ingest_shares_one_literal_per_distinct_cell():
    onto = parse_built(INGEST_BASE)
    text = "id,common_name,year\n" + "".join(
        f"R{i},name{i % 3},{1990 + i % 2}\n" for i in range(30)
    )
    axioms, diags = ingest_csv(
        onto, text, "Dates", [("common_name", "has_common_name"), ("year", "has_year")]
    )
    assert diags == []
    values = [ax.value for ax in axioms if isinstance(ax, DataAssertion)]
    assert len(values) == 60
    assert len({id(v) for v in values}) == 5
