"""`merge`, `ingest_csv` and the canonical writer check a whole group at once.

Each is compared, on seeded random draws, with a reference that checks one
axiom or one row at a time: the per-axiom merge screen, the per-row CSV
walk, and the canonical list deduplicated by key and sorted by an explicit
order string for every variant. The draws use names that are prefixes of
one another and that one ontology declares as another kind than the other,
properties re-declared with another contract, repeated keys, references
left dangling by a dropped declaration, `1` beside `1.0`, `allowed` lists
written in two orders, and CSV files with one fault of each kind.
"""

from __future__ import annotations

import csv
import io
import random
from collections import Counter
from dataclasses import replace
from operator import attrgetter
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
import ontokit.exchange
from ontokit.exchange import MergeReport, ingest_csv, merge
from ontokit.model import (
    Axiom,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    E_CARD_SINGLE,
    E_CSV_HEADER,
    E_DUP_INDIVIDUAL,
    E_KIND_CLASH,
    E_SYNTAX,
    E_TYPE_MISMATCH,
    E_UNKNOWN_REF,
    FacetSpec,
    Fault,
    IndividualDecl,
    Kind,
    Literal,
    ObjAssertion,
    ObjPropDecl,
    Ontology,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
    canonical_axioms,
    error,
    is_ident,
    sort_diagnostics,
)
from ontokit.oft import parse_oft, serialize_oft
from ontokit.reasoner import compute_closure

# --- references: one axiom or one row at a time ------------------------------


def reference_conflict(ax: Axiom, a: Ontology, symbols: dict[str, Kind]) -> Optional[Fault]:
    """The finding when the second ontology's `ax` may not join `a`."""
    kind = ax.declares
    if kind is not None:
        prior = a.symbols.get(ax.name)
        if prior is not None and prior is not kind:
            return Fault(
                E_KIND_CLASH,
                f"{ax.name} is {prior.value} in the first ontology, "
                f"{kind.value} in the second; keeping the first",
            )
        first = a.declarations.get(ax.name)
        clash = ax.contract_clash(first) if first is not None else None
        if clash is not None:
            return Fault(clash.code, f"{clash.message}; keeping the first")
    for ref_name, wanted, found in ax.unsound_references(symbols):
        code = E_UNKNOWN_REF if found is None else E_KIND_CLASH
        why = "not declared" if found is None else f"declared as {found.value}"
        return Fault(code, f"dropped: {ref_name} is {why}, needed as {wanted.value}")
    return None


def reference_merge(a: Ontology, b: Ontology, name: str) -> MergeReport:
    """`merge`, screening each new key of b at its first axiom on its own."""
    symbols = dict(a.symbols)
    survivors: list[Axiom] = []
    conflicts = []
    for variant in sorted(b.by_variant, key=attrgetter("tag")):
        seen = set(map(variant.key, a.by_variant.get(variant, ())))
        for ax in b.by_variant[variant]:
            key = variant.key(ax)
            if key in seen or variant.implicit is not None and variant.implicit(ax):
                continue
            seen.add(key)
            conflict = reference_conflict(ax, a, symbols)
            if conflict is not None:
                conflicts.append(conflict.diagnostic(ax.file, ax.line))
                continue
            survivors.append(ax)
            if variant.declares is not None:
                symbols.setdefault(ax.name, variant.declares)
    merged, diags = build_ontology(name, survivors, base=a)
    assert merged is not None, diags
    _, cycles = compute_closure(merged)
    return MergeReport(merged, len(survivors), tuple(sort_diagnostics(conflicts + cycles)))


def reference_ingest(o, csv_text, target_class, column_map, file_name="<csv>"):
    """`ingest_csv`, walking the rows one by one."""
    diags = []
    if o.symbols.get(target_class) is not Kind.CLASS:
        diags.append(error(E_UNKNOWN_REF, f"{target_class} is not a declared class", file_name, 1))
    for header, prop in column_map:
        if o.symbols.get(prop) is not Kind.DATA_PROPERTY:
            diags.append(
                error(E_UNKNOWN_REF, f"{prop} is not a declared data property", file_name, 1)
            )
    if diags:
        return [], sort_diagnostics(diags)
    reader = csv.reader(io.StringIO(csv_text, newline=""), strict=True)
    rows = []
    first = 1
    try:
        for row in reader:
            rows.append((first, row))
            first = reader.line_num + 1
    except csv.Error as exc:
        return [], [error(E_SYNTAX, f"unreadable CSV: {exc}", file_name, reader.line_num)]
    if not rows:
        return [], []
    header_row = rows[0][1]
    columns = {h: i for i, h in enumerate(header_row)}
    if "id" not in columns:
        diags.append(error(E_CSV_HEADER, "missing required 'id' column", file_name, 1))
    for header, prop in column_map:
        if header not in columns:
            diags.append(
                error(E_CSV_HEADER, f"mapped column {header!r} not in header", file_name, 1)
            )
    for header in dict.fromkeys(["id", *(h for h, _ in column_map)]):
        if header_row.count(header) > 1:
            diags.append(
                error(E_CSV_HEADER, f"duplicate column {header!r} in header", file_name, 1)
            )
    if diags:
        return [], sort_diagnostics(diags)
    axioms = []
    seen_ids = set()
    literals = {}
    for line, row in rows[1:]:
        if any("\n" in cell or "\r" in cell for cell in row):
            diags.append(error(E_SYNTAX, "a cell spans more than one line", file_name, line))
            continue
        if len(row) != len(header_row):
            message = f"row has {len(row)} fields, header has {len(header_row)}"
            diags.append(error(E_SYNTAX, message, file_name, line))
            continue
        row_id = row[columns["id"]]
        if not is_ident(row_id):
            message = f"row id {row_id!r} is not a valid identifier"
            diags.append(error(E_SYNTAX, message, file_name, line))
            continue
        if row_id in o.symbols or row_id in seen_ids:
            diags.append(error(E_DUP_INDIVIDUAL, f"{row_id} already exists", file_name, line))
            continue
        seen_ids.add(row_id)
        axioms.append(IndividualDecl(row_id, (target_class,), file=file_name, line=line))
        valued = set()
        for header, prop in column_map:
            cell = row[columns[header]]
            if cell == "":
                continue
            facet = o.declarations[prop].facet
            lit = literals.get((prop, cell))
            if lit is None:
                lit = ontokit.exchange._parse_cell(cell, facet)
                if lit is None:
                    message = f"cell {cell!r} is not a {facet.value_type.value} for {prop}"
                    diags.append(error(E_TYPE_MISMATCH, message, file_name, line))
                    continue
                literals[prop, cell] = lit
            if prop in valued and facet.cardinality is Cardinality.SINGLE:
                message = f"{row_id} has more than one value for single-cardinality {prop}"
                diags.append(error(E_CARD_SINGLE, message, file_name, line))
                continue
            valued.add(prop)
            axioms.append(DataAssertion(row_id, prop, lit, file=file_name, line=line))
    if diags:
        return [], sort_diagnostics(diags)
    return axioms, []


# An explicit order string for every variant: the fields joined by a blank,
# a list of names by ", ", a literal as `"<value type> <lexical>"`; a
# property's declarations, which share one key in a built ontology, by name.
REFERENCE_ORDER = {
    ClassDecl: attrgetter("name"),
    SubClassOf: lambda ax: f"{ax.child} {ax.parent}",
    ObjPropDecl: attrgetter("name"),
    DataPropDecl: attrgetter("name"),
    IndividualDecl: lambda ax: f"{ax.name} {', '.join(ax.types)}",
    ObjAssertion: lambda ax: f"{ax.subject} {ax.prop} {ax.object}",
    DataAssertion: lambda ax: f"{ax.subject} {ax.prop} {ax.value.value_type.value} {ax.value.lexical}",
}


def reference_canonical(o: Ontology) -> list[Axiom]:
    """Each variant in tag order, deduplicated by key (first occurrence
    kept) and sorted by its order string."""
    result = []
    for variant in sorted(o.by_variant, key=attrgetter("tag")):
        group = o.by_variant[variant]
        if variant.implicit is not None:
            group = [ax for ax in group if not variant.implicit(ax)]
        first = dict(zip(map(variant.key, reversed(group)), reversed(group)))
        result += sorted(first.values(), key=REFERENCE_ORDER[variant])
    return result


# --- draws --------------------------------------------------------------------

# Names that are prefixes of one another; each ontology gives each its own kind.
NAMES = ["A", "A_", "A0", "AB", "Ab", "B", "B1", "Bx", "x", "x_", "xA", "y"]
VALUES = [
    (ValueType.NUMBER, "1"),
    (ValueType.NUMBER, "1.0"),
    (ValueType.NUMBER, "-2.5"),
    (ValueType.STRING, "1"),
    (ValueType.STRING, "a b"),
    (ValueType.STRING, 'q"'),
    (ValueType.STRING, ""),
    (ValueType.BOOLEAN, "true"),
    (ValueType.DATETIME, "2020-01-01"),
]


def _facet(value_type, allowed=None, card=Cardinality.SINGLE):
    values = None if allowed is None else tuple(Literal(value_type, v) for v in allowed)
    return FacetSpec(ValueType.ENUM if value_type is ValueType.STRING and allowed else value_type,
                     values, card)


# Facets by key: the facets of one entry share a key but are written
# differently (`allowed` in another order, `1` for `1.0`).
FACET_KEYS = [
    [_facet(ValueType.STRING)],
    [_facet(ValueType.NUMBER, card=Cardinality.MULTIPLE)],
    [_facet(ValueType.ANY)],
    [_facet(ValueType.BOOLEAN)],
    [_facet(ValueType.DATETIME, card=Cardinality.MULTIPLE)],
    [_facet(ValueType.NUMBER, ["1", "2.5"]), _facet(ValueType.NUMBER, ["2.5", "1.0"])],
    [_facet(ValueType.STRING, ["red", "blue"]), _facet(ValueType.STRING, ["blue", "red"])],
]


def draw_entity(rng: random.Random) -> tuple:
    """A name's kind and, should it be a property, its contract: a facet key
    and a domain and range among `NAMES`, each read only where it is a class."""
    return rng.choice(list(Kind)), rng.choice(FACET_KEYS), *rng.sample(NAMES + [None] * 4, 2)


def draw_ontology(rng: random.Random, name: str, entities: dict[str, tuple]) -> Ontology:
    """A built ontology `name` declaring each name of `entities` as drawn,
    with repeated keys and declarations and assertions in a seeded order."""
    named = {kind: sorted(n for n, e in entities.items() if e[0] is kind) for kind in Kind}
    classes, inds = named[Kind.CLASS], named[Kind.INDIVIDUAL]
    obj_props, data_props = named[Kind.OBJECT_PROPERTY], named[Kind.DATA_PROPERTY]
    axioms: list[Axiom] = [ClassDecl(c) for c in classes]

    def contract(p):
        _, facets, domain, range_ = entities[p]
        return facets, *(c if c in classes else None for c in (domain, range_))

    if len(classes) > 1:
        axioms += [SubClassOf(*rng.sample(classes, 2)) for _ in range(rng.randint(0, 5))]
    if classes and rng.random() < 0.3:
        axioms += [ClassDecl(THING), SubClassOf(rng.choice(classes), THING)]
    for p in obj_props:
        axioms += [ObjPropDecl(p, *contract(p)[1:])] * rng.randint(1, 2)
    for p in data_props:
        facets, domain, _ = contract(p)
        axioms += [DataPropDecl(p, rng.choice(facets), domain) for _ in range(rng.randint(1, 2))]
    if classes:
        for i in inds:
            types = tuple(rng.sample(classes, rng.randint(1, min(2, len(classes)))))
            axioms += [IndividualDecl(i, types)] * rng.randint(1, 2)
        for _ in range(rng.randint(0, 12) if inds else 0):
            if obj_props and rng.random() < 0.5:
                axioms.append(ObjAssertion(rng.choice(inds), rng.choice(obj_props), rng.choice(inds)))
            elif data_props:
                value = Literal(*rng.choice(VALUES))
                axioms.append(DataAssertion(rng.choice(inds), rng.choice(data_props), value))
    axioms += rng.sample(axioms, min(len(axioms), rng.randint(0, 4)))  # repeated keys
    rng.shuffle(axioms)
    onto, diags = build_ontology(
        name, [replace(ax, file=f"{name}.oft", line=n) for n, ax in enumerate(axioms, 1)]
    )
    assert onto is not None, diags
    return onto


def draw_pair(seed: int) -> tuple[random.Random, Ontology, Ontology]:
    """Two ontologies over `NAMES`; b draws a shared name as a did more often
    than not, so all of b's groups are often clean."""
    rng = random.Random(seed)
    entities_a = {n: draw_entity(rng) for n in rng.sample(NAMES, rng.randint(2, len(NAMES)))}
    agree = rng.choice([1.0, 1.0, 0.8, 0.5])
    entities_b = {
        n: entities_a[n] if n in entities_a and rng.random() < agree else draw_entity(rng)
        for n in rng.sample(NAMES, rng.randint(2, len(NAMES)))
    }
    return rng, draw_ontology(rng, "a", entities_a), draw_ontology(rng, "b", entities_b)


# Each kind of fault the row walk reports.
ROW_FAULTS = ["line break", "field count", "id syntax", "known id", "repeated id", "cell"]


def draw_csv(rng: random.Random, o: Ontology) -> tuple[str, list[tuple[str, str]]]:
    """CSV text for `o` and its column map: clean rows, plus in some draws
    one row with each of `ROW_FAULTS` and two columns of one property."""
    props = sorted(o.data_properties)
    column_map = [(f"c{i}", p) for i, p in enumerate(rng.sample(props, rng.randint(0, len(props))))]
    if props and rng.random() < 0.3:  # a second column of one property
        column_map.append((f"c{len(column_map)}", rng.choice(props)))
    header = ["id", *(h for h, _ in column_map)]
    if rng.random() < 0.3:
        header.insert(rng.randint(0, len(header)), "unread")

    def cell(column):
        if column == "unread":
            return rng.choice(["", "n/a", "x"])
        facet = o.declarations[dict(column_map)[column]].facet
        if rng.random() < 0.2:
            return rng.choice(["", *(lexical for _, lexical in VALUES)])
        return bruteforce.random_literal(rng, facet).lexical

    rows = []
    for r in rng.sample(range(30), rng.randint(0, 8)):
        rows.append([f"r{r}" if c == "id" else cell(c) for c in header])
    i_id = header.index("id")
    known, ids = sorted(o.symbols.keys() - {THING}), [row[i_id] for row in rows]
    for fault in [f for f in ROW_FAULTS if rng.random() < 0.15]:
        row = [f"f{len(rows)}" if c == "id" else cell(c) for c in header]
        if fault == "line break":
            where = header.index("unread") if "unread" in header else rng.randrange(len(row))
            row[where] = rng.choice(["a\nb", "a\r\nb", "\r", "b\r"])
        elif fault == "field count":
            row = row + ["extra"] if rng.random() < 0.5 else row[:-1]
        elif fault == "id syntax":
            row[i_id] = rng.choice(["true", "1x", "", "a b"])
        elif fault == "known id" and known:
            row[i_id] = rng.choice(known)
        elif fault == "repeated id" and ids:
            row[i_id] = rng.choice(ids)
        elif fault == "cell" and column_map:
            row[header.index(rng.choice(column_map)[0])] = "not a value"
        rows.insert(rng.randint(0, len(rows)), row)
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=rng.choice(["\n", "\r\n"]))
    writer.writerow(header)
    writer.writerows(rows)
    return out.getvalue(), column_map


def _spelled(axioms):
    """Axioms with every field, location and literal spelling."""
    return [repr(ax) for ax in axioms]


def _assert_canonical_as_reference(o: Ontology) -> None:
    want = reference_canonical(o)
    assert _spelled(canonical_axioms(o)) == _spelled(want)
    lines = [f"ontology {o.name}", *(ax.to_oft() for ax in want)]
    assert serialize_oft(o) == "".join(f"{line}\n" for line in lines)


# --- differential tests ---------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_merge_as_the_per_axiom_screen(seed):
    """The same union (axioms, their order and locations), `added` and
    conflict lines as the per-axiom screen, and the same written file."""
    _, a, b = draw_pair(seed)
    got, want = merge(a, b, "m"), reference_merge(a, b, "m")
    assert _spelled(got.merged.axioms) == _spelled(want.merged.axioms)
    assert got.added == want.added
    assert [d.render() for d in got.conflicts] == [d.render() for d in want.conflicts]
    assert dict(got.merged.symbols) == dict(want.merged.symbols)
    _assert_canonical_as_reference(got.merged)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_ingest_as_the_row_walk(seed):
    """The same axioms, in order and spelled alike, or the same diagnostics,
    as the walk row by row; and the same written file once built."""
    rng, a, _ = draw_pair(seed)
    text, column_map = draw_csv(rng, a)
    target = rng.choice(sorted(a.classes)) if a.classes and rng.random() < 0.9 else "nowhere"
    got = ingest_csv(a, text, target, column_map, "r.csv")
    want = reference_ingest(a, text, target, column_map, "r.csv")
    assert _spelled(got[0]) == _spelled(want[0])
    assert got[1] == want[1]
    if got[0]:
        combined, diags = build_ontology(a.name, got[0], base=a)
        assert combined is not None, diags
        _assert_canonical_as_reference(combined)


@settings(max_examples=300, deadline=None)
@given(st.integers(0, 2**32))
def test_canonical_as_key_and_order(seed):
    """The canonical list and file of each drawn ontology are those of
    deduplication by key and an explicit order string for every variant."""
    _, a, b = draw_pair(seed)
    _assert_canonical_as_reference(a)
    _assert_canonical_as_reference(b)


def test_draws_reach_both_paths():
    """The draws above hold clean groups and failing ones, clean CSV files
    and each kind of row fault."""
    merged_clean = merged_conflicts = 0
    codes = Counter()
    for seed in range(300):
        rng, a, b = draw_pair(seed)
        conflicts = merge(a, b, "m").conflicts
        merged_clean += not conflicts
        merged_conflicts += bool(conflicts)
        text, column_map = draw_csv(rng, a)
        target = rng.choice(sorted(a.classes)) if a.classes and rng.random() < 0.9 else "nowhere"
        axioms, diags = ingest_csv(a, text, target, column_map)
        codes.update({d.code for d in diags} or {"clean" if axioms else "empty"})
    assert merged_clean > 30 and merged_conflicts > 30
    for code in ["clean", E_SYNTAX, E_DUP_INDIVIDUAL, E_TYPE_MISMATCH, E_CARD_SINGLE]:
        assert codes[code] > 5, codes


# --- spies ----------------------------------------------------------------------


def parse_built(source: str, name: str) -> Ontology:
    result = parse_oft(source, f"{name}.oft")
    assert result.diagnostics == [], result.diagnostics
    onto, diags = build_ontology(name, result.axioms)
    assert onto is not None, diags
    return onto


class TestGroupsNotWalked:
    """A clean input is checked once, as a whole: a spy counts the builds of
    a merge and the calls of the per-axiom and per-cell functions."""

    @pytest.fixture()
    def calls(self, monkeypatch):
        calls = Counter()

        def spy(name):
            real = getattr(ontokit.exchange, name)

            def wrapper(*args, **kwargs):
                calls[name, *args[:1]] += 1
                return real(*args, **kwargs)

            monkeypatch.setattr(ontokit.exchange, name, wrapper)

        spy("_conflict")
        spy("_parse_cell")
        spy("build_ontology")
        return calls

    @staticmethod
    def assert_worded_once_each(calls, report):
        """`_conflict` words each dropped axiom once and no survivor."""
        worded = Counter(key[1] for key in calls.elements() if key[0] == "_conflict")
        assert worded == Counter(d.axiom for d in report.conflicts)
        assert not set(map(id, worded)) & set(map(id, report.merged.axioms))

    def test_clean_merge_screens_no_axiom_alone(self, corpus, calls):
        """Every group of the second ontology is clean: new classes, edges,
        individuals and assertions, and property declarations equal to the
        first's."""
        other = parse_built(
            "ontology other\nclass Date_fruit\nclass Species\nclass Composition\n"
            "class Minerals\nclass Fresh sub Species\nclass Ripe sub Fresh\n"
            "objprop has_composition domain Date_fruit range Composition\n"
            "dataprop has_date_of_origin domain Species type number card single\n"
            "individual Iron type Minerals\nindividual Khenaizi type Ripe\n"
            "rel Khenaizi has_composition Iron\nattr Khenaizi has_date_of_origin 1950\n",
            "other",
        )
        report = merge(corpus, other, "m")
        assert report.conflicts == () and report.added == 7
        assert not [key for key in calls if key[0] == "_conflict"]
        assert calls["build_ontology", "m"] == 1

    def test_clashing_declaration_takes_a_second_build(self, corpus, calls):
        """Only a declaration clashes: the second build admits the rest, and
        only the dropped declaration is worded."""
        other = parse_built("class Date_fruit\nclass Barhee\nclass Fresh sub Date_fruit\n", "other")
        report = merge(corpus, other, "m")
        assert [d.code for d in report.conflicts] == [E_KIND_CLASH]
        assert report.conflicts[0].axiom is other.declarations["Barhee"]
        assert report.added == 2 and calls["build_ontology", "m"] == 2  # Fresh and its edge
        self.assert_worded_once_each(calls, report)

    def test_dependents_of_a_dropped_declaration_take_a_third_build(self, calls):
        """The input of `test_exchange.py::test_dropped_declaration_undeclares_its_name`:
        `objprop p` falls with the clashing class K in the first build, and
        the assertion that uses p in the second."""
        a = parse_built("ontology a\nclass A\nindividual K type A\n", "a")
        b = parse_built(
            "ontology b\nclass K\nobjprop p domain K\nclass C\n"
            "individual j type C\nrel j p j\n",
            "b",
        )
        report = merge(a, b, "m")
        assert [d.line for d in report.conflicts] == [2, 3, 6]
        assert calls["build_ontology", "m"] == 3
        self.assert_worded_once_each(calls, report)

    def test_clean_ingest_parses_each_column_cell_once(self, calls):
        """Two columns of one property parse their shared cells once each."""
        onto = parse_built(
            "class S\ndataprop name type string card multiple\ndataprop year type number\n", "t"
        )
        text = "id,a,b,year\n" + "".join(
            f"R{i},v{i % 3},{'' if i % 5 == 0 else f'v{i % 2}'},{1990 + i % 4}\n" for i in range(40)
        )
        column_map = [("a", "name"), ("b", "name"), ("year", "year")]
        axioms, diags = ingest_csv(onto, text, "S", column_map)
        assert diags == [] and len(axioms) == 152
        parsed = Counter({key[1:]: n for key, n in calls.items() if key[0] == "_parse_cell"})
        cells = {("v0",): 2, ("v1",): 2, ("v2",): 1}
        assert parsed == Counter({**cells, **{(str(1990 + y),): 1 for y in range(4)}})
