"""Core model: literals, facets, ontology construction, canonicalization."""

from __future__ import annotations

import inspect
import random
import re
from dataclasses import FrozenInstanceError, fields, replace
from datetime import date, datetime
from pathlib import Path

import pytest

import bruteforce
import ontokit.model
from ontokit.exchange import merge
from ontokit.model import (
    _DATETIME_SHAPE_RE,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    FacetError,
    FacetSpec,
    Fault,
    IndividualDecl,
    Kind,
    Literal,
    ObjAssertion,
    ObjPropDecl,
    Ontology,
    Severity,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
    canonical_axioms,
    is_datetime,
)
from ontokit.oft import serialize_oft
from ontokit.reasoner import compute_closure


def build_ok(axioms, name="t"):
    onto, diags = build_ontology(name, axioms)
    assert onto is not None, diags
    return onto


def parents_of(onto):
    """The direct parent map `compute_closure` builds for `onto`."""
    closure, diags = compute_closure(onto)
    assert closure is not None, diags
    return closure.direct_parents


class TestLiteral:
    def test_numbers_compare_numerically(self):
        assert Literal(ValueType.NUMBER, "1.0") == Literal(ValueType.NUMBER, "1")
        assert Literal(ValueType.NUMBER, "2e3") == Literal(ValueType.NUMBER, "2000")
        assert hash(Literal(ValueType.NUMBER, "1.0")) == hash(Literal(ValueType.NUMBER, "1"))
        assert Literal(ValueType.NUMBER, "1") != Literal(ValueType.NUMBER, "2")

    def test_other_types_compare_lexically(self):
        assert Literal(ValueType.STRING, "a") == Literal(ValueType.STRING, "a")
        assert Literal(ValueType.STRING, "a") != Literal(ValueType.STRING, "A")
        assert Literal(ValueType.STRING, "1") != Literal(ValueType.NUMBER, "1")

    def test_invalid_lexical_forms_rejected(self):
        with pytest.raises(ValueError):
            Literal(ValueType.NUMBER, "old")
        with pytest.raises(ValueError):
            Literal(ValueType.BOOLEAN, "True")
        with pytest.raises(ValueError):
            Literal(ValueType.DATETIME, "2020-13-40")
        with pytest.raises(ValueError):
            Literal(ValueType.STRING, "line\nbreak")

    def test_facet_only_types_rejected(self):
        """`literal` and `enum` constrain a facet; no value has them, and
        such a literal would have no written form."""
        for value_type in (ValueType.ANY, ValueType.ENUM):
            with pytest.raises(ValueError, match="facet type"):
                Literal(value_type, "x")

    def test_datetime_forms(self):
        Literal(ValueType.DATETIME, "2020-02-29")
        Literal(ValueType.DATETIME, "2020-01-01T10:20:30")
        Literal(ValueType.DATETIME, "2020-01-01T10:20:30Z")

    @staticmethod
    def two_parser_rule(lexical: str) -> bool:
        """The earlier rule: after the shape test, a date parse, and a
        date-time parse when that fails."""
        if not _DATETIME_SHAPE_RE.match(lexical):
            return False
        text = lexical[:-1] + "+00:00" if lexical.endswith("Z") else lexical
        for parse in (date.fromisoformat, datetime.fromisoformat):
            try:
                parse(text)
                return True
            except ValueError:
                pass
        return False

    def test_is_datetime_parses_once_as_two_parsers_did(self):
        """`is_datetime` picks one parser by the shape's `T…` group and
        answers as trying both did, on seeded shapes with invalid months and
        days, a bare `T`, partial and out-of-range times, fractions, offsets
        and a `Z` suffix."""
        rng = random.Random(52)
        times = ["", "T", "T1", "T10", "T10:2", "T10:20", "T10:20:30", "T24:00", "T23:59:60",
                 "T10:20:30.5", "T10:20:30.123456", "T10:20:30.1234567", "T10:20:30+05:00",
                 "T10:20:30-0530", "T10:20+24:00", "T10:20:30+05:30:15", "T10-5", "T::", "T.5"]
        seen = set()
        for _ in range(20_000):
            text = f"{rng.choice(['2020', '1999', '0000', '0001', '9999'])}-"
            text += f"{rng.randint(0, 13):02d}-{rng.randint(0, 32):02d}"
            if rng.random() < 0.2:
                text += "T" + "".join(rng.choices("0123456789:.+-", k=rng.randint(0, 12)))
            else:
                text += rng.choice(times)
            text += rng.choice(["", "", "Z", " ", "ZZ"])
            got = is_datetime(text)
            assert got == self.two_parser_rule(text), text
            seen.add((got, "T" in text))
        assert seen == {(False, False), (True, False), (False, True), (True, True)}


_FACET = FacetSpec(ValueType.NUMBER, (Literal(ValueType.NUMBER, "1"),))
_SAY_HI = Literal(ValueType.STRING, 'say "hi"')

_IMMUTABLE = [
    ClassDecl("A", file="a.oft", line=1),
    SubClassOf("A", "B", line=2),
    ObjPropDecl("p", "A", None),
    DataPropDecl("d", _FACET, "A"),
    IndividualDecl("i", ("A", "B")),
    ObjAssertion("i", "p", "j"),
    DataAssertion("i", "d", _SAY_HI),
    _SAY_HI,
    Literal(ValueType.NUMBER, "1.0"),
]

# Each variant with the constructor's positional arguments, defaults left
# out, and every field value in order, defaults included: `make`'s fields.
_MADE = [
    (ClassDecl, ("A",), ("A",)),
    (SubClassOf, ("A", "B"), ("A", "B")),
    (ObjPropDecl, ("p",), ("p", None, None)),
    (DataPropDecl, ("d", _FACET), ("d", _FACET, None)),
    (IndividualDecl, ("i", ("A", "B")), ("i", ("A", "B"))),
    (ObjAssertion, ("i", "p", "j"), ("i", "p", "j")),
    (DataAssertion, ("i", "d", _SAY_HI), ("i", "d", _SAY_HI)),
]

# The variants that set their own key, each with two axioms it keys as one:
# a value written two ways, and an allowed set listed in two orders.
_ONE_KEY = {
    DataAssertion: [DataAssertion("i", "d", Literal(ValueType.NUMBER, n)) for n in ("1", "1.0")],
    DataPropDecl: [
        DataPropDecl("d", FacetSpec(ValueType.STRING, tuple(Literal(ValueType.STRING, v) for v in vs)))
        for vs in ("ab", "ba")
    ],
}


class TestImmutability:
    @pytest.mark.parametrize("value", _IMMUTABLE, ids=lambda v: type(v).__name__)
    def test_fields_cannot_be_assigned_or_deleted(self, value):
        for f in fields(value):
            with pytest.raises(FrozenInstanceError):
                setattr(value, f.name, getattr(value, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(value, f.name)

    @pytest.mark.parametrize("ax", _IMMUTABLE[:7], ids=lambda v: type(v).__name__)
    def test_replace_moves_an_axiom(self, ax):
        moved = replace(ax, line=99)
        assert type(moved) is type(ax) and moved.line == 99
        assert moved != ax
        assert replace(moved, line=ax.line) == ax
        assert hash(replace(moved, line=ax.line)) == hash(ax)
        assert bruteforce.identity(moved) == bruteforce.identity(ax)

    def test_equal_field_values_in_two_variants_differ(self):
        assert ClassDecl("A") != ObjPropDecl("A")
        assert ObjPropDecl("A") != ClassDecl("A")
        assert bruteforce.identity(ClassDecl("A")) != bruteforce.identity(ObjPropDecl("A"))
        assert ClassDecl("A") == ClassDecl("A")
        assert ClassDecl("A", line=1) != ClassDecl("A", line=2)

    @pytest.mark.parametrize(
        "variant, args, values", _MADE, ids=[variant.__name__ for variant, _, _ in _MADE]
    )
    def test_make_builds_what_the_constructor_builds(self, variant, args, values):
        """`make` takes every field, defaults included, and the location
        positionally, and its axiom is the constructor's in every respect.
        A variant keys by its field values, a scalar for one field, unless
        it sets its own key, which `_variant` keeps."""
        made = variant.make(*values, "f.oft", 7)
        built = variant(*args, file="f.oft", line=7)
        assert type(made) is variant
        names = [f.name for f in fields(variant) if not f.kw_only]
        expected = {"file": "f.oft", "line": 7, **dict(zip(names, values))}
        for f in fields(variant):
            assert getattr(made, f.name) == getattr(built, f.name) == expected[f.name]
        assert made == built and hash(made) == hash(built) and repr(made) == repr(built)
        assert bruteforce.identity(made) == bruteforce.identity(built)
        if variant in _ONE_KEY:
            first, second = _ONE_KEY[variant]
            assert variant.key(made) != values and variant.key(first) == variant.key(second)
        else:
            assert variant.key(made) == (values if len(values) > 1 else values[0])
        for f in fields(variant):
            with pytest.raises(FrozenInstanceError):
                setattr(made, f.name, getattr(made, f.name))
            with pytest.raises(FrozenInstanceError):
                delattr(made, f.name)
        assert replace(made) == built
        assert replace(made, line=8) == replace(built, line=8) != built
        with pytest.raises(TypeError):
            variant.make(*values)

    def test_constructor_signature_and_repr(self):
        assert str(inspect.signature(ObjPropDecl.__init__)) == (
            "(self, name: 'str', domain: 'Optional[str]' = None, range: 'Optional[str]' = None,"
            " *, file: 'str' = '', line: 'int' = 0) -> None"
        )
        assert repr(ObjAssertion("i", "p", "j", file="f.oft", line=3)) == (
            "ObjAssertion(file='f.oft', line=3, subject='i', prop='p', object='j')"
        )
        with pytest.raises(TypeError):
            ObjAssertion("i", "p", "j", "f.oft")


class TestFacetSpec:
    def test_enum_requires_allowed(self):
        with pytest.raises(ValueError):
            FacetSpec(ValueType.ENUM)

    def test_allowed_must_be_duplicate_free(self):
        with pytest.raises(ValueError):
            FacetSpec(
                ValueType.NUMBER,
                (Literal(ValueType.NUMBER, "1"), Literal(ValueType.NUMBER, "1.0")),
            )

    def test_allowed_must_conform(self):
        with pytest.raises(ValueError):
            FacetSpec(ValueType.NUMBER, (Literal(ValueType.STRING, "x"),))

    def test_allowed_must_be_non_empty_when_present(self):
        with pytest.raises(FacetError) as exc:
            FacetSpec(ValueType.STRING, ())
        assert exc.value.message == "allowed values must be non-empty when present"

    @pytest.mark.parametrize(
        "value_type, allowed, code, message",
        [
            (ValueType.STRING, (), "E_SYNTAX", "allowed values must be non-empty when present"),
            (
                ValueType.NUMBER,
                (Literal(ValueType.NUMBER, "1"), Literal(ValueType.NUMBER, "1.0")),
                "E_SYNTAX",
                "duplicate allowed value '1.0'",
            ),
            (
                ValueType.NUMBER,
                (Literal(ValueType.STRING, "x"),),
                "E_TYPE_MISMATCH",
                "allowed value 'x' does not conform to number",
            ),
            (ValueType.ENUM, None, "E_SYNTAX", "enum type requires an allowed-values list"),
        ],
    )
    def test_fault_texts(self, value_type, allowed, code, message):
        with pytest.raises(FacetError) as exc:
            FacetSpec(value_type, allowed)
        fault = exc.value
        assert isinstance(fault, Fault) and isinstance(fault, ValueError)
        assert (fault.code, fault.message, str(fault)) == (code, message, message)

    def test_allowed_permits_semantic_match(self):
        facet = FacetSpec(ValueType.NUMBER, (Literal(ValueType.NUMBER, "1"),))
        assert facet.permits(Literal(ValueType.NUMBER, "1.0"))
        assert not facet.permits(Literal(ValueType.NUMBER, "2"))


class TestBuildOntology:
    def test_single_class_under_implicit_root(self):
        onto = build_ok([ClassDecl("A")])
        assert parents_of(onto) == {"A": {THING}, THING: set()}
        assert onto.symbols["A"] is Kind.CLASS

    def test_asserted_parent_plus_implicit_root(self):
        onto = build_ok(
            [
                ClassDecl("Date_fruit"),
                ClassDecl("Dates"),
                SubClassOf("Dates", "Date_fruit"),
            ]
        )
        parents = parents_of(onto)
        assert parents["Dates"] == {"Date_fruit"}
        assert parents["Date_fruit"] == {THING}

    def test_invalid_ontology_name(self):
        onto, diags = build_ontology("1x", [])
        assert onto is None
        assert [(d.code, d.message) for d in diags] == [
            ("E_SYNTAX", "invalid ontology name '1x'")
        ]

    def test_invalid_identifier(self):
        onto, diags = build_ontology("t", [ClassDecl("true")])
        assert onto is None
        assert [(d.code, d.message) for d in diags] == [
            ("E_SYNTAX", "invalid identifier 'true'")
        ]

    def test_self_subclass_rejected(self):
        onto, diags = build_ontology(
            "t", [ClassDecl("A"), SubClassOf("A", "A", file="f", line=2)]
        )
        assert onto is None
        assert [(d.code, d.line) for d in diags] == [("E_SELF_SUB", 2)]

    def test_unknown_reference(self):
        onto, diags = build_ontology("t", [ClassDecl("A"), SubClassOf("A", "B")])
        assert onto is None
        assert diags[0].code == "E_UNKNOWN_REF"
        assert "B" in diags[0].message

    def test_kind_clash_on_declaration(self):
        onto, diags = build_ontology(
            "t", [ClassDecl("X"), IndividualDecl("X", ("X",))]
        )
        assert onto is None
        assert any(d.code == "E_KIND_CLASH" for d in diags)

        # A re-declaration of another kind is only a kind clash: its contract
        # is compared with no declaration of the name.
        axioms = [
            ClassDecl("A", line=1),
            ClassDecl("B", line=2),
            DataPropDecl("p", FacetSpec(ValueType.NUMBER), line=3),
            ObjPropDecl("p", None, "A", line=4),
            ObjPropDecl("p", None, "B", line=5),
        ]
        onto, diags = build_ontology("t", axioms)
        assert onto is None
        assert [(d.code, d.message, d.line) for d in diags] == [
            ("E_KIND_CLASH", "p already declared as data property", 4),
            ("E_KIND_CLASH", "p already declared as data property", 5),
        ]

    def test_kind_clash_on_use(self):
        onto, diags = build_ontology(
            "t",
            [
                ClassDecl("A"),
                ObjPropDecl("p"),
                IndividualDecl("i", ("A",)),
                ObjAssertion("i", "A", "i"),
            ],
        )
        assert onto is None
        assert any(d.code == "E_KIND_CLASH" and "A" in d.message for d in diags)

    def test_all_diagnostics_reported_in_one_pass(self):
        onto, diags = build_ontology(
            "t",
            [
                SubClassOf("A", "A", line=1),
                SubClassOf("B", "C", line=2),
                IndividualDecl("i", (), line=3),
            ],
        )
        assert onto is None
        assert len(diags) >= 4  # self-sub, two unknown refs, empty types
        assert all(d.severity is Severity.ERROR for d in diags)

    def test_thing_has_no_superclass(self):
        """Every class is below Thing, so an edge out of Thing closes a
        cycle; an edge from Thing to itself stays a self-subclass."""
        for parent, finding in [
            ("A", ("E_CYCLE", "class Thing cannot be a subclass of A", 2)),
            (THING, ("E_SELF_SUB", "class Thing cannot be its own subclass", 2)),
        ]:
            axioms = [ClassDecl("A"), SubClassOf(THING, parent, file="f", line=2)]
            onto, diags = build_ontology("t", axioms)
            assert onto is None
            assert [(d.code, d.message, d.line) for d in diags] == [finding]

    def test_thing_is_reserved_as_class(self):
        onto, diags = build_ontology("t", [IndividualDecl(THING, (THING,))])
        assert onto is None
        assert any(d.code == "E_KIND_CLASH" for d in diags)

    def test_conflicting_property_redeclaration(self):
        onto, diags = build_ontology(
            "t",
            [
                DataPropDecl("p", FacetSpec(ValueType.NUMBER)),
                DataPropDecl("p", FacetSpec(ValueType.STRING)),
            ],
        )
        assert onto is None
        assert any(d.code == "E_FACET_CLASH" for d in diags)

    @pytest.mark.parametrize(
        "axioms, finding",
        [
            (
                [ClassDecl("A"), SubClassOf("A", "A", file="f", line=2)],
                ("E_SELF_SUB", "class A cannot be its own subclass", 2),
            ),
            (
                [ClassDecl("A"), ObjPropDecl("p", "A"), ObjPropDecl("p", line=3)],
                ("E_PROP_CLASH", "p re-declared with a different domain/range", 3),
            ),
            (
                [
                    DataPropDecl("d", FacetSpec(ValueType.NUMBER)),
                    DataPropDecl("d", FacetSpec(ValueType.STRING), line=2),
                ],
                ("E_FACET_CLASH", "d re-declared with a different facet", 2),
            ),
            (
                [
                    ClassDecl("A"),
                    DataPropDecl("e", FacetSpec(ValueType.STRING), "A"),
                    DataPropDecl("e", FacetSpec(ValueType.STRING), line=3),
                ],
                ("E_PROP_CLASH", "e re-declared with a different domain", 3),
            ),
            (
                [IndividualDecl("i", ())],
                ("E_SYNTAX", "individual i needs at least one type", 0),
            ),
        ],
    )
    def test_axiom_finding_texts(self, axioms, finding):
        onto, diags = build_ontology("t", axioms)
        assert onto is None
        assert [(d.code, d.message, d.line) for d in diags] == [finding]

    @pytest.mark.parametrize(
        "axioms",
        [
            # The only unsound names sit in the types of individuals.
            [
                ClassDecl("A"),
                ObjPropDecl("p"),
                IndividualDecl("i", ("A", "B"), line=3),
                IndividualDecl("j", ("A",), line=4),
                IndividualDecl("k", ("p", "A"), line=5),
            ],
            # Properties with a range and no domain: only the ranges are unsound.
            [
                ClassDecl("A"),
                ObjPropDecl("p"),
                ObjPropDecl("q", None, "B", line=3),
                ObjPropDecl("r", None, "A", line=4),
                ObjPropDecl("s", None, "p", line=5),
            ],
        ],
    )
    def test_reference_finding_texts(self, axioms):
        onto, diags = build_ontology("t", axioms)
        assert onto is None
        assert [(d.code, d.message, d.line) for d in diags] == [
            ("E_UNKNOWN_REF", "B is not declared", 3),
            ("E_KIND_CLASH", "p used as class but declared as object property", 5),
        ]

    def test_invalid_declared_names(self):
        """Every invalid declared name is reported at each of its
        declarations and never enters the symbol table: a later use of it
        is an unknown reference, and a re-declaration as another kind is no
        kind clash. A property re-declared with another contract still
        clashes, valid name or not."""
        axioms = [
            ClassDecl("A", file="f", line=1),
            ClassDecl("true", file="f", line=2),
            ClassDecl("1x", file="f", line=3),
            ObjPropDecl("a b", "A", None, file="f", line=4),
            ClassDecl("B", file="f", line=5),
            ClassDecl("1x", file="f", line=6),
            IndividualDecl("true", ("A",), file="f", line=7),
            SubClassOf("B", "1x", file="f", line=8),
            IndividualDecl("i", ("B", "true"), file="f", line=9),
            ObjPropDecl("a b", "B", None, file="f", line=10),
            ObjAssertion("i", "a b", "i", file="f", line=11),
            DataPropDecl("d", FacetSpec(ValueType.NUMBER), "A", file="f", line=12),
        ]
        onto, diags = build_ontology("t", axioms)
        assert onto is None
        assert [(d.code, d.message, d.line) for d in diags] == [
            ("E_SYNTAX", "invalid identifier 'true'", 2),
            ("E_SYNTAX", "invalid identifier '1x'", 3),
            ("E_SYNTAX", "invalid identifier 'a b'", 4),
            ("E_SYNTAX", "invalid identifier '1x'", 6),
            ("E_SYNTAX", "invalid identifier 'true'", 7),
            ("E_UNKNOWN_REF", "1x is not declared", 8),
            ("E_UNKNOWN_REF", "true is not declared", 9),
            ("E_PROP_CLASH", "a b re-declared with a different domain/range", 10),
            ("E_SYNTAX", "invalid identifier 'a b'", 10),
            ("E_UNKNOWN_REF", "a b is not declared", 11),
        ]
        # Without the invalid declarations the rest builds, with only the
        # valid names.
        valid = [ax for ax in axioms if ax.line in (1, 5, 12)]
        assert set(build_ok(valid).symbols) == {THING, "A", "B", "d"}

        base = build_ok(valid + [IndividualDecl("i", ("A",), file="b", line=1)])
        extension = [
            ClassDecl("C", file="g", line=1),
            ClassDecl("true", file="g", line=2),
            ClassDecl("1x", file="g", line=3),
            ClassDecl("1x", file="g", line=4),
            IndividualDecl("1x", ("C",), file="g", line=5),
            SubClassOf("C", "true", file="g", line=6),
            ObjPropDecl("a b", "C", "A", file="g", line=7),
            IndividualDecl("j", ("C", "1x"), file="g", line=8),
            ObjAssertion("i", "a b", "j", file="g", line=9),
            DataAssertion("j", "d", Literal(ValueType.NUMBER, "1"), file="g", line=10),
        ]
        onto, diags = build_ontology("t", extension, base=base)
        assert onto is None
        assert [(d.code, d.message, d.line) for d in diags] == [
            ("E_SYNTAX", "invalid identifier 'true'", 2),
            ("E_SYNTAX", "invalid identifier '1x'", 3),
            ("E_SYNTAX", "invalid identifier '1x'", 4),
            ("E_SYNTAX", "invalid identifier '1x'", 5),
            ("E_UNKNOWN_REF", "true is not declared", 6),
            ("E_SYNTAX", "invalid identifier 'a b'", 7),
            ("E_UNKNOWN_REF", "1x is not declared", 8),
            ("E_UNKNOWN_REF", "a b is not declared", 9),
        ]
        assert set(base.symbols) == {THING, "A", "B", "d", "i"}

    def test_ontology_keys_a_dict(self, corpus):
        other = build_ok([ClassDecl("A")])
        cache = {corpus: "corpus", other: "other"}
        assert cache[corpus] == "corpus" and cache[other] == "other"
        assert corpus != other

    def test_views_equal_a_scan_of_the_axioms(self):
        rng, other_rng = random.Random(5), random.Random(6)
        for _ in range(20):
            onto = bruteforce.random_ontology(rng, n_assertions=30)
            doubled = build_ok(
                [replace(ax, line=i + 1) for i, ax in enumerate(onto.axioms * 2)]
            )
            # The pair shares every name, so the union declares some
            # individuals twice and drops clashing properties.
            other = bruteforce.random_ontology(other_rng, n_assertions=30)
            merged = merge(other, doubled, "m").merged
            for o in (onto, doubled, merged):
                first = {}
                for ax in o.axioms:
                    if ax.declares is not None:
                        first.setdefault(ax.name, ax)
                # Each declared name keys its first declaration, that very
                # axiom, whose kind is the name's symbol.
                assert o.declarations.keys() == first.keys()
                for name, ax in o.declarations.items():
                    assert type(name) is str
                    assert ax is first[name]
                    assert ax.declares is o.symbols[name]
                types = {}
                for ax in o.axioms:
                    if isinstance(ax, IndividualDecl):
                        types.setdefault(ax.name, set()).update(ax.types)
                assert o.asserted_types == types
                assert o.obj_assertions == tuple(
                    ax for ax in o.axioms if isinstance(ax, ObjAssertion)
                )
                assert o.data_assertions == tuple(
                    ax for ax in o.axioms if isinstance(ax, DataAssertion)
                )
                parents = parents_of(o)
                assert set(parents) == o.classes | {THING} and parents[THING] == set()
                for cls in o.classes:
                    asserted = {
                        ax.parent
                        for ax in o.axioms
                        if isinstance(ax, SubClassOf) and ax.child == cls
                    }
                    assert parents[cls] == (asserted or {THING})

    def test_referential_closure_full_scan(self, corpus):
        for ax in corpus.axioms:
            assert list(ax.unsound_references(corpus.symbols)) == []

    def test_implicit_root_totality(self, corpus, corpus_closure):
        for cls in corpus.classes:
            seen = set()
            frontier = {cls}
            while frontier:
                node = frontier.pop()
                if node in seen:
                    continue
                seen.add(node)
                frontier |= set(corpus_closure.direct_parents.get(node, ()))
            assert THING in seen


def _prefix_named_axioms(rng, strings):
    """Random axioms whose names of each kind are prefixes of one another
    (`a`, `a_`, `a0`, `ab`, `aB`), with individuals of one to three types,
    some declared twice, and values of every literal type."""
    def named(stem):
        return [stem + tail for tail in ["", "_", "0", "b", "B"]]

    classes, individuals, obj_props, data_props = map(named, "aipd")
    axioms = [ClassDecl(c) for c in classes]
    for i, child in enumerate(classes[1:], 1):  # edges only to earlier classes: no cycle
        parents = rng.sample(classes[:i], rng.randint(0, min(i, 2)))
        axioms += [SubClassOf(child, parent) for parent in parents]
    axioms += [ObjPropDecl(p) for p in obj_props]
    axioms += [DataPropDecl(d, FacetSpec(ValueType.ANY)) for d in data_props]
    for ind in individuals:
        for _ in range(rng.randint(1, 2)):
            axioms.append(IndividualDecl(ind, tuple(rng.sample(classes, rng.randint(1, 3)))))
    values = [(ValueType.STRING, s) for s in strings + ["a", "a_", "ab"]] + [
        (ValueType.NUMBER, n) for n in ["1", "1.0", "10", "-1", "2e1"]
    ] + [(ValueType.BOOLEAN, "true"), (ValueType.BOOLEAN, "false")] + [
        (ValueType.DATETIME, d) for d in ["2020-01-01", "2020-01-01T00:00:00Z"]
    ]
    for _ in range(rng.randint(0, 30)):
        if rng.random() < 0.5:
            axioms.append(ObjAssertion(*map(rng.choice, (individuals, obj_props, individuals))))
        else:
            value = Literal(*rng.choice(values))
            axioms.append(DataAssertion(rng.choice(individuals), rng.choice(data_props), value))
    return axioms


def _assert_canonical_as_the_oracle(rng, axioms):
    """Add repeats of some of `axioms`, shuffle them, number their lines,
    and compare the canonical list and the written file with the oracle's."""
    axioms = axioms + rng.sample(axioms, rng.randint(0, 8))
    rng.shuffle(axioms)
    onto = build_ok([replace(ax, line=n) for n, ax in enumerate(axioms, 1)])
    expected = bruteforce.oracle_canonical(onto)
    assert canonical_axioms(onto) == expected
    assert serialize_oft(onto) == "".join(
        f"{line}\n" for line in ["ontology t", *(ax.to_oft() for ax in expected)]
    )


class TestCanonicalAxioms:
    def test_duplicates_removed(self):
        onto = build_ok(
            [
                ClassDecl("A"),
                ClassDecl("B"),
                SubClassOf("B", "A"),
                SubClassOf("B", "A"),
            ]
        )
        subs = [ax for ax in canonical_axioms(onto) if isinstance(ax, SubClassOf)]
        assert subs == [SubClassOf("B", "A")]

    def test_variant_ordering(self):
        onto = build_ok(
            [
                ClassDecl("Date_fruit"),
                SubClassOf("Dates", "Date_fruit"),
                ClassDecl("Dates"),
            ]
        )
        kinds = [type(ax).__name__ for ax in canonical_axioms(onto)]
        assert kinds == ["ClassDecl", "ClassDecl", "SubClassOf"]

    def test_explicit_thing_edges_excluded(self):
        onto = build_ok([ClassDecl("A"), SubClassOf("A", THING), ClassDecl(THING)])
        assert canonical_axioms(onto) == [ClassDecl("A")]

    def test_deterministic_across_calls(self, corpus):
        first = [bruteforce.identity(ax) for ax in canonical_axioms(corpus)]
        second = [bruteforce.identity(ax) for ax in canonical_axioms(corpus)]
        assert first == second

    def test_idempotent_after_rebuild(self, corpus):
        rebuilt = build_ok(canonical_axioms(corpus), name=corpus.name)
        assert [bruteforce.identity(ax) for ax in canonical_axioms(rebuilt)] == [
            bruteforce.identity(ax) for ax in canonical_axioms(corpus)
        ]

    def test_number_duplicates_collapse_to_first(self):
        onto = build_ok(
            [
                ClassDecl("A"),
                IndividualDecl("i", ("A",)),
                DataPropDecl("p", FacetSpec(ValueType.NUMBER)),
                DataAssertion("i", "p", Literal(ValueType.NUMBER, "1.0")),
                DataAssertion("i", "p", Literal(ValueType.NUMBER, "1")),
            ]
        )
        values = [
            ax.value.lexical
            for ax in canonical_axioms(onto)
            if isinstance(ax, DataAssertion)
        ]
        assert values == ["1.0"]

    def test_matches_the_oracle(self):
        """On random ontologies with repeated axioms, `1` beside `1.0` and
        strings holding a tab, a control character, a quote or a backslash,
        and on ontologies whose names of each kind are prefixes of one
        another and whose individuals have one to three types, the
        canonical list keeps each identity's first line and sorts by the
        oracle's keys, and the file writes it in that order."""
        odd = ["a\tb", "\x01", "\t", 'q"', "\\", 'x"y', "back\\slash", "a b", ""]
        rng = random.Random(11)
        for _ in range(300):
            onto = bruteforce.random_ontology(rng, n_assertions=rng.randint(0, 30))
            axioms = list(onto.axioms)
            individuals, props = sorted(onto.individuals), sorted(onto.data_properties)
            for _ in range(rng.randint(0, 6)):
                subject, prop = rng.choice(individuals), rng.choice(props)
                value = Literal(ValueType.STRING, rng.choice(odd))
                axioms.append(DataAssertion(subject, prop, value))
                if rng.random() < 0.5:
                    axioms += [
                        DataAssertion(subject, prop, Literal(ValueType.NUMBER, lexical))
                        for lexical in rng.sample(["1", "1.0", "1e0"], 2)
                    ]
            if rng.random() < 0.3:
                axioms += [ClassDecl(THING), SubClassOf(rng.choice(sorted(onto.classes)), THING)]
            _assert_canonical_as_the_oracle(rng, axioms)
        for _ in range(300):
            _assert_canonical_as_the_oracle(rng, _prefix_named_axioms(rng, odd))

    def test_random_ontologies_sorted_and_stable(self):
        rng = random.Random(7)
        for _ in range(10):
            onto = bruteforce.random_ontology(rng)
            canon = canonical_axioms(onto)
            rebuilt = build_ok(canon, name=onto.name)
            assert [bruteforce.identity(a) for a in canonical_axioms(rebuilt)] == [
                bruteforce.identity(a) for a in canon
            ]


def test_readme_tables_every_diagnostic_code():
    """The README's table of diagnostic codes has a row for each `E_*` code
    that `model` defines, and no other."""
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("### Diagnostic codes\n", 1)[1].split("\n#", 1)[0]
    rows = set(re.findall(r"^\| `(E_[A-Z_]+)` \|", table, re.MULTILINE))
    codes = {v for k, v in vars(ontokit.model).items() if k.startswith("E_") and k == v}
    assert rows == codes
