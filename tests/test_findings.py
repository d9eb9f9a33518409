"""Every finding that has a line names the axiom it judges, at that line.

The findings are those of failing builds, `validate`, `merge` (its conflicts
and the union's cycles) and `ingest_csv`'s single-cardinality rule. The
inputs are ontologies drawn by `tests/bruteforce.py` with an axiom of each
fault the build reports added, the merge pairs and CSV files that
`tests/test_group_checks.py` draws, and the bad inputs the CI spells out.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import Iterator, Sequence

import bruteforce
from ontokit.exchange import ingest_csv, merge
from ontokit.model import (
    Axiom,
    ClassDecl,
    DataAssertion,
    Diagnostic,
    E_ALLOWED_VALUE,
    E_CARD_MULTIPLE,
    E_CARD_SINGLE,
    E_CYCLE,
    E_DOMAIN,
    E_FACET_CLASH,
    E_KIND_CLASH,
    E_PROP_CLASH,
    E_RANGE,
    E_SELF_SUB,
    E_SYNTAX,
    E_TYPE_MISMATCH,
    E_UNKNOWN_REF,
    FacetSpec,
    IndividualDecl,
    ObjAssertion,
    Ontology,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
)
from ontokit.oft import parse_oft
from ontokit.reasoner import compute_closure, realize
from ontokit.validator import validate
from test_group_checks import draw_csv, draw_pair

# Every code that a build, `validate`, `merge` or `ingest_csv`'s
# single-cardinality rule places on an axiom.
PLACED_CODES = {
    E_SYNTAX, E_UNKNOWN_REF, E_KIND_CLASH, E_SELF_SUB, E_CYCLE, E_FACET_CLASH, E_PROP_CLASH,
    E_TYPE_MISMATCH, E_ALLOWED_VALUE, E_CARD_SINGLE, E_CARD_MULTIPLE, E_DOMAIN, E_RANGE,
}

# The CI's merge of two files whose every group clashes, and its ingest of
# a CSV whose row gives a single-cardinality property two values.
FA = (
    "ontology a\nclass Fruit\nclass Sweet sub Fruit\nindividual K type Fruit\n"
    "objprop r domain Fruit\ndataprop d type number\nindividual j type Fruit\n"
)
FB = (
    "ontology b\nclass Fruit\nclass K sub Fruit\nclass Extra sub K\nobjprop r domain Extra\n"
    "objprop s\ndataprop d type string\ndataprop e type boolean\nindividual Sweet type Fruit\n"
    "individual m type Extra\nindividual n type K\nrel m s Sweet\nrel n s m\nrel m s m\n"
    "attr Sweet e true\nattr n e false\nattr m e true\n"
)
S_OFT = "class S\ndataprop n type number card single\ndataprop t type string card multiple\n"
F_CSV = "id,x,y,z\nok1,1,,a\nc2,1,2,a\nc3,,3,a\n"


def parsed(text: str, name: str) -> Ontology:
    onto, diags = build_ontology(name, parse_oft(text, f"{name}.oft").axioms)
    assert onto is not None, diags
    return onto


def numbered(axioms: Sequence[Axiom], file: str) -> list[Axiom]:
    return [replace(ax, file=file, line=n) for n, ax in enumerate(axioms, 1)]


def faults(rng: random.Random, onto: Ontology) -> list[Axiom]:
    """A seeded choice of axioms that `onto` rejects, one of each fault the
    build reports: an invalid name, an individual with no type, a
    self-subclass, an edge out of Thing, a name declared as another kind or
    used as one, a dangling reference, and a property re-declared with
    another facet or domain."""
    classes, individuals = sorted(onto.classes), sorted(onto.individuals)
    c, i = rng.choice(classes), rng.choice(individuals)
    dp = onto.declarations[rng.choice(sorted(onto.data_properties))]
    op = onto.declarations[rng.choice(sorted(onto.object_properties))]
    other = ValueType.STRING if dp.facet.value_type is ValueType.BOOLEAN else ValueType.BOOLEAN
    drawn = [
        ClassDecl("1bad"),
        IndividualDecl("untyped", ()),
        SubClassOf(c, c),
        SubClassOf(THING, c),
        ClassDecl(i),
        IndividualDecl("typed_by_individual", (i,)),
        ObjAssertion(i, "nowhere", i),
        replace(dp, facet=FacetSpec(other)),
        replace(dp, domain=next(k for k in classes + [None] if k != dp.domain)),
        replace(op, range=next(k for k in classes + [None] if k != op.range)),
    ]
    return rng.sample(drawn, rng.randint(1, len(drawn)))


def failed_builds(rng: random.Random) -> Iterator[tuple[Diagnostic, Sequence[Axiom]]]:
    """Each finding of drawn builds that fail, from scratch or on a base,
    with the axioms the build judged."""
    for n in range(60):
        onto = bruteforce.random_ontology(rng)
        bad = faults(rng, onto)
        if n % 2:
            axioms = numbered(bad, "new.oft")
            _, diags = build_ontology("t", axioms, base=onto)
        else:
            axioms = list(onto.axioms)
            for ax in bad:
                axioms.insert(rng.randint(0, len(axioms)), ax)
            axioms = numbered(axioms, "t.oft")
            _, diags = build_ontology("t", axioms)
        yield from ((d, axioms) for d in diags)


def validations(rng: random.Random) -> Iterator[tuple[Diagnostic, Sequence[Axiom]]]:
    """Each finding of `validate` on drawn ontologies with values drawn for
    other facets, with the ontology's axioms."""
    for _ in range(60):
        onto = bruteforce.random_ontology(rng)
        axioms = list(onto.axioms)
        props, individuals = sorted(onto.data_properties), sorted(onto.individuals)
        for _ in range(3):
            value = bruteforce.random_literal(rng, bruteforce.random_facet(rng))
            axioms.append(DataAssertion(rng.choice(individuals), rng.choice(props), value))
        onto, diags = build_ontology("t", numbered(axioms, "t.oft"))
        assert onto is not None, diags
        closure, _ = compute_closure(onto)
        yield from ((d, onto.axioms) for d in validate(onto, realize(onto, closure)).diagnostics)


def merges_and_ingests() -> Iterator[tuple[Diagnostic, Sequence[Axiom]]]:
    """Each conflict of drawn merges and the CI's, with the second
    ontology's axioms and the union's; each `E_CARD_SINGLE` of drawn CSV
    files and the CI's, whose axioms `ingest_csv` does not return."""
    ci_pair = (None, parsed(FA, "fa"), parsed(FB, "fb"))
    for rng, a, b in [ci_pair, *map(draw_pair, range(150))]:
        report = merge(a, b, "m")
        yield from ((d, b.axioms + report.merged.axioms) for d in report.conflicts)
        csv = (F_CSV, [("x", "n"), ("y", "n"), ("z", "t")]) if rng is None else draw_csv(rng, a)
        onto = parsed(S_OFT, "s") if rng is None else a
        target = "S" if rng is None else rng.choice(sorted(a.classes) or ["nowhere"])
        _, diags = ingest_csv(onto, csv[0], target, csv[1], "r.csv")
        yield from ((d, ()) for d in diags if d.code == E_CARD_SINGLE)


def names_its_axiom(d: Diagnostic, judged: Sequence[Axiom]) -> bool:
    """Whether `d` names an axiom at its own file and line, one of `judged`
    when any are given, and for `E_CARD_MULTIPLE` the individual's first
    declaration."""
    if d.code == E_CARD_MULTIPLE:
        name = d.message.split()[0]
        first = next(a for a in judged if isinstance(a, IndividualDecl) and a.name == name)
        return d.axiom is first
    ax = d.axiom
    return ax is not None and (ax.file, ax.line) == (d.file, d.line) and (
        not judged or any(a is ax for a in judged)
    )


def test_every_finding_with_a_line_names_its_axiom():
    rng = random.Random(31)
    found = [*failed_builds(rng), *validations(rng), *merges_and_ingests()]
    stray = [d.render() for d, judged in found if d.line and not names_its_axiom(d, judged)]
    assert (stray, PLACED_CODES - {d.code for d, _ in found}) == ([], set())
