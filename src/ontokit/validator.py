"""Facet and domain/range validation over the assertional part of an ontology.

Checks every data assertion against its property's facet (value type,
allowed values, cardinality) and every object assertion against the
property's domain and range. A property's contract is read from its name's
first declaration in `Ontology.declarations`, the one a build keeps any
re-declaration from changing. Each property's distinct values, and its
subjects or objects as one set, are tested once; its assertions are walked
only to place findings. Validation never throws; all findings land in the
report, sorted by file, line, and code.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import chain
from operator import attrgetter
from typing import Iterator

from .model import (
    Cardinality,
    DataAssertion,
    Diagnostic,
    E_ALLOWED_VALUE,
    E_CARD_MULTIPLE,
    E_CARD_SINGLE,
    E_DOMAIN,
    E_RANGE,
    E_TYPE_MISMATCH,
    FacetSpec,
    Kind,
    Ontology,
    Severity,
    conforms,
    sort_diagnostics,
    warning,
)
from .reasoner import Realization


@dataclass(frozen=True)
class ValidationReport:
    diagnostics: tuple[Diagnostic, ...]
    checked_assertions: int

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)


_SUBJECT, _OBJECT, _VALUE_KEY = map(attrgetter, ("subject", "object", "value._key"))


def _value_faults(prop: str, facet: FacetSpec, group: list[DataAssertion]) -> Iterator[Diagnostic]:
    """The facet findings of one data property's assertions, in axiom order."""
    # One literal per distinct value: literals equal by key meet a facet alike.
    faults = {}
    for key, value in dict(zip(map(_VALUE_KEY, group), map(attrgetter("value"), group))).items():
        if not conforms(value, facet.value_type):
            faults[key] = (E_TYPE_MISMATCH, f"is not a {facet.value_type.value}")
        elif not facet.permits(value):
            faults[key] = (E_ALLOWED_VALUE, "is outside the allowed set")
    if faults:
        for ax in group:
            fault = faults.get(ax.value._key)
            if fault is not None:
                yield ax.error(fault[0], f"value {ax.value.lexical!r} of {prop} {fault[1]}")
    yield from _card_faults(prop, facet, group)


def _card_faults(prop: str, facet: FacetSpec, group: list[DataAssertion]) -> Iterator[Diagnostic]:
    """Single cardinality's findings, in `group` order: each subject's values after its first."""
    if facet.cardinality is Cardinality.SINGLE and len(set(map(_SUBJECT, group))) < len(group):
        seen: set[str] = set()
        for ax in group:
            if ax.subject in seen:
                message = f"{ax.subject} has more than one value for single-cardinality {prop}"
                yield ax.error(E_CARD_SINGLE, message)
            seen.add(ax.subject)


def validate(o: Ontology, realization: Realization) -> ValidationReport:
    """Validate all assertions; returns the same report for the same input."""
    diags: list[Diagnostic] = []
    members = realization.members_of
    # Each property's assertions, in axiom order; no name is two kinds of property.
    groups: defaultdict[str, list] = defaultdict(list)
    for ax in chain(o.data_assertions, o.obj_assertions):
        groups[ax.prop].append(ax)

    for prop, group in groups.items():
        decl = o.declarations[prop]
        data = decl.declares is Kind.DATA_PROPERTY
        if data:
            diags += _value_faults(prop, decl.facet, group)
        for code, what, cls, name in (
            (E_DOMAIN, "domain", decl.domain, _SUBJECT),
            (E_RANGE, "range", None if data else decl.range, _OBJECT),
        ):
            # One test of the group's names; a walk only to find the outsiders.
            if cls is not None and not (inside := members[cls]).issuperset(map(name, group)):
                for ax in group:
                    if name(ax) not in inside:
                        message = f"{name(ax)} is outside the {what} {cls} of {prop}"
                        diags.append(ax.error(code, message))

    # Multiple cardinality reads as "at least one value"; absence is only a
    # warning so half-authored individuals do not hard-fail.
    for prop in o.data_properties:
        decl = o.declarations[prop]
        if decl.facet.cardinality is not Cardinality.MULTIPLE or decl.domain is None:
            continue
        for ind in members[decl.domain].difference(map(_SUBJECT, groups.get(prop, ()))):
            message = f"{ind} has no value for multiple-cardinality {prop}"
            site = o.declarations[ind]
            diags.append(warning(E_CARD_MULTIPLE, message, site.file, site.line))

    checked = len(o.data_assertions) + len(o.obj_assertions)
    return ValidationReport(tuple(sort_diagnostics(diags)), checked)
