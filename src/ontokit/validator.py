"""Facet and domain/range validation over the assertional part of an ontology.

Checks every data assertion against its property's facet (value type,
allowed values, cardinality) and every object assertion against the
property's domain and range. Validation never throws; all findings land in
the report, sorted by file, line, and code.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import (
    Cardinality,
    Diagnostic,
    E_ALLOWED_VALUE,
    E_CARD_MULTIPLE,
    E_CARD_SINGLE,
    E_DOMAIN,
    E_RANGE,
    E_TYPE_MISMATCH,
    Ontology,
    Severity,
    conforms,
    sort_diagnostics,
    warning,
)
from .reasoner import Realization, TaxonomyClosure


@dataclass(frozen=True)
class ValidationReport:
    diagnostics: tuple[Diagnostic, ...]
    checked_assertions: int

    @property
    def ok(self) -> bool:
        return not any(d.severity is Severity.ERROR for d in self.diagnostics)


def validate(
    o: Ontology, closure: TaxonomyClosure, realization: Realization
) -> ValidationReport:
    """Validate all assertions; returns the same report for the same input."""
    diags: list[Diagnostic] = []
    members = realization.members_of

    # Values per (property, subject), counted as the assertions go by: a
    # value whose count passes 1 breaks single cardinality.
    counts: dict[tuple[str, str], int] = {}
    for ax in o.data_assertions:
        facet = o.facets[ax.prop]
        if not conforms(ax.value, facet.value_type):
            message = f"value {ax.value.lexical!r} of {ax.prop} is not a {facet.value_type.value}"
            diags.append(ax.error(E_TYPE_MISMATCH, message))
        elif not facet.permits(ax.value):
            message = f"value {ax.value.lexical!r} of {ax.prop} is outside the allowed set"
            diags.append(ax.error(E_ALLOWED_VALUE, message))
        key = (ax.prop, ax.subject)
        count = counts[key] = counts.get(key, 0) + 1
        if count > 1 and facet.cardinality is Cardinality.SINGLE:
            message = f"{ax.subject} has more than one value for single-cardinality {ax.prop}"
            diags.append(ax.error(E_CARD_SINGLE, message))

    # Multiple cardinality reads as "at least one value"; absence is only a
    # warning so half-authored individuals do not hard-fail.
    for prop in o.data_properties:
        domain = o.domains.get(prop)
        if o.facets[prop].cardinality is not Cardinality.MULTIPLE or domain is None:
            continue
        for ind in members[domain]:
            if (prop, ind) not in counts:
                message = f"{ind} has no value for multiple-cardinality {prop}"
                loc = o.individual_locations.get(ind, ("", 0))
                diags.append(warning(E_CARD_MULTIPLE, message, *loc))

    for ax in o.data_assertions + o.obj_assertions:
        domain = o.domains.get(ax.prop)
        if domain is not None and ax.subject not in members[domain]:
            message = f"{ax.subject} is outside the domain {domain} of {ax.prop}"
            diags.append(ax.error(E_DOMAIN, message))
    for ax in o.obj_assertions:
        rng = o.ranges.get(ax.prop)
        if rng is not None and ax.object not in members[rng]:
            diags.append(ax.error(E_RANGE, f"{ax.object} is outside the range {rng} of {ax.prop}"))

    checked = len(o.data_assertions) + len(o.obj_assertions)
    return ValidationReport(tuple(sort_diagnostics(diags)), checked)
