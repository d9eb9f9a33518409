"""Interop surface: DOT hierarchy export, CSV instance ingestion, and merging.

All three operations are pure; merge builds a fresh ontology, extending the
first one, and reports conflicts instead of overwriting or failing outright.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from itertools import compress, filterfalse, repeat
from operator import attrgetter, itemgetter
from typing import Optional, Sequence

from .model import (
    Axiom,
    DataAssertion,
    Diagnostic,
    E_CSV_HEADER,
    E_DUP_INDIVIDUAL,
    E_KIND_CLASH,
    E_SYNTAX,
    E_TYPE_MISMATCH,
    E_UNKNOWN_REF,
    FacetSpec,
    IDENT_RE,
    IndividualDecl,
    Kind,
    Literal,
    Ontology,
    THING,
    ValueType,
    build_ontology,
    error,
    is_ident,
    sort_diagnostics,
)
from .reasoner import TaxonomyClosure, compute_closure
from .validator import _card_faults


def _reduced_parents(closure: TaxonomyClosure) -> dict[str, frozenset[str]]:
    """Transitive reduction: the minimal edges with the closure's reachability.

    A direct parent is redundant exactly when another direct parent lies
    below it, i.e. when its bit is in the union of the parents' ancestors.
    One pass over `closure.order`, parents first, ORs each class's ancestor
    mask from its parents' and answers the class at once; a mask is dropped
    once the last child of its class has read it, so only the masks of the
    order's frontier are alive, never the whole closure (Aho, Garey and
    Ullman, SIAM J. Comput. 1(2), 1972).
    """
    direct, position = closure.direct_parents, closure.position
    unread = Counter(p for parents in direct.values() for p in parents)
    ancestors: dict[str, int] = {}
    reduced: dict[str, frozenset[str]] = {}
    for cls in closure.order:
        parents = direct[cls]
        covered = 0
        for p in parents:
            covered |= ancestors[p]
        reduced[cls] = frozenset(p for p in parents if not covered >> position[p] & 1)
        for p in parents:
            covered |= 1 << position[p]
            unread[p] -= 1
            if not unread[p]:
                del ancestors[p]
        if unread[cls]:
            ancestors[cls] = covered
    return reduced


def export_dot(o: Ontology, closure: TaxonomyClosure, inferred: bool = False) -> str:
    """Render the taxonomy as a deterministic DOT digraph, parent -> child.

    Asserted mode draws the direct edges; inferred mode draws the transitive
    reduction of the closure. Thing appears only when it has children in the
    drawn edge set.
    """
    parent_map = _reduced_parents(closure) if inferred else closure.direct_parents
    edges = sorted(
        (parent, child) for child, parents in parent_map.items() for parent in parents
    )
    nodes = sorted(o.classes | {THING} if any(p == THING for p, _ in edges) else o.classes)
    lines = ["digraph taxonomy {"]
    lines.extend(f'  "{n}";' for n in nodes)
    lines.extend(f'  "{p}" -> "{c}";' for p, c in edges)
    lines.append("}")
    return "\n".join(lines) + "\n"


# The types a cell is tried as under an open-ended facet type, in order.
_SNIFF = (ValueType.NUMBER, ValueType.BOOLEAN, ValueType.DATETIME, ValueType.STRING)


def _parse_cell(cell: str, facet: FacetSpec) -> Optional[Literal]:
    """The first allowed value that `cell` spells; else the cell read as the
    facet's value type, or as the first type of `_SNIFF` that reads it for
    an open-ended type; None when it reads as none of them."""
    for value in facet.allowed or ():
        if value.lexical == cell:
            return value
    vt = facet.value_type
    for value_type in _SNIFF if vt in (ValueType.ANY, ValueType.ENUM) else (vt,):
        try:
            return Literal(value_type, cell)
        except ValueError:
            pass
    return None


def ingest_csv(
    o: Ontology,
    csv_text: str,
    target_class: str,
    column_map: Sequence[tuple[str, str]],
    file_name: str = "<csv>",
) -> tuple[list[Axiom], list[Diagnostic]]:
    """Turn CSV rows into individuals of `target_class` with data assertions.

    The first row is the header; the `id` column names each individual. Cells
    parse according to the mapped property's facet value type. A row gives a
    single-cardinality property at most one value, by the validator's rule
    (`validator._card_faults`): each later one is an `E_CARD_SINGLE` error.
    Any diagnostic suppresses the whole result (no partial axiom lists).
    One pass keeps each row that names a new individual; then each mapped
    column parses its distinct cells once and walks them only to place one
    that does not parse.
    """
    diags: list[Diagnostic] = []
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
    try:
        rows = [(row, reader.line_num) for row in reader]  # (cells, last line of the row)
    except csv.Error as exc:
        return [], [error(E_SYNTAX, f"unreadable CSV: {exc}", file_name, reader.line_num)]
    if not rows:
        return [], []
    header_row, last = rows[0]
    columns = {h: i for i, h in enumerate(header_row)}
    if "id" not in columns:
        diags.append(error(E_CSV_HEADER, "missing required 'id' column", file_name, 1))
    for header, prop in column_map:
        if header not in columns:
            diags.append(
                error(E_CSV_HEADER, f"mapped column {header!r} not in header", file_name, 1)
            )
    # A column read by name must be the only one of that name.
    for header in dict.fromkeys(["id", *(h for h, _ in column_map)]):
        if header_row.count(header) > 1:
            diags.append(
                error(E_CSV_HEADER, f"duplicate column {header!r} in header", file_name, 1)
            )
    if diags:
        return [], sort_diagnostics(diags)

    # Each row that names a new individual, by id; any other row is
    # reported at its first failed test. A row spans more than one line
    # exactly when one of its cells holds a line break.
    id_column, width = columns["id"], len(header_row)
    kept: dict[str, list[str]] = {}
    lines: list[int] = []  # the first line of each kept row
    for row, end in rows[1:]:
        line, last = last + 1, end
        code = E_SYNTAX
        if end > line:
            message = "a cell spans more than one line"
        elif len(row) != width:
            message = f"row has {len(row)} fields, header has {width}"
        elif not IDENT_RE.match(row_id := row[id_column]):
            message = f"row id {row_id!r} is not a valid identifier"
        elif row_id in o.symbols or row_id in kept:
            code, message = E_DUP_INDIVIDUAL, f"{row_id} already exists"
        else:
            kept[row_id] = row
            lines.append(line)
            continue
        diags.append(error(code, message, file_name, line))
    ids, body = list(kept), list(kept.values())
    axioms = list(map(IndividualDecl.make, ids, repeat((target_class,)), repeat(file_name), lines))
    for header, prop in column_map:
        facet = o.declarations[prop].facet
        cells = list(map(itemgetter(columns[header]), body))
        literals = {cell: _parse_cell(cell, facet) for cell in set(cells) - {""}}
        values = list(map(literals.get, cells))
        if None in literals.values():
            for i in compress(range(len(cells)), cells):  # each non-empty cell
                if values[i] is None:
                    message = f"cell {cells[i]!r} is not a {facet.value_type.value} for {prop}"
                    diags.append(error(E_TYPE_MISMATCH, message, file_name, lines[i]))
        axioms += map(DataAssertion.make, compress(ids, values), repeat(prop),
                      filter(None, values), repeat(file_name), compress(lines, values))
    # Only a property that more than one column maps can take two values
    # from one row. Its new assertions follow the declarations, by column.
    for prop in [p for p, n in Counter(map(itemgetter(1), column_map)).items() if n > 1]:
        group = [ax for ax in axioms[len(ids):] if ax.prop == prop]
        diags += _card_faults(prop, o.declarations[prop].facet, group)
    if diags:
        return [], sort_diagnostics(diags)
    # Stable: each row's declaration, then its values in column-map order.
    axioms.sort(key=attrgetter("line"))
    return axioms, []


@dataclass(frozen=True)
class MergeReport:
    merged: Ontology
    added: int
    conflicts: tuple[Diagnostic, ...]


def _conflict(ax: Axiom, a: Ontology, symbols: dict[str, Kind]) -> Diagnostic:
    """The finding on the second ontology's `ax`, which the union's build
    rejected: it declares a name of `a` in another kind or with another
    contract, or it refers to a name that `symbols`, the union's, lacks or
    holds in another kind."""
    kind = ax.declares
    if kind is not None:
        decl_name = ax.name
        prior = a.symbols.get(decl_name)
        if prior is not None and prior is not kind:
            return ax.error(
                E_KIND_CLASH,
                f"{decl_name} is {prior.value} in the first ontology, "
                f"{kind.value} in the second; keeping the first",
            )
        first = a.declarations.get(decl_name)
        clash = ax.contract_clash(first) if first is not None else None
        if clash is not None:
            return ax.error(clash.code, f"{clash.message}; keeping the first")
    ref_name, wanted, found = next(ax.unsound_references(symbols))
    code = E_UNKNOWN_REF if found is None else E_KIND_CLASH
    why = "not declared" if found is None else f"declared as {found.value}"
    return ax.error(code, f"dropped: {ref_name} is {why}, needed as {wanted.value}")


def merge(a: Ontology, b: Ontology, name: str) -> MergeReport:
    """Union two ontologies, first one winning on disagreement.

    Identical names must agree in kind and, for properties, in their
    declared contract (facet, domain, range); the second ontology's
    conflicting axioms are dropped and reported, each key once, at its first
    axiom. The union is a's axioms followed by the second ontology's
    survivors, by variant in tag order and each variant in axiom order.
    `build_ontology` on `a` is the one admission rule: each build that fails
    drops the axioms its findings name, and the next build judges the rest.
    With a valid `name` every finding names one of the new axioms, so each
    failing build drops at least one and the rounds end. A dropped
    declaration's dependents fail the round after it; tag order bounds the
    rounds at three. A cycle introduced by the union is reported as a
    conflict on the otherwise-complete result. Raises ValueError when
    `name` is not an identifier.
    """
    if not is_ident(name):
        raise ValueError(f"invalid ontology name {name!r}")
    survivors: list[Axiom] = []
    for variant in sorted(b.by_variant, key=attrgetter("tag")):
        group = b.by_variant[variant]
        if variant.implicit is not None:
            group = list(filterfalse(variant.implicit, group))
        # Each key that a lacks, at its first axiom in b, in axiom order.
        keys = list(map(variant.key, group))
        fresh = dict(zip(keys, group))
        fresh.update(zip(reversed(keys), reversed(group)))
        for key in fresh.keys() & map(variant.key, a.by_variant.get(variant, ())):
            del fresh[key]
        survivors += fresh.values()

    dropped: dict[int, Axiom] = {}
    merged, findings = build_ontology(name, survivors, base=a)
    while merged is None:
        rejected = {id(d.axiom): d.axiom for d in findings}
        dropped.update(rejected)
        survivors = [ax for ax in survivors if id(ax) not in rejected]
        merged, findings = build_ontology(name, survivors, base=a)
    conflicts = [_conflict(ax, a, merged.symbols) for ax in dropped.values()]
    _, cycles = compute_closure(merged)
    return MergeReport(merged, len(survivors), tuple(sort_diagnostics(conflicts + cycles)))
