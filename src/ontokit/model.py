"""Core ontology data model.

Literals, facets, axioms, diagnostics, and the immutable ontology container
produced by :func:`build_ontology`. An ontology is a validated bag of axioms
plus a symbol table mapping every declared name to its kind; everything else
(closures, realizations, reports) is derived by the other modules.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from operator import methodcaller
from typing import Iterable, Optional, Sequence

#: Identifier, boolean and number syntax, shared by the validators below
#: and the token patterns of the OFT and query scanners. The boolean words
#: are literals, so no name may be one.
IDENT = r"[A-Za-z_][A-Za-z0-9_]*"
BOOLEANS = "true|false"
NUMBER = r"[+-]?[0-9]+(?:\.[0-9]+)?(?:[eE][+-]?[0-9]+)?"
IDENT_RE = re.compile(rf"(?!(?:{BOOLEANS})\Z){IDENT}\Z")
NUMBER_RE = re.compile(NUMBER + r"\Z")
_DATETIME_SHAPE_RE = re.compile(r"[0-9]{4}-[0-9]{2}-[0-9]{2}(T[0-9:.+\-]+Z?)?\Z")

#: Implicit root class present in every ontology; never written to files.
THING = "Thing"

# Diagnostic codes.
E_SYNTAX = "E_SYNTAX"
E_UNKNOWN_REF = "E_UNKNOWN_REF"
E_KIND_CLASH = "E_KIND_CLASH"
E_SELF_SUB = "E_SELF_SUB"
E_CYCLE = "E_CYCLE"
E_TYPE_MISMATCH = "E_TYPE_MISMATCH"
E_ALLOWED_VALUE = "E_ALLOWED_VALUE"
E_CARD_SINGLE = "E_CARD_SINGLE"
E_CARD_MULTIPLE = "E_CARD_MULTIPLE"
E_DOMAIN = "E_DOMAIN"
E_RANGE = "E_RANGE"
E_CSV_HEADER = "E_CSV_HEADER"
E_DUP_INDIVIDUAL = "E_DUP_INDIVIDUAL"
E_FACET_CLASH = "E_FACET_CLASH"
E_PROP_CLASH = "E_PROP_CLASH"
E_UNSUPPORTED_MODE = "E_UNSUPPORTED_MODE"


class Kind(Enum):
    """What a declared name denotes."""

    CLASS = "class"
    OBJECT_PROPERTY = "object property"
    DATA_PROPERTY = "data property"
    INDIVIDUAL = "individual"


class ValueType(Enum):
    """Data-property value types; values are the file-format keywords."""

    STRING = "string"
    NUMBER = "number"
    BOOLEAN = "boolean"
    DATETIME = "datetime"
    ANY = "literal"
    ENUM = "enum"


class Cardinality(Enum):
    SINGLE = "single"
    MULTIPLE = "multiple"


class Severity(Enum):
    ERROR = "error"
    WARNING = "warning"


@dataclass(frozen=True)
class Diagnostic:
    """A machine-readable finding with a source location."""

    severity: Severity
    code: str
    message: str
    file: str = ""
    line: int = 0

    def render(self) -> str:
        return f"{self.file}:{self.line}: {self.severity.value} {self.code} {self.message}"


def error(code: str, message: str, file: str = "", line: int = 0) -> Diagnostic:
    return Diagnostic(Severity.ERROR, code, message, file, line)


def warning(code: str, message: str, file: str = "", line: int = 0) -> Diagnostic:
    return Diagnostic(Severity.WARNING, code, message, file, line)


class Fault(ValueError):
    """A finding not yet placed in a file: a diagnostic `code` and a
    `message`; its text is the message."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code
        self.message = message

    def diagnostic(self, file: str = "", line: int = 0) -> Diagnostic:
        """The finding as an error at `file:line`."""
        return error(self.code, str(self), file, line)


def sort_diagnostics(diags: Iterable[Diagnostic]) -> list[Diagnostic]:
    return sorted(diags, key=lambda d: (d.file, d.line, d.code, d.message))


def is_ident(name: str) -> bool:
    return bool(IDENT_RE.match(name))


def parse_number(lexical: str) -> Optional[Decimal]:
    """Decimal value of a number token, or None if it is not one."""
    if not NUMBER_RE.match(lexical):
        return None
    try:
        value = Decimal(lexical)
    except InvalidOperation:
        return None
    return value if value.is_finite() else None


def is_datetime(lexical: str) -> bool:
    """True for an ISO-8601 date or date-time."""
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


@dataclass(frozen=True, eq=False, slots=True)
class Literal:
    """A typed literal value.

    Numbers carry their exact decimal lexical form and compare numerically
    ("1.0" equals "1"); every other type compares by exact lexical match.
    The comparison key is computed once, at construction.
    """

    value_type: ValueType
    lexical: str
    _key: tuple = field(init=False, repr=False)

    def __post_init__(self) -> None:
        vt, lex = self.value_type, self.lexical
        if vt is ValueType.NUMBER:
            number = parse_number(lex)
            if number is None:
                raise ValueError(f"not a finite decimal: {lex!r}")
            key = (vt.value, number)
        else:
            if vt is ValueType.BOOLEAN and lex not in ("true", "false"):
                raise ValueError(f"boolean must be 'true' or 'false': {lex!r}")
            if vt is ValueType.DATETIME and not is_datetime(lex):
                raise ValueError(f"not an ISO-8601 date or date-time: {lex!r}")
            key = (vt.value, lex)
        if "\n" in lex or "\r" in lex:
            raise ValueError("literal may not contain line breaks")
        object.__setattr__(self, "_key", key)

    def key(self) -> tuple:
        """Equality/hash key: numeric for numbers, lexical otherwise."""
        return self._key

    def to_oft(self) -> str:
        """The literal as written in OFT and query text."""
        if self.value_type is ValueType.STRING:
            escaped = self.lexical.replace("\\", "\\\\").replace('"', '\\"')
            return f'"{escaped}"'
        if self.value_type in (ValueType.ANY, ValueType.ENUM):
            raise ValueError(f"{self.value_type.value} literals have no written form")
        return self.lexical

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Literal):
            return NotImplemented
        return self._key == other._key

    def __hash__(self) -> int:
        return hash(self._key)


def conforms(value: Literal, value_type: ValueType) -> bool:
    """Whether a literal conforms to a facet value type.

    ANY accepts every literal; ENUM defers entirely to the allowed-values
    membership check.
    """
    if value_type in (ValueType.ANY, ValueType.ENUM):
        return True
    return value.value_type is value_type


class FacetError(Fault):
    """An inconsistent facet."""


@dataclass(frozen=True)
class FacetSpec:
    """Value constraints attached to a data property."""

    value_type: ValueType
    allowed: Optional[tuple[Literal, ...]] = None
    cardinality: Cardinality = Cardinality.SINGLE

    def __post_init__(self) -> None:
        """Raise `FacetError` at the first allowed value that repeats an
        earlier one or does not conform to the value type."""
        if self.allowed is not None:
            if not self.allowed:
                raise FacetError(E_SYNTAX, "allowed values must be non-empty when present")
            seen = set()
            for v in self.allowed:
                if v.key() in seen:
                    raise FacetError(E_SYNTAX, f"duplicate allowed value {v.lexical!r}")
                seen.add(v.key())
                if not conforms(v, self.value_type):
                    raise FacetError(
                        E_TYPE_MISMATCH,
                        f"allowed value {v.lexical!r} does not conform to {self.value_type.value}",
                    )
        elif self.value_type is ValueType.ENUM:
            raise FacetError(E_SYNTAX, "enum type requires an allowed-values list")

    def permits(self, value: Literal) -> bool:
        return self.allowed is None or value in self.allowed

    def key(self) -> tuple:
        allowed = None if self.allowed is None else frozenset(v.key() for v in self.allowed)
        return (self.value_type.value, allowed, self.cardinality.value)


@dataclass(frozen=True, slots=True)
class Axiom:
    """Base for all axiom variants; carries the source location.

    Each variant defines everything the rest of the program asks of an
    axiom. The leading integer of its identity and sort key is the
    variant's place in the canonical order.
    """

    file: str = field(default="", kw_only=True)
    line: int = field(default=0, kw_only=True)

    def identity(self) -> tuple:
        """Location-free identity used for duplicate removal and merging."""
        raise NotImplementedError

    def sort_key(self) -> tuple:
        """Canonical order: variant tag, then byte order of names and lexicals."""
        return self.identity()

    def implicit(self) -> bool:
        """Whether the axiom only restates the implicit root, which files
        never need to write."""
        return False

    def declaration(self) -> Optional[tuple[str, Kind]]:
        """(name, kind) introduced by a declaration axiom, else None."""
        return None

    def references(self) -> tuple[tuple[str, Kind], ...]:
        """Names the axiom refers to, paired with the kind each use demands."""
        return ()

    def fault(self) -> Optional[Fault]:
        """The finding when the axiom is malformed on its own."""
        return None

    def contract_clash(self, first: Axiom) -> Optional[Fault]:
        """The finding when this re-declaration changes the contract of
        `first`, the earlier declaration of the same name and kind."""
        return None

    def to_oft(self) -> str:
        """The axiom as one OFT line, without the line break."""
        raise NotImplementedError


@dataclass(frozen=True, slots=True)
class ClassDecl(Axiom):
    name: str

    def identity(self) -> tuple:
        return (0, self.name)

    def implicit(self) -> bool:
        return self.name == THING

    def declaration(self) -> tuple[str, Kind]:
        return (self.name, Kind.CLASS)

    def to_oft(self) -> str:
        return f"class {self.name}"


@dataclass(frozen=True, slots=True)
class SubClassOf(Axiom):
    child: str
    parent: str

    def identity(self) -> tuple:
        return (1, self.child, self.parent)

    def implicit(self) -> bool:
        return self.parent == THING

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return ((self.child, Kind.CLASS), (self.parent, Kind.CLASS))

    def fault(self) -> Optional[Fault]:
        if self.child == self.parent:
            return Fault(E_SELF_SUB, f"class {self.child} cannot be its own subclass")
        if self.child == THING:
            # Every class is below Thing, so an edge out of it closes a cycle.
            return Fault(E_CYCLE, f"class {THING} cannot be a subclass of {self.parent}")
        return None

    def to_oft(self) -> str:
        return f"class {self.child} sub {self.parent}"


@dataclass(frozen=True, slots=True)
class ObjPropDecl(Axiom):
    name: str
    domain: Optional[str] = None
    range: Optional[str] = None

    def identity(self) -> tuple:
        return (2, self.name, self.domain or "", self.range or "")

    def declaration(self) -> tuple[str, Kind]:
        return (self.name, Kind.OBJECT_PROPERTY)

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return tuple((n, Kind.CLASS) for n in (self.domain, self.range) if n is not None)

    def contract_clash(self, first: ObjPropDecl) -> Optional[Fault]:
        if (first.domain, first.range) != (self.domain, self.range):
            return Fault(E_PROP_CLASH, f"{self.name} re-declared with a different domain/range")
        return None

    def to_oft(self) -> str:
        parts = [f"objprop {self.name}"]
        if self.domain is not None:
            parts.append(f"domain {self.domain}")
        if self.range is not None:
            parts.append(f"range {self.range}")
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class DataPropDecl(Axiom):
    name: str
    facet: FacetSpec
    domain: Optional[str] = None

    def identity(self) -> tuple:
        return (3, self.name, self.domain or "", self.facet.key())

    def sort_key(self) -> tuple:
        facet = self.facet
        allowed = tuple((v.value_type.value, v.lexical) for v in facet.allowed or ())
        facet_key = (facet.value_type.value, allowed, facet.cardinality.value)
        return (3, self.name, self.domain or "", facet_key)

    def declaration(self) -> tuple[str, Kind]:
        return (self.name, Kind.DATA_PROPERTY)

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return ((self.domain, Kind.CLASS),) if self.domain is not None else ()

    def contract_clash(self, first: DataPropDecl) -> Optional[Fault]:
        if first.facet.key() != self.facet.key():
            return Fault(E_FACET_CLASH, f"{self.name} re-declared with a different facet")
        if first.domain != self.domain:
            return Fault(E_PROP_CLASH, f"{self.name} re-declared with a different domain")
        return None

    def to_oft(self) -> str:
        parts = [f"dataprop {self.name}"]
        if self.domain is not None:
            parts.append(f"domain {self.domain}")
        parts.append(f"type {self.facet.value_type.value}")
        if self.facet.allowed is not None:
            values = ", ".join(v.to_oft() for v in self.facet.allowed)
            parts.append(f"allowed {values}")
        parts.append(f"card {self.facet.cardinality.value}")
        return " ".join(parts)


@dataclass(frozen=True, slots=True)
class IndividualDecl(Axiom):
    name: str
    types: tuple[str, ...]

    def identity(self) -> tuple:
        return (4, self.name, self.types)

    def declaration(self) -> tuple[str, Kind]:
        return (self.name, Kind.INDIVIDUAL)

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return tuple((t, Kind.CLASS) for t in self.types)

    def fault(self) -> Optional[Fault]:
        if not self.types:
            return Fault(E_SYNTAX, f"individual {self.name} needs at least one type")
        return None

    def to_oft(self) -> str:
        return f"individual {self.name} type " + ", ".join(self.types)


@dataclass(frozen=True, slots=True)
class ObjAssertion(Axiom):
    subject: str
    prop: str
    object: str

    def identity(self) -> tuple:
        return (5, self.subject, self.prop, self.object)

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return (
            (self.subject, Kind.INDIVIDUAL),
            (self.prop, Kind.OBJECT_PROPERTY),
            (self.object, Kind.INDIVIDUAL),
        )

    def to_oft(self) -> str:
        return f"rel {self.subject} {self.prop} {self.object}"


@dataclass(frozen=True, slots=True)
class DataAssertion(Axiom):
    subject: str
    prop: str
    value: Literal

    def identity(self) -> tuple:
        return (6, self.subject, self.prop, self.value.key())

    def sort_key(self) -> tuple:
        value = self.value
        return (6, self.subject, self.prop, value.value_type.value, value.lexical)

    def references(self) -> tuple[tuple[str, Kind], ...]:
        return ((self.subject, Kind.INDIVIDUAL), (self.prop, Kind.DATA_PROPERTY))

    def to_oft(self) -> str:
        return f"attr {self.subject} {self.prop} {self.value.to_oft()}"


@dataclass(frozen=True, eq=False)
class Ontology:
    """Immutable, referentially closed axiom set.

    Construct only through :func:`build_ontology`; all derived views below
    are cached and treat the instance as read-only. Equality and hashing
    are by identity, so an ontology can key a dict or a cache.
    """

    name: str
    axioms: tuple[Axiom, ...]
    symbols: dict[str, Kind]
    #: First declaration axiom of each (name, kind), in axiom order; the
    #: contract views below read it. Only a property's declaration carries
    #: a contract.
    declarations: dict[tuple[str, Kind], Axiom]
    provenance: tuple[str, ...] = ()

    def _names_of(self, kind: Kind) -> frozenset[str]:
        return frozenset(n for n, k in self.symbols.items() if k is kind)

    @cached_property
    def _by_variant(self) -> dict[type, tuple[Axiom, ...]]:
        """The axioms grouped by variant, each group in source order; one
        pass over the axioms serves every view below."""
        groups: dict[type, list[Axiom]] = {}
        for ax in self.axioms:
            groups.setdefault(type(ax), []).append(ax)
        return {variant: tuple(group) for variant, group in groups.items()}

    def _all(self, variant: type) -> tuple:
        return self._by_variant.get(variant, ())

    @cached_property
    def individual_order(self) -> tuple[str, ...]:
        """The individuals sorted by name: bit i of every mask over
        individuals (`realize`'s `members_of`, `assertion_index`) stands for
        the i-th."""
        return tuple(sorted(self.individuals))

    @cached_property
    def assertion_index(self) -> dict[str, dict]:
        """For each declared property, each asserted object (an individual,
        or a literal) to the mask of its subjects over `individual_order`.
        Literals equal by `key()` share one entry. Only instance queries
        read it, so it is built on their first read."""
        bit = {name: 1 << i for i, name in enumerate(self.individual_order)}
        index: dict[str, dict] = {
            p: {} for p in self.object_properties | self.data_properties
        }
        for ax in self._all(ObjAssertion):
            targets = index[ax.prop]
            targets[ax.object] = targets.get(ax.object, 0) | bit[ax.subject]
        for ax in self._all(DataAssertion):
            targets = index[ax.prop]
            targets[ax.value] = targets.get(ax.value, 0) | bit[ax.subject]
        return index

    @cached_property
    def classes(self) -> frozenset[str]:
        """Declared classes, excluding the implicit root."""
        return self._names_of(Kind.CLASS) - {THING}

    @cached_property
    def object_properties(self) -> frozenset[str]:
        return self._names_of(Kind.OBJECT_PROPERTY)

    @cached_property
    def data_properties(self) -> frozenset[str]:
        return self._names_of(Kind.DATA_PROPERTY)

    @cached_property
    def individuals(self) -> frozenset[str]:
        return self._names_of(Kind.INDIVIDUAL)

    @cached_property
    def direct_parents(self) -> dict[str, frozenset[str]]:
        """Direct superclass edges; parentless classes fall back to Thing."""
        asserted: dict[str, set[str]] = {c: set() for c in self.classes}
        for ax in self._all(SubClassOf):
            asserted[ax.child].add(ax.parent)
        return {
            c: frozenset(ps) if ps else frozenset({THING}) for c, ps in asserted.items()
        }

    @cached_property
    def asserted_types(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {}
        for ax in self._all(IndividualDecl):
            acc.setdefault(ax.name, set()).update(ax.types)
        return {name: frozenset(types) for name, types in acc.items()}

    def _first(self, *variants: type) -> list:
        """Each name's first declaration, where it is one of `variants`."""
        return [ax for ax in self.declarations.values() if isinstance(ax, variants)]

    @cached_property
    def facets(self) -> dict[str, FacetSpec]:
        return {ax.name: ax.facet for ax in self._first(DataPropDecl)}

    @cached_property
    def domains(self) -> dict[str, Optional[str]]:
        """Declared domain per property (object and data alike)."""
        return {ax.name: ax.domain for ax in self._first(ObjPropDecl, DataPropDecl)}

    @cached_property
    def ranges(self) -> dict[str, Optional[str]]:
        return {ax.name: ax.range for ax in self._first(ObjPropDecl)}

    @cached_property
    def obj_assertions(self) -> tuple[ObjAssertion, ...]:
        return self._all(ObjAssertion)

    @cached_property
    def data_assertions(self) -> tuple[DataAssertion, ...]:
        return self._all(DataAssertion)

    @cached_property
    def individual_locations(self) -> dict[str, tuple[str, int]]:
        """First declaration site of each individual (diagnostic anchor)."""
        return {ax.name: (ax.file, ax.line) for ax in self._first(IndividualDecl)}


def build_ontology(
    name: str,
    axioms: Sequence[Axiom],
    provenance: Sequence[str] = (),
    base: Optional[Ontology] = None,
) -> tuple[Optional[Ontology], list[Diagnostic]]:
    """Check an axiom list and wrap it into an Ontology.

    Performs every referential and kind check in one pass and reports all
    findings rather than stopping at the first. Returns (ontology, []) on
    success and (None, diagnostics) otherwise.

    With `base`, an ontology already built, the build extends it: it starts
    from the base's symbols and first declarations and checks only `axioms`,
    since symbols only grow and the base's axioms already passed every
    check. The result holds `base.axioms` followed by `axioms`, so
    `declarations` always holds each name's first declaration in axiom order.
    """
    diags: list[Diagnostic] = []
    if not is_ident(name):
        diags.append(error(E_SYNTAX, f"invalid ontology name {name!r}"))

    symbols: dict[str, Kind] = {THING: Kind.CLASS}
    first_decls: dict[tuple[str, Kind], Axiom] = {}
    kept: tuple[Axiom, ...] = ()
    if base is not None:
        symbols = dict(base.symbols)
        first_decls = dict(base.declarations)
        kept = base.axioms
    for ax in axioms:
        decl = ax.declaration()
        if decl is None:
            continue
        # Re-declaring a property must not change its contract.
        first = first_decls.setdefault(decl, ax)
        if first is not ax:
            clash = ax.contract_clash(first)
            if clash is not None:
                diags.append(clash.diagnostic(ax.file, ax.line))
        decl_name, kind = decl
        if not is_ident(decl_name):
            diags.append(
                error(E_SYNTAX, f"invalid identifier {decl_name!r}", ax.file, ax.line)
            )
            continue
        prior = symbols.get(decl_name)
        if prior is None:
            symbols[decl_name] = kind
        elif prior is not kind:
            diags.append(
                error(
                    E_KIND_CLASH,
                    f"{decl_name} already declared as {prior.value}",
                    ax.file,
                    ax.line,
                )
            )

    for ax in axioms:
        fault = ax.fault()
        if fault is not None:
            diags.append(fault.diagnostic(ax.file, ax.line))
        for ref_name, wanted in ax.references():
            found = symbols.get(ref_name)
            if found is None:
                diags.append(
                    error(E_UNKNOWN_REF, f"{ref_name} is not declared", ax.file, ax.line)
                )
            elif found is not wanted:
                diags.append(
                    error(
                        E_KIND_CLASH,
                        f"{ref_name} used as {wanted.value} but declared as {found.value}",
                        ax.file,
                        ax.line,
                    )
                )

    if diags:
        return None, sort_diagnostics(diags)
    onto = Ontology(
        name=name,
        axioms=kept + tuple(axioms),
        symbols=symbols,
        declarations=first_decls,
        provenance=tuple(provenance),
    )
    return onto, []


def canonical_axioms(o: Ontology) -> list[Axiom]:
    """Deduplicated, deterministically ordered axiom list.

    Implicit-root bookkeeping (Thing declarations and edges into Thing) is
    excluded; duplicates keep their first occurrence. The result is stable
    across calls and process runs.
    """
    # Read backwards, so each identity keeps its first occurrence. Distinct
    # identities have distinct sort keys, so the order is total.
    unique = {ax.identity(): ax for ax in reversed(o.axioms) if not ax.implicit()}
    return sorted(unique.values(), key=methodcaller("sort_key"))
