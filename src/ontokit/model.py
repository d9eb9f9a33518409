"""Core ontology data model.

Literals, facets, axioms, diagnostics, and the immutable ontology container
produced by :func:`build_ontology`. An ontology is a validated bag of axioms
plus a symbol table mapping every declared name to its kind; everything else
(closures, realizations, reports) is derived by the other modules.
"""

from __future__ import annotations

import re
from collections import defaultdict
from dataclasses import dataclass, field, fields
from datetime import date, datetime
from decimal import Decimal, InvalidOperation
from enum import Enum
from functools import cached_property
from itertools import chain, filterfalse
from operator import attrgetter
from typing import Any, Callable, ClassVar, Hashable, Iterable, Iterator, Optional, Sequence

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

    # Members compare by identity; so hashing them is a C call, where
    # Enum's is a Python one. A build's reference checks hash one per distinct name.
    __hash__ = object.__hash__

    CLASS = "class"
    OBJECT_PROPERTY = "object property"
    DATA_PROPERTY = "data property"
    INDIVIDUAL = "individual"


class ValueType(Enum):
    """Data-property value types; values are the file-format keywords."""

    __hash__ = object.__hash__  # as `Kind`'s

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
    """True for an ISO-8601 date or date-time. The shape's `T…` group picks
    the one parser that can accept the text."""
    shape = _DATETIME_SHAPE_RE.match(lexical)
    if shape is None:
        return False
    try:
        if shape[1] is None:
            date.fromisoformat(lexical)
        else:
            datetime.fromisoformat(lexical[:-1] + "+00:00" if lexical.endswith("Z") else lexical)
    except ValueError:
        return False
    return True


@dataclass(frozen=True, eq=False, slots=True)
class Literal:
    """A typed literal value.

    Numbers carry their exact decimal lexical form and compare numerically
    ("1.0" equals "1"); every other type compares by exact lexical match.
    A value's type is never `literal` or `enum`: those only constrain a
    facet, and a value of them would have no written form. Computed once,
    at construction: the comparison key, the canonical order
    `"<value type> <lexical>"` and the written form.
    """

    value_type: ValueType
    lexical: str
    _key: tuple = field(init=False, repr=False)
    _order: str = field(init=False, repr=False)
    _text: str = field(init=False, repr=False)

    def __post_init__(self) -> None:
        lex = self.lexical
        kind, text = self.value_type.value, lex  # a string test costs less than a member's
        if kind in ("literal", "enum"):
            raise ValueError(f"{kind} is a facet type, not a value type")
        if kind == "number":
            number = parse_number(lex)
            if number is None:
                raise ValueError(f"not a finite decimal: {lex!r}")
            key = (kind, number)
        else:
            if kind == "boolean" and lex not in ("true", "false"):
                raise ValueError(f"boolean must be 'true' or 'false': {lex!r}")
            if kind == "datetime" and not is_datetime(lex):
                raise ValueError(f"not an ISO-8601 date or date-time: {lex!r}")
            if kind == "string":
                text = '"' + lex.replace("\\", "\\\\").replace('"', '\\"') + '"'
            key = (kind, lex)
        if "\n" in lex or "\r" in lex:
            raise ValueError("literal may not contain line breaks")
        object.__setattr__(self, "_key", key)
        object.__setattr__(self, "_order", f"{kind} {lex}")
        object.__setattr__(self, "_text", text)

    def key(self) -> tuple:
        """Equality/hash key: numeric for numbers, lexical otherwise."""
        return self._key

    def to_oft(self) -> str:
        """The literal as written in OFT and query text."""
        return self._text

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


def _variant(cls: type) -> type:
    """Make an axiom variant a slotted frozen dataclass, as `Axiom` is, with
    the default `key` unless its class body sets one, and give it
    `make(*fields, file, line)`: the generated `__init__`'s parameters, all
    positional and with no default. `make` builds the axiom by
    `object.__new__` and one member-descriptor set per slot, with no
    `type.__call__`, no keyword parsing and no `object.__setattr__`, for the
    loaders that build an axiom per line or row."""
    cls = dataclass(frozen=True, slots=True)(cls)
    if "key" not in vars(cls):
        cls.key = attrgetter(*(f.name for f in fields(cls) if not f.kw_only))
    code = cls.__init__.__code__
    params = code.co_varnames[1 : code.co_argcount + code.co_kwonlyargcount]
    env = {f"_set_{name}": getattr(cls, name).__set__ for name in params}
    env.update(_new=object.__new__, _cls=cls)
    body = "".join(f"    _set_{name}(self, {name})\n" for name in params)
    exec(f"def make({', '.join(params)}):\n    self = _new(_cls)\n{body}    return self\n", env)
    cls.make = staticmethod(env["make"])
    return cls


def _named(value: object) -> tuple[str, ...]:
    """The names a reference field holds: one name, None, or a tuple of names."""
    return value if isinstance(value, tuple) else () if value is None else (value,)


@dataclass(frozen=True, slots=True)
class Axiom:
    """Base for all axiom variants; carries the source location.

    Each variant, made by `_variant`, defines in its class body everything
    the rest of the program asks of an axiom, a default `key` aside. Its
    class attributes serve a group of axioms of the variant at once; `key`,
    `order` and `implicit` are functions of an axiom, read from the class.
    """

    tag: ClassVar[int]  # the variant's place in the canonical order
    #: Location-free identity in the variant (duplicates, merging); by default its field values.
    key: ClassVar[Callable[[Any], Hashable]]
    #: Canonical order within the variant, or None to sort by the written
    #: line: a line holds the key's fields in their tuple order after the
    #: variant's keyword, and names hold neither a blank nor a comma, both
    #: of which sort below every identifier character. Two variants write a
    #: key more than one way (`1` and `1.0`, `allowed` lists in two orders)
    #: and keep an `order`: a data property's declarations share one key in
    #: a built ontology, so its name orders them; a data assertion joins its
    #: fields by a blank, the literal as its `"<value type> <lexical>"`, and
    #: no value-type keyword is a prefix of another.
    order: ClassVar[Optional[Callable[[Any], str]]] = None
    #: Whether an axiom only restates the implicit root, which files never
    #: need to write; None when no axiom of the variant does.
    implicit: ClassVar[Optional[Callable[[Any], bool]]] = None
    declares: ClassVar[Optional[Kind]] = None  # the kind of a declaration's `name`
    #: Each field that names other entities (a name, None or a tuple of
    #: names), with the kind the use demands.
    refers: ClassVar[tuple[tuple[str, Kind], ...]] = ()
    #: `make(*fields, file, line)`: the axiom, every argument positional.
    make: ClassVar[Callable[..., Any]]

    file: str = field(default="", kw_only=True)
    line: int = field(default=0, kw_only=True)

    def error(self, code: str, message: str) -> Diagnostic:
        """An error finding at the axiom's file and line."""
        return error(code, message, self.file, self.line)

    def unsound_references(
        self, symbols: dict[str, Kind]
    ) -> Iterator[tuple[str, Kind, Optional[Kind]]]:
        """Each name the axiom refers to that `symbols` lacks or holds as
        another kind: (name, the kind the use demands, the kind found or
        None), in `refers` order and, within a field, in name order."""
        for f, wanted in self.refers:
            for name in _named(getattr(self, f)):
                if symbols.get(name) is not wanted:
                    yield name, wanted, symbols.get(name)

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


@_variant
class ClassDecl(Axiom):
    name: str

    tag = 0
    declares = Kind.CLASS
    implicit = staticmethod(lambda ax: ax.name == THING)

    def to_oft(self) -> str:
        return f"class {self.name}"


@_variant
class SubClassOf(Axiom):
    child: str
    parent: str

    tag = 1
    refers = (("child", Kind.CLASS), ("parent", Kind.CLASS))
    implicit = staticmethod(lambda ax: ax.parent == THING)

    def fault(self) -> Optional[Fault]:
        if self.child == self.parent:
            return Fault(E_SELF_SUB, f"class {self.child} cannot be its own subclass")
        if self.child == THING:
            # Every class is below Thing, so an edge out of it closes a cycle.
            return Fault(E_CYCLE, f"class {THING} cannot be a subclass of {self.parent}")
        return None

    def to_oft(self) -> str:
        return f"class {self.child} sub {self.parent}"


@_variant
class ObjPropDecl(Axiom):
    name: str
    domain: Optional[str] = None
    range: Optional[str] = None

    tag = 2
    declares = Kind.OBJECT_PROPERTY
    refers = (("domain", Kind.CLASS), ("range", Kind.CLASS))

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


@_variant
class DataPropDecl(Axiom):
    name: str
    facet: FacetSpec
    domain: Optional[str] = None

    tag = 3
    declares = Kind.DATA_PROPERTY
    key = staticmethod(lambda ax: (ax.name, ax.domain, ax.facet.key()))
    order = attrgetter("name")
    refers = (("domain", Kind.CLASS),)

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


@_variant
class IndividualDecl(Axiom):
    name: str
    types: tuple[str, ...]

    tag = 4
    declares = Kind.INDIVIDUAL
    refers = (("types", Kind.CLASS),)

    def fault(self) -> Optional[Fault]:
        if not self.types:
            return Fault(E_SYNTAX, f"individual {self.name} needs at least one type")
        return None

    def to_oft(self) -> str:
        return f"individual {self.name} type " + ", ".join(self.types)


@_variant
class ObjAssertion(Axiom):
    subject: str
    prop: str
    object: str

    tag = 5
    refers = (
        ("subject", Kind.INDIVIDUAL),
        ("prop", Kind.OBJECT_PROPERTY),
        ("object", Kind.INDIVIDUAL),
    )

    def to_oft(self) -> str:
        return f"rel {self.subject} {self.prop} {self.object}"


@_variant
class DataAssertion(Axiom):
    subject: str
    prop: str
    value: Literal

    tag = 6
    # The literal's precomputed keys: equality by `key()`, order by value
    # type and lexical form.
    key = attrgetter("subject", "prop", "value._key")
    order = staticmethod(lambda ax: f"{ax.subject} {ax.prop} {ax.value._order}")
    refers = (("subject", Kind.INDIVIDUAL), ("prop", Kind.DATA_PROPERTY))

    def to_oft(self) -> str:
        return f"attr {self.subject} {self.prop} {self.value._text}"


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
    #: First declaration axiom of each declared name, in axiom order. A
    #: property's holds its contract (facet, domain, range), which a build
    #: keeps a re-declaration from changing; an individual's places its findings.
    declarations: dict[str, Axiom]
    #: The axioms grouped by variant, each group in axiom order; one pass
    #: of the build serves every view below.
    by_variant: dict[type, tuple[Axiom, ...]] = field(repr=False)

    def _names_of(self, kind: Kind) -> frozenset[str]:
        return frozenset(n for n, k in self.symbols.items() if k is kind)

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
    def asserted_types(self) -> dict[str, frozenset[str]]:
        acc: dict[str, set[str]] = {}
        for ax in self.by_variant.get(IndividualDecl, ()):
            acc.setdefault(ax.name, set()).update(ax.types)
        return {name: frozenset(types) for name, types in acc.items()}

    @cached_property
    def obj_assertions(self) -> tuple[ObjAssertion, ...]:
        return self.by_variant.get(ObjAssertion, ())

    @cached_property
    def data_assertions(self) -> tuple[DataAssertion, ...]:
        return self.by_variant.get(DataAssertion, ())


def _refers_soundly(group: Sequence[Axiom], symbols: dict[str, Kind]) -> bool:
    """Whether every reference of a group of axioms of one variant names a
    symbol of the kind its use demands, each distinct name looked up once."""
    for field_name, wanted in type(group[0]).refers:
        names = set(map(attrgetter(field_name), group)) - {None}
        # A field holds the same shape in every axiom; only a list of names is a tuple.
        if names and type(next(iter(names))) is tuple:
            names = set(chain.from_iterable(names))
        if not set(map(symbols.get, names)) <= {wanted}:
            return False
    return True


def build_ontology(
    name: str,
    axioms: Sequence[Axiom],
    *,
    base: Optional[Ontology] = None,
) -> tuple[Optional[Ontology], list[Diagnostic]]:
    """Check an axiom list and wrap it into an Ontology.

    Performs every referential and kind check and reports all findings
    rather than stopping at the first. Declarations are read in axiom order,
    so the first of a name wins; their names are checked in one C-level
    pass, and one by one only when some name fails. The other checks run
    variant by variant. Returns (ontology, []) on success and
    (None, diagnostics) otherwise.

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
    first_decls: dict[str, Axiom] = {}
    kept: tuple[Axiom, ...] = ()
    by_variant: dict[type, tuple[Axiom, ...]] = {}
    if base is not None:
        symbols = dict(base.symbols)
        first_decls = dict(base.declarations)
        kept = base.axioms
        by_variant = dict(base.by_variant)
    groups: dict[type, list[Axiom]] = defaultdict(list)
    for ax in axioms:
        groups[type(ax)].append(ax)
    decls = list(filter(attrgetter("declares"), axioms))
    names_valid = all(map(IDENT_RE.match, map(attrgetter("name"), decls)))
    for ax in decls:
        kind, decl_name = ax.declares, ax.name
        # Re-declaring a name as the same kind must not change its contract.
        first = first_decls.setdefault(decl_name, ax)
        if first is not ax and first.declares is kind:
            clash = ax.contract_clash(first)
            if clash is not None:
                diags.append(clash.diagnostic(ax.file, ax.line))
        if not names_valid and not is_ident(decl_name):
            diags.append(ax.error(E_SYNTAX, f"invalid identifier {decl_name!r}"))
            continue
        prior = symbols.setdefault(decl_name, kind)
        if prior is not kind:
            diags.append(ax.error(E_KIND_CLASH, f"{decl_name} already declared as {prior.value}"))

    for variant, group in groups.items():
        if variant.fault is not Axiom.fault:
            for ax in group:
                fault = ax.fault()
                if fault is not None:
                    diags.append(fault.diagnostic(ax.file, ax.line))
        if not _refers_soundly(group, symbols):
            for ax in group:
                for ref, wanted, found in ax.unsound_references(symbols):
                    if found is None:
                        diags.append(ax.error(E_UNKNOWN_REF, f"{ref} is not declared"))
                    else:
                        message = f"{ref} used as {wanted.value} but declared as {found.value}"
                        diags.append(ax.error(E_KIND_CLASH, message))
        by_variant[variant] = by_variant.get(variant, ()) + tuple(group)

    if diags:
        return None, sort_diagnostics(diags)
    onto = Ontology(
        name=name,
        axioms=kept + tuple(axioms),
        symbols=symbols,
        declarations=first_decls,
        by_variant=by_variant,
    )
    return onto, []


def canonical_groups(o: Ontology) -> Iterator[tuple[Iterable[str], Iterable[Axiom]]]:
    """Each variant's canonical lines and axioms, in tag order: implicit-root
    bookkeeping (Thing declarations and edges into Thing) left out, each
    duplicate's first occurrence kept, sorted by the written line or, where
    the variant has one, by `key` and `order`. What the sort did not need
    comes lazily. The result is stable across calls and process runs."""
    for variant in sorted(o.by_variant, key=attrgetter("tag")):
        group = o.by_variant[variant]
        if variant.implicit is not None:
            group = list(filterfalse(variant.implicit, group))
        # Read backwards, so each line or key keeps its first occurrence.
        if variant.order is None:
            first = dict(zip(map(variant.to_oft, reversed(group)), reversed(group)))
            lines = sorted(first)
            yield lines, map(first.__getitem__, lines)
        else:
            first = dict(zip(map(variant.key, reversed(group)), reversed(group)))
            axioms = sorted(first.values(), key=variant.order)
            yield map(variant.to_oft, axioms), axioms


def canonical_axioms(o: Ontology) -> list[Axiom]:
    """Deduplicated, deterministically ordered axiom list (`canonical_groups`)."""
    return list(chain.from_iterable(axioms for _, axioms in canonical_groups(o)))
