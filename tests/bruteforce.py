"""Random ontology generators and brute-force reference implementations.

The reference functions recompute results by direct definition (a walk up
from each class, per-individual path walks, assertion scans) so the tests
never reuse the code paths they are checking: the parents, asserted types
and declaration sites they walk come from a scan of the ontology's axioms.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass
from decimal import Decimal

from ontokit.dlquery import And, ClassExpr, Named, QueryMode, Some, ValueData, ValueObj, make_and
from ontokit.model import (
    Axiom,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    FacetSpec,
    IDENT_RE,
    IndividualDecl,
    Literal,
    NUMBER_RE,
    ObjAssertion,
    ObjPropDecl,
    Ontology,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
    is_datetime,
)

_STRING_POOL = ["honey", "a b", 'x"y', "back\\slash", "plain", "Zz_9", ""]
_NUMBER_POOL = ["1", "1.0", "-3.25", "100", "2e3", "0.5", "42"]
_DATETIME_POOL = ["2021-05-01", "1999-12-31", "2020-02-29T12:30:00"]


def _nodes(direct_parents: dict[str, frozenset[str]]) -> set[str]:
    """Every class the edges name, as a child or as a parent, and the root."""
    nodes = set(direct_parents) | {THING}
    for parents in direct_parents.values():
        nodes |= set(parents)
    return nodes


def reachability(direct_parents: dict[str, frozenset[str]]) -> dict[str, set[str]]:
    """Strict reachability over child->parent edges: for each class, every
    class one or more edges up from it, found by its own walk up. A class
    on a cycle reaches itself. Quadratic at worst, where a matrix closure is
    cubic."""
    reach = {}
    for n in _nodes(direct_parents):
        seen: set[str] = set()
        stack = list(direct_parents.get(n, ()))
        while stack:
            c = stack.pop()
            if c not in seen:
                seen.add(c)
                stack.extend(direct_parents.get(c, ()))
        reach[n] = seen
    return reach


def transitive_reduction(direct_parents: dict[str, frozenset[str]]) -> set[tuple[str, str]]:
    """(parent, child) pairs of an acyclic hierarchy's transitive reduction,
    by definition: `a` is a parent of `c` there when the longest path from
    `c` up to `a` is one edge long, so no third class lies between them.
    Each class's longest paths come from its own walk up, so the whole is
    quadratic at worst."""
    pairs = set()
    for c in _nodes(direct_parents):
        # The walk up from `c` lists each class after every class above it.
        below_first, seen = [], {c}
        stack = [(c, iter(direct_parents.get(c, ())))]
        while stack:
            node, parents = stack[-1]
            for p in parents:
                if p not in seen:
                    seen.add(p)
                    stack.append((p, iter(direct_parents.get(p, ()))))
                    break
            else:
                below_first.append(stack.pop()[0])
        below_first.reverse()
        longest = dict.fromkeys(below_first, 0)
        for node in below_first:
            for p in direct_parents.get(node, ()):
                longest[p] = max(longest[p], longest[node] + 1)
        pairs.update((a, c) for a, length in longest.items() if length == 1)
    return pairs


@dataclass(frozen=True)
class _Facts:
    """What the oracles and `random_expr` read of an ontology, collected
    from its axioms alone: each class's direct parents (Thing for a
    parentless class, none for Thing), each individual's asserted types and
    first declaration site, the declared object properties, each data
    property's first-declared facet, and the object and data assertions in
    axiom order."""

    parents: dict[str, frozenset[str]]
    types: dict[str, set[str]]
    sites: dict[str, tuple[str, int]]
    obj_props: set[str]
    facets: dict[str, FacetSpec]
    obj: list[ObjAssertion]
    data: list[DataAssertion]


# `Ontology` hashes by identity, so an entry lives exactly as long as its
# ontology, and an oracle that walks every individual scans the axioms once.
_FACTS: weakref.WeakKeyDictionary[Ontology, _Facts] = weakref.WeakKeyDictionary()


def _facts(onto: Ontology) -> _Facts:
    facts = _FACTS.get(onto)
    if facts is None:
        parents: dict[str, set[str]] = {}
        types: dict[str, set[str]] = {}
        sites: dict[str, tuple[str, int]] = {}
        obj_props: set[str] = set()
        facets: dict[str, FacetSpec] = {}
        obj: list[ObjAssertion] = []
        data: list[DataAssertion] = []
        for ax in onto.axioms:
            if isinstance(ax, ClassDecl):
                parents.setdefault(ax.name, set())
            elif isinstance(ax, SubClassOf):
                parents.setdefault(ax.child, set()).add(ax.parent)
            elif isinstance(ax, IndividualDecl):
                types.setdefault(ax.name, set()).update(ax.types)
                sites.setdefault(ax.name, (ax.file, ax.line))
            elif isinstance(ax, ObjPropDecl):
                obj_props.add(ax.name)
            elif isinstance(ax, DataPropDecl):
                facets.setdefault(ax.name, ax.facet)
            elif isinstance(ax, ObjAssertion):
                obj.append(ax)
            elif isinstance(ax, DataAssertion):
                data.append(ax)
        frozen = {c: frozenset(ps or {THING}) for c, ps in parents.items()}
        frozen[THING] = frozenset()
        facts = _FACTS[onto] = _Facts(frozen, types, sites, obj_props, facets, obj, data)
    return facts


def direct_parents(onto: Ontology) -> dict[str, frozenset[str]]:
    """Each class's asserted parents, Thing for a parentless class, and
    none for Thing: the edges every taxonomy oracle walks."""
    return _facts(onto).parents


def walk_types(onto: Ontology, individual: str) -> set[str]:
    """Classes reachable from an individual's asserted types by path walking."""
    facts = _facts(onto)
    seen: set[str] = set()
    stack = list(facts.types.get(individual, ()))
    while stack:
        t = stack.pop()
        if t in seen:
            continue
        seen.add(t)
        stack.extend(facts.parents.get(t, ()))
    return seen


def oracle_members(onto: Ontology) -> dict[str, set[str]]:
    facts = _facts(onto)
    members: dict[str, set[str]] = {c: set() for c in facts.parents}
    for ind in facts.types:
        for t in walk_types(onto, ind):
            members[t].add(ind)
    return members


def oracle_instances(onto: Ontology, expr: ClassExpr) -> set[str]:
    facts = _facts(onto)
    if isinstance(expr, Named):
        return {i for i in facts.types if expr.name in walk_types(onto, i)}
    if isinstance(expr, And):
        result = oracle_instances(onto, expr.parts[0])
        for p in expr.parts[1:]:
            result &= oracle_instances(onto, p)
        return result
    if isinstance(expr, Some):
        filler = oracle_instances(onto, expr.filler)
        return {ax.subject for ax in facts.obj if ax.prop == expr.prop and ax.object in filler}
    if isinstance(expr, ValueObj):
        return {
            ax.subject
            for ax in facts.obj
            if ax.prop == expr.prop and ax.object == expr.individual
        }
    assert isinstance(expr, ValueData)
    return {ax.subject for ax in facts.data if ax.prop == expr.prop and ax.value == expr.value}


def oracle_taxonomy(onto: Ontology, names: list[str], mode: QueryMode) -> list[str]:
    """The sorted answer of a taxonomy query on the intersection of `names`,
    by definition over `reachability`: the classes strictly above
    (or below) every name, and in a direct mode only those with no other
    answer between them and the names."""
    reach = reachability(direct_parents(onto))
    if mode in (QueryMode.SUPERCLASSES, QueryMode.DIRECT_SUPERCLASSES):
        found = {c for c in reach if all(c in reach[n] for n in names)}
        if mode is QueryMode.DIRECT_SUPERCLASSES:
            found = {c for c in found if not any(c in reach[d] for d in found)}
    else:
        found = {c for c in reach if all(n in reach[c] for n in names)}
        if mode is QueryMode.DIRECT_SUBCLASSES:
            found = {c for c in found if not any(d in reach[c] for d in found)}
    return sorted(found)


def oracle_cycles(onto: Ontology) -> list[tuple[str, str, int]]:
    """`(message, file, line)` of each subclass cycle, by direct definition:
    classes that reach each other under `reachability` form a cycle,
    anchored at its earliest `(file, line)` edge between two of its classes."""
    reach = reachability(direct_parents(onto))
    cycles = {
        frozenset(d for d in reach[c] if c in reach[d]) for c in reach if c in reach[c]
    }
    found = []
    for cycle in cycles:
        anchor = min(
            (ax.file, ax.line)
            for ax in onto.axioms
            if isinstance(ax, SubClassOf) and ax.child in cycle and ax.parent in cycle
        )
        found.append(("classes form a subclass cycle: " + ", ".join(sorted(cycle)), *anchor))
    return sorted(found)


def identity(ax: Axiom) -> tuple:
    """An axiom's location-free identity across variants: its tag and key."""
    return (ax.tag, type(ax).key(ax))


def _literal_identity(value: Literal) -> tuple:
    """Numbers are equal by decimal value, every other literal by its text."""
    if value.value_type is ValueType.NUMBER:
        return (value.value_type.value, Decimal(value.lexical))
    return (value.value_type.value, value.lexical)


def _canonical_keys(ax: Axiom) -> tuple[int, tuple, tuple]:
    """(variant tag, identity, sort key) of an axiom, spelled out per variant.
    An absent domain or range is the empty name."""
    if isinstance(ax, ClassDecl):
        return 0, (ax.name,), (ax.name,)
    if isinstance(ax, SubClassOf):
        return 1, (ax.child, ax.parent), (ax.child, ax.parent)
    if isinstance(ax, ObjPropDecl):
        names = (ax.name, ax.domain or "", ax.range or "")
        return 2, names, names
    if isinstance(ax, DataPropDecl):
        facet = ax.facet
        values = facet.allowed
        allowed = None if values is None else frozenset(map(_literal_identity, values))
        written = tuple((v.value_type.value, v.lexical) for v in values or ())
        vt, card = facet.value_type.value, facet.cardinality.value
        names = (ax.name, ax.domain or "")
        return 3, (*names, (vt, allowed, card)), (*names, (vt, written, card))
    if isinstance(ax, IndividualDecl):
        return 4, (ax.name, ax.types), (ax.name, ax.types)
    if isinstance(ax, ObjAssertion):
        return 5, (ax.subject, ax.prop, ax.object), (ax.subject, ax.prop, ax.object)
    assert isinstance(ax, DataAssertion)
    value = ax.value
    return (
        6,
        (ax.subject, ax.prop, _literal_identity(value)),
        (ax.subject, ax.prop, value.value_type.value, value.lexical),
    )


def oracle_canonical(onto: Ontology) -> list[Axiom]:
    """The canonical axiom list by direct definition: the first occurrence
    of each identity, without the implicit root's declaration and the edges
    into it, sorted by (variant tag, names, value type, lexical form)."""
    seen: set[tuple] = set()
    kept = []
    for ax in onto.axioms:
        if (isinstance(ax, ClassDecl) and ax.name == THING) or (
            isinstance(ax, SubClassOf) and ax.parent == THING
        ):
            continue
        tag, identity, order = _canonical_keys(ax)
        if (tag, identity) not in seen:
            seen.add((tag, identity))
            kept.append(((tag, order), ax))
    kept.sort(key=lambda pair: pair[0])
    return [ax for _, ax in kept]


def oracle_validate(onto: Ontology) -> list[tuple[str, str, int]]:
    """`(code, file, line)` of every validator finding, by direct definition:
    membership by path walking, single cardinality by a scan of the earlier
    values of the same pair, and contracts from the first declarations."""
    decls: dict[str, Axiom] = {}
    for ax in onto.axioms:
        if isinstance(ax, (ObjPropDecl, DataPropDecl)):
            decls.setdefault(ax.name, ax)
    found: list[tuple[str, str, int]] = []
    facts = _facts(onto)
    data = facts.data
    for i, ax in enumerate(data):
        facet = decls[ax.prop].facet
        if facet.value_type not in (ValueType.ANY, ValueType.ENUM) and (
            ax.value.value_type is not facet.value_type
        ):
            found.append(("E_TYPE_MISMATCH", ax.file, ax.line))
        elif facet.allowed is not None and not any(ax.value == v for v in facet.allowed):
            found.append(("E_ALLOWED_VALUE", ax.file, ax.line))
        if facet.cardinality is Cardinality.SINGLE and any(
            (e.prop, e.subject) == (ax.prop, ax.subject) for e in data[:i]
        ):
            found.append(("E_CARD_SINGLE", ax.file, ax.line))
    for ax in data + facts.obj:
        domain = decls[ax.prop].domain
        if domain is not None and domain not in walk_types(onto, ax.subject):
            found.append(("E_DOMAIN", ax.file, ax.line))
        if isinstance(ax, ObjAssertion):
            rng = decls[ax.prop].range
            if rng is not None and rng not in walk_types(onto, ax.object):
                found.append(("E_RANGE", ax.file, ax.line))
    for prop, decl in decls.items():
        if not isinstance(decl, DataPropDecl) or decl.domain is None:
            continue
        if decl.facet.cardinality is not Cardinality.MULTIPLE:
            continue
        for ind in facts.types:
            if decl.domain in walk_types(onto, ind) and not any(
                (ax.prop, ax.subject) == (prop, ind) for ax in data
            ):
                found.append(("E_CARD_MULTIPLE", *facts.sites[ind]))
    return found


def random_taxonomy_axioms(
    rng: random.Random,
    n_classes: int,
    p_root: float = 0.2,
    max_parents: int = 3,
    redundant: int = 0,
) -> list[Axiom]:
    names = [f"C{i:03d}" for i in range(n_classes)]
    axioms: list[Axiom] = [ClassDecl(n) for n in names]
    parents: dict[str, list[str]] = {}
    for i, name in enumerate(names):
        if i == 0 or rng.random() < p_root:
            parents[name] = []
            continue
        k = rng.randint(1, min(max_parents, i))
        parents[name] = rng.sample(names[:i], k)
        axioms.extend(SubClassOf(name, p) for p in parents[name])
    for _ in range(redundant):
        reach = reachability({n: frozenset(ps) for n, ps in parents.items()})
        candidates = [
            (c, a)
            for c in names
            for a in sorted(reach[c] - set(parents[c]) - {THING})
        ]
        if not candidates:
            break
        child, ancestor = rng.choice(candidates)
        parents[child].append(ancestor)
        axioms.append(SubClassOf(child, ancestor))
    return axioms


def deep_taxonomy_axioms(
    rng: random.Random, n_classes: int, window: int = 5, individuals_per_class: int = 0
) -> list[Axiom]:
    """A deep, narrow taxonomy: class i has one or two parents among the
    `window` classes before it. Each class gets `individuals_per_class`
    individuals; all but the first also have a random earlier class as type."""
    names = [f"C{i:04d}" for i in range(n_classes)]
    axioms: list[Axiom] = [ClassDecl(n) for n in names]
    for i, name in enumerate(names):
        pool = names[max(0, i - window) : i]
        k = min(len(pool), rng.randint(1, 2))
        axioms.extend(SubClassOf(name, p) for p in rng.sample(pool, k))
        for j in range(individuals_per_class):
            types = (name,) if j == 0 or i == 0 else (name, rng.choice(names[:i]))
            axioms.append(IndividualDecl(f"{name}_i{j}", types))
    return axioms


def random_facet(rng: random.Random) -> FacetSpec:
    vt = rng.choice(list(ValueType))
    card = rng.choice(list(Cardinality))
    allowed = None
    if vt is ValueType.ENUM or (
        vt in (ValueType.STRING, ValueType.NUMBER) and rng.random() < 0.3
    ):
        if vt is ValueType.NUMBER:
            pool = rng.sample(["1", "2.5", "-3", "7"], k=rng.randint(1, 3))
            allowed = tuple(Literal(ValueType.NUMBER, s) for s in pool)
        else:
            pool = rng.sample([s for s in _STRING_POOL if s], k=rng.randint(1, 3))
            allowed = tuple(Literal(ValueType.STRING, s) for s in pool)
    return FacetSpec(vt, allowed, card)


def random_literal(rng: random.Random, facet: FacetSpec) -> Literal:
    if facet.allowed and rng.random() < 0.8:
        return rng.choice(facet.allowed)
    vt = facet.value_type
    if vt in (ValueType.STRING, ValueType.ANY, ValueType.ENUM):
        return Literal(ValueType.STRING, rng.choice(_STRING_POOL))
    if vt is ValueType.NUMBER:
        return Literal(ValueType.NUMBER, rng.choice(_NUMBER_POOL))
    if vt is ValueType.BOOLEAN:
        return Literal(ValueType.BOOLEAN, rng.choice(["true", "false"]))
    return Literal(ValueType.DATETIME, rng.choice(_DATETIME_POOL))


def random_ontology(
    rng: random.Random,
    n_classes: int = 12,
    n_individuals: int = 8,
    n_obj_props: int = 3,
    n_data_props: int = 3,
    n_assertions: int = 15,
    redundant: int = 0,
    entity_prefix: str = "",
) -> Ontology:
    """Build a random valid ontology.

    Class names are fixed (C000...) so two generated ontologies overlap in
    their taxonomies; `entity_prefix` keeps property and individual names
    disjoint between them when conflict-free pairs are needed.
    """
    axioms = random_taxonomy_axioms(rng, n_classes, redundant=redundant)
    classes = [f"C{i:03d}" for i in range(n_classes)]

    obj_props = [f"{entity_prefix}op{i}" for i in range(n_obj_props)]
    for p in obj_props:
        axioms.append(
            ObjPropDecl(
                p,
                rng.choice(classes + [None]),
                rng.choice(classes + [None]),
            )
        )
    data_props = [f"{entity_prefix}dp{i}" for i in range(n_data_props)]
    for p in data_props:
        axioms.append(DataPropDecl(p, random_facet(rng), rng.choice(classes + [None])))

    individuals = [f"{entity_prefix}i{i:03d}" for i in range(n_individuals)]
    for ind in individuals:
        types = tuple(rng.sample(classes, rng.randint(1, min(2, len(classes)))))
        axioms.append(IndividualDecl(ind, types))

    for _ in range(n_assertions):
        if individuals and obj_props and rng.random() < 0.5:
            axioms.append(
                ObjAssertion(rng.choice(individuals), rng.choice(obj_props), rng.choice(individuals))
            )
        elif individuals and data_props:
            prop = rng.choice(data_props)
            facet = next(ax.facet for ax in axioms if isinstance(ax, DataPropDecl) and ax.name == prop)
            axioms.append(
                DataAssertion(rng.choice(individuals), prop, random_literal(rng, facet))
            )

    onto, diags = build_ontology("t", axioms)
    assert onto is not None, diags
    return onto


def random_expr(rng: random.Random, onto: Ontology, depth: int = 2) -> ClassExpr:
    """A random expression over the ontology's declared names, read from
    its axioms (`_facts`); a `value` on a data property mostly takes a
    value asserted on it."""
    facts = _facts(onto)
    classes = sorted(facts.parents.keys() - {THING}) + [THING]
    individuals = sorted(facts.types)
    obj_props = sorted(facts.obj_props)
    data_props = sorted(facts.facets)

    choices = ["named"]
    if depth > 0:
        choices += ["and", "and"]
        if obj_props:
            choices.append("some")
            if individuals:
                choices.append("valueobj")
        if data_props:
            choices.append("valuedata")
    pick = rng.choice(choices)
    if pick == "named":
        return Named(rng.choice(classes))
    if pick == "and":
        return make_and(random_expr(rng, onto, depth - 1) for _ in range(rng.randint(2, 3)))
    if pick == "some":
        return Some(rng.choice(obj_props), random_expr(rng, onto, depth - 1))
    if pick == "valueobj":
        return ValueObj(rng.choice(obj_props), rng.choice(individuals))
    prop = rng.choice(data_props)
    asserted = [ax.value for ax in facts.data if ax.prop == prop]
    if asserted and rng.random() < 0.7:
        value = rng.choice(asserted)
    else:
        value = random_literal(rng, facts.facets[prop])
    return ValueData(prop, value)


#: Pieces that random scanner inputs are joined from: every delimiter, the
#: escape character, signs, exponents, date parts, reserved words and
#: non-ASCII letters and blanks, so most joins land on a token boundary case.
SCAN_FRAGMENTS = [
    " ", "\t", "\r", ",", "#", '"', "\\", "(", ")", "a", "Z", "_", "x9", "0", "1",
    "+", "-", ".", "e", "E", ":", "T", "true", "false", "and", "some", "value",
    "2020-01-01", "2020-02-30", "2021-05-01T12:30:00Z", "1.5e-3", "9e99999999999999999999",
    '\\"', "\\\\",
    "\u00e9", "\u00a0", "\u65e5",
]


class ScanError(Exception):
    """A lexical fault found by a reference scanner; `col` is 1-based."""

    def __init__(self, message: str, col: int):
        super().__init__(message)
        self.message = message
        self.col = col


def _reference_string(text: str, i: int) -> tuple[str, int]:
    """Scan the quoted string opening at `text[i]` one character at a time:
    (unescaped body, index after the closing quote)."""
    col, n = i + 1, len(text)
    i += 1
    buf: list[str] = []
    while True:
        if i >= n:
            raise ScanError("unterminated string", col)
        c = text[i]
        if c == "\\":
            if i + 1 >= n:
                raise ScanError("unterminated string", col)
            esc = text[i + 1]
            if esc not in ('"', "\\"):
                raise ScanError(f"invalid escape \\{esc}", i + 1)
            buf.append(esc)
            i += 2
            continue
        if c == '"':
            return "".join(buf), i + 1
        buf.append(c)
        i += 1


def scan_outcome(scanner, text: str):
    """A scanner's tokens, or the (message, column) of its first fault."""
    try:
        return scanner(text)
    except ScanError as exc:
        return (exc.message, exc.col)


def _reference_scan(
    text: str, punctuation: dict[str, str], keywords: tuple[str, ...] = (), comment: str = ""
) -> list[tuple[str, str, int]]:
    """Tokens as (kind, text, column), one character at a time."""
    tokens: list[tuple[str, str, int]] = []
    stop = ' \t"' + "".join(punctuation) + comment
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch in " \t":
            i += 1
            continue
        if ch == comment:
            break
        col = i + 1
        if ch in punctuation:
            tokens.append((punctuation[ch], ch, col))
            i += 1
            continue
        if ch == '"':
            body, i = _reference_string(text, i)
            tokens.append(("string", body, col))
            continue
        j = i
        while j < n and text[j] not in stop:
            j += 1
        word = text[i:j]
        if word in ("true", "false"):
            tokens.append(("boolean", word, col))
        elif NUMBER_RE.match(word):
            tokens.append(("number", word, col))
        elif word in keywords:
            tokens.append(("keyword", word, col))
        elif IDENT_RE.match(word):
            tokens.append(("ident", word, col))
        elif is_datetime(word):
            tokens.append(("datetime", word, col))
        else:
            raise ScanError(f"bad token {word!r}", col)
        i = j
    return tokens


def reference_scan_line(line: str) -> list[tuple[str, str, int]]:
    """OFT tokens of one line: `,` is punctuation and `#` starts a comment."""
    return _reference_scan(line, {",": "comma"}, comment="#")


def reference_scan_query(text: str) -> list[tuple[str, str, int]]:
    """Query tokens: parentheses are punctuation; and/some/value are keywords."""
    return _reference_scan(
        text, {"(": "lparen", ")": "rparen"}, keywords=("and", "some", "value")
    )
