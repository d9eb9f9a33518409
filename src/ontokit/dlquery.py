"""Manchester-style class expressions and their evaluation.

Grammar: `expr := term ('and' term)*` where a term is a class name,
`prop some term`, `prop value (individual | literal)`, or a parenthesized
expression. `and`, `some`, and `value` are reserved (case-sensitive).

Instance queries evaluate over inferred memberships; subclass/superclass
queries are structural taxonomy lookups and only accept named classes and
intersections of named classes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import reduce
from itertools import compress
from operator import and_, or_
from typing import Iterable, Optional, Union

from .model import E_UNKNOWN_REF, E_UNSUPPORTED_MODE, Fault, Kind, Literal, Ontology
from .oft import LITERAL_KINDS, SyntaxFault, TokenCursor, token_pattern
from .reasoner import Realization, TaxonomyClosure, bits

_QUERY_TOKENS = token_pattern(
    {"(": "lparen", ")": "rparen"}, keywords=("and", "some", "value")
)

#: The deepest a query may nest `some` fillers and parentheses; a filler in
#: parentheses is one level, so `format_expr`'s output nests as deep as its
#: input. Parsing or normalizing (`format_expr`) one level takes at most four
#: steps of the interpreter's recursion count, evaluating it two, so this
#: depth uses under half of the default limit of 1 000 and leaves the rest to
#: the caller; written queries nest a few levels.
MAX_NESTING = 100


class QueryMode(Enum):
    INSTANCES = "instances"
    SUBCLASSES = "subclasses"
    DIRECT_SUBCLASSES = "direct-subclasses"
    SUPERCLASSES = "superclasses"
    DIRECT_SUPERCLASSES = "direct-superclasses"


@dataclass(frozen=True)
class _Expr:
    """Base of the expression nodes. Each node class has its own `render`,
    `check_names`, `extension` (its instances as a mask over the sorted
    individuals) and `named_conjuncts`. `format_expr` keeps a node's text in
    `_text`, a field rather than a `__dict__` entry, so attribute reads stay
    fast."""

    _text: Optional[str] = field(default=None, init=False, repr=False, compare=False)

    def named_conjuncts(self) -> list[str]:
        """The named classes whose intersection this is, for the taxonomy
        modes; a restriction has none."""
        raise QueryEvalError(
            E_UNSUPPORTED_MODE,
            "subclass/superclass modes support only named classes and their intersections",
        )


@dataclass(frozen=True)
class Named(_Expr):
    name: str

    def render(self) -> str:
        return self.name

    def check_names(self, o: Ontology) -> None:
        _need(o, self.name, Kind.CLASS)

    def extension(self, r: Realization) -> int:
        return r.members_of.masks[self.name]

    def named_conjuncts(self) -> list[str]:
        return [self.name]


@dataclass(frozen=True)
class And(_Expr):
    parts: tuple["ClassExpr", ...]

    def render(self) -> str:
        # `and` is associative and the parser flattens it: no part needs parentheses.
        return " and ".join(map(format_expr, self.parts))

    def check_names(self, o: Ontology) -> None:
        for p in self.parts:
            p.check_names(o)

    def extension(self, r: Realization) -> int:
        return reduce(and_, (p.extension(r) for p in self.parts))

    def named_conjuncts(self) -> list[str]:
        return [name for p in self.parts for name in p.named_conjuncts()]


@dataclass(frozen=True)
class Some(_Expr):
    prop: str
    filler: "ClassExpr"

    def render(self) -> str:
        filler = format_expr(self.filler)
        if not isinstance(self.filler, Named):
            filler = f"({filler})"
        return f"{self.prop} some {filler}"

    def check_names(self, o: Ontology) -> None:
        _need(o, self.prop, Kind.OBJECT_PROPERTY)
        self.filler.check_names(o)

    def extension(self, r: Realization) -> int:
        """The OR of the subject masks in the property's index slots at the
        filler's set bits."""
        slots = r.assertion_index[self.prop]
        return reduce(or_, filter(None, compress(slots, bits(self.filler.extension(r)))), 0)


@dataclass(frozen=True)
class ValueObj(_Expr):
    prop: str
    individual: str

    def render(self) -> str:
        return f"{self.prop} value {self.individual}"

    def check_names(self, o: Ontology) -> None:
        _need(o, self.prop, Kind.OBJECT_PROPERTY)
        _need(o, self.individual, Kind.INDIVIDUAL)

    def extension(self, r: Realization) -> int:
        index = r.assertion_index
        return index[self.prop][index.position[self.individual]]


@dataclass(frozen=True)
class ValueData(_Expr):
    prop: str
    value: Literal

    def render(self) -> str:
        return f"{self.prop} value {self.value.to_oft()}"

    def check_names(self, o: Ontology) -> None:
        _need(o, self.prop, Kind.DATA_PROPERTY)

    def extension(self, r: Realization) -> int:
        return r.assertion_index[self.prop].get(self.value, 0)


ClassExpr = Union[Named, And, Some, ValueObj, ValueData]


def _need(o: Ontology, name: str, kind: Kind) -> None:
    found = o.symbols.get(name)
    if found is not kind:
        why = "not declared" if found is None else f"declared as {found.value}, not {kind.value}"
        raise QueryEvalError(E_UNKNOWN_REF, f"{name} is {why}")


class QuerySyntaxError(SyntaxFault):
    """Malformed query text; `column` is 1-based."""


class QueryEvalError(Fault):
    """Unresolvable name or unsupported expression/mode combination."""


def format_expr(expr: ClassExpr) -> str:
    """Render an expression in re-parsable query syntax.

    A node is immutable, so it keeps its text, and a parent's text reuses
    its parts': formatting every level of a nested query renders each node
    once.
    """
    text = expr._text
    if text is None:
        text = expr.render()
        object.__setattr__(expr, "_text", text)
    return text


def make_and(parts: Iterable[ClassExpr]) -> ClassExpr:
    """Normalized intersection: flattened, duplicate-free, sorted."""
    unique: dict[str, ClassExpr] = {}
    for p in parts:
        for q in p.parts if isinstance(p, And) else (p,):
            unique.setdefault(format_expr(q), q)
    ordered = [unique[k] for k in sorted(unique)]
    if not ordered:
        raise ValueError("intersection needs at least one part")
    return ordered[0] if len(ordered) == 1 else And(tuple(ordered))


class _Parser(TokenCursor):
    """The query grammar, read through a token cursor."""

    __slots__ = ()

    def expr(self, depth: int) -> ClassExpr:
        parts = [self.term(depth)]
        while self.skip("keyword", "and"):
            parts.append(self.term(depth))
        # A lone term is already normalized.
        return parts[0] if len(parts) == 1 else make_and(parts)

    def term(self, depth: int) -> ClassExpr:
        """A term nested `depth` levels deep."""
        if depth > MAX_NESTING:
            raise self.fail(f"query nests deeper than {MAX_NESTING} levels")
        if self.skip("lparen"):
            inner = self.expr(depth + 1)
            if not self.skip("rparen"):
                raise self.fail("expected ')'")
            return inner
        name = self.take("ident", "a class name or '('")
        if self.skip("keyword", "some"):
            return Some(name, self.term(depth if self.at("lparen") else depth + 1))
        if self.skip("keyword", "value"):
            kind, individual, _ = self.peek()
            if kind == "ident":
                self.pos += 1
                return ValueObj(name, individual)
            if kind in LITERAL_KINDS:
                return ValueData(name, self.literal(Literal))
            raise self.expected("an individual or literal after 'value'")
        return Named(name)


def parse_query(text: str) -> ClassExpr:
    """Parse query text into a normalized expression.

    Reads the tokens with a `TokenCursor`, as the OFT token path does, and
    raises `QuerySyntaxError`, a `SyntaxFault`, with a 1-based column on
    malformed input and on nesting deeper than `MAX_NESTING`; name
    resolution is deferred to evaluation.
    """
    parser = _Parser(text, _QUERY_TOKENS, QuerySyntaxError)
    expr = parser.expr(0)
    parser.expect_end("token")
    return expr


def eval_query(
    o: Ontology,
    c: TaxonomyClosure,
    r: Optional[Realization],
    expr: ClassExpr,
    mode: QueryMode,
) -> list[str]:
    """Evaluate an expression in the given result mode; results are sorted.

    An instance query reads only `r`: one mask over `r.members_of.universe`,
    the sorted individuals, decoded once, so its answer comes out in bit
    order, which is sorted order. A taxonomy query intersects the
    closure masks of its named classes into a result mask R. The plain
    modes decode R. A direct mode keeps only the members of R closest to
    the query class (no other member of R lies between them and it), and
    finds them without decoding R: it walks from the conjunct with the
    fewest closure bits, up `direct_parents` or down `direct_children`,
    goes past a reached class only when it is not in R, and keeps a
    reached member of R when no other member of R lies beyond it. Every
    path from that conjunct to a closest member runs through classes
    outside R, so the walk reaches them all; for one named class it reads
    only the class's direct neighbours. Only an instance query reads `r`,
    the realization; the taxonomy modes take None.
    """
    expr.check_names(o)
    if mode is QueryMode.INSTANCES:
        return list(r.members_of.names(expr.extension(r)))

    # Both closure relations are strict, so the intersection never holds a
    # query class itself.
    upward = mode in (QueryMode.SUPERCLASSES, QueryMode.DIRECT_SUPERCLASSES)
    along = c.ancestors if upward else c.descendants
    conjuncts = expr.named_conjuncts()
    result = reduce(and_, (along.masks[name] for name in conjuncts))
    if mode is QueryMode.SUBCLASSES or mode is QueryMode.SUPERCLASSES:
        return sorted(along.names(result))
    if not result:
        return []
    step = c.direct_parents if upward else c.direct_children
    start = min(conjuncts, key=lambda name: along.masks[name].bit_count())
    position, beyond = c.position, (c.descendants if upward else c.ancestors).masks
    found = []
    seen: set[str] = set()
    stack = list(step[start])
    while stack:
        x = stack.pop()
        if x in seen:
            continue
        seen.add(x)
        if result >> position[x] & 1:
            if not beyond[x] & result:
                found.append(x)
        else:
            stack.extend(step[x])
    return sorted(found)
