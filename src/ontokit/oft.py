"""Ontology Fixture Text (OFT): a line-oriented declarative ontology format.

One statement per line, `#` comments, forward references allowed within a
file. Parsing is total: malformed lines become diagnostics and are skipped,
no input ever raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Iterable, Optional

from .model import (
    Axiom,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    Diagnostic,
    E_SYNTAX,
    E_TYPE_MISMATCH,
    FacetSpec,
    IDENT,
    IndividualDecl,
    Literal,
    NUMBER,
    ObjAssertion,
    ObjPropDecl,
    Ontology,
    SubClassOf,
    ValueType,
    build_ontology,
    canonical_axioms,
    conforms,
    error,
    is_datetime,
    sort_diagnostics,
)

_VTYPE_KEYWORDS = {vt.value: vt for vt in ValueType}

#: Value type of each literal token kind, in OFT and in queries.
LITERAL_KINDS = {
    "string": ValueType.STRING,
    "number": ValueType.NUMBER,
    "boolean": ValueType.BOOLEAN,
    "datetime": ValueType.DATETIME,
}

#: A token: (kind, text, 1-based column). String tokens carry the unescaped
#: body; kinds are the group names of `token_pattern`, plus "datetime".
Token = tuple[str, str, int]

# Group names of `token_pattern` that `scan` handles itself; every other
# kind, a caller's punctuation included, is a plain token.
_SPECIAL_KINDS = frozenset({"end", "string", "word", "quoted", "closed"})
# Backslashes pair off from the left, so skipping whole valid escapes finds
# the first backslash that escapes neither a quote nor a backslash.
_INVALID_ESCAPE = re.compile(r'(?:[^\\]|\\["\\])*\\([^"\\])', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)


def token_pattern(
    punctuation: dict[str, str], keywords: tuple[str, ...] = (), comment: str = ""
) -> re.Pattern[str]:
    """Compile the token pattern of a language of words, quoted strings and
    one-character punctuation, separated by spaces and tabs.

    A word runs up to the next separator, quote, punctuation or comment
    character. The pattern classifies it as identifier, boolean, keyword or
    number; any other word is a `word`, which the scanner accepts only as a
    date-time. A closed string with no backslash matches `string`; any
    other string matches `quoted`, plus `closed` when it is closed. Every
    match takes the blanks before it, and `end` matches a comment or the
    blanks at the end of the text, so no character is skipped unseen.
    """
    stop = re.escape("".join(punctuation) + comment)
    end = rf'(?=[ \t"{stop}]|\Z)'
    reserved = "|".join(("true", "false") + keywords)
    alternatives = [
        rf"(?P<ident>(?!(?:{reserved}){end}){IDENT}){end}",
        *(f"(?P<{kind}>{re.escape(ch)})" for ch, kind in punctuation.items()),
        r'"(?P<string>[^"\\]*)"',
        r'"(?P<quoted>[^"\\]*(?:\\.[^"\\]*)*)(?P<closed>")?',
        rf"(?P<boolean>true|false){end}",
    ]
    if keywords:
        alternatives.append(rf"(?P<keyword>{'|'.join(keywords)}){end}")
    alternatives += [
        rf"(?P<number>{NUMBER}){end}",
        rf'(?P<word>[^ \t"{stop}]+)',
        rf"(?P<end>{re.escape(comment) + '|' if comment else ''}\Z)",
    ]
    return re.compile(rf"[ \t]*(?:{'|'.join(alternatives)})", re.S)


def scan(
    pattern: re.Pattern[str], text: str, fault: Callable[[str, int], Exception]
) -> list[Token]:
    """Tokens of `text`; raises `fault(message, column)` at the first lexical
    fault and stops at a comment."""
    tokens: list[Token] = []
    for m in pattern.finditer(text):
        kind = m.lastgroup
        if kind not in _SPECIAL_KINDS:
            tokens.append((kind, m.group(kind), m.start(kind) + 1))
        elif kind == "end":
            break
        elif kind == "string":
            # The group holds the body, so its 0-based start is the 1-based
            # column of the opening quote.
            tokens.append((kind, m.group(kind), m.start(kind)))
        elif kind == "word":
            word = m.group(kind)
            if not is_datetime(word):
                raise fault(f"bad token {word!r}", m.start(kind) + 1)
            tokens.append(("datetime", word, m.start(kind) + 1))
        else:
            col = m.start("quoted")  # the opening quote, as for `string`
            body = m.group("quoted")
            bad = _INVALID_ESCAPE.match(body)
            if bad is not None:
                raise fault(f"invalid escape \\{bad.group(1)}", col + bad.end() - 1)
            if kind != "closed":
                raise fault("unterminated string", col)
            tokens.append(("string", _ESCAPE.sub(r"\1", body), col))
    return tokens


_OFT_TOKENS = token_pattern({",": "comma"}, comment="#")


@dataclass
class ParseResult:
    ontology_name: str
    axioms: list[Axiom]
    diagnostics: list[Diagnostic]


class _LineError(Exception):
    def __init__(self, message: str, col: int, code: str = E_SYNTAX):
        super().__init__(message)
        self.message = message
        self.col = col
        self.code = code


class _Cursor:
    __slots__ = ("tokens", "pos", "end_col")

    def __init__(self, tokens: list[Token], line_len: int):
        self.tokens = tokens
        self.pos = 1
        self.end_col = line_len + 1

    def peek(self) -> Optional[Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, kind: str, what: str) -> Token:
        if self.pos >= len(self.tokens):
            raise _LineError(f"expected {what}", self.end_col)
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise _LineError(f"expected {what}, got {tok[1]!r}", tok[2])
        self.pos += 1
        return tok

    def at_keyword(self, word: str) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "ident" and tok[1] == word

    def at_comma(self) -> bool:
        tok = self.peek()
        return tok is not None and tok[0] == "comma"

    def take_keyword(self, word: str) -> None:
        if not self.at_keyword(word):
            tok = self.peek()
            col = tok[2] if tok else self.end_col
            got = f", got {tok[1]!r}" if tok else ""
            raise _LineError(f"expected {word!r}{got}", col)
        self.pos += 1

    def expect_end(self) -> None:
        if self.pos < len(self.tokens):
            tok = self.tokens[self.pos]
            raise _LineError(f"unexpected trailing token {tok[1]!r}", tok[2])


def _take_literal(cur: _Cursor) -> Literal:
    tok = cur.peek()
    if tok is None or tok[0] not in LITERAL_KINDS:
        raise _LineError("expected a literal value", tok[2] if tok else cur.end_col)
    cur.pos += 1
    try:
        return Literal(LITERAL_KINDS[tok[0]], tok[1])
    except ValueError as exc:  # a line break in a string, a number out of range
        raise _LineError(str(exc), tok[2]) from None


def _take_ident_list(cur: _Cursor, what: str) -> list[str]:
    names = [cur.take("ident", what)[1]]
    while cur.at_comma():
        cur.pos += 1
        names.append(cur.take("ident", what)[1])
    return names


def _parse_dataprop(cur: _Cursor, file_name: str, ln: int) -> DataPropDecl:
    name = cur.take("ident", "property name")[1]
    domain = None
    if cur.at_keyword("domain"):
        cur.pos += 1
        domain = cur.take("ident", "domain class")[1]
    cur.take_keyword("type")
    _, vt_text, vt_col = cur.take("ident", "value type")
    vtype = _VTYPE_KEYWORDS.get(vt_text)
    if vtype is None:
        raise _LineError(f"unknown value type {vt_text!r}", vt_col)
    allowed: Optional[list[Literal]] = None
    if cur.at_keyword("allowed"):
        cur.pos += 1
        allowed = [_take_literal(cur)]
        while cur.at_comma():
            cur.pos += 1
            allowed.append(_take_literal(cur))
        seen = set()
        for lit in allowed:
            if lit.key() in seen:
                raise _LineError(f"duplicate allowed value {lit.lexical!r}", vt_col)
            seen.add(lit.key())
            if not conforms(lit, vtype):
                raise _LineError(
                    f"allowed value {lit.lexical!r} does not conform to {vtype.value}",
                    vt_col,
                    code=E_TYPE_MISMATCH,
                )
    elif vtype is ValueType.ENUM:
        raise _LineError("enum type requires an allowed-values list", vt_col)
    card = Cardinality.SINGLE
    if cur.at_keyword("card"):
        cur.pos += 1
        _, card_text, card_col = cur.take("ident", "'single' or 'multiple'")
        if card_text not in ("single", "multiple"):
            raise _LineError(f"expected 'single' or 'multiple', got {card_text!r}", card_col)
        card = Cardinality(card_text)
    cur.expect_end()
    facet = FacetSpec(vtype, tuple(allowed) if allowed is not None else None, card)
    return DataPropDecl(name, facet, domain, file=file_name, line=ln)


def parse_oft(source: str, file_name: str = "<input>") -> ParseResult:
    """Parse OFT text into axioms with source locations. Never raises."""
    name = "unnamed"
    have_header = False
    declared_classes: set[str] = set()
    axioms: list[Axiom] = []
    diags: list[Diagnostic] = []

    lines = source.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for ln, raw in enumerate(lines, 1):
        line = raw[:-1] if raw.endswith("\r") else raw
        try:
            tokens = scan(_OFT_TOKENS, line, _LineError)
            if not tokens:
                continue
            kind, head, head_col = tokens[0]
            if kind != "ident":
                raise _LineError(f"expected statement keyword, got {head!r}", head_col)
            cur = _Cursor(tokens, len(line))
            if head == "rel":
                subj = cur.take("ident", "subject")[1]
                prop = cur.take("ident", "property")[1]
                obj = cur.take("ident", "object")[1]
                cur.expect_end()
                axioms.append(ObjAssertion(subj, prop, obj, file=file_name, line=ln))
            elif head == "attr":
                subj = cur.take("ident", "subject")[1]
                prop = cur.take("ident", "property")[1]
                value = _take_literal(cur)
                cur.expect_end()
                axioms.append(DataAssertion(subj, prop, value, file=file_name, line=ln))
            elif head == "individual":
                ind = cur.take("ident", "individual name")[1]
                cur.take_keyword("type")
                types = _take_ident_list(cur, "type class")
                cur.expect_end()
                axioms.append(IndividualDecl(ind, tuple(types), file=file_name, line=ln))
            elif head == "class":
                cls = cur.take("ident", "class name")[1]
                parents: list[str] = []
                if cur.at_keyword("sub"):
                    cur.pos += 1
                    parents = _take_ident_list(cur, "parent class")
                cur.expect_end()
                if cls not in declared_classes:
                    declared_classes.add(cls)
                    axioms.append(ClassDecl(cls, file=file_name, line=ln))
                axioms.extend(SubClassOf(cls, p, file=file_name, line=ln) for p in parents)
            elif head == "objprop":
                prop = cur.take("ident", "property name")[1]
                domain = rng = None
                if cur.at_keyword("domain"):
                    cur.pos += 1
                    domain = cur.take("ident", "domain class")[1]
                if cur.at_keyword("range"):
                    cur.pos += 1
                    rng = cur.take("ident", "range class")[1]
                cur.expect_end()
                axioms.append(ObjPropDecl(prop, domain, rng, file=file_name, line=ln))
            elif head == "dataprop":
                axioms.append(_parse_dataprop(cur, file_name, ln))
            elif head == "ontology":
                tok = cur.take("ident", "ontology name")
                cur.expect_end()
                if have_header:
                    raise _LineError("duplicate ontology header", head_col)
                name = tok[1]
                have_header = True
            else:
                raise _LineError(f"unknown statement {head!r}", head_col)
        except _LineError as exc:
            diags.append(
                error(exc.code, f"{exc.message} (column {exc.col})", file_name, ln)
            )
    return ParseResult(name, axioms, diags)


def serialize_oft(o: Ontology) -> str:
    """Canonical OFT text: header line first, then one axiom per line.

    Output is byte-deterministic; re-parsing reproduces the canonical
    axiom set exactly.
    """
    lines = [f"ontology {o.name}"]
    lines.extend(ax.to_oft() for ax in canonical_axioms(o))
    return "\n".join(lines) + "\n"


def load_sources(
    sources: Iterable[tuple[str, str]],
) -> tuple[Optional[Ontology], list[Diagnostic]]:
    """Parse (file_name, text) pairs into one ontology.

    Axiom streams are concatenated in argument order; the first source's
    header names the result. Parse errors suppress the build step so
    cascading reference errors are not reported.
    """
    name: Optional[str] = None
    axioms: list[Axiom] = []
    diags: list[Diagnostic] = []
    provenance: list[str] = []
    for file_name, text in sources:
        result = parse_oft(text, file_name)
        if name is None:
            name = result.ontology_name
        axioms.extend(result.axioms)
        diags.extend(result.diagnostics)
        provenance.append(file_name)
    if diags:
        return None, sort_diagnostics(diags)
    onto, build_diags = build_ontology(name or "unnamed", axioms, provenance)
    return onto, sort_diagnostics(build_diags)
