"""Ontology Fixture Text (OFT): a line-oriented declarative ontology format.

One statement per line, `#` comments, forward references allowed within a
file. Parsing is total: malformed lines become diagnostics and are skipped,
no input ever raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Iterator, Optional

from .model import (
    Axiom,
    BOOLEANS,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    Diagnostic,
    E_SYNTAX,
    FacetError,
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
_SPECIAL_KINDS = frozenset({"end", "word", "quoted", "closed"})
# Backslashes pair off from the left, so skipping whole valid escapes finds
# the first backslash that escapes neither a quote nor a backslash.
_INVALID_ESCAPE = re.compile(r'(?:[^\\]|\\["\\])*\\([^"\\])', re.S)
_ESCAPE = re.compile(r"\\(.)", re.S)

# The lexical syntax that the token patterns and the OFT statement pattern
# share. `stop` is a language's punctuation and comment characters, escaped.


def _word_end(stop: str) -> str:
    """Lookahead for the end of a word: a blank, a quote, a stop character
    or the end of the text."""
    return rf'(?=[ \t"{stop}]|\Z)'


def _ident(stop: str, keywords: tuple[str, ...] = ()) -> str:
    """An identifier that is not a reserved word; a word end must follow it."""
    reserved = "|".join((BOOLEANS,) + keywords)
    return rf"(?!(?:{reserved}){_word_end(stop)}){IDENT}"


def _word(kind: str, stop: str) -> str:
    """A whole word of any other shape, in group `kind`."""
    return rf'(?P<{kind}>[^ \t"{stop}]+)'


def token_pattern(
    punctuation: dict[str, str], keywords: tuple[str, ...] = (), comment: str = ""
) -> re.Pattern[str]:
    """Compile the token pattern of a language of words, quoted strings and
    one-character punctuation, separated by spaces and tabs.

    A word runs up to the next separator, quote, punctuation or comment
    character. The pattern classifies it as identifier, boolean, keyword or
    number; any other word is a `word`, which the scanner accepts only as a
    date-time. A string matches `quoted`, plus `closed` when it is closed;
    the scanner checks its escapes and unescapes its body. Every
    match takes the blanks before it, and `end` matches a comment or the
    blanks at the end of the text, so no character is skipped unseen.
    """
    stop = re.escape("".join(punctuation) + comment)
    end = _word_end(stop)
    alternatives = [
        rf"(?P<ident>{_ident(stop, keywords)}){end}",
        *(f"(?P<{kind}>{re.escape(ch)})" for ch, kind in punctuation.items()),
        r'"(?P<quoted>[^"\\]*(?:\\.[^"\\]*)*)(?P<closed>")?',
        rf"(?P<boolean>{BOOLEANS}){end}",
    ]
    if keywords:
        alternatives.append(rf"(?P<keyword>{'|'.join(keywords)}){end}")
    alternatives += [
        rf"(?P<number>{NUMBER}){end}",
        _word("word", stop),
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
        elif kind == "word":
            word = m.group(kind)
            if not is_datetime(word):
                raise fault(f"bad token {word!r}", m.start(kind) + 1)
            tokens.append(("datetime", word, m.start(kind) + 1))
        else:
            col = m.start("quoted")  # the body's 0-based start: the quote's column
            body = m.group("quoted")
            bad = _INVALID_ESCAPE.match(body)
            if bad is not None:
                raise fault(f"invalid escape \\{bad.group(1)}", col + bad.end() - 1)
            if kind != "closed":
                raise fault("unterminated string", col)
            tokens.append(("string", _ESCAPE.sub(r"\1", body), col))
    return tokens


_OFT_PUNCTUATION = {",": "comma"}
_OFT_COMMENT = "#"
_OFT_TOKENS = token_pattern(_OFT_PUNCTUATION, comment=_OFT_COMMENT)


def _statement_pattern() -> re.Pattern[str]:
    """Compile the pattern of a whole OFT line that is blank, a comment, or
    a well-formed `rel`, `attr`, `individual` or `class` statement.

    Words, literals and separators are those of `_OFT_TOKENS`. A string may
    hold only the escapes `\\"` and `\\\\`; a value word that is neither a
    boolean nor a number is taken as a date-time, which `Literal` checks.
    The line's `Match.lastgroup` names what it holds: `rel`, `individual`,
    `class`, None for a blank line or a comment, and for an `attr` line,
    which has no group of its own, the literal kind of its value.
    """
    stop = re.escape("".join(_OFT_PUNCTUATION) + _OFT_COMMENT)
    end = _word_end(stop)
    # A blank, a comma or the end of the line follows every name, so each
    # is a whole word.
    name = _ident(stop)
    names = rf"{name}(?:[ \t]*,[ \t]*{name})*"
    value = "|".join([
        r'"(?P<string>[^"\\]*(?:\\["\\][^"\\]*)*)"',
        rf"(?P<boolean>{BOOLEANS}){end}",
        rf"(?P<number>{NUMBER}){end}",
        _word("datetime", stop),
    ])
    statement = "|".join([
        rf"(?P<rel>rel[ \t]+(?P<rel_subject>{name})[ \t]+(?P<rel_prop>{name})"
        rf"[ \t]+(?P<rel_object>{name}))",
        rf"attr[ \t]+(?P<attr_subject>{name})[ \t]+(?P<attr_prop>{name})[ \t]+(?:{value})",
        rf"(?P<individual>individual[ \t]+(?P<individual_name>{name})[ \t]+type"
        rf"[ \t]+(?P<types>{names}))",
        rf"(?P<class>class[ \t]+(?P<class_name>{name})(?:[ \t]+sub[ \t]+(?P<parents>{names}))?)",
    ])
    comment = re.escape(_OFT_COMMENT)
    return re.compile(rf"[ \t]*(?:{statement})?[ \t]*(?:{comment}.*)?", re.S)


_STATEMENT = _statement_pattern()


def _names(text: str) -> list[str]:
    """The identifiers of a comma-separated list the statement pattern matched."""
    return [n.strip(" \t") for n in text.split(",")]


def _lines(source: str) -> Iterator[str]:
    """The lines of `source` without their LF or CRLF ends."""
    lines = source.split("\n")
    if lines and lines[-1] == "":
        lines.pop()
    for raw in lines:
        yield raw[:-1] if raw.endswith("\r") else raw


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


def _take_literal(cur: _Cursor, literal: Callable[[str, str], Literal]) -> Literal:
    tok = cur.peek()
    if tok is None or tok[0] not in LITERAL_KINDS:
        raise _LineError("expected a literal value", tok[2] if tok else cur.end_col)
    cur.pos += 1
    try:
        return literal(tok[0], tok[1])
    except ValueError as exc:  # a line break in a string, a number out of range
        raise _LineError(str(exc), tok[2]) from None


def _take_ident_list(cur: _Cursor, what: str) -> list[str]:
    names = [cur.take("ident", what)[1]]
    while cur.at_comma():
        cur.pos += 1
        names.append(cur.take("ident", what)[1])
    return names


def _parse_dataprop(
    cur: _Cursor, file_name: str, ln: int, literal: Callable[[str, str], Literal]
) -> DataPropDecl:
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
        allowed = [_take_literal(cur, literal)]
        while cur.at_comma():
            cur.pos += 1
            allowed.append(_take_literal(cur, literal))
    # The facet is checked before the rest of the line is read, so its fault
    # is the one reported when the line has several.
    try:
        facet = FacetSpec(vtype, tuple(allowed) if allowed is not None else None)
    except FacetError as exc:
        raise _LineError(exc.message, vt_col, exc.code) from None
    if cur.at_keyword("card"):
        cur.pos += 1
        _, card_text, card_col = cur.take("ident", "'single' or 'multiple'")
        if card_text not in ("single", "multiple"):
            raise _LineError(f"expected 'single' or 'multiple', got {card_text!r}", card_col)
        facet = replace(facet, cardinality=Cardinality(card_text))
    cur.expect_end()
    return DataPropDecl(name, facet, domain, file=file_name, line=ln)


class _Reader:
    """What parsing one OFT file has found so far."""

    __slots__ = (
        "file", "name", "have_header", "declared_classes", "literals", "axioms", "diagnostics"
    )

    def __init__(self, file_name: str):
        self.file = file_name
        self.name = "unnamed"
        self.have_header = False
        self.declared_classes: set[str] = set()
        self.literals: dict[tuple[ValueType, str], Literal] = {}
        self.axioms: list[Axiom] = []
        self.diagnostics: list[Diagnostic] = []

    def literal(self, kind: str, lexical: str) -> Literal:
        """The literal of a token kind and lexical form, built once per file:
        values repeat, and literals are immutable. Raises `ValueError`, and
        stores nothing, when `Literal` rejects the value."""
        value_type = LITERAL_KINDS[kind]
        lit = self.literals.get((value_type, lexical))
        if lit is None:
            lit = self.literals[value_type, lexical] = Literal(value_type, lexical)
        return lit

    def class_line(self, cls: str, parents: list[str], ln: int) -> None:
        """A `class` line declares its class once per file."""
        if cls not in self.declared_classes:
            self.declared_classes.add(cls)
            self.axioms.append(ClassDecl(cls, file=self.file, line=ln))
        self.axioms.extend(SubClassOf(cls, p, file=self.file, line=ln) for p in parents)

    def matched_line(self, m: re.Match[str], ln: int) -> bool:
        """Add the axioms of a line `_STATEMENT` matched; False, with nothing
        added, when its literal is not representable."""
        head = m.lastgroup
        if head == "rel":
            subject, prop, obj = m.group("rel_subject", "rel_prop", "rel_object")
            self.axioms.append(ObjAssertion(subject, prop, obj, file=self.file, line=ln))
        elif head == "individual":
            ind, types = m["individual_name"], tuple(_names(m["types"]))
            self.axioms.append(IndividualDecl(ind, types, file=self.file, line=ln))
        elif head == "class":
            parents = m["parents"]
            self.class_line(m["class_name"], _names(parents) if parents else [], ln)
        elif head is not None:  # an `attr` line: `head` is its value's kind
            lexical = m[head]
            if head == "string" and "\\" in lexical:
                lexical = _ESCAPE.sub(r"\1", lexical)
            try:
                value = self.literal(head, lexical)
            except ValueError:  # a line break, a number out of range, not a date
                return False
            self.axioms.append(
                DataAssertion(m["attr_subject"], m["attr_prop"], value, file=self.file, line=ln)
            )
        return True

    def token_line(self, line: str, ln: int) -> None:
        """Parse one line through the token path: its axioms, or the
        diagnostic of its first fault. It reads every kind of statement and
        is the only code that reports faults; the statement pattern is a
        shortcut past it for well-formed lines."""
        try:
            tokens = scan(_OFT_TOKENS, line, _LineError)
            if not tokens:
                return
            kind, head, head_col = tokens[0]
            if kind != "ident":
                raise _LineError(f"expected statement keyword, got {head!r}", head_col)
            cur = _Cursor(tokens, len(line))
            if head == "rel":
                subj = cur.take("ident", "subject")[1]
                prop = cur.take("ident", "property")[1]
                obj = cur.take("ident", "object")[1]
                cur.expect_end()
                self.axioms.append(ObjAssertion(subj, prop, obj, file=self.file, line=ln))
            elif head == "attr":
                subj = cur.take("ident", "subject")[1]
                prop = cur.take("ident", "property")[1]
                value = _take_literal(cur, self.literal)
                cur.expect_end()
                self.axioms.append(DataAssertion(subj, prop, value, file=self.file, line=ln))
            elif head == "individual":
                ind = cur.take("ident", "individual name")[1]
                cur.take_keyword("type")
                types = _take_ident_list(cur, "type class")
                cur.expect_end()
                self.axioms.append(IndividualDecl(ind, tuple(types), file=self.file, line=ln))
            elif head == "class":
                cls = cur.take("ident", "class name")[1]
                parents: list[str] = []
                if cur.at_keyword("sub"):
                    cur.pos += 1
                    parents = _take_ident_list(cur, "parent class")
                cur.expect_end()
                self.class_line(cls, parents, ln)
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
                self.axioms.append(ObjPropDecl(prop, domain, rng, file=self.file, line=ln))
            elif head == "dataprop":
                self.axioms.append(_parse_dataprop(cur, self.file, ln, self.literal))
            elif head == "ontology":
                tok = cur.take("ident", "ontology name")
                cur.expect_end()
                if self.have_header:
                    raise _LineError("duplicate ontology header", head_col)
                self.name = tok[1]
                self.have_header = True
            else:
                raise _LineError(f"unknown statement {head!r}", head_col)
        except _LineError as exc:
            self.diagnostics.append(
                error(exc.code, f"{exc.message} (column {exc.col})", self.file, ln)
            )


def parse_oft(source: str, file_name: str = "<input>") -> ParseResult:
    """Parse OFT text into axioms with source locations. Never raises.

    A line that `_STATEMENT` matches builds its axioms from the match. Every
    other line, and a matched line whose literal is not representable, goes
    through the token path, which finds the same axioms or reports the fault.
    """
    reader = _Reader(file_name)
    for ln, line in enumerate(_lines(source), 1):
        m = _STATEMENT.fullmatch(line)
        if m is None or not reader.matched_line(m, ln):
            reader.token_line(line, ln)
    return ParseResult(reader.name, reader.axioms, reader.diagnostics)


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
