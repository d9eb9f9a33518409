"""Ontology Fixture Text (OFT): a line-oriented declarative ontology format.

One statement per line, `#` comments, forward references allowed within a
file. Parsing is total: malformed lines become diagnostics and are skipped,
no input ever raises.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, replace
from typing import Callable, Iterable, Optional, TypeVar

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
    Fault,
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
    canonical_groups,
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

_T = TypeVar("_T")

# Group names of `token_pattern` that `scan` handles itself; every other
# kind, a caller's punctuation included, is a plain token.
_SPECIAL_KINDS = frozenset({"end", "word", "quoted", "closed"})
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
    date-time. A string matches `quoted`, plus `closed` when it is closed;
    the scanner checks its escapes and unescapes its body. Every
    match takes the blanks before it, and `end` matches a comment or the
    blanks at the end of the text, so no character is skipped unseen.
    """
    stop = re.escape("".join(punctuation) + comment)
    end = rf'(?=[ \t"{stop}]|\Z)'  # a blank, a quote, a stop character or the end
    reserved = "|".join((BOOLEANS,) + keywords)
    alternatives = [
        rf"(?P<ident>(?!(?:{reserved}){end}){IDENT}){end}",
        *(f"(?P<{kind}>{re.escape(ch)})" for ch, kind in punctuation.items()),
        r'"(?P<quoted>[^"\\]*(?:\\.[^"\\]*)*)(?P<closed>")?',
        rf"(?P<boolean>{BOOLEANS}){end}",
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
            tokens.append(("string", _ESCAPE.sub(r"\1", body) if "\\" in body else body, col))
    return tokens


_OFT_PUNCTUATION = {",": "comma"}
_OFT_COMMENT = "#"
_OFT_TOKENS = token_pattern(_OFT_PUNCTUATION, comment=_OFT_COMMENT)


def _line_pattern() -> re.Pattern[str]:
    """Compile the pattern of one line of OFT text and its line break, for
    `finditer` over a whole text. `lastgroup` tells what the line is:
    `object` for a well-formed `rel` line, `value` for an `attr` line,
    `individual` or `class` for those heads, None for a blank or comment
    line, and `other`, the whole line, for any other. Other groups are read
    by number: 2 and 3 are both assertions' subject and property, 7 and 8
    the individual and its types, 10 and 11 the class and its parents.

    A name is an identifier but not a reserved word; the blank, comma,
    comment or line end that must follow it ends it. An `attr` value is one
    word or closed string (escapes `\\"` and `\\\\` only): one token of
    `_OFT_TOKENS`, which `_Values` reads, so the literal grammar is written
    only in `token_pattern`.
    """
    stop = re.escape("".join(_OFT_PUNCTUATION) + _OFT_COMMENT) + r"\n"
    name = rf"(?!(?:{BOOLEANS})(?:[ \t{stop}]|\Z)){IDENT}"
    names = rf"{name}(?:[ \t]*,[ \t]*{name})*"
    heads = "|".join([
        # Both assertions name a subject and a property before their object.
        rf"(?:(rel)|attr)[ \t]+({name})[ \t]+({name})[ \t]+(?(1)(?P<object>{name})|"
        rf'(?P<value>"[^"\\\n]*(?:\\["\\][^"\\\n]*)*"|[^ \t"{stop}]+))',
        rf"(?P<individual>individual[ \t]+({name})[ \t]+type[ \t]+({names}))",
        rf"(?P<class>class[ \t]+({name})(?:[ \t]+sub[ \t]+({names}))?)",
    ])
    comment = rf"(?:{re.escape(_OFT_COMMENT)}[^\n]*)?"
    return re.compile(
        rf"(?:[ \t]*(?:(?:{heads})[ \t]*{comment}|{comment})|(?P<other>[^\n]+))(?:\n|\Z)"
    )


_LINE = _line_pattern()
_SPLIT_NAMES = re.compile(r"[ \t]*,[ \t]*").split


@dataclass
class ParseResult:
    ontology_name: str
    axioms: list[Axiom]
    diagnostics: list[Diagnostic]


class SyntaxFault(Fault):
    """A malformed OFT line or query; `column` is 1-based. Its text is
    `message (column N)`, as every syntax diagnostic shows it."""

    def __init__(self, message: str, column: int, code: str = E_SYNTAX):
        super().__init__(code, message)
        self.column = column

    def __str__(self) -> str:
        return f"{self.message} (column {self.column})"


class TokenCursor:
    """A reading position in the tokens of one OFT line or one query.

    The tokens end with an `end` token at the column after the text, so a
    reader never runs past them. Every fault is `fault(message, column)`.
    """

    __slots__ = ("tokens", "pos", "fault")

    def __init__(
        self, text: str, pattern: re.Pattern[str], fault: Callable[[str, int], SyntaxFault]
    ):
        self.tokens = scan(pattern, text, fault)
        self.tokens.append(("end", "", len(text) + 1))
        self.pos = 0
        self.fault = fault

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def fail(self, message: str) -> SyntaxFault:
        """The fault `message` at the next token."""
        return self.fault(message, self.tokens[self.pos][2])

    def expected(self, what: str) -> SyntaxFault:
        """The fault of a next token that is not `what`."""
        kind, text, col = self.tokens[self.pos]
        got = "" if kind == "end" else f", got {text!r}"
        return self.fault(f"expected {what}{got}", col)

    def at(self, kind: str, text: Optional[str] = None) -> bool:
        tok = self.tokens[self.pos]
        return tok[0] == kind and (text is None or tok[1] == text)

    def skip(self, kind: str, text: Optional[str] = None) -> bool:
        """Step past the next token if it is `kind` (and `text`); whether it did.
        The test is `at`'s, written out: the query parser calls this several
        times per term."""
        tok = self.tokens[self.pos]
        if tok[0] == kind and (text is None or tok[1] == text):
            self.pos += 1
            return True
        return False

    def take(self, kind: str, what: str) -> str:
        """The text of the next token, which must be `kind`; `what` names it."""
        tok = self.tokens[self.pos]
        if tok[0] != kind:
            raise self.expected(what)
        self.pos += 1
        return tok[1]

    def take_keyword(self, *words: str) -> str:
        """The next token, which must be an identifier among `words`."""
        kind, text, _ = self.tokens[self.pos]
        if kind != "ident" or text not in words:
            raise self.expected(" or ".join(map(repr, words)))
        self.pos += 1
        return text

    def take_list(self, item: Callable[[], _T]) -> list[_T]:
        """One or more `item()`s, separated by commas."""
        items = [item()]
        while self.skip("comma"):
            items.append(item())
        return items

    def literal(self, make: Callable[[ValueType, str], Literal]) -> Literal:
        """The next token as `make(value type, lexical form)`; a `ValueError`
        of `make` (a line break in a string, a number out of range) is a
        fault at the token."""
        kind, text, col = self.tokens[self.pos]
        if kind not in LITERAL_KINDS:
            raise self.fail("expected a literal value")
        self.pos += 1
        try:
            return make(LITERAL_KINDS[kind], text)
        except ValueError as exc:
            raise self.fault(str(exc), col) from None

    def expect_end(self, what: str) -> None:
        """Fail unless every token has been read; `what` names a token left over."""
        kind, text, col = self.tokens[self.pos]
        if kind != "end":
            raise self.fault(f"unexpected {what} {text!r}", col)


def _parse_dataprop(
    cur: TokenCursor, file_name: str, ln: int, literal: Callable[[ValueType, str], Literal]
) -> DataPropDecl:
    name = cur.take("ident", "property name")
    domain = cur.take("ident", "domain class") if cur.skip("ident", "domain") else None
    cur.take_keyword("type")
    vt_col = cur.peek()[2]
    vt_text = cur.take("ident", "value type")
    vtype = _VTYPE_KEYWORDS.get(vt_text)
    if vtype is None:
        raise SyntaxFault(f"unknown value type {vt_text!r}", vt_col)
    allowed = cur.take_list(lambda: cur.literal(literal)) if cur.skip("ident", "allowed") else None
    # The facet is checked before the rest of the line is read, so its fault
    # is the one reported when the line has several.
    try:
        facet = FacetSpec(vtype, tuple(allowed) if allowed is not None else None)
    except FacetError as exc:
        raise SyntaxFault(exc.message, vt_col, exc.code) from None
    if cur.skip("ident", "card"):
        facet = replace(facet, cardinality=Cardinality(cur.take_keyword("single", "multiple")))
    return DataPropDecl(name, facet, domain, file=file_name, line=ln)


class _Literals(dict):
    """Each (value type, lexical form)'s literal, built on its first read; a
    `ValueError` of `Literal` propagates and stores nothing."""

    def __missing__(self, key: tuple[ValueType, str]) -> Literal:
        value = self[key] = Literal(*key)
        return value


class _Values(dict):
    """Each raw `attr` value text's literal from `literals`, the text read
    once as `scan` reads it; None, which sends the line to the token path to
    report the fault, when it is no literal or `Literal` rejects it."""

    def __init__(self, literals: _Literals):
        self.literals = literals

    def __missing__(self, text: str) -> Optional[Literal]:
        if text[0] == '"':  # a closed string: `_LINE` admits only valid escapes
            kind, lexical = "string", text[1:-1]
            lexical = _ESCAPE.sub(r"\1", lexical) if "\\" in lexical else lexical
        else:  # one word: one token
            m = _OFT_TOKENS.fullmatch(text)
            kind, lexical = m.lastgroup, m[m.lastgroup]
            kind = "datetime" if kind == "word" else kind
        try:
            value = self.literals[LITERAL_KINDS[kind], lexical]
        except (ValueError, KeyError):  # a rejected literal, or an identifier
            value = None
        self[text] = value
        return value


class _Reader:
    """What parsing one OFT file has found so far."""

    __slots__ = (
        "file", "name", "have_header", "declared_classes", "literals", "values", "axioms",
        "diagnostics",
    )

    def __init__(self, file_name: str):
        self.file = file_name
        self.name = "unnamed"
        self.have_header = False
        self.declared_classes: set[str] = set()
        self.literals = _Literals()
        self.values = _Values(self.literals)
        self.axioms: list[Axiom] = []
        self.diagnostics: list[Diagnostic] = []

    def literal(self, value_type: ValueType, lexical: str) -> Literal:
        """`literals[value_type, lexical]`, for the token path."""
        return self.literals[value_type, lexical]

    def class_line(self, cls: str, parents: Iterable[str], ln: int) -> None:
        """A `class` line, matched by `_LINE` or read by the token path,
        declares its class once per file and subclasses it of each parent."""
        append, file = self.axioms.append, self.file
        if cls not in self.declared_classes:
            self.declared_classes.add(cls)
            append(ClassDecl.make(cls, file, ln))
        for parent in parents:
            append(SubClassOf.make(cls, parent, file, ln))

    def read(self, source: str) -> None:
        """Add the axioms of every line of `source`, read in one scan by
        `_LINE` after CRLF ends become LF. A blank or comment line holds
        none. A well-formed `rel`, `attr`, `individual` or `class` line
        builds its axioms from the match's groups; every other line (any
        other statement, a malformed one) and an `attr` line whose value
        text `values` holds no literal for goes through `token_line`, which
        finds the same axioms or reports the fault."""
        # A line's final CR goes: the one before each LF, and one at the end.
        source = source.replace("\r\n", "\n").removesuffix("\r")
        file, append, values = self.file, self.axioms.append, self.values
        rel, attr, individual = ObjAssertion.make, DataAssertion.make, IndividualDecl.make
        for ln, m in enumerate(_LINE.finditer(source), 1):
            head = m.lastgroup
            if head == "object":  # a `rel` line
                append(rel(m[2], m[3], m[4], file, ln))
            elif head == "value":  # an `attr` line
                value = values[m[5]]
                if value is None:
                    self.token_line(m[0].rstrip("\n"), ln)
                else:
                    append(attr(m[2], m[3], value, file, ln))
            elif head == "individual":
                names = m[8]
                types = tuple(_SPLIT_NAMES(names)) if "," in names else (names,)
                append(individual(m[7], types, file, ln))
            elif head == "class":
                parents = m[11]
                if parents is not None:  # the split costs more than the test
                    parents = _SPLIT_NAMES(parents) if "," in parents else (parents,)
                self.class_line(m[10], parents or (), ln)
            elif head == "other":
                self.token_line(m[head], ln)

    def token_line(self, line: str, ln: int) -> None:
        """Parse one line through the token path: its axioms, or the
        diagnostic of its first fault. It reads every kind of statement with
        a `TokenCursor` and is the only code that reports faults, each a
        `SyntaxFault`; the line pattern is a shortcut past it for
        well-formed lines."""
        try:
            cur = TokenCursor(line, _OFT_TOKENS, SyntaxFault)
            if cur.at("end"):
                return
            head_col = cur.peek()[2]
            head = cur.take("ident", "statement keyword")
            ax: Axiom
            if head == "rel":
                subj, prop = cur.take("ident", "subject"), cur.take("ident", "property")
                ax = ObjAssertion(subj, prop, cur.take("ident", "object"), file=self.file, line=ln)
            elif head == "attr":
                subj, prop = cur.take("ident", "subject"), cur.take("ident", "property")
                ax = DataAssertion(subj, prop, cur.literal(self.literal), file=self.file, line=ln)
            elif head == "individual":
                ind = cur.take("ident", "individual name")
                cur.take_keyword("type")
                types = cur.take_list(lambda: cur.take("ident", "type class"))
                ax = IndividualDecl(ind, tuple(types), file=self.file, line=ln)
            elif head == "class":
                cls = cur.take("ident", "class name")
                parents: list[str] = []
                if cur.skip("ident", "sub"):
                    parents = cur.take_list(lambda: cur.take("ident", "parent class"))
                cur.expect_end("trailing token")
                self.class_line(cls, parents, ln)
                return
            elif head == "objprop":
                prop = cur.take("ident", "property name")
                domain = cur.take("ident", "domain class") if cur.skip("ident", "domain") else None
                rng = cur.take("ident", "range class") if cur.skip("ident", "range") else None
                ax = ObjPropDecl(prop, domain, rng, file=self.file, line=ln)
            elif head == "dataprop":
                ax = _parse_dataprop(cur, self.file, ln, self.literal)
            elif head == "ontology":
                name = cur.take("ident", "ontology name")
                cur.expect_end("trailing token")
                if self.have_header:
                    raise SyntaxFault("duplicate ontology header", head_col)
                self.name = name
                self.have_header = True
                return
            else:
                raise SyntaxFault(f"unknown statement {head!r}", head_col)
            cur.expect_end("trailing token")
            self.axioms.append(ax)
        except SyntaxFault as fault:
            self.diagnostics.append(fault.diagnostic(self.file, ln))


def parse_oft(source: str, file_name: str = "<input>") -> ParseResult:
    """Parse OFT text into axioms with source locations. Never raises."""
    reader = _Reader(file_name)
    reader.read(source)
    return ParseResult(reader.name, reader.axioms, reader.diagnostics)


def serialize_oft(o: Ontology) -> str:
    """Canonical OFT text: header line first, then one axiom per line.

    Output is byte-deterministic; re-parsing reproduces the canonical
    axiom set exactly.
    """
    lines = [f"ontology {o.name}"]
    for written, _ in canonical_groups(o):
        lines += written
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
    for file_name, text in sources:
        result = parse_oft(text, file_name)
        if name is None:
            name = result.ontology_name
        axioms.extend(result.axioms)
        diags.extend(result.diagnostics)
    if diags:
        return None, sort_diagnostics(diags)
    return build_ontology(name or "unnamed", axioms)
