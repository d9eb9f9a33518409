"""OFT parsing, serialization, and round-trip behaviour."""

from __future__ import annotations

import io
import random
import re
from contextlib import redirect_stdout
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from ontokit import cli, oft
from ontokit.corpus import corpus_paths
from ontokit.dlquery import Named, QueryMode, eval_query
from ontokit.exchange import export_dot
from ontokit.model import (
    E_ALLOWED_VALUE,
    E_CARD_SINGLE,
    E_TYPE_MISMATCH,
    THING,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    IndividualDecl,
    Literal,
    ObjAssertion,
    ObjPropDecl,
    SubClassOf,
    ValueType,
    build_ontology,
    canonical_axioms,
    is_ident,
)
from ontokit.oft import _OFT_TOKENS, _Reader, load_sources, parse_oft, scan, serialize_oft
from ontokit.reasoner import compute_closure, realize
from ontokit.validator import validate


def parse_clean(source):
    result = parse_oft(source, "test.oft")
    assert result.diagnostics == [], result.diagnostics
    return result


def roundtrip_identities(onto):
    text = serialize_oft(onto)
    result = parse_oft(text, "<roundtrip>")
    assert result.diagnostics == []
    rebuilt, diags = build_ontology(result.ontology_name, result.axioms)
    assert rebuilt is not None, diags
    return (
        [bruteforce.identity(ax) for ax in canonical_axioms(onto)],
        [bruteforce.identity(ax) for ax in canonical_axioms(rebuilt)],
    )


class TestStatements:
    def test_class_with_sub_auto_declares(self):
        result = parse_clean("class Date_fruit\nclass Dates sub Date_fruit\n")
        assert result.axioms == [
            ClassDecl("Date_fruit", file="test.oft", line=1),
            ClassDecl("Dates", file="test.oft", line=2),
            SubClassOf("Dates", "Date_fruit", file="test.oft", line=2),
        ]

    def test_seen_class_not_redeclared(self):
        result = parse_clean("class A\nclass A sub B\nclass B\n")
        decls = [ax.name for ax in result.axioms if isinstance(ax, ClassDecl)]
        assert decls == ["A", "B"]

    def test_multiple_parents(self):
        result = parse_clean("class A\nclass B\nclass C sub A, B\n")
        parents = [ax.parent for ax in result.axioms if isinstance(ax, SubClassOf)]
        assert parents == ["A", "B"]

    def test_attr_statement(self):
        result = parse_clean('attr Barhee has_common_name "honey balls"\n')
        assert result.axioms == [
            DataAssertion(
                "Barhee",
                "has_common_name",
                Literal(ValueType.STRING, "honey balls"),
                file="test.oft",
                line=1,
            )
        ]

    def test_rel_statement(self):
        result = parse_clean("rel Barhee has_composition Iron\n")
        assert result.axioms == [
            ObjAssertion("Barhee", "has_composition", "Iron", file="test.oft", line=1)
        ]

    def test_objprop_clauses(self):
        result = parse_clean("objprop p domain A range B\nobjprop q\n")
        assert result.axioms[0] == ObjPropDecl("p", "A", "B", file="test.oft", line=1)
        assert result.axioms[1] == ObjPropDecl("q", None, None, file="test.oft", line=2)

    def test_dataprop_full_clause(self):
        result = parse_clean(
            'dataprop p domain A type string allowed "x", "y" card multiple\n'
        )
        (ax,) = result.axioms
        assert isinstance(ax, DataPropDecl)
        assert ax.domain == "A"
        assert ax.facet.value_type is ValueType.STRING
        assert [v.lexical for v in ax.facet.allowed] == ["x", "y"]
        assert ax.facet.cardinality is Cardinality.MULTIPLE

    def test_dataprop_defaults_to_single_cardinality(self):
        (ax,) = parse_clean("dataprop p type number\n").axioms
        assert ax.facet.cardinality is Cardinality.SINGLE
        assert ax.facet.allowed is None

    def test_individual_types(self):
        (ax,) = parse_clean("individual i type A, B\n").axioms
        assert ax == IndividualDecl("i", ("A", "B"), file="test.oft", line=1)

    def test_literal_forms(self):
        result = parse_clean(
            "attr i p 1930\nattr i p true\nattr i p 2020-01-01\nattr i p -2.5\n"
        )
        types = [ax.value.value_type for ax in result.axioms]
        assert types == [
            ValueType.NUMBER,
            ValueType.BOOLEAN,
            ValueType.DATETIME,
            ValueType.NUMBER,
        ]

    def test_comments_and_blank_lines(self):
        result = parse_clean("# header\n\nclass A  # trailing\n   \n")
        assert [type(ax).__name__ for ax in result.axioms] == ["ClassDecl"]

    def test_crlf_accepted(self):
        result = parse_clean("ontology t\r\nclass A\r\n")
        assert result.ontology_name == "t"
        assert len(result.axioms) == 1

    def test_empty_input(self):
        result = parse_clean("")
        assert result.ontology_name == "unnamed"
        assert result.axioms == []


class TestDiagnostics:
    def test_unknown_keyword_skips_line(self):
        result = parse_oft("clazz X\n", "f.oft")
        assert result.axioms == []
        assert [(d.code, d.line) for d in result.diagnostics] == [("E_SYNTAX", 1)]

    def test_location_points_at_offending_statement(self):
        source = "class A\nclazz B\nclass C\nattr i p\n"
        result = parse_oft(source, "f.oft")
        lines = source.split("\n")
        assert [d.line for d in result.diagnostics] == [2, 4]
        for d in result.diagnostics:
            assert lines[d.line - 1].startswith(("clazz", "attr"))

    def test_bad_lines_do_not_stop_good_ones(self):
        result = parse_oft("class A\n???\nclass B\n", "f.oft")
        assert [ax.name for ax in result.axioms] == ["A", "B"]
        assert len(result.diagnostics) == 1

    def test_enum_without_allowed(self):
        result = parse_oft("dataprop p type enum\n", "f.oft")
        assert result.axioms == []
        assert result.diagnostics[0].code == "E_SYNTAX"

    def test_nonconforming_allowed_value(self):
        result = parse_oft('dataprop p type number allowed "x"\n', "f.oft")
        assert result.axioms == []
        assert result.diagnostics[0].code == "E_TYPE_MISMATCH"

    def test_duplicate_allowed_value(self):
        result = parse_oft("dataprop p type number allowed 1, 1.0\n", "f.oft")
        assert result.axioms == []
        assert result.diagnostics[0].code == "E_SYNTAX"

    def test_facet_faults_in_value_order(self):
        """Each allowed value is checked for a repeat, then for conformance,
        before the rest of the line is read."""
        source = (
            'dataprop p type number allowed "x", 1, 1\n'
            'dataprop q type number allowed 1, 1, "x"\n'
            "dataprop r type enum card bogus\n"
            "dataprop s type number allowed 1, 1.0 card bogus\n"
        )
        result = parse_oft(source, "f.oft")
        assert [(d.code, d.message) for d in result.diagnostics] == [
            ("E_TYPE_MISMATCH", "allowed value 'x' does not conform to number (column 17)"),
            ("E_SYNTAX", "duplicate allowed value '1' (column 17)"),
            ("E_SYNTAX", "enum type requires an allowed-values list (column 17)"),
            ("E_SYNTAX", "duplicate allowed value '1.0' (column 17)"),
        ]

    def test_value_type_and_cardinality_words(self):
        result = parse_oft(
            "dataprop p type money\ndataprop q type number card bogus\n", "f.oft"
        )
        assert result.axioms == []
        assert [(d.code, d.line, d.message) for d in result.diagnostics] == [
            ("E_SYNTAX", 1, "unknown value type 'money' (column 17)"),
            ("E_SYNTAX", 2, "expected 'single' or 'multiple', got 'bogus' (column 29)"),
        ]

    def test_duplicate_header(self):
        result = parse_oft("ontology a\nontology b\n", "f.oft")
        assert result.ontology_name == "a"
        assert [(d.code, d.line) for d in result.diagnostics] == [("E_SYNTAX", 2)]

    def test_unterminated_string(self):
        result = parse_oft('attr i p "oops\n', "f.oft")
        assert result.diagnostics[0].code == "E_SYNTAX"

    def test_invalid_escape(self):
        result = parse_oft('attr i p "a\\n"\n', "f.oft")
        assert result.diagnostics[0].code == "E_SYNTAX"

    def test_trailing_tokens(self):
        result = parse_oft("class A B\n", "f.oft")
        assert result.diagnostics[0].code == "E_SYNTAX"

    def test_unrepresentable_literal_is_a_diagnostic(self):
        source = (
            'attr i p "a\rb"\n'
            "attr i p 1e99999999999999999999\n"
            "dataprop p type number allowed 1, 1e99999999999999999999\n"
        )
        result = parse_oft(source, "f.oft")
        assert result.axioms == []
        assert [(d.code, d.line, d.message) for d in result.diagnostics] == [
            ("E_SYNTAX", 1, "literal may not contain line breaks (column 10)"),
            ("E_SYNTAX", 2, "not a finite decimal: '1e99999999999999999999' (column 10)"),
            ("E_SYNTAX", 3, "not a finite decimal: '1e99999999999999999999' (column 35)"),
        ]


class TestLiteralTable:
    def test_equal_values_share_one_literal(self):
        """N `attr` lines holding k distinct values give k literal objects,
        on the statement path and on the token path alike."""
        values = ['"honey"', "1930", "1930.0", "true", "2021-05-01", '"a\\"b"']
        source = "".join(f"attr i p {values[n % 6]}\n" for n in range(60))
        for axioms in (parse_clean(source).axioms, token_path_parse(source, "test.oft")[1]):
            literals = [ax.value for ax in axioms]
            assert len(literals) == 60
            assert len({id(v) for v in literals}) == 6
            # Equal values with different lexical forms stay distinct objects.
            assert literals[1] == literals[2] and literals[1] is not literals[2]

    def test_each_value_text_is_classified_once(self, monkeypatch):
        """600 `attr` lines holding 6 distinct value texts read each text
        once: each word is matched once against the token pattern, a string
        is known by its quotes, and only the 2 escaped strings unescape."""
        values = ['"honey"', '"a\\"b"', '"c\\\\d"', "1930", "true", "2021-05-01"]
        source = "".join(f"attr i{n} p {values[n % 6]}\n" for n in range(600))
        tokens_spy = mock.Mock(wraps=oft._OFT_TOKENS)
        escape_spy = mock.Mock(wraps=oft._ESCAPE)
        monkeypatch.setattr(oft, "_OFT_TOKENS", tokens_spy)
        monkeypatch.setattr(oft, "_ESCAPE", escape_spy)
        axioms = parse_clean(source).axioms
        assert sorted(call.args[0] for call in tokens_spy.fullmatch.call_args_list) == [
            "1930", "2021-05-01", "true"]
        assert escape_spy.sub.call_count <= 2
        lexicals = ["honey", 'a"b', "c\\d", "1930", "true", "2021-05-01"]
        assert [ax.value.lexical for ax in axioms[:6]] == lexicals
        assert len({id(ax.value) for ax in axioms}) == 6

    def test_allowed_values_share_the_table(self):
        result = parse_clean(
            'dataprop p type string allowed "x", "y"\ndataprop q type string allowed "y"\n'
            'attr i p "y"\n'
        )
        p, q, attr = result.axioms
        assert p.facet.allowed[1] is q.facet.allowed[0] is attr.value

    def test_nothing_kept_between_calls(self):
        first, second = (parse_clean('attr i p "x"\n').axioms[0].value for _ in range(2))
        assert first == second and first is not second

    def test_rejected_value_is_not_stored(self):
        result = parse_oft("attr i p 2020-02-30\nattr i p 2020-02-30\n", "test.oft")
        assert result.axioms == []
        assert [d.line for d in result.diagnostics] == [1, 2]


class TestSerialize:
    def test_empty_ontology(self):
        onto, _ = build_ontology("t", [])
        assert serialize_oft(onto) == "ontology t\n"

    def test_single_class(self):
        onto, _ = build_ontology("t", [ClassDecl("A")])
        assert serialize_oft(onto) == "ontology t\nclass A\n"

    def test_string_escapes_roundtrip(self):
        source = 'class A\ndataprop p type string\nindividual i type A\nattr i p "a\\"b\\\\c"\n'
        result = parse_clean(source)
        onto, _ = build_ontology("t", result.axioms)
        ids, rebuilt_ids = roundtrip_identities(onto)
        assert ids == rebuilt_ids

    def test_corpus_roundtrip(self, corpus):
        ids, rebuilt_ids = roundtrip_identities(corpus)
        assert ids == rebuilt_ids

    def test_redeclared_properties_write_their_first_form(self):
        """All declarations of a property name in a built ontology share one
        key, so the name alone orders them and the file writes each
        property's first declaration as it was written."""
        source = (
            "class A\n"
            "dataprop q type boolean\n"
            "objprop r domain A\n"
            "dataprop p type number allowed 1, 2\n"
            "objprop r domain A\n"
            "dataprop p type number allowed 2.0, 1.0\n"
        )
        onto, diags = build_ontology("t", parse_clean(source).axioms)
        assert onto is not None, diags
        assert serialize_oft(onto) == (
            "ontology t\n"
            "class A\n"
            "objprop r domain A\n"
            "dataprop p type number allowed 1, 2 card single\n"
            "dataprop q type boolean card single\n"
        )

    def test_serialization_is_byte_deterministic(self, corpus):
        assert serialize_oft(corpus) == serialize_oft(corpus)

    def test_random_ontology_roundtrips(self):
        rng = random.Random(21)
        for _ in range(25):
            onto = bruteforce.random_ontology(rng)
            ids, rebuilt_ids = roundtrip_identities(onto)
            assert ids == rebuilt_ids


def _stats(onto):
    """What `ontokit stats` prints for a built ontology."""
    out = io.StringIO()
    with mock.patch.object(cli, "_load", return_value=(onto, None)), redirect_stdout(out):
        assert cli.run(["stats", "onto.oft"]) == 0
    return out.getvalue()


def _with_repeats(rng, onto):
    """`onto` plus, with probability 0.5 each, a repeat of one of its data
    assertions and of one of its object assertions. A repeated integer `n`
    is written `n.0`, an equal number written differently; an exponent
    form keeps its text, since `2e3.0` is no number."""
    extra = []
    if onto.data_assertions and rng.random() < 0.5:
        ax = rng.choice(onto.data_assertions)
        value = ax.value
        if value.value_type is ValueType.NUMBER and value.lexical.lstrip("+-").isdigit():
            value = Literal(ValueType.NUMBER, value.lexical + ".0")
        extra.append(DataAssertion(ax.subject, ax.prop, value))
    if onto.obj_assertions and rng.random() < 0.5:
        ax = rng.choice(onto.obj_assertions)
        extra.append(ObjAssertion(ax.subject, ax.prop, ax.object))
    built, diags = build_ontology(onto.name, extra, base=onto)
    assert built is not None, diags
    return built


def _lost_to_the_canonical_form(onto):
    """The findings that `onto`'s written form may lack, because the
    validator counts each assertion line while `canonical_axioms` keeps one
    assertion per value (an open finding in CHANGES.md: a repeated equal
    value breaks `card single` in the source only): an `E_CARD_SINGLE` for a
    subject whose values of the property are all equal by `key()`, and a
    value finding's message prefix for a lexical form that the canonical
    list dropped for an equal one."""
    keys: dict[tuple[str, str], set] = {}
    for ax in onto.data_assertions:
        keys.setdefault((ax.subject, ax.prop), set()).add(ax.value.key())
    card = {
        f"{subject} has more than one value for single-cardinality {prop}"
        for (subject, prop), values in keys.items()
        if len(values) == 1
    }
    kept = {(ax.prop, ax.value.lexical) for ax in canonical_axioms(onto) if isinstance(ax, DataAssertion)}
    dropped = {(ax.prop, ax.value.lexical) for ax in onto.data_assertions} - kept
    return card, tuple(f"value {lexical!r} of {prop} " for prop, lexical in dropped)


class TestRoundTripProperty:
    def test_written_form_answers_as_the_source(self):
        """For random ontologies with repeated assertions and `n` beside
        `n.0`, the ontology read back from `serialize_oft` gives the same
        `stats`, DOT in both modes, instance answers and taxonomy answers,
        and no finding the source lacks. The source may have more findings
        only where the validator counts lines that the written form keeps
        once (see `_lost_to_the_canonical_form`)."""
        lost_draws = 0
        for seed in range(300):
            rng = random.Random(seed)
            f = _with_repeats(rng, bruteforce.random_ontology(rng, n_assertions=25))
            g, diags = load_sources([("g.oft", serialize_oft(f))])
            assert g is not None, (seed, diags)
            assert _stats(g) == _stats(f), seed
            (cf, _), (cg, _) = compute_closure(f), compute_closure(g)
            for inferred in (False, True):
                assert export_dot(g, cg, inferred) == export_dot(f, cf, inferred), seed
            rf, rg = realize(f, cf), realize(g, cg)
            for _ in range(10):
                expr = bruteforce.random_expr(rng, f)
                want = eval_query(f, cf, rf, expr, QueryMode.INSTANCES)
                assert eval_query(g, cg, rg, expr, QueryMode.INSTANCES) == want, seed
            for mode in QueryMode:
                if mode is not QueryMode.INSTANCES:
                    for name in sorted(f.classes | {THING}):
                        want = eval_query(f, cf, None, Named(name), mode)
                        assert eval_query(g, cg, None, Named(name), mode) == want, seed
            found_f, found_g = (
                {(d.code, d.message) for d in validate(o, r).diagnostics}
                for o, r in ((f, rf), (g, rg))
            )
            assert found_g <= found_f, (seed, found_g - found_f)
            card, dropped = _lost_to_the_canonical_form(f)
            for code, message in found_f - found_g:
                assert (code == E_CARD_SINGLE and message in card) or (
                    code in (E_TYPE_MISMATCH, E_ALLOWED_VALUE) and message.startswith(dropped)
                ), (seed, code, message)
            lost_draws += found_f != found_g
        # The exception is exercised, not vacuous.
        assert lost_draws > 0


@settings(max_examples=300, deadline=None)
@given(st.text())
def test_parsing_is_total(source):
    result = parse_oft(source, "fuzz.oft")
    assert isinstance(result.axioms, list)
    assert all(d.line >= 1 for d in result.diagnostics)


_WORDS = st.one_of(
    st.sampled_from(["true", "false", "truex", "_true", "Thing", "sub", "class", "1a", "a#b"]),
    st.from_regex(r"[A-Za-z_][A-Za-z0-9_]*", fullmatch=True),
    st.text(max_size=6),
)


@settings(max_examples=300, deadline=None)
@given(_WORDS)
def test_one_identifier_rule(word):
    """`class w` declares w, with no diagnostic, exactly when w is an identifier."""
    result = parse_oft(f"class {word}", "f.oft")
    declared = result.axioms == [ClassDecl(word, file="f.oft", line=1)]
    assert (declared and not result.diagnostics) == is_ident(word)


_LINES = st.lists(st.sampled_from(bruteforce.SCAN_FRAGMENTS), max_size=12).map("".join)
_STATEMENT_HEADS = [
    "", "ontology ", "class A sub ", "objprop p domain A range ",
    "dataprop p type number allowed ", "dataprop p domain A type string allowed ",
    "individual i type ", "rel i p ", "attr i p ",
]
_SOURCES = st.lists(
    st.builds(str.__add__, st.sampled_from(_STATEMENT_HEADS), _LINES)
).map("\n".join)


@settings(max_examples=1000, deadline=None)
@given(_LINES)
def test_scanner_matches_reference(line):
    """The token pattern gives the character-by-character scanner's tokens,
    and its first fault with the same message and column."""
    assert bruteforce.scan_outcome(
        lambda text: scan(_OFT_TOKENS, text, bruteforce.ScanError), line
    ) == bruteforce.scan_outcome(bruteforce.reference_scan_line, line)


@settings(max_examples=500, deadline=None)
@given(_SOURCES)
def test_parsing_is_total_on_statement_text(source):
    """Statement-shaped text never raises; each diagnostic points into its line."""
    result = parse_oft(source, "fuzz.oft")
    lines = source.split("\n")
    for d in result.diagnostics:
        assert d.code in ("E_SYNTAX", "E_TYPE_MISMATCH")
        column = int(d.message.rsplit("(column ", 1)[1].rstrip(")"))
        assert 1 <= column <= len(lines[d.line - 1]) + 1


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 20), st.integers(0, 30))
def test_serialize_parse_fixpoint(seed, n_classes, n_assertions):
    onto = bruteforce.random_ontology(
        random.Random(seed), n_classes=n_classes, n_assertions=n_assertions
    )
    text = serialize_oft(onto)
    result = parse_oft(text, "<roundtrip>")
    assert result.diagnostics == []
    rebuilt, diags = build_ontology(result.ontology_name, result.axioms)
    assert rebuilt is not None, diags
    assert serialize_oft(rebuilt) == text


def split_lines(source):
    """The lines of `source` without their LF or CRLF ends, split with no
    pattern: the reference for the one-scan reader's lines."""
    lines = source.split("\n")
    if lines[-1] == "":
        lines.pop()
    return [raw[:-1] if raw.endswith("\r") else raw for raw in lines]


def token_path_parse(source, file_name):
    """`parse_oft` with every line read by the token path alone."""
    reader = _Reader(file_name)
    for ln, line in enumerate(split_lines(source), 1):
        reader.token_line(line, ln)
    return reader.name, reader.axioms, reader.diagnostics


_BLANKS = st.sampled_from([" "] * 6 + ["\t", "  ", " \t ", "\r"])
_NAMES = st.sampled_from(["A", "b_1", "x9", "_", "A", "b_1", "x9", "_"] + [
    "truex", "falsey", "true", "false", "type", "sub", "rel", "class",
    "true1", "true_", "trueé", "falseÄ", "True",
])
_COMMAS = st.sampled_from([",", ", ", " ,", "\t,\t", ",,", ", ,", " "])
_VALUES = st.sampled_from([
    '"x"', '""', '"a b"', '"#"', '"a,b"', '"a\\"b"', '"a\\\\b"', '"\\\\"', '"\t"',
    "true", "false", "true", "false", "1", "-2.5", "+0", "1e5", "1.5e-3", "1E+2",
    "2020-01-01", "2021-05-01T12:30:00Z", "2020-02-29T12:30:00",
    '"a\\nb"', '"a\rb"', '"open', "truex", "9e99999999999999999999", "1.", ".5",
    "2020-02-30", "2020-01-01T", "2020-1-1", "A",
    '"a"b', "12#c", "1,2", "true#c", '"x"#c', "--1",
])
_TRAILERS = st.sampled_from(["", " ", "\t", "#", " # c", '#"x', "\r", " x"])
# Characters that `str.splitlines` takes as line breaks and `str.split("\n")`
# does not; in an OFT file they are characters of their line.
_LINE_BREAK_LOOKALIKES = ["\x0b", "\x0c", "\x1c", "\x85", "\u2028"] * 2


@st.composite
def _statement_lines(draw):
    """A line of one of the statements the statement pattern reads, from
    words, separators and literals that are mostly well formed."""
    def names():
        items = [draw(_NAMES)]
        for _ in range(draw(st.integers(0, 2))):
            items += [draw(_COMMAS), draw(_NAMES)]
        return "".join(items)

    head = draw(st.sampled_from(["rel", "attr", "attr", "attr", "individual", "class"]))
    if head == "rel":
        words = [draw(_NAMES), draw(_NAMES), draw(_NAMES)]
    elif head == "attr":
        words = [draw(_NAMES), draw(_NAMES), draw(_VALUES)]
    elif head == "individual":
        words = [draw(_NAMES), "type", names()]
    else:
        words = [draw(_NAMES)] + (["sub", names()] if draw(st.booleans()) else [])
    line = draw(st.sampled_from(["", "", " ", "\t"])) + head
    for word in words:
        line += draw(_BLANKS) + word
    line += draw(_TRAILERS)
    # Now and then, one more piece anywhere in the line.
    piece = draw(st.sampled_from([""] * 40 + bruteforce.SCAN_FRAGMENTS + _LINE_BREAK_LOOKALIKES))
    at = draw(st.integers(0, len(line)))
    return line[:at] + piece + line[at:]


_MIXED_LINES = st.one_of(
    _statement_lines(),
    _statement_lines(),
    _statement_lines(),
    st.builds(str.__add__, st.sampled_from(_STATEMENT_HEADS), _LINES),
)


@st.composite
def _mixed_sources(draw):
    """Lines each ended by LF or CRLF, except the last, which may also end
    with a lone CR or with no line break."""
    lines = draw(st.lists(_MIXED_LINES, max_size=8))
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    if ends:
        ends[-1] = draw(st.sampled_from(["", "\n", "\r\n", "\r"]))
    return "".join(map(str.__add__, lines, ends))


@settings(max_examples=1000, deadline=None)
@given(_mixed_sources())
def test_statement_pattern_matches_token_path(source):
    """The one-scan statement pattern is only a faster way to the token
    path's result on lines split apart on their own: the same header,
    axioms (class, fields, file and line) and diagnostics."""
    result = parse_oft(source, "f.oft")
    name, axioms, diagnostics = token_path_parse(source, "f.oft")
    assert result.ontology_name == name
    assert [repr(ax) for ax in result.axioms] == [repr(ax) for ax in axioms]
    assert result.diagnostics == diagnostics


def _token_path_lines(source, monkeypatch):
    """The lines that `parse_oft` sends to the token path, and its result."""
    seen = []
    token_line = _Reader.token_line

    def record(self, line, ln):
        seen.append(line)
        token_line(self, line, ln)

    monkeypatch.setattr(_Reader, "token_line", record)
    return seen, parse_oft(source, "f.oft")


_BLANK_RUN = re.compile(r'("(?:[^"\\]|\\.)*")|[ \t]+')


def _respaced(line):
    """A statement line with a tab and two blanks for its indent and for
    each run of blanks outside its strings, and a trailing comment."""
    if not line.strip() or line.lstrip().startswith("#"):
        return line
    return "\t  " + _BLANK_RUN.sub(lambda m: m[1] or "\t  ", line.rstrip("\n")) + "  # c\n"


@pytest.mark.parametrize("layout", ["", "  ", "\t", " \t ", pytest.param(_respaced, id="respaced")])
def test_only_other_statements_reach_the_token_path(layout, monkeypatch):
    """On the packaged corpus, indented or not, or respaced with tabs and
    trailing comments, blank and comment lines and every well-formed `rel`,
    `attr`, `individual` and `class` line skip the scanner; only
    `ontology`, `objprop` and `dataprop` lines reach it. Every layout reads
    as the plain corpus does."""
    for path in corpus_paths():
        lines = path.read_text().splitlines(True)
        source = "".join(map(layout, lines) if callable(layout) else (layout + ln for ln in lines))
        seen, result = _token_path_lines(source, monkeypatch)
        assert result.diagnostics == []
        assert {line.split()[0] for line in seen} <= {"ontology", "objprop", "dataprop"}
        assert len(seen) == sum(1 for line in source.splitlines() if line.split()[:1] in (
            ["ontology"], ["objprop"], ["dataprop"]))
        plain = parse_oft("".join(lines), "f.oft").axioms
        assert [repr(ax) for ax in result.axioms] == [repr(ax) for ax in plain]
        name, axioms, diagnostics = token_path_parse(source, "f.oft")
        assert [repr(ax) for ax in result.axioms] == [repr(ax) for ax in axioms]
