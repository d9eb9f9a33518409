"""Class-expression parsing and evaluation in all five result modes."""

from __future__ import annotations

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bruteforce
from ontokit import dlquery
from ontokit.dlquery import (
    _QUERY_TOKENS,
    MAX_NESTING,
    And,
    Named,
    QueryEvalError,
    QueryMode,
    QuerySyntaxError,
    Some,
    ValueData,
    ValueObj,
    eval_query,
    format_expr,
    make_and,
    parse_query,
)
from ontokit.corpus import load_corpus
from ontokit.exchange import export_dot, ingest_csv, merge
from ontokit.model import (
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    FacetSpec,
    Fault,
    IndividualDecl,
    Literal,
    ObjAssertion,
    ObjPropDecl,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
)
from ontokit.oft import load_sources, scan
from ontokit.reasoner import MaskView, compute_closure, realize
from ontokit.validator import validate


TAXONOMY_MODES = [mode for mode in QueryMode if mode is not QueryMode.INSTANCES]


def setup_ontology(axioms):
    onto, diags = build_ontology("t", axioms)
    assert onto is not None, diags
    closure, _ = compute_closure(onto)
    return onto, closure, realize(onto, closure)


class TestParse:
    def test_bare_name(self):
        assert parse_query("Dates") == Named("Dates")

    def test_and_with_some(self):
        expr = parse_query("Dates and has_benefits some Health")
        assert expr == And((Named("Dates"), Some("has_benefits", Named("Health"))))

    def test_double_and_fails_with_column(self):
        with pytest.raises(QuerySyntaxError) as exc:
            parse_query("Dates and and")
        assert exc.value.column == 11

    def test_value_forms(self):
        assert parse_query("p value Barhee") == ValueObj("p", "Barhee")
        assert parse_query('p value "honey balls"') == ValueData(
            "p", Literal(ValueType.STRING, "honey balls")
        )
        assert parse_query("p value 1930") == ValueData(
            "p", Literal(ValueType.NUMBER, "1930")
        )

    def test_parens_and_flattening(self):
        assert parse_query("A and (B and C)") == parse_query("(A and B) and C")
        assert parse_query("A and (B and C)") == And(
            (Named("A"), Named("B"), Named("C"))
        )

    def test_and_order_normalized(self):
        assert parse_query("B and A") == parse_query("A and B")

    def test_and_duplicates_collapse(self):
        assert parse_query("A and A") == Named("A")

    def test_nested_some(self):
        expr = parse_query("p some q some C")
        assert expr == Some("p", Some("q", Named("C")))

    def test_keywords_reserved_case_sensitively(self):
        assert parse_query("And") == Named("And")
        with pytest.raises(QuerySyntaxError):
            parse_query("and")

    def test_unbalanced_paren(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("(A and B")

    def test_trailing_garbage(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("A B")

    def test_value_needs_an_individual_or_literal(self):
        for text, message, column in [
            ("p value", "expected an individual or literal after 'value'", 8),
            ("p value (", "expected an individual or literal after 'value', got '('", 9),
        ]:
            with pytest.raises(QuerySyntaxError) as exc:
                parse_query(text)
            assert (exc.value.message, exc.value.column) == (message, column)
            assert str(exc.value) == f"{message} (column {column})"

    def test_unrepresentable_literal_is_a_syntax_error(self):
        for text, message in [
            ('p value "a\nb"', "literal may not contain line breaks"),
            ("p value 1e99999999999999999999", "not a finite decimal: '1e99999999999999999999'"),
        ]:
            with pytest.raises(QuerySyntaxError) as exc:
                parse_query(text)
            assert (exc.value.message, exc.value.column) == (message, 9)

    def test_nesting_limit(self):
        """Parentheses and `some` fillers nest up to MAX_NESTING levels; past
        it, the first token of the level too deep is the fault."""
        parens = "(" * MAX_NESTING + "A" + ")" * MAX_NESTING
        assert parse_query(parens) == Named("A")
        somes = "p some " * MAX_NESTING + "A"
        expr = parse_query(somes)
        # format_expr puts each filler but the last in parentheses.
        assert parse_query(format_expr(expr)) == expr
        filled = "p some (" * MAX_NESTING + "A" + ")" * MAX_NESTING
        assert parse_query(filled) == expr
        message = f"query nests deeper than {MAX_NESTING} levels"
        for text, column in [
            ("(" + parens + ")", MAX_NESTING + 2),
            ("p some " + somes, len("p some ") * (MAX_NESTING + 1) + 1),
            ("p some (" + filled + ")", len("p some (") * (MAX_NESTING + 1) + 1),
            ("(" * (MAX_NESTING + 1), MAX_NESTING + 2),
        ]:
            with pytest.raises(QuerySyntaxError) as exc:
                parse_query(text)
            assert (exc.value.message, exc.value.column) == (message, column)

    def test_nested_parse_formats_linearly(self, monkeypatch):
        """Normalizing each level of a nested query formats each node once:
        the `format_expr` calls grow linearly with the depth."""
        calls = 0
        original = dlquery.format_expr

        def counted(expr):
            nonlocal calls
            calls += 1
            return original(expr)

        monkeypatch.setattr(dlquery, "format_expr", counted)
        counts = []
        for depth in (25, 50, 100):
            calls = 0
            for text in (
                "p some (A and " * depth + "A" + ")" * depth,
                "A and p some (" * depth + "B" + ")" * depth,
            ):
                parse_query(text)
            counts.append(calls)
        assert counts[2] - counts[1] == 2 * (counts[1] - counts[0])
        assert counts[2] <= 10 * 100 * 2

    def test_empty_query(self):
        with pytest.raises(QuerySyntaxError):
            parse_query("")

    def test_parse_print_idempotent(self):
        texts = [
            "Dates",
            "Dates and has_benefits some Health",
            "p some (A and B)",
            'p value "x y"',
            "a and p value 5 and q some (B and C)",
        ]
        for text in texts:
            expr = parse_query(text)
            assert parse_query(format_expr(expr)) == expr

    def test_random_exprs_parse_print_idempotent(self):
        rng = random.Random(3)
        for _ in range(50):
            onto = bruteforce.random_ontology(rng, n_classes=6, n_individuals=4)
            expr = bruteforce.random_expr(rng, onto)
            assert parse_query(format_expr(expr)) == expr


class TestEvalInstances:
    def test_thing_returns_every_individual(self, corpus, corpus_closure, corpus_realization):
        got = eval_query(
            corpus, corpus_closure, corpus_realization, Named(THING), QueryMode.INSTANCES
        )
        assert got == sorted(corpus.individuals)

    def test_some_over_inferred_members(self, corpus, corpus_closure, corpus_realization):
        # Iron is asserted under Minerals; the filler Composition must still see it.
        expr = parse_query("has_composition some Composition")
        got = eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.INSTANCES)
        assert got == ["Barhee"]

    def test_value_data_matches_numerically(self, corpus, corpus_closure, corpus_realization):
        expr = parse_query("has_date_of_origin value 1930.0")
        got = eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.INSTANCES)
        assert got == ["Barhee"]

    def test_and_intersects(self, corpus, corpus_closure, corpus_realization):
        expr = parse_query("Health and Minerals")
        got = eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.INSTANCES)
        assert got == []

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(5)
        for _ in range(30):
            onto = bruteforce.random_ontology(
                rng, n_classes=10, n_individuals=10, n_assertions=25
            )
            closure, _ = compute_closure(onto)
            realization = realize(onto, closure)
            for _ in range(4):
                expr = bruteforce.random_expr(rng, onto)
                got = eval_query(onto, closure, realization, expr, QueryMode.INSTANCES)
                assert set(got) == bruteforce.oracle_instances(onto, expr)
                assert got == sorted(got)

    def test_and_monotone(self):
        rng = random.Random(17)
        onto = bruteforce.random_ontology(rng, n_classes=8, n_individuals=10, n_assertions=20)
        closure, _ = compute_closure(onto)
        realization = realize(onto, closure)
        for _ in range(20):
            a = bruteforce.random_expr(rng, onto, depth=1)
            b = bruteforce.random_expr(rng, onto, depth=1)
            both = make_and([a, b])
            got = set(eval_query(onto, closure, realization, both, QueryMode.INSTANCES))
            for part in (a, b):
                assert got <= set(
                    eval_query(onto, closure, realization, part, QueryMode.INSTANCES)
                )

    def test_subclass_instances_flow_up(self, corpus, corpus_closure, corpus_realization):
        for child, parents in corpus_closure.direct_parents.items():
            child_inst = set(
                eval_query(corpus, corpus_closure, corpus_realization, Named(child), QueryMode.INSTANCES)
            )
            for parent in parents:
                parent_inst = set(
                    eval_query(corpus, corpus_closure, corpus_realization, Named(parent), QueryMode.INSTANCES)
                )
                assert child_inst <= parent_inst


    def test_nesting_limit_evaluates(self):
        onto, closure, realization = setup_ontology(
            [
                ClassDecl("A"),
                ObjPropDecl("p"),
                IndividualDecl("i", ("A",)),
                ObjAssertion("i", "p", "i"),
            ]
        )
        half = MAX_NESTING // 2
        for text in [
            "p some " * MAX_NESTING + "A",
            "(A and p some " * half + "A" + ")" * half,
        ]:
            expr = parse_query(text)
            assert parse_query(format_expr(expr)) == expr
            assert eval_query(onto, closure, realization, expr, QueryMode.INSTANCES) == ["i"]


class TestMaskEvaluation:
    """Instance queries as masks over the sorted individuals, with each
    property's assertions indexed on the first instance query."""

    @staticmethod
    def extended(rng):
        """A random ontology plus the edge cases: a declared class with no
        members, properties with no assertions, numbers asserted in one
        lexical form and queried in another, and individuals whose
        declaration order is not their sorted order."""
        onto = bruteforce.random_ontology(rng, n_classes=8, n_individuals=8, n_assertions=20)
        individuals = ["zeta", "Alpha", "_mid"] + sorted(onto.individuals)
        classes = sorted(onto.classes)
        extra = [
            ClassDecl("Empty"),
            ObjPropDecl("op_none"),
            DataPropDecl("dp_none", FacetSpec(ValueType.NUMBER)),
            DataPropDecl("num", FacetSpec(ValueType.NUMBER, None, Cardinality.MULTIPLE)),
        ]
        extra += [IndividualDecl(name, (rng.choice(classes),)) for name in individuals[:3]]
        for lexical in ("1.0", "2e3", "-3.25"):
            extra.append(DataAssertion(rng.choice(individuals), "num", Literal(ValueType.NUMBER, lexical)))
        extra += [ObjAssertion(rng.choice(individuals), "op0", rng.choice(individuals)) for _ in range(4)]
        built, diags = build_ontology("t", extra, base=onto)
        assert built is not None, diags
        return built, individuals

    def test_matches_bruteforce_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            onto, individuals = self.extended(rng)
            closure, _ = compute_closure(onto)
            realization = realize(onto, closure)
            exprs = [bruteforce.random_expr(rng, onto, depth=3) for _ in range(6)]
            exprs += [
                Named("Empty"),
                Some("op0", Named(THING)),
                Some("op1", Named("Empty")),
                Some("op0", Some("op1", Named(THING))),
                Some("op_none", Named(THING)),
                ValueObj("op_none", rng.choice(individuals)),
                ValueData("dp_none", Literal(ValueType.NUMBER, "1")),
                ValueData("num", Literal(ValueType.NUMBER, "1")),
                ValueData("num", Literal(ValueType.NUMBER, "2000")),
                ValueData("num", Literal(ValueType.NUMBER, "-3.250")),
                make_and([Named(THING), Some("op0", Named(rng.choice(sorted(onto.classes))))]),
            ]
            for expr in exprs:
                got = eval_query(onto, closure, realization, expr, QueryMode.INSTANCES)
                assert got == sorted(bruteforce.oracle_instances(onto, expr)), format_expr(expr)

    def test_index_slots_match_bruteforce_oracle(self):
        """An object property's entry has one slot per individual. Edge
        cases against the oracle: a filler whose members are nobody's
        objects, an empty filler, `value` on an individual that is neither
        subject nor object of the property, a declared property with no
        assertion, every `rel` line written twice, and fillers whose highest
        bit lies far below the universe size or is its last bit."""
        n = 300
        names = [f"i{k:03d}" for k in range(n)]
        lines = ["class Low", "class Lonely", "class High", "class Empty", "objprop p", "objprop never"]
        lines += [f"individual {name} type {'Low' if k < 3 else 'Lonely' if k < 10 else 'High'}"
                  for k, name in enumerate(names)]
        for k in range(10, n):
            lines += [f"rel {names[k]} p {names[k % 3]}", f"rel {names[k - 1]} p {names[k]}"] * 2
        onto, diags = load_sources([("t.oft", "\n".join(lines) + "\n")])
        assert onto is not None, diags
        closure, _ = compute_closure(onto)
        realization = realize(onto, closure)
        assert realization.members_of.masks["Low"].bit_length() == 3
        exprs = [
            Some("p", Named("Lonely")),
            Some("p", Named("Empty")),
            ValueObj("p", "i005"),
            Some("never", Named(THING)),
            ValueObj("never", "i000"),
            Some("p", Named("Low")),
            Some("p", Some("p", Named("Low"))),
            Some("p", ValueObj("p", "i001")),
            ValueObj("p", "i000"),
            ValueObj("p", names[-1]),
            Some("p", Named("High")),
            Some("p", Named(THING)),
        ]
        answers = {}
        for expr in exprs:
            got = eval_query(onto, closure, realization, expr, QueryMode.INSTANCES)
            assert got == sorted(bruteforce.oracle_instances(onto, expr)), format_expr(expr)
            answers[format_expr(expr)] = got
        assert answers["p some Lonely"] == answers["p some Empty"] == answers["p value i005"] == []
        assert answers["never some Thing"] == answers["never value i000"] == []
        assert answers["p value i299"] == ["i298"]
        slots = realization.assertion_index["p"]
        assert len(slots) == n and not any(slots[3:10]) and all(slots[:3]) and all(slots[10:])
        assert realization.assertion_index["never"] == [0] * n

    def test_index_is_built_by_instance_queries_only(self):
        """Checking, exporting, merging, ingesting and the taxonomy modes
        leave the realization's assertion index empty, and no ontology
        holds one; the first instance query builds the entry of the
        property it reads only, and the next one reuses the index. An
        undeclared property, or a name of another kind, is a `KeyError`
        and builds nothing."""
        onto = load_corpus()
        closure, _ = compute_closure(onto)
        realization = realize(onto, closure)
        validate(onto, realization)
        export_dot(onto, closure, inferred=True)
        report = merge(onto, load_corpus(), onto.name)
        rows, diags = ingest_csv(onto, "id,year\nNew_date,1999\n", "Species", [("year", "has_date_of_origin")])
        assert not diags
        combined, diags = build_ontology(onto.name, rows, base=onto)
        assert combined is not None, diags
        for mode in QueryMode:
            if mode is not QueryMode.INSTANCES:
                eval_query(onto, closure, realization, Named("Dates"), mode)
        for built in (onto, report.merged, combined):
            assert not hasattr(built, "assertion_index")
        index = realization.assertion_index
        assert not index
        eval_query(onto, closure, realization, parse_query("has_benefits some Health"), QueryMode.INSTANCES)
        assert list(index) == ["has_benefits"]
        for name in ("no_such_property", "Dates"):
            with pytest.raises(KeyError):
                index[name]
        eval_query(onto, closure, realization, parse_query("has_date_of_origin value 1930"), QueryMode.INSTANCES)
        assert realization.assertion_index is index
        assert list(index) == ["has_benefits", "has_date_of_origin"]


class TestEvalClassModes:
    def test_subclasses_of_stage_root(self, corpus, corpus_closure, corpus_realization):
        got = eval_query(
            corpus, corpus_closure, corpus_realization,
            Named("Developing_stages"), QueryMode.SUBCLASSES,
        )
        assert got == ["Hababauk", "Khalaal", "Kimri", "Rotab", "Tamr"]

    def test_superclasses(self, corpus, corpus_closure, corpus_realization):
        got = eval_query(
            corpus, corpus_closure, corpus_realization, Named("Kimri"), QueryMode.SUPERCLASSES
        )
        assert got == ["Date_fruit", "Dates", "Developing_stages", THING]

    def test_direct_modes(self, corpus, corpus_closure, corpus_realization):
        got = eval_query(
            corpus, corpus_closure, corpus_realization,
            Named("Kimri"), QueryMode.DIRECT_SUPERCLASSES,
        )
        assert got == ["Developing_stages"]
        got = eval_query(
            corpus, corpus_closure, corpus_realization,
            Named("Quality_profile"), QueryMode.DIRECT_SUBCLASSES,
        )
        assert got == ["Defects", "Other_particles"]

    def test_and_of_named_superclasses(self, corpus, corpus_closure, corpus_realization):
        expr = parse_query("Kimri and Tamr")
        got = eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.SUPERCLASSES)
        assert got == ["Date_fruit", "Dates", "Developing_stages", THING]

    def test_direct_filter_ignores_redundant_edge(self):
        onto, closure, realization = setup_ontology(
            [
                ClassDecl("A"),
                ClassDecl("B"),
                ClassDecl("C"),
                SubClassOf("B", "A"),
                SubClassOf("C", "B"),
                SubClassOf("C", "A"),  # redundant direct edge
            ]
        )
        got = eval_query(onto, closure, realization, Named("A"), QueryMode.DIRECT_SUBCLASSES)
        assert got == ["B"]

    def test_mode_coherence(self, corpus, corpus_closure, corpus_realization):
        for cls in sorted(corpus.classes):
            all_subs = set(
                eval_query(corpus, corpus_closure, corpus_realization, Named(cls), QueryMode.SUBCLASSES)
            )
            direct = set(
                eval_query(corpus, corpus_closure, corpus_realization, Named(cls), QueryMode.DIRECT_SUBCLASSES)
            )
            assert direct <= all_subs
            reachable = set(direct)
            for d in direct:
                reachable |= corpus_closure.descendants[d]
            assert all_subs <= reachable

    def test_matches_bruteforce_oracle(self):
        for seed in range(300):
            rng = random.Random(seed)
            axioms = bruteforce.random_taxonomy_axioms(
                rng, rng.randint(1, 25), redundant=rng.randint(0, 3)
            )
            onto, closure, _ = setup_ontology(axioms)
            candidates = sorted(onto.classes) + [THING]
            for _ in range(2):
                names = rng.sample(candidates, rng.randint(1, min(3, len(candidates))))
                expr = make_and(map(Named, names))
                for mode in TAXONOMY_MODES:
                    got = eval_query(onto, closure, None, expr, mode)
                    assert got == bruteforce.oracle_taxonomy(onto, names, mode), (seed, names, mode)

    def test_direct_modes_decode_no_mask(self, corpus, corpus_closure, monkeypatch):
        """A direct query walks the taxonomy from the query class and never
        decodes the set of all its subclasses or superclasses."""
        def refuse(view, mask):
            raise AssertionError("a direct query decoded a mask")

        monkeypatch.setattr(MaskView, "names", refuse)
        for names in (["Date_fruit"], ["Kimri"], [THING], ["Kimri", "Tamr"], ["Dates", "Quality_profile"]):
            for mode in (QueryMode.DIRECT_SUBCLASSES, QueryMode.DIRECT_SUPERCLASSES):
                got = eval_query(corpus, corpus_closure, None, make_and(map(Named, names)), mode)
                assert got == bruteforce.oracle_taxonomy(corpus, names, mode), (names, mode)

    def test_restriction_in_class_mode_unsupported(self, corpus, corpus_closure, corpus_realization):
        expr = parse_query("has_benefits some Health")
        with pytest.raises(QueryEvalError) as exc:
            eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.SUBCLASSES)
        assert exc.value.code == "E_UNSUPPORTED_MODE"

    def test_unknown_name(self, corpus, corpus_closure, corpus_realization):
        with pytest.raises(QueryEvalError) as exc:
            eval_query(corpus, corpus_closure, corpus_realization, Named("Nope"), QueryMode.INSTANCES)
        assert exc.value.code == "E_UNKNOWN_REF"

    def test_wrong_kind(self, corpus, corpus_closure, corpus_realization):
        expr = parse_query("Barhee")  # individual used as class
        with pytest.raises(QueryEvalError) as exc:
            eval_query(corpus, corpus_closure, corpus_realization, expr, QueryMode.INSTANCES)
        assert exc.value.code == "E_UNKNOWN_REF"

    @pytest.mark.parametrize(
        "query, mode, fault_type, code, message, column",
        [
            (
                "Dates and",
                QueryMode.INSTANCES,
                QuerySyntaxError,
                "E_SYNTAX",
                "expected a class name or '('",
                10,
            ),
            (
                "has_benefits some Health",
                QueryMode.SUBCLASSES,
                QueryEvalError,
                "E_UNSUPPORTED_MODE",
                "subclass/superclass modes support only named classes and their intersections",
                None,
            ),
            (
                "Barhee",
                QueryMode.INSTANCES,
                QueryEvalError,
                "E_UNKNOWN_REF",
                "Barhee is declared as individual, not class",
                None,
            ),
        ],
    )
    def test_fault_texts(
        self, corpus, corpus_closure, corpus_realization,
        query, mode, fault_type, code, message, column,
    ):
        with pytest.raises(fault_type) as exc:
            eval_query(corpus, corpus_closure, corpus_realization, parse_query(query), mode)
        fault = exc.value
        assert isinstance(fault, Fault) and isinstance(fault, ValueError)
        text = message if column is None else f"{message} (column {column})"
        assert (fault.code, fault.message, str(fault)) == (code, message, text)
        assert getattr(fault, "column", None) == column

    def test_and_commutes(self, corpus, corpus_closure, corpus_realization):
        for mode in QueryMode:
            left = eval_query(
                corpus, corpus_closure, corpus_realization,
                parse_query("Kimri and Tamr"), mode,
            )
            right = eval_query(
                corpus, corpus_closure, corpus_realization,
                parse_query("Tamr and Kimri"), mode,
            )
            assert left == right


@settings(max_examples=1000, deadline=None)
@given(st.lists(st.sampled_from(bruteforce.SCAN_FRAGMENTS + ["\n"]), max_size=12).map("".join))
def test_query_scanner_matches_reference(text):
    """The query token pattern gives the character-by-character scanner's
    tokens, and its first fault with the same message and column."""
    assert bruteforce.scan_outcome(
        lambda t: scan(_QUERY_TOKENS, t, bruteforce.ScanError), text
    ) == bruteforce.scan_outcome(bruteforce.reference_scan_query, text)
