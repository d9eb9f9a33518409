"""Bundled knowledge base: completeness, validity, and the query suite."""

from __future__ import annotations

from ontokit.corpus import corpus_dir, corpus_paths, load_corpus, load_query_suite
from ontokit.dlquery import eval_query, parse_query
from ontokit.model import Kind, Literal, ValueType
from ontokit.validator import validate

TOP_LEVEL = ["Date_fruit", "Dates", "Products_of_dates", "Species"]
ATTRIBUTES = ["Attributes", "Color", "Shape", "Size", "Taste", "Texture"]
BENEFITS = ["Benefits", "Food", "Health"]
CHAIN = [
    "Chain_of_operations",
    "Transport",
    "Additional_treatments",
    "Coating",
    "Dehydration",
    "Glazing",
    "Hydration",
    "Maturation",
    "Pitting",
    "Packing",
    "Sorting_and_cleaning",
    "Storage",
    "Fumigation",
    "Heat_treatment",
    "Irradiation",
    "Refrigeration",
]
STAGES = ["Developing_stages", "Hababauk", "Khalaal", "Kimri", "Rotab", "Tamr"]
QUALITY = [
    "Quality_profile",
    "Defects",
    "Blemishes",
    "Broken_skin",
    "Deformity",
    "Discoloration",
    "Shrivel",
    "Sunburn",
    "Other_particles",
    "Foreign_matter",
    "Insect_infestation",
    "Pesticide_residue",
]
COMPOSITION = [
    "Composition",
    "Enzymes",
    "Vitamins",
    "Minerals",
    "Crude_fibers",
    "Moisture",
    "Proteins",
    "Fats",
    "Sugars",
    "Chemical_substances",
    "Organic_acids",
    "Polyphenols",
]
PRODUCTS = [
    "Date_condiments",
    "Date_deserts",
    "Date_paste",
    "Bakery_products",
    "Mixture",
    "Pure_date_paste",
    "Date_preserves",
    "Whole_pitted_dates",
]
ALL_CLASSES = TOP_LEVEL + ATTRIBUTES + BENEFITS + CHAIN + STAGES + QUALITY + COMPOSITION + PRODUCTS

OBJECT_PROPERTIES = ["has_deciding_factor", "has_composition", "has_benefits", "has_features"]
DATA_PROPERTIES = ["has_common_name", "has_country_of_origin", "has_date_of_origin"]


class TestFixtureContent:
    def test_every_required_class_declared(self, corpus):
        missing = [name for name in ALL_CLASSES if name not in corpus.classes]
        assert missing == []

    def test_class_checklist_is_exhaustive(self, corpus):
        assert corpus.classes == set(ALL_CLASSES)

    def test_properties_declared(self, corpus):
        for name in OBJECT_PROPERTIES:
            assert corpus.symbols[name] is Kind.OBJECT_PROPERTY
        for name in DATA_PROPERTIES:
            assert corpus.symbols[name] is Kind.DATA_PROPERTY

    def test_barhee_instance(self, corpus):
        assert corpus.symbols["Barhee"] is Kind.INDIVIDUAL
        assert corpus.asserted_types["Barhee"] == {"Species"}
        values = [
            ax.value
            for ax in corpus.data_assertions
            if ax.subject == "Barhee" and ax.prop == "has_common_name"
        ]
        assert values == [Literal(ValueType.STRING, "honey balls")]

    def test_date_of_origin_is_number_typed(self, corpus):
        decl = corpus.declarations["has_date_of_origin"]
        assert decl.facet.value_type is ValueType.NUMBER

    def test_golden_class_count_matches_fixture_text(self, corpus):
        text = (corpus_dir() / "date_fruit.oft").read_text(encoding="utf-8")
        declared = sum(1 for line in text.splitlines() if line.startswith("class "))
        assert declared == 67
        assert len(corpus.classes) == 67

    def test_validates_clean(self, corpus, corpus_realization):
        report = validate(corpus, corpus_realization)
        assert report.ok
        assert report.diagnostics == ()


class TestQuerySuite:
    def test_all_cases_reproduce(self, corpus, corpus_closure, corpus_realization):
        for case in load_query_suite():
            got = eval_query(
                corpus, corpus_closure, corpus_realization, parse_query(case.text), case.mode
            )
            assert tuple(got) == case.expected, case.text

    def test_competency_questions_covered(self):
        # One query per question: attributes, benefits, operations, stages,
        # quality, products, composition. Each must return something.
        by_text = {case.text: case for case in load_query_suite()}
        for text in [
            "Attributes",
            "Benefits",
            "Chain_of_operations",
            "Developing_stages",
            "Quality_profile",
            "Products_of_dates",
            "Composition",
        ]:
            assert text in by_text
            assert by_text[text].expected, text

    def test_suite_expectations_are_sorted(self):
        for case in load_query_suite():
            assert list(case.expected) == sorted(case.expected)


def test_main_fixture_is_self_contained():
    from ontokit.oft import load_sources

    main = corpus_dir() / "date_fruit.oft"
    onto, diags = load_sources([(str(main), main.read_text(encoding="utf-8"))])
    assert onto is not None and diags == []


def test_load_corpus_uses_both_fixture_files():
    onto = load_corpus()
    assert [p.name for p in corpus_paths()] == [
        "date_fruit.oft",
        "date_fruit_instances.oft",
    ]
    assert {ax.file for ax in onto.axioms} == {str(p) for p in corpus_paths()}
    assert onto.name == "date_fruit"
