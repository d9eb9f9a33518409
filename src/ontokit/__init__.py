"""ontokit: a self-contained ontology toolkit.

A line-oriented text format (OFT) for declaring classes, properties, facets,
individuals, and assertions; a structural subsumption reasoner; a facet
validator; Manchester-style class-expression queries; DOT hierarchy export;
CSV instance ingestion; and ontology merging. Ships with a date-fruit
knowledge base and its competency-question query suite.
"""

from .model import (
    Axiom,
    Cardinality,
    ClassDecl,
    DataAssertion,
    DataPropDecl,
    Diagnostic,
    FacetSpec,
    Fault,
    IndividualDecl,
    Kind,
    Literal,
    ObjAssertion,
    ObjPropDecl,
    Ontology,
    Severity,
    SubClassOf,
    THING,
    ValueType,
    build_ontology,
    canonical_axioms,
)
from .oft import ParseResult, load_sources, parse_oft, serialize_oft
from .reasoner import Realization, TaxonomyClosure, compute_closure, realize
from .validator import ValidationReport, validate
from .dlquery import (
    And,
    ClassExpr,
    Named,
    QueryEvalError,
    QueryMode,
    QuerySyntaxError,
    Some,
    ValueData,
    ValueObj,
    eval_query,
    format_expr,
    parse_query,
)
from .exchange import MergeReport, export_dot, ingest_csv, merge
from .corpus import QueryCase, corpus_paths, load_corpus, load_query_suite

__version__ = "0.1.0"
