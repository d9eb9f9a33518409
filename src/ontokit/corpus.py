"""Bundled date-fruit knowledge base and its query suite."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .dlquery import QueryMode
from .model import Ontology
from .oft import load_sources

MAIN_FILE = "date_fruit.oft"
INSTANCES_FILE = "date_fruit_instances.oft"
QUERIES_FILE = "queries.tsv"


def corpus_dir() -> Path:
    return Path(__file__).with_name("corpus")


def corpus_paths() -> list[Path]:
    """The taxonomy file followed by the instances file."""
    base = corpus_dir()
    return [base / MAIN_FILE, base / INSTANCES_FILE]


def load_corpus() -> Ontology:
    """Load and build the bundled knowledge base.

    Any diagnostic here means the shipped fixtures are broken, so this
    raises instead of returning findings.
    """
    sources = [(str(p), p.read_text(encoding="utf-8")) for p in corpus_paths()]
    onto, diags = load_sources(sources)
    if onto is None or diags:
        rendered = "; ".join(d.render() for d in diags)
        raise RuntimeError(f"bundled corpus does not load cleanly: {rendered}")
    return onto


@dataclass(frozen=True)
class QueryCase:
    mode: QueryMode
    text: str
    expected: tuple[str, ...]


def load_query_suite() -> list[QueryCase]:
    """Query cases from queries.tsv: mode, query text, expected sorted names."""
    raw = (corpus_dir() / QUERIES_FILE).read_text(encoding="utf-8")
    cases: list[QueryCase] = []
    for line in raw.splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        mode, text, expected = line.split("\t")
        names = tuple(expected.split(",")) if expected else ()
        cases.append(QueryCase(QueryMode(mode), text, names))
    return cases
