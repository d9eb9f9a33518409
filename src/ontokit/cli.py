"""Command-line interface.

Subcommands: check, query, export-dot, stats, merge, ingest. Diagnostics go
to stderr as `<file>:<line>: <severity> <CODE> <message>`; data goes to
stdout so pipelines can consume query and DOT output cleanly. Exit codes:
0 clean, 1 error diagnostics, 2 usage or I/O failure, or out of memory.

Every command loads through `_load`: read, parse and build the files, then
close the taxonomy, except in `stats` and `merge`. The first stage that
fails stops the command with its findings (exit 1); `check` still prints
its summary then. Only `check` and an `instances` query realize.
"""

from __future__ import annotations

import argparse
import gc
import sys
from functools import cache, partial
from pathlib import Path
from typing import Iterable, Optional, Sequence

from .dlquery import QueryMode, eval_query, parse_query
from .exchange import export_dot, ingest_csv, merge
from .model import DataAssertion, Diagnostic, Fault, ObjAssertion, Ontology, Severity
from .model import build_ontology, sort_diagnostics
from .oft import load_sources, serialize_oft
from .reasoner import TaxonomyClosure, compute_closure, realize
from .validator import validate


def _emit(diags: Iterable[Diagnostic]) -> None:
    for d in sort_diagnostics(diags):
        print(d.render(), file=sys.stderr)


def _read_text(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except ValueError as exc:  # UnicodeDecodeError, or "embedded null byte"
        raise OSError(f"{path}: {exc}") from None


def _write_text(path: str, text: str) -> None:
    try:
        Path(path).write_text(text, encoding="utf-8")
    except ValueError as exc:  # "embedded null byte"
        raise OSError(f"{path}: {exc}") from None


class _Failed(Exception):
    """A command failed with the diagnostics in `args[0]`; `run` emits them."""


def _load(paths: Sequence[str], close: bool = True) -> tuple[Ontology, Optional[TaxonomyClosure]]:
    """Run a command's stages in order: read and `load_sources` the files,
    then `compute_closure` when `close`. Raises `_Failed` with the findings
    of the first stage that fails. The stages are looked up in this module,
    where the benchmark's tracer and the tests wrap them."""
    onto, diags = load_sources([(p, _read_text(p)) for p in paths])
    closure, diags = compute_closure(onto) if onto is not None and close else (None, diags)
    if diags:
        raise _Failed(diags)
    return onto, closure


def _cmd_check(args: argparse.Namespace) -> int:
    try:
        onto, closure = _load(args.files)
    except _Failed as exc:
        diags = exc.args[0]
    else:
        diags = validate(onto, realize(onto, closure)).diagnostics
    _emit(diags)
    errors = sum(1 for d in diags if d.severity is Severity.ERROR)
    warnings = len(diags) - errors
    print(f"{errors} errors, {warnings} warnings")
    return 1 if errors else 0


def _cmd_query(args: argparse.Namespace) -> int:
    # The query is parsed first: a malformed one is reported without a load.
    try:
        expr = parse_query(args.query)
        mode = QueryMode(args.mode)
        onto, closure = _load(args.files)
        r = realize(onto, closure) if mode is QueryMode.INSTANCES else None
        names = eval_query(onto, closure, r, expr, mode)
    except Fault as exc:
        raise _Failed([exc.diagnostic("<query>", 1)])
    for name in names:
        print(name)
    return 0


def _cmd_export_dot(args: argparse.Namespace) -> int:
    onto, closure = _load(args.files)
    print(export_dot(onto, closure, inferred=args.inferred), end="")
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    onto, _ = _load(args.files, close=False)
    counts = [
        ("classes", len(onto.classes)),
        ("object_properties", len(onto.object_properties)),
        ("data_properties", len(onto.data_properties)),
        ("individuals", len(onto.individuals)),
        # A repeated assertion is one fact, as in the file's round trip.
        ("assertions", len(set(map(ObjAssertion.key, onto.obj_assertions)))
         + len(set(map(DataAssertion.key, onto.data_assertions)))),
    ]
    for key, value in counts:
        print(f"{key}\t{value}")
    return 0


def _cmd_merge(args: argparse.Namespace) -> int:
    first, _ = _load([args.first], close=False)
    second, _ = _load([args.second], close=False)
    report = merge(first, second, first.name)
    _write_text(args.output, serialize_oft(report.merged))
    _emit(report.conflicts)
    errors = sum(1 for d in report.conflicts if d.severity is Severity.ERROR)
    return 1 if errors else 0


def _parse_column_map(raw: str) -> list[tuple[str, str]]:
    pairs = []
    for item in raw.split(","):
        header, sep, prop = item.partition("=")
        if not sep or not header or not prop:
            raise ValueError(f"bad --map entry {item!r}; expected header=property")
        pairs.append((header, prop))
    return pairs


def _cmd_ingest(args: argparse.Namespace) -> int:
    # The map is parsed and the CSV read first: either fault is reported without a load.
    try:
        column_map = _parse_column_map(args.map)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    csv_text = _read_text(args.csv)
    # The result is the input plus individuals, so a cycle in the input is one in it.
    onto, _ = _load(args.files)
    axioms, ingest_diags = ingest_csv(
        onto, csv_text, args.target_class, column_map, file_name=args.csv
    )
    if ingest_diags:
        raise _Failed(ingest_diags)
    combined, build_diags = build_ontology(onto.name, axioms, base=onto)
    if combined is None:
        raise _Failed(build_diags)
    _write_text(args.output, serialize_oft(combined))
    return 0


class _Formatter(argparse.HelpFormatter):
    """argparse's formatter, dropping its sections once its text is
    formatted: each section refers back to it and to its parent, so a usage
    error or a help text would otherwise leave them to the cyclic collector."""

    def format_help(self) -> str:
        text = super().format_help()
        self._root_section.items.clear()  # its nested sections refer back to it
        self._root_section = self._current_section = None
        return text


@cache
def _parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first `run` of the process
    and kept: each parser is a few hundred objects in reference cycles."""
    parser_class = partial(argparse.ArgumentParser, formatter_class=_Formatter)
    parser = parser_class(
        prog="ontokit",
        description="Parse, validate, query, export, and merge OFT ontology files.",
    )
    sub = parser.add_subparsers(dest="command", required=True, parser_class=parser_class)

    check = sub.add_parser("check", help="parse, build, and validate")
    check.add_argument("files", nargs="+")

    query = sub.add_parser("query", help="evaluate a class expression")
    query.add_argument("files", nargs="+")
    query.add_argument("-q", "--query", required=True)
    query.add_argument(
        "-m",
        "--mode",
        default=QueryMode.INSTANCES.value,
        choices=[m.value for m in QueryMode],
    )

    export = sub.add_parser("export-dot", help="emit the taxonomy as DOT")
    export.add_argument("files", nargs="+")
    export.add_argument("--inferred", action="store_true")

    stats = sub.add_parser("stats", help="count declared entities")
    stats.add_argument("files", nargs="+")

    merge_cmd = sub.add_parser("merge", help="merge two ontology files")
    merge_cmd.add_argument("first")
    merge_cmd.add_argument("second")
    merge_cmd.add_argument("-o", "--output", required=True)

    ingest = sub.add_parser("ingest", help="append individuals from a CSV file")
    ingest.add_argument("files", nargs="+")
    ingest.add_argument("--csv", required=True)
    ingest.add_argument("--class", dest="target_class", required=True)
    ingest.add_argument("--map", required=True, help="header=property[,header=property...]")
    ingest.add_argument("-o", "--output", required=True)
    return parser


def run(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line in this process and return its exit code.

    The cyclic collector is paused while the command runs. The pause is
    process-wide: do not call `run` while other threads of the process
    allocate cycles that they count on the collector to free."""
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    # Looked up at each call, so a replaced `_cmd_*` function is the one run.
    command = globals()["_cmd_" + args.command.replace("-", "_")]
    # A command's objects live until it returns, and reference counting
    # frees what it drops, so a cyclic collection would find nothing and
    # only re-scan the ontology as it grows.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return command(args)
    except _Failed as exc:
        _emit(exc.args[0])
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        pass  # Printed below, once the traceback and the ontology its frames hold are freed.
    finally:
        if collecting:
            gc.enable()
    print("error: out of memory", file=sys.stderr)
    return 2


def main() -> None:
    raise SystemExit(run())


if __name__ == "__main__":
    main()
