"""Command-line surface: subcommands, exit codes, output formats."""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import os
import subprocess
import sys
import weakref
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import bruteforce
import ontokit
from ontokit import cli
from ontokit.cli import run
from ontokit.dlquery import MAX_NESTING
from ontokit.model import Cardinality
from ontokit.corpus import corpus_paths
from ontokit.oft import load_sources, serialize_oft


@pytest.fixture()
def corpus_files():
    return [str(p) for p in corpus_paths()]


def write(path, text):
    path.write_text(text, encoding="utf-8")
    return str(path)


class TestCheck:
    def test_corpus_is_clean(self, corpus_files, capsys):
        assert run(["check", *corpus_files]) == 0
        captured = capsys.readouterr()
        assert captured.out == "0 errors, 0 warnings\n"
        assert captured.err == ""

    def test_empty_file(self, tmp_path, capsys):
        path = write(tmp_path / "empty.oft", "")
        assert run(["check", path]) == 0
        assert capsys.readouterr().out == "0 errors, 0 warnings\n"

    def test_syntax_error_reported_with_location(self, tmp_path, capsys):
        path = write(tmp_path / "bad.oft", "class A\nclazz B\n")
        assert run(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == "1 errors, 0 warnings\n"
        assert captured.err == f"{path}:2: error E_SYNTAX unknown statement 'clazz' (column 1)\n"

    def test_validation_findings_sorted(self, tmp_path, capsys):
        path = write(
            tmp_path / "v.oft",
            "class A\ndataprop p domain A type number card single\n"
            "individual i type A\nattr i p \"x\"\nattr i p 2\nattr i p 3\n",
        )
        assert run(["check", path]) == 1
        err_lines = capsys.readouterr().err.splitlines()
        reported = [(line.split(": ")[1].split()[1]) for line in err_lines]
        assert reported == ["E_TYPE_MISMATCH", "E_CARD_SINGLE", "E_CARD_SINGLE"]

    def test_warning_only_exits_zero(self, tmp_path, capsys):
        path = write(
            tmp_path / "w.oft",
            "class A\ndataprop p domain A type string card multiple\nindividual i type A\n",
        )
        assert run(["check", path]) == 0
        captured = capsys.readouterr()
        assert "warning E_CARD_MULTIPLE" in captured.err
        assert captured.out == "0 errors, 1 warnings\n"

    def test_cycle_detected(self, tmp_path, capsys):
        path = write(tmp_path / "c.oft", "class A sub B\nclass B sub A\n")
        assert run(["check", path]) == 1
        assert "E_CYCLE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, stdout",
        [
            (["check", "thing.oft"], "1 errors, 0 warnings\n"),
            (["query", "thing.oft", "-q", "A"], ""),
            (["export-dot", "thing.oft"], ""),
            (["stats", "thing.oft"], ""),
            (["merge", "thing.oft", "thing.oft", "-o", "out.oft"], ""),
        ],
    )
    def test_thing_below_a_class_is_a_cycle(self, tmp_path, monkeypatch, capsys, argv, stdout):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "thing.oft", "class A\nclass Thing sub A\n")
        assert run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == stdout
        assert captured.err == "thing.oft:2: error E_CYCLE class Thing cannot be a subclass of A\n"
        assert not (tmp_path / "out.oft").exists()

    @pytest.mark.parametrize(
        "command",
        [
            ["query", "-q", "A"],
            ["export-dot"],
            ["check"],
            ["stats"],
            ["merge", "c.oft", "-o", "out.oft"],
            ["ingest", "--csv", "rows.csv", "--class", "A", "--map", "y=y", "-o", "out.oft"],
        ],
    )
    def test_cycle_stops_query_and_export(self, tmp_path, monkeypatch, capsys, command):
        """Every command loads through the same stages and stops at the
        first that fails, with its findings; `ingest` reads its CSV before
        the load and never ingests it. A file that does not parse stops all
        six before the closure. A subclass cycle stops the commands that
        close their input: `check` prints its summary and realizes nothing.
        `stats` and `merge` do not close theirs: `stats` counts, and `merge`
        writes the union and reports its cycle as a conflict."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "rows.csv", "id,y\nq,1\n")
        called = []
        for name in ("compute_closure", "realize", "ingest_csv"):
            real = getattr(cli, name)
            spy = lambda *args, real=real, name=name: called.append(name) or real(*args)
            monkeypatch.setattr(cli, name, spy)
        argv = [command[0], "c.oft", *command[1:]]
        summary = "1 errors, 0 warnings\n" if command[0] == "check" else ""

        write(tmp_path / "c.oft", "class A\nclazz B\n")
        syntax = "c.oft:2: error E_SYNTAX unknown statement 'clazz' (column 1)\n"
        assert (run(argv), *capsys.readouterr(), called) == (1, summary, syntax, [])
        assert not (tmp_path / "out.oft").exists()

        write(tmp_path / "c.oft", "class A sub B\nclass B sub A\n")
        cycle = "c.oft:1: error E_CYCLE classes form a subclass cycle: A, B\n"
        counts = (
            "classes\t2\nobject_properties\t0\ndata_properties\t0\nindividuals\t0\nassertions\t0\n"
        )
        expected = {
            "stats": (0, counts, "", []),
            "merge": (1, "", cycle, []),  # the union's own closure, in `exchange.merge`
        }.get(command[0], (1, summary, cycle, ["compute_closure"]))
        assert (run(argv), *capsys.readouterr(), called) == expected
        assert (tmp_path / "out.oft").exists() is (command[0] == "merge")


class TestQuery:
    def test_subclasses_listing(self, corpus_files, capsys):
        code = run(["query", *corpus_files, "-q", "Developing_stages", "-m", "subclasses"])
        assert code == 0
        assert capsys.readouterr().out.splitlines() == [
            "Hababauk",
            "Khalaal",
            "Kimri",
            "Rotab",
            "Tamr",
        ]

    def test_instances_default_mode(self, corpus_files, capsys):
        assert run(["query", *corpus_files, "-q", "Minerals"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "Calcium" and len(lines) == 9

    def test_deterministic_stdout(self, corpus_files, capsys):
        run(["query", *corpus_files, "-q", "Health"])
        first = capsys.readouterr().out
        run(["query", *corpus_files, "-q", "Health"])
        assert capsys.readouterr().out == first

    def test_bad_query_reports_syntax(self, corpus_files, capsys):
        assert run(["query", *corpus_files, "-q", "Dates and and"]) == 1
        err = capsys.readouterr().err
        assert "E_SYNTAX" in err and "column 11" in err

    def test_unknown_name_in_query(self, corpus_files, capsys):
        assert run(["query", *corpus_files, "-q", "Nope"]) == 1
        assert "E_UNKNOWN_REF" in capsys.readouterr().err

    def test_unsupported_mode(self, corpus_files, capsys):
        code = run(
            ["query", *corpus_files, "-q", "has_benefits some Health", "-m", "subclasses"]
        )
        assert code == 1
        assert "E_UNSUPPORTED_MODE" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "query, mode, finding",
        [
            (
                "has_benefits some Health",
                "subclasses",
                "E_UNSUPPORTED_MODE subclass/superclass modes support only named classes "
                "and their intersections",
            ),
            ("Barhee", "instances", "E_UNKNOWN_REF Barhee is declared as individual, not class"),
            # Of several undeclared names, the first one written is named.
            ("Zeta and Alpha", "instances", "E_UNKNOWN_REF Zeta is not declared"),
            ("Zeta and Alpha", "subclasses", "E_UNKNOWN_REF Zeta is not declared"),
        ],
    )
    def test_evaluation_fault_is_placed_at_the_query(
        self, corpus_files, capsys, query, mode, finding
    ):
        assert run(["query", *corpus_files, "-q", query, "-m", mode]) == 1
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", f"<query>:1: error {finding}\n")

    def test_query_is_parsed_before_the_files_are_read(self, tmp_path, monkeypatch, capsys):
        """A malformed query is the one finding shown, even beside a cyclic
        or a missing file."""
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "c.oft", "class A sub B\nclass B sub A\n")
        for path in ["c.oft", "missing.oft"]:
            assert run(["query", path, "-q", "A and"]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                "<query>:1: error E_SYNTAX expected a class name or '(' (column 6)\n"
            )

    @pytest.mark.parametrize(
        "mode", ["subclasses", "direct-subclasses", "superclasses", "direct-superclasses"]
    )
    def test_taxonomy_modes_do_not_realize(self, corpus_files, monkeypatch, capsys, mode):
        argv = ["query", *corpus_files, "-q", "Developing_stages", "-m", mode]
        assert run(argv) == 0
        expected = capsys.readouterr()

        def refuse(*args):
            raise AssertionError("a taxonomy query realized the ontology")

        monkeypatch.setattr(ontokit.cli, "realize", refuse)
        assert run(argv) == 0
        assert capsys.readouterr() == expected

    def test_deep_nesting_is_a_diagnostic(self, corpus_files, capsys):
        for query in ["(" * 5000 + "Dates" + ")" * 5000, "has_benefits some " * 3000 + "Health"]:
            assert run(["query", *corpus_files, "-q", query]) == 1
            captured = capsys.readouterr()
            assert captured.out == ""
            assert f"E_SYNTAX query nests deeper than {MAX_NESTING} levels" in captured.err


class TestStats:
    def test_corpus_counts(self, corpus_files, capsys):
        assert run(["stats", *corpus_files]) == 0
        assert capsys.readouterr().out == (
            "classes\t67\n"
            "object_properties\t4\n"
            "data_properties\t3\n"
            "individuals\t16\n"
            "assertions\t5\n"
        )

    def test_repeated_assertions_count_once(self, tmp_path, capsys):
        """A repeated `rel` line and two lexical forms of one number are one
        assertion each, as in the file's `serialize_oft` round trip."""
        text = (
            "ontology t\nclass A\nobjprop p\ndataprop n type number card multiple\n"
            "individual i type A\nrel i p i\nrel i p i\nattr i n 1\nattr i n 1.0\n"
        )
        onto, diags = ontokit.load_sources([("t.oft", text)])
        assert onto is not None, diags
        outputs = []
        for name, body in [("t.oft", text), ("round.oft", ontokit.serialize_oft(onto))]:
            assert run(["stats", write(tmp_path / name, body)]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert outputs[0].endswith("individuals\t1\nassertions\t2\n")


class TestExportDot:
    def test_deterministic_output(self, corpus_files, capsys):
        assert run(["export-dot", *corpus_files]) == 0
        first = capsys.readouterr().out
        assert run(["export-dot", *corpus_files]) == 0
        assert capsys.readouterr().out == first
        assert first.startswith("digraph taxonomy {\n")

    def test_inferred_flag(self, corpus_files, capsys):
        assert run(["export-dot", *corpus_files, "--inferred"]) == 0
        assert '"Storage" -> "Fumigation";' in capsys.readouterr().out


class TestMerge:
    def test_merge_then_check(self, corpus_files, tmp_path, capsys):
        extra = write(tmp_path / "extra.oft", "ontology more\nclass Species\nclass Medjool sub Species\n")
        out = tmp_path / "merged.oft"
        assert run(["merge", corpus_files[0], extra, "-o", str(out)]) == 0
        capsys.readouterr()
        assert run(["check", str(out)]) == 0
        assert capsys.readouterr().out == "0 errors, 0 warnings\n"

    def test_conflicts_reported_and_exit_one(self, corpus_files, tmp_path, capsys):
        clash = write(
            tmp_path / "clash.oft",
            "ontology other\nclass Species\n"
            "dataprop has_date_of_origin domain Species type string card single\n",
        )
        out = tmp_path / "merged.oft"
        assert run(["merge", corpus_files[0], clash, "-o", str(out)]) == 1
        assert "E_FACET_CLASH" in capsys.readouterr().err
        # No cycle was introduced, so the merged output still checks clean.
        assert run(["check", str(out)]) == 0
        assert capsys.readouterr().out == "0 errors, 0 warnings\n"


    def test_dependent_of_dropped_declaration_is_reported(self, tmp_path, capsys):
        """An assertion that uses a property whose declaration was dropped is
        dropped and reported; the merge exits 1 without a traceback."""
        a = write(tmp_path / "a.oft", "ontology a\nclass A\nindividual K type A\n")
        b = write(
            tmp_path / "b.oft",
            "ontology b\nclass K\nobjprop p domain K\nclass C\nindividual j type C\nrel j p j\n",
        )
        out = tmp_path / "merged.oft"
        assert run(["merge", a, b, "-o", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"{b}:6: error E_UNKNOWN_REF dropped: p is not declared, needed as object property" in err
        assert run(["check", str(out)]) == 0
        assert capsys.readouterr().out == "0 errors, 0 warnings\n"

class TestIngest:
    def test_end_to_end(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "varieties.csv", "id,name,year\nKhalas,plain date,1800\n")
        out = tmp_path / "combined.oft"
        code = run(
            [
                "ingest",
                *corpus_files,
                "--csv",
                csv_path,
                "--class",
                "Species",
                "--map",
                "name=has_country_of_origin,year=has_date_of_origin",
                "-o",
                str(out),
            ]
        )
        assert code == 0
        text = out.read_text(encoding="utf-8")
        assert "individual Khalas type Species" in text
        assert "attr Khalas has_date_of_origin 1800" in text
        capsys.readouterr()
        assert run(["check", str(out)]) == 0

    def test_allowed_cell_checks_clean(self, tmp_path, capsys):
        base = write(
            tmp_path / "base.oft",
            "ontology grades\nclass Species\n"
            'dataprop grade domain Species type enum allowed "1", "2" card single\n',
        )
        csv_path = write(tmp_path / "grades.csv", "id,grade\nr1,1\n")
        out = tmp_path / "combined.oft"
        argv = ["ingest", base, "--csv", csv_path, "--class", "Species"]
        assert run([*argv, "--map", "grade=grade", "-o", str(out)]) == 0
        assert 'attr r1 grade "1"' in out.read_text(encoding="utf-8")
        capsys.readouterr()
        assert run(["check", str(out)]) == 0
        assert capsys.readouterr().out == "0 errors, 0 warnings\n"

    def test_bad_cell_exits_one(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "bad.csv", "id,year\nKhalas,old\n")
        out = tmp_path / "combined.oft"
        code = run(
            [
                "ingest",
                *corpus_files,
                "--csv",
                csv_path,
                "--class",
                "Species",
                "--map",
                "year=has_date_of_origin",
                "-o",
                str(out),
            ]
        )
        assert code == 1
        assert "E_TYPE_MISMATCH" in capsys.readouterr().err
        assert not out.exists()


    def test_unknown_class_and_object_property(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "r.csv", "id,x\n")
        out = tmp_path / "o.oft"
        argv = ["ingest", *corpus_files, "--csv", csv_path, "--class", "Nope"]
        assert run([*argv, "--map", "x=has_benefits", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{csv_path}:1: error E_UNKNOWN_REF Nope is not a declared class\n"
            f"{csv_path}:1: error E_UNKNOWN_REF has_benefits is not a declared data property\n"
        )
        assert not out.exists()

    def test_repeated_id_column(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "rows.csv", "id,name,id\nA,x,B\n")
        out = tmp_path / "o.oft"
        argv = ["ingest", *corpus_files, "--csv", csv_path, "--class", "Species"]
        assert run([*argv, "--map", "name=has_common_name", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{csv_path}:1: error E_CSV_HEADER duplicate column 'id' in header\n"
        )
        assert not out.exists()

    def test_cyclic_ontology_is_refused(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        write(tmp_path / "cyc.oft", "class A sub B\nclass B sub A\ndataprop y domain A type number\n")
        write(tmp_path / "r.csv", "id,y\nq,1\n")
        argv = ["ingest", "cyc.oft", "--csv", "r.csv", "--class", "A", "--map", "y=y"]
        assert run([*argv, "-o", "out.oft"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "cyc.oft:1: error E_CYCLE classes form a subclass cycle: A, B\n"
        assert not (tmp_path / "out.oft").exists()

    def test_row_longer_than_header(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "r.csv", "id,year\nKhalas,1800,x\n")
        out = tmp_path / "o.oft"
        argv = ["ingest", *corpus_files, "--csv", csv_path, "--class", "Species"]
        assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 1
        assert capsys.readouterr().err == (
            f"{csv_path}:2: error E_SYNTAX row has 3 fields, header has 2\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "mapping, entry", [("bad", "bad"), ("=p", "=p"), ("h=", "h="), ("a=p,", "")]
    )
    def test_malformed_map_is_refused_before_the_load(
        self, corpus_files, tmp_path, monkeypatch, capsys, mapping, entry
    ):
        """A malformed `--map` exits 2 with its one line, and nothing is
        loaded; so it wins over a file that would fail to load."""
        loads = []
        monkeypatch.setattr(cli, "_load", lambda *args, **kwargs: loads.append(args))
        csv_path = write(tmp_path / "r.csv", "id,year\nKhalas,1800\n")
        out = tmp_path / "o.oft"
        for files in (corpus_files, [str(tmp_path / "missing.oft")]):
            argv = ["ingest", *files, "--csv", csv_path, "--class", "Species"]
            assert run([*argv, "--map", mapping, "-o", str(out)]) == 2
            assert capsys.readouterr() == (
                "", f"error: bad --map entry {entry!r}; expected header=property\n"
            )
            assert not out.exists()
        assert loads == []

    def test_unreadable_csv_is_refused_before_the_load(
        self, corpus_files, tmp_path, monkeypatch, capsys
    ):
        """A missing or undecodable `--csv` exits 2 with its one line, and
        nothing is loaded; so it wins over a file that would fail to load."""
        loads = []
        monkeypatch.setattr(cli, "_load", lambda *args, **kwargs: loads.append(args))
        missing, undecodable = tmp_path / "missing.csv", tmp_path / "bad.csv"
        undecodable.write_bytes(b"id,year\nKh\xe9las,1800\n")
        decode = "'utf-8' codec can't decode byte 0xe9 in position 10: invalid continuation byte"
        out = tmp_path / "o.oft"
        for csv_path, line in [
            (missing, f"[Errno 2] No such file or directory: {str(missing)!r}"),
            (undecodable, f"{undecodable}: {decode}"),
        ]:
            for files in (corpus_files, [str(tmp_path / "missing.oft")]):
                argv = ["ingest", *files, "--csv", str(csv_path), "--class", "Species"]
                assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 2
                assert capsys.readouterr() == ("", f"error: {line}\n")
                assert not out.exists()
        assert loads == []

    def test_empty_csv_writes_the_ontology_unchanged(self, corpus_files, tmp_path, capsys):
        csv_path = write(tmp_path / "r.csv", "")
        out = tmp_path / "o.oft"
        argv = ["ingest", *corpus_files, "--csv", csv_path, "--class", "Species"]
        assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 0
        assert capsys.readouterr().err == ""
        onto, _ = load_sources([(p, Path(p).read_text(encoding="utf-8")) for p in corpus_files])
        assert out.read_text(encoding="utf-8") == serialize_oft(onto)


class TestUsageErrors:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]) == 2
        assert "usage" in capsys.readouterr().err

    def test_unknown_flag(self, corpus_files, capsys):
        assert run(["check", "--wat", *corpus_files]) == 2

    def test_missing_file(self, capsys):
        assert run(["check", "/definitely/not/here.oft"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_no_arguments(self, capsys):
        assert run([]) == 2

    def test_non_utf8_input(self, tmp_path, capsys):
        path = tmp_path / "bad.oft"
        path.write_bytes(b"class A\xff\n")
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err

    def test_decode_error_names_the_file(self, corpus_files, tmp_path, capsys):
        good = tmp_path / "good.oft"
        good.write_text("class A\n", encoding="utf-8")
        bad = tmp_path / "bad.oft"
        bad.write_bytes(b"class A\xff\n")
        assert run(["check", str(good), str(bad)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {bad}: 'utf-8' codec can't decode")
        assert str(good) not in captured.err and "Traceback" not in captured.err

        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"id,year\nKh\xe9las,1800\n")
        out = tmp_path / "combined.oft"
        argv = ["ingest", *corpus_files, "--csv", str(csv_path), "--class", "Species"]
        assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith(f"error: {csv_path}: ")
        assert not out.exists()

    def test_nul_byte_in_path(self, corpus_files, tmp_path, capsys):
        bad = str(tmp_path / "a\x00b.oft")
        first = write(tmp_path / "first.oft", "class A\n")
        second = write(tmp_path / "second.oft", "class B\n")
        csv_path = write(tmp_path / "rows.csv", "id,year\nKhalas,1800\n")
        out = str(tmp_path / "combined.oft")
        ingest = ["ingest", *corpus_files, "--class", "Species"]
        ingest += ["--map", "year=has_date_of_origin"]
        for argv in [
            ["check", bad],
            ["merge", first, second, "-o", bad],
            [*ingest, "--csv", bad, "-o", out],
            [*ingest, "--csv", csv_path, "-o", bad],
        ]:
            assert run(argv) == 2
            assert capsys.readouterr().err == f"error: {bad}: embedded null byte\n"
        written = sorted(p.name for p in tmp_path.iterdir())
        assert written == ["first.oft", "rows.csv", "second.oft"]

    def test_non_utf8_csv(self, corpus_files, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"id,year\nKh\xe9las,1800\n")
        out = tmp_path / "combined.oft"
        argv = ["ingest", *corpus_files, "--csv", str(csv_path), "--class", "Species"]
        assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


class TestOutOfMemory:
    """A command that runs out of memory ends with one stderr line and exit
    2, printed once the objects its frames held are freed, and writes no
    `-o` file."""

    def test_memory_error_in_any_command(self, tmp_path, monkeypatch, capsys):
        a = write(tmp_path / "a.oft", "class A\n")
        rows = write(tmp_path / "rows.csv", "id\n")
        out = str(tmp_path / "out.oft")
        held = []

        class Ontology:
            """Stands for what a command holds when memory runs out."""

        def exhausted(args):
            ontology = Ontology()
            held.append(weakref.ref(ontology))
            raise MemoryError

        def printed(*values, **kwargs):
            freed.append(all(ref() is None for ref in held))
            print(*values, **kwargs)

        freed = []
        monkeypatch.setattr(cli, "print", printed, raising=False)
        for argv in [
            ["check", a],
            ["query", a, "-q", "A"],
            ["export-dot", a, "--inferred"],
            ["stats", a],
            ["merge", a, a, "-o", out],
            ["ingest", a, "--csv", rows, "--class", "A", "--map", "id=p", "-o", out],
        ]:
            # `run` looks the command up at each call, so the replaced one runs.
            monkeypatch.setattr(cli, "_cmd_" + argv[0].replace("-", "_"), exhausted)
            assert run(argv) == 2
            assert capsys.readouterr() == ("", "error: out of memory\n")
        assert len(held) == 6 and freed == [True] * 6
        assert sorted(p.name for p in tmp_path.iterdir()) == ["a.oft", "rows.csv"]

    @pytest.mark.skipif(sys.platform != "linux", reason="reads the process size from /proc")
    def test_a_capped_child_runs_out_of_memory(self, tmp_path):
        """Each command runs in a child that caps its own address space 12 MB
        above its size once the CLI is imported, and loads a file that needs
        several times that."""
        n = 20000
        lines = ["objprop r", "dataprop p type number"]
        for i in range(n):
            lines += [f"class C{i}" + (f" sub C{i - 1}" if i else "")]
            lines += [f"individual i{i} type C{i}", f"rel i{i} r i{i * 7 % n}"]
        big = write(tmp_path / "big.oft", "\n".join(lines) + "\n")
        rows = write(tmp_path / "rows.csv", "id,x\nq,1\n")
        out = tmp_path / "out.oft"
        capped = (
            "import resource, sys, ontokit.cli\n"
            "status = open('/proc/self/status').read().splitlines()\n"
            "size = int(next(s for s in status if s.startswith('VmSize:')).split()[1]) * 1024\n"
            "hard = resource.getrlimit(resource.RLIMIT_AS)[1]\n"
            "resource.setrlimit(resource.RLIMIT_AS, (size + 12 * 2**20, hard))\n"
            "sys.exit(ontokit.cli.run(sys.argv[1:]))\n"
        )
        src = str(Path(ontokit.__file__).resolve().parents[1])
        for argv in [
            ["ingest", big, "--csv", rows, "--class", "C0", "--map", "x=p", "-o", str(out)],
            ["query", big, "-q", "r some C0"],
        ]:
            result = subprocess.run(
                [sys.executable, "-c", capped, *argv],
                env={**os.environ, "PYTHONPATH": src},
                capture_output=True,
                text=True,
            )
            assert (result.returncode, result.stdout, result.stderr) == (
                2,
                "",
                "error: out of memory\n",
            )
        assert not out.exists()


def _bulk_inputs(tmp_path, n):
    """An ontology of `n` individuals with validator findings, the same with
    `2 * n` malformed lines added, a clashing merge partner and an `n`-row
    CSV file; their paths."""
    leaves = [f"class L{k} sub R{k % 5}" for k in range(20)]
    head = [f"class R{k}" for k in range(5)] + leaves + [
        "objprop knows domain R0 range R1",
        "dataprop num domain R0 type number card single",
        "dataprop tag type string card multiple",
    ]
    body = []
    for k in range(n):
        body += [f"individual i{k} type L{k % 20}", f"rel i{k} knows i{(k * 7) % n}"]
        body += [f'attr i{k} num "x{k}"' if k % 3 else f"attr i{k} num {k}"]
        body += [f'attr i{k} tag "t{k % 11}"']
    malformed = [f"rel i{k} knows" if k % 2 else f"attr i{k} num 1 2" for k in range(2 * n)]
    clash = ["class R0", "dataprop num type string", "individual j0 type R0", 'attr j0 num "y"']
    rows = "".join(f"new{k},{k}\n" for k in range(n))
    return (
        write(tmp_path / "a.oft", "\n".join(head + body) + "\n"),
        write(tmp_path / "bad.oft", "\n".join(head + body + malformed) + "\n"),
        write(tmp_path / "b.oft", "\n".join(clash) + "\n"),
        write(tmp_path / "rows.csv", "id,n\n" + rows),
    )


class TestCollectorPause:
    """`run` pauses the cyclic collector while a command runs and leaves it
    as it found it."""

    @pytest.fixture(params=[True, False], ids=["enabled", "disabled"])
    def collecting(self, request):
        was = gc.isenabled()
        (gc.enable if request.param else gc.disable)()
        yield request.param
        (gc.enable if was else gc.disable)()

    def test_state_restored_on_every_exit(
        self, collecting, corpus_files, tmp_path, capsys, monkeypatch
    ):
        bad = write(tmp_path / "bad.oft", "clazz A\n")
        for argv, code in [
            (["check", *corpus_files], 0),
            (["stats", bad], 1),  # raised as `_Failed`
            (["check", str(tmp_path / "missing.oft")], 2),
            (["frobnicate"], 2),
        ]:
            assert run(argv) == code
            assert gc.isenabled() is collecting
        during = []

        def broken(args):
            during.append(gc.isenabled())
            raise RuntimeError("broken command")

        monkeypatch.setattr(cli, "_cmd_check", broken)
        with pytest.raises(RuntimeError, match="broken command"):
            run(["check", *corpus_files])
        assert during == [False]
        assert gc.isenabled() is collecting
        capsys.readouterr()

    def test_no_command_leaves_cycles_that_grow_with_its_input(self, tmp_path, capsys):
        """What a collection after a command finds unreachable does not grow
        with the input, findings and malformed lines included: reference
        counting frees what the command drops, which is what the pause
        relies on."""
        def commands(n):
            folder = tmp_path / str(n)
            folder.mkdir()
            a, bad, b, rows = _bulk_inputs(folder, n)
            out = str(folder / "out.oft")
            ingest = ["ingest", a, "--csv", rows, "--class", "R0", "--map", "n=num"]
            return [
                (["check", a], 1),
                (["check", bad], 1),
                (["merge", a, b, "-o", out], 1),
                ([*ingest, "-o", out], 0),
                (["query", a, "-q", "knows some R1"], 0),
            ]

        def unreachable(command):
            argv, code = command
            gc.collect()
            assert run(argv) == code, argv
            return gc.collect()

        small, large = commands(100), commands(1000)
        for argv in small:  # the first run of each command fills caches
            unreachable(argv)
        for few, many in zip(small, large):
            assert unreachable(many) <= unreachable(few), many[0][0]
        capsys.readouterr()


    def test_commands_leave_no_cycles(self, corpus_files, capsys):
        """The parser is built once per process and kept, so once it is
        built (argparse leaves some cyclic garbage then), a command leaves
        nothing for a collection to find."""
        cli._parser()
        for argv in (
            ["stats", *corpus_files],
            ["check", *corpus_files],
            ["query", *corpus_files, "-q", "Date_fruit", "-m", "direct-subclasses"],
        ):
            gc.collect()
            assert run(argv) == 0, argv
            assert gc.collect() == 0, argv[0]
        capsys.readouterr()

    def test_usage_errors_and_help_leave_no_cycles(self, capsys, monkeypatch):
        """A usage error of the top-level parser or of a subcommand, and a
        help text, leave nothing for a collection to find, and print the
        same bytes as argparse's own formatter."""
        cli._parser()
        for argv, code in (["frobnicate"], 2), (["check"], 2), (["-h"], 0), (["check", "-h"], 0):
            gc.collect()
            assert run(argv) == code
            assert gc.collect() == 0, argv
            printed = capsys.readouterr()
            with monkeypatch.context() as stock:
                stock.setattr(cli._Formatter, "format_help", argparse.HelpFormatter.format_help)
                assert run(argv) == code
            assert printed == capsys.readouterr()
            assert (printed.err if code else printed.out).startswith("usage: ontokit")


class TestLazyViews:
    """Each command computes only the closure and membership masks it reads:
    a spy keeps every closure and realization the commands make, and the
    test reads which entries of their view dicts were computed."""

    @pytest.fixture()
    def made(self, monkeypatch):
        made = {"closures": [], "realizations": []}

        def spy(module, name, kind):
            real = getattr(module, name)

            def wrapper(*args):
                result = real(*args)
                made[kind].append(result[0] if kind == "closures" else result)
                return result

            monkeypatch.setattr(module, name, wrapper)

        spy(cli, "compute_closure", "closures")
        spy(ontokit.exchange, "compute_closure", "closures")
        spy(cli, "realize", "realizations")
        return made

    @staticmethod
    def computed(view) -> set[str]:
        return set(dict.keys(view.masks))

    def test_check_computes_only_domain_and_range_members(self, corpus, corpus_files, made, capsys):
        assert run(["check", *corpus_files]) == 0
        (closure,), (realization,) = made["closures"], made["realizations"]
        assert not self.computed(closure.ancestors) and not self.computed(closure.descendants)
        assert not self.computed(realization.types_of)
        # Each property's contract, from its first declaration.
        decl = corpus.declarations
        asserted = {ax.prop for ax in corpus.obj_assertions + corpus.data_assertions}
        read = {decl[p].domain for p in asserted} | {
            decl[ax.prop].range for ax in corpus.obj_assertions
        }
        read |= {
            decl[p].domain
            for p in corpus.data_properties
            if decl[p].facet.cardinality is Cardinality.MULTIPLE
        }
        read.discard(None)
        assert read and self.computed(realization.members_of) == read
        capsys.readouterr()

    @pytest.mark.parametrize(
        "query, named",
        [("Dates", {"Dates"}), ("Species and has_benefits some Health", {"Species", "Health"})],
    )
    def test_instance_query_computes_only_its_classes(self, corpus_files, made, capsys, query, named):
        assert run(["query", *corpus_files, "-q", query]) == 0
        (closure,), (realization,) = made["closures"], made["realizations"]
        assert not self.computed(closure.ancestors) and not self.computed(closure.descendants)
        assert not self.computed(realization.types_of)
        assert self.computed(realization.members_of) == named
        capsys.readouterr()

    def test_other_commands_compute_no_members(self, corpus_files, tmp_path, made, capsys):
        csv_path = write(tmp_path / "rows.csv", "id,year\nKhalas,1900\n")
        for argv in [
            ["ingest", *corpus_files, "--csv", csv_path, "--class", "Species",
             "--map", "year=has_date_of_origin", "-o", str(tmp_path / "i.oft")],
            ["merge", corpus_files[0], corpus_files[0], "-o", str(tmp_path / "m.oft")],
            *(["query", *corpus_files, "-q", "Developing_stages", "-m", mode]
              for mode in ("subclasses", "direct-subclasses", "superclasses", "direct-superclasses")),
        ]:
            assert run(argv) == 0, argv
        # Six closures, and no realization whose members a command could compute.
        assert len(made["closures"]) == 6 and not made["realizations"]
        capsys.readouterr()

    def test_dot_computes_no_view_entry(self, corpus_files, made, capsys):
        """The inferred DOT reduces the taxonomy in its own pass over the
        class order, so neither DOT mode computes a closure entry."""
        assert run(["export-dot", *corpus_files]) == 0
        assert run(["export-dot", *corpus_files, "--inferred"]) == 0
        for closure in made["closures"]:
            assert not self.computed(closure.ancestors) and not self.computed(closure.descendants)
        assert len(made["closures"]) == 2 and not made["realizations"]
        capsys.readouterr()


def test_output_independent_of_hash_seed(corpus_files):
    """Byte-identical CLI output in fresh interpreters with different
    string-hash seeds."""
    commands = [
        ["check", *corpus_files],
        ["export-dot", *corpus_files, "--inferred"],
        ["query", *corpus_files, "-q", "Date_fruit", "-m", "direct-subclasses"],
    ]
    src = str(Path(ontokit.__file__).resolve().parents[1])
    outputs = []
    for seed in ("0", "1"):
        env = dict(os.environ, PYTHONHASHSEED=seed, PYTHONPATH=src)
        runs = [
            subprocess.run(
                [sys.executable, "-c", "from ontokit.cli import main; main()", *argv],
                env=env,
                capture_output=True,
                check=True,
            )
            for argv in commands
        ]
        outputs.append([(r.stdout, r.stderr) for r in runs])
    assert outputs[0] == outputs[1]
    assert all(out for out, _ in outputs[0])


@pytest.mark.parametrize("module", ["ontokit", "ontokit.cli"])
def test_python_m_entry_points(tmp_path, module):
    """`python -m ontokit` and `python -m ontokit.cli` run the CLI: a bad
    file exits 1 with its diagnostic, without an install."""
    bad = write(tmp_path / "bad.oft", "class A sub Missing\n")
    src = str(Path(ontokit.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    result = subprocess.run(
        [sys.executable, "-m", module, "check", bad], env=env, capture_output=True, text=True
    )
    assert result.returncode == 1
    assert "E_UNKNOWN_REF Missing is not declared" in result.stderr
    assert result.stdout == "1 errors, 0 warnings\n"


def test_start_leaves_package_resources_unloaded():
    """`importlib.resources` (which loads `zipfile` and `tempfile`) is not
    imported at a start of the CLI. `-S` keeps `site` from importing it first."""
    src = str(Path(ontokit.__file__).resolve().parents[1])
    code = "import sys, ontokit.cli; print('importlib.resources' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-S", "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert result.stdout == "False\n"


_CORPUS_LINES = [
    line for path in corpus_paths() for line in path.read_text(encoding="utf-8").splitlines()
]
# Text without "/", so every file a run names or writes is in its directory.
_WORDS = st.text(max_size=6).filter(lambda s: "/" not in s)
_FILES = st.one_of(
    st.just("a.oft"), st.just("a.oft"), st.just("b.oft"),
    st.sampled_from(["rows.csv", "missing.oft", ".", "a\x00b.oft"]), _WORDS,
)
_QUERIES = st.sampled_from(
    ["Date_fruit", "A", "p some A", "has_benefits some Health", "(", "p value 1"]
) | st.text(max_size=12)
_OFT_BYTES = st.one_of(
    st.binary(max_size=64),
    st.lists(
        # Thing below a class is a cycle that the build itself reports.
        st.sampled_from([*_CORPUS_LINES, "class Thing sub Date_fruit"])
        | st.sampled_from(bruteforce.SCAN_FRAGMENTS),
        max_size=40,
    ).map(lambda lines: "\n".join(lines).encode("utf-8")),
    st.just("\n".join(_CORPUS_LINES).encode("utf-8")),
)
_CSV_TEXT = st.builds(
    str.__add__,
    st.sampled_from(["", "id,year\n", "id,name,year\n", "id\n"]),
    # A file holds only encodable text, so no lone surrogates.
    st.text(st.sampled_from('ab1,"\r\n\\x') | st.characters(codec="utf-8"), max_size=40),
)


@st.composite
def _argv(draw):
    """A command line: a subcommand with files and options drawn from the
    run's files and random text, or random words alone."""
    files = draw(st.lists(_FILES, min_size=1, max_size=3))
    out = draw(st.sampled_from(["out.oft", "out.oft", "a.oft", "\x00"]) | _WORDS)
    commands = ["check", "query", "export-dot", "stats", "merge", "ingest", None]
    command = draw(st.sampled_from(commands))
    if command == "query":
        mode = draw(st.sampled_from(["instances", "direct-subclasses", "superclasses", "x"]))
        return ["query", *files, "-q", draw(_QUERIES), "-m", mode]
    if command == "export-dot":
        return ["export-dot", *files, *draw(st.sampled_from([[], ["--inferred"]]))]
    if command == "merge":
        return ["merge", *(files * 2)[:2], "-o", out]
    if command == "ingest":
        mapping = draw(st.sampled_from(["year=has_date_of_origin", "id=p", "=", ""]) | _WORDS)
        target = draw(st.sampled_from(["Species", "Thing"]) | _WORDS)
        options = ["--csv", "rows.csv", "--class", target, "--map", mapping, "-o", out]
        return ["ingest", *files, *options]
    if command is not None:
        return [command, *files]
    words = _WORDS | st.sampled_from(["check", "-q", "-o", "--csv", "-h"])
    return draw(st.lists(words, max_size=6))


@settings(
    max_examples=150,
    deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow],
)
@given(argv=_argv(), a=_OFT_BYTES, b=_OFT_BYTES, csv_text=_CSV_TEXT)
def test_run_is_total(tmp_path, monkeypatch, argv, a, b, csv_text):
    """`run` never raises on any argv, `.oft` bytes or CSV text: every run
    exits 0, 1 or 2 and prints no traceback."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a.oft").write_bytes(a)
    (tmp_path / "b.oft").write_bytes(b)
    (tmp_path / "rows.csv").write_text(csv_text, encoding="utf-8", newline="")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = run(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
