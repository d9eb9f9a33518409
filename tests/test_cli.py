"""Command-line surface: subcommands, exit codes, output formats."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import ontokit
from ontokit.cli import run
from ontokit.corpus import corpus_paths


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

    def test_non_utf8_csv(self, corpus_files, tmp_path, capsys):
        csv_path = tmp_path / "bad.csv"
        csv_path.write_bytes(b"id,year\nKh\xe9las,1800\n")
        out = tmp_path / "combined.oft"
        argv = ["ingest", *corpus_files, "--csv", str(csv_path), "--class", "Species"]
        assert run([*argv, "--map", "year=has_date_of_origin", "-o", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
        assert not out.exists()


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
