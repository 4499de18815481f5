from __future__ import annotations

import io
import json
import sys

import pytest

from codemix import parse_column_format
from codemix.cli import main
from conftest import FIXTURES

GOLDEN_CASE6 = (FIXTURES.parent / "tests" / "golden" / "case6.analyze.json").read_text(encoding="utf-8")


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestAnalyze:
    def test_math_cases_cf2_sequence(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "cases_math.tags"), "--per-sentence")
        assert code == 0
        payload = json.loads(out)
        cf2 = [row["raw"]["CF2"] for row in payload["per_sentence"]]
        assert cf2[0] == pytest.approx(95.0)
        assert cf2[1] == 0.0
        assert cf2[2] == pytest.approx(67.5)
        assert cf2[3] == pytest.approx(27.5, abs=0.1)

    def test_json_carries_raw_doubles(self, capsys):
        _, out, _ = run(capsys, "analyze", str(FIXTURES / "cases_text.tags"))
        payload = json.loads(out)
        assert payload["corpus"] == "cases_text"
        assert payload["sentences"] == 7
        assert payload["raw"]["cmi_all"] == pytest.approx(payload["cmi_all"], abs=0.005)
        assert "per_sentence" not in payload

    def test_empty_file(self, capsys, tmp_path):
        empty = tmp_path / "empty.tags"
        empty.write_text("", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(empty))
        assert code == 1
        assert "empty corpus" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run(capsys, "analyze", str(tmp_path / "nope.tags"))
        assert code == 1
        assert "nope.tags" in err

    def test_non_utf8_input_names_file(self, capsys, tmp_path):
        bad = tmp_path / "latin1.tags"
        bad.write_bytes(b"caf\xe9\tEN\n")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert err.startswith("error: ") and "latin1.tags" in err and err.count("\n") == 1

    def test_tab_or_cr_inside_surface_is_line_numbered(self, capsys, tmp_path):
        bad = tmp_path / "bad.txt"
        for fmt, text, where in (
            ("inline", b"ok/EN fine/BN\nsplit\there/EN\n", "line 2: token 1"),
            ("inline", b"ok/EN fine/BN\nx/EN\ry/BN\n", "line 2: token 1"),
            ("column", b"ok\tEN\n\nsplit\rhere\tEN\n", "line 3"),
        ):
            bad.write_bytes(text)
            code, _, err = run(capsys, "analyze", str(bad), "--format", fmt)
            assert code == 1
            assert err.startswith(f"error: {bad}: {where}: token surface contains") and err.count("\n") == 1

    def test_leading_bom_is_stripped(self, capsys, tmp_path):
        body = "hi\tEN\nyo\tBN\n"
        outputs = []
        for name, text in (("plain", body), ("glued", "\ufeff" + body), ("own_line", "\ufeff\n" + body)):
            path = tmp_path / f"{name}.tags"
            path.write_text(text, encoding="utf-8")
            code, out, _ = run(capsys, "analyze", str(path), "--out", "csv")
            assert code == 0
            outputs.append(out)
        assert outputs[0] == outputs[1] == outputs[2]

    def test_parse_error_is_line_numbered(self, capsys, tmp_path):
        bad = tmp_path / "bad.tags"
        bad.write_text("ok\tEN\nbroken\n\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(bad))
        assert code == 1
        assert "line 2" in err

    def test_custom_weights(self, capsys, tmp_path):
        src = tmp_path / "alt.tags"
        src.write_text("".join(f"w\tL{1 + i % 2}\n" for i in range(10)) + "\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", str(src), "--weights", "100,0", "--per-sentence")
        assert code == 0
        payload = json.loads(out)
        assert payload["per_sentence"][0]["raw"]["CF2"] == pytest.approx(45.0)

    def test_zero_weights_rejected(self, capsys):
        for weights in ("0,0", "nan,50", "inf,0", "1.7e308,1.7e308"):
            code, out, err = run(capsys, "analyze", str(FIXTURES / "case6.tags"), "--weights", weights)
            assert code == 1 and out == ""
            assert "weights" in err and "case6.tags" in err

    def test_csv_columns_exact(self, capsys):
        code, out, _ = run(capsys, "analyze", str(FIXTURES / "cases_text.tags"), "--out", "csv")
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "index,W,u,N,S,LF,SF,MF,CMI,CF1,CF2,CF3"
        assert len(lines) == 8  # header + 7 sentences
        assert lines[2].startswith("1,5,0,2,4,2.50,1.00,0.40,40.00")

    def test_inline_format_flag(self, capsys, tmp_path):
        src = tmp_path / "inline.txt"
        src.write_text("Ki/BN post/EN korcho/BN\n", encoding="utf-8")
        code, out, _ = run(capsys, "analyze", str(src), "--format", "inline")
        assert code == 0
        assert json.loads(out)["sentences"] == 1

    def test_unknown_tag_lenient_flag(self, capsys, tmp_path):
        src = tmp_path / "odd.tags"
        src.write_text("a\tqq\nb\tEN\n\n", encoding="utf-8")
        code, _, err = run(capsys, "analyze", str(src))
        assert code == 1 and "qq" in err
        code, out, _ = run(capsys, "analyze", str(src), "--unknown", "undefined")
        assert code == 0
        assert json.loads(out)["tokens"] == 2

    def test_custom_registry_flag(self, capsys, tmp_path):
        src = tmp_path / "es.tags"
        src.write_text("hola\tES\nworld\tEN\n\n", encoding="utf-8")
        code, _, _ = run(capsys, "analyze", str(src), "--languages", "ES,EN")
        assert code == 0
        for codes, reason in (
            ("un", "language codes and undefined aliases overlap: ['UN']"),
            (",", "--languages requires at least one code"),
        ):
            assert run(capsys, "stats", str(src), "--languages", codes) == (1, "", f"error: {src}: {reason}\n")

    def test_dash_reads_stdin(self, capsys, monkeypatch):
        for data, expected_out, expected_err in (
            ((FIXTURES / "case6.tags").read_bytes(), GOLDEN_CASE6.replace('"corpus": "case6"', '"corpus": "-"'), ""),
            (b"\xef\xbb\xbfbroken\n", "", "error: -: line 1: expected SURFACE<TAB>TAG, got 1 field(s)\n"),
        ):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            assert run(capsys, "analyze", "-") == (1 if expected_err else 0, expected_out, expected_err)


class TestDeterminism:
    def test_analyze_json_and_csv_are_byte_stable(self, capsys):
        path = str(FIXTURES / "cases_text.tags")
        _, json_a, _ = run(capsys, "analyze", path, "--per-sentence")
        _, json_b, _ = run(capsys, "analyze", path, "--per-sentence")
        assert json_a == json_b
        _, csv_a, _ = run(capsys, "analyze", path, "--out", "csv")
        _, csv_b, _ = run(capsys, "analyze", path, "--out", "csv")
        assert csv_a == csv_b

    def test_plot_svg_is_byte_stable(self, capsys, tmp_path):
        out_a, out_b = tmp_path / "a.svg", tmp_path / "b.svg"
        run(capsys, "plot", str(FIXTURES / "cases_math.tags"), "--index", "cf2", "--svg", str(out_a))
        run(capsys, "plot", str(FIXTURES / "cases_math.tags"), "--index", "cf2", "--svg", str(out_b))
        assert out_a.read_bytes() == out_b.read_bytes()


class TestCompare:
    def test_identical_files_tie(self, capsys):
        path = str(FIXTURES / "case6.tags")
        code, out, _ = run(capsys, "compare", path, path)
        assert code == 0
        payload = json.loads(out)
        assert all(row["delta"] == 0 and row["verdict"] == "TIE" for row in payload["indices"])

    def test_malformed_second_input_named(self, capsys, tmp_path):
        bad = tmp_path / "second.tags"
        bad.write_text("broken line\n", encoding="utf-8")
        code, _, err = run(capsys, "compare", str(FIXTURES / "case6.tags"), str(bad))
        assert code == 1
        assert "second.tags" in err

    def test_csv_output(self, capsys):
        path = str(FIXTURES / "case6.tags")
        code, out, _ = run(capsys, "compare", path, path, "--out", "csv")
        assert code == 0
        assert out.splitlines()[0] == "index,mean_a,mean_b,delta,verdict"


class TestPlot:
    def test_csv_contract(self, capsys, tmp_path):
        target = tmp_path / "scatter.csv"
        code, _, _ = run(capsys, "plot", str(FIXTURES / "cases_text.tags"), "--index", "cf2", "--csv", str(target))
        assert code == 0
        lines = target.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "words,cf2"
        assert len(lines) == 8
        assert lines[2] == "5,64.00"

    def test_single_sentence_svg_has_one_marker(self, capsys, tmp_path):
        target = tmp_path / "one.svg"
        run(capsys, "plot", str(FIXTURES / "case6.tags"), "--index", "cmi", "--svg", str(target))
        svg = target.read_text(encoding="utf-8")
        assert svg.count("<circle") == 1
        assert "words per sentence" in svg
        assert "CMI" in svg

    def test_unknown_index_rejected_with_choices(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["plot", str(FIXTURES / "case6.tags"), "--index", "cf9", "--csv", "x.csv"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "cf2" in err  # usage message lists the valid indices

    def test_unwritable_target_names_it(self, capsys, tmp_path):
        target = tmp_path / "missing" / "x.svg"
        code, _, err = run(capsys, "plot", str(FIXTURES / "case6.tags"), "--index", "cf2", "--svg", str(target))
        assert code == 1
        assert err == f"error: {target}: No such file or directory\n"

    def test_requires_exactly_one_target(self, capsys):
        with pytest.raises(SystemExit):
            main(["plot", str(FIXTURES / "case6.tags"), "--index", "cf2"])


class TestGenerate:
    def test_output_parses_and_round_trips(self, capsys):
        code, out, _ = run(capsys, "generate", "--sentences", "3", "--words", "8",
                           "--languages", "2", "--arrangement", "blocked", "--seed", "5")
        assert code == 0
        corpus = parse_column_format(out)
        assert len(corpus) == 3
        assert all(len(s) == 8 for s in corpus.sentences)

    def test_generation_is_byte_stable(self, capsys):
        argv = ["generate", "--sentences", "4", "--words", "3:9", "--languages", "3",
                "--arrangement", "random", "--undefined-ratio", "0.2", "--seed", "77"]
        _, out_a, _ = run(capsys, *argv)
        _, out_b, _ = run(capsys, *argv)
        assert out_a == out_b

    def test_generate_pipes_into_analyze_with_defaults(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--sentences", "2", "--words", "6", "--languages", "3")
        src = tmp_path / "gen.tags"
        src.write_text(out, encoding="utf-8")
        code, report, _ = run(capsys, "analyze", str(src))
        assert code == 0
        assert json.loads(report)["sentences"] == 2

    def test_invalid_spec_reports_error(self, capsys):
        code, _, err = run(capsys, "generate", "--sentences", "1", "--words", "2", "--languages", "5")
        assert code == 1
        assert "language_count" in err


class TestStats:
    def test_tables_printed(self, capsys):
        code, out, _ = run(capsys, "stats", str(FIXTURES / "cases_text.tags"))
        assert code == 0
        assert "Language Independent" in out
        assert "Words/sentence" in out
        assert "CMI all" in out

    def test_long_numeric_codes_sort_numerically(self, capsys, tmp_path):
        long_code = "L" + "1" * 5000  # more digits than int() converts
        codes = [long_code, "L10", "L3", "L\u0662", "L1", "L01", "EN"]  # U+0662 is ARABIC-INDIC DIGIT TWO
        corpus = tmp_path / "long.tags"
        corpus.write_text("".join(f"w{i}\t{c}\n" for i, c in enumerate(codes)), encoding="utf-8")
        code, out, err = run(capsys, "stats", str(corpus))
        assert (code, err) == (0, "")
        rows = [line.split()[0] for line in out.splitlines() if line.split()[:1] and line.split()[0] in codes]
        assert rows == ["EN", "L01", "L1", "L\u0662", "L3", "L10", long_code]
