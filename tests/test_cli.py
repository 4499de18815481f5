from __future__ import annotations

import argparse
import gc
import io
import json
import os
import shutil
import subprocess
import sys
import tracemalloc

import pytest

from codemix import (
    DEFAULT_CONFIG,
    MetricConfig,
    aggregate,
    parse_column_format,
    parse_inline_format,
    scatter_data,
    write_corpus,
)
from codemix import cli
from codemix.cli import main
from codemix.render import (
    _report_json_pieces,
    render_per_sentence_csv,
    render_report_json,
    render_scatter_csv,
    render_scatter_svg,
)
from codemix.stats import _MEMO_SIZE
from conftest import FIXTURES, signature_corpus

GOLDEN = FIXTURES.parent / "tests" / "golden"
GOLDEN_CASE6 = (GOLDEN / "case6.analyze.json").read_text(encoding="utf-8")


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

    @pytest.mark.parametrize(
        "file, corpus",
        [("a.b.tags", "a.b"), (".hidden.tags", ".hidden"), ("..tags", "."), ("a.", "a."), (".tags", ".tags"),
         ("noext", "noext")],
    )
    def test_corpus_is_named_by_the_file_name_without_its_last_suffix(self, capsys, tmp_path, file, corpus):
        path = tmp_path / file
        path.write_bytes((FIXTURES / "case6.tags").read_bytes())
        code, out, _ = run(capsys, "analyze", str(path))
        assert (code, json.loads(out)["corpus"]) == (0, corpus)

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
        surface = "token surface contains tab/newline"
        for fmt, text, message in (
            ("inline", b"ok/EN fine/BN\nsplit\there/EN\n", f"line 2: token 1: {surface}"),
            ("inline", b"ok/EN fine/BN\nx/EN\ry/BN\n", f"line 2: token 1: {surface}"),
            ("column", b"ok\tEN\n\nsplit\rhere\tEN\n", f"line 3: {surface}"),
            ("column", b"ok\tEN\nx\r\tEN\r\n", f"line 2: {surface}"),  # a CR ends the surface and the line
            ("column", b"ok\tEN\nx\ry\tQQ\n", "line 2: unknown tag 'QQ'"),  # the tag is checked first
        ):
            bad.write_bytes(text)
            code, _, err = run(capsys, "analyze", str(bad), "--format", fmt)
            assert code == 1
            assert err.startswith(f"error: {bad}: {message}") and err.count("\n") == 1

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

    def test_overflowing_index_sum_is_one_error_line(self, capsys, tmp_path):
        text = "a\tEN\nb\tHI\n\n" * 4
        src = tmp_path / "four.tags"
        src.write_text(text, encoding="utf-8")
        reason = "the corpus sum of an index overflows: integer division result too large for a float"
        for options in ([], ["--per-sentence"], ["--out", "csv"]):
            argv = ["analyze", str(src), "--weights", "1e308,1e307", *options]
            assert run(capsys, *argv) == (1, "", f"error: {src}: {reason}\n")
        with pytest.raises(OverflowError):
            aggregate(parse_column_format(text), MetricConfig(mix_weight=1e308, switch_weight=1e307))

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
            ("", "--languages requires at least one code"),
            ("un", "language codes and undefined aliases overlap: ['UN']"),
            (",", "--languages requires at least one code"),
            ("e n", "malformed language code: 'E N'"),
            ("a/b", "malformed language code: 'A/B'"),
        ):
            assert run(capsys, "stats", str(src), "--languages", codes) == (1, "", f"error: {src}: {reason}\n")

    def test_dash_reads_stdin(self, capsys, monkeypatch):
        for data, expected_out, expected_err in (
            ((FIXTURES / "case6.tags").read_bytes(), GOLDEN_CASE6.replace('"corpus": "case6"', '"corpus": "-"'), ""),
            (b"\xef\xbb\xbfbroken\n", "", "error: -: line 1: expected SURFACE<TAB>TAG, got 1 field(s)\n"),
        ):
            monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
            assert run(capsys, "analyze", "-") == (1 if expected_err else 0, expected_out, expected_err)


class TestBadFlags:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["analyze", str(FIXTURES / "case6.tags"), "--weights", "1,2,3"],
             f"{FIXTURES / 'case6.tags'}: --weights expects 'A,B', got '1,2,3'"),
            (["analyze", str(FIXTURES / "case6.tags"), "--weights", "a,b"],
             f"{FIXTURES / 'case6.tags'}: --weights expects two numbers, got 'a,b'"),
            (["generate", "--sentences", "1", "--words", "3:", "--languages", "1"],
             "--words expects N or MIN:MAX, got '3:'"),
        ],
        ids=["three-weights", "non-numeric-weights", "open-words-range"],
    )
    def test_bad_flag_value_is_one_error_line(self, capsys, argv, message):
        assert run(capsys, *argv) == (1, "", f"error: {message}\n")


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

    def test_stdin_given_twice_rejected_before_reading(self, capsys, monkeypatch):
        stdin = io.TextIOWrapper(io.BytesIO((FIXTURES / "case6.tags").read_bytes()), encoding="utf-8")
        monkeypatch.setattr(sys, "stdin", stdin)
        assert run(capsys, "compare", "-", "-") == (1, "", "error: -: standard input can be read only once\n")
        assert stdin.buffer.tell() == 0

    @pytest.mark.parametrize("out", ["json", "csv"])
    def test_inputs_with_one_stem_are_named_by_their_paths(self, capsys, tmp_path, out):
        paths = [tmp_path / directory / "day.tags" for directory in ("a", "b")]
        for path, text in zip(paths, ["a\tEN\nb\tHI\n", "a\tEN\n"]):
            path.parent.mkdir()
            path.write_text(text, encoding="utf-8")
        code, got, err = run(capsys, "compare", *map(str, paths), "--out", out)
        # Only the names differ from a compare of two files with distinct stems and the same contents.
        for path, directory in zip(paths, ("c", "d")):
            renamed = tmp_path / directory / f"{directory}.tags"
            renamed.parent.mkdir()
            renamed.write_bytes(path.read_bytes())
        _, distinct, _ = run(capsys, "compare", str(tmp_path / "c" / "c.tags"), str(tmp_path / "d" / "d.tags"),
                             "--out", out)
        assert (code, err) == (0, "")
        if out == "json":
            payload = json.loads(got)
            assert (payload["corpus_a"], payload["corpus_b"]) == tuple(map(str, paths))
            assert {**payload, "corpus_a": "c", "corpus_b": "d"} == json.loads(distinct)
        else:
            assert got == distinct  # the CSV carries no corpus names


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

    @pytest.mark.parametrize("flag", ["--svg", "--csv"])
    def test_empty_target_is_an_error_not_a_traceback(self, capsys, flag):
        # An empty path is still the path given: it names no file, and it is not the current directory.
        code, _, err = run(capsys, "plot", str(FIXTURES / "case6.tags"), "--index", "cf2", flag, "")
        assert (code, err) == (1, "error: : No such file or directory\n")

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

    def test_generate_pipes_into_analyze_with_defaults(self, capsys, tmp_path):
        _, out, _ = run(capsys, "generate", "--sentences", "2", "--words", "6", "--languages", "3")
        src = tmp_path / "gen.tags"
        src.write_text(out, encoding="utf-8")
        code, report, _ = run(capsys, "analyze", str(src))
        assert code == 0
        assert json.loads(report)["sentences"] == 2

    def test_invalid_spec_reports_error(self, capsys):
        assert run(capsys, "generate", "--sentences", "1", "--words", "2", "--languages", "5") == (
            1,
            "",
            "error: language_count 5 exceeds minimum sentence length 2\n",
        )

    def test_a_words_maximum_no_list_can_hold_is_one_error_line(self):
        # 2**64 lengths once drew a sentence of about 10**19 tokens, whose text grew until generate was killed.
        done = _run_child(["generate", "--sentences", "1", "--words", "1:18446744073709551616", "--languages", "1"])
        assert (done.returncode, done.stdout) == (1, b"")
        assert done.stderr == b"error: words maximum 18446744073709551616 exceeds sys.maxsize\n"


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


def _large_text(fmt: str) -> bytes:
    """More than 64 KiB of CRLF text: a 3-byte character straddles bytes 8192 and 65536,
    with runs of blank lines in between and trailing blank lines at the end."""
    token = "w{}\tEN\r\n" if fmt == "column" else "w{}/EN x/HI\r\n"
    straddle = "{}\u0915\tHI\r\n" if fmt == "column" else "{}\u0915/HI y/EN\r\n"
    data = b""
    for boundary in (8192, 65536):
        while len(data) < boundary - 200:
            data += token.format(len(data)).encode()
            if len(data) % 7 == 0:
                data += b"\r\n\r\n\r\n"  # empty sentences in column, empty lines in inline
        pad = boundary - 1 - len(data)  # the character starts one byte before the boundary
        data += straddle.format("p" * pad).encode()
    while len(data) < 70_000:
        data += token.format(len(data)).encode()
    return data + b"\r\n\r\n\r\n\r\n"


class TestLargeInput:
    @pytest.mark.parametrize("fmt", ["column", "inline"])
    def test_stdout_and_warning_equal_the_library_on_the_decoded_text(self, capsys, caplog, tmp_path, fmt):
        data = _large_text(fmt)
        for boundary in (8192, 65536):
            assert data[boundary - 1 : boundary + 2].decode() == "\u0915"
        path = tmp_path / "large.txt"
        path.write_bytes(data)
        caplog.clear()
        code, out, err = run(capsys, "analyze", str(path), "--format", fmt, "--per-sentence")
        assert (code, caplog.messages) == (0, [])  # the CLI writes its warning itself
        parser = parse_inline_format if fmt == "inline" else parse_column_format
        report = aggregate(parser(data.decode("utf-8"), name="large"))
        assert out == render_report_json(report, DEFAULT_CONFIG, per_sentence=True)
        [warning] = caplog.messages
        assert warning.startswith("large: skipped ")
        assert err == f"warning: {path}: {warning.removeprefix('large: ')}\n"

    def test_undecodable_byte_past_64_kib_gives_the_file_offset(self, capsys, monkeypatch, tmp_path):
        data = b"ok\tEN\n" * 20_000 + b"caf\xe9\tEN\n"
        reason = "'utf-8' codec can't decode byte 0xe9 in position 120003: invalid continuation byte"
        path = tmp_path / "late.tags"
        path.write_bytes(data)
        assert run(capsys, "stats", str(path)) == (1, "", f"error: {path}: {reason}\n")
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data), encoding="utf-8"))
        assert run(capsys, "stats", "-") == (1, "", f"error: -: {reason}\n")


class TestSharedRows:
    """The CLI and the library renderers both format one row body per signature and share it."""

    @pytest.mark.parametrize("weights", ["50,50", "30,70"])
    @pytest.mark.parametrize("corpus", ["repeats", "distinct"])
    def test_per_sentence_outputs_equal_the_library(self, capsys, tmp_path, corpus, weights):
        # Most sentences of repeats share a signature, and none of distinct's do; test_golden pins both.
        path = GOLDEN / f"{corpus}.tags"
        sentences = parse_column_format(path.read_text(encoding="utf-8"), name=corpus)
        config = MetricConfig(*map(float, weights.split(",")))
        report = aggregate(sentences, config)
        signatures = len({counts for counts, _ in report.per_sentence})
        assert signatures < len(sentences) / 10 if corpus == "repeats" else signatures == len(sentences)
        json_out = run(capsys, "analyze", str(path), "--per-sentence", "--weights", weights)
        assert json_out == (0, render_report_json(report, config, per_sentence=True), "")
        csv_out = run(capsys, "analyze", str(path), "--out", "csv", "--weights", weights)
        assert csv_out == (0, render_per_sentence_csv(report), "")
        pairs = scatter_data(aggregate(sentences), "cf2")  # plot scores with the default weights
        for target, render in (("csv", render_scatter_csv), ("svg", render_scatter_svg)):
            written = tmp_path / f"plot.{target}"
            assert run(capsys, "plot", str(path), "--index", "cf2", f"--{target}", str(written)) == (0, "", "")
            assert written.read_text(encoding="utf-8") == render(pairs, "cf2")

    def test_per_sentence_outputs_past_both_memo_caps_equal_the_library(self, capsys, tmp_path):
        # More signatures than the fold and the row formatter remember, then repeats of the first and the last.
        corpus = signature_corpus()
        path = tmp_path / f"{corpus.name}.tags"
        path.write_text(write_corpus(corpus), encoding="utf-8")
        report = aggregate(corpus)
        assert len({counts for counts, _ in report.per_sentence}) > _MEMO_SIZE
        json_out = run(capsys, "analyze", str(path), "--per-sentence")
        assert json_out == (0, render_report_json(report, DEFAULT_CONFIG, per_sentence=True), "")
        assert run(capsys, "analyze", str(path), "--out", "csv") == (0, render_per_sentence_csv(report), "")
        written = tmp_path / "plot.csv"
        assert run(capsys, "plot", str(path), "--index", "cf2", "--csv", str(written)) == (0, "", "")
        assert written.read_text(encoding="utf-8") == render_scatter_csv(scatter_data(report, "cf2"), "cf2")

    def test_per_sentence_closes_alike_for_rows_in_a_list_in_an_iterator_or_none(self):
        # The rows come from the report itself: with per_sentence, without, and for a report that has none.
        report = aggregate(parse_column_format("a\tEN\nb\tHI\n\nc\tEN\n"))
        payload = json.loads(render_report_json(report, DEFAULT_CONFIG))
        whole = render_report_json(report, DEFAULT_CONFIG, per_sentence=True)
        parsed = json.loads(whole)
        assert ([row["index"] for row in parsed.pop("per_sentence")], parsed) == ([0, 1], payload)
        assert "".join(_report_json_pieces(report, DEFAULT_CONFIG, True)) == whole
        assert "".join(_report_json_pieces(report, DEFAULT_CONFIG, False)) == json.dumps(payload, indent=2) + "\n"
        empty = json.dumps({**payload, "per_sentence": []}, indent=2) + "\n"
        assert "".join(_report_json_pieces(report._replace(per_sentence=()), DEFAULT_CONFIG, True)) == empty
        assert render_report_json(report._replace(per_sentence=()), DEFAULT_CONFIG, True) == empty


def _child_env() -> dict[str, str]:
    """The environment of a `python -m codemix.cli` child: this one, with the checkout's src on PYTHONPATH."""
    src = str(FIXTURES.parent / "src")
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


class TestWarningOnStderr:
    @pytest.mark.parametrize(
        "fmt, text, clean, skipped",
        [
            ("column", "a\tEN\n\n\nb\tHI\n\n\n\nc\tEN\n", "a\tEN\n\nb\tHI\n\nc\tEN\n", 3),
            ("inline", "a/EN b/HI\n\nc/EN\n\n", "a/EN b/HI\nc/EN\n", 1),
        ],
        ids=["column", "inline"],
    )
    def test_skipped_empty_sentences_print_one_warning_line(self, tmp_path, fmt, text, clean, skipped):
        runs = []
        for directory, body in (("skip", text), ("clean", clean)):
            path = tmp_path / directory / "skip.tags"
            path.parent.mkdir()
            path.write_text(body, encoding="utf-8")
            argv = [sys.executable, "-m", "codemix.cli", "stats", str(path), "--format", fmt]
            runs.append(subprocess.run(argv, capture_output=True, env=_child_env(), timeout=60))
        warned, plain = runs
        assert (warned.returncode, plain.returncode, plain.stderr) == (0, 0, b"")
        skipped_path = tmp_path / "skip" / "skip.tags"
        assert warned.stderr == f"warning: {skipped_path}: skipped {skipped} empty sentence(s)\n".encode()
        assert warned.stdout == plain.stdout

    def test_compare_names_each_file_it_warns_about(self, capsys, tmp_path):
        paths = [tmp_path / directory / "day.tags" for directory in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_text("a\tEN\n\n\nb\tHI\n", encoding="utf-8")
        code, _, err = run(capsys, "compare", *map(str, paths))
        assert (code, err) == (0, "".join(f"warning: {path}: skipped 1 empty sentence(s)\n" for path in paths))


class TestStartup:
    def test_cli_import_and_run_load_no_dataclasses_or_logging(self):
        listing = "import sys; sys.stderr.write(' '.join(sys.modules))"
        case6 = str(FIXTURES / "case6.tags")
        loaded = []
        for script in (listing, f"import codemix.cli; codemix.cli.main(['stats', {case6!r}]); {listing}"):
            done = subprocess.run([sys.executable, "-c", script], capture_output=True, env=_child_env(), timeout=60)
            assert done.returncode == 0, done.stderr.decode()
            loaded.append(set(done.stderr.decode().split()))
        bare, cli = loaded  # what site loads in a bare interpreter is not the CLI's doing
        assert "codemix.cli" in cli
        assert (cli - bare) & {"dataclasses", "inspect", "logging", "ast", "dis", "tokenize"} == set()

    # Each subcommand with the modules it must not load, beside those no subcommand loads.
    _MODULES = {"json", "codemix.corpus_io", "codemix.model", "codemix.metrics", "codemix.stats", "codemix.render"}
    _ABSENT = {
        "analyze_json": (["analyze", "{case6}", "--per-sentence"], set()),
        "analyze_csv": (["analyze", "{case6}", "--out", "csv"], {"json"}),
        "stats": (["stats", "{case6}"], {"json"}),
        "compare": (["compare", "{case6}", "{synth7}"], set()),
        "plot_csv": (["plot", "{case6}", "--index", "cf2", "--csv", "{plot}"], {"json"}),
        "generate": (
            ["generate", "--sentences", "5", "--words", "3", "--languages", "2", "--arrangement", "random"], _MODULES
        ),
        "help": (["analyze", "--help"], _MODULES),
    }

    @pytest.mark.parametrize("name", sorted(_ABSENT))
    def test_each_subcommand_on_a_bare_interpreter_loads_only_its_modules(self, tmp_path, name):
        # One child per subcommand, so one subcommand's imports cannot hide another's. Under -S, site imports
        # nothing, so every module that -X importtime lists is the CLI's doing.
        paths = {"case6": FIXTURES / "case6.tags", "synth7": GOLDEN / "synth7.tags", "plot": tmp_path / "plot.csv"}
        template, absent = self._ABSENT[name]
        argv = [arg.format(**paths) for arg in template]
        command = [sys.executable, "-S", "-X", "importtime", "-m", "codemix.cli", *argv]
        done = subprocess.run(command, capture_output=True, env=_child_env(), timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        lines = done.stderr.decode().splitlines()
        loaded = {line.rsplit("|", 1)[1].strip() for line in lines if line.startswith("import time:")}
        assert "codemix" in loaded
        assert loaded & {"typing", "dataclasses", "inspect", "logging", "pathlib", "shutil", *absent} == set()
        if name == "generate":
            assert {module for module in loaded if module.startswith("codemix")} == {"codemix", "codemix.synth"}


class TestEntry:
    """run(), the entry of `codemix` and `python -m codemix.cli`, freezes the heap after main(); main() does not."""

    def test_main_leaves_the_heap_unfrozen_and_run_freezes_it(self, capsys, monkeypatch):
        argv = ["stats", str(FIXTURES / "case6.tags")]
        frozen = gc.get_freeze_count()
        assert main(argv) == 0
        assert gc.get_freeze_count() == frozen
        monkeypatch.setattr(sys, "argv", ["codemix", *argv])
        try:
            assert cli.run() == 0
            assert gc.get_freeze_count() > frozen
        finally:
            gc.unfreeze()
        assert capsys.readouterr().out == 2 * (GOLDEN / "case6.stats.txt").read_text(encoding="utf-8")

    def test_a_child_prints_what_main_prints_past_a_pipe_buffer(self, capsys, tmp_path):
        path = tmp_path / "corpus.tags"
        code, text, _ = run(capsys, "generate", "--sentences", "5000", "--words", "3:12", "--languages", "3",
                            "--arrangement", "random", "--undefined-ratio", "0.2", "--seed", "11")
        assert code == 0
        path.write_text(text, encoding="utf-8")
        argv = ["analyze", str(path), "--per-sentence"]
        code, expected, _ = run(capsys, *argv)
        assert code == 0 and len(expected) > 1 << 20  # far past a 64 KiB pipe buffer
        done = _run_child(argv)
        assert (done.returncode, done.stderr.decode(), done.stdout) == (0, "", expected.encode("utf-8"))


class TestClosedPipe:
    @pytest.mark.parametrize(
        "argv",
        [["stats", str(FIXTURES / "case6.tags")], ["generate", "--sentences", "5", "--words", "3", "--languages", "2"]],
        ids=["stats", "generate"],
    )
    def test_closed_stdout_exits_1_without_a_traceback(self, argv):
        read_end, write_end = os.pipe()
        os.close(read_end)  # the reader has gone away before the first write
        try:
            done = subprocess.run([sys.executable, "-m", "codemix.cli", *argv], stdout=write_end,
                                  stderr=subprocess.PIPE, env=_child_env(), timeout=60)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert b"Traceback" not in done.stderr, done.stderr.decode()


def _locale_env(**settings: str) -> dict[str, str]:
    """_child_env() under LANG=C.UTF-8 and no other locale or stdio setting, then `settings`."""
    unset = {"LC_ALL", "LC_CTYPE", "PYTHONIOENCODING", "PYTHONUTF8"}
    return {**{k: v for k, v in _child_env().items() if k not in unset}, "LANG": "C.UTF-8", **settings}


def _run_child(argv, env=None, redirect=""):
    """`python -m codemix.cli *argv` as a child, started by sh with `redirect` (such as `>&-`) when one is given."""
    command = [sys.executable, "-m", "codemix.cli", *argv]
    if redirect:
        command = ["sh", "-c", f'exec "$@" {redirect}', "sh", *command]
    return subprocess.run(command, capture_output=True, env=env or _child_env(), timeout=60)


class TestStdoutBytes:
    """Standard output is UTF-8 whatever PYTHONIOENCODING says, and each failure is one error line."""

    @pytest.mark.parametrize("encoding", ["utf-16", "ascii", "utf-8"])
    @pytest.mark.parametrize(
        "argv, golden",
        [
            (["analyze", str(FIXTURES / "case6.tags"), "--per-sentence"], "case6.analyze_per_sentence.json"),
            (["analyze", str(FIXTURES / "case6.tags"), "--out", "csv"], "case6.analyze.csv"),
            (["stats", str(FIXTURES / "case6.tags")], "case6.stats.txt"),
            (["compare", str(FIXTURES / "case6.tags"), str(GOLDEN / "synth7.tags")], "case6-synth7.compare.json"),
            (["generate", "--sentences", "40", "--words", "3:16", "--languages", "3", "--arrangement", "random",
              "--undefined-ratio", "0.1", "--seed", "7"], "synth7.tags"),
        ],
        ids=["analyze-json", "analyze-csv", "stats", "compare", "generate"],
    )
    def test_output_is_its_golden_bytes_under_any_pythonioencoding(self, argv, golden, encoding):
        done = _run_child(argv, _locale_env(PYTHONIOENCODING=encoding))
        assert (done.returncode, done.stderr.decode()) == (0, "")
        assert done.stdout == (GOLDEN / golden).read_bytes()

    @pytest.mark.skipif(sys.platform != "linux", reason="needs a file system that takes any bytes as a name")
    @pytest.mark.parametrize("encoding", ["utf-16", "ascii", "utf-8"])
    @pytest.mark.parametrize(
        "name, text, flags",
        [
            (b"bad\xff", (FIXTURES / "case6.tags").read_text(encoding="utf-8"), []),
            ("हिन्दी".encode(), "नमस्ते\tहि\nfriend\tEN\n\nदोस्त\tहि\n", ["--languages", "हि,EN".encode()]),
        ],
        ids=["undecodable-name", "devanagari"],
    )
    def test_stats_prints_what_a_utf8_locale_prints(self, tmp_path, name, text, flags, encoding):
        path = os.path.join(os.fsencode(tmp_path), name + b".tags")
        with open(path, "w", encoding="utf-8") as corpus:
            corpus.write(text)
        argv = ["stats", path, *flags]
        expected, done = _run_child(argv, _locale_env()), _run_child(argv, _locale_env(PYTHONIOENCODING=encoding))
        assert expected.stdout.startswith(b"corpus: " + name + b"\n"), expected.stderr.decode()
        assert (done.returncode, done.stderr.decode(), done.stdout) == (0, "", expected.stdout)

    @pytest.mark.skipif(os.name != "posix", reason="closes or redirects a descriptor through sh")
    @pytest.mark.parametrize(
        "argv, redirect, message",
        [
            (["stats", str(FIXTURES / "case6.tags")], ">/dev/full", "error: <stdout>: No space left on device"),
            (["generate", "--sentences", "20000", "--words", "3:16", "--languages", "3"], ">/dev/full",
             "error: <stdout>: No space left on device"),
            (["stats", str(FIXTURES / "case6.tags")], ">&-", "error: <stdout>: Bad file descriptor"),
            (["analyze", "-"], "<&-", "error: -: standard input is closed"),
            (["--help"], ">/dev/full", "error: <stdout>: No space left on device"),
        ],
        ids=["stats-full", "generate-full", "stats-closed-stdout", "analyze-closed-stdin", "help-full"],
    )
    def test_a_failed_stream_is_one_error_line(self, argv, redirect, message):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        done = _run_child(argv, redirect=redirect)
        assert (done.returncode, done.stdout, done.stderr.decode()) == (1, b"", f"{message}\n")


class TestStderrBytes:
    """Error and warning lines are UTF-8 whatever PYTHONIOENCODING says, and a failing stderr costs no output."""

    @pytest.mark.skipif(os.name != "posix", reason="closes or redirects a descriptor through sh")
    @pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed-stderr", "full-stderr"])
    @pytest.mark.parametrize(
        "text, code", [("a\tEN\n\n\nb\tHI\n", 0), (None, 1)], ids=["skipped-sentence", "missing-file"]
    )
    def test_a_failed_stderr_changes_neither_stdout_nor_the_status(self, tmp_path, redirect, text, code):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        path = tmp_path / "corpus.tags"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        plain, done = _run_child(["stats", str(path)]), _run_child(["stats", str(path)], redirect=redirect)
        assert (plain.returncode, plain.stderr[:6]) == (code, b"warnin" if code == 0 else b"error:")
        assert (done.returncode, done.stdout, done.stderr) == (code, plain.stdout, b"")

    @pytest.mark.skipif(sys.platform != "linux", reason="needs a file system that takes any bytes as a name")
    @pytest.mark.parametrize("encoding", [None, "utf-16", "ascii", "utf-8"], ids=["C.UTF-8", "utf-16", "ascii", "utf-8"])
    @pytest.mark.parametrize(
        "name, text, line",
        [
            (b"bad\xff", None, b"error: %s: No such file or directory\n"),
            ("नहीं".encode(), None, b"error: %s: No such file or directory\n"),
            ("नहीं".encode(), "a\tEN\n\n\nb\tHI\n", b"warning: %s: skipped 1 empty sentence(s)\n"),
        ],
        ids=["missing-undecodable-name", "missing-devanagari-name", "skipped-devanagari-name"],
    )
    def test_a_file_name_is_printed_back_as_its_bytes(self, tmp_path, name, text, line, encoding):
        path = os.path.join(os.fsencode(tmp_path), name + b".tags")
        if text is not None:
            with open(path, "w", encoding="utf-8") as corpus:
                corpus.write(text)
        done = _run_child(["stats", path], _locale_env(**({"PYTHONIOENCODING": encoding} if encoding else {})))
        assert (done.returncode, done.stderr) == (0 if text else 1, line % path)


# No PYTHONIOENCODING, then two that the help and usage bytes must not follow.
_HELP_ENCODINGS = pytest.mark.parametrize(
    "settings", [{}, {"PYTHONIOENCODING": "utf-16"}, {"PYTHONIOENCODING": "ascii"}], ids=["locale", "utf-16", "ascii"]
)


def _not_a_terminal(fd: int) -> os.terminal_size:
    raise OSError(25, "Inappropriate ioctl for device")


class TestHelpBytes:
    """The help and usage text is pinned to tests/golden/help/, at a terminal width of 80 columns, as UTF-8."""

    @_HELP_ENCODINGS
    @pytest.mark.parametrize("command", ["codemix", "analyze", "stats", "compare", "plot", "generate"])
    def test_help_is_its_golden_bytes(self, command, settings):
        argv = ["--help"] if command == "codemix" else [command, "--help"]
        done = _run_child(argv, _locale_env(COLUMNS="80", **settings))
        assert (done.returncode, done.stderr.decode()) == (0, "")
        assert done.stdout == (GOLDEN / "help" / f"{command}.txt").read_bytes()

    @_HELP_ENCODINGS
    def test_a_missing_argument_prints_the_usage_and_exits_2(self, settings):
        done = _run_child(["analyze"], _locale_env(COLUMNS="80", **settings))
        assert (done.returncode, done.stdout) == (2, b"")
        assert done.stderr == (GOLDEN / "help" / "analyze_no_file.err").read_bytes()

    @pytest.mark.skipif(os.name != "posix", reason="closes or redirects a descriptor through sh")
    @pytest.mark.parametrize("redirect", ["2>&-", "2>/dev/full"], ids=["closed-stderr", "full-stderr"])
    def test_a_usage_error_exits_2_whatever_its_stderr_does(self, redirect):
        if "/dev/full" in redirect and not os.path.exists("/dev/full"):
            pytest.skip("this system has no /dev/full")
        done = _run_child(["analyze"], redirect=redirect)
        assert (done.returncode, done.stdout) == (2, b"")

    @pytest.mark.parametrize("columns", ["40", "100", "200"])
    @pytest.mark.parametrize("command", ["codemix", "analyze", "stats", "compare", "plot", "generate"])
    def test_help_wraps_as_argparse_own_formatter_wraps_it(self, capsys, monkeypatch, command, columns):
        monkeypatch.setenv("COLUMNS", columns)
        argv = ["--help"] if command == "codemix" else [command, "--help"]
        helps = []
        for formatter in (cli._HelpFormatter, argparse.HelpFormatter):
            monkeypatch.setattr(cli, "_HelpFormatter", formatter)
            with pytest.raises(SystemExit) as exit_:
                main(argv)
            assert exit_.value.code == 0
            helps.append(capsys.readouterr().out)
        assert helps[0] == helps[1]

    @pytest.mark.parametrize(
        "columns, terminal",
        [("40", None), ("200", (123, 40)), ("0", (123, 40)), ("-3", (0, 0)), ("x", "none"), (None, (97, 0)),
         (None, OSError), (None, None)],
        ids=["columns", "columns-over-terminal", "zero-columns", "negative-columns-zero-terminal",
             "bad-columns-no-stdout", "terminal", "not-a-terminal", "this-stdout"],
    )
    def test_terminal_width_is_what_shutil_gives(self, monkeypatch, columns, terminal):
        if columns is None:
            monkeypatch.delenv("COLUMNS", raising=False)
        else:
            monkeypatch.setenv("COLUMNS", columns)
        if terminal == "none":  # stdout was closed when the interpreter started
            monkeypatch.setattr(sys, "__stdout__", None)
        elif terminal is OSError:  # stdout is not a terminal
            monkeypatch.setattr(os, "get_terminal_size", _not_a_terminal)
        elif terminal is not None:
            monkeypatch.setattr(os, "get_terminal_size", lambda fd: os.terminal_size(terminal))
        assert cli._terminal_width() == shutil.get_terminal_size().columns

    def test_an_invalid_choice_is_printed_as_utf8(self):
        done = _run_child(["analyze", "x", "--format", "नहीं"], _locale_env(COLUMNS="80", PYTHONIOENCODING="ascii"))
        assert (done.returncode, done.stdout) == (2, b"")
        *_, line = done.stderr.decode("utf-8").splitlines()  # how the choices are listed may vary by version
        assert line.startswith("codemix analyze: error: argument --format: invalid choice: 'नहीं' (choose from ")


def _peak(call):
    """call()'s result and the peak of the memory it allocated, traced with the cyclic collector off.

    Each call leaves cyclic garbage, such as its argparse parser, which a
    collection frees only if the allocations since the last one, earlier
    tests' included, happen to reach the threshold during the call. With the
    collector off, every peak counts that garbage, so two peaks differ only
    by what the call itself holds.
    """
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        return call(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()


class TestMemory:
    def test_stats_and_compare_peaks_do_not_grow_with_the_corpus(self, capsys, tmp_path):
        peaks = {}
        for sentences in (1000, 8000):
            path = tmp_path / f"corpus{sentences}.tags"
            _, text, _ = run(capsys, "generate", "--sentences", str(sentences), "--words", "1", "--languages", "1",
                             "--undefined-ratio", "0.3", "--seed", "5")
            path.write_text(text, encoding="utf-8")
            for argv in (["stats", str(path)], ["compare", str(path), str(path)]):
                if not peaks:
                    run(capsys, *argv)  # first-call caches are not the corpus's
                (code, _, _), peaks[argv[0], sentences] = _peak(lambda: run(capsys, *argv))
                assert code == 0
        for command in ("stats", "compare"):
            assert peaks[command, 8000] <= 1.25 * peaks[command, 1000], peaks

    def test_generate_peak_does_not_grow_with_the_corpus(self, monkeypatch):
        peaks = {}
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            for sentences in (10, 1000, 8000):  # the first call's caches are not the corpus's
                argv = ["generate", "--sentences", str(sentences), "--words", "4:30", "--languages", "3",
                        "--arrangement", "random", "--undefined-ratio", "0.1", "--seed", "7"]
                code, peaks[sentences] = _peak(lambda: main(argv))
                assert code == 0
        assert peaks[8000] <= 1.25 * peaks[1000], peaks
