from __future__ import annotations

import io
import json
import os
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
        signatures = len({counts[:3] + counts[4:] for counts, _ in report.per_sentence})
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
        assert len({counts[:3] + counts[4:] for counts, _ in report.per_sentence}) > _MEMO_SIZE
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
                tracemalloc.start()
                try:
                    code, _, _ = run(capsys, *argv)
                    peaks[argv[0], sentences] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0
        for command in ("stats", "compare"):
            assert peaks[command, 8000] <= 1.25 * peaks[command, 1000], peaks

    def test_generate_peak_does_not_grow_with_the_corpus(self, monkeypatch):
        peaks = {}
        with open(os.devnull, "w", encoding="utf-8") as devnull:
            monkeypatch.setattr(sys, "stdout", devnull)
            for sentences in (10, 1000, 8000):  # the first call's caches are not the corpus's
                tracemalloc.start()
                try:
                    code = main(["generate", "--sentences", str(sentences), "--words", "4:30", "--languages", "3",
                                 "--arrangement", "random", "--undefined-ratio", "0.1", "--seed", "7"])
                    peaks[sentences] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                assert code == 0
        assert peaks[8000] <= 1.25 * peaks[1000], peaks
