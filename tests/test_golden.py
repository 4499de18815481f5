"""Exact output bytes of every CLI subcommand and of the library renderers, pinned to committed files.

The files under tests/golden/ were written once by the CLI and are never
rewritten by the tests: a change that moves any output byte fails here,
however consistent it is from run to run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from codemix import (
    Arrangement,
    GenSpec,
    MetricConfig,
    aggregate,
    generate,
    parse_column_format,
    parse_inline_format,
    write_corpus,
)
from codemix.cli import _parse_words, build_parser, main
from codemix.render import render_per_sentence_csv, render_report_json
from codemix.stats import _MEMO_SIZE
from conftest import FIXTURES, signature_corpus

GOLDEN = Path(__file__).resolve().parent / "golden"

GENERATE_ARGV = ["generate", "--sentences", "40", "--words", "3:16", "--languages", "3",
                 "--arrangement", "random", "--undefined-ratio", "0.1", "--seed", "7"]

# More `generate` specs, pinned as text only: long blocked sentences, a
# monolingual mostly-undefined corpus with one-token sentences, and a fixed length.
GENERATE_SPECS = {
    "synth_blocked": ["--sentences", "3", "--words", "80:200", "--languages", "2",
                      "--arrangement", "blocked", "--undefined-ratio", "0.1", "--seed", "41"],
    # Short blocked sentences: every length from 2 to 9 repeats 5-10 times.
    "synth_blocked_repeats": ["--sentences", "60", "--words", "2:9", "--languages", "2",
                              "--arrangement", "blocked", "--undefined-ratio", "0.3", "--seed", "13"],
    "synth_mono_un": ["--sentences", "12", "--words", "1:8", "--languages", "1",
                      "--arrangement", "alternating", "--undefined-ratio", "0.6", "--seed", "5"],
    "synth_fixed5": ["--sentences", "6", "--words", "5", "--languages", "3",
                     "--arrangement", "random", "--undefined-ratio", "0.2", "--seed", "3"],
    # Per-sentence rows that share a signature: 400 short monolingual sentences,
    # most signatures repeated, and 60 long three-language ones, none repeated.
    "repeats": ["--sentences", "400", "--words", "1:8", "--languages", "1", "--undefined-ratio", "0.6",
                "--seed", "9"],
    "distinct": ["--sentences", "60", "--words", "40:120", "--languages", "3", "--arrangement", "random",
                 "--seed", "9"],
}

# One 10002-token sentence with a single switch: SF = 1/10001 is the only way a
# golden file prints a float in exponent form ("SF": 9.999000099990002e-05).
EXPONENT_ARGV = ["generate", "--sentences", "1", "--words", "10002", "--languages", "2",
                 "--arrangement", "blocked", "--seed", "1"]

SOURCES = {
    "case6": FIXTURES / "case6.tags",
    "cases_math": FIXTURES / "cases_math.tags",
    "cases_text": FIXTURES / "cases_text.tags",
    "synth7": GOLDEN / "synth7.tags",
    "synth_mono_un": GOLDEN / "synth_mono_un.tags",
}

STDOUT_OUTPUTS = {
    "analyze.json": ["analyze"],
    "analyze_per_sentence.json": ["analyze", "--per-sentence"],
    "analyze_per_sentence_w30_70.json": ["analyze", "--per-sentence", "--weights", "30,70"],
    "analyze.csv": ["analyze", "--out", "csv"],
    "analyze_w30_70.csv": ["analyze", "--out", "csv", "--weights", "30,70"],
    "stats.txt": ["stats"],
    "analyze_tiny_weights.json": ["analyze", "--weights", "5e-324,1e-300"],
}

# INLINE copies of two sources, written once by write_corpus(..., CorpusFormat.INLINE). Each has
# its source's stem, so read with --format inline it must print its source's golden bytes.
INLINE_SOURCES = {name: GOLDEN / "inline" / f"{name}.tags" for name in ("cases_text", "synth7")}

COMPARE_PAIRS = [("cases_text", "cases_math"), ("case6", "synth7")]

# The shared-row corpora are pinned for their per-sentence outputs only.
SHARED_ROW_SOURCES = {name: GOLDEN / f"{name}.tags" for name in ("repeats", "distinct")}
PER_SENTENCE_OUTPUTS = ("analyze_per_sentence.json", "analyze_per_sentence_w30_70.json",
                        "analyze.csv", "analyze_w30_70.csv")

# conftest.signature_corpus(), the one pinned corpus with more signatures than the fold remembers, is
# written at test time and pinned for its summaries only: its per-sentence CSV alone is 254 KB.
PAST_CAP_OUTPUTS = {
    "stats.txt": ["stats"],
    "analyze.json": ["analyze"],
    "analyze_w30_70.json": ["analyze", "--weights", "30,70"],
}

# Every pinned corpus as (name, path, parser) for the library, which names a corpus as the CLI names its file.
LIBRARY_SOURCES = [
    *[(name, path, parse_column_format) for name, path in {**SOURCES, **SHARED_ROW_SOURCES}.items()],
    *[(name, path, parse_inline_format) for name, path in INLINE_SOURCES.items()],
]


# Both corpora are monolingual, so every index that the weights scale is 0 on them, and CSV
# prints no weights: their 30,70 CSV is their 50,50 CSV, and one file pins both.
WEIGHT_FREE_CSV = {"repeats", "synth_mono_un"}


def golden(name: str, output: str) -> Path:
    if name in WEIGHT_FREE_CSV and output == "analyze_w30_70.csv":
        output = "analyze.csv"
    return GOLDEN / f"{name}.{output}"


def stdout_bytes(capsys, argv: list[str]) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


def plot_bytes(tmp_path, source: Path, target: str, *flags: str) -> bytes:
    written = tmp_path / f"plot.{target}"
    assert main(["plot", str(source), *flags, "--index", "cf2", f"--{target}", str(written)]) == 0
    return written.read_bytes()


def test_generate(capsys):
    assert stdout_bytes(capsys, GENERATE_ARGV) == (GOLDEN / "synth7.tags").read_bytes()


@pytest.mark.parametrize("name", GENERATE_SPECS)
def test_generate_spec(capsys, name):
    argv = ["generate", *GENERATE_SPECS[name]]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"{name}.tags").read_bytes()


@pytest.mark.parametrize("name", GENERATE_SPECS)
def test_library_generate_equals_the_parsed_cli_text(caplog, name):
    # generate() scans the text a sentence at a time; it must equal a parse of the whole text, and skip nothing.
    args = build_parser().parse_args(["generate", *GENERATE_SPECS[name]])
    spec = GenSpec(args.sentences, _parse_words(args.words), args.languages, Arrangement(args.arrangement),
                   args.undefined_ratio, args.seed)
    expected = parse_column_format((GOLDEN / f"{name}.tags").read_text(encoding="utf-8"), name="synthetic")
    assert repr(generate(spec)) == repr(expected)  # the name, tuples and each tag's reason too
    assert caplog.messages == []


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("output", STDOUT_OUTPUTS)
def test_stdout(capsys, source, output):
    command, *flags = STDOUT_OUTPUTS[output]
    argv = [command, str(SOURCES[source]), *flags]
    assert stdout_bytes(capsys, argv) == golden(source, output).read_bytes()


def test_exponent_form_floats(capsys, tmp_path):
    source = tmp_path / "synth_exponent.tags"
    source.write_bytes(stdout_bytes(capsys, EXPONENT_ARGV))
    got = stdout_bytes(capsys, ["analyze", str(source), "--per-sentence"])
    assert got == (GOLDEN / "synth_exponent.analyze_per_sentence.json").read_bytes()


@pytest.mark.parametrize("pair", COMPARE_PAIRS, ids="-".join)
@pytest.mark.parametrize("out", ["json", "csv"])
def test_compare(capsys, pair, out):
    argv = ["compare", str(SOURCES[pair[0]]), str(SOURCES[pair[1]]), "--out", out]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"{pair[0]}-{pair[1]}.compare.{out}").read_bytes()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("target", ["svg", "csv"])
def test_plot(tmp_path, source, target):
    assert plot_bytes(tmp_path, SOURCES[source], target) == (GOLDEN / f"{source}.plot_cf2.{target}").read_bytes()


@pytest.mark.parametrize("source", INLINE_SOURCES)
@pytest.mark.parametrize("output", STDOUT_OUTPUTS)
def test_inline_stdout(capsys, source, output):
    command, *flags = STDOUT_OUTPUTS[output]
    argv = [command, str(INLINE_SOURCES[source]), "--format", "inline", *flags]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"{source}.{output}").read_bytes()


@pytest.mark.parametrize("source", INLINE_SOURCES)
@pytest.mark.parametrize("target", ["svg", "csv"])
def test_inline_plot(tmp_path, source, target):
    got = plot_bytes(tmp_path, INLINE_SOURCES[source], target, "--format", "inline")
    assert got == (GOLDEN / f"{source}.plot_cf2.{target}").read_bytes()


@pytest.mark.parametrize("source", SHARED_ROW_SOURCES)
@pytest.mark.parametrize("output", PER_SENTENCE_OUTPUTS)
def test_shared_row_stdout(capsys, source, output):
    command, *flags = STDOUT_OUTPUTS[output]
    argv = [command, str(SHARED_ROW_SOURCES[source]), *flags]
    assert stdout_bytes(capsys, argv) == golden(source, output).read_bytes()


@pytest.fixture(scope="module")
def signatures_source(tmp_path_factory) -> Path:
    corpus = signature_corpus()
    assert len({counts for counts, _ in aggregate(corpus).per_sentence}) > _MEMO_SIZE
    source = tmp_path_factory.mktemp("past_cap") / "signatures.tags"
    source.write_text(write_corpus(corpus), encoding="utf-8")
    return source


@pytest.mark.parametrize("output", PAST_CAP_OUTPUTS)
def test_past_the_memo_cap_stdout(capsys, signatures_source, output):
    command, *flags = PAST_CAP_OUTPUTS[output]
    argv = [command, str(signatures_source), *flags]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"signatures.{output}").read_bytes()


def test_int_weights_render_as_the_default_weights():
    report = aggregate(parse_column_format(SOURCES["case6"].read_text(encoding="utf-8"), name="case6"))
    got = render_report_json(report, MetricConfig(50, 50)).encode("utf-8")
    assert got == (GOLDEN / "case6.analyze.json").read_bytes()


@pytest.mark.parametrize("weights", ["50,50", "30,70"])
@pytest.mark.parametrize(
    "name, path, parse", LIBRARY_SOURCES, ids=[f"{path.parent.name}/{name}" for name, path, _ in LIBRARY_SOURCES]
)
def test_library_renderers(name, path, parse, weights):
    # parse -> aggregate -> render, as a library user runs it, prints the CLI's golden bytes.
    config = MetricConfig(*map(float, weights.split(",")))
    suffix = "" if weights == "50,50" else "_w30_70"
    report = aggregate(parse(path.read_bytes().decode("utf-8"), name=name), config)
    json_golden = golden(name, f"analyze_per_sentence{suffix}.json")
    assert render_report_json(report, config, per_sentence=True).encode("utf-8") == json_golden.read_bytes()
    assert render_per_sentence_csv(report).encode("utf-8") == golden(name, f"analyze{suffix}.csv").read_bytes()
