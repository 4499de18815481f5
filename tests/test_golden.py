"""Exact output bytes of every CLI subcommand, pinned to committed files.

The files under tests/golden/ were written once by the CLI and are never
rewritten by the tests: a change that moves any output byte fails here,
however consistent it is from run to run.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from codemix.cli import main
from conftest import FIXTURES

GOLDEN = Path(__file__).resolve().parent / "golden"

GENERATE_ARGV = ["generate", "--sentences", "40", "--words", "3:16", "--languages", "3",
                 "--arrangement", "random", "--undefined-ratio", "0.1", "--seed", "7"]

# More `generate` specs, pinned as text only: long blocked sentences, a
# monolingual mostly-undefined corpus with one-token sentences, and a fixed length.
GENERATE_SPECS = {
    "synth_blocked": ["--sentences", "3", "--words", "80:200", "--languages", "2",
                      "--arrangement", "blocked", "--undefined-ratio", "0.1", "--seed", "41"],
    "synth_mono_un": ["--sentences", "12", "--words", "1:8", "--languages", "1",
                      "--arrangement", "alternating", "--undefined-ratio", "0.6", "--seed", "5"],
    "synth_fixed5": ["--sentences", "6", "--words", "5", "--languages", "3",
                     "--arrangement", "random", "--undefined-ratio", "0.2", "--seed", "3"],
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


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("output", STDOUT_OUTPUTS)
def test_stdout(capsys, source, output):
    command, *flags = STDOUT_OUTPUTS[output]
    argv = [command, str(SOURCES[source]), *flags]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"{source}.{output}").read_bytes()


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
