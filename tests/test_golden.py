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

SOURCES = {
    "case6": FIXTURES / "case6.tags",
    "cases_math": FIXTURES / "cases_math.tags",
    "cases_text": FIXTURES / "cases_text.tags",
    "synth7": GOLDEN / "synth7.tags",
}

STDOUT_OUTPUTS = {
    "analyze.json": ["analyze"],
    "analyze_per_sentence.json": ["analyze", "--per-sentence"],
    "analyze.csv": ["analyze", "--out", "csv"],
    "stats.txt": ["stats"],
}

COMPARE_PAIRS = [("cases_text", "cases_math"), ("case6", "synth7")]


def stdout_bytes(capsys, argv: list[str]) -> bytes:
    assert main(argv) == 0
    return capsys.readouterr().out.encode("utf-8")


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


@pytest.mark.parametrize("pair", COMPARE_PAIRS, ids="-".join)
@pytest.mark.parametrize("out", ["json", "csv"])
def test_compare(capsys, pair, out):
    argv = ["compare", str(SOURCES[pair[0]]), str(SOURCES[pair[1]]), "--out", out]
    assert stdout_bytes(capsys, argv) == (GOLDEN / f"{pair[0]}-{pair[1]}.compare.{out}").read_bytes()


@pytest.mark.parametrize("source", SOURCES)
@pytest.mark.parametrize("target", ["svg", "csv"])
def test_plot(capsys, tmp_path, source, target):
    written = tmp_path / f"plot.{target}"
    assert main(["plot", str(SOURCES[source]), "--index", "cf2", f"--{target}", str(written)]) == 0
    assert written.read_bytes() == (GOLDEN / f"{source}.plot_cf2.{target}").read_bytes()
