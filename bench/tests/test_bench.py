"""Self-tests of the benchmark: run with `python3 -m pytest bench/tests -q`."""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import codemix  # noqa: E402
from codemix.cli import main as cli_main  # noqa: E402
from codemix.render import render_per_sentence_csv, render_scatter_svg  # noqa: E402
from launcher import Launcher  # noqa: E402
from layers import PER_LAYER, library_pipeline  # noqa: E402
from oracle import (  # noqa: E402
    Expected,
    check_compare_self,
    check_generate,
    check_per_sentence_csv,
    check_report_json,
    check_stats,
    check_svg,
)
from run import CHILD_ENV, END_TO_END  # noqa: E402
from workloads import WORKLOADS, build_text, floor_counts, input_properties  # noqa: E402

SMALL = {name: dataclasses.replace(w, sentences=60) for name, w in WORKLOADS.items()}


def _trivial_child_peak_mb(tmp_path: Path) -> float:
    with Launcher() as launcher:
        reply = launcher.run([sys.executable, "-c", "pass"], CHILD_ENV, tmp_path / "out", tmp_path / "err")
    assert reply["status"] == 0
    return reply["maxrss_kb"] / 1024


def test_child_peak_does_not_inherit_parent_memory(tmp_path):
    alone = _trivial_child_peak_mb(tmp_path)
    ballast = b"\x01" * (300 << 20)  # written, so resident
    with_ballast = _trivial_child_peak_mb(tmp_path)
    assert len(ballast) == 300 << 20
    assert with_ballast < 100, with_ballast
    assert abs(with_ballast - alone) < 10, (alone, with_ballast)


@pytest.mark.parametrize("name", sorted(SMALL))
def test_text_repeats_per_seed_and_differs_across_seeds(name):
    workload = SMALL[name]
    first = build_text(workload, 5)
    assert first == build_text(workload, 5)
    assert first != build_text(workload, 6)
    assert input_properties(first, floor_counts(first, workload.fmt))["sentences"] == workload.sentences


def _cli(*args: str) -> str:
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        assert cli_main(list(args)) == 0
    return buffer.getvalue()


@pytest.mark.parametrize("name", sorted(SMALL))
def test_oracle_accepts_every_output_of_the_program(name, tmp_path):
    workload = SMALL[name]
    text = build_text(workload, 3)
    path = tmp_path / "input.txt"
    path.write_text(text, encoding="utf-8")
    exp = Expected(text, workload.fmt, floor_counts(text, workload.fmt))
    report = codemix.aggregate(codemix.parse_inline_format(text) if workload.fmt == "inline" else codemix.parse_column_format(text))
    fmt = ["--format", workload.fmt]
    assert check_report_json(library_pipeline(text, workload.fmt, "input"), exp) == []
    assert check_per_sentence_csv(render_per_sentence_csv(report), exp) == []
    assert check_svg(render_scatter_svg(codemix.scatter_data(report, "cf2"), "cf2"), exp) == []
    assert check_stats(_cli("stats", str(path), *fmt), exp) == []
    assert check_compare_self(_cli("compare", str(path), str(path), *fmt), exp) == []
    assert check_generate(_cli("generate", *workload.gen_args(3)), workload) == []


def test_oracle_rejects_changed_outputs():
    workload = SMALL["tweets_column"]
    text = build_text(workload, 3)
    exp = Expected(text, workload.fmt, floor_counts(text, workload.fmt))
    payload = json.loads(library_pipeline(text, workload.fmt, "input"))
    payload["per_sentence"][7]["raw"]["CF2"] += 1e-6
    assert check_report_json(json.dumps(payload), exp)
    csv_text = render_per_sentence_csv(codemix.aggregate(codemix.parse_column_format(text)))
    assert check_per_sentence_csv(csv_text.replace("\n7,", "\n8,", 1), exp)
    generated = _cli("generate", *workload.gen_args(4))
    assert check_generate(generated + "w0\tL1\n\n", workload)
    assert check_generate(generated.replace("w1\t", "x1\t", 1), workload)


def test_benchmark_json_documents_what_run_reports():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {w.name: w.why for w in WORKLOADS.values()}
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]} == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]} == {
        name: (unit, better) for name, (unit, better, _) in PER_LAYER.items()
    }


def test_fails_without_a_result_outside_a_checkout(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "short_mono", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
