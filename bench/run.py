"""Benchmark for codemix: throughput and peak memory on seeded tagged corpora.

Run from the root of a codemix checkout:

    python3 bench/run.py --workload tweets_column --seed 1 --seconds 30 --trace 0

--trace 0 is the untraced phase. Each CLI subcommand runs as a child
process on the workload file, and the library pipeline runs in-process.
This is a closed loop: one operation, and at most one child, at a time,
round-robin until --seconds have passed, with every operation run at least
once. It reports the end-to-end metrics, each a median over the repetitions.

Throughput is counted in tokens per reference interval (tok/ref): the time
a fixed pure-Python loop takes, measured between every two operations.
Wall-clock tok/s is reported beside it, but on a shared 2-core VM the CPU
speed moves by up to 2x from one minute to the next, which moves tok/s
with it. An operation and the reference loops around it slow down
together, so their ratio stays put. For the same reason setup_s is scaled
to a machine on which the reference loop takes REF_NOMINAL_NS.

--trace 1 is the traced phase. It runs timed passes over each codemix layer
and reports the per-layer metrics and the tracing overhead (see layers.py).

Every output is checked against an independent oracle (see oracle.py). The
last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. The lines before it list the metrics, the input
properties and the sha256 of each output. The full record, spans included,
is written to .bench_work/results/.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import statistics
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

from launcher import Launcher
from oracle import (
    Expected,
    check_compare_self,
    check_generate,
    check_per_sentence_csv,
    check_report_json,
    check_stats,
    check_svg,
)
from workloads import ROOT, WORKLOADS, Workload, floor_counts, input_properties

BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
REQUIRED = ("src/codemix/cli.py", "tests/naive_oracle.py", "fixtures/case6.tags")
SETUP_REPEATS = 7
STARTUP_REPEATS = 5
CHILD_ENV = {
    "PATH": os.environ.get("PATH", "/usr/bin:/bin"),
    "PYTHONPATH": str(ROOT / "src"),
    "PYTHONHASHSEED": "0",
    "LANG": "C.UTF-8",
}

# name: (unit, better)
END_TO_END = {
    "analyze_json_tok_per_ref": ("tok/ref", "higher"),
    "analyze_csv_tok_per_ref": ("tok/ref", "higher"),
    "stats_tok_per_ref": ("tok/ref", "higher"),
    "plot_svg_tok_per_ref": ("tok/ref", "higher"),
    "compare_tok_per_ref": ("tok/ref", "higher"),
    "generate_tok_per_ref": ("tok/ref", "higher"),
    "library_tok_per_ref": ("tok/ref", "higher"),
    "analyze_json_peak_rss_mb": ("MB", "lower"),
    "stats_peak_rss_mb": ("MB", "lower"),
    "generate_peak_rss_mb": ("MB", "lower"),
    "setup_s": ("s", "lower"),
}
RSS_OPS = ("analyze_json", "stats", "generate")
REF_NOMINAL_NS = 30_000_000  # setup_s counts seconds on a machine where reference_ns() takes this long
_REFERENCE_WORDS = [f"w{i % 97}" for i in range(1000)]


def reference_ns() -> int:
    """Duration of a fixed pure-Python loop (about 30 ms): the 'ref' of tok/ref."""
    start = time.perf_counter_ns()
    counts: dict[str, int] = {}
    for _ in range(200):
        for word in _REFERENCE_WORDS:
            counts[word] = counts.get(word, 0) + 1
    return time.perf_counter_ns() - start


def attach_reference(samples: list[dict], refs: list[int]) -> None:
    """Gives each sample the median of the ten reference loops nearest it.

    refs[i] ran just before samples[i] and refs[i + 1] just after it. One
    30 ms loop is noisier than an operation; the median of the loops within
    a few seconds follows the machine's speed without that noise.
    """
    for i, sample in enumerate(samples):
        sample["ref_ns"] = statistics.median(refs[max(0, i - 4) : i + 6])


@dataclass
class Op:
    """One timed operation: a CLI subcommand, or the in-process pipeline when args is None."""

    name: str
    args: list[str] | None
    tokens: int
    check: Callable[[str], list[str]]
    output: Path | None = None  # a file the command writes, checked instead of stdout
    samples: list[dict] = field(default_factory=list)  # wall_ns, ok, maxrss_kb, then ref_ns


class Checker:
    """Checks each distinct output once, keyed by its sha256, and tallies failures."""

    def __init__(self) -> None:
        self.verdicts: dict[tuple[str, str], list[str]] = {}
        self.digests: dict[str, set[str]] = {}
        self.failures: list[dict] = []
        self.attempted = 0

    def record(self, name: str, output: str | None, check: Callable[[str], list[str]], problems: list[str]) -> bool:
        """Counts one attempt; returns True when it succeeded."""
        self.attempted += 1
        if output is not None and not problems:
            digest = hashlib.sha256(output.encode("utf-8")).hexdigest()
            self.digests.setdefault(name, set()).add(digest)
            if (name, digest) not in self.verdicts:
                try:
                    self.verdicts[name, digest] = check(output)
                except (KeyError, IndexError, TypeError, ValueError) as exc:
                    self.verdicts[name, digest] = [f"malformed output: {exc!r}"]
            problems = self.verdicts[name, digest]
        if problems:
            self.failures.append({"op": name, "problems": problems[:5]})
            print(f"FAILED {name}: {problems[0]}", file=sys.stderr)
        return not problems


def child_problems(reply: dict, stderr: Path) -> list[str]:
    """A non-zero exit, a timeout, an `error:` line or a traceback is a failure."""
    problems = []
    if reply["timed_out"]:
        problems.append("timed out")
    if reply["status"] != 0:
        problems.append(f"exit status {reply['status']}")
    err = stderr.read_text(encoding="utf-8", errors="replace")
    if "Traceback" in err or "error:" in err:
        problems.append(f"stderr: {err.strip().splitlines()[-1]}")
    return problems


def run_cli(launcher: Launcher, op: Op, workdir: Path, checker: Checker) -> dict:
    out, err = workdir / f"{op.name}.out", workdir / f"{op.name}.err"
    reply = launcher.run([sys.executable, "-m", "codemix.cli", *op.args], CHILD_ENV, out, err)
    problems = child_problems(reply, err)
    output = None if problems else (op.output or out).read_text(encoding="utf-8")
    ok = checker.record(op.name, output, op.check, problems)
    return {"wall_ns": reply["wall_ns"], "maxrss_kb": reply["maxrss_kb"], "ok": ok}


def run_library(op: Op, text: str, fmt: str, name: str, checker: Checker) -> dict:
    from layers import library_pipeline

    gc.collect()
    start = time.perf_counter_ns()
    output = library_pipeline(text, fmt, name)
    wall_ns = time.perf_counter_ns() - start
    return {"wall_ns": wall_ns, "ok": checker.record(op.name, output, op.check, [])}


def _ok(samples: list[dict]) -> list[dict]:
    return [s for s in samples if s["ok"]] or samples


def untraced_phase(launcher, workload, seed, seconds, input_path, text, exp, checker) -> tuple[dict, dict]:
    workdir = input_path.parent
    fmt = ["--format", workload.fmt]
    path = str(input_path)
    svg = workdir / "plot.svg"
    ops = [
        Op("analyze_json", ["analyze", path, *fmt, "--per-sentence"], exp.tokens, lambda t: check_report_json(t, exp)),
        Op("analyze_csv", ["analyze", path, *fmt, "--out", "csv"], exp.tokens, lambda t: check_per_sentence_csv(t, exp)),
        Op("stats", ["stats", path, *fmt], exp.tokens, lambda t: check_stats(t, exp)),
        Op(
            "plot_svg",
            ["plot", path, *fmt, "--index", "cf2", "--svg", str(svg)],
            exp.tokens,
            lambda t: check_svg(t, exp),
            output=svg,
        ),
        Op("compare", ["compare", path, path, *fmt], 2 * exp.tokens, lambda t: check_compare_self(t, exp)),
        Op("generate", ["generate", *workload.gen_args(seed)], exp.tokens, lambda t: check_generate(t, workload)),
        Op("library", None, exp.tokens, lambda t: check_report_json(t, exp)),
    ]
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    first_cycle = True
    timeline, refs = [], [reference_ns()]
    while first_cycle or time.perf_counter_ns() < deadline:
        for op in ops:
            if not first_cycle and time.perf_counter_ns() >= deadline:
                break
            if op.args is None:
                sample = run_library(op, text, workload.fmt, input_path.stem, checker)
            else:
                sample = run_cli(launcher, op, workdir, checker)
            refs.append(reference_ns())
            op.samples.append(sample)
            timeline.append(sample)
        first_cycle = False
    attach_reference(timeline, refs)
    metrics, wall = {}, {}
    for op in ops:
        samples = _ok(op.samples)
        metrics[f"{op.name}_tok_per_ref"] = statistics.median(op.tokens * s["ref_ns"] / s["wall_ns"] for s in samples)
        wall[f"{op.name}_tok_s"] = statistics.median(op.tokens * 1e9 / s["wall_ns"] for s in samples)
        if op.name in RSS_OPS:
            metrics[f"{op.name}_peak_rss_mb"] = statistics.median(s["maxrss_kb"] / 1024 for s in samples)
    return metrics, {"wall_clock": wall, "samples": {op.name: op.samples for op in ops}}


def traced_phase(launcher, workload, seed, seconds, input_path, text, exp, checker) -> tuple[dict, dict]:
    from layers import Tracer, layer_pass, memory_pass, pass_metrics

    workdir = input_path.parent
    fixture = str(ROOT / "fixtures" / "case6.tags")
    startup_op = Op("startup", ["analyze", fixture], 0, lambda t: [] if json.loads(t)["sentences"] else ["empty report"])
    startup = [run_cli(launcher, startup_op, workdir, checker) for _ in range(STARTUP_REPEATS)]
    checks = {
        "library": lambda t: check_report_json(t, exp),
        "analyze_csv": lambda t: check_per_sentence_csv(t, exp),
        "plot_svg": lambda t: check_svg(t, exp),
        "generate": lambda t: check_generate(t, workload),
    }
    tracer = Tracer()
    passes = []
    size = len(text.encode("utf-8"))
    deadline = time.perf_counter_ns() + int(seconds * 1e9)
    while not passes or time.perf_counter_ns() < deadline:
        outputs, span, untraced_ns = layer_pass(tracer, input_path, workload.fmt, workload, seed)
        for name, output in outputs.items():
            checker.record(name, output, checks[name], [])
        passes.append(pass_metrics(tracer, span, untraced_ns, exp.tokens, exp.sentences, size))
    metrics = {"cli.startup_ms": statistics.median(s["wall_ns"] / 1e6 for s in _ok(startup))}
    metrics.update({name: statistics.median(p[name] for p in passes) for name in passes[0]})
    metrics.update(memory_pass(input_path, workload.fmt, exp.tokens))
    return metrics, {"startup": startup, "passes": passes, "spans": tracer.dump()}


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long to measure")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    missing = [p for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"error: {ROOT} is not a codemix checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    workload: Workload = WORKLOADS[args.workload]
    workdir = WORK / workload.name
    workdir.mkdir(parents=True, exist_ok=True)
    input_path = workdir / ("input.txt" if workload.fmt == "column" else "input.inline")
    checker = Checker()
    # The launcher starts before any corpus is built, so it stays small.
    with Launcher() as launcher:
        setup, refs = [], [reference_ns()]  # samples as in Op.samples
        for _ in range(SETUP_REPEATS if args.trace == 0 else 1):
            argv = [sys.executable, str(BENCH / "workloads.py"), workload.name, str(args.seed), str(input_path)]
            reply = launcher.run(argv, CHILD_ENV, workdir / "setup.out", workdir / "setup.err")
            problems = child_problems(reply, workdir / "setup.err")
            if problems:
                print(f"error: set-up failed: {problems}", file=sys.stderr)
                return 1
            setup.append({"wall_ns": reply["wall_ns"]})
            refs.append(reference_ns())
        attach_reference(setup, refs)
        text = input_path.read_text(encoding="utf-8")
        floor = floor_counts(text, workload.fmt)
        properties = input_properties(text, floor)
        exp = Expected(text, workload.fmt, floor)
        phase = traced_phase if args.trace else untraced_phase
        metrics, detail = phase(launcher, workload, args.seed, args.seconds, input_path, text, exp, checker)
    if not args.trace:
        metrics["setup_s"] = statistics.median(s["wall_ns"] * REF_NOMINAL_NS / s["ref_ns"] / 1e9 for s in setup)
        detail["wall_clock"]["setup_s"] = statistics.median(s["wall_ns"] / 1e9 for s in setup)
    return report(args, workload, properties, setup, metrics, detail, checker)


def report(args, workload, properties, setup, metrics, detail, checker) -> int:
    from layers import PER_LAYER

    table = PER_LAYER if args.trace else END_TO_END
    failed = len(checker.failures)
    print(f"workload {workload.name}  seed {args.seed}  trace {args.trace}  ({workload.why})")
    print("input  " + "  ".join(f"{k}={v:.6g}" if isinstance(v, float) else f"{k}={v}" for k, v in properties.items()))
    for name in sorted(checker.digests):
        print(f"sha256 {name:<14} {' '.join(sorted(checker.digests[name]))}")
    for name, (unit, better, *moves) in table.items():
        note = f"should move {moves[0]}" if moves else f"{better} is better"
        print(f"metric {name:<30} {metrics[name]:>14.6g} {unit:<8} {note}")
    for name, value in detail.get("wall_clock", {}).items():
        unit = "s" if name == "setup_s" else "tok/s"
        print(f"wall   {name:<30} {value:>14.6g} {unit:<8} not gated: moves with the machine's CPU speed")
    print(f"failed {failed} of {checker.attempted} operations (failed_share {failed / checker.attempted:.6g})")
    results = {
        "workload": workload.name,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "machine": {"platform": platform.platform(), "cpus": os.cpu_count()},
        "input": properties,
        "sha256": {name: sorted(d) for name, d in checker.digests.items()},
        "metrics": {name: {"value": metrics[name], "unit": table[name][0]} for name in table},
        "failed_share": failed / checker.attempted,
        "failures": checker.failures,
        "setup": setup,
        "samples": detail,
    }
    out = WORK / "results" / f"{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=1) + "\n", encoding="utf-8")
    print(f"results {out.relative_to(ROOT)}")
    line = {
        "correct": failed == 0,
        "attempted": checker.attempted,
        "failed": failed,
        "metrics": results["metrics"],
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
