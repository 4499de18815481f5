"""Traced phase: one span around each pass of calls into a codemix layer.

A span records (id, name, start, end, parent id). Spans stay in memory
until the run ends and are then written to the results file. The
per-layer metrics are span durations divided by the work the pass did
(tokens, sentences or bytes), plus tracemalloc peaks from a separate,
untimed pass, because tracemalloc slows every allocation.

PER_LAYER names each metric with its unit, its better direction and the
end-to-end metric and workload it should move.
"""

from __future__ import annotations

import gc
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path

import codemix
from codemix import (
    DEFAULT_CONFIG,
    CorpusFormat,
    aggregate,
    count_sentence,
    language_distribution,
    metrics_from_counts,
    scatter_data,
    write_corpus,
)
from codemix.render import render_per_sentence_csv, render_report_json, render_scatter_svg
from workloads import Workload, floor_counts, gen_spec

# name: (unit, better, the end-to-end metric and workload it should move)
PER_LAYER = {
    "cli.startup_ms": ("ms", "lower", "every CLI *_tok_per_ref by a fixed amount, on every workload"),
    "cli.read_ns_per_byte": ("ns/byte", "lower", "every *_tok_per_ref slightly; most on tweets_column (non-ASCII)"),
    "corpus_io.parse_ns_per_tok": ("ns/tok", "lower", "every *_tok_per_ref except generate; most on long_inline"),
    "corpus_io.parse_peak_mb": ("MB", "lower", "analyze_json_peak_rss_mb and stats_peak_rss_mb on every workload"),
    "model.tag_objects_per_tok": ("obj/tok", "lower", "stats_peak_rss_mb on every workload"),
    "model.retained_bytes_per_tok": ("B/tok", "lower", "stats_peak_rss_mb on every workload"),
    "metrics.count_ns_per_tok": ("ns/tok", "lower", "stats and analyze_* tok_per_ref, mostly on short_mono"),
    "metrics.formula_ns_per_sent": ("ns/sent", "lower", "stats and analyze_* tok_per_ref, mostly on tweets_column"),
    "stats.distribution_ns_per_tok": ("ns/tok", "lower", "stats_tok_per_ref on tweets_column and long_inline"),
    "stats.aggregate_ns_per_tok": ("ns/tok", "lower", "stats_tok_per_ref on short_mono"),
    "stats.fold_self_ns_per_sent": ("ns/sent", "lower", "stats_tok_per_ref on short_mono"),
    "stats.aggregate_peak_mb": ("MB", "lower", "stats_peak_rss_mb on short_mono"),
    "render.json_ns_per_sent": ("ns/sent", "lower", "analyze_json_tok_per_ref on short_mono and tweets_column"),
    "render.json_peak_mb": ("MB", "lower", "analyze_json_peak_rss_mb on short_mono and tweets_column"),
    "render.csv_ns_per_sent": ("ns/sent", "lower", "analyze_csv_tok_per_ref on short_mono"),
    "render.svg_ns_per_sent": ("ns/sent", "lower", "plot_svg_tok_per_ref on short_mono"),
    "synth.generate_ns_per_tok": ("ns/tok", "lower", "generate_tok_per_ref and generate_peak_rss_mb everywhere"),
    "corpus_io.write_ns_per_tok": ("ns/tok", "lower", "generate_tok_per_ref and generate_peak_rss_mb everywhere"),
    "floor.ns_per_tok": ("ns/tok", "lower", "nothing: the benchmark's own split-and-count loop"),
    "library.floor_ratio": ("ratio", "lower", "library_tok_per_ref on every workload (library time over floor time)"),
    "trace.overhead_pct": ("%", "lower", "nothing: traced over untraced library pipeline, minus one"),
}


@dataclass
class Span:
    id: int
    name: str
    start_ns: int
    end_ns: int
    parent: int | None

    @property
    def ns(self) -> int:
        return self.end_ns - self.start_ns


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        span = Span(len(self.spans), name, 0, 0, self._open[-1] if self._open else None)
        self.spans.append(span)
        self._open.append(span.id)
        span.start_ns = time.perf_counter_ns()
        try:
            yield span
        finally:
            span.end_ns = time.perf_counter_ns()
            self._open.pop()

    def dump(self) -> list[dict]:
        return [asdict(s) for s in self.spans]


def _parser(fmt: str):
    return codemix.parse_inline_format if fmt == "inline" else codemix.parse_column_format


def library_pipeline(text: str, fmt: str, name: str, tracer: Tracer | None = None) -> str:
    """parse -> aggregate -> render_report_json(per_sentence=True), from text in memory."""
    if tracer is None:
        return render_report_json(aggregate(_parser(fmt)(text, name=name)), DEFAULT_CONFIG, per_sentence=True)
    with tracer.span("library.parse"):
        corpus = _parser(fmt)(text, name=name)
    with tracer.span("library.aggregate"):
        report = aggregate(corpus)
    with tracer.span("library.render_json"):
        return render_report_json(report, DEFAULT_CONFIG, per_sentence=True)


def layer_pass(tracer: Tracer, path: Path, fmt: str, workload: Workload, seed: int) -> tuple[dict[str, str], Span, int]:
    """One timed pass over every layer, then the library pipeline untraced.

    Returns the outputs to check, the pass's span and the untraced
    pipeline's nanoseconds.
    """
    outputs = {}
    spec = gen_spec(workload, seed)
    gc.collect()
    with tracer.span("pass") as pass_span:
        with tracer.span("cli.read"):
            text = path.read_text(encoding="utf-8")
        with tracer.span("corpus_io.parse"):
            corpus = _parser(fmt)(text, name=path.stem)
        with tracer.span("metrics.count_sentence"):
            counts = [count_sentence(s) for s in corpus.sentences]
        with tracer.span("metrics.metrics_from_counts"):
            for c in counts:
                metrics_from_counts(c, DEFAULT_CONFIG)
        del counts
        with tracer.span("stats.language_distribution"):
            language_distribution(corpus)
        with tracer.span("stats.aggregate"):
            report = aggregate(corpus)
        del corpus
        with tracer.span("render.json"):
            outputs["library"] = render_report_json(report, DEFAULT_CONFIG, per_sentence=True)
        with tracer.span("render.csv"):
            outputs["analyze_csv"] = render_per_sentence_csv(report)
        with tracer.span("render.svg"):
            outputs["plot_svg"] = render_scatter_svg(scatter_data(report, "cf2"), "cf2")
        del report
        with tracer.span("synth.generate"):
            generated = codemix.generate(spec)
        with tracer.span("corpus_io.write"):
            outputs["generate"] = write_corpus(generated, CorpusFormat.COLUMN)
        del generated
        with tracer.span("floor"):
            floor_counts(text, fmt)
        gc.collect()
        with tracer.span("library"):
            library_pipeline(text, fmt, path.stem, tracer)
    gc.collect()
    start = time.perf_counter_ns()
    library_pipeline(text, fmt, path.stem)
    return outputs, pass_span, time.perf_counter_ns() - start


def pass_metrics(tracer: Tracer, pass_span: Span, untraced_library_ns: int, tokens: int, sentences: int, size: int) -> dict:
    """Per-layer timings of one pass, from its child spans."""
    ns = {s.name: s.ns for s in tracer.spans if s.parent == pass_span.id}
    fold_self = ns["stats.aggregate"] - ns["metrics.count_sentence"] - ns["metrics.metrics_from_counts"]
    fold_self -= ns["stats.language_distribution"]
    return {
        "cli.read_ns_per_byte": ns["cli.read"] / size,
        "corpus_io.parse_ns_per_tok": ns["corpus_io.parse"] / tokens,
        "metrics.count_ns_per_tok": ns["metrics.count_sentence"] / tokens,
        "metrics.formula_ns_per_sent": ns["metrics.metrics_from_counts"] / sentences,
        "stats.distribution_ns_per_tok": ns["stats.language_distribution"] / tokens,
        "stats.aggregate_ns_per_tok": ns["stats.aggregate"] / tokens,
        "stats.fold_self_ns_per_sent": fold_self / sentences,
        "render.json_ns_per_sent": ns["render.json"] / sentences,
        "render.csv_ns_per_sent": ns["render.csv"] / sentences,
        "render.svg_ns_per_sent": ns["render.svg"] / sentences,
        "synth.generate_ns_per_tok": ns["synth.generate"] / tokens,
        "corpus_io.write_ns_per_tok": ns["corpus_io.write"] / tokens,
        "floor.ns_per_tok": ns["floor"] / tokens,
        "library.floor_ratio": untraced_library_ns / ns["floor"],
        "trace.overhead_pct": 100.0 * (ns["library"] - untraced_library_ns) / untraced_library_ns,
    }


def memory_pass(path: Path, fmt: str, tokens: int) -> dict[str, float]:
    """tracemalloc peaks of parse, aggregate and JSON rendering, and what parse retains."""
    text = path.read_text(encoding="utf-8")
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        corpus = _parser(fmt)(text, name=path.stem)
        after_parse, parse_peak = tracemalloc.get_traced_memory()
        tag_objects = len({id(t.tag) for s in corpus.sentences for t in s.tokens})
        tracemalloc.reset_peak()
        report = aggregate(corpus)
        after_aggregate, aggregate_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        render_report_json(report, DEFAULT_CONFIG, per_sentence=True)
        json_peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    mb = 1 << 20
    return {
        "corpus_io.parse_peak_mb": (parse_peak - base) / mb,
        "model.tag_objects_per_tok": tag_objects / tokens,
        "model.retained_bytes_per_tok": (after_parse - base) / tokens,
        "stats.aggregate_peak_mb": (aggregate_peak - after_parse) / mb,
        "render.json_peak_mb": (json_peak - after_aggregate) / mb,
    }
