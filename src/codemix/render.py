"""Deterministic serialization of reports: JSON, CSV, text tables and SVG.

Numbers are fixed-point with 2 decimals in CSV and in the human tables; JSON
additionally carries full double precision under "raw" sub-objects. Key and
column order is fixed, so identical inputs always serialize byte-identically.
Every per-sentence JSON row and CSV line is laid out from PER_SENTENCE_COLUMNS,
and _rows formats each signature's row once. Only the two JSON renderers
import json, so a command that prints no JSON loads none.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator

from .metrics import MetricConfig, SentenceCounts, SentenceMetrics
from .stats import _MEMO_SIZE, WORDS_PER_SENTENCE, CorpusComparison, CorpusReport

# The per-sentence contract: the CSV columns and the JSON row keys, in order. Every row,
# the CSV header and the summary labels are laid out from it. The last seven are the
# fields of SentenceMetrics, in its order.
PER_SENTENCE_COLUMNS = ("index", "W", "u", "N", "S", "LF", "SF", "MF", "CMI", "CF1", "CF2", "CF3")
_INDEX_COLUMNS = PER_SENTENCE_COLUMNS[5:]  # after the index and the four counts
_CSV_HEADER = ",".join(PER_SENTENCE_COLUMNS) + "\n"
_CSV_BODY = ",".join(["{}"] * 4 + ["{:.2f}"] * len(_INDEX_COLUMNS)) + "\n"  # a line after its index


# One per-sentence JSON row, laid out as json.dumps(indent=2) lays it out inside
# the report: index and counts, the indices rounded to 2 decimals, then the
# same indices at full precision under "raw". The body, all but the head and
# the index, is the same for every sentence with the same signature. str() of a
# float is float.__repr__, which is what json prints for a finite float.
_ROW_HEAD = """\
    {
      "index": """
_ROW_BODY = (
    "".join(f',\n      "{name}": {{}}' for name in PER_SENTENCE_COLUMNS[1:])
    + ',\n      "raw": {{\n'
    + ",\n".join(f'        "{name}": {{}}' for name in _INDEX_COLUMNS)
    + "\n      }}\n    }}"
)


def _rows(
    pairs: Iterable[tuple[SentenceCounts, SentenceMetrics]], body: Callable[[SentenceCounts, SentenceMetrics], str]
) -> Iterator[tuple[int, str]]:
    """(position, body(counts, metrics)) for each pair; a ValueError from body names the sentence.

    body runs once per pair object: in the pairs of stats._fold and aggregate
    every sentence of a signature shares one pair. Identity, not value: in a
    report built by hand, equal values such as 0.0 and -0.0 are formatted
    apart. The memo holds each pair it remembers, so no other pair can take
    its id. At most _MEMO_SIZE pairs are remembered: past that many
    signatures, _fold shares no new pairs.
    """
    memo: dict[int, tuple] = {}  # id(pair) -> (pair, row)
    for index, pair in enumerate(pairs):
        known = memo.get(id(pair))
        if known is not None:
            row = known[1]
        else:
            try:
                row = body(*pair)
            except ValueError as exc:
                raise ValueError(f"sentence {index}: {exc}") from None
            if len(memo) < _MEMO_SIZE:
                memo[id(pair)] = pair, row
        yield index, row


def _json_body(counts: SentenceCounts, metrics: SentenceMetrics) -> str:
    """A sentence's "per_sentence" JSON row after its index."""
    if not math.isfinite(sum(metrics)):  # one test per row; finite values may sum to inf
        for name, value in zip(_INDEX_COLUMNS, metrics):
            if not math.isfinite(value):
                raise ValueError(f"{name} is {value!r}, which JSON cannot hold")
    return _ROW_BODY.format(
        counts.total_tokens,
        counts.undefined_tokens,
        counts.language_count,
        counts.switch_count,
        *[round(value, 2) for value in metrics],
        *metrics,
    )


def render_report_json(report: CorpusReport, config: MetricConfig, per_sentence: bool = False) -> str:
    """The report as JSON in json.dumps(indent=2) layout; a non-finite value raises ValueError.

    config must be the one the report was aggregated with: only its weights are printed.
    """
    return "".join(_report_json_pieces(report, config, per_sentence))


def _report_json_pieces(report: CorpusReport, config: MetricConfig, per_sentence: bool) -> Iterator[str]:
    """render_report_json in pieces, each per-sentence row formatted as it is yielded."""
    payload: dict = {
        "corpus": report.corpus_name,
        "sentences": report.sentence_count,
        "tokens": report.token_count,
        "weights": {"mix": config.mix_weight, "switch": config.switch_weight},
        "cmi_all": round(report.cmi_all, 2),
        "cmi_mixed": round(report.cmi_mixed, 2),
        "distribution": [
            {
                "language": row.language,
                "sentences": row.sentence_count,
                "words": row.word_count,
                "percentage": round(row.percentage, 2),
                "raw": {"percentage": row.percentage},
            }
            for row in report.distribution
        ],
        "summary": [
            {
                "index": row.index_name,
                "min": round(row.min, 2),
                "max": round(row.max, 2),
                "mean": round(row.mean, 2),
                "raw": {"min": row.min, "max": row.max, "mean": row.mean},
            }
            for row in report.summary
        ],
        "raw": {"cmi_all": report.cmi_all, "cmi_mixed": report.cmi_mixed},
    }
    import json

    header = json.dumps(payload, indent=2, allow_nan=False)
    if not per_sentence:
        yield header + "\n"
        return
    # The rows go in before the header's closing "\n}", where json puts a last key.
    yield f'{header[:-2]},\n  "per_sentence": ['
    first, later = "\n" + _ROW_HEAD, ",\n" + _ROW_HEAD
    separator = first
    for index, body in _rows(report.per_sentence, _json_body):
        yield f"{separator}{index}"
        yield body
        separator = later
    yield "]\n}\n" if separator is first else "\n  ]\n}\n"


def _csv_body(counts: SentenceCounts, metrics: SentenceMetrics) -> str:
    """A sentence's per-sentence CSV line after its index and comma."""
    return _CSV_BODY.format(
        counts.total_tokens, counts.undefined_tokens, counts.language_count, counts.switch_count, *metrics
    )


def render_per_sentence_csv(report: CorpusReport) -> str:
    return "".join(_csv_lines(report))


def _csv_lines(report: CorpusReport) -> Iterator[str]:
    """render_per_sentence_csv a line at a time: the header, then each sentence's line."""
    yield _CSV_HEADER
    for index, body in _rows(report.per_sentence, _csv_body):
        yield f"{index},{body}"


def render_comparison_json(comparison: CorpusComparison) -> str:
    import json

    payload = {
        "corpus_a": comparison.corpus_a,
        "corpus_b": comparison.corpus_b,
        "indices": [
            {
                "index": row.index_name,
                "mean_a": round(row.mean_a, 2),
                "mean_b": round(row.mean_b, 2),
                "delta": round(row.delta, 2),
                "verdict": row.verdict,
                "raw": {"mean_a": row.mean_a, "mean_b": row.mean_b, "delta": row.delta},
            }
            for row in comparison.rows
        ],
    }
    return json.dumps(payload, indent=2, allow_nan=False) + "\n"


def render_comparison_csv(comparison: CorpusComparison) -> str:
    lines = ["index,mean_a,mean_b,delta,verdict"]
    for row in comparison.rows:
        lines.append(f"{row.index_name},{row.mean_a:.2f},{row.mean_b:.2f},{row.delta:.2f},{row.verdict}")
    return "\n".join(lines) + "\n"


def render_scatter_csv(pairs: list[tuple[int, float]], index_name: str) -> str:
    lines = [f"words,{index_name}"]
    lines.extend(f"{words},{value:.2f}" for words, value in pairs)
    return "\n".join(lines) + "\n"


def render_distribution_table(report: CorpusReport) -> str:
    header = ("Language", "Sentences", "Words", "% of corpus")
    rows = [
        (row.language, str(row.sentence_count), str(row.word_count), f"{row.percentage:.2f}")
        for row in report.distribution
    ]
    return _format_table(header, rows)


_SUMMARY_LABELS = {**dict(zip(SentenceMetrics._fields, _INDEX_COLUMNS)), WORDS_PER_SENTENCE: "Words/sentence"}


def render_summary_table(report: CorpusReport) -> str:
    header = ("Index", "Min", "Max", "Mean")
    rows = [
        (_SUMMARY_LABELS[row.index_name], f"{row.min:.2f}", f"{row.max:.2f}", f"{row.mean:.2f}")
        for row in report.summary
    ]
    return _format_table(header, rows)


def _format_table(header: tuple[str, ...], rows: list[tuple[str, ...]]) -> str:
    widths = [max([len(header[i]), *(len(r[i]) for r in rows)]) for i in range(len(header))]
    lines = [
        "  ".join(header[i].ljust(widths[i]) for i in range(len(header))).rstrip(),
        "  ".join("-" * w for w in widths),
    ]
    for row in rows:
        lines.append("  ".join(row[i].ljust(widths[i]) for i in range(len(header))).rstrip())
    return "\n".join(lines) + "\n"


# --- SVG scatter ---------------------------------------------------------

_SVG_WIDTH = 640
_SVG_HEIGHT = 480
_MARGIN_LEFT = 64
_MARGIN_RIGHT = 24
_MARGIN_TOP = 24
_MARGIN_BOTTOM = 56
_TICKS = 5


def _fmt(value: float) -> str:
    return f"{value:.2f}".rstrip("0").rstrip(".")


def render_scatter_svg(pairs: list[tuple[int, float]], index_name: str) -> str:
    """A scatter of index value against sentence length, one circle per sentence."""
    x_max = max((float(w) for w, _ in pairs), default=1.0)
    y_max = max((v for _, v in pairs), default=1.0)
    x_max = max(x_max, 1.0)
    y_max = max(y_max, 1.0)
    plot_w = _SVG_WIDTH - _MARGIN_LEFT - _MARGIN_RIGHT
    plot_h = _SVG_HEIGHT - _MARGIN_TOP - _MARGIN_BOTTOM

    def sx(value: float) -> float:
        return _MARGIN_LEFT + plot_w * value / x_max

    def sy(value: float) -> float:
        return _MARGIN_TOP + plot_h * (1.0 - value / y_max)

    x0, y0 = _MARGIN_LEFT, _MARGIN_TOP + plot_h
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" '
        f'viewBox="0 0 {_SVG_WIDTH} {_SVG_HEIGHT}">',
        f'<rect width="{_SVG_WIDTH}" height="{_SVG_HEIGHT}" fill="white"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0 + plot_w}" y2="{y0}" stroke="black"/>',
        f'<line x1="{x0}" y1="{y0}" x2="{x0}" y2="{_MARGIN_TOP}" stroke="black"/>',
    ]
    for i in range(_TICKS):
        frac = i / (_TICKS - 1)
        x_val, y_val = frac * x_max, frac * y_max
        tick_x, tick_y = sx(x_val), sy(y_val)
        parts.append(f'<line x1="{tick_x:.2f}" y1="{y0}" x2="{tick_x:.2f}" y2="{y0 + 5}" stroke="black"/>')
        parts.append(
            f'<text x="{tick_x:.2f}" y="{y0 + 20}" font-size="12" text-anchor="middle" '
            f'font-family="sans-serif">{_fmt(x_val)}</text>'
        )
        parts.append(f'<line x1="{x0 - 5}" y1="{tick_y:.2f}" x2="{x0}" y2="{tick_y:.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{x0 - 8}" y="{tick_y + 4:.2f}" font-size="12" text-anchor="end" '
            f'font-family="sans-serif">{_fmt(y_val)}</text>'
        )
    parts.append(
        f'<text x="{x0 + plot_w / 2:.2f}" y="{_SVG_HEIGHT - 12}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif">words per sentence</text>'
    )
    parts.append(
        f'<text x="18" y="{_MARGIN_TOP + plot_h / 2:.2f}" font-size="14" text-anchor="middle" '
        f'font-family="sans-serif" transform="rotate(-90 18 {_MARGIN_TOP + plot_h / 2:.2f})">'
        f"{index_name.upper()}</text>"
    )
    for words, value in pairs:
        parts.append(
            f'<circle cx="{sx(float(words)):.2f}" cy="{sy(value):.2f}" r="4" '
            f'fill="#1f77b4" fill-opacity="0.75"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
