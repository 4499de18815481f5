"""Command-line interface.

Subcommands:
  analyze   -- per-sentence and corpus-level indices for one corpus (JSON/CSV)
  stats     -- language distribution and index summary tables
  compare   -- per-index mean deltas and verdicts for two corpora
  plot      -- scatter of an index against sentence length (SVG or CSV)
  generate  -- deterministic synthetic corpus in COLUMN format

All output is UTF-8 and byte-stable for fixed inputs and flags.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import sys
from pathlib import Path

from .corpus_io import TagPolicy, UnknownTagAction, _read_lines, _scan_column, _scan_inline, _Tags
from .metrics import DEFAULT_CONFIG, MetricConfig, _count_tags
from .render import (
    _csv_lines,
    _report_json_pieces,
    render_comparison_csv,
    render_comparison_json,
    render_distribution_table,
    render_scatter_csv,
    render_scatter_svg,
    render_summary_table,
)
from .stats import INDEX_NAMES, CorpusReport, _fold, compare, scatter_data
from .synth import Arrangement, GenSpec, _column_text


def _warn(message: str) -> None:
    """A scanner's warning, which starts with the file's path, on stderr as `warning: ...`."""
    sys.stderr.write(f"warning: {message}\n")


def _build_policy(args: argparse.Namespace) -> TagPolicy:
    kwargs: dict = {}
    if args.language_codes:
        codes = [c.strip() for c in args.language_codes.split(",") if c.strip()]
        if not codes:
            raise ValueError("--languages requires at least one code")
        kwargs["language_codes"] = frozenset(codes)
    if args.unknown:
        kwargs["unknown_tag_action"] = UnknownTagAction(args.unknown)
    return TagPolicy(**kwargs)


def _parse_weights(raw: str) -> MetricConfig:
    parts = raw.split(",")
    if len(parts) != 2:
        raise ValueError(f"--weights expects 'A,B', got {raw!r}")
    try:
        mix, switch = float(parts[0]), float(parts[1])
    except ValueError:
        raise ValueError(f"--weights expects two numbers, got {raw!r}") from None
    try:
        return MetricConfig(mix_weight=mix, switch_weight=switch)
    except ValueError as exc:
        raise ValueError(f"invalid weights {raw!r}: {exc}") from None


def _report(
    path: str, args: argparse.Namespace, config: MetricConfig = DEFAULT_CONFIG, per_sentence: bool = False
) -> CorpusReport:
    """Read, scan, count and fold one corpus (`-` is stdin) a line at a time; every failure and warning names the file.

    The report is aggregate(parse_*_format(text)) without building a token,
    and without per_sentence unless asked. Its per-sentence pairs are the
    fold's, one per signature, which the library renderers read as they read
    aggregate's. Rows are formatted after the fold, but for parsed input that
    cannot fail, as MetricConfig keeps every index finite, so a command that
    fails still writes nothing.
    """
    scan = _scan_inline if args.format == "inline" else _scan_column
    try:
        tags = _Tags(_build_policy(args))
        with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as binary:
            counts = (_count_tags(sentence) for _, sentence in scan(_read_lines(binary), tags, path, _warn))
            return _fold(Path(path).stem, counts, config, per_sentence)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a bad policy flag, undecodable bytes, a ParseError or an empty corpus
        raise ValueError(f"{path}: {exc}") from exc
    except OverflowError as exc:  # finite indices, under huge --weights, whose corpus sum is not
        raise ValueError(f"{path}: the corpus sum of an index overflows: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> int:
    try:
        config = _parse_weights(args.weights)
    except ValueError as exc:
        raise ValueError(f"{args.file}: {exc}") from exc
    if args.out == "csv":
        sys.stdout.writelines(_csv_lines(_report(args.file, args, config, per_sentence=True)))
    else:
        report = _report(args.file, args, config, args.per_sentence)
        sys.stdout.writelines(_report_json_pieces(report, config, args.per_sentence))
    return 0


def _cmd_stats(args: argparse.Namespace) -> int:
    report = _report(args.file, args)
    sys.stdout.write(f"corpus: {report.corpus_name}\n")
    sys.stdout.write(f"sentences: {report.sentence_count}  tokens: {report.token_count}\n")
    sys.stdout.write(f"CMI all: {report.cmi_all:.2f}  CMI mixed: {report.cmi_mixed:.2f}\n\n")
    sys.stdout.write(render_distribution_table(report))
    sys.stdout.write("\n")
    sys.stdout.write(render_summary_table(report))
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    if args.file_a == args.file_b == "-":
        raise ValueError("-: standard input can be read only once")
    comparison = compare(_report(args.file_a, args), _report(args.file_b, args))
    if comparison.corpus_a == comparison.corpus_b:  # one stem for two inputs: name each by its path
        comparison = comparison._replace(corpus_a=args.file_a, corpus_b=args.file_b)
    if args.out == "csv":
        sys.stdout.write(render_comparison_csv(comparison))
    else:
        sys.stdout.write(render_comparison_json(comparison))
    return 0


def _cmd_plot(args: argparse.Namespace) -> int:
    pairs = scatter_data(_report(args.file, args, per_sentence=True), args.index)
    target, render = (args.svg, render_scatter_svg) if args.svg else (args.csv, render_scatter_csv)
    try:
        Path(target).write_text(render(pairs, args.index), encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"{target}: {exc.strerror or exc}") from exc
    return 0


def _parse_words(raw: str) -> int | tuple[int, int]:
    try:
        if ":" in raw:
            lo, hi = raw.split(":", 1)
            return int(lo), int(hi)
        return int(raw)
    except ValueError:
        raise ValueError(f"--words expects N or MIN:MAX, got {raw!r}") from None


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = GenSpec(
        sentence_count=args.sentences,
        words=_parse_words(args.words),
        language_count=args.languages,
        arrangement=Arrangement(args.arrangement),
        undefined_ratio=args.undefined_ratio,
        seed=args.seed,
    )
    sys.stdout.writelines(_column_text(spec))
    return 0


def _add_policy_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=["column", "inline"], default="column", help="input format")
    parser.add_argument(
        "--languages",
        dest="language_codes",
        metavar="CODES",
        help="comma-separated language codes accepted as tags (default: the nine built-in codes)",
    )
    parser.add_argument(
        "--unknown",
        choices=["error", "undefined"],
        help="what to do with unrecognized tags (default: error)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="codemix", description="Code-mixing complexity metrics for tagged corpora.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="full report for one corpus")
    p.add_argument("file")
    _add_policy_flags(p)
    p.add_argument("--weights", default="50,50", metavar="A,B", help="mix,switch weights (default 50,50)")
    p.add_argument("--out", choices=["json", "csv"], default="json", help="output format")
    p.add_argument("--per-sentence", action="store_true", help="include per-sentence rows in JSON output")
    p.set_defaults(func=_cmd_analyze)

    p = sub.add_parser("stats", help="distribution and summary tables for one corpus")
    p.add_argument("file")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_stats)

    p = sub.add_parser("compare", help="per-index deltas between two corpora")
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_policy_flags(p)
    p.add_argument("--out", choices=["json", "csv"], default="json", help="output format")
    p.set_defaults(func=_cmd_compare)

    p = sub.add_parser("plot", help="scatter of an index against sentence length")
    p.add_argument("file")
    _add_policy_flags(p)
    p.add_argument("--index", choices=list(INDEX_NAMES), required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--svg", metavar="PATH", help="write an SVG scatter")
    target.add_argument("--csv", metavar="PATH", help="write a two-column CSV")
    p.set_defaults(func=_cmd_plot)

    p = sub.add_parser("generate", help="emit a deterministic synthetic corpus (COLUMN format)")
    p.add_argument("--sentences", type=int, required=True)
    p.add_argument("--words", required=True, metavar="N|MIN:MAX")
    p.add_argument("--languages", type=int, required=True)
    p.add_argument("--arrangement", choices=[a.value for a in Arrangement], default="alternating")
    p.add_argument("--undefined-ratio", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()  # here, so that a reader that has gone away is caught below
        return status
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:  # stdout's reader closed it: point fd 1 at devnull, so the flush at exit succeeds
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
