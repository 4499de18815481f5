"""Command-line interface.

Subcommands:
  analyze   -- per-sentence and corpus-level indices for one corpus (JSON/CSV)
  stats     -- language distribution and index summary tables
  compare   -- per-index mean deltas and verdicts for two corpora
  plot      -- scatter of an index against sentence length (SVG or CSV)
  generate  -- deterministic synthetic corpus in COLUMN format

All output is byte-stable for fixed inputs and flags. `_write` is the only
code that writes stdout and stderr, so both are UTF-8 whatever the locale or
PYTHONIOENCODING say. A failing stdout, full or closed, ends the run with one
`error: <stdout>: ...` line and exit 1, or a silent exit 1 if the reader has
gone; a failing stderr changes neither stdout nor the exit status.

A run loads only the chosen subcommand's code: each handler imports the
modules it uses, and each subcommand's parser adds its arguments when it
parses (see _Parser). Help is wrapped to the terminal's width as argparse
wraps it, without the shutil that argparse imports for it.

A read command walks each token once: the scanner counts it as it reads it,
and hands the fold each sentence's tally (see _report). `codemix` and
`python -m codemix.cli` end through run(), which freezes the heap once
main() returns, so the collections that run while the interpreter exits
skip every object; each is still freed by its reference count. main()
freezes nothing, so an in-process caller's heap is left alone.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import gc
import os
import sys
from collections.abc import Callable, Iterable


def _write(fd: int, pieces: Iterable[str]) -> None:
    """Write `pieces` to stdout (fd 1) or stderr (fd 2) as UTF-8 and flush them, or raise OSError.

    A stream closed at start-up is None and leaves its fd, which an open file may hold now, alone. A failed write
    points the fd at devnull before it re-raises, so the flush at exit cannot fail and make the exit status 120.
    """
    stream = sys.stdout if fd == 1 else sys.stderr
    if stream is None:
        raise OSError(errno.EBADF, os.strerror(errno.EBADF))
    if hasattr(stream, "buffer"):  # UTF-8 whatever the locale; an in-memory text stream takes the text as is
        stream, pieces = stream.buffer, (piece.encode("utf-8", "surrogateescape") for piece in pieces)
    try:
        stream.writelines(pieces)
        stream.flush()
    except OSError:
        os.dup2(os.open(os.devnull, os.O_WRONLY), fd)
        raise


def _complain(message: str, kind: str = "warning") -> None:
    """One `warning: ...` or `error: ...` line on stderr; a stderr that fails is ignored, as nothing is left to tell."""
    with contextlib.suppress(OSError):
        _write(2, (f"{kind}: {message}\n",))


def _terminal_width() -> int:
    """The columns that shutil.get_terminal_size() gives: a positive COLUMNS, else the terminal of sys.__stdout__,
    else 80."""
    try:
        columns = int(os.environ["COLUMNS"])
    except (KeyError, ValueError):
        columns = 0
    if columns > 0:
        return columns
    try:
        columns = os.get_terminal_size(sys.__stdout__.fileno()).columns
    except (AttributeError, ValueError, OSError):  # no stdout, or one that is closed, detached or not a terminal
        columns = 0
    return columns or 80


class _HelpFormatter(argparse.HelpFormatter):
    """argparse's formatter at the width it would use, 2 less than the terminal's, without importing shutil."""

    def __init__(self, prog: str, indent_increment: int = 2, max_help_position: int = 24, width: int | None = None):
        super().__init__(prog, indent_increment, max_help_position, _terminal_width() - 2 if width is None else width)


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser whose help, usage and error messages go through _write, as UTF-8, like all other output.

    A subcommand's parser takes add_arguments, which adds its arguments the first time it parses, so a run
    adds only the arguments, and imports only the modules, of the subcommand it runs. Every parser formats
    with _HelpFormatter unless it is given another formatter_class.
    """

    def __init__(self, *args: object, add_arguments: Callable[[_Parser], None] | None = None, **kwargs: object):
        kwargs.setdefault("formatter_class", _HelpFormatter)
        super().__init__(*args, **kwargs)
        self._add_arguments = add_arguments

    def parse_known_args(self, args: object = None, namespace: object = None) -> tuple[argparse.Namespace, list[str]]:
        if self._add_arguments is not None:
            add, self._add_arguments = self._add_arguments, None
            add(self)
        return super().parse_known_args(args, namespace)

    def _print_message(self, message: str, file: object = None) -> None:
        if file is sys.stderr:
            with contextlib.suppress(OSError):  # a failing stderr changes nothing, as in _complain
                _write(2, (message,))
        else:  # --help, on stdout: main reports its failure
            _write(1, (message,))

    def print_usage(self, file: object = None) -> None:
        # argparse's own sends None to stdout, but error() passes sys.stderr, which is None when fd 2 was closed.
        self._print_message(self.format_usage(), file)


def _build_policy(args: argparse.Namespace) -> TagPolicy:
    from .corpus_io import DEFAULT_LANGUAGES, TagPolicy, UnknownTagAction

    codes = DEFAULT_LANGUAGES
    if args.language_codes is not None:
        codes = [c.strip() for c in args.language_codes.split(",") if c.strip()]
        if not codes:
            raise ValueError("--languages requires at least one code")
    return TagPolicy(codes, UnknownTagAction(args.unknown))


def _parse_weights(raw: str) -> MetricConfig:
    from .metrics import MetricConfig

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


def _stem(path: str) -> str:
    """The file name without its last suffix, as `pathlib.Path(path).stem` gives it: `..tags` is `.`, `a.` is `a.`."""
    name = os.path.basename(path)
    dot = name.rfind(".")
    return name[:dot] if 0 < dot < len(name) - 1 else name


def _report(
    path: str, args: argparse.Namespace, config: MetricConfig | None = None, per_sentence: bool = False
) -> CorpusReport:
    """Read, scan, count and fold one corpus (`-` is stdin) a line at a time; every failure and warning names the file.

    The report is aggregate(parse_*_format(text)) without building a token,
    and without per_sentence unless asked. The scanner counts each token as
    it reads it and hands the fold each sentence's tally, (W, u, S,
    {code: count}) as _count_tags gives it, so no tag list is built or
    walked again; the fold builds the counts. Its per-sentence pairs are
    the fold's, one per signature, as aggregate's are. Rows are
    formatted after the fold, but for parsed input that cannot fail, as
    MetricConfig keeps every index finite, so a command that fails still
    writes nothing. Without a config, the indices use the default weights.
    """
    from .corpus_io import _read_lines, _scan_column, _scan_inline, _Tags
    from .metrics import DEFAULT_CONFIG
    from .stats import _fold

    if config is None:
        config = DEFAULT_CONFIG
    scan = _scan_inline if args.format == "inline" else _scan_column
    try:
        tags = _Tags(_build_policy(args))
        if path == "-" and sys.stdin is None:  # fd 0 was closed when the interpreter started
            raise ValueError("standard input is closed")
        with contextlib.nullcontext(sys.stdin.buffer) if path == "-" else open(path, "rb") as binary:
            counted = scan(_read_lines(binary), tags, path, _complain, count=True)
            return _fold(_stem(path), counted, config, per_sentence)
    except OSError as exc:
        raise ValueError(f"{path}: {exc.strerror or exc}") from exc
    except ValueError as exc:  # a bad policy flag, undecodable bytes, a ParseError or an empty corpus
        raise ValueError(f"{path}: {exc}") from exc
    except OverflowError as exc:  # finite indices, under huge --weights, whose corpus sum is not
        raise ValueError(f"{path}: the corpus sum of an index overflows: {exc}") from exc


def _cmd_analyze(args: argparse.Namespace) -> Iterable[str]:
    try:
        config = _parse_weights(args.weights)
    except ValueError as exc:
        raise ValueError(f"{args.file}: {exc}") from exc
    from .render import _csv_lines, _report_json_pieces

    if args.out == "csv":
        return _csv_lines(_report(args.file, args, config, per_sentence=True))
    return _report_json_pieces(_report(args.file, args, config, args.per_sentence), config, args.per_sentence)


def _cmd_stats(args: argparse.Namespace) -> Iterable[str]:
    from .render import render_distribution_table, render_summary_table

    report = _report(args.file, args)
    return (
        f"corpus: {report.corpus_name}\n",
        f"sentences: {report.sentence_count}  tokens: {report.token_count}\n",
        f"CMI all: {report.cmi_all:.2f}  CMI mixed: {report.cmi_mixed:.2f}\n\n",
        render_distribution_table(report),
        "\n",
        render_summary_table(report),
    )


def _cmd_compare(args: argparse.Namespace) -> Iterable[str]:
    if args.file_a == args.file_b == "-":
        raise ValueError("-: standard input can be read only once")
    from .render import render_comparison_csv, render_comparison_json
    from .stats import compare

    comparison = compare(_report(args.file_a, args), _report(args.file_b, args))
    if comparison.corpus_a == comparison.corpus_b:  # one stem for two inputs: name each by its path
        comparison = comparison._replace(corpus_a=args.file_a, corpus_b=args.file_b)
    render = render_comparison_csv if args.out == "csv" else render_comparison_json
    return (render(comparison),)


def _cmd_plot(args: argparse.Namespace) -> Iterable[str]:
    from .render import render_scatter_csv, render_scatter_svg
    from .stats import scatter_data

    pairs = scatter_data(_report(args.file, args, per_sentence=True), args.index)
    target, render = (args.svg, render_scatter_svg) if args.svg is not None else (args.csv, render_scatter_csv)
    text = render(pairs, args.index)
    try:
        with open(target, "w", encoding="utf-8") as out:
            out.write(text)
    except OSError as exc:
        raise ValueError(f"{target}: {exc.strerror or exc}") from exc
    return ()


def _parse_words(raw: str) -> int | tuple[int, int]:
    try:
        if ":" in raw:
            lo, hi = raw.split(":", 1)
            return int(lo), int(hi)
        return int(raw)
    except ValueError:
        raise ValueError(f"--words expects N or MIN:MAX, got {raw!r}") from None


def _cmd_generate(args: argparse.Namespace) -> Iterable[str]:
    from .synth import Arrangement, GenSpec, _column_text

    spec = GenSpec(
        sentence_count=args.sentences,
        words=_parse_words(args.words),
        language_count=args.languages,
        arrangement=Arrangement(args.arrangement),
        undefined_ratio=args.undefined_ratio,
        seed=args.seed,
    )
    return _column_text(spec)


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
        default="error",
        help="what to do with unrecognized tags (default: error)",
    )


def _analyze_arguments(p: _Parser) -> None:
    p.add_argument("file")
    _add_policy_flags(p)
    p.add_argument("--weights", default="50,50", metavar="A,B", help="mix,switch weights (default 50,50)")
    p.add_argument("--out", choices=["json", "csv"], default="json", help="output format")
    p.add_argument("--per-sentence", action="store_true", help="include per-sentence rows in JSON output")
    p.set_defaults(func=_cmd_analyze)


def _stats_arguments(p: _Parser) -> None:
    p.add_argument("file")
    _add_policy_flags(p)
    p.set_defaults(func=_cmd_stats)


def _compare_arguments(p: _Parser) -> None:
    p.add_argument("file_a")
    p.add_argument("file_b")
    _add_policy_flags(p)
    p.add_argument("--out", choices=["json", "csv"], default="json", help="output format")
    p.set_defaults(func=_cmd_compare)


def _plot_arguments(p: _Parser) -> None:
    from .stats import INDEX_NAMES

    p.add_argument("file")
    _add_policy_flags(p)
    p.add_argument("--index", choices=list(INDEX_NAMES), required=True)
    target = p.add_mutually_exclusive_group(required=True)
    target.add_argument("--svg", metavar="PATH", help="write an SVG scatter")
    target.add_argument("--csv", metavar="PATH", help="write a two-column CSV")
    p.set_defaults(func=_cmd_plot)


def _generate_arguments(p: _Parser) -> None:
    from .synth import Arrangement

    p.add_argument("--sentences", type=int, required=True)
    p.add_argument("--words", required=True, metavar="N|MIN:MAX")
    p.add_argument("--languages", type=int, required=True)
    p.add_argument("--arrangement", choices=[a.value for a in Arrangement], default="alternating")
    p.add_argument("--undefined-ratio", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_generate)


def build_parser() -> argparse.ArgumentParser:
    """The codemix parser. Each subcommand's arguments are added when that subcommand parses, so a run adds one set."""
    parser = _Parser(prog="codemix", description="Code-mixing complexity metrics for tagged corpora.")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("analyze", help="full report for one corpus", add_arguments=_analyze_arguments)
    sub.add_parser("stats", help="distribution and summary tables for one corpus", add_arguments=_stats_arguments)
    sub.add_parser("compare", help="per-index deltas between two corpora", add_arguments=_compare_arguments)
    sub.add_parser("plot", help="scatter of an index against sentence length", add_arguments=_plot_arguments)
    sub.add_parser(
        "generate",
        help="emit a deterministic synthetic corpus (COLUMN format)",
        add_arguments=_generate_arguments,
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)  # --help writes stdout here
        _write(1, args.func(args))
        return 0
    except ValueError as exc:
        _complain(str(exc), "error")
        return 1
    except OSError as exc:  # stdout failed
        if not isinstance(exc, BrokenPipeError):  # a reader that has gone away is a silent exit 1
            _complain(f"<stdout>: {exc.strerror}", "error")
        return 1


def run() -> int:
    """main() for a process that ends with it, the console script's and `python -m codemix.cli`'s entry.

    Once main() has returned, the heap is frozen: the collections that the
    interpreter runs while it exits then skip every object, which is still
    freed by its reference count. That saves the exit's collections, a few
    milliseconds per run, and changes no output, exit status or atexit
    handler.
    """
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
