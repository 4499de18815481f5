"""Corpus-level aggregation: per-language distributions, index summaries,
corpus means (CMI-all / CMI-mixed), scatter data and corpus comparison.
"""

from __future__ import annotations

import math
import re
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .metrics import (
    DEFAULT_CONFIG,
    MetricConfig,
    SentenceCounts,
    SentenceMetrics,
    _count_tags,
    metrics_from_counts,
)
from .model import Corpus

INDEPENDENT_LABEL = "Language Independent"

# Indices that exist per sentence and can be plotted or compared.
INDEX_NAMES = ("cmi", "cf1", "cf2", "cf3")
WORDS_PER_SENTENCE = "words_per_sentence"
SUMMARY_INDICES = INDEX_NAMES + (WORDS_PER_SENTENCE,)


class LanguageDistributionRow(
    namedtuple("LanguageDistributionRow", ("language", "sentence_count", "word_count", "percentage"))
):
    """One language's share of a corpus (or the language-independent share)."""

    __slots__ = ()


class IndexSummaryRow(namedtuple("IndexSummaryRow", ("index_name", "min", "max", "mean"))):
    """One index's min, max and mean over a corpus."""

    __slots__ = ()


class CorpusReport(namedtuple("CorpusReport", (
    "corpus_name", "sentence_count", "token_count", "distribution", "summary", "cmi_all", "cmi_mixed", "per_sentence"
))):
    """A corpus's counts, distribution and summary rows and CMI means, and per_sentence:
    (counts, metrics) for each sentence; the index is the position."""

    __slots__ = ()

    def summary_row(self, index_name: str) -> IndexSummaryRow:
        for row in self.summary:
            if row.index_name == index_name:
                return row
        raise ValueError(f"unknown index {index_name!r}; expected one of {', '.join(SUMMARY_INDICES)}")


class IndexComparison(namedtuple("IndexComparison", ("index_name", "mean_a", "mean_b", "delta", "verdict"))):
    """One index's means in corpora A and B; delta is mean_a - mean_b and verdict "A", "B" or "TIE"."""

    __slots__ = ()


class CorpusComparison(namedtuple("CorpusComparison", ("corpus_a", "corpus_b", "rows"))):
    """The names of corpora A and B and their IndexComparison rows."""

    __slots__ = ()


def _registry_sort_key(code: str) -> tuple[str, int, str, str]:
    # Trailing digits sort numerically so the synthetic family reads L1, L2, .. L10;
    # the code itself breaks ties such as L01 and L1, so input order never shows.
    # A number is compared as (digit count, digits) without leading zeros, so no
    # suffix is too long to sort; any decimal digit counts, as it does for int().
    match = re.fullmatch(r"(.*?)(\d+)", code)
    if match:
        digits = "".join(str(int(c)) for c in match.group(2)).lstrip("0")
        return match.group(1), len(digits), digits, code
    return code, -1, "", code


def language_distribution(corpus: Corpus) -> tuple[LanguageDistributionRow, ...]:
    """Per-language sentence/word counts and percentages, plus one
    language-independent row (always present, possibly zero)."""
    counted = (_count_tags(sentence.tags) for sentence in corpus.sentences)
    return _fold(corpus.name, counted, DEFAULT_CONFIG).distribution


def aggregate(corpus: Corpus, config: MetricConfig = DEFAULT_CONFIG) -> CorpusReport:
    """Compute per-sentence metrics and fold them into a corpus report.

    The result is independent of evaluation order; only the per_sentence
    listing reflects the corpus ordering. Sentences with equal counts share
    one (counts, metrics) pair.
    """
    counted = (_count_tags(sentence.tags) for sentence in corpus.sentences)
    report = _fold(corpus.name, counted, config, per_sentence=True)
    return report._replace(per_sentence=tuple(report.per_sentence))


# At most this many signatures are remembered per fold; a later new one is
# folded in, and its metrics computed, for each sentence that has it, so a
# fold's memory stays bounded.
_MEMO_SIZE = 4096


def _fold(
    name: str,
    counted: Iterable[tuple[int, int, int, dict[str, int]]],
    config: MetricConfig,
    per_sentence: bool = False,
) -> CorpusReport:
    """The corpus report of a name and its sentences' tallies (W, u, S, {code: count}), in corpus order.

    The loop builds each sentence's counts from its tally inline, with
    tuple.__new__ as count_sentence builds them: a builder called once per
    sentence made the CLI on short sentences 2-5% slower. Every index is a
    function of a sentence's counts, its signature, so each signature's
    metrics are computed once, on its first sentence, and its memo entry
    counts the sentences that have it; a repeat costs one increment. The loop adds only what a sentence's codes give, its
    per-language counts. add folds in the rest, which depends on the counts
    alone, times the entry's count: once per remembered signature after the
    loop, and at once for each sentence whose signature is past the memo's
    cap. Min and max run in the order of each signature's first sentence,
    so of 0.0 and -0.0 the first one seen stays, as min() and max() keep
    it. The memo keeps that order, and every signature past the cap first
    appears after every remembered one, so add takes the past-cap ones'
    min and max apart, and those are merged in last. With per_sentence,
    the report's per_sentence holds each sentence's (counts, metrics)
    pair, in corpus order: one pair per signature, made on its first
    sentence. The fold holds nothing per sentence but a reference to that
    pair; without per_sentence, it is empty. It is the list the fold appended to, not a tuple: a copy would hold
    every reference twice at the end of the fold, which the CLI's peak memory
    shows. aggregate hands out a tuple.

    Each index's sum is kept exactly, as an int in units of 2**-1074, the
    smallest float step. An int quotient is correctly rounded, as math.fsum
    is, so each mean is statistics.fmean's.
    """
    pairs: list[tuple[SentenceCounts, SentenceMetrics]] = []
    memo: dict[SentenceCounts, list] = {}  # counts -> [(counts, metrics), sentences that have it]
    word_counts: dict[str, int] = {}
    sentence_counts: dict[str, int] = {}
    independent_words = independent_sentences = tokens = 0
    low, high = [math.inf] * len(SUMMARY_INDICES), [-math.inf] * len(SUMMARY_INDICES)
    late_low, late_high = low.copy(), high.copy()  # of the signatures past the memo's cap
    sums = [0] * len(SUMMARY_INDICES)
    mixed = 0  # sentences with CMI > 0

    def add(entry: list, low: list[float], high: list[float]) -> None:
        nonlocal independent_words, independent_sentences, tokens, mixed
        (counts, metrics), count = entry
        tokens += count * counts.total_tokens
        if counts.undefined_tokens:
            independent_words += count * counts.undefined_tokens
            independent_sentences += count
        if metrics.cmi > 0:
            mixed += count
        summary = metrics.cmi, metrics.cf1, metrics.cf2, metrics.cf3, float(counts.total_tokens)
        for column, value in enumerate(summary):
            if value < low[column]:
                low[column] = value
            if value > high[column]:
                high[column] = value
            numerator, denominator = value.as_integer_ratio()  # denominator is 2**k, k <= 1074
            sums[column] += count * numerator << 1075 - denominator.bit_length()

    index = -1
    for index, (total, undefined, switches, per_language) in enumerate(counted):
        dominant = max(per_language.values()) if per_language else 0
        counts = (total, undefined, total - undefined, len(per_language), dominant, switches)
        counts = tuple.__new__(SentenceCounts, counts)
        entry = memo.get(counts)
        if entry is not None:
            entry[1] += 1
        else:
            entry = [(counts, metrics_from_counts(counts, config)), 1]
            if len(memo) < _MEMO_SIZE:
                memo[counts] = entry
            else:
                add(entry, late_low, late_high)
        for code, words in per_language.items():
            word_counts[code] = word_counts.get(code, 0) + words
            sentence_counts[code] = sentence_counts.get(code, 0) + 1
        if per_sentence:
            pairs.append(entry[0])
    sentences = index + 1
    if not sentences:
        raise ValueError("empty corpus")
    for entry in memo.values():
        add(entry, low, high)
    low = [late if late < value else value for value, late in zip(low, late_low)]
    high = [late if late > value else value for value, late in zip(high, late_high)]
    distribution = [
        LanguageDistributionRow(
            language=code,
            sentence_count=sentence_counts[code],
            word_count=word_counts[code],
            percentage=100.0 * word_counts[code] / tokens,
        )
        for code in sorted(word_counts, key=_registry_sort_key)
    ]
    distribution.append(
        LanguageDistributionRow(
            language=INDEPENDENT_LABEL,
            sentence_count=independent_sentences,
            word_count=independent_words,
            percentage=100.0 * independent_words / tokens,
        )
    )
    totals = [total / (1 << 1074) for total in sums]
    means = [total / sentences for total in totals]
    return CorpusReport(
        corpus_name=name,
        sentence_count=sentences,
        token_count=tokens,
        distribution=tuple(distribution),
        summary=tuple(map(IndexSummaryRow, SUMMARY_INDICES, low, high, means)),
        cmi_all=means[0],
        cmi_mixed=totals[0] / mixed if mixed else 0.0,  # CMI >= 0, so its zeros add nothing to the total
        per_sentence=pairs,  # a list, not a tuple: see the docstring
    )


def _rows(
    pairs: Iterable[tuple[SentenceCounts, SentenceMetrics]], body: Callable[[SentenceCounts, SentenceMetrics], str]
) -> Iterator[tuple[int, str]]:
    """(position, body(counts, metrics)) for each pair; a ValueError from body names the sentence.

    body runs once per pair object: in the pairs of _fold and aggregate every
    sentence of a signature shares one pair. Identity, not value: in a report
    built by hand, equal values such as 0.0 and -0.0 are formatted apart. The
    memo holds each pair it remembers, so no other pair can take its id. At
    most _MEMO_SIZE pairs are remembered: past that many signatures, _fold
    shares no new pairs.
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


def scatter_data(report: CorpusReport, index_name: str) -> list[tuple[int, float]]:
    """(words, index value) pairs, one per sentence in corpus order."""
    if index_name not in INDEX_NAMES:
        raise ValueError(f"unknown index {index_name!r}; expected one of {', '.join(INDEX_NAMES)}")
    return [(counts.total_tokens, getattr(metrics, index_name)) for counts, metrics in report.per_sentence]


def compare(report_a: CorpusReport, report_b: CorpusReport) -> CorpusComparison:
    """Mean delta per index (A - B) with a per-index verdict of which corpus
    is more complex; higher mean means more complex."""
    rows = []
    for name in INDEX_NAMES:
        mean_a = report_a.summary_row(name).mean
        mean_b = report_b.summary_row(name).mean
        delta = mean_a - mean_b
        verdict = "TIE" if delta == 0 else ("A" if delta > 0 else "B")
        rows.append(IndexComparison(index_name=name, mean_a=mean_a, mean_b=mean_b, delta=delta, verdict=verdict))
    return CorpusComparison(corpus_a=report_a.corpus_name, corpus_b=report_b.corpus_name, rows=tuple(rows))
