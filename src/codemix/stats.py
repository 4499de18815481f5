"""Corpus-level aggregation: per-language distributions, index summaries,
corpus means (CMI-all / CMI-mixed), scatter data and corpus comparison.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from statistics import fmean
from typing import Iterable

from .metrics import (
    DEFAULT_CONFIG,
    MetricConfig,
    SentenceCounts,
    SentenceMetrics,
    count_sentence,
    metrics_from_counts,
)
from .model import Corpus

INDEPENDENT_LABEL = "Language Independent"

# Indices that exist per sentence and can be plotted or compared.
INDEX_NAMES = ("cmi", "cf1", "cf2", "cf3")
WORDS_PER_SENTENCE = "words_per_sentence"
SUMMARY_INDICES = INDEX_NAMES + (WORDS_PER_SENTENCE,)


@dataclass(frozen=True)
class LanguageDistributionRow:
    """One language's share of a corpus (or the language-independent share)."""

    language: str
    sentence_count: int
    word_count: int
    percentage: float


@dataclass(frozen=True)
class IndexSummaryRow:
    index_name: str
    min: float
    max: float
    mean: float


@dataclass(frozen=True)
class SentenceRecord:
    index: int
    counts: SentenceCounts
    metrics: SentenceMetrics

    __hash__ = None  # holds SentenceCounts, which has no hash


@dataclass(frozen=True)
class CorpusReport:
    corpus_name: str
    sentence_count: int
    token_count: int
    distribution: tuple[LanguageDistributionRow, ...]
    summary: tuple[IndexSummaryRow, ...]
    cmi_all: float
    cmi_mixed: float
    per_sentence: tuple[SentenceRecord, ...]

    __hash__ = None  # holds SentenceRecords, which have no hash

    def summary_row(self, index_name: str) -> IndexSummaryRow:
        for row in self.summary:
            if row.index_name == index_name:
                return row
        raise ValueError(f"unknown index {index_name!r}; expected one of {', '.join(SUMMARY_INDICES)}")


@dataclass(frozen=True)
class IndexComparison:
    index_name: str
    mean_a: float
    mean_b: float
    delta: float  # mean_a - mean_b
    verdict: str  # "A", "B" or "TIE"


@dataclass(frozen=True)
class CorpusComparison:
    corpus_a: str
    corpus_b: str
    rows: tuple[IndexComparison, ...]


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


def _distribution(counts: Iterable[SentenceCounts]) -> tuple[LanguageDistributionRow, ...]:
    """language_distribution folded from per-sentence counts, without a token walk."""
    word_counts: dict[str, int] = {}
    sentence_counts: dict[str, int] = {}
    independent_words = 0
    independent_sentences = 0
    total_tokens = 0
    for sentence in counts:
        total_tokens += sentence.total_tokens
        for code, words in sentence.per_language.items():
            word_counts[code] = word_counts.get(code, 0) + words
            sentence_counts[code] = sentence_counts.get(code, 0) + 1
        if sentence.undefined_tokens:
            independent_words += sentence.undefined_tokens
            independent_sentences += 1
    rows = [
        LanguageDistributionRow(
            language=code,
            sentence_count=sentence_counts[code],
            word_count=word_counts[code],
            percentage=100.0 * word_counts[code] / total_tokens,
        )
        for code in sorted(word_counts, key=_registry_sort_key)
    ]
    rows.append(
        LanguageDistributionRow(
            language=INDEPENDENT_LABEL,
            sentence_count=independent_sentences,
            word_count=independent_words,
            percentage=100.0 * independent_words / total_tokens,
        )
    )
    return tuple(rows)


def language_distribution(corpus: Corpus) -> tuple[LanguageDistributionRow, ...]:
    """Per-language sentence/word counts and percentages, plus one
    language-independent row (always present, possibly zero)."""
    if not corpus.sentences:
        raise ValueError("empty corpus")
    return _distribution(count_sentence(sentence) for sentence in corpus.sentences)


def aggregate(corpus: Corpus, config: MetricConfig = DEFAULT_CONFIG) -> CorpusReport:
    """Compute per-sentence metrics and fold them into a corpus report.

    The result is independent of evaluation order; only the per_sentence
    listing reflects the corpus ordering.
    """
    return _fold(corpus.name, map(count_sentence, corpus.sentences), config)


def _fold(name: str, counts: Iterable[SentenceCounts], config: MetricConfig) -> CorpusReport:
    """The corpus report of a name and its sentences' counts, in corpus order."""
    records = tuple(
        SentenceRecord(index=index, counts=sentence, metrics=metrics_from_counts(sentence, config))
        for index, sentence in enumerate(counts)
    )
    if not records:
        raise ValueError("empty corpus")
    columns = {index_name: [getattr(r.metrics, index_name) for r in records] for index_name in INDEX_NAMES}
    columns[WORDS_PER_SENTENCE] = [float(r.counts.total_tokens) for r in records]
    mixed = [v for v in columns["cmi"] if v > 0]
    return CorpusReport(
        corpus_name=name,
        sentence_count=len(records),
        token_count=sum(r.counts.total_tokens for r in records),
        distribution=_distribution(r.counts for r in records),
        summary=tuple(IndexSummaryRow(i, min(values), max(values), fmean(values)) for i, values in columns.items()),
        cmi_all=fmean(columns["cmi"]),
        cmi_mixed=fmean(mixed) if mixed else 0.0,
        per_sentence=records,
    )


def scatter_data(report: CorpusReport, index_name: str) -> list[tuple[int, float]]:
    """(words, index value) pairs, one per sentence in corpus order."""
    if index_name not in INDEX_NAMES:
        raise ValueError(f"unknown index {index_name!r}; expected one of {', '.join(INDEX_NAMES)}")
    return [(r.counts.total_tokens, getattr(r.metrics, index_name)) for r in report.per_sentence]


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
