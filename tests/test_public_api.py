"""The names codemix exports: adding or removing one is an edit to this list."""

from __future__ import annotations

import codemix

PUBLIC_NAMES = [
    "Arrangement",
    "Corpus",
    "CorpusComparison",
    "CorpusFormat",
    "CorpusReport",
    "DEFAULT_CONFIG",
    "DEFAULT_LANGUAGES",
    "DEFAULT_POLICY",
    "GenSpec",
    "INDEX_NAMES",
    "IndexComparison",
    "IndexSummaryRow",
    "LanguageDistributionRow",
    "LanguageTag",
    "MetricConfig",
    "ParseError",
    "Sentence",
    "SentenceCounts",
    "SentenceMetrics",
    "SentenceRecord",
    "TagPolicy",
    "Token",
    "UndefinedReason",
    "UnknownTagAction",
    "UnknownTagError",
    "Xoshiro256StarStar",
    "aggregate",
    "analyze_sentence",
    "compare",
    "count_sentence",
    "generate",
    "language_distribution",
    "metrics_from_counts",
    "normalize_tag",
    "parse_column_format",
    "parse_inline_format",
    "scatter_data",
    "write_corpus",
]


def test_all_is_the_pinned_public_surface():
    assert sorted(codemix.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(codemix, name)] == []
