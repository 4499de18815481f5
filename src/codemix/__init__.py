"""Code-mixing complexity metrics for language-tagged multilingual text.

Quantifies how mixed a sentence or corpus is via the Code Mixing Index (CMI)
and the Complexity Factor family (CF1/CF2/CF3), which additionally account
for switch points and the number of languages involved.
"""

from .corpus_io import (
    DEFAULT_POLICY,
    DEFAULT_LANGUAGES,
    CorpusFormat,
    ParseError,
    TagPolicy,
    UnknownTagAction,
    UnknownTagError,
    normalize_tag,
    parse_column_format,
    parse_inline_format,
    write_corpus,
)
from .metrics import (
    DEFAULT_CONFIG,
    MetricConfig,
    SentenceCounts,
    SentenceMetrics,
    analyze_sentence,
    count_sentence,
    metrics_from_counts,
)
from .model import Corpus, LanguageTag, Sentence, Token, UndefinedReason
from .stats import (
    INDEX_NAMES,
    CorpusComparison,
    CorpusReport,
    IndexComparison,
    IndexSummaryRow,
    LanguageDistributionRow,
    aggregate,
    compare,
    language_distribution,
    scatter_data,
)
from .synth import Arrangement, GenSpec, generate

__version__ = "0.1.0"

__all__ = [
    "Arrangement",
    "Corpus",
    "CorpusComparison",
    "CorpusFormat",
    "CorpusReport",
    "DEFAULT_CONFIG",
    "DEFAULT_POLICY",
    "DEFAULT_LANGUAGES",
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
    "TagPolicy",
    "Token",
    "UndefinedReason",
    "UnknownTagAction",
    "UnknownTagError",
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
