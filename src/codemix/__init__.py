"""Code-mixing complexity metrics for language-tagged multilingual text.

Quantifies how mixed a sentence or corpus is via the Code Mixing Index (CMI)
and the Complexity Factor family (CF1/CF2/CF3), which additionally account
for switch points and the number of languages involved.

Each public name is imported from its module on first access (PEP 562), so
`import codemix` loads no submodule, and `codemix generate` only the one it runs.
"""

__version__ = "0.1.0"

# The public names, by the module that defines them.
_EXPORTS = {
    "corpus_io": (
        "DEFAULT_POLICY",
        "DEFAULT_LANGUAGES",
        "CorpusFormat",
        "ParseError",
        "TagPolicy",
        "UnknownTagAction",
        "UnknownTagError",
        "normalize_tag",
        "parse_column_format",
        "parse_inline_format",
        "write_corpus",
    ),
    "metrics": (
        "DEFAULT_CONFIG",
        "MetricConfig",
        "SentenceCounts",
        "SentenceMetrics",
        "analyze_sentence",
        "count_sentence",
        "metrics_from_counts",
    ),
    "model": ("Corpus", "LanguageTag", "Sentence", "Token", "UndefinedReason"),
    "stats": (
        "INDEX_NAMES",
        "CorpusComparison",
        "CorpusReport",
        "IndexComparison",
        "IndexSummaryRow",
        "LanguageDistributionRow",
        "aggregate",
        "compare",
        "language_distribution",
        "scatter_data",
    ),
    "synth": ("Arrangement", "GenSpec", "generate"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name: str) -> object:
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # With a fromlist, __import__ returns the submodule itself.
    value = getattr(__import__(f"{__name__}.{module}", fromlist=(name,)), name)
    globals()[name] = value  # later lookups find it without this hook
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
