"""The names codemix exports: adding or removing one is an edit to this list."""

from __future__ import annotations

import copy
import pickle
import types

import pytest

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


def test_all_is_the_pinned_public_surface():
    assert sorted(codemix.__all__) == PUBLIC_NAMES
    assert [name for name in PUBLIC_NAMES if not hasattr(codemix, name)] == []
    # A name dropped from __all__ but still imported into the package would stay reachable.
    imported = {n for n, v in vars(codemix).items() if not n.startswith("_") and not isinstance(v, types.ModuleType)}
    assert imported == set(codemix.__all__)


def _value_instances() -> dict[str, tuple[object, str]]:
    """One instance of each public value type, keyed by its name, with the name of one of its fields.

    A parsed Sentence is built by Sentence._checked, not by its constructor, so it is one more instance.
    """
    en = codemix.LanguageTag.language("EN")
    sentence = codemix.Sentence(("a", "b"), (en, codemix.LanguageTag.language("HI")))
    corpus = codemix.Corpus("c", (sentence,))
    report = codemix.aggregate(corpus)
    counts = codemix.count_sentence(sentence)
    comparison = codemix.compare(report, report)
    return {
        "LanguageTag": (en, "code"),
        "Token": (sentence.tokens[0], "surface"),
        "Sentence": (sentence, "tags"),
        "Sentence parsed": (codemix.parse_column_format("a\tEN\r\nb\tHI\n").sentences[0], "surfaces"),
        "Corpus": (corpus, "sentences"),
        "TagPolicy": (codemix.TagPolicy(), "language_codes"),
        "MetricConfig": (codemix.MetricConfig(), "mix_weight"),
        "GenSpec": (codemix.GenSpec(1, 2, 2), "seed"),
        "SentenceCounts": (counts, "switch_count"),
        "SentenceMetrics": (codemix.metrics_from_counts(counts), "cf2"),
        "LanguageDistributionRow": (report.distribution[0], "percentage"),
        "IndexSummaryRow": (report.summary[0], "mean"),
        "CorpusReport": (report, "cmi_all"),
        "IndexComparison": (comparison.rows[0], "verdict"),
        "CorpusComparison": (comparison, "rows"),
    }


VALUE_TYPES = sorted(_value_instances())


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_are_immutable(name):
    value, field = _value_instances()[name]
    assert type(value) is getattr(codemix, name.split()[0])
    for attribute in (field, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, attribute, getattr(value, field))
    with pytest.raises(AttributeError):
        delattr(value, field)


@pytest.mark.parametrize("name", VALUE_TYPES)
def test_value_types_copy_and_pickle_to_equal_values(name):
    value, _ = _value_instances()[name]
    for copied in (copy.copy(value), copy.deepcopy(value), pickle.loads(pickle.dumps(value))):
        assert type(copied) is type(value)
        assert copied == value
        assert hash(copied) == hash(value)


@pytest.mark.parametrize(
    "value, change",
    [
        (codemix.TagPolicy(), {"language_codes": {"UN"}}),
        (codemix.MetricConfig(), {"mix_weight": -1.0}),
        (codemix.GenSpec(1, 2, 2), {"language_count": 3}),
    ],
    ids=["TagPolicy", "MetricConfig", "GenSpec"],
)
def test_replace_checks_as_the_constructor_does(value, change):
    with pytest.raises(ValueError):
        value._replace(**change)
