from __future__ import annotations

import pytest

from codemix import (
    Corpus,
    IndexSummaryRow,
    MetricConfig,
    aggregate,
    compare,
    language_distribution,
    scatter_data,
)
from codemix.stats import CorpusReport, INDEPENDENT_LABEL
from conftest import make_corpus


class TestLanguageDistribution:
    def test_direct_counts(self):
        corpus = make_corpus([["EN", "EN", "BN", None]])
        rows = {r.language: r for r in language_distribution(corpus)}
        assert rows["EN"].sentence_count == 1
        assert rows["EN"].word_count == 2
        assert rows["EN"].percentage == pytest.approx(50.0)
        assert rows["BN"].percentage == pytest.approx(25.0)
        assert rows[INDEPENDENT_LABEL].word_count == 1
        assert rows[INDEPENDENT_LABEL].percentage == pytest.approx(25.0)

    def test_monolingual_corpus(self):
        rows = language_distribution(make_corpus([["EN", "EN"], ["EN"]]))
        assert [r.language for r in rows] == ["EN", INDEPENDENT_LABEL]
        assert rows[0].percentage == pytest.approx(100.0)
        assert rows[1].word_count == 0
        assert rows[1].percentage == 0.0

    def test_percentages_sum_to_hundred(self):
        corpus = make_corpus([["EN", "BN", None], ["HI", "HI", "EN", None, None], ["TA"]])
        assert sum(r.percentage for r in language_distribution(corpus)) == pytest.approx(100.0, abs=0.01)

    def test_rows_ordered_by_registry_then_independent(self):
        corpus = make_corpus([["L10", "L2", "EN", "L1", None]])
        assert [r.language for r in language_distribution(corpus)] == [
            "EN", "L1", "L2", "L10", INDEPENDENT_LABEL,
        ]

    def test_sentence_counts_count_sentences_not_tokens(self):
        corpus = make_corpus([["EN", "EN"], ["EN", "BN"], ["BN"]])
        rows = {r.language: r for r in language_distribution(corpus)}
        assert rows["EN"].sentence_count == 2
        assert rows["BN"].sentence_count == 2

    def test_empty_corpus_rejected(self):
        empty = Corpus(name="", sentences=(), tag_registry=frozenset())
        with pytest.raises(ValueError):
            language_distribution(empty)


class TestAggregate:
    def test_cmi_all_versus_mixed(self):
        corpus = make_corpus([["EN"] * 10, [f"L{i}" for i in range(1, 11)]])
        report = aggregate(corpus)
        assert report.cmi_all == pytest.approx(45.0)
        assert report.cmi_mixed == pytest.approx(90.0)

    def test_cf2_summary_over_two_known_sentences(self):
        corpus = make_corpus([["L1", "L2"] * 5, ["L1"] * 5 + ["L2"] * 5])
        row = aggregate(corpus).summary_row("cf2")
        assert row.min == pytest.approx(27.5, abs=0.1)
        assert row.max == pytest.approx(67.5)
        assert row.mean == pytest.approx(47.5, abs=0.1)

    def test_single_monolingual_sentence(self):
        report = aggregate(make_corpus([["EN"] * 4]))
        for row in report.summary:
            if row.index_name == "words_per_sentence":
                assert row.min == row.max == row.mean == 4.0
            else:
                assert row.min == row.max == row.mean == 0.0
        assert report.cmi_mixed == 0.0

    def test_summary_invariant_min_le_mean_le_max(self):
        corpus = make_corpus([["EN", "BN"], ["EN"] * 3, ["HI", None, "EN", "HI"]])
        for row in aggregate(corpus).summary:
            assert row.min <= row.mean <= row.max

    def test_permutation_invariance_of_summaries(self):
        lists = [["EN", "BN"] * 3, ["HI"] * 4, ["EN", None, "TA"], ["L1"], ["L01", "L1"]]
        straight = aggregate(make_corpus(lists))
        shuffled = aggregate(make_corpus(lists[::-1]))
        assert straight.cmi_all == shuffled.cmi_all
        assert straight.cmi_mixed == shuffled.cmi_mixed
        for row_a, row_b in zip(straight.summary, shuffled.summary):
            assert row_a == row_b
        assert straight.distribution == shuffled.distribution  # L01 and L1 share a numeric key

    def test_weights_flow_through(self):
        corpus = make_corpus([["L1", "L2"] * 5])
        report = aggregate(corpus, MetricConfig(mix_weight=100.0, switch_weight=0.0))
        assert report.per_sentence[0].metrics.cf2 == pytest.approx(45.0)

    def test_token_count_and_lengths(self):
        report = aggregate(make_corpus([["EN", "BN"], ["HI"]]))
        assert report.token_count == 3
        assert report.sentence_count == 2
        assert len(report.per_sentence) == 2

    def test_empty_corpus_rejected(self):
        empty = Corpus(name="", sentences=(), tag_registry=frozenset())
        with pytest.raises(ValueError):
            aggregate(empty)


class TestScatterData:
    def test_case1_pair(self):
        report = aggregate(make_corpus([[f"L{i}" for i in range(1, 11)]]))
        assert scatter_data(report, "cf2") == [(10, pytest.approx(95.0))]

    def test_pairs_follow_corpus_order(self):
        report = aggregate(make_corpus([["EN", "BN"], ["HI"] * 3]))
        pairs = scatter_data(report, "cmi")
        assert [w for w, _ in pairs] == [2, 3]

    def test_unknown_index_rejected(self):
        report = aggregate(make_corpus([["EN"]]))
        with pytest.raises(ValueError, match="cf9"):
            scatter_data(report, "cf9")


def _fake_report(name: str, means: dict[str, float]) -> CorpusReport:
    summary = tuple(
        IndexSummaryRow(index_name=index, min=0.0, max=means[index], mean=means[index])
        for index in ("cmi", "cf1", "cf2", "cf3", "words_per_sentence")
    )
    return CorpusReport(
        corpus_name=name,
        sentence_count=1,
        token_count=1,
        distribution=(),
        summary=summary,
        cmi_all=means["cmi"],
        cmi_mixed=means["cmi"],
        per_sentence=(),
    )


class TestCompare:
    def test_reported_corpus_level_delta(self):
        a = _fake_report("fire", {"cmi": 11.65, "cf1": 2.51, "cf2": 10.54, "cf3": 9.88, "words_per_sentence": 17.16})
        b = _fake_report("icon", {"cmi": 5.73, "cf1": 1.02, "cf2": 4.83, "cf3": 4.51, "words_per_sentence": 16.32})
        row = {r.index_name: r for r in compare(a, b).rows}["cf2"]
        assert row.delta == pytest.approx(5.71)
        assert row.verdict == "A"

    def test_identical_reports_tie(self):
        corpus = make_corpus([["EN", "BN"], ["HI"] * 2])
        result = compare(aggregate(corpus), aggregate(corpus))
        assert all(r.delta == 0.0 and r.verdict == "TIE" for r in result.rows)

    def test_verdicts_can_disagree_between_indices(self):
        # Same per-sentence language multisets, different ordering: CMI ties
        # while the switch-sensitive indices favour the alternating corpus.
        alternating = make_corpus([["L1", "L2"] * 5])
        blocked = make_corpus([["L1"] * 5 + ["L2"] * 5])
        rows = {r.index_name: r for r in compare(aggregate(alternating), aggregate(blocked)).rows}
        assert rows["cmi"].verdict == "TIE"
        assert rows["cf2"].verdict == "A"
        assert rows["cf3"].verdict == "A"
