from __future__ import annotations

import math
import random
import re
import tracemalloc
from collections import Counter
from statistics import fmean
from unittest import mock

import pytest

from codemix import (
    Arrangement,
    Corpus,
    DEFAULT_CONFIG,
    GenSpec,
    IndexSummaryRow,
    MetricConfig,
    SentenceCounts,
    aggregate,
    compare,
    count_sentence,
    generate,
    language_distribution,
    metrics_from_counts,
    scatter_data,
)
from codemix.render import _json_body
from codemix.stats import _MEMO_SIZE, INDEPENDENT_LABEL, CorpusReport, _fold, _rows
from conftest import make_corpus, make_sentence


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
        empty = Corpus(name="", sentences=())
        with pytest.raises(ValueError):
            language_distribution(empty)


class TestAggregate:
    def test_cmi_all_versus_mixed(self):
        # The last sentence's CMI, 100/101, is below 1 but still above 0, so it is mixed.
        corpus = make_corpus([["EN"] * 10, [f"L{i}" for i in range(1, 11)], ["EN"] * 100 + ["HI"]])
        report = aggregate(corpus)
        assert report.cmi_all == pytest.approx((90.0 + 100 / 101) / 3)
        assert report.cmi_mixed == pytest.approx((90.0 + 100 / 101) / 2)

    def test_cf2_summary_over_two_known_sentences(self):
        corpus = make_corpus([["L1", "L2"] * 5, ["L1"] * 5 + ["L2"] * 5])
        row = aggregate(corpus).summary_row("cf2")
        assert row.min == pytest.approx(27.5, abs=0.1)
        assert row.max == pytest.approx(67.5)
        assert row.mean == pytest.approx(47.5, abs=0.1)

    def test_summary_row_rejects_an_unknown_index(self):
        message = "unknown index 'lf'; expected one of cmi, cf1, cf2, cf3, words_per_sentence"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            aggregate(make_corpus([["EN"]])).summary_row("lf")

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
        [(_, metrics)] = report.per_sentence
        assert metrics.cf2 == pytest.approx(45.0)

    def test_token_count_and_lengths(self):
        report = aggregate(make_corpus([["EN", "BN"], ["HI"]]))
        assert report.token_count == 3
        assert report.sentence_count == 2
        assert len(report.per_sentence) == 2

    def test_empty_corpus_rejected(self):
        empty = Corpus(name="", sentences=())
        with pytest.raises(ValueError):
            aggregate(empty)

    def test_summary_folded_over_repeated_signatures_equals_statistics_over_the_records(self):
        report = aggregate(generate(GenSpec(3000, (3, 12), 3, Arrangement.RANDOM, 0.2, seed=11)))
        assert len({counts for counts, _ in report.per_sentence}) < report.sentence_count // 10
        for row in report.summary:
            if row.index_name == "words_per_sentence":
                values = [float(counts.total_tokens) for counts, _ in report.per_sentence]
            else:
                values = [getattr(metrics, row.index_name) for _, metrics in report.per_sentence]
            assert (row.min, row.max, row.mean.hex()) == (min(values), max(values), fmean(values).hex())
        cmi = [metrics.cmi for _, metrics in report.per_sentence]
        assert report.cmi_all.hex() == fmean(cmi).hex()
        assert report.cmi_mixed.hex() == fmean([v for v in cmi if v > 0]).hex()


def _counts(total: int, undefined: int, languages: int, dominant: int, switches: int) -> SentenceCounts:
    return SentenceCounts(total, undefined, total - undefined, languages, dominant, switches)


def _counted(counts: SentenceCounts) -> tuple[int, int, int, dict[str, int]]:
    """The tally of counts, with a {code: count} that matches them, as stats._fold takes it."""
    rest = [0] * (counts.language_count - 1)
    for i in range(counts.tagged_tokens - counts.dominant_count):
        rest[i % len(rest)] += 1
    per_language = {f"L{i + 1}": words for i, words in enumerate([counts.dominant_count, *rest])}
    return counts.total_tokens, counts.undefined_tokens, counts.switch_count, per_language


def _distinct_counts(count: int, seed: int) -> list[SentenceCounts]:
    """count SentenceCounts, no two equal."""
    rng = random.Random(seed)
    found: dict[SentenceCounts, None] = {}
    while len(found) < count:
        total = rng.randint(1, 120)
        undefined = rng.randint(0, total - 1)
        tagged = total - undefined
        languages = rng.randint(1, min(tagged, 4))
        dominant = rng.randint(-(-tagged // languages), tagged - languages + 1)
        counts = _counts(total, undefined, languages, dominant, rng.randint(languages - 1, tagged - 1))
        found[counts] = None
    return list(found)


class TestSignatureMemo:
    """stats._fold computes each signature's metrics once per run, and stats._rows formats its row once."""

    def test_more_signatures_than_the_memo_holds_match_unmemoised_metrics(self):
        rng = random.Random(3)
        distinct = _distinct_counts(_MEMO_SIZE + 1500, seed=3)
        sentences = []
        for i, counts in enumerate(distinct):  # each signature first, then repeats of earlier ones
            sentences.append(counts)
            if i % 2:
                sentences.append(rng.choice(distinct[: i + 1]))
        sentences.extend(rng.choices(distinct, k=2000))
        config = MetricConfig(30.0, 70.0)
        with mock.patch("codemix.stats.metrics_from_counts", wraps=metrics_from_counts) as evaluated:
            report = _fold("memo", map(_counted, sentences), config, per_sentence=True)
        pairs = report.per_sentence
        expected = [metrics_from_counts(counts, config) for counts in sentences]
        assert [counts for counts, _ in pairs] == sentences
        assert [[v.hex() for v in m] for _, m in pairs] == [[v.hex() for v in m] for m in expected]
        # The first _MEMO_SIZE signatures each have one pair, made on their first sentence;
        # past the cap, each sentence has its own. Each pair's metrics are computed once.
        remembered = set(list(dict.fromkeys(sentences))[:_MEMO_SIZE])
        first: dict[SentenceCounts, tuple] = {}
        for counts, pair in zip(sentences, pairs):
            if counts not in first:  # the fold builds each pair's counts from the sentence's tally
                assert type(pair[0]) is SentenceCounts and pair[0] == counts
            if counts in remembered:
                assert pair is first.setdefault(counts, pair)
        own = sum(counts not in remembered for counts in sentences)
        assert len({id(pair) for pair in pairs}) == evaluated.call_count == _MEMO_SIZE + own
        for row in report.summary:
            if row.index_name == "words_per_sentence":
                values = [float(counts.total_tokens) for counts in sentences]
            else:
                values = [getattr(m, row.index_name) for m in expected]
            assert (row.min.hex(), row.max.hex(), row.mean.hex()) == (
                min(values).hex(), max(values).hex(), fmean(values).hex()
            )
        cmi = [m.cmi for m in expected]
        assert report.cmi_all.hex() == fmean(cmi).hex()
        assert report.cmi_mixed.hex() == fmean([v for v in cmi if v > 0]).hex()
        assert report.token_count == sum(counts.total_tokens for counts in sentences)

    def test_aggregate_shares_one_pair_among_sentences_with_equal_counts(self):
        corpus = make_corpus([["EN", "HI"], ["BN", "TA"], ["EN", "HI"], ["EN", None], [None, None]])
        records = aggregate(corpus).per_sentence
        assert records[0] is records[1] is records[2]
        assert records[3] is not records[0]
        assert [counts for counts, _ in records] == [count_sentence(sentence) for sentence in corpus.sentences]
        assert records[3][1] == metrics_from_counts(records[3][0])

    @pytest.mark.parametrize("first", [3, _MEMO_SIZE + 5], ids=["remembered", "past-the-cap"])
    def test_a_non_finite_index_names_the_first_sentence_that_has_it(self, first):
        # first distinct keys, so that past the cap the memo of _rows is full when the bad row comes.
        good = [(counts, metrics_from_counts(counts)) for counts in _distinct_counts(first, seed=5)]
        bad_counts = _counts(2, 0, 1, 2, 0)
        bad = (bad_counts, metrics_from_counts(bad_counts)._replace(language_factor=math.inf))
        pairs = [*good, bad, *good[:10], bad]
        with pytest.raises(ValueError, match=f"^sentence {first}: LF is inf, which JSON cannot hold$"):
            list(_rows(pairs, _json_body))

    def test_rows_remember_at_most_memo_size_keys(self):
        metrics = metrics_from_counts(_counts(1, 0, 1, 1, 0))
        early = [(_counts(total, 0, 1, total, 0), metrics) for total in range(1, _MEMO_SIZE + 1)]
        late = (_counts(_MEMO_SIZE + 1, 0, 1, _MEMO_SIZE + 1, 0), metrics)
        calls = Counter()

        def body(counts, _):
            calls[counts.total_tokens] += 1
            return str(counts.total_tokens)

        pairs = [*early, late, late, early[0]]
        assert list(_rows(pairs, body)) == [(index, str(counts.total_tokens)) for index, (counts, _) in enumerate(pairs)]
        # The memo is full before the late key comes, so it is formatted each time; the first key is still remembered.
        assert (calls[_MEMO_SIZE + 1], calls[1], len(calls)) == (2, 1, _MEMO_SIZE + 1)

    def test_peak_memory_stops_growing_at_the_memo_size(self):
        def distinct(count):  # made one at a time, so that the input holds no memory
            return (_counted(_counts(total, 0, 2, total - 1, 1)) for total in range(2, count + 2))

        _fold("warm-up", distinct(10), DEFAULT_CONFIG)
        peaks = {}
        for multiple in (2, 6):
            tracemalloc.start()
            try:
                _fold("distinct", distinct(multiple * _MEMO_SIZE), DEFAULT_CONFIG)
                peaks[multiple] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks[6] <= 1.25 * peaks[2], peaks

    def test_aggregate_holds_little_more_than_a_reference_per_sentence_with_equal_counts(self):
        copies = 20_000
        corpus = Corpus(name="copies", sentences=(make_sentence(["EN", "HI", None]),) * copies)
        aggregate(corpus)  # first-call caches are not the corpus's
        tracemalloc.start()
        try:
            report = aggregate(corpus)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(report.per_sentence) == copies
        assert held / copies < 32, held


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
