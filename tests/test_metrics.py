from __future__ import annotations

import math
from collections.abc import Hashable

import pytest

from codemix import MetricConfig, aggregate, analyze_sentence, count_sentence, metrics_from_counts
from codemix.metrics import _arctan_divisor, _linear_divisor
from conftest import make_corpus, make_sentence


def counts_of(codes):
    return count_sentence(make_sentence(codes))


def metrics_of(codes):
    return metrics_from_counts(counts_of(codes))


class TestCountSentence:
    def test_ten_distinct_languages(self):
        c = counts_of([f"L{i}" for i in range(1, 11)])
        assert (c.total_tokens, c.undefined_tokens, c.language_count) == (10, 0, 10)
        assert c.dominant_count == 1
        assert c.switch_count == 9

    def test_monolingual(self):
        c = counts_of(["L1"] * 10)
        assert (c.total_tokens, c.language_count, c.dominant_count, c.switch_count) == (10, 1, 10, 0)

    def test_undefined_tokens_are_transparent_for_switches(self):
        c = counts_of(["EN", None, "BN"])
        assert (c.total_tokens, c.undefined_tokens, c.tagged_tokens) == (3, 1, 2)
        assert c.language_count == 2
        assert c.switch_count == 1

    def test_undefined_between_same_language_is_no_switch(self):
        c = counts_of(["EN", None, "EN"])
        assert c.switch_count == 0

    def test_counts_invariants(self):
        c = counts_of(["EN", "BN", None, "EN", None, "HI"])
        assert c.undefined_tokens + c.tagged_tokens == c.total_tokens
        assert c.language_count == 3
        assert c.dominant_count == 2

    def test_empty_sentence_rejected_at_construction(self):
        with pytest.raises(ValueError):
            make_sentence([])


class TestFactors:
    def test_language_factor(self):
        assert metrics_of(["BN"] * 3 + ["EN"] * 9).language_factor == 6.0  # W=12, N=2
        assert metrics_of(["BN"] * 3 + ["EN"] * 3 + ["HI"] * 6).language_factor == 4.0  # W=12, N=3
        assert metrics_of([f"L{i}" for i in range(10)]).language_factor == 1.0
        assert metrics_of([None, None]).language_factor == 0.0

    def test_switching_factor(self):
        # 4 switches over 6 words, then 1 switch over 6 words
        assert metrics_of(["BN", "EN", "BN", "EN", "EN", "BN"]).switching_factor == pytest.approx(0.8)
        assert metrics_of(["EN", "EN", "EN", "BN", "BN", "BN"]).switching_factor == pytest.approx(0.2)
        assert metrics_of(["EN"]).switching_factor == 0.0

    def test_mix_factor(self):
        assert metrics_of(["BN"] * 3 + ["EN"] * 9).mix_factor == 0.25
        assert metrics_of(["BN"] * 3 + ["EN"] * 3 + ["HI"] * 6).mix_factor == 0.5
        assert metrics_of(["EN"] * 7).mix_factor == 0.0
        assert metrics_of([None, None]).mix_factor == 0.0

    def test_cmi_values(self):
        assert metrics_of([f"L{i}" for i in range(10)]).cmi == pytest.approx(90.0)
        assert metrics_of(["EN"] * 10).cmi == 0.0
        mixed = ["EN"] * 9 + ["BN"] * 3 + ["HI"] * 9 + [None] * 4
        assert metrics_of(mixed).cmi == pytest.approx(57.14, abs=0.005)
        assert metrics_of([None, None, None]).cmi == 0.0

    def test_cmi_is_hundred_times_mix_factor(self):
        for codes in (["EN", "BN", None], ["EN"] * 4 + ["BN"], [None], ["EN", "HI", "HI", None, "EN"]):
            m = metrics_of(codes)
            assert m.cmi == pytest.approx(100.0 * m.mix_factor)


class TestDampening:
    def test_linear_left_endpoint(self):
        for total in (2, 5, 17):
            assert _linear_divisor(1.0, total) == 1.0

    @pytest.mark.parametrize("total", range(2, 51))
    def test_linear_at_monolingual_factor_is_five_quarters(self, total):
        assert _linear_divisor(float(total), total) == pytest.approx(1.25)

    def test_arctan_at_one(self):
        assert _arctan_divisor(1.0) == 1.0

    def test_arctan_upper_bound(self):
        assert _arctan_divisor(1e9) < 1.25


class TestComplexityFactor:
    def test_case_one_both_squashes_agree(self):
        m = metrics_from_counts(counts_of([f"L{i}" for i in range(10)]))
        assert m.cf2 == pytest.approx(95.0)
        assert m.cf3 == pytest.approx(95.0)

    def test_alternating_pair(self):
        m = metrics_from_counts(counts_of(["L1", "L2"] * 5))
        assert m.cf2 == pytest.approx(67.5)
        assert m.cf3 == pytest.approx(63.2, abs=0.1)

    def test_two_blocks(self):
        m = metrics_from_counts(counts_of(["L1"] * 5 + ["L2"] * 5))
        assert m.cf2 == pytest.approx(27.5)
        assert m.cf3 == pytest.approx(25.7, abs=0.1)

    def test_monolingual_and_all_undefined_are_zero(self):
        assert metrics_from_counts(counts_of(["EN"] * 4)).cf2 == 0.0
        assert metrics_from_counts(counts_of([None, None])).cf2 == 0.0

    def test_mix_only_weights(self):
        c = counts_of(["L1", "L2"] * 5)
        config = MetricConfig(mix_weight=100.0, switch_weight=0.0)
        assert metrics_from_counts(c, config).cf2 == pytest.approx(45.0)


class TestAnalyzeSentence:
    def test_monolingual_all_zero(self):
        m = analyze_sentence(make_sentence(["EN"] * 10))
        assert (m.mix_factor, m.switching_factor, m.cmi, m.cf1, m.cf2, m.cf3) == (0, 0, 0, 0, 0, 0)
        assert m.language_factor == 10.0

    def test_gujarati_english_alternation(self):
        m = analyze_sentence(make_sentence(["GU", "EN", "GU", "EN", "GU"]))
        assert m.switching_factor == 1.0
        assert m.cmi == pytest.approx(40.0)
        assert m.cf2 == pytest.approx(64.0, abs=0.5)
        assert m.cf3 == pytest.approx(62.0, abs=0.5)

    def test_all_undefined_sentence_is_all_zero(self):
        m = analyze_sentence(make_sentence([None, None, None]))
        assert (m.language_factor, m.switching_factor, m.mix_factor, m.cmi) == (0, 0, 0, 0)
        assert (m.cf1, m.cf2, m.cf3) == (0, 0, 0)

    def test_cf1_uses_raw_language_factor(self):
        m = analyze_sentence(make_sentence(["L1", "L2"] * 5))
        assert m.cf1 == pytest.approx((50 * 0.5 + 50 * 1.0) / 5.0)


class TestMetricConfig:
    def test_rejects_negative_weight(self):
        with pytest.raises(ValueError):
            MetricConfig(mix_weight=-1.0)

    def test_rejects_zero_sum(self):
        for mix, switch in ((0.0, 0.0), (math.nan, 50.0), (math.inf, 0.0), (1.7e308, 1.7e308)):
            with pytest.raises(ValueError):
                MetricConfig(mix_weight=mix, switch_weight=switch)

    def test_defaults(self):
        config = MetricConfig()
        assert (config.mix_weight, config.switch_weight) == (50.0, 50.0)

    def test_weights_are_stored_as_floats(self):
        for weights, stored in (((50, 50), (50.0, 50.0)), ((True, 1), (1.0, 1.0)), ((-0.0, 50), (0.0, 50.0))):
            config = MetricConfig(*weights)
            assert config == stored
            assert [type(weight) for weight in config] == [float, float]
        assert str(MetricConfig(-0.0, 50).mix_weight) == "0.0"
        for weights in (("50", 50.0), (50.0, b"50")):
            with pytest.raises(TypeError):
                MetricConfig(*weights)


def test_counts_are_immutable_hashable_values():
    c = counts_of(["EN", "BN"])
    with pytest.raises(TypeError):
        c[0] = 5
    # Counts, and the records and reports over them, hash as they compare: equal values built apart hash alike.
    report = aggregate(make_corpus([["EN", "BN"]]))
    again = aggregate(make_corpus([["EN", "BN"]]))
    pairs = ((c, counts_of(["EN", "BN"])), (report.per_sentence[0], again.per_sentence[0]), (report, again))
    for value, equal in pairs:
        assert isinstance(value, Hashable)
        assert value == equal and value is not equal
        assert hash(value) == hash(equal)


def test_switch_count_never_exceeds_tagged_minus_one():
    for codes in (["EN", "BN"] * 4, ["EN", None, "BN", None, "EN"], [None, "EN", None]):
        c = counts_of(codes)
        assert 0 <= c.switch_count <= max(c.tagged_tokens - 1, 0)


def test_arctan_divisor_formula():
    lf = metrics_of(["L1", "L2"] * 5).language_factor
    assert _arctan_divisor(lf) == pytest.approx(math.atan(5.0) / math.pi + 0.75)
