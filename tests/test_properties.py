from __future__ import annotations

import argparse
import dataclasses
import itertools
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codemix import (
    DEFAULT_CONFIG,
    DEFAULT_POLICY,
    Corpus,
    CorpusFormat,
    Dampening,
    MetricConfig,
    ParseError,
    TagPolicy,
    UnknownTagAction,
    aggregate,
    analyze_sentence,
    cmi,
    count_sentence,
    dampening_divisor,
    language_factor,
    metrics_from_counts,
    mix_factor,
    parse_column_format,
    parse_inline_format,
    switching_factor,
    write_corpus,
)
from codemix.cli import CliError, _report
from codemix.render import render_per_sentence_csv, render_report_json
from conftest import make_corpus, make_sentence
from naive_oracle import naive_metrics

tag_lists = st.lists(st.sampled_from(["L1", "L2", "L3", None]), min_size=1, max_size=12)
corpora = st.lists(tag_lists, min_size=1, max_size=6)


@given(tag_lists)
def test_library_matches_naive_recount(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    expected = naive_metrics(codes)
    assert counts.total_tokens == expected["W"]
    assert counts.undefined_tokens == expected["u"]
    assert counts.tagged_tokens == expected["Wprime"]
    assert dict(counts.per_language) == expected["per_language"]
    assert counts.language_count == expected["N"]
    assert counts.dominant_count == expected["max_w"]
    assert counts.switch_count == expected["S"]
    for field, value in (
        ("lf", metrics.language_factor),
        ("sf", metrics.switching_factor),
        ("mf", metrics.mix_factor),
        ("cmi", metrics.cmi),
        ("cf1", metrics.cf1),
        ("cf2", metrics.cf2),
        ("cf3", metrics.cf3),
    ):
        assert round(value, 10) == round(expected[field], 10)


@given(tag_lists)
def test_range_invariants(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    assert 0.0 <= metrics.switching_factor <= 1.0
    if counts.language_count == 0:
        assert metrics.language_factor == 0.0
    else:
        assert 1.0 <= metrics.language_factor <= counts.total_tokens
    if counts.tagged_tokens >= 1:
        assert 0.0 <= metrics.mix_factor <= 1.0 - 1.0 / counts.tagged_tokens + 1e-12
        assert 0.0 <= metrics.cmi <= 100.0 * (1.0 - 1.0 / counts.tagged_tokens) + 1e-9
    assert metrics.cmi == pytest.approx(100.0 * metrics.mix_factor)
    for value in (metrics.cf1, metrics.cf2, metrics.cf3):
        assert 0.0 <= value < 100.0
        assert math.isfinite(value)


@given(tag_lists)
def test_zero_law(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    if counts.language_count <= 1:
        assert metrics.mix_factor == 0.0
        assert metrics.switching_factor == 0.0
        assert metrics.cmi == 0.0
        assert (metrics.cf1, metrics.cf2, metrics.cf3) == (0.0, 0.0, 0.0)


@given(tag_lists)
def test_dampening_divisors_bounded(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count == 0 or counts.total_tokens < 2:
        return
    lf = language_factor(counts)
    for kind in (Dampening.LINEAR, Dampening.ARCTAN):
        divisor = dampening_divisor(lf, counts.total_tokens, kind)
        assert 1.0 - 1e-12 <= divisor <= 1.25 + 1e-12


@given(tag_lists)
def test_squashed_variants_coincide_at_unit_language_factor(codes):
    metrics = analyze_sentence(make_sentence(codes))
    if metrics.language_factor == 1.0:
        assert metrics.cf2 == metrics.cf3


@given(tag_lists)
def test_switch_count_monotonicity(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count < 2:
        return
    ceiling = counts.tagged_tokens - 1
    previous = None
    for switches in range(0, ceiling + 1):
        bumped = dataclasses.replace(counts, switch_count=switches)
        metrics = metrics_from_counts(bumped)
        if previous is not None:
            assert metrics.switching_factor > previous.switching_factor
            assert metrics.cf1 > previous.cf1
            assert metrics.cf2 > previous.cf2
            assert metrics.cf3 > previous.cf3
        previous = metrics


@given(tag_lists)
def test_appending_undefined_dilutes(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count < 2 or counts.switch_count < 1:
        return
    before = metrics_from_counts(counts)
    after = metrics_from_counts(count_sentence(make_sentence(codes + [None])))
    assert after.mix_factor == before.mix_factor
    assert after.cmi == before.cmi
    assert after.switching_factor < before.switching_factor
    assert after.language_factor > before.language_factor
    assert after.cf2 <= before.cf2
    assert after.cf3 <= before.cf3


@given(corpora)
def test_cmi_all_never_exceeds_cmi_mixed(tag_list):
    report = aggregate(make_corpus(tag_list))
    assert report.cmi_all <= report.cmi_mixed + 1e-12


@given(corpora)
def test_distribution_percentages_sum_to_hundred(tag_list):
    report = aggregate(make_corpus(tag_list))
    assert sum(row.percentage for row in report.distribution) == pytest.approx(100.0, abs=0.01)


surfaces = st.text(alphabet="abἀ/.:-?0", min_size=1, max_size=5)
mixed_tags = st.sampled_from(["L1", "L2", None])


@settings(max_examples=50)
@given(st.lists(st.lists(st.tuples(surfaces, mixed_tags), min_size=1, max_size=6), min_size=1, max_size=4))
def test_round_trip_identity_both_formats(sentence_specs):
    from codemix import Corpus, LanguageTag, Sentence, Token

    sentences = []
    for i, token_specs in enumerate(sentence_specs):
        tokens = tuple(
            Token(surface=s, tag=LanguageTag.language(code) if code else LanguageTag.undefined())
            for s, code in token_specs
        )
        sentences.append(Sentence(index=i, tokens=tokens))
    corpus = Corpus(name="prop", sentences=tuple(sentences), tag_registry=frozenset({"L1", "L2"}))
    assert parse_column_format(write_corpus(corpus, CorpusFormat.COLUMN)) == corpus
    assert parse_inline_format(write_corpus(corpus, CorpusFormat.INLINE)) == corpus


def _max_switches(multiset: list[str]) -> int:
    best = 0
    for arrangement in set(itertools.permutations(multiset)):
        best = max(best, sum(1 for a, b in zip(arrangement, arrangement[1:]) if a != b))
    return best


@pytest.mark.parametrize(
    "multiset",
    [
        ["A", "A", "B"],
        ["A", "A", "A", "B"],
        ["A", "A", "B", "B"],
        ["A", "A", "A", "B", "B"],
        ["A", "A", "A", "A", "B", "B"],
        ["A", "B", "C"],
        ["A", "A", "B", "C"],
        ["A", "A", "A", "A", "A", "B", "C"],
        ["A", "A", "A", "B", "B", "C", "C", "C"],
    ],
)
def test_full_switching_attainable_iff_no_majority_language(multiset):
    # Over all reorderings, S maxes out at W'-1 exactly when the dominant
    # language holds at most ceil(W'/2) tokens; checked by brute force.
    total = len(multiset)
    dominant = max(multiset.count(code) for code in set(multiset))
    attainable = dominant <= -(-total // 2)
    assert (_max_switches(multiset) == total - 1) == attainable


def test_switching_factor_maxed_by_non_adjacent_arrangement():
    multiset = ["A", "A", "B", "B", "C"]
    best = None
    for arrangement in set(itertools.permutations(multiset)):
        sf = switching_factor(count_sentence(make_sentence(list(arrangement))))
        adjacent_repeat = any(a == b for a, b in zip(arrangement, arrangement[1:]))
        if best is None or sf > best[0]:
            best = (sf, adjacent_repeat)
    assert best[0] == 1.0
    assert best[1] is False


@given(tag_lists, st.floats(min_value=0.0, max_value=200.0), st.floats(min_value=0.0, max_value=200.0))
def test_custom_weights_agree_with_naive(codes, mix_weight, switch_weight):
    if mix_weight + switch_weight <= 0:
        return
    config = MetricConfig(mix_weight=mix_weight, switch_weight=switch_weight)
    metrics = analyze_sentence(make_sentence(codes), config)
    expected = naive_metrics(codes, mix_weight, switch_weight)
    assert round(metrics.cf2, 10) == round(expected["cf2"], 10)
    assert round(metrics.cf3, 10) == round(expected["cf3"], 10)


@given(tag_lists)
def test_mix_factor_and_cmi_ignore_token_order(codes):
    base = count_sentence(make_sentence(codes))
    reversed_counts = count_sentence(make_sentence(codes[::-1]))
    assert mix_factor(base) == mix_factor(reversed_counts)
    assert cmi(base) == cmi(reversed_counts)


# Pieces that hit every branch of both parsers: separators, blank and CR
# lines, tabs and CRs inside surfaces, known, synthetic, alias and unknown
# tags, a byte-order mark and a vertical tab (which does not end a line).
fuzz_text = st.lists(
    st.sampled_from(["a", "/", " ", "\t", "\r", "\n", "EN", "bn", "L2", "NE", "QQ", "\ufeff", "\x0b"]),
    max_size=40,
).map("".join)


@settings(max_examples=500)
@given(fuzz_text, st.sampled_from([DEFAULT_POLICY, TagPolicy(unknown_tag_action=UnknownTagAction.TREAT_UNDEFINED)]))
def test_parsers_return_corpus_or_raise_parse_error(text, policy):
    for parser in (parse_column_format, parse_inline_format):
        try:
            assert isinstance(parser(text, policy), Corpus)
        except ParseError:
            pass


@settings(max_examples=1000, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_text, st.sampled_from([None, "undefined"]))
def test_cli_report_matches_library_report(tmp_path_factory, caplog, text, unknown):
    path = tmp_path_factory.getbasetemp() / "fuzz.tags"
    path.write_bytes(text.encode("utf-8"))
    policy = TagPolicy(unknown_tag_action=UnknownTagAction(unknown or "error"))
    decoded = text.encode("utf-8").decode("utf-8-sig")  # as the CLI reads a file

    def outcome(report_of):
        caplog.clear()
        try:
            report = report_of()
        except CliError as exc:
            assert str(exc).startswith(f"{path}: ")
            return type(exc.__cause__), str(exc).removeprefix(f"{path}: "), caplog.messages
        except ValueError as exc:
            return type(exc), str(exc), caplog.messages
        rendered = render_report_json(report, DEFAULT_CONFIG, per_sentence=True), render_per_sentence_csv(report)
        return report, rendered, caplog.messages

    for fmt, parser in (("column", parse_column_format), ("inline", parse_inline_format)):
        args = argparse.Namespace(format=fmt, language_codes=None, unknown=unknown)
        cli_outcome = outcome(lambda: _report(str(path), args))
        assert cli_outcome == outcome(lambda: aggregate(parser(decoded, policy, name="fuzz")))
