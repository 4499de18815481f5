from __future__ import annotations

import re
import sys

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codemix import (
    Arrangement,
    CorpusFormat,
    GenSpec,
    LanguageTag,
    analyze_sentence,
    count_sentence,
    generate,
    write_corpus,
)
from codemix import synth
from codemix.cli import main
from codemix.corpus_io import parse_column_format
from codemix.synth import _below, _column_text, _xoshiro_outputs
from conftest import enumerate_small
from naive_oracle import naive_column_text


def codes_of(sentence):
    return [t.tag.code for t in sentence.tokens]


class TestGenerate:
    def test_equal_specs_generate_identical_corpora(self):
        spec = GenSpec(sentence_count=5, words=(4, 12), language_count=3,
                       arrangement=Arrangement.RANDOM, undefined_ratio=0.2, seed=99)
        a, b = generate(spec), generate(spec)
        assert write_corpus(a, CorpusFormat.COLUMN) == write_corpus(b, CorpusFormat.COLUMN)
        assert a == b

    def test_different_seeds_differ(self):
        base = dict(sentence_count=4, words=10, language_count=3, arrangement=Arrangement.RANDOM)
        a = generate(GenSpec(seed=1, **base))
        b = generate(GenSpec(seed=2, **base))
        assert a != b

    def test_alternating_all_distinct_reproduces_maximal_pattern(self):
        corpus = generate(GenSpec(sentence_count=1, words=10, language_count=10))
        sentence = corpus.sentences[0]
        assert codes_of(sentence) == [f"L{i}" for i in range(1, 11)]
        counts = count_sentence(sentence)
        assert counts.switch_count == 9
        assert counts.dominant_count == 1

    def test_blocked_two_languages_gives_two_blocks(self):
        corpus = generate(GenSpec(sentence_count=1, words=10, language_count=2,
                                  arrangement=Arrangement.BLOCKED))
        assert codes_of(corpus.sentences[0]) == ["L1"] * 5 + ["L2"] * 5

    def test_alternating_reaches_full_switching(self):
        corpus = generate(GenSpec(sentence_count=3, words=9, language_count=3))
        for sentence in corpus.sentences:
            assert analyze_sentence(sentence).switching_factor == 1.0

    def test_blocked_pair_has_single_switch(self):
        corpus = generate(GenSpec(sentence_count=2, words=8, language_count=2,
                                  arrangement=Arrangement.BLOCKED))
        for sentence in corpus.sentences:
            counts = count_sentence(sentence)
            assert counts.switch_count == 1
            assert analyze_sentence(sentence).switching_factor == pytest.approx(1 / 7)

    def test_undefined_ratio_yields_floor_count_at_interior_positions(self):
        corpus = generate(GenSpec(sentence_count=1, words=10, language_count=2, undefined_ratio=0.25))
        tags = corpus.sentences[0].tokens
        undefined_positions = [i for i, t in enumerate(tags) if t.tag.code is None]
        assert len(undefined_positions) == 2  # floor(0.25 * 10)
        assert 0 not in undefined_positions
        counts = count_sentence(corpus.sentences[0])
        assert counts.tagged_tokens == 8

    def test_ratio_just_below_one_keeps_a_language_in_every_sentence(self):
        corpus = generate(GenSpec(sentence_count=2, words=1, language_count=1, undefined_ratio=0.9999999999))
        assert [codes_of(s) for s in corpus.sentences] == [["L1"], ["L1"]]

    def test_random_draws_only_requested_languages(self):
        corpus = generate(GenSpec(sentence_count=10, words=12, language_count=4,
                                  arrangement=Arrangement.RANDOM, seed=7))
        seen = {c for s in corpus.sentences for c in codes_of(s) if c is not None}
        assert seen <= {"L1", "L2", "L3", "L4"}

    def test_word_range_respected(self):
        corpus = generate(GenSpec(sentence_count=50, words=(3, 7), language_count=2, seed=11))
        lengths = {len(s) for s in corpus.sentences}
        assert lengths <= set(range(3, 8))
        assert len(lengths) > 1  # the range is actually exercised

    def test_more_languages_than_words_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(sentence_count=1, words=3, language_count=4)

    @pytest.mark.parametrize(
        "args, error, message",
        [
            ((0, 3, 1), ValueError, "sentence_count must be >= 1"),
            ((1, (3, 2), 1), ValueError, "invalid words range: (3, 2)"),
            ((1, (1, sys.maxsize + 1), 1), ValueError, f"words maximum {sys.maxsize + 1} exceeds sys.maxsize"),
            ((1, 3, 0), ValueError, "language_count must be >= 1"),
            ((2.5, 3, 1), TypeError, "sentence_count must be an int, not 2.5"),
            ((1, (1.5, 3), 1), TypeError, "words must be an int or a (min, max) pair of ints, not (1.5, 3)"),
            ((1, 2.5, 1), TypeError, "words must be an int or a (min, max) pair of ints, not 2.5"),
            ((1, 3, 1.0), TypeError, "language_count must be an int, not 1.0"),
            ((1, 3, 1, Arrangement.ALTERNATING, 0.0, 1.5), TypeError, "seed must be an int, not 1.5"),
            ((1, (1, 2, 3), 1), TypeError, "words must be an int or a (min, max) pair of ints, not (1, 2, 3)"),
            ((1, 6, 2, "alternating"), TypeError, "arrangement must be an Arrangement, not 'alternating'"),
            ((1, 3, 1, Arrangement.RANDOM, "0.1"), TypeError, "undefined_ratio must be a number, not '0.1'"),
            ((1, 3, 1, Arrangement.RANDOM, None), TypeError, "undefined_ratio must be a number, not None"),
        ],
    )
    def test_invalid_spec_rejected_with_its_message(self, args, error, message):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            GenSpec(*args)

    def test_a_words_maximum_of_sys_maxsize_is_accepted(self):
        assert GenSpec(1, (1, sys.maxsize), 1).word_range == (1, sys.maxsize)

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            GenSpec(sentence_count=1, words=3, language_count=2, undefined_ratio=1.0)

    def test_surfaces_are_positional(self):
        corpus = generate(GenSpec(sentence_count=1, words=4, language_count=2))
        assert [t.surface for t in corpus.sentences[0].tokens] == ["w0", "w1", "w2", "w3"]


@st.composite
def gen_specs(draw) -> GenSpec:
    lo = draw(st.integers(1, 12))
    hi = draw(st.integers(lo, lo + 30))
    return GenSpec(
        sentence_count=draw(st.integers(1, 20)),
        words=draw(st.sampled_from([lo, (lo, hi)])),
        language_count=draw(st.integers(1, min(4, lo))),
        arrangement=draw(st.sampled_from(Arrangement)),
        undefined_ratio=draw(st.floats(0.0, 1.0, exclude_max=True)),
        seed=draw(st.integers(0, (1 << 64) - 1)),
    )


@settings(max_examples=200, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(gen_specs())
def test_generate_cli_prints_the_generated_corpus(capsys, spec):
    lo, hi = spec.word_range
    words = str(lo) if isinstance(spec.words, int) else f"{lo}:{hi}"
    argv = ["generate", "--sentences", str(spec.sentence_count), "--words", words,
            "--languages", str(spec.language_count), "--arrangement", spec.arrangement.value,
            "--undefined-ratio", repr(spec.undefined_ratio), "--seed", str(spec.seed)]
    assert main(argv) == 0
    corpus = generate(spec)
    assert capsys.readouterr().out == write_corpus(corpus, CorpusFormat.COLUMN)
    assert corpus.name == "synthetic"


@settings(max_examples=300)
@given(gen_specs())
def test_column_text_matches_the_per_token_oracle(spec):
    texts = list(_column_text(spec))
    text = "".join(texts)
    assert text == naive_column_text(spec)
    corpus = generate(spec)
    assert repr(corpus) == repr(parse_column_format(text, name="synthetic"))
    # ALTERNATING and BLOCKED build one text, and one Sentence, per length; RANDOM builds every sentence anew.
    distinct = len(texts) if spec.arrangement is Arrangement.RANDOM else len({t.count("\n") for t in texts})
    assert len({id(t) for t in texts}) == len({id(s) for s in corpus.sentences}) == distinct


def test_generate_tells_apart_lengths_whose_texts_are_the_same_size():
    # With 10 blocked languages, the 170- and 171-token texts both hold 1268 characters: a longer
    # sentence has larger blocks, so fewer four-character "L10" ends.
    spec = GenSpec(400, (10, 200), 10, Arrangement.BLOCKED, 0.0, 1)
    assert generate(spec) == parse_column_format("".join(_column_text(spec)))


def test_a_text_beyond_the_table_budget_is_built_again(monkeypatch):
    spec = GenSpec(60, (2, 9), 2, Arrangement.BLOCKED, 0.3, 13)
    monkeypatch.setattr(synth, "_TABLE_BUDGET", 30)  # room for the first text, of 3 tokens, and no more
    texts = list(_column_text(spec))
    assert "".join(texts) == naive_column_text(spec)
    assert len({id(t) for t in texts}) == len(texts) - texts[1:].count(texts[0])


class TestEnumerateSmall:
    def test_single_length_single_tag(self):
        sentences = list(enumerate_small(1, [LanguageTag.language("L1")]))
        assert len(sentences) == 1

    def test_two_by_two(self):
        alphabet = [LanguageTag.language("L1"), LanguageTag.language("L2")]
        assert len(list(enumerate_small(2, alphabet))) == 6  # 2 + 4

    def test_full_oracle_alphabet_count(self):
        alphabet = [LanguageTag.language(c) for c in ("L1", "L2", "L3")] + [LanguageTag.undefined()]
        assert sum(1 for _ in enumerate_small(6, alphabet)) == 5460  # sum of 4^k, k=1..6

    def test_lexicographic_order(self):
        alphabet = [LanguageTag.language("L1"), LanguageTag.language("L2")]
        first_four = [codes_of(s) for s in list(enumerate_small(2, alphabet))[:4]]
        assert first_four == [["L1"], ["L2"], ["L1", "L1"], ["L1", "L2"]]

    def test_guard(self):
        with pytest.raises(ValueError):
            next(enumerate_small(9, [LanguageTag.language("L1")]))


class TestRng:
    def test_stream_is_deterministic(self):
        a = _xoshiro_outputs(123)
        b = _xoshiro_outputs(123)
        assert [next(a) for _ in range(8)] == [next(b) for _ in range(8)]

    def test_outputs_fit_in_64_bits(self):
        outputs = _xoshiro_outputs(5)
        for _ in range(100):
            assert 0 <= next(outputs) < (1 << 64)

    def test_below_is_in_range_and_hits_all_values(self):
        outputs = _xoshiro_outputs(2024)
        draws = [_below(outputs, 5) for _ in range(500)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            _below(_xoshiro_outputs(0), 0)

    def test_below_rejects_a_bound_no_64_bit_draw_can_meet(self):
        # A bound above 2**64 once left no draw under the rejection threshold, and _below() never returned.
        with pytest.raises(ValueError, match=r"^bound 18446744073709551617 exceeds 2\*\*64$"):
            _below(_xoshiro_outputs(0), 2**64 + 1)
        assert 0 <= _below(_xoshiro_outputs(0), 2**64) < 2**64

    def test_frozen_reference_stream(self):
        # Pinned so accidental algorithm changes are caught; the generated
        # corpus fixtures depend on this exact stream.
        outputs = _xoshiro_outputs(42)
        assert [next(outputs) for _ in range(3)] == [
            1546998764402558742,
            6990951692964543102,
            12544586762248559009,
        ]
        for seed, output in ((0, 9098089192077192179), (42, 17210000535395598761), (2**64 - 1, 15683018422313792818)):
            outputs = _xoshiro_outputs(seed)
            assert [next(outputs) for _ in range(10_000)][-1] == output, seed
        outputs = _xoshiro_outputs(3)
        assert [_below(outputs, 3) for _ in range(50)] == [
            2, 1, 2, 1, 2, 2, 2, 2, 2, 2, 0, 1, 2, 0, 2, 0, 1, 0, 1, 1, 2, 0, 2, 2, 0,
            0, 1, 1, 0, 1, 0, 0, 1, 0, 1, 1, 2, 1, 0, 0, 1, 1, 2, 0, 2, 1, 2, 1, 1, 1,
        ]
        outputs = _xoshiro_outputs(3)
        assert [_below(outputs, 27) for _ in range(50)] == [
            2, 1, 5, 1, 17, 20, 5, 11, 2, 2, 6, 4, 14, 18, 20, 21, 13, 21, 4, 10, 11, 0, 11, 2, 12,
            3, 16, 7, 6, 7, 24, 6, 10, 24, 25, 4, 26, 16, 24, 15, 19, 22, 11, 15, 17, 1, 26, 1, 22, 16,
        ]
