from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from codemix import (
    Arrangement,
    CorpusFormat,
    GenSpec,
    LanguageTag,
    Xoshiro256StarStar,
    analyze_sentence,
    count_sentence,
    enumerate_small,
    generate,
    write_corpus,
)
from codemix.cli import main


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
        undefined_positions = [i for i, t in enumerate(tags) if t.tag.is_undefined]
        assert len(undefined_positions) == 2  # floor(0.25 * 10)
        assert 0 not in undefined_positions
        counts = count_sentence(corpus.sentences[0])
        assert counts.tagged_tokens == 8

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
    assert corpus.tag_registry == {f"L{i}" for i in range(1, spec.language_count + 1)}
    assert corpus.name == "synthetic"


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
        a = Xoshiro256StarStar(123)
        b = Xoshiro256StarStar(123)
        assert [a.next_u64() for _ in range(8)] == [b.next_u64() for _ in range(8)]

    def test_outputs_fit_in_64_bits(self):
        rng = Xoshiro256StarStar(5)
        for _ in range(100):
            assert 0 <= rng.next_u64() < (1 << 64)

    def test_below_is_in_range_and_hits_all_values(self):
        rng = Xoshiro256StarStar(2024)
        draws = [rng.below(5) for _ in range(500)]
        assert set(draws) == {0, 1, 2, 3, 4}

    def test_below_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Xoshiro256StarStar(0).below(0)

    def test_frozen_reference_stream(self):
        # Pinned so accidental algorithm changes are caught; the generated
        # corpus fixtures depend on this exact stream.
        rng = Xoshiro256StarStar(42)
        assert [rng.next_u64() for _ in range(3)] == [
            1546998764402558742,
            6990951692964543102,
            12544586762248559009,
        ]
