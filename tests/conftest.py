from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from codemix import Corpus, LanguageTag, Sentence, UndefinedReason

sys.path.insert(0, str(Path(__file__).parent))  # makes naive_oracle importable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_sentence(codes: list[str | None]) -> Sentence:
    """Sentence from a plain tag list; None means an undefined (UN) token.

    Its position is not part of it: a corpus gives each sentence its place.
    """
    tags = tuple(
        LanguageTag.undefined(UndefinedReason.UNIVERSAL) if code is None else LanguageTag.language(code)
        for code in codes
    )
    return Sentence(surfaces=tuple(f"w{i}" for i in range(len(tags))), tags=tags)


def sentence_codes(sentence: Sentence) -> list[str | None]:
    return [tag.code for tag in sentence.tags]


def make_corpus(tag_lists: list[list[str | None]], name: str = "test") -> Corpus:
    return Corpus(name=name, sentences=tuple(make_sentence(codes) for codes in tag_lists))


def signature_corpus() -> Corpus:
    """More than stats._MEMO_SIZE sentences, each with its own signature, then 100 repeats from each end.

    A sentence has t tagged tokens, whose first S + 1 alternate L1 and L2, then u undefined ones.
    """
    tag_lists = []
    for undefined in range(10):
        for tagged in range(1, 31):
            for switches in range(tagged):
                codes = [("L1", "L2")[i % 2] for i in range(switches + 1)]
                tag_lists.append(codes + codes[-1:] * (tagged - switches - 1) + [None] * undefined)
    return make_corpus(tag_lists + tag_lists[:100] + tag_lists[-100:])


def enumerate_small(max_words: int, alphabet: Sequence[LanguageTag]) -> Iterator[Sentence]:
    """Every tag sequence of length 1..max_words over the alphabet, lexicographically.

    Guarded at max_words <= 8: the stream has sum(len(alphabet)**k) members.
    """
    if max_words > 8:
        raise ValueError("enumerate_small is capped at max_words <= 8")
    if max_words < 1:
        raise ValueError("max_words must be >= 1")
    if not alphabet:
        raise ValueError("alphabet must be non-empty")
    for length in range(1, max_words + 1):
        for combo in itertools.product(alphabet, repeat=length):
            yield Sentence(surfaces=tuple(f"w{i}" for i in range(length)), tags=combo)


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
