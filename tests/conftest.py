from __future__ import annotations

import itertools
import sys
from pathlib import Path
from typing import Iterator, Sequence

import pytest

from codemix import Corpus, LanguageTag, Sentence, Token, UndefinedReason

sys.path.insert(0, str(Path(__file__).parent))  # makes naive_oracle importable

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def make_sentence(codes: list[str | None], index: int = 0) -> Sentence:
    """Sentence from a plain tag list; None means an undefined (UN) token."""
    tokens = []
    for i, code in enumerate(codes):
        tag = LanguageTag.undefined(UndefinedReason.UNIVERSAL) if code is None else LanguageTag.language(code)
        tokens.append(Token(surface=f"w{i}", tag=tag))
    return Sentence(index=index, tokens=tuple(tokens))


def sentence_codes(sentence: Sentence) -> list[str | None]:
    return [t.tag.code for t in sentence.tokens]


def make_corpus(tag_lists: list[list[str | None]], name: str = "test") -> Corpus:
    sentences = tuple(make_sentence(codes, index=i) for i, codes in enumerate(tag_lists))
    return Corpus(name=name, sentences=sentences)


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
    index = 0
    for length in range(1, max_words + 1):
        for combo in itertools.product(alphabet, repeat=length):
            tokens = tuple(Token(surface=f"w{i}", tag=tag) for i, tag in enumerate(combo))
            yield Sentence(index=index, tokens=tokens)
            index += 1


@pytest.fixture
def fixtures_dir() -> Path:
    return FIXTURES
