"""Deterministic synthetic corpora for tests, oracles and benchmarks.

Sentences are built from languages L1..LN with surfaces "w0", "w1", ... and
three token arrangements:

  ALTERNATING -- L1 L2 .. LN L1 L2 .. round-robin (maximal switching)
  BLOCKED     -- contiguous blocks of ceil(W'/N) tokens per language
  RANDOM      -- each slot drawn uniformly from the N languages

Undefined (UN) tokens are inserted at evenly spaced interior positions to
meet the requested ratio: u = floor(ratio * W) with positions
floor((i+1) * W / (u+1)).

generate() is parse_column_format of the COLUMN text `codemix generate`
prints, named "synthetic", with registry L1..LN.

Randomness comes from xoshiro256** seeded with splitmix64, so the exact
output stream is reproducible from the seed alone, independent of the host
RNG. Uniform draws below a bound use rejection sampling (no modulo bias).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Iterator, Sequence

from .corpus_io import TagPolicy, parse_column_format
from .model import Corpus, LanguageTag, Sentence, Token

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


class Xoshiro256StarStar:
    """xoshiro256** with splitmix64 state expansion from a 64-bit seed."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        s = []
        for _ in range(4):
            state, out = _splitmix64(state)
            s.append(out)
        self._s = s

    def next_u64(self) -> int:
        s0, s1, s2, s3 = self._s
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s = [s0, s1, s2, s3]
        return result

    def below(self, bound: int) -> int:
        """Uniform integer in [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        threshold = (1 << 64) - ((1 << 64) % bound)
        while True:
            draw = self.next_u64()
            if draw < threshold:
                return draw % bound


class Arrangement(enum.Enum):
    ALTERNATING = "alternating"
    BLOCKED = "blocked"
    RANDOM = "random"


@dataclass(frozen=True)
class GenSpec:
    """Recipe for a synthetic corpus; equal specs generate identical corpora."""

    sentence_count: int
    words: int | tuple[int, int]  # tokens per sentence, fixed or inclusive range
    language_count: int
    arrangement: Arrangement = Arrangement.ALTERNATING
    undefined_ratio: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.sentence_count < 1:
            raise ValueError("sentence_count must be >= 1")
        lo, hi = self.word_range
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid words range: {self.words!r}")
        if self.language_count < 1:
            raise ValueError("language_count must be >= 1")
        if self.language_count > lo:
            raise ValueError(f"language_count {self.language_count} exceeds minimum sentence length {lo}")
        if not 0.0 <= self.undefined_ratio < 1.0:
            raise ValueError("undefined_ratio must lie in [0, 1)")

    @property
    def word_range(self) -> tuple[int, int]:
        if isinstance(self.words, int):
            return self.words, self.words
        return self.words


def _undefined_positions(total: int, count: int) -> set[int]:
    return {((i + 1) * total) // (count + 1) for i in range(count)}


def _language_pattern(tagged: int, languages: int, arrangement: Arrangement, rng: Xoshiro256StarStar) -> list[int]:
    if arrangement is Arrangement.ALTERNATING:
        return [i % languages for i in range(tagged)]
    if arrangement is Arrangement.BLOCKED:
        block = -(-tagged // languages)  # ceil
        return [min(i // block, languages - 1) for i in range(tagged)]
    return [rng.below(languages) for _ in range(tagged)]


def _column_text(spec: GenSpec) -> str:
    """The COLUMN text of the sentences a spec describes, drawn in one pass."""
    rng = Xoshiro256StarStar(spec.seed)
    lo, hi = spec.word_range
    codes = [f"L{i + 1}" for i in range(spec.language_count)]
    lines = []
    for _ in range(spec.sentence_count):
        total = lo if lo == hi else lo + rng.below(hi - lo + 1)
        u = int(spec.undefined_ratio * total + 1e-9)
        holes = _undefined_positions(total, u)
        pattern = iter(_language_pattern(total - u, spec.language_count, spec.arrangement, rng))
        for position in range(total):
            lines.append(f"w{position}\t{'UN' if position in holes else codes[next(pattern)]}\n")
        lines.append("\n")
    return "".join(lines)


def generate(spec: GenSpec) -> Corpus:
    """The corpus a spec describes, parsed from its COLUMN text; deterministic for a fixed seed."""
    policy = TagPolicy(language_codes=frozenset(f"L{i + 1}" for i in range(spec.language_count)))
    return parse_column_format(_column_text(spec), policy, name="synthetic")


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
