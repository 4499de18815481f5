"""Deterministic synthetic corpora for tests, oracles and benchmarks.

Sentences are built from languages L1..LN with surfaces "w0", "w1", ... and
three token arrangements:

  ALTERNATING -- L1 L2 .. LN L1 L2 .. round-robin (maximal switching)
  BLOCKED     -- contiguous blocks of ceil(W'/N) tokens per language
  RANDOM      -- each slot drawn uniformly from the N languages

Undefined (UN) tokens are inserted at evenly spaced interior positions to
meet the requested ratio: u = floor(ratio * W + 1e-9), capped at W - 1 so
every sentence keeps a language, with positions floor((i+1) * W / (u+1)).
The 1e-9 keeps a product such as 0.58 * 50 = 28.999999999999996 from losing
an undefined token to rounding.

ALTERNATING and BLOCKED draw only each sentence's length, so a sentence's
text depends only on its length: it is built once per length and reused.
RANDOM also draws each tagged slot's language.

generate() is parse_column_format of the COLUMN text `codemix generate`
prints, named "synthetic". Codes L<n> are languages under every TagPolicy,
and UN an undefined alias, so the default policy reads that text.

Randomness comes from xoshiro256** seeded with splitmix64, so the exact
output stream is reproducible from the seed alone, independent of the host
RNG. Uniform draws below a bound use rejection sampling (no modulo bias).
The stream is one generator that keeps the four state words in its locals;
_below draws a sentence's length from it, and RANDOM takes a sentence's
tags from it in one islice of the draws under the rejection threshold.

This module imports corpus_io and model only inside generate(), so
`codemix generate`, which prints text, loads neither.
"""

from __future__ import annotations

import enum
import itertools
import sys
from collections import namedtuple
from collections.abc import Iterable, Iterator

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _xoshiro_outputs(seed: int) -> Iterator[int]:
    """The endless xoshiro256** output stream of a seed, its four state words expanded by splitmix64.

    The state lives in this generator's locals, so a draw costs one resume and no attribute or list traffic.
    The output's rotation needs no mask of its own: times 9, its bits at 2**64 and above stay there, for the last mask.
    """
    state = seed & _MASK64
    words = []
    for _ in range(4):
        state, out = _splitmix64(state)
        words.append(out)
    s0, s1, s2, s3 = words
    mask = _MASK64
    while True:
        x = s1 * 5 & mask
        yield (x << 7 | x >> 57) * 9 & mask
        t = s1 << 17 & mask
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = (s3 << 45 | s3 >> 19) & mask


def _threshold(bound: int) -> int:
    """The largest multiple of bound up to 2**64: a draw below it, mod bound, is uniform in [0, bound)."""
    if bound <= 0:
        raise ValueError("bound must be positive")
    if bound > 1 << 64:  # no 64-bit draw could be accepted
        raise ValueError(f"bound {bound} exceeds 2**64")
    return (1 << 64) - ((1 << 64) % bound)


def _below(outputs: Iterator[int], bound: int) -> int:
    """A uniform integer in [0, bound), for 0 < bound <= 2**64, from the draws of a stream."""
    return next(filter(_threshold(bound).__gt__, outputs)) % bound


class Arrangement(enum.Enum):
    ALTERNATING = "alternating"
    BLOCKED = "blocked"
    RANDOM = "random"


class GenSpec(
    namedtuple("GenSpec", ("sentence_count", "words", "language_count", "arrangement", "undefined_ratio", "seed"))
):
    """Recipe for a synthetic corpus; equal specs generate identical corpora.

    words is the number of tokens per sentence: an int, or an inclusive (min, max) range.
    sentence_count, words, language_count and seed are ints, arrangement an
    Arrangement and undefined_ratio an int or a float; any other type is a TypeError.
    """

    __slots__ = ()

    def __new__(
        cls,
        sentence_count: int,
        words: int | tuple[int, int],
        language_count: int,
        arrangement: Arrangement = Arrangement.ALTERNATING,
        undefined_ratio: float = 0.0,
        seed: int = 0,
    ) -> GenSpec:
        spec = super().__new__(cls, sentence_count, words, language_count, arrangement, undefined_ratio, seed)
        for field, value in (("sentence_count", sentence_count), ("language_count", language_count), ("seed", seed)):
            if not isinstance(value, int):
                raise TypeError(f"{field} must be an int, not {value!r}")
        if not isinstance(arrangement, Arrangement):
            raise TypeError(f"arrangement must be an Arrangement, not {arrangement!r}")
        if not isinstance(undefined_ratio, (int, float)):
            raise TypeError(f"undefined_ratio must be a number, not {undefined_ratio!r}")
        bounds = spec.word_range
        if len(bounds) != 2 or not all(isinstance(bound, int) for bound in bounds):
            raise TypeError(f"words must be an int or a (min, max) pair of ints, not {words!r}")
        lo, hi = bounds
        if sentence_count < 1:
            raise ValueError("sentence_count must be >= 1")
        if lo < 1 or hi < lo:
            raise ValueError(f"invalid words range: {words!r}")
        if hi > sys.maxsize:  # no list index reaches a longer sentence
            raise ValueError(f"words maximum {hi} exceeds sys.maxsize")
        if language_count < 1:
            raise ValueError("language_count must be >= 1")
        if language_count > lo:
            raise ValueError(f"language_count {language_count} exceeds minimum sentence length {lo}")
        if not 0.0 <= undefined_ratio < 1.0:
            raise ValueError("undefined_ratio must lie in [0, 1)")
        return spec

    @classmethod
    def _make(cls, fields: Iterable) -> GenSpec:
        return cls(*fields)  # so that _replace checks too

    @property
    def word_range(self) -> tuple[int, int]:
        return self.words if isinstance(self.words, tuple) else (self.words, self.words)


def _undefined_positions(total: int, count: int) -> set[int]:
    return {((i + 1) * total) // (count + 1) for i in range(count)}


def _language_pattern(tagged: int, languages: int, arrangement: Arrangement, outputs: Iterator[int]) -> list[int]:
    if arrangement is Arrangement.ALTERNATING:
        return [i % languages for i in range(tagged)]
    if arrangement is Arrangement.BLOCKED:
        block = -(-tagged // languages)  # ceil
        return [min(i // block, languages - 1) for i in range(tagged)]
    # _below(outputs, languages) per tag, the threshold worked out once
    draws = itertools.islice(filter(_threshold(languages).__gt__, outputs), tagged)
    return [draw % languages for draw in draws]


# Characters of finished text that _column_text keeps for reuse. A wide range of long
# sentences would otherwise hold about as much text as it prints.
_TABLE_BUDGET = 1 << 20


def _column_text(spec: GenSpec) -> Iterator[str]:
    """The COLUMN text of the sentences a spec describes, one sentence at a time, drawn in one pass.

    A text is one join of a head "w<p><TAB>" per position and an end "<tag><LF>" per
    token, laid out by slice assignment. Under ALTERNATING and BLOCKED, each length's text is
    built once and yielded again, as the same object, for a repeat, while the table stays
    within _TABLE_BUDGET.
    """
    outputs = _xoshiro_outputs(spec.seed)
    lo, hi = spec.word_range
    ends = [f"L{i + 1}\n" for i in range(spec.language_count)]
    heads: list[str] = []  # grown to the longest sentence drawn so far, not to hi
    texts: dict[int, str] = {}  # one per length; RANDOM draws each tag, so it keeps none
    budget = 0 if spec.arrangement is Arrangement.RANDOM else _TABLE_BUDGET
    for _ in range(spec.sentence_count):
        total = lo if lo == hi else lo + _below(outputs, hi - lo + 1)
        if total in texts:
            yield texts[total]
            continue
        if len(heads) < total:
            heads.extend([f"w{position}\t" for position in range(len(heads), total)])
        u = min(int(spec.undefined_ratio * total + 1e-9), total - 1)
        line_ends = [ends[i] for i in _language_pattern(total - u, spec.language_count, spec.arrangement, outputs)]
        if u:  # one pass, O(total): an insert per hole is quadratic, and a slice per run of tags slower at high ratios
            holes, tag = _undefined_positions(total, u), iter(line_ends).__next__
            line_ends = ["UN\n" if position in holes else tag() for position in range(total)]
        parts = [""] * (2 * total + 1)
        parts[0:-1:2] = heads[:total]
        parts[1::2] = line_ends
        parts[-1] = "\n"
        text = "".join(parts)
        if len(text) <= budget:
            texts[total] = text
            budget -= len(text)
        yield text


def generate(spec: GenSpec) -> Corpus:
    """The corpus a spec describes, parsed from its COLUMN text; deterministic for a fixed seed.

    Each sentence's text, which ends in an LF, is scanned on its own, unless it equals
    the last text of its size in characters: then that text's Sentence is reused. At
    most one text per size is kept, and the whole text is never held at once.
    """
    from .corpus_io import DEFAULT_POLICY, _scan_column, _Tags  # here, so `codemix generate` loads neither
    from .model import Corpus, Sentence

    tags = _Tags(DEFAULT_POLICY)
    last: dict[int, tuple[str, Sentence]] = {}  # by len(text): the last text of that size and its Sentence

    def sentence(text: str) -> Sentence:
        seen = last.get(len(text))
        if seen is None or seen[0] != text:  # str == tests identity first, so _column_text's repeats cost no compare
            ((surfaces, sentence_tags),) = _scan_column(text.split("\n")[:-1], tags, "synthetic")
            seen = last[len(text)] = text, Sentence._checked(surfaces, sentence_tags)
        return seen[1]

    return Corpus(name="synthetic", sentences=map(sentence, _column_text(spec)))
