"""Per-sentence code-mixing indices.

Given a sentence of language-tagged tokens this module computes:

  LF  (language factor)   W / N            -- tokens per distinct language
  SF  (switching factor)  S / (W - 1)      -- realized switch points over the maximum
  MF  (mix factor)        (W' - max_w) / W'-- share of tokens outside the dominant language
  CMI                     100 * MF         -- the classic Code Mixing Index
  CF1/CF2/CF3             (a*MF + b*SF) / f(LF) for f = identity, linear, arctan

where W is the total token count (undefined tokens included), u the undefined
count, W' = W - u, N the number of distinct languages, max_w the largest
per-language count, and S the number of switch points. Undefined tokens are
transparent for switch counting: a switch is counted between the nearest
language-bearing neighbours when their codes differ.

Everything here is a pure function of its inputs and safe to call from any
number of threads.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping

from .model import LanguageTag, Sentence


class Dampening(enum.Enum):
    """Divisor applied to the weighted MF/SF sum: raw LF, or one of two squashes of it."""

    RAW_LF = "raw_lf"
    LINEAR = "linear"
    ARCTAN = "arctan"


@dataclass(frozen=True)
class MetricConfig:
    """Weights for the mix and switch terms, and the dampening used by complexity_factor."""

    mix_weight: float = 50.0
    switch_weight: float = 50.0
    dampening: Dampening = Dampening.LINEAR

    def __post_init__(self) -> None:
        # A finite sum also keeps every CF finite: CF <= a + b, as MF, SF <= 1 <= f(LF).
        if not math.isfinite(self.mix_weight + self.switch_weight):
            raise ValueError("weights and their sum must be finite")
        if self.mix_weight < 0 or self.switch_weight < 0:
            raise ValueError("weights must be non-negative")
        if self.mix_weight + self.switch_weight <= 0:
            raise ValueError("weights must not sum to zero")


DEFAULT_CONFIG = MetricConfig()


@dataclass(frozen=True)
class SentenceCounts:
    """Counting summary of one sentence; input to every index formula."""

    total_tokens: int  # W, undefined tokens included
    undefined_tokens: int  # u
    tagged_tokens: int  # W' = W - u
    per_language: Mapping[str, int]
    language_count: int  # N, distinct languages with a nonzero count
    dominant_count: int  # max over per_language, 0 when no language present
    switch_count: int  # S, switches over the language-bearing subsequence

    def __post_init__(self) -> None:
        object.__setattr__(self, "per_language", MappingProxyType(dict(self.per_language)))


@dataclass(frozen=True)
class SentenceMetrics:
    """All indices of one sentence, at full double precision."""

    language_factor: float
    switching_factor: float
    mix_factor: float
    cmi: float
    cf1: float
    cf2: float
    cf3: float


def count_sentence(sentence: Sentence) -> SentenceCounts:
    """Tally tokens, per-language counts and switch points for one sentence."""
    return _count_tags([token.tag for token in sentence.tokens])


def _count_tags(tags: list[LanguageTag]) -> SentenceCounts:
    """The counting summary of one sentence's tags, in token order."""
    per_language: dict[str, int] = {}
    undefined = 0
    switches = 0
    previous_code: str | None = None
    for tag in tags:
        code = tag.code
        if code is None:
            undefined += 1
            continue
        per_language[code] = per_language.get(code, 0) + 1
        if code != previous_code and previous_code is not None:
            switches += 1
        previous_code = code
    total = len(tags)
    return SentenceCounts(
        total_tokens=total,
        undefined_tokens=undefined,
        tagged_tokens=total - undefined,
        per_language=per_language,
        language_count=len(per_language),
        dominant_count=max(per_language.values(), default=0),
        switch_count=switches,
    )


def language_factor(counts: SentenceCounts) -> float:
    """W / N; 0 for a sentence with no language-bearing token."""
    if counts.language_count == 0:
        return 0.0
    return counts.total_tokens / counts.language_count


def switching_factor(counts: SentenceCounts) -> float:
    """S / (W - 1); 0 for a single-token sentence."""
    if counts.total_tokens <= 1:
        return 0.0
    return counts.switch_count / (counts.total_tokens - 1)


def mix_factor(counts: SentenceCounts) -> float:
    """(W' - max_w) / W'; 0 when no language-bearing token exists."""
    if counts.tagged_tokens == 0:
        return 0.0
    return (counts.tagged_tokens - counts.dominant_count) / counts.tagged_tokens


def cmi(counts: SentenceCounts) -> float:
    """Code Mixing Index: 100 * (1 - max_w / W'); 0 when every token is undefined."""
    if counts.tagged_tokens == 0:
        return 0.0
    return 100.0 * (1.0 - counts.dominant_count / counts.tagged_tokens)


def dampening_divisor(lf: float, total_tokens: int, kind: Dampening) -> float:
    """The f(LF) divisor for a given dampening.

    LINEAR interpolates so that lf=1 maps to 1 and lf=W maps to 1.25; it is
    undefined for single-token sentences (division by W-1) and rejected there.
    ARCTAN is arctan(lf)/pi + 0.75, which also maps lf=1 to exactly 1. Both
    squashes stay within [1, 1.25] for the whole admissible range lf in [1, W].
    """
    if kind is Dampening.RAW_LF:
        return lf
    if kind is Dampening.LINEAR:
        if total_tokens < 2:
            raise ValueError("linear dampening is undefined for a single-token sentence")
        return (0.25 / (total_tokens - 1)) * (lf - 1.0) + 1.0
    if kind is Dampening.ARCTAN:
        return math.atan(lf) / math.pi + 0.75
    raise ValueError(f"unknown dampening: {kind!r}")


_CF_BY_DAMPENING = {Dampening.RAW_LF: "cf1", Dampening.LINEAR: "cf2", Dampening.ARCTAN: "cf3"}


def complexity_factor(counts: SentenceCounts, config: MetricConfig = DEFAULT_CONFIG) -> float:
    """(a*MF + b*SF) / f(LF) with the configured dampening.

    Monolingual and all-undefined sentences score 0: both factors in the
    numerator vanish, so the divisor is never evaluated for them. This is
    the CF1, CF2 or CF3 field of metrics_from_counts.
    """
    return getattr(metrics_from_counts(counts, config), _CF_BY_DAMPENING[config.dampening])


def metrics_from_counts(counts: SentenceCounts, config: MetricConfig = DEFAULT_CONFIG) -> SentenceMetrics:
    """Evaluate every index from one counting summary."""
    lf = language_factor(counts)
    sf = switching_factor(counts)
    mf = mix_factor(counts)
    mixing = cmi(counts)
    if counts.language_count <= 1:
        cf1 = cf2 = cf3 = 0.0
    else:
        numerator = config.mix_weight * mf + config.switch_weight * sf
        cf1 = numerator / dampening_divisor(lf, counts.total_tokens, Dampening.RAW_LF)
        cf2 = numerator / dampening_divisor(lf, counts.total_tokens, Dampening.LINEAR)
        cf3 = numerator / dampening_divisor(lf, counts.total_tokens, Dampening.ARCTAN)
    return SentenceMetrics(
        language_factor=lf,
        switching_factor=sf,
        mix_factor=mf,
        cmi=mixing,
        cf1=cf1,
        cf2=cf2,
        cf3=cf3,
    )


def analyze_sentence(sentence: Sentence, config: MetricConfig = DEFAULT_CONFIG) -> SentenceMetrics:
    """One pass over a sentence producing LF, SF, MF, CMI and all three CF variants."""
    return metrics_from_counts(count_sentence(sentence), config)
