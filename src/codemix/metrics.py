"""Per-sentence code-mixing indices.

Given a sentence of language-tagged tokens this module computes:

  LF  (language factor)   W / N            -- tokens per distinct language
  SF  (switching factor)  S / (W - 1)      -- realized switch points over the maximum
  MF  (mix factor)        (W' - max_w) / W'-- share of tokens outside the dominant language
  CMI                     100 * (1 - max_w / W') -- the classic Code Mixing Index
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

import math
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Sequence

from .model import LanguageTag, Sentence


@dataclass(frozen=True)
class MetricConfig:
    """Weights for the mix and switch terms of every CF."""

    mix_weight: float = 50.0
    switch_weight: float = 50.0

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
    """Counting summary of one sentence; input to every index formula.

    per_language is stored as given; count_sentence passes a read-only view.
    """

    total_tokens: int  # W, undefined tokens included
    undefined_tokens: int  # u
    tagged_tokens: int  # W' = W - u
    per_language: Mapping[str, int]
    language_count: int  # N, distinct languages with a nonzero count
    dominant_count: int  # max over per_language, 0 when no language present
    switch_count: int  # S, switches over the language-bearing subsequence

    __hash__ = None  # per_language is a mapping, which has no hash


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
    return _count_tags(sentence.tags)


def _count_tags(tags: Sequence[LanguageTag]) -> SentenceCounts:
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
        per_language=MappingProxyType(per_language),
        language_count=len(per_language),
        dominant_count=max(per_language.values(), default=0),
        switch_count=switches,
    )


def _linear_divisor(lf: float, total_tokens: int) -> float:
    """CF2's f(LF): linear from f(1) = 1 to f(W) = 1.25; needs W >= 2."""
    return (0.25 / (total_tokens - 1)) * (lf - 1.0) + 1.0


def _arctan_divisor(lf: float) -> float:
    """CF3's f(LF): arctan(LF) / pi + 0.75, exactly 1 at LF = 1 and below 1.25 for every LF."""
    return math.atan(lf) / math.pi + 0.75


def metrics_from_counts(counts: SentenceCounts, config: MetricConfig = DEFAULT_CONFIG) -> SentenceMetrics:
    """Evaluate every index from one counting summary.

    Zero guards: LF is 0 when N = 0, SF is 0 when W <= 1, and MF and CMI are
    0 when W' = 0. Monolingual and all-undefined sentences (N <= 1) score 0
    on every CF: both factors in the numerator vanish. A divisor is evaluated
    only when N >= 2, so W >= 2 there, and both squashes lie in [1, 1.25].
    """
    total = counts.total_tokens
    tagged = counts.tagged_tokens
    lf = 0.0 if counts.language_count == 0 else total / counts.language_count
    sf = 0.0 if total <= 1 else counts.switch_count / (total - 1)
    if tagged == 0:
        mf = cmi = 0.0
    else:
        mf = (tagged - counts.dominant_count) / tagged
        cmi = 100.0 * (1.0 - counts.dominant_count / tagged)
    if counts.language_count <= 1:
        cf1 = cf2 = cf3 = 0.0
    else:
        numerator = config.mix_weight * mf + config.switch_weight * sf
        cf1 = numerator / lf
        cf2 = numerator / _linear_divisor(lf, total)
        cf3 = numerator / _arctan_divisor(lf)
    return SentenceMetrics(
        language_factor=lf,
        switching_factor=sf,
        mix_factor=mf,
        cmi=cmi,
        cf1=cf1,
        cf2=cf2,
        cf3=cf3,
    )


def analyze_sentence(sentence: Sentence, config: MetricConfig = DEFAULT_CONFIG) -> SentenceMetrics:
    """One pass over a sentence producing LF, SF, MF, CMI and all three CF variants."""
    return metrics_from_counts(count_sentence(sentence), config)
