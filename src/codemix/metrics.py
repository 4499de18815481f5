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
from collections import namedtuple
from collections.abc import Iterable, Sequence

from .model import LanguageTag, Sentence


class MetricConfig(namedtuple("MetricConfig", ("mix_weight", "switch_weight"))):
    """Weights for the mix and switch terms of every CF, stored as floats."""

    __slots__ = ()

    def __new__(cls, mix_weight: float = 50.0, switch_weight: float = 50.0) -> MetricConfig:
        for weight in (mix_weight, switch_weight):
            if isinstance(weight, (str, bytes, bytearray)):  # float() would parse it
                raise TypeError(f"weights must be numbers, not {weight!r}")
        mix_weight, switch_weight = float(mix_weight) + 0.0, float(switch_weight) + 0.0  # + 0.0 turns -0.0 into 0.0
        # A finite sum also keeps every CF finite: CF <= a + b, as MF, SF <= 1 <= f(LF).
        if not math.isfinite(mix_weight + switch_weight):
            raise ValueError("weights and their sum must be finite")
        if mix_weight < 0 or switch_weight < 0:
            raise ValueError("weights must be non-negative")
        if mix_weight + switch_weight <= 0:
            raise ValueError("weights must not sum to zero")
        return super().__new__(cls, mix_weight, switch_weight)

    @classmethod
    def _make(cls, fields: Iterable[float]) -> MetricConfig:
        return cls(*fields)  # so that _replace checks too


DEFAULT_CONFIG = MetricConfig()


class SentenceCounts(namedtuple("SentenceCounts", (
    "total_tokens", "undefined_tokens", "tagged_tokens", "language_count", "dominant_count", "switch_count"
))):
    """Counting summary of one sentence; input to every index formula.

    total_tokens is W, undefined tokens included; undefined_tokens is u; tagged_tokens is W' = W - u;
    language_count is N, the distinct languages with a nonzero count; dominant_count is the largest
    per-language count, 0 when no language is present; switch_count is S, the switches over the
    language-bearing subsequence.

    The counts are the sentence's signature: every index is a function of
    them, so equal counts are equal, hashable values with equal metrics.
    A counter (_count_tags, or a scanner with count=True) hands on only a
    sentence's tally, (W, u, S, {code: count}), and knows none of these
    fields; the rest follow from it. A tally becomes counts in two places:
    count_sentence, and stats._fold's loop, which builds them inline, as a
    call per sentence made the CLI on short sentences 2-5% slower. The
    lengths of the language runs are not kept: no index reads them.
    """

    __slots__ = ()


class SentenceMetrics(
    namedtuple("SentenceMetrics", ("language_factor", "switching_factor", "mix_factor", "cmi", "cf1", "cf2", "cf3"))
):
    """All indices of one sentence, at full double precision."""

    __slots__ = ()


def count_sentence(sentence: Sentence) -> SentenceCounts:
    """Tally tokens, languages and switch points for one sentence."""
    total, undefined, switches, per_language = _count_tags(sentence.tags)
    dominant = max(per_language.values()) if per_language else 0
    # tuple.__new__, in field order: SentenceCounts' own __new__ is a Python-level call, with which counting a
    # sentence of a few tokens took 40% longer; these counts need no check.
    return tuple.__new__(SentenceCounts, (total, undefined, total - undefined, len(per_language), dominant, switches))


def _count_tags(tags: Sequence[LanguageTag]) -> tuple[int, int, int, dict[str, int]]:
    """The tally of one sentence's tags, in token order: W, u, S and its {code: count}."""
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
    return len(tags), undefined, switches, per_language


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
    return tuple.__new__(SentenceMetrics, (lf, sf, mf, cmi, cf1, cf2, cf3))  # as count_sentence builds its counts


def analyze_sentence(sentence: Sentence, config: MetricConfig = DEFAULT_CONFIG) -> SentenceMetrics:
    """One pass over a sentence producing LF, SF, MF, CMI and all three CF variants."""
    return metrics_from_counts(count_sentence(sentence), config)
