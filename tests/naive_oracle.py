"""Independent straight-from-the-definition recount of every index.

Deliberately written in a different style from the library (filter + Counter
+ direct formula transcription) so both sides can be compared bit-for-bit.
Input is a plain tag list: language codes as strings, None for undefined.
naive_column_text writes `codemix generate`'s text one token at a time, with
its own copy of the xoshiro256** generator, drawn one method call per number.
"""

from __future__ import annotations

import math
from collections import Counter

_MASK64 = (1 << 64) - 1


class NaiveXoshiro:
    """xoshiro256** with splitmix64 seeding: the four state words in a list, updated one call at a time."""

    def __init__(self, seed: int):
        state = seed & _MASK64
        self.s = []
        for _ in range(4):
            state = (state + 0x9E3779B97F4A7C15) & _MASK64
            z = ((state ^ (state >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
            z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
            self.s.append(z ^ (z >> 31))

    def next_u64(self) -> int:
        s = self.s
        x = (s[1] * 5) & _MASK64
        result = ((((x << 7) | (x >> 57)) & _MASK64) * 9) & _MASK64
        t = (s[1] << 17) & _MASK64
        s[2] ^= s[0]
        s[3] ^= s[1]
        s[1] ^= s[2]
        s[0] ^= s[3]
        s[2] ^= t
        s[3] = ((s[3] << 45) | (s[3] >> 19)) & _MASK64
        return result

    def below(self, bound: int) -> int:
        """Uniform in [0, bound): draws at or above the largest multiple of bound are rejected."""
        limit = (1 << 64) - (1 << 64) % bound
        draw = self.next_u64()
        while draw >= limit:
            draw = self.next_u64()
        return draw % bound


def naive_counts(tags: list[str | None]) -> dict:
    total = len(tags)
    language_sequence = [t for t in tags if t is not None]
    frequency = Counter(language_sequence)
    return {
        "W": total,
        "u": total - len(language_sequence),
        "Wprime": len(language_sequence),
        "per_language": dict(frequency),
        "N": len(frequency),
        "max_w": max(frequency.values()) if frequency else 0,
        "S": sum(1 for a, b in zip(language_sequence, language_sequence[1:]) if a != b),
    }


def naive_metrics(tags: list[str | None], mix_weight: float = 50.0, switch_weight: float = 50.0) -> dict:
    c = naive_counts(tags)
    total, tagged, distinct, max_w, switches = c["W"], c["Wprime"], c["N"], c["max_w"], c["S"]
    lf = total / distinct if distinct > 0 else 0.0
    sf = switches / (total - 1) if total > 1 else 0.0
    mf = (tagged - max_w) / tagged if tagged > 0 else 0.0
    cmi = 100.0 * (1.0 - max_w / tagged) if tagged > 0 else 0.0
    if distinct <= 1:
        cf1 = cf2 = cf3 = 0.0
    else:
        numerator = mix_weight * mf + switch_weight * sf
        cf1 = numerator / lf
        cf2 = numerator / ((0.25 / (total - 1)) * (lf - 1.0) + 1.0)
        cf3 = numerator / (math.atan(lf) / math.pi + 0.75)
    return {**c, "lf": lf, "sf": sf, "mf": mf, "cmi": cmi, "cf1": cf1, "cf2": cf2, "cf3": cf3}


def naive_column_text(spec) -> str:
    """The COLUMN text of a GenSpec, one f-string per token, drawing lengths and RANDOM tags in sentence order."""
    rng = NaiveXoshiro(spec.seed)
    lo, hi = spec.word_range
    languages = spec.language_count
    lines = []
    for _ in range(spec.sentence_count):
        total = lo if lo == hi else lo + rng.below(hi - lo + 1)
        undefined = min(int(spec.undefined_ratio * total + 1e-9), total - 1)
        holes = {((i + 1) * total) // (undefined + 1) for i in range(undefined)}
        tagged = total - undefined
        if spec.arrangement.value == "alternating":
            pattern = [i % languages for i in range(tagged)]
        elif spec.arrangement.value == "blocked":
            block = (tagged + languages - 1) // languages
            pattern = [min(i // block, languages - 1) for i in range(tagged)]
        else:
            pattern = [rng.below(languages) for _ in range(tagged)]
        codes = iter(pattern)
        for position in range(total):
            lines.append(f"w{position}\t{'UN' if position in holes else f'L{next(codes) + 1}'}\n")
        lines.append("\n")
    return "".join(lines)
