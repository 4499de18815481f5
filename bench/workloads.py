"""Seeded synthetic workloads, their input properties and the counts-only floor.

Each workload starts from codemix's own generate() and post-processes the
drawn corpus with its own seeded RNG (tag remapping, scripts, surfaces),
so the same seed always yields the same bytes. Run as a script, this
module is the benchmark's set-up step:

    python3 bench/workloads.py WORKLOAD SEED OUT_FILE

which imports codemix, builds the workload text and writes it to OUT_FILE.
"""

from __future__ import annotations

import random
import sys
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
UNDEFINED_ALIASES = frozenset({"UN", "UNIV", "NE", "X", "MIX", "OTHER"})


@dataclass(frozen=True)
class Workload:
    name: str
    fmt: str  # "column" or "inline": the carrier the CLI is told to read
    sentences: int
    words: tuple[int, int]
    languages: int
    arrangement: str
    undefined_ratio: float
    why: str

    def gen_args(self, seed: int) -> list[str]:
        """`codemix generate` flags for this workload's synthetic spec."""
        return [
            "--sentences", str(self.sentences),
            "--words", f"{self.words[0]}:{self.words[1]}",
            "--languages", str(self.languages),
            "--arrangement", self.arrangement,
            "--undefined-ratio", str(self.undefined_ratio),
            "--seed", str(seed),
        ]  # fmt: skip


# Sizes give about 2.5e4 tokens each, so that one CLI call takes 0.2-0.8 s and
# each operation repeats seven or more times in a 30 s run: on a shared VM
# whose CPU speed wanders, the median needs that many samples to hold
# still. Interpreter start-up is then a visible share of a CLI call, as it
# is for users with corpora of this size. generate() places
# floor(ratio * W) undefined tokens per sentence, so the ratios 0.18 and
# 0.6 give the intended shares of about 15% and 50% of all tokens.
WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "tweets_column", "column", 1_500, (4, 30), 3, "random", 0.18,
            "the paper's kind of text: EN/HI/BN in three scripts, mixed-case tags, NE/X/UN; balanced "
            "per-token and per-sentence cost, every CF formula evaluated",
        ),
        Workload(
            "long_inline", "inline", 180, (80, 200), 2, "blocked", 0.0,
            "80-200 token ASCII sentences in INLINE format with L1/L2 tags: per-token work dominates; "
            "the only INLINE parser and L<n> tag path",
        ),
        Workload(
            "short_mono", "column", 5_500, (1, 8), 1, "alternating", 0.6,
            "1-8 token monolingual sentences, about half UN: per-sentence and rendering overhead "
            "dominate; monolingual short-circuit, empty CMI-mixed set",
        ),
    )
}  # fmt: skip


# --- building the text ------------------------------------------------------

_LATIN = "abcdefghijklmnopqrstuvwxyz"
_DEVANAGARI_CONSONANTS = [chr(c) for c in range(0x0915, 0x093A)]
_DEVANAGARI_SIGNS = [chr(c) for c in range(0x093E, 0x094D)]
_BENGALI_CONSONANTS = [chr(c) for c in range(0x0995, 0x09BA) if c not in (0x09A9, 0x09B1, 0x09B3, 0x09B4, 0x09B5)]
_BENGALI_SIGNS = [chr(c) for c in (0x09BE, 0x09BF, 0x09C0, 0x09C1, 0x09C2, 0x09C3, 0x09C7, 0x09C8, 0x09CB, 0x09CC)]
_SYMBOLS = ["!", "?", "...", "#", ":)", ":-(", "\U0001f602", "❤", "@", "&"]
_UNIVERSAL = ["lol", "haha", "ok", "hmm", "2", "100", "2017", "xD"]
_VOCAB_SIZE = 400


def _latin_words(rng: random.Random, count: int, capitalize: bool = False) -> list[str]:
    words = ["".join(rng.choice(_LATIN) for _ in range(rng.randint(2, 9))) for _ in range(count)]
    return [w.capitalize() for w in words] if capitalize else words


def _syllable_words(rng: random.Random, consonants: list[str], signs: list[str], count: int) -> list[str]:
    words = []
    for _ in range(count):
        syllables = []
        for _ in range(rng.randint(1, 4)):
            syllables.append(rng.choice(consonants) + (rng.choice(signs) if rng.random() < 0.6 else ""))
        words.append("".join(syllables))
    return words


def _tweets_column(corpus, rng: random.Random) -> str:
    vocab = {
        "L1": _latin_words(rng, _VOCAB_SIZE),
        "L2": _syllable_words(rng, _DEVANAGARI_CONSONANTS, _DEVANAGARI_SIGNS, _VOCAB_SIZE),
        "L3": _syllable_words(rng, _BENGALI_CONSONANTS, _BENGALI_SIGNS, _VOCAB_SIZE),
    }
    tag_variants = {"L1": ("EN", "en", "En"), "L2": ("HI", "hi", "Hi"), "L3": ("BN", "bn", "Bn")}
    names = _latin_words(rng, _VOCAB_SIZE, capitalize=True)
    independent = (("NE", names), ("X", _SYMBOLS), ("UN", _UNIVERSAL))
    parts = []
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            code = token.tag.code
            if code is None:
                tag, pool = rng.choice(independent)
                surface = rng.choice(pool)
            else:
                tag = rng.choice(tag_variants[code])
                surface = rng.choice(vocab[code])
            parts.append(f"{surface}\t{tag}\n")
        parts.append("\n")
    return "".join(parts)


def _long_inline(corpus, rng: random.Random) -> str:
    vocab = _latin_words(rng, _VOCAB_SIZE)
    lines = []
    for sentence in corpus.sentences:
        lines.append(" ".join(f"{rng.choice(vocab)}/{t.tag.code}" for t in sentence.tokens) + "\n")
    return "".join(lines)


def _short_mono(corpus, rng: random.Random) -> str:
    vocab = _latin_words(rng, _VOCAB_SIZE)
    parts = []
    for sentence in corpus.sentences:
        for token in sentence.tokens:
            if token.tag.code is None:
                parts.append(f"{rng.choice(_UNIVERSAL)}\tUN\n")
            else:
                parts.append(f"{rng.choice(vocab)}\tEN\n")
        parts.append("\n")
    return "".join(parts)


_POST_PROCESS = {"tweets_column": _tweets_column, "long_inline": _long_inline, "short_mono": _short_mono}


def gen_spec(workload: Workload, seed: int):
    """The workload's codemix.GenSpec; needs codemix importable."""
    from codemix import Arrangement, GenSpec

    return GenSpec(
        sentence_count=workload.sentences,
        words=workload.words,
        language_count=workload.languages,
        arrangement=Arrangement(workload.arrangement),
        undefined_ratio=workload.undefined_ratio,
        seed=seed,
    )


def build_text(workload: Workload, seed: int) -> str:
    """The workload's input text for one seed; needs codemix importable."""
    from codemix import generate

    return _POST_PROCESS[workload.name](generate(gen_spec(workload, seed)), random.Random(seed))


# --- reading it back without codemix ------------------------------------------


def raw_tag_lists(text: str, fmt: str) -> list[list[str]]:
    """Raw tag strings per sentence of text this module wrote."""
    if fmt == "column":
        return [
            [line.rpartition("\t")[2] for line in block.split("\n")]
            for block in text.split("\n\n")
            if block
        ]
    return [[chunk.rpartition("/")[2] for chunk in line.split(" ")] for line in text.split("\n") if line]


def normalize(raw: str) -> str | None:
    """The default tag policy as the benchmark reads it: None is undefined."""
    upper = raw.upper()
    return None if upper in UNDEFINED_ALIASES else upper


@dataclass
class FloorCounts:
    """What a counts-only pass over the text yields."""

    rows: list[tuple[int, int, int, int, int]]  # per sentence: W, u, N, S, max_w
    words: dict[str, int]  # per language
    sentences: dict[str, int]  # per language: sentences containing it
    independent_words: int
    independent_sentences: int
    raw_tags: int  # distinct raw tag strings

    @property
    def tokens(self) -> int:
        return sum(r[0] for r in self.rows)


def floor_counts(text: str, fmt: str) -> FloorCounts:
    """Split and count only: the pure-Python floor that a full pipeline is compared with."""
    norm: dict[str, str | None] = {}
    rows = []
    words: dict[str, int] = {}
    sentences: dict[str, int] = {}
    independent_words = independent_sentences = 0
    for raw_tags in raw_tag_lists(text, fmt):
        per: dict[str, int] = {}
        undefined = switches = 0
        previous = None
        for raw in raw_tags:
            code = norm.get(raw, "")
            if code == "":
                code = norm[raw] = normalize(raw)
            if code is None:
                undefined += 1
                continue
            per[code] = per.get(code, 0) + 1
            if previous is not None and code != previous:
                switches += 1
            previous = code
        rows.append((len(raw_tags), undefined, len(per), switches, max(per.values(), default=0)))
        for code, count in per.items():
            words[code] = words.get(code, 0) + count
            sentences[code] = sentences.get(code, 0) + 1
        if undefined:
            independent_words += undefined
            independent_sentences += 1
    return FloorCounts(rows, words, sentences, independent_words, independent_sentences, len(norm))


def input_properties(text: str, floor: FloorCounts) -> dict:
    """Properties a later 'helps only inputs with X' claim can cite; exact per seed."""
    tokens = floor.tokens
    return {
        "tokens": tokens,
        "sentences": len(floor.rows),
        "bytes": len(text.encode("utf-8")),
        "distinct_raw_tags": floor.raw_tags,
        "mean_words_per_sentence": tokens / len(floor.rows),
        "monolingual_sentence_share": sum(1 for r in floor.rows if r[2] <= 1) / len(floor.rows),
        "independent_token_share": floor.independent_words / tokens,
    }


def main(argv: list[str]) -> int:
    name, seed, out = argv
    sys.path.insert(0, str(ROOT / "src"))
    Path(out).write_text(build_text(WORKLOADS[name], int(seed)), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
