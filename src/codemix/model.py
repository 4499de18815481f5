"""Core data model: language tags, tokens, sentences, corpora.

All types are immutable value objects; metrics and parsers never mutate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from itertools import repeat
from typing import Iterable


class UndefinedReason(enum.Enum):
    """Why a token carries no language (named entity, symbol, intra-word mix, ...)."""

    NAMED_ENTITY = "NE"
    SYMBOL = "X"
    INTRA_WORD_MIX = "MIX"
    UNIVERSAL = "UN"
    OTHER = "OTHER"


@dataclass(frozen=True)
class LanguageTag:
    """A token's language assignment: either a language code or Undefined.

    Two tags are equal, and hash alike, iff both are Undefined or both carry
    the same code; the undefined reason is informational and is not compared.
    """

    code: str | None
    reason: UndefinedReason | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if self.code is None:
            if self.reason is None:
                raise ValueError("undefined tag requires a reason")
        else:
            if self.reason is not None:
                raise ValueError("language tag cannot carry an undefined reason")
            if not self.code or self.code != self.code.upper() or any(c.isspace() for c in self.code):
                raise ValueError(f"malformed language code: {self.code!r}")

    @classmethod
    def language(cls, code: str) -> "LanguageTag":
        return cls(code=code.upper())

    @classmethod
    def undefined(cls, reason: UndefinedReason = UndefinedReason.UNIVERSAL) -> "LanguageTag":
        return cls(code=None, reason=reason)

    @property
    def is_language(self) -> bool:
        return self.code is not None

    @property
    def is_undefined(self) -> bool:
        return self.code is None

    def __repr__(self) -> str:
        if self.is_language:
            return f"LanguageTag({self.code})"
        return f"LanguageTag(undefined:{self.reason.value})"


@dataclass(frozen=True)
class Token:
    """A surface form paired with its language tag: one position of a Sentence.

    Sentence.tokens builds these on demand, and Sentence.from_tokens takes
    them; a Token is checked when a sentence is built from it, not here.
    """

    surface: str
    tag: LanguageTag


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty token sequence; the unit all indices are defined over.

    The tokens are stored as two columns of equal length, surfaces and tags,
    and the whole sentence is checked at once when it is built. A sentence is
    its tokens alone: its position belongs to the corpus that holds it, so one
    sentence can be analysed on its own.
    """

    surfaces: tuple[str, ...]
    tags: tuple[LanguageTag, ...]

    def __post_init__(self) -> None:
        surfaces, tags = tuple(self.surfaces), tuple(self.tags)
        object.__setattr__(self, "surfaces", surfaces)
        object.__setattr__(self, "tags", tags)
        if not surfaces:
            raise ValueError("sentence must contain at least one token")
        if len(tags) != len(surfaces):
            raise ValueError(f"sentence has {len(surfaces)} surface(s) but {len(tags)} tag(s)")
        joined = "\0".join(surfaces)  # TypeError unless every surface is a str
        if not all(surfaces):
            raise ValueError("token surface must be non-empty")
        if "\t" in joined or "\n" in joined or "\r" in joined:
            surface = next(s for s in surfaces if "\t" in s or "\n" in s or "\r" in s)
            raise ValueError(f"token surface contains tab/newline: {surface!r}")
        if not all(map(isinstance, tags, repeat(LanguageTag))):
            tag = next(t for t in tags if not isinstance(t, LanguageTag))
            raise TypeError(f"token tag must be a LanguageTag, not {type(tag).__name__}")

    @classmethod
    def from_tokens(cls, tokens: Iterable[Token]) -> "Sentence":
        """The sentence of these tokens, in order, checked as any sentence is."""
        tokens = tuple(tokens)
        return cls(tuple(t.surface for t in tokens), tuple(t.tag for t in tokens))

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The sentence as Tokens, built on each call."""
        return tuple(map(Token, self.surfaces, self.tags))

    def __len__(self) -> int:
        return len(self.surfaces)


@dataclass(frozen=True)
class Corpus:
    """A named, ordered sentence collection; a sentence's position is its place in the tuple.

    Equality and hash compare sentences only: the name is metadata that the
    text formats do not carry, so it is excluded from round-trip identity.
    Each sentence checks its surfaces and tags when it is built, so none is walked here.
    """

    name: str = field(compare=False)
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)
