"""Core data model: language tags, tokens, sentences, corpora.

All types are immutable value objects; metrics and parsers never mutate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


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
    """A surface form paired with its language tag."""

    surface: str
    tag: LanguageTag

    def __post_init__(self) -> None:
        if not self.surface:
            raise ValueError("token surface must be non-empty")
        if "\t" in self.surface or "\n" in self.surface or "\r" in self.surface:
            raise ValueError(f"token surface contains tab/newline: {self.surface!r}")


@dataclass(frozen=True)
class Sentence:
    """An ordered, non-empty token sequence; the unit all indices are defined over.

    A sentence is its tokens alone: its position belongs to the corpus that
    holds it, so one sentence can be analysed on its own.
    """

    tokens: tuple[Token, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if not self.tokens:
            raise ValueError("sentence must contain at least one token")

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    """A named, ordered sentence collection; a sentence's position is its place in the tuple.

    Equality and hash compare sentences only: the name is metadata that the
    text formats do not carry, so it is excluded from round-trip identity.
    Sentences and tokens are checked where they are made, so none is walked here.
    """

    name: str = field(compare=False)
    sentences: tuple[Sentence, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "sentences", tuple(self.sentences))

    def __len__(self) -> int:
        return len(self.sentences)
