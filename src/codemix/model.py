"""Core data model: language tags, tokens, sentences, corpora.

All types are immutable value objects; metrics and parsers never mutate them.
"""

from __future__ import annotations

import enum
from collections import namedtuple
from collections.abc import Iterable
from itertools import repeat
from operator import attrgetter


class UndefinedReason(enum.Enum):
    """Why a token carries no language (named entity, symbol, intra-word mix, ...)."""

    NAMED_ENTITY = "NE"
    SYMBOL = "X"
    INTRA_WORD_MIX = "MIX"
    UNIVERSAL = "UN"
    OTHER = "OTHER"


class _Immutable:
    """A slotted value whose fields are set once, when it is built, through object.__setattr__ or their slots.

    Its __slots__ name the fields in __init__'s order, so copy and pickle
    rebuild it through __init__, which checks it again, and repr shows them.
    Two values are equal, and hash alike, iff they are of one class and
    their _compared fields are equal.
    """

    __slots__ = ()
    _compared: attrgetter

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._compared(self) == self._compared(other)

    def __hash__(self) -> int:
        return hash(self._compared(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__name__}({fields})"

    def __setattr__(self, name: str, *_: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__

    def __reduce__(self) -> tuple[type, tuple]:
        return type(self), tuple(getattr(self, name) for name in self.__slots__)


class LanguageTag(_Immutable):
    """A token's language assignment: either a language code or Undefined.

    Two tags are equal, and hash alike, iff both are Undefined or both carry
    the same code; the undefined reason is informational and is not compared.
    """

    __slots__ = ("code", "reason")
    _compared = attrgetter("code")
    code: str | None
    reason: UndefinedReason | None

    def __init__(self, code: str | None, reason: UndefinedReason | None = None) -> None:
        if code is None:
            if reason is None:
                raise ValueError("undefined tag requires a reason")
        else:
            if reason is not None:
                raise ValueError("language tag cannot carry an undefined reason")
            if not code or code != code.upper() or "/" in code or any(c.isspace() for c in code):
                raise ValueError(f"malformed language code: {code!r}")
        object.__setattr__(self, "code", code)
        object.__setattr__(self, "reason", reason)

    @classmethod
    def language(cls, code: str) -> "LanguageTag":
        return cls(code=code.upper())

    @classmethod
    def undefined(cls, reason: UndefinedReason = UndefinedReason.UNIVERSAL) -> "LanguageTag":
        return cls(code=None, reason=reason)

    def __repr__(self) -> str:
        if self.code is not None:
            return f"LanguageTag({self.code})"
        return f"LanguageTag(undefined:{self.reason.value})"


class Token(namedtuple("Token", ("surface", "tag"))):
    """A surface form paired with its language tag: one position of a Sentence.

    Sentence.tokens builds these on demand.
    """

    __slots__ = ()


class Sentence(_Immutable):
    """An ordered, non-empty token sequence; the unit all indices are defined over.

    The tokens are stored as two columns of equal length, surfaces and tags,
    and the whole sentence is checked at once when it is built. A sentence is
    its tokens alone: its position belongs to the corpus that holds it, so one
    sentence can be analysed on its own. len() counts its tokens.
    """

    __slots__ = ("surfaces", "tags")
    _compared = attrgetter("surfaces", "tags")
    surfaces: tuple[str, ...]
    tags: tuple[LanguageTag, ...]

    def __init__(self, surfaces: Iterable[str], tags: Iterable[LanguageTag]) -> None:
        if isinstance(surfaces, str) or isinstance(tags, str):
            column = "surfaces" if isinstance(surfaces, str) else "tags"
            raise TypeError(f"sentence {column} must be a sequence, not one str")
        surfaces, tags = tuple(surfaces), tuple(tags)
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
        object.__setattr__(self, "surfaces", surfaces)
        object.__setattr__(self, "tags", tags)

    @classmethod
    def _checked(cls, surfaces: Iterable[str], tags: Iterable[LanguageTag]) -> "Sentence":
        """A sentence of columns that a scanner has already checked as __init__ would; it checks nothing."""
        sentence = object.__new__(cls)
        _set_surfaces(sentence, tuple(surfaces))
        _set_tags(sentence, tuple(tags))
        return sentence

    @property
    def tokens(self) -> tuple[Token, ...]:
        """The sentence as Tokens, built on each call."""
        return tuple(map(Token, self.surfaces, self.tags))

    def __len__(self) -> int:
        return len(self.surfaces)


# The slot descriptors' setters, looked up once: object.__setattr__, or Sentence.surfaces.__set__ in the call, looks
# a name up on every sentence, which costs a parse about 5% on sentences of a few tokens.
_set_surfaces, _set_tags = Sentence.surfaces.__set__, Sentence.tags.__set__


class Corpus(_Immutable):
    """A named, ordered sentence collection; a sentence's position is its place in the tuple.

    Equality and hash compare sentences only: the name is metadata that the
    text formats do not carry, so it is excluded from round-trip identity.
    Each sentence's surfaces and tags were checked when it was built, or by
    the scanner that read them, so none is walked here. len() counts its sentences.
    """

    __slots__ = ("name", "sentences")
    _compared = attrgetter("sentences")
    name: str
    sentences: tuple[Sentence, ...]

    def __init__(self, name: str, sentences: Iterable[Sentence]) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "sentences", tuple(sentences))

    def __len__(self) -> int:
        return len(self.sentences)
