"""Reading and writing language-tagged corpora.

Two plain-text carriers are supported:

COLUMN -- one token per line as "surface<TAB>tag"; a blank line ends a
  sentence; trailing blank lines are ignored.  CRLF input is accepted.

INLINE -- one sentence per line; tokens separated by single spaces; each
  token is "surface/TAG" where the LAST slash is the separator, so surfaces
  may themselves contain slashes.

Both formats are UTF-8 and carry no metadata beyond the tokens, so writing
then parsing reproduces an equal corpus (name and registry excluded).
"""

from __future__ import annotations

import enum
import logging
from dataclasses import dataclass

from .model import Corpus, LanguageTag, Sentence, Token, UndefinedReason

logger = logging.getLogger(__name__)

# The nine languages of the multilingual reference corpus this tool was
# built around; the default registry.
DEFAULT_LANGUAGES = frozenset({"BN", "EN", "GU", "HI", "KA", "ML", "MR", "TA", "TE"})

DEFAULT_UNDEFINED_ALIASES = frozenset({"UN", "UNIV", "NE", "X", "MIX", "OTHER"})

_ALIAS_REASONS = {
    "UN": UndefinedReason.UNIVERSAL,
    "UNIV": UndefinedReason.UNIVERSAL,
    "NE": UndefinedReason.NAMED_ENTITY,
    "X": UndefinedReason.SYMBOL,
    "MIX": UndefinedReason.INTRA_WORD_MIX,
}


class UnknownTagError(ValueError):
    """Raised by normalize_tag when a tag is neither a registered language nor an alias."""


class ParseError(ValueError):
    """Malformed corpus text; carries a 1-based line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


class UnknownTagAction(enum.Enum):
    ERROR = "error"
    TREAT_UNDEFINED = "undefined"


class CorpusFormat(enum.Enum):
    COLUMN = "column"
    INLINE = "inline"


@dataclass(frozen=True)
class TagPolicy:
    """How raw tag strings map onto language/undefined assignments.

    Codes of the form L<number> (the synthetic family used by the corpus
    generator and by abstract test patterns) are accepted as languages
    regardless of the registry while accept_synthetic is set.
    """

    language_codes: frozenset[str] = DEFAULT_LANGUAGES
    undefined_aliases: frozenset[str] = DEFAULT_UNDEFINED_ALIASES
    unknown_tag_action: UnknownTagAction = UnknownTagAction.ERROR
    accept_synthetic: bool = True

    def __post_init__(self) -> None:
        object.__setattr__(self, "language_codes", frozenset(c.upper() for c in self.language_codes))
        object.__setattr__(self, "undefined_aliases", frozenset(a.upper() for a in self.undefined_aliases))
        overlap = self.language_codes & self.undefined_aliases
        if overlap:
            raise ValueError(f"language codes and undefined aliases overlap: {sorted(overlap)}")


DEFAULT_POLICY = TagPolicy()


def _is_synthetic_code(code: str) -> bool:
    return len(code) > 1 and code[0] == "L" and code[1:].isdigit()


def normalize_tag(raw: str, policy: TagPolicy = DEFAULT_POLICY) -> LanguageTag:
    """Map a raw tag string (case-insensitive) onto a LanguageTag per policy."""
    if not raw:
        raise UnknownTagError("empty tag")
    upper = raw.upper()
    if upper in policy.language_codes:
        return LanguageTag.language(upper)
    if policy.accept_synthetic and _is_synthetic_code(upper):
        return LanguageTag.language(upper)
    if upper in policy.undefined_aliases:
        return LanguageTag.undefined(_ALIAS_REASONS.get(upper, UndefinedReason.OTHER))
    if policy.unknown_tag_action is UnknownTagAction.TREAT_UNDEFINED:
        return LanguageTag.undefined(UndefinedReason.OTHER)
    raise UnknownTagError(f"unknown tag {raw!r}")


class _CorpusBuilder:
    """The one place parsed text becomes tokens, sentences and a corpus.

    Tags are looked up per distinct raw string, so a corpus holds one
    LanguageTag per raw tag, not one per token, and the codes it uses are
    known without walking its tokens.
    """

    def __init__(self, policy: TagPolicy):
        self.policy = policy
        self.tags: dict[str, LanguageTag] = {}
        self.sentences: list[Sentence] = []
        self.skipped = 0

    def token(self, surface: str, raw_tag: str, lineno: int, position: int = 0) -> Token:
        """A token, or a ParseError naming the line and, if given, the token's position in it."""
        try:
            if not surface:
                raise ValueError("empty surface")
            tag = self.tags.get(raw_tag)
            if tag is None:
                tag = self.tags[raw_tag] = normalize_tag(raw_tag, self.policy)
            return Token(surface=surface, tag=tag)
        except ValueError as exc:
            raise ParseError(lineno, f"token {position}: {exc}" if position else str(exc)) from exc

    def sentence(self, tokens: list[Token]) -> None:
        """Append a sentence, or count an empty one as skipped."""
        if tokens:
            self.sentences.append(Sentence(index=len(self.sentences), tokens=tuple(tokens)))
        else:
            self.skipped += 1

    def corpus(self, name: str, stream: str) -> Corpus:
        if self.skipped:
            logger.warning("%s: skipped %d empty sentence(s)", name or stream, self.skipped)
        seen = {tag.code for tag in self.tags.values() if tag.is_language}
        return Corpus(name=name, sentences=tuple(self.sentences), tag_registry=self.policy.language_codes | seen)


def _lines(text: str) -> list[str]:
    """Lines without their CR, trailing blank lines dropped."""
    lines = [line.rstrip("\r") for line in text.split("\n")]
    while lines and not lines[-1]:
        lines.pop()
    return lines


def parse_column_format(text: str, policy: TagPolicy = DEFAULT_POLICY, name: str = "") -> Corpus:
    """Parse COLUMN text into a corpus.

    Empty sentences (consecutive blank lines) are skipped with a logged
    warning; every other irregularity is a ParseError.
    """
    builder = _CorpusBuilder(policy)
    pending: list[Token] = []
    for lineno, line in enumerate(_lines(text), start=1):
        if not line:
            builder.sentence(pending)
            pending = []
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(lineno, f"expected SURFACE<TAB>TAG, got {len(fields)} field(s)")
        surface, raw_tag = fields
        if surface and not raw_tag:
            raise ParseError(lineno, "missing tag field")
        pending.append(builder.token(surface, raw_tag, lineno))
    if pending:
        builder.sentence(pending)
    return builder.corpus(name, "<column stream>")


def parse_inline_format(text: str, policy: TagPolicy = DEFAULT_POLICY, name: str = "") -> Corpus:
    """Parse INLINE text (one "surface/TAG ..." sentence per line) into a corpus."""
    builder = _CorpusBuilder(policy)
    for lineno, line in enumerate(_lines(text), start=1):
        tokens: list[Token] = []  # stays empty for a blank line, which the builder counts as skipped
        for position, chunk in enumerate(line.split(" ") if line else (), start=1):
            cut = chunk.rfind("/")
            if cut < 0:
                raise ParseError(lineno, f"token {position}: missing '/' separator in {chunk!r}")
            tokens.append(builder.token(chunk[:cut], chunk[cut + 1 :], lineno, position))
        builder.sentence(tokens)
    return builder.corpus(name, "<inline stream>")


def _tag_text(tag: LanguageTag) -> str:
    return tag.code if tag.is_language else tag.reason.value


def write_corpus(corpus: Corpus, fmt: CorpusFormat = CorpusFormat.COLUMN) -> str:
    """Serialize a corpus; parse(write(c)) == c for both formats."""
    if fmt is CorpusFormat.COLUMN:
        parts = []
        for sentence in corpus.sentences:
            for token in sentence.tokens:
                parts.append(f"{token.surface}\t{_tag_text(token.tag)}\n")
            parts.append("\n")
        return "".join(parts)
    if fmt is CorpusFormat.INLINE:
        lines = []
        for sentence in corpus.sentences:
            for token in sentence.tokens:
                if " " in token.surface:
                    raise ValueError(f"surface {token.surface!r} not representable in INLINE format")
            lines.append(" ".join(f"{t.surface}/{_tag_text(t.tag)}" for t in sentence.tokens) + "\n")
        return "".join(lines)
    raise ValueError(f"unknown corpus format: {fmt!r}")
