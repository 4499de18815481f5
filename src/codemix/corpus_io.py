"""Reading and writing language-tagged corpora.

Two plain-text carriers are supported:

COLUMN -- one token per line as "surface<TAB>tag"; a blank line ends a
  sentence; trailing blank lines are ignored.  CRLF input is accepted.

INLINE -- one sentence per line; tokens separated by single spaces; each
  token is "surface/TAG" where the LAST slash is the separator, so surfaces
  may themselves contain slashes.

Both formats are UTF-8 and carry no metadata beyond the tokens. A language
code holds no whitespace and no '/', so both carry every tag: writing then
parsing reproduces an equal corpus (name excluded) in COLUMN, and in INLINE
if no surface holds a space, under a policy that registers every language
code in it; L<n> codes need no registration.
"""

from __future__ import annotations

import codecs
import enum
import io
import itertools
from collections import namedtuple
from collections.abc import Callable, Iterable, Iterator

from .model import Corpus, LanguageTag, Sentence, UndefinedReason

# The nine languages of the multilingual reference corpus this tool was
# built around; the default registry.
DEFAULT_LANGUAGES = frozenset({"BN", "EN", "GU", "HI", "KA", "ML", "MR", "TA", "TE"})

_ALIAS_REASONS = {
    "UN": UndefinedReason.UNIVERSAL,
    "UNIV": UndefinedReason.UNIVERSAL,
    "NE": UndefinedReason.NAMED_ENTITY,
    "X": UndefinedReason.SYMBOL,
    "MIX": UndefinedReason.INTRA_WORD_MIX,
    "OTHER": UndefinedReason.OTHER,
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


class TagPolicy(namedtuple("TagPolicy", ("language_codes", "unknown_tag_action"))):
    """How raw tag strings map onto language/undefined assignments.

    Codes of the form L<number> (the synthetic family used by the corpus
    generator and by abstract test patterns) are always languages, whatever
    the registry. The undefined aliases are the fixed keys of _ALIAS_REASONS.
    """

    __slots__ = ()

    def __new__(
        cls,
        language_codes: Iterable[str] = DEFAULT_LANGUAGES,
        unknown_tag_action: UnknownTagAction = UnknownTagAction.ERROR,
    ) -> TagPolicy:
        if isinstance(language_codes, str):  # it would be split into one-letter codes
            raise TypeError("language_codes must be a collection of codes, not one str")
        if not isinstance(unknown_tag_action, UnknownTagAction):
            raise TypeError(f"unknown_tag_action must be an UnknownTagAction, not {unknown_tag_action!r}")
        codes = frozenset(LanguageTag.language(c).code for c in language_codes)
        overlap = codes & _ALIAS_REASONS.keys()
        if overlap:
            raise ValueError(f"language codes and undefined aliases overlap: {sorted(overlap)}")
        return super().__new__(cls, codes, unknown_tag_action)

    @classmethod
    def _make(cls, fields: Iterable) -> TagPolicy:
        return cls(*fields)  # so that _replace checks too


DEFAULT_POLICY = TagPolicy()


def _is_synthetic_code(code: str) -> bool:
    return len(code) > 1 and code[0] == "L" and code[1:].isdecimal()


def normalize_tag(raw: str, policy: TagPolicy = DEFAULT_POLICY) -> LanguageTag:
    """Map a raw tag string (case-insensitive) onto a LanguageTag per policy."""
    if not raw:
        raise UnknownTagError("empty tag")
    upper = raw.upper()
    if upper in policy.language_codes or _is_synthetic_code(upper):
        return LanguageTag.language(upper)
    if upper in _ALIAS_REASONS:
        return LanguageTag.undefined(_ALIAS_REASONS[upper])
    if policy.unknown_tag_action is UnknownTagAction.TREAT_UNDEFINED:
        return LanguageTag.undefined(UndefinedReason.OTHER)
    raise UnknownTagError(f"unknown tag {raw!r}")


class _Tags(dict):
    """One LanguageTag per distinct raw tag under a policy, normalized on first sight.

    A text therefore holds one tag object per raw tag, not one per token.
    """

    def __init__(self, policy: TagPolicy):
        super().__init__()
        self.policy = policy

    def __missing__(self, raw: str) -> LanguageTag:
        tag = self[raw] = normalize_tag(raw, self.policy)
        return tag


# A scanner yields each sentence's surfaces and tags, or with count=True, its tally (W, u, S, {code: count}).
_Scan = Iterator[tuple[list[str], list[LanguageTag]] | tuple[int, int, int, dict[str, int]]]
_Warn = Callable[[str], None]


def _log_warning(message: str) -> None:
    """The scanners' default warning: one record on this module's logger; logging is imported only now."""
    import logging

    logging.getLogger(__name__).warning(message)


# Bytes per read, before it runs on to a line end: a chunk's lines are all held at once.
_READ_SIZE = 2048


def _read_lines(binary: io.BufferedIOBase) -> Iterator[str]:
    """The lines of a UTF-8 byte stream, read a chunk at a time, as text.split("\n") gives them.

    A leading BOM is dropped. An undecodable byte raises ValueError with its
    offset in the stream, after every complete line before it.
    """
    return itertools.chain.from_iterable(_line_chunks(binary))


def _line_chunks(binary: io.BufferedIOBase) -> Iterator[list[str]]:
    """_read_lines a chunk at a time; a chunk ends at an LF or the stream's end, so it decodes alone."""
    chunk = binary.read(_READ_SIZE) + binary.readline()
    offset = len(codecs.BOM_UTF8) if chunk.startswith(codecs.BOM_UTF8) else 0
    chunk = chunk[offset:]
    tail = ""  # after the last LF: empty unless the stream has ended
    while chunk:
        try:
            lines = chunk.decode("utf-8").split("\n")
        except UnicodeDecodeError as exc:
            yield chunk[: exc.start].decode("utf-8").split("\n")[:-1]
            raise ValueError(_decode_error(exc, offset)) from None
        offset += len(chunk)
        tail = lines.pop()
        yield lines
        chunk = binary.read(_READ_SIZE) + binary.readline()
    yield [tail]


def _decode_error(exc: UnicodeDecodeError, base: int) -> str:
    """str(exc) with positions counted from the start of the stream; exc.object starts base bytes in."""
    start, end = base + exc.start, base + exc.end
    if end - start == 1:
        where = f"byte 0x{exc.object[exc.start]:02x} in position {start}"
    else:
        where = f"bytes in position {start}-{end - 1}"
    return f"'{exc.encoding}' codec can't decode {where}: {exc.reason}"


def _scan_column(
    lines: Iterable[str], tags: _Tags, name: str, warn: _Warn = _log_warning, *, count: bool = False
) -> _Scan:
    """Each COLUMN sentence's surfaces and tags, or with count its _count_tags tally; every format check is here.

    Only LF ends a line, and a line's trailing CRs are dropped. Blank lines
    after the last sentence are neither sentences nor skipped. Skipped empty
    sentences are counted and passed to warn once, after the last line.
    With count, each token is counted as it is read, into its sentence's
    tally (W, u, S, {code: count}), and no surface or tag is kept.
    """
    skipped = 0
    closed_at = blank = lineno = 0  # the blank line that closed the last sentence, the last blank line, the last line
    surfaces: list[str] = []
    sentence: list[LanguageTag] = []
    per_language: dict[str, int] = {}
    undefined = switches = 0
    previous: str | None = None
    for lineno, line in enumerate(lines, start=1):
        has_cr = "\r" in line  # a surface can hold a CR only if its line does
        if has_cr:
            line = line.rstrip("\r")
        if not line:
            if sentence or per_language or undefined:  # the open sentence has a token, kept or counted
                if count:  # each line since the last blank one holds a token
                    yield lineno - blank - 1, undefined, switches, per_language
                    per_language, undefined, switches, previous = {}, 0, 0, None
                else:
                    yield surfaces, sentence
                    surfaces, sentence = [], []
                closed_at = blank = lineno
            else:
                skipped += 1
                blank = lineno
            continue
        fields = line.split("\t")
        if len(fields) != 2:
            raise ParseError(lineno, f"expected SURFACE<TAB>TAG, got {len(fields)} field(s)")
        surface, raw = fields
        if not surface or not raw:
            raise ParseError(lineno, "missing tag field" if surface else "empty surface")
        try:
            tag = tags[raw]
        except ValueError as exc:  # unknown or malformed tag
            raise ParseError(lineno, str(exc)) from exc
        if has_cr and "\r" in surface:
            raise ParseError(lineno, f"token surface contains tab/newline: {surface!r}")
        if not count:
            surfaces.append(surface)
            sentence.append(tag)
            continue
        code = tag.code  # counted as _count_tags counts
        if code is None:
            undefined += 1
            continue
        per_language[code] = per_language.get(code, 0) + 1
        if code != previous and previous is not None:
            switches += 1
        previous = code
    if count and (per_language or undefined):
        yield lineno - blank, undefined, switches, per_language
    elif sentence:
        yield surfaces, sentence
    else:
        skipped -= lineno - closed_at  # every line after closed_at is blank, and was counted
    if skipped:  # warned once the text is exhausted, so never before a ParseError
        warn(f"{name or '<column stream>'}: skipped {skipped} empty sentence(s)")


def _scan_inline(
    lines: Iterable[str], tags: _Tags, name: str, warn: _Warn = _log_warning, *, count: bool = False
) -> _Scan:
    """Each INLINE sentence's surfaces and tags, or with count its _count_tags tally; every format check is here.

    Lines end as in _scan_column, and blank lines after the last sentence are not skipped sentences.
    With count, each token is counted as it is read, as in _scan_column.
    """
    skipped = 0
    last = lineno = 0  # the last sentence's line, and the last line
    surfaces: list[str] = []
    sentence: list[LanguageTag] = []
    per_language: dict[str, int] = {}
    undefined = switches = 0
    previous: str | None = None
    for lineno, line in enumerate(lines, start=1):
        if "\r" in line:
            line = line.rstrip("\r")
        if not line:
            skipped += 1
            continue
        unsafe = "\t" in line or "\r" in line  # only then can a surface hold one
        for position, chunk in enumerate(line.split(" "), start=1):
            surface, slash, raw = chunk.rpartition("/")
            try:
                if not slash:
                    raise ValueError(f"missing '/' separator in {chunk!r}")
                if not surface:
                    raise ValueError("empty surface")
                tag = tags[raw]
                if unsafe and ("\t" in surface or "\r" in surface):
                    raise ValueError(f"token surface contains tab/newline: {surface!r}")
            except ValueError as exc:
                raise ParseError(lineno, f"token {position}: {exc}") from exc
            if not count:
                surfaces.append(surface)
                sentence.append(tag)
                continue
            code = tag.code  # counted as _count_tags counts
            if code is None:
                undefined += 1
                continue
            per_language[code] = per_language.get(code, 0) + 1
            if code != previous and previous is not None:
                switches += 1
            previous = code
        last = lineno
        if count:
            yield position, undefined, switches, per_language  # position is the last token's: the count
            per_language, undefined, switches, previous = {}, 0, 0, None
        else:
            yield surfaces, sentence
            surfaces, sentence = [], []
    skipped -= lineno - last  # every line after the last sentence is blank, and was counted
    if skipped:
        warn(f"{name or '<inline stream>'}: skipped {skipped} empty sentence(s)")


def _corpus(
    scan: Callable[[Iterable[str], _Tags, str], _Scan], lines: Iterable[str], policy: TagPolicy, name: str
) -> Corpus:
    """The corpus of scanned lines; each sentence is checked once, by the scanner, and not again when it is built."""
    sentences = tuple(itertools.starmap(Sentence._checked, scan(lines, _Tags(policy), name)))
    return Corpus(name=name, sentences=sentences)


def parse_column_format(text: str, policy: TagPolicy = DEFAULT_POLICY, name: str = "") -> Corpus:
    """Parse COLUMN text into a corpus.

    Empty sentences (consecutive blank lines) are skipped with a logged
    warning; every other irregularity is a ParseError.
    """
    return _corpus(_scan_column, text.split("\n"), policy, name)


def parse_inline_format(text: str, policy: TagPolicy = DEFAULT_POLICY, name: str = "") -> Corpus:
    """Parse INLINE text (one "surface/TAG ..." sentence per line) into a corpus."""
    return _corpus(_scan_inline, text.split("\n"), policy, name)


def _tag_text(tag: LanguageTag) -> str:
    return tag.code if tag.code is not None else tag.reason.value


def write_corpus(corpus: Corpus, fmt: CorpusFormat = CorpusFormat.COLUMN) -> str:
    """Serialize a corpus; parse(write(c), policy) == c for both formats if policy registers c's codes.

    Under the default policy, a code outside DEFAULT_LANGUAGES that is not L<n> raises ParseError.
    INLINE raises ValueError for a surface with a space, which it cannot carry.
    """
    if fmt is CorpusFormat.COLUMN:
        parts = []
        for sentence in corpus.sentences:
            for surface, tag in zip(sentence.surfaces, sentence.tags):
                parts.append(f"{surface}\t{_tag_text(tag)}\n")
            parts.append("\n")
        return "".join(parts)
    if fmt is CorpusFormat.INLINE:
        lines = []
        for sentence in corpus.sentences:
            tokens = []
            for surface, tag in zip(sentence.surfaces, sentence.tags):
                if " " in surface:
                    raise ValueError(f"surface {surface!r} not representable in INLINE format")
                tokens.append(f"{surface}/{_tag_text(tag)}")
            lines.append(" ".join(tokens) + "\n")
        return "".join(lines)
    raise ValueError(f"unknown corpus format: {fmt!r}")
