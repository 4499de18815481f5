from __future__ import annotations

import logging
import os
import re
import subprocess
import sys

import pytest

from codemix import (
    Corpus,
    CorpusFormat,
    LanguageTag,
    ParseError,
    Sentence,
    TagPolicy,
    UndefinedReason,
    UnknownTagAction,
    UnknownTagError,
    normalize_tag,
    parse_column_format,
    parse_inline_format,
    write_corpus,
)
from conftest import FIXTURES, make_corpus


class TestNormalizeTag:
    def test_registry_code_case_insensitive(self):
        tag = normalize_tag("en")
        assert tag.code == "EN" and tag.reason is None

    def test_named_entity_alias(self):
        tag = normalize_tag("NE")
        assert tag.code is None and tag.reason is UndefinedReason.NAMED_ENTITY

    def test_universal_aliases_share_a_reason(self):
        assert normalize_tag("un").reason is UndefinedReason.UNIVERSAL
        assert normalize_tag("UNIV").reason is UndefinedReason.UNIVERSAL

    def test_unknown_tag_policy_branch(self):
        lenient = TagPolicy(unknown_tag_action=UnknownTagAction.TREAT_UNDEFINED)
        assert normalize_tag("zz", lenient).reason is UndefinedReason.OTHER
        with pytest.raises(UnknownTagError):
            normalize_tag("zz")

    def test_synthetic_codes_accepted_by_default(self):
        assert normalize_tag("L10").code == "L10"
        assert normalize_tag("l7", TagPolicy(language_codes={"EN"})).code == "L7"
        # The number is decimal digits, as stats' \d+ sort key reads it: "²" is a digit but not a decimal.
        assert normalize_tag("L٣").code == "L٣"
        with pytest.raises(UnknownTagError):
            normalize_tag("l²")

    def test_custom_registry(self):
        policy = TagPolicy(language_codes=frozenset({"ES", "EN"}))
        assert normalize_tag("es", policy).code == "ES"

    def test_policy_rejects_overlapping_sets(self):
        with pytest.raises(ValueError):
            TagPolicy(language_codes=frozenset({"X", "EN"}))

    def test_policy_rejects_one_str_as_the_registry(self):
        # "EN" would otherwise be the registry {"E", "N"}.
        with pytest.raises(TypeError, match=r"^language_codes must be a collection of codes, not one str$"):
            TagPolicy("EN")
        with pytest.raises(TypeError, match="not one str"):
            TagPolicy()._replace(language_codes="EN")
        assert TagPolicy(["EN"]).language_codes == {"EN"}

    def test_policy_rejects_an_action_that_is_not_an_unknown_tag_action(self):
        # "undefined" would otherwise behave as UnknownTagAction.ERROR.
        message = r"^unknown_tag_action must be an UnknownTagAction, not 'undefined'$"
        with pytest.raises(TypeError, match=message):
            TagPolicy(unknown_tag_action="undefined")
        with pytest.raises(TypeError, match=message):
            TagPolicy()._replace(unknown_tag_action="undefined")

    def test_policy_rejects_malformed_codes(self):
        with pytest.raises(ValueError, match=r"^malformed language code: 'E N'$"):
            TagPolicy(language_codes=frozenset({"e n", "EN"}))
        with pytest.raises(ValueError, match=r"^malformed language code: 'A/B'$"):
            TagPolicy(language_codes={"A/B"})


class TestColumnParsing:
    def test_minimal_two_token_sentence(self):
        corpus = parse_column_format("Boss\tEN\najkal\tBN\n\n")
        assert len(corpus) == 1
        assert [t.surface for t in corpus.sentences[0].tokens] == ["Boss", "ajkal"]
        assert [t.tag.code for t in corpus.sentences[0].tokens] == ["EN", "BN"]

    def test_missing_tag_field_reports_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_column_format("word\n")
        assert excinfo.value.line == 1

    def test_too_many_fields(self):
        with pytest.raises(ParseError):
            parse_column_format("a\tEN\textra\n")

    def test_unknown_tag_names_tag_and_line(self):
        with pytest.raises(ParseError) as excinfo:
            parse_column_format("ok\tEN\n\nbad\tQQ\n")
        assert excinfo.value.line == 3
        assert "QQ" in str(excinfo.value)

    def test_crlf_accepted(self):
        corpus = parse_column_format("a\tEN\r\nb\tBN\r\n\r\n")
        assert len(corpus.sentences[0]) == 2

    def test_final_sentence_without_trailing_blank(self):
        corpus = parse_column_format("a\tEN")
        assert len(corpus) == 1

    def test_empty_sentences_skipped_with_warning(self, caplog):
        with caplog.at_level(logging.WARNING, logger="codemix.corpus_io"):
            corpus = parse_column_format("a\tEN\n\n\n\nb\tBN\n\n")
        assert len(corpus) == 2
        assert corpus.sentences[1] == Sentence(surfaces=("b",), tags=(LanguageTag.language("BN"),))
        assert "skipped 2 empty sentence" in caplog.text

    def test_trailing_blank_lines_ignored_silently(self, caplog):
        with caplog.at_level(logging.WARNING, logger="codemix.corpus_io"):
            corpus = parse_column_format("a\tEN\n\n\n\n\n")
        assert len(corpus) == 1
        assert not caplog.records

    def test_case6_fixture(self):
        corpus = parse_column_format(
            (FIXTURES / "case6.tags").read_text(encoding="utf-8"), name="case6"
        )
        assert len(corpus) == 1
        assert [t.tag.code for t in corpus.sentences[0].tokens] == ["GU", "EN", "GU", "EN", "GU"]

    def test_empty_input_gives_empty_corpus(self):
        assert len(parse_column_format("")) == 0


class TestInlineParsing:
    def test_simple_sentence(self):
        corpus = parse_inline_format("Ki/BN post/EN korcho/BN\n")
        assert len(corpus.sentences[0]) == 3
        assert corpus.sentences[0].tokens[1].tag.code == "EN"

    def test_last_slash_is_the_separator(self):
        corpus = parse_inline_format("a/b/EN\n")
        token = corpus.sentences[0].tokens[0]
        assert token.surface == "a/b"
        assert token.tag.code == "EN"

    def test_missing_separator_reports_position(self):
        with pytest.raises(ParseError) as excinfo:
            parse_inline_format("ok/EN word\n")
        assert excinfo.value.line == 1
        assert "token 2" in str(excinfo.value)

    def test_empty_surface_rejected(self):
        with pytest.raises(ParseError):
            parse_inline_format("/EN\n")

    def test_one_sentence_per_line(self):
        corpus = parse_inline_format("a/EN b/BN\nc/HI\n")
        assert [len(s) for s in corpus.sentences] == [2, 1]


class TestImports:
    def test_parsers_on_a_bare_interpreter_load_only_the_reader_and_the_model(self):
        # Under -S, site imports nothing, so every codemix module in the child is the parsers' doing.
        script = (
            "import sys, codemix\n"
            "column = codemix.parse_column_format('a\\tEN\\nb\\tHI\\n')\n"
            "inline = codemix.parse_inline_format('a/EN\\n')\n"
            "loaded = sorted(name for name in sys.modules if name.partition('.')[0] == 'codemix')\n"
            "print(len(column), len(inline), *loaded)\n"
        )
        src = str(FIXTURES.parent / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-S", "-c", script], capture_output=True, env=env, timeout=60)
        assert done.returncode == 0, done.stderr.decode()
        assert done.stdout.decode().split() == ["1", "1", "codemix", "codemix.corpus_io", "codemix.model"]


class TestWriting:
    def test_column_bytes(self):
        corpus = make_corpus([["EN", "BN"]])
        assert write_corpus(corpus, CorpusFormat.COLUMN) == "w0\tEN\nw1\tBN\n\n"

    def test_inline_bytes(self):
        corpus = make_corpus([["EN", None]])
        assert write_corpus(corpus, CorpusFormat.INLINE) == "w0/EN w1/UN\n"

    @pytest.mark.parametrize("fmt", [CorpusFormat.COLUMN, CorpusFormat.INLINE])
    @pytest.mark.parametrize("name", ["cases_math.tags", "cases_text.tags", "case6.tags"])
    def test_fixture_round_trip(self, fmt, name):
        original = parse_column_format((FIXTURES / name).read_text(encoding="utf-8"))
        reparse = parse_column_format if fmt is CorpusFormat.COLUMN else parse_inline_format
        assert reparse(write_corpus(original, fmt)) == original

    def test_round_trip_preserves_order(self):
        corpus = make_corpus([["EN"], ["BN", "EN"], [None, "HI"]])
        again = parse_column_format(write_corpus(corpus))
        assert [len(s) for s in again.sentences] == [1, 2, 2]
        assert again == corpus

    @pytest.mark.parametrize("fmt", [CorpusFormat.COLUMN, CorpusFormat.INLINE])
    def test_round_trip_needs_a_policy_that_registers_every_code(self, fmt):
        policy = TagPolicy(language_codes=frozenset({"FR"}))
        corpus = parse_column_format("a\tfr\n", policy)
        reparse = parse_column_format if fmt is CorpusFormat.COLUMN else parse_inline_format
        text = write_corpus(corpus, fmt)
        assert reparse(text, policy) == corpus
        with pytest.raises(ParseError, match="unknown tag 'FR'"):
            reparse(text)

    def test_other_reason_round_trips(self):
        lenient = TagPolicy(unknown_tag_action=UnknownTagAction.TREAT_UNDEFINED)
        corpus = parse_column_format("foo\tzz\nbar\tEN\n\n", lenient)
        text = write_corpus(corpus)
        assert "OTHER" in text
        assert parse_column_format(text) == corpus

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError, match=r"^unknown corpus format: 'column'$"):
            write_corpus(make_corpus([["EN"]]), "column")

    def test_inline_rejects_space_in_surface(self):
        sentence = Sentence(surfaces=("a b",), tags=(LanguageTag.language("EN"),))
        corpus = Corpus(name="", sentences=(sentence,))
        write_corpus(corpus, CorpusFormat.COLUMN)  # fine: tab-separated
        with pytest.raises(ValueError):
            write_corpus(corpus, CorpusFormat.INLINE)

    def test_corpus_equality_ignores_name(self):
        a = make_corpus([["EN", "BN"]], name="a")
        b = make_corpus([["EN", "BN"]], name="b")
        assert a == b
        assert hash(a) == hash(b)


def _malformed_sentences():
    en = LanguageTag.language("EN")
    yield pytest.param((), (), ValueError, "at least one token", id="empty-sentence")
    yield pytest.param(("a", "", "c"), (en,) * 3, ValueError, "surface must be non-empty", id="empty-surface")
    for char, name in (("\t", "tab"), ("\n", "LF"), ("\r", "CR")):
        for position, where in enumerate(("first", "middle", "last")):
            surfaces = ["a", "b", "c"]
            surfaces[position] = f"x{char}y"
            message = re.escape(f"tab/newline: {surfaces[position]!r}")
            yield pytest.param(tuple(surfaces), (en,) * 3, ValueError, message, id=f"{name}-{where}")
    yield pytest.param(("a", "b"), (en,), ValueError, re.escape("2 surface(s) but 1 tag(s)"), id="unequal-lengths")
    yield pytest.param(("a", "b", "c"), (en, "HI", en), TypeError, "must be a LanguageTag, not str", id="str-tag")
    yield pytest.param("ab", (en, en), TypeError, "surfaces must be a sequence, not one str", id="str-surfaces")
    yield pytest.param(("a", "b"), "EN", TypeError, "tags must be a sequence, not one str", id="str-tags")


class TestModelValidation:
    @pytest.mark.parametrize("surfaces, tags, error, message", _malformed_sentences())
    def test_sentence_rejects_malformed_tokens(self, surfaces, tags, error, message):
        with pytest.raises(error, match=message):
            Sentence(surfaces, tags)

    @pytest.mark.parametrize(
        "code, reason, message",
        [
            (None, None, "undefined tag requires a reason"),
            ("EN", UndefinedReason.SYMBOL, "language tag cannot carry an undefined reason"),
            ("A/B", None, "malformed language code: 'A/B'"),
        ],
    )
    def test_tag_rejects_a_code_and_reason_mismatch(self, code, reason, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            LanguageTag(code, reason)

    def test_tag_equality_ignores_undefined_reason(self):
        assert LanguageTag.undefined(UndefinedReason.NAMED_ENTITY) == LanguageTag.undefined(UndefinedReason.SYMBOL)
        assert LanguageTag.language("EN") != LanguageTag.undefined()
        assert LanguageTag.language("EN") == LanguageTag.language("EN")
        assert hash(LanguageTag.undefined(UndefinedReason.NAMED_ENTITY)) == hash(
            LanguageTag.undefined(UndefinedReason.SYMBOL)
        )

    def test_reprs_and_comparison_with_another_type(self):
        en, named = LanguageTag.language("EN"), LanguageTag.undefined(UndefinedReason.NAMED_ENTITY)
        sentence = Sentence(("hi", "Delhi"), (en, named))
        corpus = Corpus("day", (sentence,))
        assert repr(en) == "LanguageTag(EN)"
        assert repr(named) == "LanguageTag(undefined:NE)"
        assert repr(sentence) == "Sentence(surfaces=('hi', 'Delhi'), tags=(LanguageTag(EN), LanguageTag(undefined:NE)))"
        assert repr(corpus) == f"Corpus(name='day', sentences=({sentence!r},))"
        # Each value against its own compared fields, and against a value of another model type.
        for value, other in ((en, "EN"), (sentence, (sentence.surfaces, sentence.tags)), (corpus, corpus.sentences),
                             (sentence, corpus), (en, sentence)):
            assert value.__eq__(other) is NotImplemented
            assert (value == other, other == value, value != other) == (False, False, True)
