from __future__ import annotations

import codecs
import io
import itertools
import json
import math
import random
import string
from statistics import fmean
from unittest import mock

import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from codemix import (
    DEFAULT_CONFIG,
    DEFAULT_POLICY,
    Corpus,
    CorpusFormat,
    CorpusReport,
    IndexSummaryRow,
    LanguageDistributionRow,
    LanguageTag,
    MetricConfig,
    ParseError,
    Sentence,
    SentenceCounts,
    SentenceMetrics,
    TagPolicy,
    UndefinedReason,
    UnknownTagAction,
    aggregate,
    analyze_sentence,
    count_sentence,
    metrics_from_counts,
    normalize_tag,
    parse_column_format,
    parse_inline_format,
    scatter_data,
    write_corpus,
)
from codemix import cli, corpus_io
from codemix.metrics import _arctan_divisor, _count_tags, _linear_divisor
from codemix.stats import _MEMO_SIZE, INDEPENDENT_LABEL, INDEX_NAMES, CorpusComparison, IndexComparison, _fold
from codemix.render import (
    _CSV_BODY,
    _CSV_HEADER,
    _ROW_BODY,
    PER_SENTENCE_COLUMNS,
    _csv_body,
    _json_body,
    render_comparison_json,
    render_distribution_table,
    render_per_sentence_csv,
    render_report_json,
    render_scatter_csv,
    render_summary_table,
)
from conftest import make_corpus, make_sentence, signature_corpus
from naive_oracle import naive_counts, naive_metrics

tag_lists = st.lists(st.sampled_from(["L1", "L2", "L3", None]), min_size=1, max_size=12)
corpora = st.lists(tag_lists, min_size=1, max_size=6)


@given(tag_lists)
def test_library_matches_naive_recount(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    expected = naive_metrics(codes)
    assert counts.total_tokens == expected["W"]
    assert counts.undefined_tokens == expected["u"]
    assert counts.tagged_tokens == expected["Wprime"]
    assert counts.language_count == expected["N"]
    assert counts.dominant_count == expected["max_w"]
    assert counts.switch_count == expected["S"]
    for field, value in (
        ("lf", metrics.language_factor),
        ("sf", metrics.switching_factor),
        ("mf", metrics.mix_factor),
        ("cmi", metrics.cmi),
        ("cf1", metrics.cf1),
        ("cf2", metrics.cf2),
        ("cf3", metrics.cf3),
    ):
        assert value == expected[field]


@given(tag_lists)
def test_range_invariants(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    assert 0.0 <= metrics.switching_factor <= 1.0
    if counts.language_count == 0:
        assert metrics.language_factor == 0.0
    else:
        assert 1.0 <= metrics.language_factor <= counts.total_tokens
    if counts.tagged_tokens >= 1:
        assert 0.0 <= metrics.mix_factor <= 1.0 - 1.0 / counts.tagged_tokens + 1e-12
        assert 0.0 <= metrics.cmi <= 100.0 * (1.0 - 1.0 / counts.tagged_tokens) + 1e-9
    assert metrics.cmi == pytest.approx(100.0 * metrics.mix_factor)
    for value in (metrics.cf1, metrics.cf2, metrics.cf3):
        assert 0.0 <= value < 100.0
        assert math.isfinite(value)


@given(tag_lists)
def test_zero_law(codes):
    counts = count_sentence(make_sentence(codes))
    metrics = metrics_from_counts(counts)
    if counts.language_count <= 1:
        assert metrics.mix_factor == 0.0
        assert metrics.switching_factor == 0.0
        assert metrics.cmi == 0.0
        assert (metrics.cf1, metrics.cf2, metrics.cf3) == (0.0, 0.0, 0.0)


@given(tag_lists)
def test_dampening_divisors_bounded(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count == 0 or counts.total_tokens < 2:
        return
    lf = metrics_from_counts(counts).language_factor
    for divisor in (_linear_divisor(lf, counts.total_tokens), _arctan_divisor(lf)):
        assert 1.0 - 1e-12 <= divisor <= 1.25 + 1e-12


@given(tag_lists)
def test_squashed_variants_coincide_at_unit_language_factor(codes):
    metrics = analyze_sentence(make_sentence(codes))
    if metrics.language_factor == 1.0:
        assert metrics.cf2 == metrics.cf3


@given(tag_lists)
def test_switch_count_monotonicity(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count < 2:
        return
    ceiling = counts.tagged_tokens - 1
    previous = None
    for switches in range(0, ceiling + 1):
        bumped = counts._replace(switch_count=switches)
        metrics = metrics_from_counts(bumped)
        if previous is not None:
            assert metrics.switching_factor > previous.switching_factor
            assert metrics.cf1 > previous.cf1
            assert metrics.cf2 > previous.cf2
            assert metrics.cf3 > previous.cf3
        previous = metrics


@given(tag_lists)
def test_appending_undefined_dilutes(codes):
    counts = count_sentence(make_sentence(codes))
    if counts.language_count < 2 or counts.switch_count < 1:
        return
    before = metrics_from_counts(counts)
    after = metrics_from_counts(count_sentence(make_sentence(codes + [None])))
    assert after.mix_factor == before.mix_factor
    assert after.cmi == before.cmi
    assert after.switching_factor < before.switching_factor
    assert after.language_factor > before.language_factor
    assert after.cf2 <= before.cf2
    assert after.cf3 <= before.cf3


@given(corpora)
def test_cmi_all_never_exceeds_cmi_mixed(tag_list):
    report = aggregate(make_corpus(tag_list))
    assert report.cmi_all <= report.cmi_mixed + 1e-12


@given(corpora)
def test_distribution_percentages_sum_to_hundred(tag_list):
    report = aggregate(make_corpus(tag_list))
    assert sum(row.percentage for row in report.distribution) == pytest.approx(100.0, abs=0.01)


@given(corpora)
def test_distribution_matches_naive_per_sentence_counts(tag_list):
    # Each code's words are the sum of its per-sentence counts, and its sentences
    # the number of sentences that hold it; the language-independent row does
    # the same with each sentence's undefined tokens.
    expected: dict[str, list[int]] = {}
    independent = [0, 0]
    for codes in tag_list:
        naive = naive_counts(codes)
        for code, words in naive["per_language"].items():
            row = expected.setdefault(code, [0, 0])
            row[0] += 1
            row[1] += words
        if naive["u"]:
            independent[0] += 1
            independent[1] += naive["u"]
    expected = {code: expected[code] for code in sorted(expected)}
    expected[INDEPENDENT_LABEL] = independent
    report = aggregate(make_corpus(tag_list))
    tokens = sum(map(len, tag_list))
    assert report.token_count == tokens
    assert {row.language: [row.sentence_count, row.word_count] for row in report.distribution} == expected
    assert [row.language for row in report.distribution] == list(expected)
    assert [row.percentage for row in report.distribution] == [100.0 * words / tokens for _, words in expected.values()]


surfaces = st.text(alphabet="abἀ/.:-?0", min_size=1, max_size=5)
mixed_tags = st.sampled_from(["L1", "L2", None])


@settings(max_examples=50)
@given(st.lists(st.lists(st.tuples(surfaces, mixed_tags), min_size=1, max_size=6), min_size=1, max_size=4))
def test_round_trip_identity_both_formats(sentence_specs):
    sentences = []
    for token_specs in sentence_specs:
        surfaces = tuple(s for s, _ in token_specs)
        tags = tuple(LanguageTag.language(code) if code else LanguageTag.undefined() for _, code in token_specs)
        sentences.append(Sentence(surfaces=surfaces, tags=tags))
    corpus = Corpus(name="prop", sentences=tuple(sentences))
    assert parse_column_format(write_corpus(corpus, CorpusFormat.COLUMN)) == corpus
    assert parse_inline_format(write_corpus(corpus, CorpusFormat.INLINE)) == corpus


@settings(max_examples=300)
@given(st.text(alphabet="/ abLl09éßǆἀ", min_size=1, max_size=4))
def test_both_formats_carry_every_code_a_policy_takes(code):
    try:
        policy = TagPolicy([code])
    except ValueError:
        assume(False)
    tag = LanguageTag.language(code)
    corpus = Corpus(name="prop", sentences=(Sentence(surfaces=("w0", "w1"), tags=(tag, tag)),))
    assert parse_column_format(write_corpus(corpus, CorpusFormat.COLUMN), policy) == corpus
    assert parse_inline_format(write_corpus(corpus, CorpusFormat.INLINE), policy) == corpus


raw_tags = st.sampled_from(["EN", "en", "Hi", "BN", "L1", "l2", "L10", "UN", "univ", "ne", "X", "MIX", "Other"])


@settings(max_examples=200)
@given(
    st.lists(st.lists(st.tuples(surfaces, raw_tags), min_size=1, max_size=6), min_size=1, max_size=4),
    st.sampled_from(["\n", "\r\n"]),
)
def test_parsed_corpus_equals_one_built_with_public_sentences(sentence_specs, line_end):
    # The scanners build sentences without checking them again; a checked Sentence(...) must be the same value.
    expected = Corpus(
        name="prop",
        sentences=[Sentence([s for s, _ in spec], [normalize_tag(raw) for _, raw in spec]) for spec in sentence_specs],
    )
    column = "".join("".join(f"{s}\t{raw}{line_end}" for s, raw in spec) + line_end for spec in sentence_specs)
    inline = "".join(" ".join(f"{s}/{raw}" for s, raw in spec) + line_end for spec in sentence_specs)
    for parsed in (parse_column_format(column, name="prop"), parse_inline_format(inline, name="prop")):
        assert parsed == expected
        assert hash(parsed) == hash(expected)
        assert repr(parsed) == repr(expected)  # tuples, not lists, and each undefined tag's reason


any_tags = st.sampled_from(
    [
        LanguageTag.language("L1"),
        LanguageTag.language("L2"),
        LanguageTag.undefined(UndefinedReason.NAMED_ENTITY),
        LanguageTag.undefined(),
    ]
)


@settings(max_examples=100)
@given(st.lists(st.tuples(surfaces, any_tags), min_size=1, max_size=8))
def test_sentence_from_its_tokens_is_itself(token_specs):
    sentence = Sentence(tuple(s for s, _ in token_specs), tuple(t for _, t in token_specs))
    assert [(t.surface, t.tag) for t in sentence.tokens] == token_specs
    again = Sentence(*zip(*sentence.tokens))
    assert again == sentence
    assert hash(again) == hash(sentence)


@settings(max_examples=200)
@given(st.lists(st.text(alphabet="a \t\n\r\0", max_size=3), min_size=1, max_size=6))
def test_sentence_rejects_exactly_what_a_per_token_check_rejects(texts):
    per_token_bad = any(not s or "\t" in s or "\n" in s or "\r" in s for s in texts)
    try:
        Sentence(tuple(texts), (LanguageTag.undefined(),) * len(texts))
    except ValueError:
        assert per_token_bad
    else:
        assert not per_token_bad


def _max_switches(multiset: list[str]) -> int:
    best = 0
    for arrangement in set(itertools.permutations(multiset)):
        best = max(best, sum(1 for a, b in zip(arrangement, arrangement[1:]) if a != b))
    return best


@pytest.mark.parametrize(
    "multiset",
    [
        ["A", "A", "B"],
        ["A", "A", "A", "B"],
        ["A", "A", "B", "B"],
        ["A", "A", "A", "B", "B"],
        ["A", "A", "A", "A", "B", "B"],
        ["A", "B", "C"],
        ["A", "A", "B", "C"],
        ["A", "A", "A", "A", "A", "B", "C"],
        ["A", "A", "A", "B", "B", "C", "C", "C"],
    ],
)
def test_full_switching_attainable_iff_no_majority_language(multiset):
    # Over all reorderings, S maxes out at W'-1 exactly when the dominant
    # language holds at most ceil(W'/2) tokens; checked by brute force.
    total = len(multiset)
    dominant = max(multiset.count(code) for code in set(multiset))
    attainable = dominant <= -(-total // 2)
    assert (_max_switches(multiset) == total - 1) == attainable


def test_switching_factor_maxed_by_non_adjacent_arrangement():
    multiset = ["A", "A", "B", "B", "C"]
    best = None
    for arrangement in set(itertools.permutations(multiset)):
        sf = analyze_sentence(make_sentence(list(arrangement))).switching_factor
        adjacent_repeat = any(a == b for a, b in zip(arrangement, arrangement[1:]))
        if best is None or sf > best[0]:
            best = (sf, adjacent_repeat)
    assert best[0] == 1.0
    assert best[1] is False


@given(tag_lists, st.floats(min_value=0.0, max_value=200.0), st.floats(min_value=0.0, max_value=200.0))
def test_custom_weights_agree_with_naive(codes, mix_weight, switch_weight):
    if mix_weight + switch_weight <= 0:
        return
    config = MetricConfig(mix_weight=mix_weight, switch_weight=switch_weight)
    metrics = analyze_sentence(make_sentence(codes), config)
    expected = naive_metrics(codes, mix_weight, switch_weight)
    assert metrics.cf2 == expected["cf2"]
    assert metrics.cf3 == expected["cf3"]
    # Every printed index is finite and never -0.0, which would print as -0.00 in CSV and the tables, and as -0.0 in JSON.
    assert all(math.isfinite(value) and math.copysign(1.0, value) == 1.0 for value in metrics)


@given(tag_lists)
def test_mix_factor_and_cmi_ignore_token_order(codes):
    base = analyze_sentence(make_sentence(codes))
    reversed_metrics = analyze_sentence(make_sentence(codes[::-1]))
    assert base.mix_factor == reversed_metrics.mix_factor
    assert base.cmi == reversed_metrics.cmi


# Pieces that hit every branch of both parsers: separators, blank and CR
# lines, tabs and CRs inside surfaces, known, synthetic, alias and unknown
# tags, a byte-order mark and a vertical tab (which does not end a line).
fuzz_text = st.lists(
    st.sampled_from(["a", "/", " ", "\t", "\r", "\n", "EN", "bn", "L2", "NE", "QQ", "\ufeff", "\x0b"]),
    max_size=40,
).map("".join)


@settings(max_examples=500)
@given(fuzz_text, st.sampled_from([DEFAULT_POLICY, TagPolicy(unknown_tag_action=UnknownTagAction.TREAT_UNDEFINED)]))
def test_parsers_return_corpus_or_raise_parse_error(text, policy):
    for parser in (parse_column_format, parse_inline_format):
        try:
            assert isinstance(parser(text, policy), Corpus)
        except ParseError:
            pass


def _scan(scan, text: str, policy: TagPolicy, count: bool) -> tuple[list, tuple[int, str] | None, list[str]]:
    """What a scanner yields for text, before the line and message of the ParseError it raises, if any, and its
    warnings."""
    yielded, warnings = [], []
    try:
        for item in scan(text.split("\n"), corpus_io._Tags(policy), "fuzz", warnings.append, count=count):
            yielded.append(item)
    except ParseError as exc:
        return yielded, (exc.line, str(exc)), warnings
    return yielded, None, warnings


@settings(max_examples=1000, deadline=None)
@given(fuzz_text, st.sampled_from(list(UnknownTagAction)))
@example("a\tEN\nb\tNE\nc\tbn\nd\tEN\ne\tEN\n\n\nf\tQQ\ng\tL2\n", UnknownTagAction.TREAT_UNDEFINED)
@example("a/EN b/NE c/bn d/EN e/EN\n\nf/QQ g/L2 h/L2\na/X\n", UnknownTagAction.TREAT_UNDEFINED)
@example("a\tEN\nb\tbn\n\nc\tQQ\n", UnknownTagAction.ERROR)
def test_counting_scanners_yield_count_tags_of_the_kept_tags(text, action):
    policy = TagPolicy(unknown_tag_action=action)
    for scan in (corpus_io._scan_column, corpus_io._scan_inline):
        kept, kept_error, kept_warnings = _scan(scan, text, policy, count=False)
        counted, error, warnings = _scan(scan, text, policy, count=True)
        expected = [_count_tags(tags) for _, tags in kept]
        assert all(type(tally) is tuple and len(tally) == 4 and type(tally[3]) is dict for tally in counted)
        assert [(*counts, list(codes.items())) for *counts, codes in counted] == [
            (*counts, list(codes.items())) for *counts, codes in expected
        ]
        assert (error, warnings) == (kept_error, kept_warnings)


def _stats_text(report: CorpusReport) -> str:
    """What `codemix stats` prints for a report."""
    return (
        f"corpus: {report.corpus_name}\n"
        f"sentences: {report.sentence_count}  tokens: {report.token_count}\n"
        f"CMI all: {report.cmi_all:.2f}  CMI mixed: {report.cmi_mixed:.2f}\n\n"
        + render_distribution_table(report)
        + "\n"
        + render_summary_table(report)
    )


def test_tables_with_no_rows_print_the_header_and_rule():
    report = aggregate(make_corpus([["L1", "L2"]]))
    assert render_distribution_table(report._replace(distribution=())) == (
        "Language  Sentences  Words  % of corpus\n--------  ---------  -----  -----------\n"
    )
    assert render_summary_table(report._replace(summary=())) == "Index  Min  Max  Mean\n-----  ---  ---  ----\n"


# Each CLI command whose output the fuzz test checks, and that output rendered by the library.
CLI_RENDERINGS = {
    ("stats",): _stats_text,
    ("analyze",): lambda report: render_report_json(report, DEFAULT_CONFIG),
    ("analyze", "--per-sentence"): lambda report: render_report_json(report, DEFAULT_CONFIG, per_sentence=True),
    ("analyze", "--out", "csv"): render_per_sentence_csv,
    ("plot", "--index", "cf2", "--csv"): lambda report: render_scatter_csv(scatter_data(report, "cf2"), "cf2"),
}


PARSER = cli.build_parser()  # built once: building it costs more than a run on a fuzz text


@settings(max_examples=1000, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(fuzz_text, st.sampled_from([None, "undefined"]))
def test_cli_report_matches_library_report(tmp_path_factory, capsys, caplog, text, unknown):
    base = tmp_path_factory.getbasetemp()
    path, target = base / "fuzz.tags", base / "fuzz.csv"
    path.write_bytes(text.encode("utf-8"))
    policy = TagPolicy(unknown_tag_action=UnknownTagAction(unknown or "error"))
    decoded = text.encode("utf-8").decode("utf-8-sig")  # as the CLI reads a file
    flags = ["--unknown", unknown] if unknown else []

    for fmt, parser in (("column", parse_column_format), ("inline", parse_inline_format)):
        caplog.clear()
        try:
            report = aggregate(parser(decoded, policy, name="fuzz"))
        except ValueError as exc:
            report, error = None, f"error: {path}: {exc}\n"
        warning = "".join(f"warning: {path}: {message.removeprefix('fuzz: ')}\n" for message in caplog.messages)
        for (command, *options), render in CLI_RENDERINGS.items():
            writes_file = command == "plot"
            caplog.clear()
            target.unlink(missing_ok=True)
            argv = [command, str(path), "--format", fmt, *flags, *options, *([str(target)] if writes_file else [])]
            with mock.patch.object(cli, "build_parser", lambda: PARSER):
                code = cli.main(argv)
            out, err = capsys.readouterr()
            assert caplog.messages == []  # the CLI writes its warning itself
            if report is None:
                assert (code, out, err) == (1, "", error)
                assert not target.exists()
            elif writes_file:
                assert (code, out, err) == (0, "", warning)
                assert target.read_text(encoding="utf-8") == render(report)
            else:
                assert (code, out, err) == (0, render(report), warning)


# Byte strings for the chunked reader: LFs, CRs and tabs, a BOM, a 3-byte
# character, and bytes that are undecodable alone or only as a whole sequence.
reader_bytes = st.lists(
    st.sampled_from([b"a", b"\n", b"\r", b"\t", codecs.BOM_UTF8, "\u0915".encode(), b"\xe9", b"\xc3", b"\xa9",
                     b"\xe0\xa4"]),
    max_size=40,
).map(b"".join)


@settings(max_examples=500)
@given(reader_bytes, st.integers(1, 9))
def test_read_lines_equals_split_of_the_whole_decoded_text(data, read_size):
    lines, error = [], None
    with mock.patch.object(corpus_io, "_READ_SIZE", read_size):
        try:
            for line in corpus_io._read_lines(io.BytesIO(data)):
                lines.append(line)
        except ValueError as exc:
            error = str(exc)
    try:
        data.decode("utf-8")  # positions counted from the first byte, BOM included
    except UnicodeDecodeError as exc:
        expected = data[: exc.start].decode("utf-8-sig").split("\n")[:-1], str(exc)
    else:
        expected = data.decode("utf-8-sig").split("\n"), None
    assert (lines, error) == expected


# Reports built by hand, beyond what the CLI can produce: names that JSON must
# escape, any finite float (exponent forms, subnormals, -0.0 and values that
# round to -0.0), zero weights of either sign and sentence lists of any length.
json_chars = st.sampled_from(['"', "\\", "\x00", "\x1f", "\x7f", "\n", "é", "中", "\U0001f600"]) | st.characters()
json_names = st.text(json_chars, max_size=8)
json_floats = st.sampled_from([1e-05, 5e-324, 1e300, -0.0, -0.001, 0.005, 62.00830413316129]) | st.floats(
    allow_nan=False, allow_infinity=False
)
json_ints = st.integers(min_value=0, max_value=2**53)
json_weights = st.tuples(*[st.sampled_from([-0.0, 0.0, 50.0, 1e300]) | st.floats(min_value=0.0, max_value=1e300)] * 2)
json_records = st.tuples(
    st.builds(SentenceCounts, *[json_ints] * 6),
    st.builds(SentenceMetrics, *[json_floats] * 7),
)
json_reports = st.builds(
    CorpusReport,
    corpus_name=json_names,
    sentence_count=json_ints,
    token_count=json_ints,
    distribution=st.lists(st.builds(LanguageDistributionRow, json_names, json_ints, json_ints, json_floats),
                          max_size=3).map(tuple),
    summary=st.lists(st.builds(IndexSummaryRow, json_names, json_floats, json_floats, json_floats),
                     max_size=3).map(tuple),
    cmi_all=json_floats,
    cmi_mixed=json_floats,
    per_sentence=st.lists(json_records, max_size=4).map(tuple),
)


def _sentence_dict(index: int, record: tuple[SentenceCounts, SentenceMetrics]) -> dict:
    """One per-sentence row as a dict for json.dumps: the reference for the row template."""
    counts, m = record
    raw = {"LF": m.language_factor, "SF": m.switching_factor, "MF": m.mix_factor, "CMI": m.cmi,
           "CF1": m.cf1, "CF2": m.cf2, "CF3": m.cf3}
    return {
        "index": index,
        "W": counts.total_tokens,
        "u": counts.undefined_tokens,
        "N": counts.language_count,
        "S": counts.switch_count,
        **{key: round(value, 2) for key, value in raw.items()},
        "raw": raw,
    }


@given(json_reports, json_weights.filter(lambda w: 0 < w[0] + w[1] < math.inf))
def test_report_json_equals_json_dumps_layout(report, weights):
    config = MetricConfig(*weights)
    payload = json.loads(render_report_json(report, config))  # the header, still json.dumps itself
    payload["per_sentence"] = list(itertools.starmap(_sentence_dict, enumerate(report.per_sentence)))
    assert render_report_json(report, config, per_sentence=True) == json.dumps(payload, indent=2) + "\n"


def _csv_line(index: int, record: tuple[SentenceCounts, SentenceMetrics]) -> str:
    """One per-sentence CSV line, cell by cell: the reference for the CSV row."""
    counts, metrics = record
    ints = (index, counts.total_tokens, counts.undefined_tokens, counts.language_count, counts.switch_count)
    return ",".join([*map(str, ints), *(f"{value:.2f}" for value in metrics)]) + "\n"


def test_per_sentence_layout_has_a_slot_for_every_metrics_field():
    # str.format ignores extra positional arguments, so a SentenceMetrics field without a label
    # would drop out of the JSON row and the CSV line with no failure anywhere else.
    fields = len(SentenceMetrics._fields)
    assert len(PER_SENTENCE_COLUMNS) == 5 + fields  # the index, W, u, N and S, then each index
    assert INDEX_NAMES == SentenceMetrics._fields[3:]

    def slots(template: str) -> int:
        return sum(name is not None for _, name, _, _ in string.Formatter().parse(template))

    assert slots(_ROW_BODY) == 4 + 2 * fields  # the counts, the rounded indices, then "raw"
    assert slots(_CSV_BODY) == 4 + fields


@pytest.mark.parametrize("values", [(0.0, -0.0), (1 / 3, 2 / 3)], ids=["signed-zeros", "unequal"])
def test_rows_render_apart_unless_they_are_one_pair_object(values):
    # The renderers format one row per (counts, metrics) pair object: another pair
    # gets its own row, even one of equal counts and equal metrics, and so does
    # one SentenceMetrics object under other counts.
    report = aggregate(make_corpus([["L1", "L2", "L1"]]))
    [(counts, _)] = report.per_sentence
    other = counts._replace(switch_count=1)
    first, second = (SentenceMetrics(*[value] * 7) for value in values)
    records = tuple(zip([counts, counts, counts, counts, other], [first, second, first, second, first]))
    report = report._replace(per_sentence=records)
    payload = json.loads(render_report_json(report, DEFAULT_CONFIG))
    payload["per_sentence"] = list(itertools.starmap(_sentence_dict, enumerate(records)))
    assert render_report_json(report, DEFAULT_CONFIG, per_sentence=True) == json.dumps(payload, indent=2) + "\n"
    assert render_per_sentence_csv(report) == _CSV_HEADER + "".join(itertools.starmap(_csv_line, enumerate(records)))


@pytest.mark.parametrize("count", [6, _MEMO_SIZE + 100], ids=["few", "past-the-cap"])
def test_rows_of_a_lazy_report_render_as_the_same_pairs_in_a_tuple(count):
    # A pair that is rendered and then freed must not hand its id, and with it its row, to a later
    # pair. Past the memo's cap, a memo that kept only the ids of its pairs would serve stale rows.
    report = aggregate(make_corpus([["L1", "L2", "L1"]]))
    [(counts, _)] = report.per_sentence

    def pairs():
        for i in range(count):
            yield counts, SentenceMetrics(1.5, 1.0, 0.5, 50.0, float(i), 2.0, 3.0)

    held = report._replace(per_sentence=tuple(pairs()))
    assert render_per_sentence_csv(report._replace(per_sentence=pairs())) == render_per_sentence_csv(held)
    lazy_json = render_report_json(report._replace(per_sentence=pairs()), DEFAULT_CONFIG, per_sentence=True)
    assert lazy_json == render_report_json(held, DEFAULT_CONFIG, per_sentence=True)


def test_rows_past_the_memo_cap_render_as_the_per_record_path():
    config = DEFAULT_CONFIG
    report = aggregate(signature_corpus(), config)
    records = report.per_sentence
    # The repeats of the first signatures share their metrics; past the cap, each sentence has its own.
    assert len(records) - 200 > _MEMO_SIZE
    assert len({id(metrics) for _, metrics in records}) == len(records) - 100
    rendered = render_report_json(report, config, per_sentence=True)
    head = rendered[: rendered.index('    {\n      "index": 0,')]
    rows = ",\n".join(f'    {{\n      "index": {index}{_json_body(*record)}' for index, record in enumerate(records))
    assert rendered == f"{head}{rows}\n  ]\n}}\n"
    per_record = _CSV_HEADER + "".join(f"{index},{_csv_body(*record)}" for index, record in enumerate(records))
    assert render_per_sentence_csv(report) == per_record


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_report_json_rejects_non_finite_values(value):
    report = aggregate(make_corpus([["L1", "L2"], ["L1", "L2", "L2"]]))
    first, (counts, metrics) = report.per_sentence
    bad_row = (counts, metrics._replace(cf2=value))
    with pytest.raises(ValueError, match=f"^sentence 1: CF2 is {value!r}, "):
        render_report_json(report._replace(per_sentence=(first, bad_row)), DEFAULT_CONFIG, True)
    with pytest.raises(ValueError, match="JSON compliant"):
        render_report_json(report._replace(cmi_all=value), DEFAULT_CONFIG)
    # Finite values whose sum overflows are still printed.
    huge = (first[0], metrics._replace(cf1=1e308, cf2=1e308))
    rendered = render_report_json(report._replace(per_sentence=(huge,)), DEFAULT_CONFIG, per_sentence=True)
    assert '"CF2": 1e+308' in rendered


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_comparison_json_rejects_non_finite_values(value):
    row = IndexComparison(index_name="cf2", mean_a=value, mean_b=1.0, delta=value, verdict="A")
    with pytest.raises(ValueError, match="JSON compliant"):
        render_comparison_json(CorpusComparison(corpus_a="a", corpus_b="b", rows=(row,)))


# Values for the streamed summary: subnormals, signed zeros, 1/3 and magnitudes
# up to 1e300, low enough that no sum of a million of them overflows.
summary_floats = st.sampled_from([5e-324, -5e-324, 0.0, -0.0, 1 / 3, 1e300, -1e300]) | st.floats(-1e300, 1e300)


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([_MEMO_SIZE - 1, _MEMO_SIZE, _MEMO_SIZE + 1, 2 * _MEMO_SIZE + 1]) | st.integers(1, 300),
    st.lists(summary_floats, min_size=1, max_size=6),
    st.integers(0, 2**32),
)
# Signed zeros, where min or max is the zero seen first: across the memo cap (the min, then the max),
# and among remembered signatures (both).
@example(signatures=_MEMO_SIZE + 1, pool=[5e-324, -0.0, 5e-324], seed=3)
@example(signatures=_MEMO_SIZE + 1, pool=[-5e-324, 0.0, -0.0], seed=0)
@example(signatures=8, pool=[0.0, -0.0, 5e-324], seed=0)
def test_streamed_summary_equals_fmean_min_max(signatures, pool, seed):
    # (value, count) pairs: one signature per value, with every index equal to
    # it, and count sentences that have it, shuffled into one corpus.
    rng = random.Random(seed)
    values = [rng.choice(pool) * (rng.random() if rng.random() < 0.5 else 1.0) for _ in range(signatures)]
    repeats = [rng.randint(4, 100) if rng.random() < 0.02 else rng.randint(1, 3) for _ in range(signatures)]
    sentences = [(1, 0, switches, {"L1": 1}) for switches, count in enumerate(repeats) for _ in range(count)]
    rng.shuffle(sentences)

    def metrics(counts, _):
        return SentenceMetrics(*[values[counts.switch_count]] * 7)

    with mock.patch("codemix.stats.metrics_from_counts", metrics):
        report = _fold("pairs", sentences, DEFAULT_CONFIG)
    expanded = [values[switches] for _, _, switches, _ in sentences]
    expected = [min(expanded).hex(), max(expanded).hex(), fmean(expanded).hex()]
    for index_name in INDEX_NAMES:
        row = report.summary_row(index_name)
        assert [row.min.hex(), row.max.hex(), row.mean.hex()] == expected
