"""Independent checks of every output the benchmark times.

Counts (W, u, N, S, max_w and the language distribution) come from the
benchmark's own counts-only floor pass. Index values come from the
project's naive oracle in tests/naive_oracle.py, loaded read-only so the
formulas exist in one reference copy only. Each check returns a list of
problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import importlib.util
import io
import json
import math
import re
from statistics import fmean

from workloads import ROOT, FloorCounts, Workload, normalize, raw_tag_lists

INDICES = ("LF", "SF", "MF", "CMI", "CF1", "CF2", "CF3")
_NAIVE_KEYS = ("lf", "sf", "mf", "cmi", "cf1", "cf2", "cf3")
INDEPENDENT_LABEL = "Language Independent"
FULL = 1e-9  # tolerance for full-precision ("raw") values, relative above 1
ROUNDED = 0.005 + 1e-9  # tolerance for values printed with two decimals


def load_naive_metrics():
    path = ROOT / "tests" / "naive_oracle.py"
    spec = importlib.util.spec_from_file_location("naive_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.naive_metrics


def _close(actual: float, expected: float, tolerance: float) -> bool:
    return math.isfinite(actual) and abs(actual - expected) <= tolerance * max(1.0, abs(expected))


class Expected:
    """Everything the checks compare against, computed once per input text."""

    def __init__(self, text: str, fmt: str, floor: FloorCounts):
        naive_metrics = load_naive_metrics()
        self.floor = floor
        self.tokens = floor.tokens
        self.sentences = len(floor.rows)
        self.values = []  # per sentence: LF, SF, MF, CMI, CF1, CF2, CF3
        for row, raw_tags in zip(floor.rows, raw_tag_lists(text, fmt), strict=True):
            naive = naive_metrics([normalize(raw) for raw in raw_tags])
            if (naive["W"], naive["u"], naive["N"], naive["S"], naive["max_w"]) != row:
                raise RuntimeError(f"floor and naive oracle disagree on counts: {row} vs {naive}")
            self.values.append(tuple(naive[k] for k in _NAIVE_KEYS))
        cmi = [v[3] for v in self.values]
        mixed = [v for v in cmi if v > 0]
        self.cmi_all = fmean(cmi)
        self.cmi_mixed = fmean(mixed) if mixed else 0.0
        columns = {"cmi": 3, "cf1": 4, "cf2": 5, "cf3": 6}
        self.summary = {}
        for name, column in columns.items():
            values = [v[column] for v in self.values]
            self.summary[name] = (min(values), max(values), fmean(values))
        lengths = [float(r[0]) for r in floor.rows]
        self.summary["words_per_sentence"] = (min(lengths), max(lengths), fmean(lengths))
        self.distribution = [
            (code, floor.sentences[code], floor.words[code]) for code in sorted(floor.words, key=_registry_key)
        ]
        self.distribution.append((INDEPENDENT_LABEL, floor.independent_sentences, floor.independent_words))


def _registry_key(code: str) -> tuple[str, int]:
    match = re.fullmatch(r"(.*?)(\d+)", code)
    return (match.group(1), int(match.group(2))) if match else (code, -1)


def check_report_json(text: str, exp: Expected) -> list[str]:
    """`analyze --per-sentence` output, or render_report_json(per_sentence=True)."""
    try:
        payload = json.loads(text)
    except ValueError as exc:
        return [f"not JSON: {exc}"]
    problems = []
    if (payload.get("sentences"), payload.get("tokens")) != (exp.sentences, exp.tokens):
        problems.append(f"sentences/tokens {payload.get('sentences')}/{payload.get('tokens')}")
    for key, want in (("cmi_all", exp.cmi_all), ("cmi_mixed", exp.cmi_mixed)):
        if not _close(payload["raw"][key], want, FULL):
            problems.append(f"{key} {payload['raw'][key]!r} != {want!r}")
    got_dist = [(d["language"], d["sentences"], d["words"]) for d in payload["distribution"]]
    if got_dist != exp.distribution:
        problems.append(f"distribution {got_dist} != {exp.distribution}")
    for d in payload["distribution"]:
        if not _close(d["raw"]["percentage"], 100.0 * d["words"] / exp.tokens, FULL):
            problems.append(f"percentage of {d['language']}")
    for row in payload["summary"]:
        want = exp.summary[row["index"]]
        got = (row["raw"]["min"], row["raw"]["max"], row["raw"]["mean"])
        if not all(_close(g, w, FULL) for g, w in zip(got, want)):
            problems.append(f"summary {row['index']} {got} != {want}")
    rows = payload.get("per_sentence", [])
    if len(rows) != exp.sentences:
        return problems + [f"{len(rows)} per-sentence rows, expected {exp.sentences}"]
    for i, (row, counts, values) in enumerate(zip(rows, exp.floor.rows, exp.values)):
        if (row["index"], row["W"], row["u"], row["N"], row["S"]) != (i, *counts[:4]):
            problems.append(f"sentence {i}: counts {row}")
        elif not all(_close(row["raw"][k], v, FULL) for k, v in zip(INDICES, values)):
            problems.append(f"sentence {i}: raw {row['raw']} != {values}")
        if len(problems) > 5:
            break
    return problems


def check_per_sentence_csv(text: str, exp: Expected) -> list[str]:
    """`analyze --out csv`: integer columns exact, two-decimal columns within rounding."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["index", "W", "u", "N", "S", *INDICES]:
        return [f"bad header {rows[:1]}"]
    if len(rows) - 1 != exp.sentences:
        return [f"{len(rows) - 1} rows, expected {exp.sentences}"]
    problems = []
    for i, (row, counts, values) in enumerate(zip(rows[1:], exp.floor.rows, exp.values)):
        if [int(c) for c in row[:5]] != [i, *counts[:4]]:
            problems.append(f"row {i}: counts {row}")
        elif not all(_close(float(c), v, ROUNDED) for c, v in zip(row[5:], values)):
            problems.append(f"row {i}: values {row} != {values}")
        if len(problems) > 5:
            break
    return problems


_SUMMARY_LABELS = {"CMI": "cmi", "CF1": "cf1", "CF2": "cf2", "CF3": "cf3", "Words/sentence": "words_per_sentence"}


def check_stats(text: str, exp: Expected) -> list[str]:
    """`stats`: header counts, the distribution table and the summary table."""
    problems = []
    if f"sentences: {exp.sentences}  tokens: {exp.tokens}\n" not in text:
        problems.append("sentence/token line missing or wrong")
    match = re.search(r"CMI all: (\S+)  CMI mixed: (\S+)", text)
    if not match or not (_close(float(match[1]), exp.cmi_all, ROUNDED) and _close(float(match[2]), exp.cmi_mixed, ROUNDED)):
        problems.append("CMI line missing or wrong")
    cells = [re.split(r" {2,}", line) for line in text.splitlines()]
    dist = [(c[0], int(c[1]), int(c[2])) for c in cells if len(c) == 4 and c[1].isdigit()]
    if dist != exp.distribution:
        problems.append(f"distribution table {dist} != {exp.distribution}")
    summary = {_SUMMARY_LABELS[c[0]]: tuple(map(float, c[1:])) for c in cells if len(c) == 4 and c[0] in _SUMMARY_LABELS}
    if summary.keys() != exp.summary.keys():
        problems.append(f"summary rows {sorted(summary)}")
    for name, got in summary.items():
        if not all(_close(g, w, ROUNDED) for g, w in zip(got, exp.summary[name])):
            problems.append(f"summary {name} {got} != {exp.summary[name]}")
    return problems


def check_svg(text: str, exp: Expected) -> list[str]:
    circles = text.count("<circle ")
    if not text.startswith("<svg ") or not text.endswith("</svg>\n"):
        return ["not a complete SVG document"]
    return [] if circles == exp.sentences else [f"{circles} circles, expected {exp.sentences}"]


def check_compare_self(text: str, exp: Expected) -> list[str]:
    """`compare FILE FILE`: every index a TIE with delta 0 and the oracle's mean."""
    payload = json.loads(text)
    problems = []
    names = [row["index"] for row in payload["indices"]]
    if names != ["cmi", "cf1", "cf2", "cf3"]:
        problems.append(f"indices {names}")
    for row in payload["indices"]:
        raw = row["raw"]
        if row["verdict"] != "TIE" or raw["delta"] != 0 or raw["mean_a"] != raw["mean_b"]:
            problems.append(f"{row['index']}: not a tie: {row}")
        elif not _close(raw["mean_a"], exp.summary[row["index"]][2], FULL):
            problems.append(f"{row['index']}: mean {raw['mean_a']!r} != {exp.summary[row['index']][2]!r}")
    return problems


def check_generate(text: str, workload: Workload) -> list[str]:
    """`generate` output re-parses to its spec: count, lengths, UN placement, codes."""
    blocks = [block.split("\n") for block in text.split("\n\n") if block]
    if len(blocks) != workload.sentences or not text.endswith("\n\n"):
        return [f"{len(blocks)} sentences, expected {workload.sentences}"]
    lo, hi = workload.words
    codes = {f"L{i + 1}" for i in range(workload.languages)}
    for index, lines in enumerate(blocks):
        total = len(lines)
        undefined = int(workload.undefined_ratio * total + 1e-9)
        holes = {((i + 1) * total) // (undefined + 1) for i in range(undefined)}
        for position, line in enumerate(lines):
            surface, _, tag = line.partition("\t")
            want_tag_ok = tag == "UN" if position in holes else tag in codes
            if surface != f"w{position}" or not want_tag_ok or not lo <= total <= hi:
                return [f"sentence {index} token {position}: {line!r}"]
    return []
