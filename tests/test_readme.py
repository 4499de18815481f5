"""The README's code examples run as written and print what they say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

from codemix import parse_column_format

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_sentence_example_prints_its_cmi():
    (block,) = [b for b in _python_blocks() if "Sentence(" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "50.0\n"


def test_library_example_reads_a_file_with_a_bom(tmp_path, monkeypatch):
    (block,) = [b for b in _python_blocks() if "corpus.tags" in b]
    case6 = README.parent / "fixtures" / "case6.tags"
    (tmp_path / "corpus.tags").write_bytes(b"\xef\xbb\xbf" + case6.read_bytes())
    monkeypatch.chdir(tmp_path)
    out, namespace = io.StringIO(), {}
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), namespace)
    assert out.getvalue() == (
        "40.0 64.0\n"
        "SentenceMetrics(language_factor=2.5, switching_factor=1.0, mix_factor=0.4,"
        " cmi=40.0, cf1=28.0, cf2=64.0, cf3=62.00830413316129)\n"
    )
    assert namespace["corpus"] == parse_column_format(case6.read_text(encoding="utf-8"))
