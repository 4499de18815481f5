"""The README's code examples run as written and print what they say."""

from __future__ import annotations

import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def _python_blocks() -> list[str]:
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(encoding="utf-8"), flags=re.M | re.S)


def test_sentence_example_prints_its_cmi():
    (block,) = [b for b in _python_blocks() if "Sentence(" in b]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, str(README), "exec"), {})
    assert out.getvalue() == "50.0\n"
