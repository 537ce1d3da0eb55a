"""The package's docstrings and comments state contracts, not measurements.

A timing, a memory size or a percentage in `src/hartreelab` goes stale with
the next change to the code it describes.  Such figures live in README's
module rows, in ROADMAP item 12, or in the tool that prints them
(`tools/propagator_drift.py`, `tools/peak_memory.py`, `tools/equivalence.py`,
`benchmarks/bench.py`).
"""

import io
import re
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "hartreelab"

#: a number, not an exponent or part of a name, followed by a time unit, a
#: memory unit or a percent sign
FIGURE = re.compile(r"(?<![\w.^])\d+(?:\.\d+)?(?:[eE][-+]?\d+)?[ \t]*"
                    r"(?:(?:s|ms|us|µs|KiB|MiB|GiB)\b|%)")


def _prose(text: str):
    """(line, text) of every comment and every docstring: a string that is a
    statement of its own."""
    toks = list(tokenize.generate_tokens(io.StringIO(text).readline))
    opens = (tokenize.NEWLINE, tokenize.NL, tokenize.INDENT, tokenize.DEDENT)
    for i, tok in enumerate(toks):
        if tok.type == tokenize.COMMENT:
            yield tok.start[0], tok.string
        elif (tok.type == tokenize.STRING and (i == 0 or toks[i - 1].type in opens)
              and toks[i + 1].type in (tokenize.NEWLINE, tokenize.ENDMARKER)):
            yield tok.start[0], tok.string


def _figures(text: str) -> list:
    """(line, figure) of every match of FIGURE in the prose of text."""
    return [(start + k, m.group())
            for start, prose in _prose(text)
            for k, line in enumerate(prose.splitlines())
            for m in FIGURE.finditer(line)]


def test_figure_pattern():
    # [TRIVIAL] the pattern takes timings, sizes and percentages in a
    # docstring or a comment, and leaves exponents, names and code alone
    text = ('"""took 4.2 us against 5.0 µs, 0.67 / 0.49 / 0.50 s"""\n'
            "x = 1  # 3.6 MiB at n = 512, 44 % of the rows, 2 ms\n"
            "y = '8 MiB'   # k^2 s, (s^2/2) c, x2 s, 1e-13, 2 MiBx\n"
            "def f():\n    '''1.5 GiB; 12 KiB'''\n")
    assert [fig for _, fig in _figures(text)] == [
        "4.2 us", "5.0 µs", "0.50 s", "3.6 MiB", "44 %", "2 ms", "1.5 GiB", "12 KiB"]


@pytest.mark.parametrize("module", sorted(p.name for p in SRC.glob("*.py")))
def test_no_measured_figure_in_docstrings_or_comments(module):
    # [TRIVIAL] no docstring or comment of the package carries a number with
    # a time unit, a memory unit or a percent sign
    hits = _figures((SRC / module).read_text(encoding="utf-8"))
    assert not hits, "\n".join(f"line {line}: {fig!r}" for line, fig in hits)
