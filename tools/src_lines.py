"""Line counts of two source trees' `hartreelab` package, and their net change.

    python tools/src_lines.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories holding the package `hartreelab`.  Each
line of each `*.py` file is counted once, from `tokenize`:

  - docstring: a line of a string statement, a string literal that stands
    alone as a logical line (module, class and function docstrings, and
    any other bare string), including its blank lines;
  - comment: a line whose only token is a comment;
  - blank: a line with no token;
  - code: every other line, a code line with a trailing comment included.
"""

from __future__ import annotations

import io
import sys
import tokenize
from pathlib import Path

KINDS = ("code", "docstring", "comment", "blank")
_NON_CODE = {tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
             tokenize.ENDMARKER}


def count_source(text: str) -> dict[str, int]:
    """Lines of `text` by kind."""
    kind = dict.fromkeys(range(1, len(text.splitlines()) + 1), "blank")
    tokens = list(tokenize.generate_tokens(io.StringIO(text).readline))
    for i, tok in enumerate(tokens):
        first, last = tok.start[0], tok.end[0]
        if tok.type == tokenize.COMMENT:
            if kind[first] == "blank":
                kind[first] = "comment"
        elif tok.type == tokenize.STRING and _stands_alone(tokens, i):
            kind.update(dict.fromkeys(range(first, last + 1), "docstring"))
        elif tok.type not in _NON_CODE:
            kind.update(dict.fromkeys(range(first, last + 1), "code"))
    return {k: sum(v == k for v in kind.values()) for k in KINDS}


def _stands_alone(tokens: list[tokenize.TokenInfo], i: int) -> bool:
    """Whether the string token i is a whole logical line."""
    before = next((t for t in reversed(tokens[:i]) if t.type not in
                   (tokenize.NL, tokenize.COMMENT, tokenize.INDENT, tokenize.DEDENT)), None)
    after = next(t for t in tokens[i + 1:] if t.type != tokenize.COMMENT)
    return ((before is None or before.type == tokenize.NEWLINE)
            and after.type in (tokenize.NEWLINE, tokenize.ENDMARKER))


def count_tree(src: str) -> dict[str, int]:
    """Summed counts of every module of `src`/hartreelab."""
    total = dict.fromkeys(KINDS, 0)
    for path in sorted((Path(src) / "hartreelab").glob("*.py")):
        for k, v in count_source(path.read_text()).items():
            total[k] += v
    return total


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[1].strip(), file=sys.stderr)
        return 2
    old, new = count_tree(argv[1]), count_tree(argv[2])
    net = {k: new[k] - old[k] for k in KINDS}
    print(f"{'':6}" + "".join(f"{k:>11}" for k in (*KINDS, "total")))
    for name, c, sign in (("OLD", old, ""), ("NEW", new, ""), ("net", net, "+")):
        print(f"{name:6}" + "".join(f"{v:>{sign}11,}" for v in (*c.values(), sum(c.values()))))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
