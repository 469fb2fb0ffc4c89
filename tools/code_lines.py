"""Count the code lines of Python modules.

A code line is a line that holds a token other than a comment or a
docstring; blank lines hold none.  A docstring is a string literal that
makes up a whole statement, such as the first statement of a module,
class or function.  Usage::

    python tools/code_lines.py [PATH ...]

Each PATH is a module or a directory searched for ``*.py``; the default is
``src/mwkit``.  One line is printed per module, then the total.  A PATH
that does not exist is reported on stderr, with exit status 1, before
anything is counted.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

# tokens that hold no code; NEWLINE, which ends a statement, is kept to find docstrings
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of code lines of the module at ``path``."""
    with path.open("rb") as fh:
        tokens = [t for t in tokenize.tokenize(fh.readline) if t.type not in _LAYOUT]
    lines: set[int] = set()
    for i, tok in enumerate(tokens):
        if tok.type == tokenize.NEWLINE:
            continue
        alone = (i == 0 or tokens[i - 1].type == tokenize.NEWLINE) and (
            i + 1 == len(tokens) or tokens[i + 1].type == tokenize.NEWLINE)
        if tok.type == tokenize.STRING and alone:
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def modules(paths: list[str]) -> list[Path]:
    found = []
    for name in paths:
        path = Path(name)
        found += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return found


def main(argv: list[str]) -> int:
    paths = argv or ["src/mwkit"]
    missing = next((name for name in paths if not Path(name).exists()), None)
    if missing is not None:
        print(f"error: {missing}: no such file or directory", file=sys.stderr)
        return 1
    total = 0
    for path in modules(paths):
        n = code_lines(path)
        total += n
        print(f"{n:6d}  {path}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
