"""Count the code lines and all lines of Python files.

A code line is a line that is not blank, not only a comment and not part
of a docstring (the first statement of a module, class or function, when
it is a string). Docstrings are found with `ast`, comments and blank
lines with `tokenize`; a statement split over several lines counts each
of them, and so does a string that is not a docstring.

    python tools/code_lines.py PATH...

Each PATH is a file or a directory, searched for `*.py`. One line per
file, then a total: code lines, all lines, path.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def count(source: str) -> tuple[int, int]:
    """(code lines, all lines) of one module's source."""
    docstrings = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and ast.get_docstring(node) is not None:
            doc = node.body[0]
            docstrings.update(range(doc.lineno, doc.end_lineno + 1))
    code = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            code.update(range(tok.start[0], tok.end[0] + 1))
    return len(code - docstrings), len(source.splitlines())


def main(argv: list[str]) -> int:
    if not argv:
        print("usage: python tools/code_lines.py PATH...", file=sys.stderr)
        return 2
    files = []
    for arg in map(Path, argv):
        files.extend(sorted(arg.rglob("*.py")) if arg.is_dir() else [arg])
    total_code = total_lines = 0
    for path in files:
        code, lines = count(path.read_text(encoding="utf-8"))
        total_code += code
        total_lines += lines
        print("%6d %6d %s" % (code, lines, path))
    print("%6d %6d total" % (total_code, total_lines))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
