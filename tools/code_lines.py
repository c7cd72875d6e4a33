"""Code lines of the engine package: per subdir of ``uniparser_ray/``
(top-level modules count as ``.``), the non-blank lines that are not
comments or docstrings, then the total.  Given ``.py`` files instead,
the same count for each file, then their total.

Usage: python tools/code_lines.py [repo_root | file.py ...]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from collections import Counter
from pathlib import Path

_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
         tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """Lines holding a token other than a comment, outside docstrings."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main() -> None:
    files = [a for a in sys.argv[1:] if a.endswith(".py")]
    if files:
        counts = {f: code_lines(Path(f).read_text()) for f in files}
    else:
        pkg = Path(sys.argv[1] if len(sys.argv) > 1 else
                   Path(__file__).resolve().parent.parent) / "uniparser_ray"
        subs: Counter = Counter()
        for f in sorted(pkg.rglob("*.py")):
            sub = f.parent.relative_to(pkg).parts
            subs[sub[0] if sub else "."] += code_lines(f.read_text())
        counts = dict(sorted(subs.items()))
    width = max([10, *map(len, counts)])
    for name, n in counts.items():
        print(f"{name:{width}s} {n:6d}")
    print(f"{'total':{width}s} {sum(counts.values()):6d}")


if __name__ == "__main__":
    main()
