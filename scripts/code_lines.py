"""Count the code lines of each module under a source tree: the physical
lines that hold a token, with blank lines, comments and docstrings left
out.  A line that only continues a multi-line string counts; a docstring's
lines do not.

    python scripts/code_lines.py [<tree>/src or <tree>/tests]

prints one ``<lines> <module>`` line per module and the total last.  The
count needs only the standard library, so it runs on any tree.
"""

import ast
import io
import sys
import tokenize
from pathlib import Path

NOT_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENCODING,
    tokenize.ENDMARKER,
}
SCOPES = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, SCOPES) and node.body:
            first = node.body[0]
            if (
                isinstance(first, ast.Expr)
                and isinstance(first.value, ast.Constant)
                and isinstance(first.value.value, str)
            ):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


def main(root: str) -> None:
    total = 0
    for path in sorted(Path(root).rglob("*.py")):
        n = code_lines(path.read_text())
        total += n
        print(n, path.relative_to(root))
    print(total, "total")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "src")
