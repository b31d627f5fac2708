"""Raw and code lines of the Python files under a directory.

Run from the root of a checkout: ``python .github/line_count.py src/netconv``
prints ``<raw> raw lines, <code> code lines``. Code lines leave out blank
lines, lines that hold only a comment, and docstrings (the string that
opens a module, class or function body, found with ``ast``).
"""

import ast
import sys
from pathlib import Path


def counts(path: Path) -> tuple[int, int]:
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docstrings = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            docstrings.update(range(node.body[0].lineno, node.body[0].end_lineno + 1))
    code = sum(1 for number, line in enumerate(lines, 1)
               if line.strip() and not line.lstrip().startswith("#") and number not in docstrings)
    return len(lines), code


if __name__ == "__main__":
    raw, code = map(sum, zip(*(counts(p) for p in sorted(Path(sys.argv[1]).glob("*.py")))))
    print(f"{raw} raw lines, {code} code lines")
