"""List the statements of src/genlab that the test suite never runs.

The suite runs in this process under `sys.settrace` (and `threading.settrace`
for worker threads); every line event in a genlab file is recorded. Each
statement of each module is then checked: a simple statement counts as run
when any of its lines ran, a compound statement when any line of its header
(decorators included) ran. Docstrings and `nonlocal`/`global` declarations
are not statements that run, and `try:`/`else:`/`finally:` headers emit no
line of their own, so none of them is listed. Uses only the standard
library; code run in a subprocess (the CLI's entry-point tests) is not seen.

    python3 tools/linecov.py [pytest arguments...]

Prints one `path:line: source` per statement never run and a count; exits
with pytest's status.
"""
import ast
import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "genlab"


def _is_docstring(node: ast.stmt, parent: ast.AST) -> bool:
    body = getattr(parent, "body", None)
    return (
        isinstance(parent, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and bool(body) and body[0] is node
        and isinstance(node, ast.Expr)
        and isinstance(node.value, ast.Constant) and isinstance(node.value.value, str)
    )


def statements(source: str) -> list[tuple[int, range]]:
    """(first line, lines that count as running it) of each statement."""
    found = []
    tree = ast.parse(source)
    for parent in ast.walk(tree):
        for node in ast.iter_child_nodes(parent):
            if isinstance(node, ast.ExceptHandler):
                found.append((node.lineno, range(node.lineno, node.body[0].lineno)))
                continue
            if not isinstance(node, ast.stmt) or _is_docstring(node, parent):
                continue
            if isinstance(node, (ast.Nonlocal, ast.Global, ast.Try)):
                continue
            body = getattr(node, "body", None)
            if not body:
                found.append((node.lineno, range(node.lineno, node.end_lineno + 1)))
                continue
            decorators = getattr(node, "decorator_list", [])
            first = min([node.lineno] + [d.lineno for d in decorators])
            found.append((node.lineno, range(first, max(body[0].lineno, node.lineno + 1))))
    return found


def main() -> int:
    import pytest

    prefix = str(PACKAGE) + "/"
    ran: dict[str, set[int]] = {}

    def local(frame, event, arg):
        if event == "line":
            ran[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        ran.setdefault(filename, set())
        return local

    sys.path.insert(0, str(ROOT / "src"))
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        status = pytest.main(["-q", "-p", "no:cacheprovider", str(ROOT / "tests"), *sys.argv[1:]])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    missed = 0
    for path in sorted(PACKAGE.glob("*.py")):
        source = path.read_text()
        lines = source.splitlines()
        hit = ran.get(str(path), set())
        for lineno, span in sorted(statements(source)):
            if not hit.intersection(span):
                missed += 1
                print(f"{path.relative_to(ROOT)}:{lineno}: {lines[lineno - 1].strip()}")
    print(f"{missed} statements never ran")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
