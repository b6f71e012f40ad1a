"""Check that ``src/repro/encoding.py`` is the only author of key and value text.

Every digest, hash and sort key that replicas must agree on reads its text
from :mod:`repro.encoding` (``encode`` / ``key_text``; the grammar is in
``docs/artifacts.md``). This walks every other module under ``src/repro``
and reports each use of the builtin ``repr`` — a call, or the name passed
as a sort key — and each ``!r`` conversion in an f-string, unless it sits
in an error message: inside a ``raise`` statement, in the arguments of an
exception constructor (a callee named ``…Error`` / ``…Exception``), or in
a function :data:`MESSAGES` lists with its reason.

Usage: ``python3 tools/one_encoding.py [root]`` (default ``src/repro``);
prints one ``path:line: …`` per finding and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

OWNER = "encoding.py"

#: (module under the root, function) -> why its ``repr`` text is a message
MESSAGES = {
    ("bench/claims.py", "failures"): "a failing claim's verdict line, printed by make figures",
}


def _is_exception_call(node: ast.AST) -> bool:
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    return name.endswith(("Error", "Exception"))


def findings(path: Path, module: str) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out: list[str] = []

    def walk(node: ast.AST, in_message: bool) -> None:
        in_message = (
            in_message
            or isinstance(node, ast.Raise)
            or _is_exception_call(node)
            or (isinstance(node, ast.FunctionDef) and (module, node.name) in MESSAGES)
        )
        if not in_message:
            if isinstance(node, ast.Name) and node.id == "repr" and isinstance(node.ctx, ast.Load):
                out.append(f"{path}:{node.lineno}: repr outside {OWNER}")
            elif isinstance(node, ast.FormattedValue) and node.conversion == ord("r"):
                out.append(f"{path}:{node.lineno}: !r outside {OWNER}")
        for child in ast.iter_child_nodes(node):
            walk(child, in_message)

    walk(tree, False)
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    modules = {path.relative_to(root).as_posix(): path for path in root.rglob("*.py")}
    found = [
        line
        for module, path in sorted(modules.items())
        if module != OWNER
        for line in findings(path, module)
    ]
    print("\n".join(found) if found else "one-encoding: ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
