"""Check that no ``slots=True`` dataclass calls a zero-argument ``super()``.

``@dataclass(slots=True)`` returns a *new* class. A method's zero-argument
``super()`` still names the original one through its ``__class__`` cell,
so on Python 3.11 the call raises ``TypeError`` on every instance — and
where a caller turns ``TypeError`` into a verdict (``apply_safely``'s no-op,
the simulation step's EXECUTION_ERROR abort) the bug passes as behaviour.
Name the base instead: ``Base.method(self, ...)``.

This walks every module under ``src/repro`` and reports each ``super()``
call with no arguments inside a class decorated ``@dataclass(...,
slots=True, ...)`` (nested functions included).

Usage: ``python3 tools/slotted_super.py [root]`` (default ``src/repro``);
prints one ``path:line: …`` per finding and exits 1 if there is any.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _is_slotted_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        if not isinstance(decorator, ast.Call):
            continue
        func = decorator.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
        if name == "dataclass" and any(
            kw.arg == "slots"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is True
            for kw in decorator.keywords
        ):
            return True
    return False


def findings(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    out: list[str] = []
    for cls in ast.walk(tree):
        if not (isinstance(cls, ast.ClassDef) and _is_slotted_dataclass(cls)):
            continue
        for node in ast.walk(cls):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Name)
                and node.func.id == "super"
                and not node.args
                and not node.keywords
            ):
                out.append(
                    f"{path}:{node.lineno}: zero-argument super() in slotted"
                    f" dataclass {cls.name}"
                )
    return out


def main(argv: list[str]) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/repro")
    found = [line for path in sorted(root.rglob("*.py")) for line in findings(path)]
    print("\n".join(found) if found else "slotted-super: ok")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
