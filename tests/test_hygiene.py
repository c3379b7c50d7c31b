"""Source hygiene: every imported name and every dataclass field is read.

Both are AST scans, as no linter runs.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def unused_imports(tree: ast.Module) -> list[tuple[int, str]]:
    """Names bound by imports that nothing reads, as ``(line, name)``.

    ``__future__`` imports and names listed in a module-level ``__all__``
    (re-exports) do not count.
    """
    imported: dict[str, int] = {}
    read: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            read.add(node.id)
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_unused_imports_scan_flags_only_unread_names():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os.path\nimport json\nfrom typing import Any as A, List\n"
        "__all__ = ['List']\nprint(os.sep)\n"
    )
    assert unused_imports(tree) == [(3, "json"), (4, "A")]


def test_no_unused_imports():
    found = [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for folder in SCANNED
        for path in sorted((ROOT / folder).rglob("*.py"))
        for line, name in unused_imports(ast.parse(path.read_text(), str(path)))
    ]
    assert found == []


def _is_dataclass(decorator: ast.expr) -> bool:
    target = decorator.func if isinstance(decorator, ast.Call) else decorator
    name = getattr(target, "id", None) or getattr(target, "attr", None)
    return name == "dataclass"


def unread_fields(trees: dict[str, ast.Module]) -> list[str]:
    """Dataclass fields that no module reads as an attribute, as ``path:line: Class.field``.

    A read is any attribute load of that name anywhere in ``trees``, whatever
    the object.  Classes that define ``to_record`` do not count (their record
    reads every field), nor do ``ClassVar`` annotations.
    """
    read = {
        node.attr
        for tree in trees.values()
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    found = []
    for path, tree in trees.items():
        for cls in ast.walk(tree):
            if not isinstance(cls, ast.ClassDef):
                continue
            methods = {s.name for s in cls.body if isinstance(s, ast.FunctionDef)}
            if "to_record" in methods or not any(map(_is_dataclass, cls.decorator_list)):
                continue
            found.extend(
                f"{path}:{stmt.lineno}: {cls.name}.{stmt.target.id}"
                for stmt in cls.body
                if isinstance(stmt, ast.AnnAssign)
                and isinstance(stmt.target, ast.Name)
                and not ast.unparse(stmt.annotation).startswith("ClassVar")
                and stmt.target.id not in read
            )
    return found


def test_unread_fields_scan_flags_only_unread_fields():
    source = (
        "from dataclasses import dataclass\n"
        "@dataclass(frozen=True)\n"
        "class A:\n    x: int\n    y: int\n    z: ClassVar[int] = 0\n"
        "@dataclass\n"
        "class B:\n    w: int\n    def to_record(self):\n        return {}\n"
        "class C:\n    v: int\n"
        "print(A(1, 2).x)\n"
    )
    other = "a.y = 3\n"  # a store is not a read
    trees = {"m.py": ast.parse(source), "n.py": ast.parse(other)}
    assert unread_fields(trees) == ["m.py:5: A.y"]


def test_no_unread_dataclass_fields():
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for folder in SCANNED + ("perfbench",)
        for path in sorted((ROOT / folder).rglob("*.py"))
    }
    assert unread_fields(trees) == []


def imported_names(tree: ast.Module) -> set[str]:
    """Every name a module binds by an import."""
    return {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
        for alias in node.names
    }


def test_extract_keeps_its_certificate_apart_from_the_verifier_walk():
    # the verifier re-checks what extraction certifies, so the two must not
    # share the component walker
    path = ROOT / "src" / "pathfree" / "extract.py"
    assert "components" not in imported_names(ast.parse(path.read_text(), str(path)))
