"""Source hygiene: every imported name is read, only ``graph.py`` sorts,
compares or parses edge rows, no module of the package walks components
over edge tuples, no run path copies a whole edge array into Python lists,
every defaulted parameter of the public API is listed, every dataclass
field, every exported name, and every public method and property of an
exported class, has a reader outside the tests, and every termination and
abort reason of the pipeline is pinned by a test.

All are AST scans, as no linter runs.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "tests", "demos")


def exported_names(tree: ast.Module) -> list[str]:
    """The names in a module-level ``__all__``, if there is one."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return list(ast.literal_eval(node.value))
    return []


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
    read |= set(exported_names(tree))
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
    # a field only the tests read is a test oracle, as for exported names
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for folder in ("src", "demos", "perfbench")
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


def imported_modules(tree: ast.Module) -> set[str]:
    """Every module a module imports from or imports, by its last dotted part;
    ``from . import m`` counts as importing ``m``."""
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module:
            found.add(node.module.rpartition(".")[2])
        elif isinstance(node, ast.ImportFrom):
            found |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            found |= {alias.name.rpartition(".")[2] for alias in node.names}
    return found


def test_imported_module_scan_counts_every_import_form():
    tree = ast.parse(
        "from .extract import x\nfrom . import colouring as c\n"
        "import pathfree.bins\nimport numpy as np\n"
    )
    assert imported_modules(tree) == {"extract", "colouring", "bins", "numpy"}


def test_extract_keeps_its_certificate_apart_from_the_verifier_walk():
    # the verifier re-checks what extraction certifies, so the two must not
    # share the component walker, and the verifier's label pass must not
    # share the extractor's propagation
    package = ROOT / "src" / "pathfree"
    extract = ast.parse((package / "extract.py").read_text())
    assert "components" not in imported_names(extract)
    verify = ast.parse((package / "verify.py").read_text())
    assert "extract" not in imported_modules(verify)
    assert not imported_names(verify) & {
        node.name for node in extract.body if isinstance(node, ast.FunctionDef)
    }


# numpy's text readers; read_edge_rows is the one row parser
TEXT_READERS = ("loadtxt", "genfromtxt", "fromstring")


def _is_op(node: ast.AST, op: type) -> bool:
    return isinstance(node, ast.BinOp) and isinstance(node.op, op)


def row_idioms(tree: ast.Module) -> list[int]:
    """Lines that sort whole edge rows, build ``u * n + v`` or packed row
    keys, or read rows from text with numpy.

    A sort is a ``lexsort`` of ``rows.T[::-1]`` or of ``(rows[:, 1], rows[:, 0])``.
    A key is ``a * n + b`` (or ``* vertex_count``) with ``a`` and ``b`` plain
    names or subscripts; such keys wrap in int64 once ``n`` passes 3.04e9.
    A packed key is any ``(a * b + c) * d + e``, the shape of row_order's
    ``((u - lo) * span + (v - lo)) * m + index``.
    A read is any call of a function named in ``TEXT_READERS``.
    """
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and ast.unparse(node.func).endswith(TEXT_READERS):
            found.append(node.lineno)
        elif isinstance(node, ast.Call) and ast.unparse(node.func).endswith("lexsort"):
            arg = ast.unparse(node.args[0]) if node.args else ""
            if arg.endswith(".T[::-1]") or re.fullmatch(
                r"\((\w+)\[:, 1\], \1\[:, 0\]\)", arg
            ):
                found.append(node.lineno)
        elif (
            _is_op(node, ast.Add)
            and _is_op(node.left, ast.Mult)
            and _is_op(node.left.left, ast.Add)
            and _is_op(node.left.left.left, ast.Mult)
        ):
            found.append(node.lineno)
        elif (
            _is_op(node, ast.Add)
            and _is_op(node.left, ast.Mult)
            and re.fullmatch(r"(\w+\.)?(n|vertex_count)", ast.unparse(node.left.right))
            and all(
                isinstance(x, (ast.Name, ast.Subscript))
                for x in (node.left.left, node.right)
            )
        ):
            found.append(node.lineno)
    return sorted(found)


def test_row_idiom_scan_flags_only_row_sorts_and_keys():
    tree = ast.parse(
        "o = np.lexsort(rows.T[::-1])\n"
        "o = np.lexsort((e[:, 1], e[:, 0]))\n"
        "k = u * n + v\n"
        "k = rows[:, 0] * g.vertex_count + rows[:, 1]\n"
        "o = np.lexsort((-counts, x))\n"  # not a row sort
        "y = float(p) ** 2 * n + float(p)\n"  # not a row key
        "y = x * stride + part[x]\n"
        "t = np.loadtxt(lines, dtype=np.int64)\n"
        "t = numpy.genfromtxt(f)\n"
        "t = np.fromstring(text, sep=' ')\n"
        "t = np.frombuffer(flat, dtype=np.int64)\n"  # not a text reader
        "k = ((u - lo_u) * span + (v - lo_v)) * m + np.arange(m)\n"
        "k = (e[:, 0] * s + e[:, 1]) * len(e) + i\n"
        "y = (a * x + b) + c * d\n"  # not a packed key
        "y = (a + b) * d + e\n"
    )
    assert row_idioms(tree) == [1, 2, 3, 4, 8, 9, 10, 12, 13]


def test_only_graph_sorts_and_compares_edge_rows():
    # graph.row_order and graph.repeats are the one row sort and the one
    # row comparison, and graph.read_edge_rows the one row parser; a second
    # copy elsewhere could drift, key rows in a way that wraps for large
    # vertex ids, or word its errors differently
    found = {
        path.name: row_idioms(ast.parse(path.read_text(), str(path)))
        for path in sorted((ROOT / "src" / "pathfree").glob("*.py"))
    }
    # row_order's packed key and its lexsort fallback, the loadtxt
    assert len(found.pop("graph.py")) == 3
    assert {name: lines for name, lines in found.items() if lines} == {}


def component_walks(tree: ast.Module) -> list[str]:
    """Where ``components`` is read, called or passed on, as the enclosing
    ``Class.method``, ``function`` or ``<module>``, once per read."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            name = getattr(child, "id", None) or getattr(child, "attr", None)
            if name == "components" and isinstance(child.ctx, ast.Load):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_component_walk_scan_counts_calls_and_references():
    tree = ast.parse(
        "from .graph import components\n"
        "def components(edges): pass\n"  # a definition is not a read
        "class C:\n"
        "    def walk(self):\n"
        "        return components(self.rows)\n"
        "def f(rows):\n"
        "    monochromatic_components(rows)\n"  # another name
        "    return list(map(graph.components, rows))\n"
        "walker = components\n"
    )
    assert component_walks(tree) == ["C.walk", "f", "<module>"]


def test_no_module_reads_the_component_walk():
    # the verifier cuts each searched component from its class's arrays;
    # the walk over edge tuples and its local adjacency are test oracles in
    # conftest.py, and a copy of either here would be a second way to reach
    # a component
    found = {}
    for path in sorted((ROOT / "src" / "pathfree").glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, ast.FunctionDef)
            and node.name in ("components", "_local_adjacency")
        }
        if walks := component_walks(tree) + sorted(defined):
            found[path.name] = walks
    assert found == {}


def whole_row_copies(tree: ast.Module) -> list[str]:
    """Where a whole edge array, or its ``.T``, is turned into Python lists by
    ``.tolist()``, as the enclosing ``Class.method``, ``function`` or
    ``<module>``, once per call.

    An edge array is any name or attribute called ``edge_array``; a row
    mask, a slice or a single column of one is not whole.
    """
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}" if scope else child.name)
                continue
            if (
                isinstance(child, ast.Call)
                and isinstance(child.func, ast.Attribute)
                and child.func.attr == "tolist"
                and re.fullmatch(r"(.+\.)?edge_array(\.T)?", ast.unparse(child.func.value))
            ):
                found.append(scope or "<module>")
            visit(child, scope)

    visit(tree, "")
    return found


def test_whole_row_copy_scan_flags_only_whole_arrays():
    tree = ast.parse(
        "x = edge_array.tolist()\n"
        "class G:\n"
        "    def edges(self):\n"
        "        return self.edge_array.tolist()\n"
        "def f(g):\n"
        "    u, v = g.edge_array.T.tolist()\n"
        "    e = g.edge_array[bad].tolist()\n"  # a row mask
        "    c = g.edge_array[:, 0].tolist()\n"  # a column
        "    w = g.edge_array.T[0].tolist()\n"
        "    r = rows.tolist()\n"  # another name
        "    for row in g.edge_array.tolist(): pass\n"
    )
    assert whole_row_copies(tree) == ["<module>", "G.edges", "f", "f"]


# the read-on-demand views, which no run path reads
ROW_COPY_VIEWS = {"graph.py: Graph.edges", "colouring.py: EdgeColouring.assignments"}


def test_no_run_path_copies_a_whole_edge_array_into_lists():
    # a list per row costs about 150 bytes an edge on top of the array, and
    # two column lists still hold an int object per endpoint: read the
    # columns, or convert a chunk of rows at a time
    found = [
        f"{path.name}: {scope}"
        for path in sorted((ROOT / "src" / "pathfree").glob("*.py"))
        for scope in whole_row_copies(ast.parse(path.read_text(), str(path)))
    ]
    assert [site for site in found if site not in ROW_COPY_VIEWS] == []


def defaulted_parameters(module: str, tree: ast.Module) -> list[str]:
    """``module.function(param)`` for each defaulted parameter of a public
    module-level function, in source order."""
    found = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef) or node.name.startswith("_"):
            continue
        args = node.args
        positional = args.posonlyargs + args.args
        named = positional[len(positional) - len(args.defaults) :] + [
            arg for arg, default in zip(args.kwonlyargs, args.kw_defaults) if default
        ]
        found += [f"{module}.{node.name}({arg.arg})" for arg in named]
    return found


def test_defaulted_parameter_scan_counts_positional_and_keyword_defaults():
    tree = ast.parse(
        "def f(a, b=1, *, c, d=2): pass\n"
        "def _g(x=1): pass\n"
        "class C:\n    def m(self, y=1): pass\n"
    )
    assert defaulted_parameters("m", tree) == ["m.f(b)", "m.f(d)"]


# Each entry is a default that a caller outside the tests and demos relies
# on.  A new one belongs here only once a second caller needs a value other
# than the default.
DEFAULTED_PARAMETERS = [
    "bins.compute_bins_stats(trials)",
    "bins.compute_bins_stats(seed)",
    "checks.run_all_checks(q_range)",
    "checks.run_all_checks(n_range)",
    "checks.run_all_checks(seed)",
    "checks.run_all_checks(schur_samples)",
    "checks.run_all_checks(mc_seeds)",
    "checks.run_all_checks(mc_trials)",
    "checks.run_all_checks(expectation)",
    "cli.main(argv)",
    "graph.read_edge_rows(extra)",
    "graph.plain_record(skip)",
    "verify.verify_colouring(cap)",
]


def test_every_defaulted_parameter_is_listed():
    # each default doubles the configurations the tests must cover
    found = [
        entry
        for path in sorted((ROOT / "src" / "pathfree").glob("*.py"))
        for entry in defaulted_parameters(path.stem, ast.parse(path.read_text()))
    ]
    assert found == DEFAULTED_PARAMETERS
    assert len(found) == 13


def exported_members(tree: ast.Module) -> list[str]:
    """``Class.member`` for each public method and property defined in the
    body of a class that the module exports, in source order."""
    exported = set(exported_names(tree))
    return [
        f"{cls.name}.{node.name}"
        for cls in tree.body
        if isinstance(cls, ast.ClassDef) and cls.name in exported
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    ]


def unread_exports(trees: dict[str, ast.Module]) -> list[str]:
    """Exported names, and public methods and properties of exported
    classes, that no module in ``trees`` reads, as ``path: name`` or
    ``path: Class.member``.

    A read is a name or attribute load of that name anywhere in ``trees``,
    or a string in a ``PATCH_POINTS`` assignment (the tracer looks its
    patch points up by name).  A definition, an import (such as a package
    re-export) and an ``__all__`` entry are not reads.
    """
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "PATCH_POINTS" for t in node.targets
            ):
                read |= {
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                }
    return [
        f"{path}: {name}"
        for path, tree in trees.items()
        for name in exported_names(tree) + exported_members(tree)
        if name.rpartition(".")[2] not in read
    ]


def test_unread_exports_scan_counts_only_real_reads():
    package = ast.parse(
        "from .m import f, g, h, k\n__all__ = ['f', 'g', 'h', 'k']\n"
    )
    module = ast.parse(
        "__all__ = ['f', 'g', 'h', 'k', 'C']\n"
        "def f(): pass\ndef g(): pass\ndef h(): pass\ndef k(): pass\n"
        "class C:\n"
        "    def read(self): pass\n"
        "    def unread(self): pass\n"
        "    @property\n    def shown(self): pass\n"
        "    @property\n    def hidden(self): pass\n"
        "    def _own(self): pass\n"  # private: not listed
        "    def __iter__(self): pass\n"
        "class D:\n    def unread(self): pass\n"  # not exported: not listed
        "x = C()\n"
    )
    caller = ast.parse(
        "import m\nm.g()\nPATCH_POINTS = (('m', 'h', 'm.h'),)\ny = 'k'\n"
        "m.C().read()\nprint(m.C().shown)\nm.C().hidden = 1\n"  # a store
    )
    trees = {"p/__init__.py": package, "p/m.py": module, "run.py": caller}
    assert unread_exports(trees) == [
        "p/__init__.py: f",
        "p/__init__.py: k",
        "p/m.py: f",
        "p/m.py: k",
        "p/m.py: C.unread",
        "p/m.py: C.hidden",
    ]


def test_every_exported_name_has_a_reader_outside_the_tests():
    # a name only the tests read is a test oracle and belongs in tests/; so
    # is a public method or property of an exported class
    paths = [
        *sorted((ROOT / "src").rglob("*.py")),
        *sorted((ROOT / "demos").rglob("*.py")),
        *sorted((ROOT / "perfbench").glob("*.py")),
    ]
    trees = {
        str(path.relative_to(ROOT)): ast.parse(path.read_text(), str(path))
        for path in paths
    }
    assert unread_exports(trees) == []


def assigned_strings(
    tree: ast.Module, target: str, call: tuple[str, int] | None = None
) -> list[str]:
    """The string constants assigned to the name ``target`` (plainly, with an
    annotation or as a keyword argument) or passed to ``call``, a function
    name and the index of the argument, in source order."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AnnAssign)) and any(
            isinstance(t, ast.Name) and t.id == target
            for t in getattr(node, "targets", [getattr(node, "target", None)])
        ):
            value = node.value
        elif isinstance(node, ast.keyword) and node.arg == target:
            value = node.value
        elif (
            call is not None
            and isinstance(node, ast.Call)
            and ast.unparse(node.func) == call[0]
            and len(node.args) > call[1]
        ):
            value = node.args[call[1]]
        else:
            continue
        if isinstance(value, ast.Constant) and isinstance(value.value, str):
            found.append((value.lineno, value.col_offset, value.value))
    return [reason for *_, reason in sorted(found)]


def unpinned(reasons: list[str], tests: ast.Module) -> list[str]:
    """The ``reasons`` that no string in ``tests`` holds."""
    pinned = {
        node.value
        for node in ast.walk(tests)
        if isinstance(node, ast.Constant) and isinstance(node.value, str)
    }
    return [reason for reason in reasons if reason not in pinned]


def test_termination_scan_flags_only_unpinned_reasons():
    source = ast.parse(
        "termination = 'pinned'\n"
        "if stuck:\n    termination = 'planted'\n"
        "termination = other\n"  # not a string
        "label = 'unset'\n"  # not a termination
        "done = _finish(g, params, spending, 'direct', 'case')\n"
        "abort: str | None = 'typed'\n"
        "trace = Trace(abort='keyword', other='not')\n"
    )
    tests = ast.parse(
        "assert result.termination_reason == 'pinned'\n"
        "reasons = ['direct']  # 'planted' only in a comment\n"
    )
    terminations = assigned_strings(source, "termination", ("_finish", 3))
    assert terminations == ["pinned", "planted", "direct"]
    assert unpinned(terminations, tests) == ["planted"]
    assert assigned_strings(source, "abort") == ["typed", "keyword"]


PIPELINE = ROOT / "src" / "pathfree" / "pipeline.py"
PIPELINE_TESTS = ROOT / "tests" / "test_pipeline.py"


def test_every_termination_reason_is_pinned():
    # a reason no test reaches could be unreachable, as "stalled" was: a
    # round always extracts once, so it either aborts or spends a colour
    source = ast.parse(PIPELINE.read_text())
    reasons = assigned_strings(source, "termination", ("_finish", 3))
    assert sorted(reasons) == [
        "degree-floor",
        "edge-floor",
        "extraction-failed",
        "k3-direct",
        "round-budget-exhausted",
    ]
    assert unpinned(reasons, ast.parse(PIPELINE_TESTS.read_text())) == []


def test_every_abort_reason_is_pinned():
    # "empty-extraction" was unreachable: every trial of a piece with an
    # edge keeps an edge (tests/test_extract.py)
    reasons = assigned_strings(ast.parse(PIPELINE.read_text()), "abort_reason")
    assert reasons == ["uncertified-extraction"]
    assert unpinned(reasons, ast.parse(PIPELINE_TESTS.read_text())) == []
