"""Rules on the package source itself."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_no_assert_statements_under_src():
    # `python -O` strips assert statements; invariant checks must raise instead.
    files = sorted(SRC.rglob("*.py"))
    assert files, f"no sources under {SRC}"
    found = [
        f"{path.relative_to(SRC)}:{node.lineno}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_touches_no_collector_setting():
    # A gain measured with the collector switched off or retuned is not one
    # the program keeps; the package leaves `gc` to its caller.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            found += [f"{path.relative_to(SRC)}:{node.lineno}" for name in names if name == "gc"]
    assert found == []


def test_oracles_import_nothing_from_the_package_but_the_graph():
    # verify.py recomputes from adjacency and colors; reading engine code
    # would let an engine bug hide in its own oracle.
    path = SRC / "colorbench" / "verify.py"
    imported = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.ImportFrom):
            if node.level:
                imported.append("." * node.level + (node.module or ""))
            elif node.module.split(".")[0] == "colorbench":
                imported.append(node.module)
        elif isinstance(node, ast.Import):
            imported += [a.name for a in node.names if a.name.split(".")[0] == "colorbench"]
    assert imported == [".graph"]


def test_no_edge_object_is_built_on_the_update_path():
    # The graph keeps an edge as two adjacency slots; an EdgeHandle is only
    # the query view that DynamicGraph.handle returns.
    found = []
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        allowed = set()
        for cls in tree.body:
            if isinstance(cls, ast.ClassDef) and cls.name == "DynamicGraph":
                for fn in cls.body:
                    if isinstance(fn, ast.FunctionDef) and fn.name == "handle":
                        allowed = set(map(id, ast.walk(fn)))
        found += [
            f"{path.relative_to(SRC)}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and getattr(node.func, "id", getattr(node.func, "attr", None)) == "EdgeHandle"
            and id(node) not in allowed
        ]
    assert found == []


def test_no_dict_is_built_on_the_update_path():
    # An engine hook returns its receipt values as a tuple, and apply wraps
    # them in a tuple receipt; a dict is built only when `stats` is read.
    found, checked = [], []
    for path in sorted(SRC.rglob("*.py")):
        for cls in ast.parse(path.read_text(), filename=str(path)).body:
            if not isinstance(cls, ast.ClassDef):
                continue
            for fn in cls.body:
                if not isinstance(fn, ast.FunctionDef) or not (
                    fn.name in ("on_insert", "on_delete")
                    or (cls.name, fn.name) == ("DynamicGraph", "apply")
                ):
                    continue
                checked.append(f"{cls.name}.{fn.name}")
                found += [
                    f"{path.relative_to(SRC)}:{node.lineno}"
                    for node in ast.walk(fn)
                    if isinstance(node, (ast.Dict, ast.DictComp))
                    or (isinstance(node, ast.Call) and getattr(node.func, "id", None) == "dict")
                ]
    assert "DynamicGraph.apply" in checked and len(checked) == 9
    assert found == []
