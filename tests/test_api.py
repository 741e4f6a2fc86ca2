"""The public surface carries only what the package itself runs."""

import ast
from pathlib import Path

import dfadist

PACKAGE_DIR = Path(dfadist.__file__).parent


def test_every_public_name_has_a_caller():
    # a name read (called, raised, annotated, subclassed) by some module
    # other than __init__; definitions and imports are not reads
    read = set()
    for path in PACKAGE_DIR.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
    assert sorted(set(dfadist.__all__) - read) == []


def test_every_import_is_read():
    # a module reads each name it imports; __init__ only re-exports, and
    # the __future__ import is a compiler directive, not a name
    unread = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        read = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported.update(alias.asname or alias.name for alias in node.names)
            elif isinstance(node, ast.Import):
                imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
        unread.extend(f"{path.name}:{name}" for name in sorted(imported - read))
    assert unread == []


def test_no_function_calls_itself():
    # no recursion in the package: a deep input must not meet the
    # interpreter's recursion limit
    recursive = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.FunctionDef):
                continue
            for call in ast.walk(node):
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                if isinstance(func, ast.Name):
                    name = func.id
                elif (
                    isinstance(func, ast.Attribute)
                    and isinstance(func.value, ast.Name)
                    and func.value.id in ("self", "cls")
                ):
                    name = func.attr
                else:
                    continue
                if name == node.name:
                    recursive.append(f"{path.name}:{node.name}")
    assert recursive == []


def test_only_automata_marks_a_dfa_minimal():
    # the minimal flag lets minimize return its input as it is, so only
    # the module that numbers minimal automata may set it
    setters = []
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "__setattr__"
                and any(isinstance(a, ast.Constant) and a.value == "_minimal" for a in node.args)
            ):
                setters.append(path.name)
    assert setters and set(setters) == {"automata.py"}
