"""Every top-level name in src/kronred has a caller in src/kronred or is
exported by the package (kronred/__init__.py): code that nobody calls is
deleted, not kept."""

import ast
import textwrap
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "kronred"


def parse_package(path):
    """{module name: its ast} of every module in the package at path."""
    return {p.stem: ast.parse(p.read_text(encoding="utf-8"), str(p)) for p in sorted(Path(path).glob("*.py"))}


def defined(stmt):
    """The names a top-level statement defines, imports aside."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return {stmt.name}
    targets = stmt.targets if isinstance(stmt, ast.Assign) else [getattr(stmt, "target", None)]
    return {n.id for t in targets if t is not None for n in ast.walk(t) if isinstance(n, ast.Name)}


def orphans(modules):
    """(module, name) of each top-level name, dunders aside, that no
    statement of the package reads, other than its own definition, and
    that __init__ does not import. A name read in a module counts for the
    module it is imported from there, else for that module itself."""
    exported = {(stmt.module, a.name) for stmt in modules["__init__"].body
                if isinstance(stmt, ast.ImportFrom) for a in stmt.names}
    called = set()
    for module, tree in modules.items():
        source = {a.asname or a.name: (stmt.module, a.name) for stmt in ast.walk(tree)
                  if isinstance(stmt, ast.ImportFrom) and stmt.level == 1 for a in stmt.names}
        for stmt in tree.body:
            own = defined(stmt)
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                    if node.id in source:
                        called.add(source[node.id])
                    elif node.id not in own:
                        called.add((module, node.id))
    return sorted(
        (module, name) for module, tree in modules.items() if module != "__init__"
        for stmt in tree.body for name in defined(stmt)
        if (module, name) not in called | exported and not name.startswith("__")
    )


def test_every_top_level_name_has_a_caller_or_is_exported():
    assert orphans(parse_package(PACKAGE)) == []


def test_orphans_are_found(tmp_path):
    files = {
        "__init__.py": "from .a import public\n",
        "a.py": """
            LIMIT = 3
            UNUSED = 4

            def public(x):
                return helper(x) + LIMIT

            def helper(x):
                return x

            def recursive(x):
                return recursive(x - 1) if x else 0
            """,
        "b.py": """
            from .a import helper

            def shadow():
                return helper(1)

            def helper_of_b():
                pass
            """,
    }
    for name, text in files.items():
        (tmp_path / name).write_text(textwrap.dedent(text))
    assert orphans(parse_package(tmp_path)) == [
        ("a", "UNUSED"), ("a", "recursive"), ("b", "helper_of_b"), ("b", "shadow")]


def test_files_and_processes_are_left_to_csvio():
    # simulate.py integrates; the CSV files, their pipes and their forked
    # children are csvio.py's alone
    modules = parse_package(PACKAGE)
    imported = {a.name for stmt in ast.walk(modules["simulate"]) if isinstance(stmt, ast.Import) for a in stmt.names}
    imported |= {stmt.module for stmt in ast.walk(modules["simulate"])
                 if isinstance(stmt, ast.ImportFrom) and stmt.level == 0}
    assert not imported & {"os", "io", "re", "shutil", "tempfile", "warnings", "contextlib"}
    naming = {module for module, tree in modules.items() for node in ast.walk(tree)
              if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id == "os"
              and node.attr in ("fork", "pipe")
              or isinstance(node, ast.ImportFrom) and node.module == "os"
              and {a.name for a in node.names} & {"fork", "pipe"}}
    assert naming == {"csvio"}
