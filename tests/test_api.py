"""Every top-level name of src/hgct is one that the program reads.

The program is src/hgct itself, its CLI included, and perfbench/, which
wraps functions by name (for example "kabsch_svd"), so a string constant
there counts as a read. Helpers only tests need live under tests/.
"""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "hgct"
PERFBENCH = ROOT / "perfbench"


def _parse(path: pathlib.Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def _is_dunder(name: str) -> bool:
    return name.startswith("__") and name.endswith("__")


def defined_names(tree: ast.Module):
    """Top-level functions, classes and assigned names, without dunders."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                names.update(n.id for n in ast.walk(target) if isinstance(n, ast.Name))
    return {n for n in names if not _is_dunder(n)}


def read_names(tree: ast.Module, strings: bool):
    """Names loaded and attributes taken in the tree, plus its string
    constants when `strings`."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def unread_names():
    """{module: sorted names no program code reads}, modules with none left out."""
    read = set()
    for path in SRC.glob("*.py"):
        read |= read_names(_parse(path), strings=False)
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            read |= read_names(_parse(path), strings=True)
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        names = sorted(defined_names(_parse(path)) - read)
        if names:
            unread[path.stem] = names
    return unread


def test_every_top_level_name_is_read_by_the_program():
    assert (SRC / "pipeline.py").is_file() and (PERFBENCH / "layers.py").is_file()
    assert unread_names() == {}


def test_the_scan_sees_definitions_and_reads():
    tree = ast.parse("import os\n"
                     "A = 1\n"
                     "B: int = 2\n"
                     "C, (D, E) = 3, (4, 5)\n"
                     "__all__ = []\n"
                     "def f(x=A):\n    return g.h + x\n"
                     "class K:\n    def method(self):\n        return 'B'\n")
    assert defined_names(tree) == {"A", "B", "C", "D", "E", "f", "K"}
    assert read_names(tree, strings=False) == {"A", "int", "g", "h", "x"}
    assert "B" in read_names(tree, strings=True)
