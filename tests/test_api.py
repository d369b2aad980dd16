"""Every top-level name of src/hgct, and every member of its classes, is
one that the program reads.

The program is src/hgct itself, its CLI included, and perfbench/, which
wraps functions by name (for example "kabsch_svd"), so a string constant
there counts as a read. Helpers only tests need live under tests/. The scan
goes by name: a member counts as read when any attribute or name of the
program has its name.
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
            names |= _assigned(node)
    return {n for n in names if not _is_dunder(n)}


def _assigned(node) -> set:
    targets = node.targets if isinstance(node, ast.Assign) else [node.target]
    return {n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)}


def defined_members(tree: ast.Module):
    """(class, member) for the methods, properties and class-level fields of
    every top-level class, without dunders. An Enum's members are values the
    program reads through the class (GraphOrder.FOG), so they are left out."""
    members = set()
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        enum = any(isinstance(b, ast.Name) and b.id == "Enum" for b in node.bases)
        for item in node.body:
            if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                names = {item.name}
            elif isinstance(item, (ast.Assign, ast.AnnAssign)) and not enum:
                names = _assigned(item)
            else:
                continue
            members.update((node.name, n) for n in names if not _is_dunder(n))
    return members


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


def program_reads():
    read = set()
    for path in SRC.glob("*.py"):
        read |= read_names(_parse(path), strings=False)
    for path in PERFBENCH.glob("*.py"):
        if not path.name.startswith("test_"):
            read |= read_names(_parse(path), strings=True)
    return read


def unread_names():
    """{module: sorted names no program code reads}, modules with none left
    out. A class member is listed as "Class.member"."""
    read = program_reads()
    unread = {}
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = _parse(path)
        names = sorted(defined_names(tree) - read)
        names += sorted(f"{cls}.{member}" for cls, member in defined_members(tree)
                        if member not in read)
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


def test_the_scan_sees_class_members():
    tree = ast.parse("class K:\n"
                     "    x: int = 0\n"
                     "    y = z = 1\n"
                     "    def __init__(self):\n        pass\n"
                     "    @property\n    def p(self):\n        return 1\n"
                     "    def m(self):\n        return 2\n"
                     "class E(Enum):\n"
                     "    A = 'a'\n"
                     "    def f(self):\n        return 3\n"
                     "def top():\n    pass\n")
    assert defined_members(tree) == {("K", "x"), ("K", "y"), ("K", "z"), ("K", "p"),
                                     ("K", "m"), ("E", "f")}
