"""Every top-level name of src/hgct, and every member of its classes, is
one that the program reads, and every optional parameter of its functions
is one that the program passes.

The program is src/hgct itself, its CLI included, and perfbench/, which
wraps functions by name (for example "kabsch_svd"), so a string constant
there counts as a read. Helpers only tests need live under tests/. The scans
go by name: a member counts as read when any attribute or name of the
program has its name, and a call passes a parameter when it calls a function
of that name (`Class(...)` calls `Class.__init__`) and passes the parameter
by keyword, by position, or through `*` or `**`. A parameter value that only
tests select (a None mode, say) is not a name, and no scan sees it.
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


# cli.main's argv: the seam through which tests drive the CLI
PARAMETERS_ONLY_TESTS_PASS = {"cli.main.argv"}


def optional_parameters(tree: ast.Module):
    """(callable name, dotted path, parameter, position) for every parameter
    with a default of every function in the tree, nested ones and methods
    included. A method's callable name is its own, or its class's for
    `__init__`, and its positions skip `self`; position is None for a
    keyword-only parameter. Dataclass fields have no `def` and are not
    listed."""
    out = []

    def visit(node, path, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, path + [child.name], True)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                offset = 1 if in_class else 0
                name = path[-1] if in_class and child.name == "__init__" else child.name
                dotted = ".".join(path + [child.name])
                first = len(positional) - len(args.defaults)
                for i, arg in enumerate(positional[first:], start=first):
                    out.append((name, dotted, arg.arg, i - offset))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        out.append((name, dotted, arg.arg, None))
                visit(child, path + [child.name], False)
            else:
                visit(child, path, in_class)

    visit(tree, [], False)
    return out


def calls(tree: ast.Module):
    """(called name, positional count, keyword names, starred, double-starred)
    for every call in the tree whose callee is a name or an attribute."""
    out = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name is None:
            continue
        keywords = {k.arg for k in node.keywords if k.arg is not None}
        out.append((name, len(node.args), keywords,
                    any(isinstance(a, ast.Starred) for a in node.args),
                    any(k.arg is None for k in node.keywords)))
    return out


def passes(call, name: str, param: str, position) -> bool:
    called, n_positional, keywords, starred, double_starred = call
    if called != name:
        return False
    if param in keywords or double_starred:
        return True
    return position is not None and (starred or position < n_positional)


def unpassed_parameters(modules, program_trees):
    """Sorted "module.function.parameter" of the optional parameters of
    `modules` ({name: tree}) that no call in `program_trees` passes."""
    program_calls = [c for tree in program_trees for c in calls(tree)]
    unpassed = []
    for module, tree in modules.items():
        for name, dotted, param, position in optional_parameters(tree):
            if not any(passes(c, name, param, position) for c in program_calls):
                unpassed.append(f"{module}.{dotted}.{param}")
    return sorted(unpassed)


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


def test_every_optional_parameter_is_passed_by_the_program():
    modules = {path.stem: _parse(path) for path in sorted(SRC.glob("*.py"))}
    program = list(modules.values()) + [_parse(path) for path in PERFBENCH.glob("*.py")
                                        if not path.name.startswith("test_")]
    unpassed = set(unpassed_parameters(modules, program))
    assert PARAMETERS_ONLY_TESTS_PASS <= unpassed
    assert unpassed - PARAMETERS_ONLY_TESTS_PASS == set()


def test_the_scan_sees_unpassed_parameters():
    lib = ast.parse("def f(a, b=1, c=2, *, d=3):\n    pass\n"
                    "def g(x=0, y=1):\n    pass\n"
                    "def h(x=0):\n    def inner(z=1):\n        pass\n    inner()\n"
                    "class K:\n"
                    "    def __init__(self, p=1, q=2):\n        pass\n"
                    "    def m(self, r=1):\n        pass\n")
    program = ast.parse("f(0, 5)\n"
                        "f(0, d=4)\n"
                        "g(*args)\n"
                        "h(**kw)\n"
                        "K(1)\n"
                        "obj.m()\n")
    assert unpassed_parameters({"lib": lib}, [lib, program]) == [
        "lib.K.__init__.q", "lib.K.m.r", "lib.f.c", "lib.h.inner.z"]
