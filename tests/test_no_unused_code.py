"""Every function in src/ has a caller in src/, so code kept only for tests
or demos cannot build up there.

A top-level function counts as called when another function's body names it:
bare inside its own module or where it was imported by name, or as an
attribute of a name bound to its module. A non-dunder method counts as called
when another function's body reads an attribute of that name from anything.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "synmatch"

# entry points: called from outside src/ by design
ENTRY_POINTS = {
    "cli.main",                     # the console script
    "embeddings.save_embeddings",   # the embedding file format's writer
    "cli._Parser.error",            # argparse's hook for usage errors
    # perfbench's checks compare it; ROADMAP item 3 switches them to the
    # token arrays and retires it
    "corpus.CorpusData.lines",
}


def _functions(tree):
    """(qualified name, kind, def node) for top-level functions and for the
    methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, "function", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    yield f"{node.name}.{item.name}", "method", item


def _is_dunder(qualname):
    name = qualname.split(".")[-1]
    return name.startswith("__") and name.endswith("__")


def _imports(tree):
    """Local names bound by relative imports: module aliases, and names
    imported from a sibling module, mapped to (module, name)."""
    modules, names = {}, {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                local = alias.asname or alias.name
                if node.module is None:
                    modules[local] = alias.name
                else:
                    names[local] = (node.module, alias.name)
    return modules, names


def _references(module, tree, defs):
    """For each def node of the module: the set of functions its body refers
    to, as ("function", module, name) and ("method", None, name)."""
    modules, names = _imports(tree)
    out = {}
    for _, _, node in defs:
        refs = set()
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add(("function",) + names.get(sub.id, (module, sub.id)))
            elif isinstance(sub, ast.Attribute):
                refs.add(("method", None, sub.attr))
                if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    refs.add(("function", modules[sub.value.id], sub.attr))
        out[id(node)] = refs
    return out


def _parsed():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unreferenced():
    """Top-level functions and non-dunder methods that no other function in
    src/ refers to, less the entry points."""
    parsed = _parsed()
    defs = {module: list(_functions(tree)) for module, tree in parsed.items()}
    refs = {}
    for module, tree in parsed.items():
        refs.update(_references(module, tree, defs[module]))
    missing = []
    for module, items in defs.items():
        for qualname, kind, node in items:
            if _is_dunder(qualname) or f"{module}.{qualname}" in ENTRY_POINTS:
                continue
            key = ("method", None, qualname.split(".")[-1]) if kind == "method" \
                else ("function", module, qualname)
            if not any(key in found for caller, found in refs.items() if caller != id(node)):
                missing.append(f"{module}.{qualname}")
    return missing


def test_every_src_function_has_a_src_caller():
    assert unreferenced() == []


def test_entry_points_exist():
    found = {f"{module}.{name}" for module, tree in _parsed().items()
             for name, _, _ in _functions(tree)}
    assert ENTRY_POINTS <= found
