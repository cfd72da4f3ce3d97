"""Every function in src/ has a caller in src/, every field of a dataclass
or NamedTuple there a reader, and every function parameter a read in its
function, so code kept only for tests or demos cannot build up there.

A top-level function counts as called when another function's body names it:
bare inside its own module or where it was imported by name, or as an
attribute of a name bound to its module. A non-dunder method counts as called
when another function's body reads an attribute of that name; a property
only when that read is not the callee of a call, so a call `x.name(...)` of
a same-named method does not keep a property alive.  An attribute a method
takes from its first parameter, `self.name`, names its own class's member
and no other; any other attribute read is matched by name alone, so a method
that shares its name with another class's method is kept alive by callers
of that method through anything but `self`, which is how a `to_text` with
no caller outlived its use beside `EvalReport.to_text`.

A field of a top-level dataclass or NamedTuple counts as read when src/ code
loads `self.name` in a method of its class, or an attribute of that name
anywhere from anything but `self` or `args`, the argparse namespace in
`cli`, whose flags are not record fields; the same name-alone gap holds.

A parameter of a function, method or lambda, nested ones included, counts as
read when its function's body, nested functions included, loads its name;
`self` and `cls` are not checked.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "synmatch"

# entry points: called from outside src/ by design
ENTRY_POINTS = {
    "cli.main",                     # the console script
    "cli._Parser.error",            # argparse's hook for usage errors
    "evaluation.discover",          # discover_many for one query: perfbench, the demos
    # perfbench's checks compare it; ROADMAP item 3 switches them to the
    # token arrays and retires it
    "corpus.CorpusData.lines",
}

# fields no src/ code reads, by design
UNREAD_FIELDS = {
    # demos/demo_context_matching.py prints the leak shares, and the gauges of
    # ROADMAP items 1 (mean leak share) and 6 (traces, explain) read them
    "matcher.MatchResult.leak_fwd",
    "matcher.MatchResult.leak_bwd",
    # perfbench's discover check compares it, and bits_probe.py and
    # demos/demo_discovery.py read it
    "evaluation.DiscoveryResult.ranked",
}

# parameters their function never reads, by design
UNREAD_PARAMETERS = {
    # evaluate accepts nothing, so no threshold applies, but perfbench's
    # evaluate op passes it; ROADMAP item 2 gives it a reader (the calibrated
    # cut), or item 3 drops perfbench's argument and the parameter with it
    "evaluation.evaluate.threshold",
}


def _functions(tree):
    """(qualified name, kind, def node) for top-level functions and for the
    methods and properties of top-level classes."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, "function", node
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef):
                    kind = "property" if any(isinstance(d, ast.Name) and d.id == "property"
                                             for d in item.decorator_list) else "method"
                    yield f"{node.name}.{item.name}", kind, item


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


def _self_owners(module, tree):
    """(module, class) by id of each attribute node that a method of a
    top-level class takes from its first parameter: `self.x` there names
    that class's own member x."""
    owners = {}
    for qualname, _, node in _functions(tree):
        if "." in qualname and node.args.args:
            me, owner = node.args.args[0].arg, (module, qualname.split(".")[0])
            owners.update((id(sub), owner) for sub in ast.walk(node)
                          if isinstance(sub, ast.Attribute)
                          and isinstance(sub.value, ast.Name) and sub.value.id == me)
    return owners


def _references(module, tree, defs):
    """For each def node of the module: the set of functions its body refers
    to, as ("function", module, name), ("method", owner, name) and, for an
    attribute read that is not called, ("property", owner, name), the owner
    being (module, class) for a `self.x` in a method of that class and None
    for any other attribute."""
    modules, names = _imports(tree)
    owners = _self_owners(module, tree)
    out = {}
    for _, _, node in defs:
        refs = set()
        callees = {id(sub.func) for sub in ast.walk(node) if isinstance(sub, ast.Call)}
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                refs.add(("function",) + names.get(sub.id, (module, sub.id)))
            elif isinstance(sub, ast.Attribute):
                owner = owners.get(id(sub))
                refs.add(("method", owner, sub.attr))
                if id(sub) not in callees:
                    refs.add(("property", owner, sub.attr))
                if isinstance(sub.value, ast.Name) and sub.value.id in modules:
                    refs.add(("function", modules[sub.value.id], sub.attr))
        out[id(node)] = refs
    return out


def _parsed():
    return {path.stem: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def unreferenced(parsed=None):
    """Top-level functions, non-dunder methods and properties that no other
    function in src/ (or in the given {module: tree}) refers to, less the
    entry points."""
    parsed = _parsed() if parsed is None else parsed
    defs = {module: list(_functions(tree)) for module, tree in parsed.items()}
    refs = {}
    for module, tree in parsed.items():
        refs.update(_references(module, tree, defs[module]))
    missing = []
    for module, items in defs.items():
        for qualname, kind, node in items:
            if _is_dunder(qualname) or f"{module}.{qualname}" in ENTRY_POINTS:
                continue
            if kind == "function":
                keys = {("function", module, qualname)}
            else:
                cls, name = qualname.split(".")
                keys = {(kind, None, name), (kind, (module, cls), name)}
            if not any(keys & found for caller, found in refs.items() if caller != id(node)):
                missing.append(f"{module}.{qualname}")
    return missing


def _fields(tree):
    """(qualified name, field name) for the annotated names in the body of
    each top-level class that is a dataclass (@dataclass, with or without
    arguments) or a NamedTuple."""
    for node in tree.body:
        if not isinstance(node, ast.ClassDef):
            continue
        marks = [d.func if isinstance(d, ast.Call) else d for d in node.decorator_list]
        if {getattr(x, "id", getattr(x, "attr", None))
                for x in marks + node.bases} & {"dataclass", "NamedTuple"}:
            for item in node.body:
                if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                    yield f"{node.name}.{item.target.id}", item.target.id


def _attributes_read(parsed):
    """Every attribute load in the {module: tree}, less loads from a name
    `args`, the CLI's flags: "module.class.name" for a `self.name` in a
    method of that class, the bare name for any other."""
    read = set()
    for module, tree in parsed.items():
        owners = _self_owners(module, tree)
        read.update(".".join(owners[id(node)] + (node.attr,)) if id(node) in owners
                    else node.attr for node in ast.walk(tree)
                    if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and not (isinstance(node.value, ast.Name) and node.value.id == "args"))
    return read


def unread_fields(parsed=None, allowed=UNREAD_FIELDS):
    """Fields of the dataclasses and NamedTuples in src/ (or in the given
    {module: tree}) that no attribute load there reads, less `allowed`."""
    parsed = _parsed() if parsed is None else parsed
    read = _attributes_read(parsed)
    return [f"{module}.{qualname}" for module, tree in parsed.items()
            for qualname, name in _fields(tree)
            if not {name, f"{module}.{qualname}"} & read
            and f"{module}.{qualname}" not in allowed]


def _defs(node, prefix=""):
    """(qualified name, node) of every def and lambda under node, nested ones
    included; a name is the dotted path of the classes and defs around it."""
    for child in ast.iter_child_nodes(node):
        if not isinstance(child, (ast.FunctionDef, ast.Lambda, ast.ClassDef)):
            yield from _defs(child, prefix)
            continue
        name = prefix + getattr(child, "name", "<lambda>")
        if not isinstance(child, ast.ClassDef):
            yield name, child
        yield from _defs(child, name + ".")


def unread_parameters(parsed=None, allowed=UNREAD_PARAMETERS):
    """Parameters, less self and cls, that their function's body in src/ (or
    in the given {module: tree}) never loads, less `allowed`."""
    parsed = _parsed() if parsed is None else parsed
    out = []
    for module, tree in parsed.items():
        for qualname, node in _defs(tree):
            body = node.body if isinstance(node.body, list) else [node.body]
            loads = {sub.id for part in body for sub in ast.walk(part)
                     if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load)}
            a = node.args
            names = [x.arg for x in (*a.posonlyargs, *a.args, a.vararg, *a.kwonlyargs, a.kwarg)
                     if x is not None and x.arg not in ("self", "cls")]
            out += [f"{module}.{qualname}.{name}" for name in names if name not in loads
                    and f"{module}.{qualname}.{name}" not in allowed]
    return out


def test_every_src_function_has_a_src_caller():
    assert unreferenced() == []


def test_entry_points_exist():
    found = {f"{module}.{name}" for module, tree in _parsed().items()
             for name, _, _ in _functions(tree)}
    assert ENTRY_POINTS <= found


def test_a_call_does_not_keep_a_property():
    tree = ast.parse(
        "class A:\n"
        "    @property\n"
        "    def key(self):\n"
        "        return 1\n"
        "    @property\n"
        "    def size(self):\n"
        "        return 2\n"
        "    def run(self, other):\n"
        "        return self.size + other.key(0)\n"
        "def main():\n"
        "    return A().run\n")
    assert unreferenced({"m": tree}) == ["m.A.key", "m.main"]


def test_a_self_load_names_only_its_own_class_member():
    tree = ast.parse(
        "import dataclasses\n"
        "@dataclasses.dataclass\n"
        "class A:\n"
        "    size: int\n"
        "    def run(self):\n"
        "        return self.count() + self.size + self.limit\n"
        "    def count(self):\n"
        "        return 1\n"
        "@dataclasses.dataclass\n"
        "class B:\n"
        "    size: int\n"
        "    limit: int\n"
        "    def count(self):\n"
        "        return 2\n"
        "def main():\n"
        "    return A(1).run(), B(2, 3)\n")
    assert unreferenced({"m": tree}) == ["m.B.count", "m.main"]
    assert unread_fields({"m": tree}) == ["m.B.size", "m.B.limit"]


def test_every_src_record_field_has_a_src_reader():
    assert unread_fields() == []


def test_unread_fields_exist_and_are_unread():
    # a listed field that is gone or gained a src/ reader leaves the list
    assert UNREAD_FIELDS <= set(unread_fields(allowed=set()))


def test_a_field_is_read_only_by_an_attribute_load():
    tree = ast.parse(
        "import dataclasses\n"
        "from typing import NamedTuple\n"
        "@dataclasses.dataclass(frozen=True)\n"
        "class A:\n"
        "    kept: int\n"
        "    written: int\n"
        "    X = 3\n"
        "class B(NamedTuple):\n"
        "    named: int\n"
        "    flag: int\n"
        "class C:\n"
        "    plain: int\n"
        "def use(a, b, args):\n"
        "    a.written = a.kept\n"
        "    return getattr(b, 'named'), args.flag\n")
    assert unread_fields({"m": tree}) == ["m.A.written", "m.B.named", "m.B.flag"]


def test_every_src_parameter_is_read():
    assert unread_parameters() == []


def test_unread_parameters_exist_and_are_unread():
    # a listed parameter that is gone or gained a reader leaves the list
    assert UNREAD_PARAMETERS <= set(unread_parameters(allowed=set()))


def test_a_parameter_is_read_only_by_a_name_load():
    tree = ast.parse(
        "class A:\n"
        "    def run(self, used, written, *rest, key=0, **extra):\n"
        "        written = used + key\n"
        "        return lambda x, y: x\n"
        "def outer(kept, dropped, /):\n"
        "    def inner(z):\n"
        "        return kept\n"
        "    return inner\n")
    assert unread_parameters({"m": tree}) == [
        "m.A.run.written", "m.A.run.rest", "m.A.run.extra", "m.A.run.<lambda>.y",
        "m.outer.dropped", "m.outer.inner.z"]
