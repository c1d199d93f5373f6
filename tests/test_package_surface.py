"""The package holds what its runs use.

Read from the sources with `ast`, without importing the package: every
name of `nsstab.__all__` resolves to a top-level definition, every public
top-level function or class of `src/nsstab` is used by the package itself,
by another module than `__init__.py` or inside its own module, and so is
every public method and property of its classes.  Code that only the tests
use lives in `tests/oracles.py`.  The feedback law carries the reference
flow it was synthesized for, and through it the space, so nothing that
takes the law or a rollout of it is handed either again.
"""

import ast
from pathlib import Path

SRC = Path(__file__).parent.parent / "src" / "nsstab"

# public definitions no run uses yet, each with the reason it stays
ALLOWED_UNUSED = {
    "regularity_diagnostics": "ROADMAP item 3: the smoothing constants of the "
                              "linearized flow, to be reported by the runs",
}


def parse(path):
    return ast.parse(path.read_text(), filename=str(path))


def modules():
    """{module name: syntax tree} of every module of the package."""
    return {path.stem: parse(path) for path in sorted(SRC.glob("*.py"))}


def top_level_names(tree):
    """Names a module binds at top level: definitions, assignments, imports."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name)}
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {(a.asname or a.name).split(".")[0] for a in node.names}
    return names


def public_definitions(tree):
    return [node.name for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def references(tree):
    """Every identifier a module reads: loaded names, attribute names and
    imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            refs |= {a.name for a in node.names}
    return refs


def public_methods(tree):
    """(class, name, static) of every public method or property of the
    module's top-level classes; static marks static and class methods."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if (isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
                        and not item.name.startswith("_")):
                    decorators = {d.id for d in item.decorator_list
                                  if isinstance(d, ast.Name)}
                    yield node.name, item.name, bool(
                        decorators & {"staticmethod", "classmethod"})


def qualified_reads(tree):
    """(name, attribute) of every `name.attribute` a module reads."""
    return {(node.value.id, node.attr) for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)}


def all_names(init):
    for node in init.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            return ast.literal_eval(node.value)
    raise AssertionError("nsstab/__init__.py defines no __all__")


def test_every_exported_name_resolves():
    trees = modules()
    init = trees["__init__"]
    source = {}         # exported name -> module it is imported from
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source[alias.asname or alias.name] = (node.module, alias.name)
    missing = []
    for name in all_names(init):
        if name in source:
            module, original = source[name]
            if original not in top_level_names(trees[module]):
                missing.append(f"{name} (from .{module})")
        elif name not in top_level_names(init):
            missing.append(name)
    assert missing == []


def test_every_public_definition_is_used_by_the_package():
    trees = modules()
    refs = {name: references(tree) for name, tree in trees.items()}
    unused = set()
    for module, tree in trees.items():
        if module == "__init__":
            continue
        used = set().union(*(r for other, r in refs.items()
                             if other not in ("__init__", module)))
        for name in public_definitions(tree):
            if name not in used and name not in refs[module]:
                unused.add(f"{module}.{name}")
    allowed = {f"{m}.{n}" for m, tree in trees.items()
               for n in public_definitions(tree) if n in ALLOWED_UNUSED}
    assert unused == allowed


def test_every_public_method_is_used_by_the_package():
    # an instance method or property is used when its name is read as an
    # attribute anywhere in the package; a static or class method only when
    # it is read through its class, so that an unrelated attribute of the
    # same name (`rng.uniform` beside a `ChiMask.uniform`) does not count
    trees = {name: tree for name, tree in modules().items() if name != "__init__"}
    names = set().union(*(references(tree) for tree in trees.values()))
    qualified = set().union(*(qualified_reads(tree) for tree in trees.values()))
    unused = {f"{module}.{cls}.{name}"
              for module, tree in trees.items()
              for cls, name, static in public_methods(tree)
              if ((cls, name) not in qualified if static else name not in names)}
    assert unused == set()


def test_allowed_names_exist_and_carry_a_reason():
    defined = {n for tree in modules().values() for n in public_definitions(tree)}
    for name, reason in ALLOWED_UNUSED.items():
        assert name in defined, name
        assert "ROADMAP item" in reason


def test_nothing_built_on_the_law_is_handed_its_reference_again():
    handed = []
    for module, tree in modules().items():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = node.args
                params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
                if params & {"law", "rollout"} and params & {"traj", "space"}:
                    handed.append(f"{module}.{node.name}")
    assert handed == []


def test_the_law_holds_no_callable():
    # the step models are methods of the law over its reference, not
    # closures stored beside it
    (law,) = [node for tree in modules().values() for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "FeedbackLaw"]
    fields = {item.target.id: ast.unparse(item.annotation) for item in law.body
              if isinstance(item, ast.AnnAssign)}
    assert "Q_packed" in fields
    assert [name for name, kind in fields.items() if "Callable" in kind] == []


def test_plots_draw_from_the_arrays_in_hand():
    # the CLI alone knows each artifact's layout: plots.py reads no file back
    tree = modules()["plots"]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported |= {a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported.isdisjoint({"csv", "json"})
    modes = [ast.literal_eval(call.args[1]) if len(call.args) > 1 else "r"
             for call in ast.walk(tree) if isinstance(call, ast.Call)
             and isinstance(call.func, ast.Name) and call.func.id == "open"]
    assert modes and all("w" in mode for mode in modes)
