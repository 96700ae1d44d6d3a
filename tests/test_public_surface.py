"""Keeps the public surface to what something other than the tests uses.

A module-level function or class of ``bitextkit`` whose name has no leading
underscore must be named somewhere else: imported by name in the package
(outside an ``__init__.py``, whose re-exports are not uses) or a demo, read
as an attribute off a module there, loaded as a bare name elsewhere in its
own module, traced by the benchmark (``TRACED`` in ``perfbench/spans.py``),
or mentioned in README.md or pyproject.toml. An attribute of the same name
read off anything but a module (a dataclass field, a method) is not a use.
Decorated functions (the click commands) are reached through their
decorators and are not checked.

Likewise a parameter with a default, of a public function or of a public
method or the constructor of a public class, must be passed, by keyword or
by position, by a call in the package or a demo: a setting that only the
tests set is one more code path that nothing uses.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bitextkit"

# Parameters with defaults that only the tests pass, each kept on purpose.
SET_BY_TESTS_ONLY = {
    # acceptance criterion 10 and the worker-invariance tests run it with 1 and more workers
    "cleaner.clean(workers)",
    # acceptance criterion 3 scores TER without shifts
    "metrics.ter.ter(shifts)",
    # the tests substitute the environment that the config is checked against
    "pipeline.validate_config(env)",
}


def _loaded_names(nodes) -> set:
    return {n.id for node in nodes for n in ast.walk(node) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}


def _parse_package_and_demos() -> tuple:
    trees = {path: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(PACKAGE.rglob("*.py"))}
    demos = [ast.parse(path.read_text(encoding="utf-8")) for path in sorted((ROOT / "demos").glob("*.py"))]
    return trees, demos


def _package_of(path: Path) -> str:
    return ".".join(path.relative_to(PACKAGE.parent).parent.parts)


def _module_of(path: Path) -> str:
    return _package_of(path) if path.name == "__init__.py" else f"{_package_of(path)}.{path.stem}"


def _dotted(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value)
        return base and f"{base}.{node.attr}"
    return None


def _modules(trees) -> set:
    """The dotted names of the package's modules."""
    return {_module_of(path) for path in trees}


def _module_aliases(tree, package, modules: set) -> dict:
    """Each name that the imports of a file bind to one of ``modules``, and
    that module's dotted name; ``package`` is the file's package, None
    outside the package."""
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                aliases[name] = alias.name if alias.asname else name
        elif isinstance(node, ast.ImportFrom):
            base = node.module
            if node.level:
                base = ".".join(filter(None, [package.rsplit(".", node.level - 1)[0], node.module]))
            for alias in node.names:
                aliases[alias.asname or alias.name] = f"{base}.{alias.name}"
    return {name: module for name, module in aliases.items() if module in modules}


def _traced() -> set:
    """``module.function`` of each function the benchmark traces, read off
    ``TRACED`` without running ``perfbench/spans.py``."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    (traced,) = [n.value for n in tree.body if isinstance(n, ast.Assign) and _dotted(n.targets[0]) == "TRACED"]
    return {f"{entry.elts[0].value}.{entry.elts[1].value}" for entry in traced.elts}


def test_every_public_name_is_used_outside_the_tests():
    trees, demos = _parse_package_and_demos()
    modules = _modules(trees)
    named = set()
    for path, tree in [*trees.items(), *((None, demo) for demo in demos)]:
        aliases = _module_aliases(tree, path and _package_of(path), modules)
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not (path and path.name == "__init__.py"):
                named.update(alias.name for alias in node.names)
            elif isinstance(node, ast.Attribute):
                base, *rest = (_dotted(node.value) or "").split(".")
                if ".".join([aliases.get(base, ""), *rest]) in modules:
                    named.add(node.attr)
    traced = _traced()
    docs = (ROOT / "README.md").read_text(encoding="utf-8") + (ROOT / "pyproject.toml").read_text(encoding="utf-8")

    unused = []
    for path, tree in trees.items():
        module = _module_of(path).partition(".")[2]
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            if isinstance(node, ast.FunctionDef) and node.decorator_list:
                continue
            if node.name in named or node.name in _loaded_names(n for n in tree.body if n is not node):
                continue
            if f"{module}.{node.name}" in traced or re.search(rf"\b{node.name}\b", docs):
                continue
            unused.append(f"{path.relative_to(PACKAGE)}::{node.name}")
    assert unused == [], f"public names that nothing outside the tests uses: {unused}"


def _bound_names(statements) -> set:
    """The names that ``statements`` bind in their own scope."""
    bound = set()
    for node in statements:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            bound.update(alias.asname or alias.name.partition(".")[0] for alias in node.names)
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            bound.add(node.name)
        elif isinstance(node, ast.Assign):
            bound.update(n.id for target in node.targets for n in ast.walk(target) if isinstance(n, ast.Name))
    return bound


def test_no_package_binds_the_name_of_its_own_submodule():
    # After ``from .ribes import ribes`` in ``metrics/__init__.py``, the name
    # ``bitextkit.metrics.ribes`` reads the function, and
    # ``import bitextkit.metrics.ribes as m`` binds the function too.
    trees, _ = _parse_package_and_demos()
    modules = _modules(trees)
    hiding = []
    for path, tree in trees.items():
        if path.name != "__init__.py":
            continue
        package = _package_of(path)
        aliases = _module_aliases(tree, package, modules)
        for name in _bound_names(tree.body):
            if f"{package}.{name}" in modules and aliases.get(name) != f"{package}.{name}":
                hiding.append(f"{path.relative_to(PACKAGE)}::{name}")
    assert hiding == [], f"package names that hide a submodule of the same name: {hiding}"


def _public_callables(tree):
    """(qualified name, def, name its calls use, is a bound method) of the
    public functions of a module, and the public methods and constructor
    of its public classes; a constructor is called by its class name."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            yield node.name, node, node.name, False
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and item.name == "__init__":
                    yield f"{node.name}.__init__", item, node.name, True
                elif isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    static = any(isinstance(d, ast.Name) and d.id == "staticmethod" for d in item.decorator_list)
                    yield f"{node.name}.{item.name}", item, item.name, not static


def test_every_defaulted_parameter_is_passed_outside_the_tests():
    trees, demos = _parse_package_and_demos()
    calls: dict = {}  # callee name -> its calls
    for tree in [*trees.values(), *demos]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)

    unpassed = []
    for path, tree in trees.items():
        module = ".".join(path.relative_to(PACKAGE).with_suffix("").parts)
        for qualname, fn, called_as, bound in _public_callables(tree):
            args = fn.args
            positional = [a.arg for a in args.posonlyargs + args.args][1 if bound else 0 :]
            defaulted = positional[len(positional) - len(args.defaults) :]
            defaulted += [a.arg for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for param in defaulted:
                # a call that unpacks * or ** arguments may pass it
                passed = any(
                    any(kw.arg in (param, None) for kw in call.keywords)
                    or any(isinstance(a, ast.Starred) for a in call.args)
                    or (param in positional and len(call.args) > positional.index(param))
                    for call in calls.get(called_as, ())
                )
                if not passed and f"{module}.{qualname}({param})" not in SET_BY_TESTS_ONLY:
                    unpassed.append(f"{module}.{qualname}({param})")
    assert unpassed == [], f"parameters with defaults that only the tests pass: {unpassed}"
