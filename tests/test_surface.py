"""The public surface of ``repro`` is exactly what something calls.

Every name listed in an ``__all__`` under ``src/repro`` must be referenced
by the package itself, ``perfbench/``, ``benchmarks/`` or ``examples/``,
other than by its own definition, its ``__all__`` entry and a package
``__init__`` re-export.  A name that only its tests reach is dead code
and should be deleted with its tests; the few deliberate exceptions are
listed in ``EXEMPT`` with their reason.

A name is identified by the module that defines it:
``repro.optics.Propagator`` and ``repro.optics.propagation.Propagator``
are one name, found by following ``from ... import`` re-exports to the
module whose top level binds it (a package's ``_LAZY`` map of name to
submodule counts as such an import).  A reference is found by walking
each file's AST:

* a name bound by ``from repro... import name`` and then loaded;
* ``alias.name`` or ``getattr(alias, "name"...)`` where ``alias`` is bound
  to a ``repro`` module (``from ..autodiff import ops``, ``import repro``);
* a bare ``name`` loaded in the module that defines it, outside that
  name's own ``def``/``class`` body.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
CALLER_DIRS = ("perfbench", "benchmarks", "examples")

#: Exports kept without a caller in the scanned trees, each with why.
EXEMPT = {
    # Test oracles: the tests are their callers by design.
    ("repro.autodiff.gradcheck", "gradcheck"),
    ("repro.twopi.exhaustive", "brute_force_offsets"),
    # The hook to the composed reference graph the fused op is tested
    # against.
    ("repro.autodiff.fused", "fused_disabled"),
    # Used by the CI serve smoke and documented in docs/observability.md.
    ("repro.obs.metrics", "parse_prometheus"),
    # Documented in docs/performance.md.
    ("repro.backend.dispatch", "get_workers"),
    ("repro.runtime.kernel_cache", "cache_info"),
    # Tests use it to undo register_recipe.
    ("repro.pipeline.registry", "unregister_recipe"),
}


def module_name(path: Path) -> str:
    parts = list(path.relative_to(SRC).with_suffix("").parts)
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def resolve(node: ast.ImportFrom, current: str, is_package: bool) -> str:
    """The absolute module an ``ImportFrom`` reads from."""
    if not node.level:
        return node.module
    base = current.split(".")
    if not is_package:
        base.pop()
    if node.level > 1:
        base = base[: len(base) - (node.level - 1)]
    return ".".join(base + ([node.module] if node.module else []))


def top_level(body):
    """Module-level statements, looking inside ``if``/``try`` blocks."""
    for node in body:
        yield node
        if isinstance(node, (ast.If, ast.Try)):
            for block in (node.body, node.orelse,
                          getattr(node, "finalbody", [])):
                yield from top_level(block)
            for handler in getattr(node, "handlers", []):
                yield from top_level(handler.body)


class Module:
    """One parsed module: what it defines, imports and exports."""

    def __init__(self, path: Path):
        self.path = path
        self.name = module_name(path)
        self.is_package = path.name == "__init__.py"
        self.tree = ast.parse(path.read_text(), filename=str(path))
        self.defs = set()
        self.imports = {}   # bound name -> (source module, imported name)
        self.exports = []
        for node in top_level(self.tree.body):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                self.defs.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) \
                    else [node.target]
                for target in targets:
                    for name in ast.walk(target):
                        if isinstance(name, ast.Name):
                            self.defs.add(name.id)
                names = {t.id for t in targets if isinstance(t, ast.Name)}
                if "__all__" in names:
                    self.exports = ast.literal_eval(node.value)
                if "_LAZY" in names:    # name -> submodule it loads from
                    for name, module in ast.literal_eval(node.value).items():
                        self.imports[name] = (f"{self.name}.{module}", name)
            elif isinstance(node, ast.ImportFrom):
                source = resolve(node, self.name, self.is_package)
                for alias in node.names:
                    self.imports[alias.asname or alias.name] = (
                        source, alias.name)


MODULES = {module.name: module for module in map(
    Module, sorted((SRC / "repro").rglob("*.py")))}


def origin(module: str, name: str):
    """``(defining module, name)`` of ``module.name``, or the module's
    own dotted name when ``name`` is a submodule."""
    if f"{module}.{name}" in MODULES:
        return f"{module}.{name}"
    info = MODULES.get(module)
    if info is not None and name not in info.defs and name in info.imports:
        return origin(*info.imports[name])
    return module, name


def references(tree: ast.Module, current: str = None):
    """Yield every export origin one file references; ``current`` names
    the module when the file is part of the package."""
    bound = {}   # local name -> origin, or dotted name of a repro module
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            if current:
                source = resolve(node, current, MODULES[current].is_package)
            elif node.level:
                continue
            else:
                source = node.module
            if source.split(".")[0] == "repro":
                for alias in node.names:
                    bound[alias.asname or alias.name] = origin(
                        source, alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "repro":
                    if alias.asname:
                        bound[alias.asname] = alias.name
                    else:
                        bound["repro"] = "repro"
    own = MODULES[current].defs if current else set()
    # A definition's own body does not count as a caller of it.
    inside_own = {
        id(name)
        for definition in top_level(tree.body)
        if isinstance(definition, (ast.FunctionDef, ast.AsyncFunctionDef,
                                   ast.ClassDef))
        for name in ast.walk(definition)
        if isinstance(name, ast.Name) and name.id == definition.name
    }

    def module_of(expr):
        if isinstance(expr, ast.Name):
            target = bound.get(expr.id)
            return target if isinstance(target, str) else None
        if isinstance(expr, ast.Attribute):
            parent = module_of(expr.value)
            if parent and f"{parent}.{expr.attr}" in MODULES:
                return f"{parent}.{expr.attr}"
        return None

    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) \
                and id(node) not in inside_own:
            if node.id in bound:
                yield bound[node.id]
            elif node.id in own:
                yield current, node.id
        elif isinstance(node, ast.Attribute):
            module = module_of(node.value)
            if module:
                yield origin(module, node.attr)
        elif isinstance(node, ast.Call) and \
                isinstance(node.func, ast.Name) and \
                node.func.id == "getattr" and len(node.args) >= 2 and \
                isinstance(node.args[1], ast.Constant):
            module = module_of(node.args[0])
            if module:
                yield origin(module, node.args[1].value)


@pytest.fixture(scope="module")
def referenced():
    """Export origin -> the files (relative to the repo) that use it."""
    found = defaultdict(set)
    for name, module in MODULES.items():
        for ref in references(module.tree, name):
            found[ref].add(str(module.path.relative_to(ROOT)))
    for directory in CALLER_DIRS:
        for path in sorted((ROOT / directory).rglob("*.py")):
            for ref in references(ast.parse(path.read_text())):
                found[ref].add(str(path.relative_to(ROOT)))
    return dict(found)


@pytest.mark.parametrize(
    "module", sorted(name for name, info in MODULES.items() if info.exports))
def test_every_exported_name_has_a_caller(module, referenced):
    used = referenced.keys() | EXEMPT
    dead = [name for name in MODULES[module].exports
            if isinstance(origin(module, name), tuple)   # not a submodule
            and origin(module, name) not in used]
    assert not dead, (
        f"{module} exports {dead}, which nothing under src/repro, "
        f"{', '.join(CALLER_DIRS)} calls; delete them (and their tests) "
        f"or use them")


def test_every_exemption_is_an_unused_export(referenced):
    exported = {origin(module, name) for module, info in MODULES.items()
                for name in info.exports}
    assert EXEMPT <= exported
    assert not EXEMPT & referenced.keys(), "exemption no longer needed"


def test_scanner_sees_attribute_import_and_local_references(referenced):
    # One known caller of each kind and from each scanned tree, so a
    # scanner that silently finds nothing cannot pass the check above.
    expected = {
        ("repro.autodiff.ops", "pad2d"):                      # ops.pad2d
            "src/repro/optics/propagation.py",
        ("repro.autodiff.optim", "Adam"):                     # import
            "src/repro/pipeline/stages.py",
        ("repro.autodiff.rng", "get_rng"):                    # bare name
            "src/repro/autodiff/rng.py",
        ("repro.pipeline.stages", "RunContext"): "perfbench/probes.py",
        ("repro.utils.pareto", "pareto_frontier"):
            "examples/hyperparameter_exploration.py",
        ("repro", "__version__"): "src/repro/serve/server.py",  # getattr
        ("repro.obs.compare", "bench_compare"):               # _LAZY
            "src/repro/cli.py",
    }
    for export, caller in expected.items():
        assert caller in referenced.get(export, ()), (export, caller)
