"""The public autodiff surface is exactly what the package itself calls.

Every name exported by ``ops``, ``functional``, ``optim`` and ``rng``
must be referenced somewhere under ``src/repro`` other than its own
``def``/``class`` statement, its ``__all__`` entry and a package
``__init__`` re-export.  A name that only its tests reach is dead code
and should be deleted with its tests.

A reference is found by walking each module's AST:

* ``alias.name`` where ``alias`` is bound to the exporting module
  (``from ..autodiff import ops``, ``from . import functional as F``);
* ``from repro.autodiff[.module] import name``;
* a bare ``name`` loaded inside the exporting module itself.
"""

import ast
from pathlib import Path

import pytest

from repro.autodiff import functional, ops, optim, rng

SRC = Path(__file__).resolve().parents[2] / "src"
PACKAGE = "repro.autodiff"
GUARDED = {module.__name__: module for module in (ops, functional, optim, rng)}


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


def references(path: Path):
    """Yield ``(guarded module name, referenced name)`` pairs of one file."""
    current = module_name(path)
    is_package = path.name == "__init__.py"
    tree = ast.parse(path.read_text(), filename=str(path))
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            source = resolve(node, current, is_package)
            for alias in node.names:
                bound = alias.asname or alias.name
                if f"{source}.{alias.name}" in GUARDED:
                    aliases[bound] = f"{source}.{alias.name}"
                elif not is_package and source in GUARDED:
                    yield source, alias.name
                elif not is_package and source == PACKAGE:
                    for guarded, module in GUARDED.items():
                        if alias.name in module.__all__:
                            yield guarded, alias.name
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and \
                isinstance(node.value, ast.Name) and \
                node.value.id in aliases:
            yield aliases[node.value.id], node.attr
        elif current in GUARDED and isinstance(node, ast.Name) and \
                isinstance(node.ctx, ast.Load):
            yield current, node.id


@pytest.fixture(scope="module")
def referenced():
    found = set()
    for path in sorted((SRC / "repro").rglob("*.py")):
        found.update(references(path))
    return found


@pytest.mark.parametrize("module", sorted(GUARDED))
def test_every_exported_name_has_a_caller_in_src(module, referenced):
    unused = [name for name in GUARDED[module].__all__
              if (module, name) not in referenced]
    assert not unused, (
        f"{module} exports {unused}, which nothing under src/repro calls; "
        f"delete them (and their tests) or use them")


def test_scanner_sees_attribute_import_and_local_references(referenced):
    # One known caller of each kind, so a scanner that silently finds
    # nothing cannot pass the check above.
    assert ("repro.autodiff.ops", "pad2d") in referenced      # ops.pad2d
    assert ("repro.autodiff.optim", "Adam") in referenced     # import
    assert ("repro.autodiff.rng", "get_rng") in referenced    # bare name
