"""The package's public surface is what the package runs."""
import ast
from pathlib import Path

import croprank

PACKAGE = Path(croprank.__file__).parent

# public callables that no package module calls, each kept for a caller outside the package
OUTSIDE_CALLERS = {
    # perfbench's eval_desk op calls it once per image
    "decoder.forward",
    # perfbench traces it as the one-matrix solve; assign_batch solves through _match
    "assignment.hungarian",
}


def unused_public_callables(package: Path) -> list[str]:
    """``module.name`` of each public module-level function or class that no package module names.

    A module other than ``__init__`` names it when its syntax tree holds
    the name as a bare name or as an attribute, outside the callable's
    own definition.
    """
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))}
    del trees["__init__"]
    named: dict[str, set] = {}
    for module, tree in trees.items():
        for node in ast.walk(tree):
            name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
            if name is not None:
                named.setdefault(name, set()).add((module, id(node)))
    unused = []
    for module, tree in trees.items():
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)) or node.name.startswith("_"):
                continue
            own = {(module, id(inner)) for inner in ast.walk(node)}
            if not named.get(node.name, set()) - own:
                unused.append(f"{module}.{node.name}")
    return unused


class TestPackageSurface:
    def test_every_public_callable_is_named_by_the_package(self):
        unused = set(unused_public_callables(PACKAGE))
        extra = sorted(unused - OUTSIDE_CALLERS)
        assert not extra, f"public callables that no package module names: {extra}"
        # an exception that the package has come to call is no longer one
        assert unused == OUTSIDE_CALLERS

    def test_a_callable_named_only_inside_itself_counts_as_unused(self, tmp_path):
        (tmp_path / "__init__.py").write_text("from .a import helper, used\n")
        (tmp_path / "a.py").write_text(
            "def helper(n):\n    return helper(n - 1) if n else 0\n\n\n"
            "def used():\n    return 1\n\n\n"
            "class Box:\n    pass\n"
        )
        (tmp_path / "b.py").write_text("from . import a\n\nVALUE = a.used()\n")
        assert unused_public_callables(tmp_path) == ["a.helper", "a.Box"]
