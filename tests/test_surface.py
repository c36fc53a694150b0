"""The package's public surface is what the package runs."""
import ast
from pathlib import Path

import croprank

PACKAGE = Path(croprank.__file__).parent
PERFBENCH = PACKAGE.parents[1] / "perfbench"

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


# defaulted parameters that no call in the package or the benchmark passes, each kept for a caller outside them
OUTSIDE_PASSERS = {
    # ``python -m croprank`` parses sys.argv; tests pass their own argument lists
    "cli.main(argv)",
    # ``python -m croprank.digest`` parses sys.argv; tests pass their own argument lists
    "digest.main(argv)",
    # criterion 4 (tests/test_acceptance.py) reads the cross-attention weights through it
    "decoder.forward_train(attention_out)",
}


def unpassed_defaults(package: Path, *callers: Path) -> list[str]:
    """``module.function(parameter)`` of each defaulted parameter of a module-level function that no call passes.

    The calls are those in the modules of ``package`` and of each caller
    directory. A call of the function's name, bare or as an attribute,
    passes a parameter when it names it as a keyword, spreads a ``**``
    mapping, or gives more positional arguments than the parameter's
    index; a ``*`` spread counts as one positional argument.
    """
    trees = {path: ast.parse(path.read_text()) for root in (package, *callers) for path in sorted(root.glob("*.py"))}
    calls: dict[str, list] = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else func.attr if isinstance(func, ast.Attribute) else None
                calls.setdefault(name, []).append(node)

    def passes(call: ast.Call, index: int | None, parameter: str) -> bool:
        return (any(k.arg in (parameter, None) for k in call.keywords)
                or index is not None and len(call.args) > index)

    unpassed = []
    for path, tree in trees.items():
        if path.parent != package:
            continue
        for node in tree.body:
            if not isinstance(node, ast.FunctionDef):
                continue
            args = node.args
            positional = args.posonlyargs + args.args
            first = len(positional) - len(args.defaults)
            defaulted = [(i, a.arg) for i, a in enumerate(positional) if i >= first]
            defaulted += [(None, a.arg) for a, d in zip(args.kwonlyargs, args.kw_defaults) if d is not None]
            for index, parameter in defaulted:
                if not any(passes(call, index, parameter) for call in calls.get(node.name, [])):
                    unpassed.append(f"{path.stem}.{node.name}({parameter})")
    return unpassed


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

    def test_every_defaulted_parameter_is_passed(self):
        unpassed = set(unpassed_defaults(PACKAGE, PERFBENCH))
        extra = sorted(unpassed - OUTSIDE_PASSERS)
        assert not extra, f"defaulted parameters that no call in the package or the benchmark passes: {extra}"
        # an exception that a call has come to pass is no longer one
        assert unpassed == OUTSIDE_PASSERS

    def test_a_parameter_counts_as_passed_by_keyword_position_or_spread(self, tmp_path):
        (tmp_path / "a.py").write_text(
            "def f(x, by_keyword=1, by_position=2, unpassed=3, *, only_keyword=4):\n    return x\n\n\n"
            "def g(x, spread=1):\n    return x\n\n\n"
            "def h(x, y, z=1):\n    return x\n"
        )
        (tmp_path / "b.py").write_text(
            "from . import a\n\n"
            "A = a.f(0, 1, by_keyword=2)\nB = a.f(0, 1, 2)\nC = a.g(0, **{})\nD = a.h(*(0, 1))\n"
        )
        assert unpassed_defaults(tmp_path) == ["a.f(unpassed)", "a.f(only_keyword)", "a.h(z)"]
