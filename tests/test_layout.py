"""The package ships only what a program path reaches.

A top-level function or class of `rlsheaf` is reached when other package code mentions it (as a name, an
attribute or an import; a string does not count), when `scripts/` or `perfbench/` mention it (strings count
there, since perfbench wraps its layers by name), or when it is kept on purpose below.  Oracles and helpers
that only tests call live in `tests/conftest.py`.
"""

import ast
import collections
import pathlib

import rlsheaf

PACKAGE = pathlib.Path(rlsheaf.__file__).parent
REPO = PACKAGE.parent.parent
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)

KEEP = frozenset({
    # the paper's results, which only tests call so far
    "pullback_morphism", "lambda_iso", "identity_rle_morphism", "section_functor_morphism", "coreflect_morphism",
    "rl_germ_ops",
    # kept until the stalkwise RL-morphism search and the census decide on them
    "is_rl_morphism", "is_rl_bundle_morphism", "base_compatible_tables", "coreflection_hom_counts",
    # reached from perfbench or the scripts
    "topology_from_basis", "serialize_workspace", "verify_topology",
})


def mentions(tree: ast.AST, strings: bool, local: frozenset = frozenset()):
    """Each name, attribute and imported name in `tree`, and each string constant too when `strings`.  A bare
    name in `local` is left out: it refers to the file's own definition, as `kernel()` does in perfbench."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if node.id not in local:
                yield node.id
        elif isinstance(node, ast.Attribute):
            yield node.attr
        elif isinstance(node, ast.alias):
            yield node.name
        elif strings and isinstance(node, ast.Constant) and isinstance(node.value, str):
            yield node.value


def unreached() -> list[str]:
    """`module.name` of each top-level function and class that nothing reaches, each file parsed once."""
    tools = set()
    for path in sorted([*(REPO / "scripts").glob("*.py"), *(REPO / "perfbench").glob("*.py")]):
        tree = ast.parse(path.read_text("utf-8"))
        local = frozenset(n.name for n in ast.walk(tree) if isinstance(n, DEFS))
        tools.update(mentions(tree, strings=True, local=local))
    used: collections.Counter = collections.Counter()
    defs = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text("utf-8"))
        used.update(mentions(tree, strings=False))
        for node in tree.body:
            if isinstance(node, DEFS):
                own = sum(1 for n in mentions(node, strings=False) if n == node.name)
                defs.append((path.stem, node.name, own))
    return sorted(f"{mod}.{name}" for mod, name, own in defs
                  if used[name] == own and name not in tools and name not in KEEP)


def test_every_top_level_name_in_the_package_is_reached_by_a_program_path():
    assert unreached() == []
