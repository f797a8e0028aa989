#!/usr/bin/env python3
"""List the public names in src/modiff that nothing reaches.

    python3 tools/unreached.py [ROOT]

ROOT is a checkout of the repository (default: the one this script is in).
A definition is a public module-level function or class of a module under
ROOT/src/modiff, or a public method or property of such a class. It is
reached when its name appears in another module under src/modiff, in its
own module outside its own body, in any ROOT/bench/*.py, or in
tests/test_acceptance.py, as a Name, an Attribute, an import alias, or a
piece of a string constant split on '.' (the benchmark names what it
traces as strings). Unit tests other than the acceptance criteria reach
nothing, and methods are matched by name alone.

Prints `path:line name` for each unreached definition, in module and line
order, and exits 0 whatever it finds (2 on a usage error); CI fails when it
prints anything. The package never imports this script.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def definitions(tree: ast.Module):
    """(node, name) of each public module-level function or class, and of
    each public method or property of those classes, named Class.method."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_"):
            yield node, node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        yield item, f"{node.name}.{item.name}"


def references(tree: ast.AST, skip: ast.AST | None = None) -> set:
    """Every identifier mentioned under `tree`, by any of the four
    spellings, except under `skip`."""
    names = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        todo.extend(ast.iter_child_nodes(node))
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.update(node.name.split("."))
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            names.update(node.value.split("."))
    return names


def main(argv) -> int:
    if len(argv) > 2:
        print(f"usage: {argv[0]} [ROOT]", file=sys.stderr)
        return 2
    root = Path(argv[1]) if len(argv) == 2 else Path(__file__).resolve().parent.parent
    package = sorted((root / "src" / "modiff").glob("*.py"))
    if not package:
        print(f"{argv[0]}: no modules under {root / 'src' / 'modiff'}", file=sys.stderr)
        return 2
    trees = {p: ast.parse(p.read_text(encoding="utf-8"), filename=str(p)) for p in package}
    outside = set()
    for p in [*sorted((root / "bench").glob("*.py")), root / "tests" / "test_acceptance.py"]:
        if p.is_file():
            outside |= references(ast.parse(p.read_text(encoding="utf-8"), filename=str(p)))
    refs = {p: references(tree) for p, tree in trees.items()}
    for p, tree in trees.items():
        elsewhere = outside.union(*(r for q, r in refs.items() if q != p))
        for node, name in definitions(tree):
            bare = name.rsplit(".", 1)[-1]
            if bare not in elsewhere and bare not in references(tree, skip=node):
                print(f"{p.relative_to(root)}:{node.lineno} {name}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
