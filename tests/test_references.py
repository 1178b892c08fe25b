"""Every public function and class of the package is used by the package.

Library code that only tests reach is a second implementation waiting to
drift, so each public top-level `def` and `class` in `src/selcorr` must be
referenced by name somewhere in the package's own modules. The check is one
level deep: a name used by another function counts as used even when
nothing reaches that function in turn. It is not full reachability from
the CLI.
"""

import ast
from pathlib import Path

import selcorr

# public names no module references, and why each stays
ALLOWED_UNREFERENCED = {
    "similarity_map": "the tests' dense matching oracle; a perfbench traced name",
    "upsample_features": "the tests' dense matching oracle; a perfbench traced name",
    "soft_argmax": "criterion 7 checks the detector's own softmax decode through it",
}


def _modules():
    package = Path(selcorr.__file__).parent
    return [ast.parse(path.read_text()) for path in sorted(package.glob("*.py"))]


def _public_definitions(trees):
    return {
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")
    }


def _referenced_names(trees):
    names = set()
    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name)
    return names


def test_every_public_name_is_referenced_by_the_package():
    trees = _modules()
    unreferenced = _public_definitions(trees) - _referenced_names(trees)
    assert unreferenced == set(ALLOWED_UNREFERENCED)
