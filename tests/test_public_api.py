"""Every name that ``gtkit`` exports is used by the package or the benchmark.

The check walks ``src/gtkit/*.py`` and ``perfbench/*.py`` with ``ast`` and
looks for a read of each exported name (a bare name or an attribute) outside
the body of the ``def`` or ``class`` that defines it.  Code that only the
tests call fails here, unless it is one of the reference definitions below.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "gtkit"

#: Exported for the reader and the tests, though no command reaches them.
REFERENCE_DEFINITIONS = {
    "sign_of": "the definition of a pattern's sign that brute force is tested against",
    "norm_of": "the definition of a pattern's norm that brute force is tested against",
    "gt_to_spp": "the bijection that ties the SPP oracle to the patterns",
    "spp_to_gt": "the inverse of the bijection, tested as a round trip",
    "spp_generating_function": "the SPP oracle for the pattern engines and closed forms",
    "count_bounded_partitions": "the introduction's one-row count, by enumeration",
    "intro_binomial": "the introduction's closed form for the one-row count",
    "apply_phi": "the paper's operator Phi, checked against its product form",
    "apply_phi_q": "the q-analog of Phi, checked against its product form",
    "enumerate_monotone_triangles": "the validated triangles the asm counts are tested against",
}


def _exports() -> dict[str, str]:
    """Exported name -> file stem of the module that defines it."""
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return {
        alias.asname or alias.name: node.module
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


def _reads(path: Path) -> set[tuple[str, frozenset]]:
    """(name, enclosing def and class names) for every name read in path."""
    found = set()

    def visit(node, scopes):
        if isinstance(node, ast.Name):
            found.add((node.id, scopes))
        elif isinstance(node, ast.Attribute):
            found.add((node.attr, scopes))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def _unused_exports() -> set[str]:
    exports = _exports()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        in_package = path.parent == PACKAGE
        for name, scopes in _reads(path):
            own_body = in_package and exports.get(name) == path.stem and name in scopes
            if name in exports and not own_body:
                used.add(name)
    return set(exports) - used


def test_every_export_is_used_outside_the_tests():
    assert _unused_exports() - set(REFERENCE_DEFINITIONS) == set()


def test_no_module_level_container():
    # a memo, cache or table belongs to the call or the suite call that
    # makes it; the only module-level container is the suites' registry
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "gtkit" if path.stem == "__init__" else f"gtkit.{path.stem}"
        for attr, value in vars(importlib.import_module(name)).items():
            if isinstance(value, (dict, list, set)) and not attr.startswith("__"):
                found.add(f"{name}.{attr}")
    assert found == {"gtkit.cli.SUITES"}


def test_reference_definitions_are_exported_and_unused():
    # an entry that the package or the benchmark starts to use, or that is
    # no longer exported, leaves this list
    assert set(REFERENCE_DEFINITIONS) <= _unused_exports()
