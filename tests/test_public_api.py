"""Every definition in ``gtkit`` is used by the package or the benchmark.

The check walks ``src/gtkit/*.py`` and ``perfbench/*.py`` with ``ast`` and
looks for a read of each top-level definition (a ``def``, a ``class`` or an
assigned name, exported or private) as a bare name or an attribute, outside
the body of the ``def`` or ``class`` that defines it.  Code that only the
tests call fails here, unless it is one of the reference definitions below.
"""

import ast
import importlib
from pathlib import Path

from gtkit.cli import SweepConfig

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
    "verify_lemma_fund": "the fundamental lemma at one function, which the every-function "
                         "check is tested against",
    "verify_lemma_fund_q": "its q version, tested the same way",
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
        # a store or a del is not a read
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            found.add((node.id, scopes))
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            found.add((node.attr, scopes))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            scopes = scopes | {node.name}
        for child in ast.iter_child_nodes(node):
            visit(child, scopes)

    visit(ast.parse(path.read_text()), frozenset())
    return found


def _definitions() -> dict[str, set[str]]:
    """Top-level name -> file stems of the modules that define it."""
    found: dict[str, set[str]] = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [t.id for target in targets for t in ast.walk(target)
                         if isinstance(t, ast.Name)]
            else:
                continue
            for name in names:
                found.setdefault(name, set()).add(path.stem)
    return found


def _unread_definitions() -> set[str]:
    definitions = _definitions()
    used = set()
    for path in sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "perfbench").glob("*.py")):
        if path == PACKAGE / "__init__.py":
            continue
        in_package = path.parent == PACKAGE
        for name, scopes in _reads(path):
            own_body = in_package and path.stem in definitions.get(name, ()) and name in scopes
            if name in definitions and not own_body:
                used.add(name)
    return set(definitions) - used


def _unused_exports() -> set[str]:
    return set(_exports()) & _unread_definitions()


def test_every_export_is_used_outside_the_tests():
    assert _unused_exports() - set(REFERENCE_DEFINITIONS) == set()


def test_every_definition_is_read_outside_the_tests():
    # a helper that a fold leaves behind, read by nothing but itself or the
    # tests, is dead code; __version__ is there for the package's users
    assert _unread_definitions() - set(REFERENCE_DEFINITIONS) == {"__version__"}


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


def test_pack_bits_is_bound_in_exact_only():
    # the packed width has one owner, exact.widened: a module that binds
    # PACK_BITS could widen by a rule of its own
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        name = "gtkit" if path.stem == "__init__" else f"gtkit.{path.stem}"
        if "PACK_BITS" in vars(importlib.import_module(name)):
            found.add(name)
    assert found == {"gtkit.exact"}


def test_reference_definitions_are_exported_and_unused():
    # an entry that the package or the benchmark starts to use, or that is
    # no longer exported, leaves this list
    assert set(REFERENCE_DEFINITIONS) <= _unused_exports()


def test_every_sweep_field_is_read_by_the_cli():
    # an override that no suite reads, or one half renamed, changes nothing
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    read = {node.attr for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
            and isinstance(node.value, ast.Name) and node.value.id == "cfg"}
    assert set(SweepConfig._fields) <= read


def test_every_method_is_read():
    # a method that neither the package, the benchmark nor a test reads as
    # an attribute is dead code; a dunder is read by the language
    methods = {item.name for path in PACKAGE.glob("*.py")
               for node in ast.walk(ast.parse(path.read_text()))
               if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__") and item.name.endswith("__"))}
    read = {node.attr for folder in (PACKAGE, ROOT / "perfbench", ROOT / "tests")
            for path in folder.glob("*.py")
            for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    assert methods - read == set()
