"""Every module-level name of the package is used by the package or by its benchmark.

A name counts as used when a module of `src/deuteronvqe/` other than
`__init__.py`, or a script in `perfbench/`, reads it (as a bare name or as an
attribute) outside its own top-level definition.  This covers every export,
every constant and every private helper: a name that nothing but the tests
reads is dead code.  Remove it, or list it below with the reason.

The same reader pins where the fold rule lives: callers hand the simulator an
unfolded circuit and a `FoldSpec`, so a faster noisy engine changes one module.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = sorted((ROOT / "src" / "deuteronvqe").glob("*.py"))
SOURCES = sorted({*PACKAGE, *(ROOT / "perfbench").glob("*.py")}
                 - {ROOT / "src" / "deuteronvqe" / "__init__.py"})

# module-level names that only the test suite reads, and why each stays
UNUSED_BY_DESIGN = {
    "fit_quadratic_minimum": "criterion 6's landscape fit, which only the acceptance suite calls",
    "UCCS_EXACT_MINIMA": "published exact minima that criterion 2 checks the package against",
    "LANDSCAPE_FIT_MINIMA": "published landscape-fit minima that criterion 6 checks",
    "LANDSCAPE_FIT_AVERAGE": "published average of the landscape fits that criterion 6 checks",
}


def _names_read(path: Path) -> set[str]:
    """Names and attributes read in a file, outside the definition of the same name."""
    found = set()
    for top in ast.parse(path.read_text()).body:
        read = {node.id for node in ast.walk(top)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        read |= {node.attr for node in ast.walk(top) if isinstance(node, ast.Attribute)}
        read.discard(getattr(top, "name", None))  # a top-level def or class
        found |= read
    return found


def _defined_names() -> dict[str, str]:
    """Every name a package module defines at top level (def, class or
    assignment; dunders aside), mapped to its module's file name."""
    out = {}
    for path in PACKAGE:
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                names = {top.name}
            elif isinstance(top, (ast.Assign, ast.AnnAssign)):
                targets = top.targets if isinstance(top, ast.Assign) else [top.target]
                names = {node.id for t in targets for node in ast.walk(t) if isinstance(node, ast.Name)}
            else:
                continue
            out.update((name, path.name) for name in names if not name.startswith("__"))
    return out


def test_every_module_level_name_is_used():
    assert SOURCES, "no package or benchmark sources found"
    used = set().union(*map(_names_read, SOURCES))
    dead = sorted(f"{module}: {name}" for name, module in _defined_names().items()
                  if name not in used and name not in UNUSED_BY_DESIGN)
    assert not dead, f"defined but never used outside the tests: {dead}"


def test_allowlist_names_only_unused_names():
    # an entry that is no longer defined, or that has gained a use, goes
    used = set().union(*map(_names_read, SOURCES))
    assert set(UNUSED_BY_DESIGN) <= set(_defined_names())
    assert not set(UNUSED_BY_DESIGN) & used


def test_only_the_simulator_folds():
    readers = sorted(path.stem for path in PACKAGE
                     if path.name != "__init__.py" and "fold_circuit" in _names_read(path))
    assert readers == ["simulator"], f"fold_circuit is read outside the simulator: {readers}"
