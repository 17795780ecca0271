"""Every name the package exports is used by the package or by its benchmark.

A name counts as used when a module of `src/deuteronvqe/` other than
`__init__.py`, or a script in `perfbench/`, reads it (as a bare name or as an
attribute) outside its own top-level definition.  An export that nothing but
the tests reads is dead API: remove it, or list it below with the reason.
"""
import ast
import types
from pathlib import Path

import deuteronvqe

ROOT = Path(__file__).resolve().parents[1]
SOURCES = sorted({*(ROOT / "src" / "deuteronvqe").glob("*.py"), *(ROOT / "perfbench").glob("*.py")}
                 - {ROOT / "src" / "deuteronvqe" / "__init__.py"})

# exports that only the test suite reads, and why each stays public
UNUSED_BY_DESIGN = {
    "fit_quadratic_minimum": "criterion 6's landscape fit, which only the acceptance suite calls",
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


def _exports() -> list[str]:
    return [name for name in deuteronvqe.__all__
            if not isinstance(getattr(deuteronvqe, name), types.ModuleType)]


def test_every_export_is_used():
    assert SOURCES, "no package or benchmark sources found"
    used = set().union(*map(_names_read, SOURCES))
    dead = [name for name in _exports() if name not in used and name not in UNUSED_BY_DESIGN]
    assert not dead, f"exported but never used outside the tests: {dead}"


def test_allowlist_names_only_unused_exports():
    # an entry that is no longer exported, or that has gained a use, goes
    used = set().union(*map(_names_read, SOURCES))
    assert set(UNUSED_BY_DESIGN) <= set(_exports())
    assert not set(UNUSED_BY_DESIGN) & used
