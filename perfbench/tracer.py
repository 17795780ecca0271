"""Spans around the package's public functions, installed from outside.

The package is never edited.  Every module-level public function defined in
one of the layer modules is wrapped wherever another module of the package
binds it (the modules that import it, and the package namespace the
benchmark calls through), and each call is attributed to the layer that
defines the function.  Spans therefore sit at layer boundaries: a call
inside one module runs in its caller's span.  A function that a later
change adds, renames or removes is picked up, or dropped, without touching
this file.

`Patches` restores every replaced binding in reverse order when it closes.
"""
from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import time
from collections import defaultdict

PACKAGE = "deuteronvqe"
LAYERS = ("hamiltonian", "ansatz", "circuits", "compiler", "simulator", "estimator", "driver")


def package_modules() -> list:
    """The imported package and its submodules, in a stable order."""
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def layer_of(fn) -> str | None:
    """Layer name of a package function, or None for anything else."""
    module = getattr(fn, "__module__", "") or ""
    prefix = PACKAGE + "."
    if not module.startswith(prefix):
        return None
    layer = module[len(prefix):]
    return layer if layer in LAYERS else None


def bindings_of(fn) -> list[tuple[object, str]]:
    """Every (module, name) in the package that currently holds `fn`."""
    return [(m, name) for m in package_modules()
            for name, value in list(vars(m).items()) if value is fn]


class Patches:
    """Replaced module attributes; `close` puts the originals back."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def replace(self, module, name: str, value):
        self._saved.append((module, name, getattr(module, name)))
        setattr(module, name, value)

    def close(self):
        while self._saved:
            module, name, original = self._saved.pop()
            setattr(module, name, original)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.close()
        return False


def wrap_everywhere(patches: Patches, fn, wrapper):
    """Bind `wrapper` in place of `fn` wherever the package binds `fn`."""
    for module, name in bindings_of(fn):
        patches.replace(module, name, wrapper)


class Tracer:
    """In-memory spans with per-layer self time and call counts.

    A span's self time is its duration minus the durations of its direct
    children; calls are single-threaded, so children never overlap.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple[int, int, str, float, float]] = []  # id, parent, name, start, end
        self.self_s: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self._stack: list[list] = []  # [span id, child seconds]
        self._ids = itertools.count(1)

    def install(self, patches: Patches):
        """Wrap every public layer function where another module binds it."""
        wrappers = {}
        for module in package_modules():
            for name, value in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(value):
                    continue
                layer = layer_of(value)
                if layer is None or value.__name__.startswith("_") or value.__module__ == module.__name__:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(value, layer)
                patches.replace(module, name, wrappers[id(value)])

    def _wrap(self, fn, layer: str):
        span_name = f"{layer}.{fn.__name__}"
        stack = self._stack
        spans = self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            span_id = next(self._ids)
            parent = stack[-1][0] if stack else 0
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.self_s[layer] += duration - frame[1]
                self.calls[layer] += 1
                if stack:
                    stack[-1][1] += duration
                spans.append((span_id, parent, span_name, start, end))

        return traced

    def write(self, path):
        """Spans as gzip CSV: id, parent id, name, start and end in seconds."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for span_id, parent, name, start, end in self.spans:
                fh.write(f"{span_id},{parent},{name},{start:.9f},{end:.9f}\n")
