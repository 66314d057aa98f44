"""In-memory spans around the public functions of every kvnlab layer.

The library is left untouched: entering a ``Tracer`` swaps each public
function for a recording wrapper in every kvnlab namespace that binds it
(calls between functions of one module go through the module globals, so
they are recorded too), and leaving it puts the originals back.  A span
is ``[name, layer, start, end, parent, pass_id]``; ``parent`` is the index
of the enclosing span or -1.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time

LAYERS = ("algebra", "phasespace", "stateio", "dynamics", "measurement", "uncertainty", "cli")

# public methods recorded besides the module-level functions: (module, class, method)
METHODS = (
    ("phasespace", "_Field", "with_conj"),
    ("measurement", "KrausFamily", "joint_probabilities"),
    ("measurement", "KrausFamily", "completeness_defect"),
    ("cli", "RunManifest", "record"),
)

# span groups reported as <group>_s and <group>_calls: (group, layer, span
# names); the time counts only the outermost spans of a group, so nesting is
# not counted twice
GROUPS = (
    ("phasespace.transform", "phasespace", ("_Field.with_conj", "to_representation")),
    ("phasespace.expectation", "phasespace", ("expectation",)),
    ("cli.record", "cli", ("RunManifest.record",)),
)

NAME, LAYER, START, END, PARENT, PASS = range(6)


class Tracer:
    """While entered, every public kvnlab call appends a span to ``spans``."""

    def __init__(self):
        self.spans = []
        self.pass_id = 0
        self._stack = []
        self._undo = []

    def _wrap(self, fn, layer):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        name = fn.__qualname__

        def traced(*args, **kwargs):
            span = [name, layer, 0.0, 0.0, stack[-1] if stack else -1, self.pass_id]
            stack.append(len(spans))
            spans.append(span)
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[END] = clock()
                stack.pop()

        traced.__wrapped__ = fn
        traced.__qualname__ = name
        return traced

    def __enter__(self):
        modules = {layer: importlib.import_module(f"kvnlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    wrappers[id(obj)] = self._wrap(obj, layer)
        for namespace in (importlib.import_module("kvnlab"), *modules.values()):
            for attr, obj in list(vars(namespace).items()):
                if id(obj) in wrappers:
                    self._undo.append((namespace, attr, obj))
                    setattr(namespace, attr, wrappers[id(obj)])
        for layer, cls_name, meth in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[meth]
            self._undo.append((cls, meth, original))
            setattr(cls, meth, self._wrap(original, layer))
        return self

    def __exit__(self, *exc):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def dump(self, path):
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "pass"],
                       "spans": self.spans}, fh)


def self_times(spans):
    """Each span's duration minus the durations of its direct children.

    Children nest inside their parent, so subtracting direct children removes
    every descendant exactly once.
    """
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def pass_metrics(spans, wall_s):
    """Per-layer self time and share, and group times and call counts, of one pass.

    ``spans`` are the spans of a single pass with parent indices into the
    same list; ``wall_s`` is the pass's wall time.
    """
    metrics = {}
    selfs = self_times(spans)
    for layer in LAYERS:
        t = sum((st for s, st in zip(spans, selfs) if s[LAYER] == layer), 0.0)
        metrics[f"{layer}.self_s"] = t
        metrics[f"{layer}.share"] = t / wall_s
    for group, layer, names in GROUPS:
        members = [s[LAYER] == layer and s[NAME] in names for s in spans]
        metrics[f"{group}_calls"] = sum(members)
        metrics[f"{group}_s"] = sum(
            (s[END] - s[START] for i, s in enumerate(spans)
             if members[i] and not _has_ancestor(spans, members, i)),
            0.0,
        )
    metrics["trace.spans"] = len(spans)
    return metrics


def _has_ancestor(spans, members, i):
    i = spans[i][PARENT]
    while i >= 0:
        if members[i]:
            return True
        i = spans[i][PARENT]
    return False


def split_passes(spans):
    """{pass_id: spans of that pass, parents re-indexed within the pass}."""
    by_pass = {}
    index = {}
    for i, s in enumerate(spans):
        own = by_pass.setdefault(s[PASS], [])
        index[i] = len(own)
        own.append(list(s))
    for own in by_pass.values():
        for s in own:
            if s[PARENT] >= 0:
                s[PARENT] = index[s[PARENT]]
    return by_pass
