"""Traced stand-in for the console script.

``python3 bench/tracer.py SPANS_FILE COMMAND_ID ARGS`` wraps, from
outside, every function that one ``skewbench`` module imports from another
and every function the per-layer metrics name (``layers.FUNCTIONS``).  It
binds the wrapper wherever a ``skewbench`` module holds that function object
(module globals and module-level dicts, so private imports such as
``_arrow_by_candidates`` in ``skew_heyting`` are covered), then calls
``cli.main`` as the console script does.  ``src/`` is not modified.

Spans stay in memory; each is ``[command, id, parent, name, start, end,
outermost, attrs]`` and all of them are written to SPANS_FILE when the
command ends, also when it ends with an exception.  A generator function
gets one span per resumption.  ``attrs`` carries the counts measured at
that boundary (kernel pairs, tuples, upsets, elements built and so on).
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import json
import sys
import time
from collections import Counter

import launch
from layers import FUNCTIONS, LAYERS


def _derive_key(args, kwargs):
    A = args[0]
    digest = hashlib.sha1(A.meet.tobytes() + b"|" + A.join.tobytes()).hexdigest()
    return {"key": digest}


def _elements(result):
    return {"elements": int(result.n)}


# Counts recorded at a boundary: ``pre`` sees the arguments, ``post`` the result.
PRE = {
    "heyting._arrow_by_candidates": lambda args, kwargs: {"pairs": int(args[0].n) ** 2},
    "identities.run_check": lambda args, kwargs: {"arity": int(args[0].arity)},
    "skew_heyting.derive_arrow": _derive_key,
}
POST = {
    "identities.run_check": lambda r: {"tuples": int(r.checked)},
    "core.find_isomorphism": lambda r: {"hit": int(r is not None)},
    "properties.classify": lambda r: {"checked": {e.name: int(e.checked) for e in r.entries}},
    "models.partial_function_algebra": _elements,
    "models.sections_algebra": _elements,
    "models.poset_sections_algebra": _elements,
    "models.upset_heyting": _elements,
}


class Recorder:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.active: Counter = Counter()

    def _open(self, name: str, attrs) -> list:
        rec = [
            self.command_id,
            len(self.spans),
            self.stack[-1] if self.stack else -1,
            name,
            0.0,
            0.0,
            int(self.active[name] == 0),
            attrs,
        ]
        self.spans.append(rec)
        self.stack.append(rec[1])
        self.active[name] += 1
        rec[4] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[5] = time.perf_counter()
        self.stack.pop()
        self.active[rec[3]] -= 1

    def wrap(self, name: str, fn):
        pre, post = PRE.get(name), POST.get(name)

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                gen = fn(*args, **kwargs)
                first = True
                while True:
                    rec = self._open(name, {"first": 1} if first else None)
                    first = False
                    try:
                        item = next(gen)
                    except StopIteration:
                        return
                    finally:
                        self._close(rec)
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = self._open(name, pre(args, kwargs) if pre else None)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if post:
                rec[7] = {**(rec[7] or {}), **post(result)}
            return result

        return wrapper


def install(recorder: Recorder) -> None:
    modules = [importlib.import_module(f"skewbench.{layer}") for layer in LAYERS]
    defined = {}
    for mod in modules:
        short = mod.__name__.split(".", 1)[1]
        for attr, value in vars(mod).items():
            if inspect.isfunction(value) and value.__module__ == mod.__name__:
                defined[id(value)] = (f"{short}.{attr}", value)
    imported = {
        id(value)
        for mod in modules
        for value in vars(mod).values()
        if id(value) in defined and defined[id(value)][1].__module__ != mod.__name__
    }
    wrapped = {
        key: (fn, recorder.wrap(name, fn))
        for key, (name, fn) in defined.items()
        if key in imported or name in FUNCTIONS
    }
    for mod in modules:
        for attr, value in list(vars(mod).items()):
            if id(value) in wrapped and wrapped[id(value)][0] is value:
                setattr(mod, attr, wrapped[id(value)][1])
            elif isinstance(value, dict):
                for key, item in list(value.items()):
                    if id(item) in wrapped and wrapped[id(item)][0] is item:
                        value[key] = wrapped[id(item)][1]


if __name__ == "__main__":
    fd = launch.prepare()
    spans_file, command_id = sys.argv[1], sys.argv[2]
    sys.argv = [sys.argv[0], *sys.argv[3:]]
    import skewbench.cli

    recorder = Recorder(command_id)
    install(recorder)
    launch.ready(fd)
    try:
        status = skewbench.cli.main()
    finally:
        with open(spans_file, "w") as fh:
            json.dump({"command": command_id, "argv": sys.argv[1:], "spans": recorder.spans}, fh)
    sys.exit(status)
