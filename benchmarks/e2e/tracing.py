"""Per-layer measurement for the end-to-end benchmark, from outside.

Nothing here edits the program.  A traced run combines three sources:

* **Sampled layer time.**  :class:`Sampler` is one extra thread that
  reads the main thread's stack through ``sys._current_frames()`` about
  every millisecond and maps each frame's file to a layer
  (:func:`layer_of`).  The innermost mapped frame gets the self time,
  every layer on the stack gets inclusive time, and the collapsed layer
  path (``genericity > mappings > types``) builds a cross-layer tree.
* **Exact counts.**  :class:`Counters` installs counting wrappers on
  public entry points (class methods, every ``repro.*`` module attribute
  bound to a wrapped function, each ``DEFAULT_RULES`` entry's ``apply``,
  and ``os.fsync``) and removes them again.
* **Driver spans** are timed by the workloads themselves (see
  ``workloads.py``); this module only turns them into a span list.

Frames of this file are the ``bench.trace`` pseudo-layer: the cost of
the wrappers.  The one exception is the wrapper around ``os.fsync``
(:func:`_count_builtin`), which the sampler folds into its caller.
Frames of the other benchmark files are ``bench.driver``.
"""

from __future__ import annotations

import functools
import os
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src"
PACKAGE = SRC / "repro"

#: Files under ``src/repro`` map to layers by the first matching prefix.
#: Top-level modules (``cli.py``, ``bench.py``, ``__init__.py``,
#: ``__main__.py``) form the ``cli`` layer; a new sub-package matches no
#: rule until it is given a layer here, which the tests catch.
LAYER_RULES = (
    ("engine/exec/cache.py", "engine.cache"),
    ("engine/exec/delta.py", "engine.cache"),
    ("engine/exec/fingerprint.py", "engine.cache"),
    ("engine/exec/", "engine.exec"),
    ("engine/", "engine.database"),
    ("optimizer/rewriter.py", "optimizer.rewriter"),
    ("optimizer/rules.py", "optimizer.rewriter"),
    ("optimizer/", "optimizer.plan"),
    ("types/", "types"),
    ("mappings/", "mappings"),
    ("genericity/", "genericity"),
    ("lambda2/", "lambda2"),
    ("algebra/", "algebra"),
    ("durability/", "durability"),
    ("experiments/", "experiments"),
    ("listset/", "listset"),
    ("obs/", "obs"),
    ("parallel/", "parallel"),
    ("robustness/", "robustness"),
)
TOP_LEVEL_LAYER = "cli"
TRACE_LAYER = "bench.trace"
DRIVER_LAYER = "bench.driver"

#: Every layer, in report order.
PROGRAM_LAYERS = tuple(
    dict.fromkeys([layer for _, layer in LAYER_RULES] + [TOP_LEVEL_LAYER])
)
LAYERS = PROGRAM_LAYERS + (TRACE_LAYER, DRIVER_LAYER)


def layer_of_source(relative: str) -> str | None:
    """The layer of a file given by its path relative to ``src/repro``."""
    relative = relative.replace(os.sep, "/")
    for prefix, layer in LAYER_RULES:
        if relative.startswith(prefix):
            return layer
    return TOP_LEVEL_LAYER if "/" not in relative else None


def layer_of(filename: str) -> str | None:
    """The layer a code object's file belongs to, or ``None`` for code
    outside the program and the benchmark (the standard library)."""
    path = Path(filename).resolve()
    if path.parent == HERE:
        return TRACE_LAYER if path.name == "tracing.py" else DRIVER_LAYER
    try:
        relative = path.relative_to(PACKAGE)
    except ValueError:
        return None
    return layer_of_source(str(relative))


def _count_builtin(counts, name: str, fn):
    """A counting wrapper around a C function such as ``os.fsync``.

    Time inside a C function has no Python frame of its own, so the
    sampler would credit all of it to this wrapper's frame.  The sampler
    folds this frame into its caller instead (:data:`TRANSPARENT`), the
    way it folds standard-library frames.
    """
    def call(*args, **kwargs):
        counts[name] += 1
        return fn(*args, **kwargs)
    return call


#: Code objects whose frames the sampler folds into their caller.
TRANSPARENT = frozenset({_count_builtin({}, "", len).__code__})


class Sampler:
    """Samples the main thread's stack from a second thread."""

    def __init__(self, interval: float = 0.001) -> None:
        self.interval = interval
        self.self_s: dict[str, float] = defaultdict(float)
        self.incl_s: dict[str, float] = defaultdict(float)
        self.paths: dict[tuple[str, ...], float] = defaultdict(float)
        self.samples = 0
        self.total_s = 0.0
        self._layers: dict = {}
        self._stop = threading.Event()
        self._thread: threading.Thread | None = None
        self._switch = sys.getswitchinterval()

    def _layer(self, code) -> str | None:
        try:
            return self._layers[code]
        except KeyError:
            layer = None if code in TRANSPARENT else layer_of(code.co_filename)
            self._layers[code] = layer
            return layer

    def _record(self, frame, dt: float) -> None:
        # Innermost first; the standard library and the TRANSPARENT
        # wrappers are folded into their caller.
        stack = []
        while frame is not None:
            layer = self._layer(frame.f_code)
            if layer is not None:
                stack.append(layer)
            frame = frame.f_back
        if not stack:
            return
        self.samples += 1
        self.total_s += dt
        self.self_s[stack[0]] += dt
        # Wrappers are transparent on the path unless they are innermost.
        path = [layer for layer in reversed(stack[1:]) if layer != TRACE_LAYER]
        path.append(stack[0])
        collapsed = tuple(
            layer for i, layer in enumerate(path) if i == 0 or path[i - 1] != layer
        )
        for layer in set(collapsed):
            self.incl_s[layer] += dt
        self.paths[collapsed] += dt

    def _run(self, main_id: int) -> None:
        last = time.perf_counter()
        # Half the interval asleep, up to half waiting for the lock.
        while not self._stop.wait(self.interval / 2):
            now = time.perf_counter()
            frame = sys._current_frames().get(main_id)
            if frame is not None:
                self._record(frame, now - last)
            last = now

    def start(self) -> None:
        # The main thread gives up the interpreter lock at most every
        # switch interval, which bounds the sampling rate.
        sys.setswitchinterval(self.interval / 2)
        self._thread = threading.Thread(
            target=self._run, args=(threading.main_thread().ident,), daemon=True
        )
        self._thread.start()

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=10)
        if self._thread.is_alive():
            raise RuntimeError("sampler thread did not stop")
        sys.setswitchinterval(self._switch)

    def tree(self) -> dict:
        """The layer paths as a nested tree of inclusive and self time."""
        root: dict = {"incl_s": self.total_s, "self_s": 0.0, "children": {}}
        for path, seconds in self.paths.items():
            node = root
            for layer in path:
                node = node["children"].setdefault(
                    layer, {"incl_s": 0.0, "self_s": 0.0, "children": {}}
                )
                node["incl_s"] += seconds
            node["self_s"] += seconds
        return root


#: The ``PlanCache.stats()`` counters reported per layer.
CACHE_STATS = (
    "hits", "misses", "evictions", "invalidations", "maintained",
    "maintain_fallback",
)
#: The classes whose ``holds`` calls are counted.
HOLDS_CLASSES = (
    "Mapping", "ProductRel", "ListRel", "SetRelExt", "SetStrongExt",
    "BagRelExt", "BagStrongExt",
)


class Counters:
    """Counting wrappers on the program's public entry points.

    ``install()`` wraps, ``uninstall()`` restores every original; use
    the instance as a context manager.  ``mark()`` starts the counted
    interval and ``snapshot()`` returns the counts since the mark.
    """

    def __init__(self) -> None:
        self.counts: dict[str, int] = defaultdict(int)
        self.caches: list = []
        self._base: dict[str, int] = {}
        self._cache_base: dict[int, dict] = {}
        self._undo: list = []
        self._originals: dict = {}

    # -- wrapping -------------------------------------------------------

    def _wrapper(self, fn, name, after=None):
        counts = self.counts
        if after is None:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                counts[name] += 1
                return fn(*args, **kwargs)
        else:
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if name is not None:
                    counts[name] += 1
                result = fn(*args, **kwargs)
                after(args, result)
                return result
        self._originals[id(wrapper)] = (wrapper, fn)
        return wrapper

    def _wrap_method(self, cls, attr, name, after=None) -> None:
        original = cls.__dict__[attr]
        setattr(cls, attr, self._wrapper(original, name, after))
        self._undo.append(lambda: setattr(cls, attr, original))

    def _wrap_function(self, fn, name, after=None):
        """Rebind every ``repro.*`` module attribute that is ``fn``."""
        wrapper = self._wrapper(fn, name, after)
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                if value is fn:
                    setattr(module, attr, wrapper)
        return wrapper

    def install(self) -> "Counters":
        import repro.durability.wal as wal
        from repro.durability.recovery import recover
        from repro.engine.database import Database
        from repro.engine.exec.cache import PlanCache
        from repro.genericity.exhaustive import exhaustive_check
        from repro.genericity.invariance import check_invariance
        from repro.genericity.witnesses import find_counterexample
        from repro.lambda2.eval import evaluate
        from repro.mappings import extensions, mapping
        from repro.optimizer.rewriter import Rewriter
        from repro.optimizer.rules import DEFAULT_RULES

        counts = self.counts

        def add_fires(args, _result):
            counts["optimizer.rewriter.rule_fires"] += len(args[0].trace)

        def add_work(_args, result):
            counts["engine.exec.work"] += result.work

        def add_bytes(_args, line):
            counts["durability.wal_bytes"] += len(line)

        def add_replayed(_args, result):
            counts["durability.records_replayed"] += result[1].replayed

        def register_cache(args, _result):
            self.caches.append(args[0])

        for cls_name in HOLDS_CLASSES:
            cls = getattr(mapping if cls_name == "Mapping" else extensions, cls_name)
            self._wrap_method(cls, "holds", f"mappings.holds_calls.{cls_name}")
        self._wrap_method(
            Rewriter, "optimize", "optimizer.rewriter.optimize_calls", add_fires
        )
        self._wrap_method(Database, "run", "engine.database.run_calls", add_work)
        self._wrap_method(Database, "insert", "engine.database.insert_calls")
        self._wrap_method(
            wal.WriteAheadLog, "commit", "durability.records_committed"
        )
        self._wrap_method(PlanCache, "__init__", None, register_cache)
        for fn, name, after in (
            (check_invariance, "genericity.check_invariance_calls", None),
            (find_counterexample, "genericity.find_counterexample_calls", None),
            (exhaustive_check, "genericity.exhaustive_check_calls", None),
            (evaluate, "lambda2.evaluate_calls", None),
            (wal.encode_record, None, add_bytes),
            (recover, None, add_replayed),
        ):
            self._wrap_function(fn, name, after)
        for rule in DEFAULT_RULES:
            original = rule.apply
            wrapper = self._wrap_function(
                original, "optimizer.rewriter.rule_attempts"
            )
            object.__setattr__(rule, "apply", wrapper)
            self._undo.append(
                lambda rule=rule, fn=original: object.__setattr__(rule, "apply", fn)
            )
        fsync = os.fsync
        os.fsync = _count_builtin(counts, "durability.fsync_calls", fsync)
        self._undo.append(lambda: setattr(os, "fsync", fsync))
        return self

    def uninstall(self) -> None:
        for undo in reversed(self._undo):
            undo()
        self._undo.clear()
        # Modules imported while the wrappers were live may have bound a
        # wrapper by name; rebind those too.
        for module in _program_modules():
            for attr, value in list(vars(module).items()):
                wrapper, original = self._originals.get(id(value), (None, None))
                if wrapper is value:
                    setattr(module, attr, original)

    def __enter__(self) -> "Counters":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # -- reading ----------------------------------------------------------

    def mark(self) -> None:
        self._base = dict(self.counts)
        self._cache_base = {id(c): c.stats() for c in self.caches}

    def snapshot(self) -> dict[str, float]:
        out: dict[str, float] = {
            name: value - self._base.get(name, 0)
            for name, value in self.counts.items()
        }
        totals = dict.fromkeys(CACHE_STATS, 0)
        for cache in self.caches:
            stats = cache.stats()
            base = self._cache_base.get(id(cache), {})
            for key in CACHE_STATS:
                totals[key] += stats[key] - base.get(key, 0)
        for key, value in totals.items():
            out[f"engine.cache.{key}"] = value
        looked_up = totals["hits"] + totals["misses"]
        out["engine.cache.hit_rate"] = totals["hits"] / looked_up if looked_up else 0.0
        return out


def _program_modules():
    return [
        module
        for name, module in list(sys.modules.items())
        if module is not None and (name == "repro" or name.startswith("repro."))
    ]


class Tracer:
    """The traced-run hooks a workload calls around its timed phase."""

    def __init__(self) -> None:
        self.counters = Counters()
        self.sampler = Sampler()
        self.counts: dict[str, float] = {}

    def start(self) -> None:
        self.counters.mark()
        self.sampler.start()

    def stop(self) -> None:
        self.sampler.stop()
        self.counts = self.counters.snapshot()

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics of the timed phase, by name."""
        out = dict(self.counts)
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self.sampler.self_s.get(layer, 0.0)
            out[f"{layer}.incl_s"] = self.sampler.incl_s.get(layer, 0.0)
        sampled = self.sampler.total_s
        named = sampled - self.sampler.self_s.get(DRIVER_LAYER, 0.0)
        out["bench.trace.named_frac"] = named / sampled if sampled else 0.0
        out["bench.trace.samples"] = self.sampler.samples
        return out

    def document(self) -> dict:
        """The layer tree and totals, for the trace file."""
        return {
            "samples": self.sampler.samples,
            "sampled_s": self.sampler.total_s,
            "self_s": dict(self.sampler.self_s),
            "incl_s": dict(self.sampler.incl_s),
            "tree": self.sampler.tree(),
        }


def spans(ops, origin: float) -> list[dict]:
    """Driver spans: the workload span, one span per op and its parts.

    ``ops`` holds ``(kind, start, end, parts)`` tuples in
    ``time.perf_counter`` seconds; ``parts`` are ``(name, start, end)``.
    Spans of one op share its ``op`` id; an op's parent is the workload
    span (id 0).
    """
    end = max((op[2] for op in ops), default=origin)
    out = [{"id": 0, "parent": None, "op": None, "name": "workload",
            "start": 0.0, "end": end - origin}]
    for op_id, (kind, start, stop, parts) in enumerate(ops, start=1):
        parent = len(out)
        out.append({"id": parent, "parent": 0, "op": op_id, "name": kind,
                    "start": start - origin, "end": stop - origin})
        for name, part_start, part_end in parts:
            out.append({"id": len(out), "parent": parent, "op": op_id,
                        "name": name, "start": part_start - origin,
                        "end": part_end - origin})
    return out
