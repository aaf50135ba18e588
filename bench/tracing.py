"""In-memory span tracing of the hetfed package, applied from outside.

A ``Tracer`` replaces the public module-level functions of the traced
hetfed modules (and every alias other hetfed modules hold to them) with
thin wrappers that record one span per call: name, start, end, parent span
and run id. Uninstalling puts every original object back.

Parents are tracked per thread. Work handed to a thread pool by the
package keeps the span that submitted it as its parent, because the
tracer also swaps the ``ThreadPoolExecutor`` name the package modules
hold for a subclass that passes the submitter's open span to the worker.
The run id of a span is that of the enclosing ``harness.execute_run``
span, so the spans of two cells running at once stay apart.
"""

import functools
import hashlib
import inspect
import sys
import threading
import time
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor

TRACED_MODULES = ("config", "data", "nn", "protocol", "reweight", "metrics", "harness", "cli")

RUN_SPAN = "harness.execute_run"
FORWARD_SPAN = "nn.mlp_forward"


def _first(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Work counts recorded next to the span, keyed by span name.
WORK_COUNTS = {
    "metrics.roc_auc": lambda a, k: {"scores": len(_first(a, k, 0, "scores"))},
    "nn.backward": lambda a, k: {"rows": len(_first(a, k, 1, "batch"))},
    "nn.mlp_forward": lambda a, k: {"rows": len(_first(a, k, 1, "batch"))},
    "reweight.dlr_refine": lambda a, k: {"rows": len(_first(a, k, 0, "noisy_onehot"))},
    "nn.weighted_kl_alignment": lambda a, k: {"peers": len(_first(a, k, 1, "peer_logits"))},
}


def _forward_key(args, kwargs):
    """Parameters by content, batch by identity (the tracer keeps it alive)."""
    params = _first(args, kwargs, 0, "params")
    batch = _first(args, kwargs, 1, "batch")
    digest = hashlib.blake2b(params.values, digest_size=16).digest()
    return (params.layer_dims, digest, id(batch)), batch


def hetfed_modules() -> dict:
    """Every loaded hetfed module, by import name."""
    return {
        name: mod for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "hetfed" or name.startswith("hetfed."))
    }


def module_snapshot() -> dict:
    """(module, attribute) -> object identity, to prove a clean restore."""
    return {
        (name, attr): id(value)
        for name, mod in hetfed_modules().items()
        for attr, value in vars(mod).items()
    }


class Span:
    __slots__ = ("name", "start", "end", "parent", "run", "work")

    def __init__(self, name, parent, run, work):
        self.name = name
        self.start = 0.0
        self.end = 0.0
        self.parent = parent
        self.run = run
        self.work = work

    def as_dict(self, sid: int) -> dict:
        return {
            "id": sid, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "run": self.run, **self.work,
        }


class Tracer:
    """Wraps hetfed functions while installed; spans stay in ``self.spans``.

    ``only`` restricts wrapping to the named spans (``"harness.execute_run"``
    style); the default wraps every public function of TRACED_MODULES and
    carries parents into the package's thread pools.
    """

    def __init__(self, only=None):
        self.only = None if only is None else frozenset(only)
        self.spans: list[Span] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._seen: dict[int, dict] = defaultdict(dict)
        self._patches: list[tuple[object, str, object]] = []

    # -- span bookkeeping --------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else getattr(self._local, "inherited", None)

    def _wrap(self, name: str, fn):
        tracer = self
        count = WORK_COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = tracer.current()
            work = count(args, kwargs) if count is not None else {}
            key, batch = _forward_key(args, kwargs) if name == FORWARD_SPAN else (None, None)
            with tracer._lock:
                sid = len(tracer.spans)
                if name == RUN_SPAN or parent is None:
                    run = sid
                else:
                    run = tracer.spans[parent].run
                if key is not None:
                    seen = tracer._seen[run]
                    work["repeat"] = int(key in seen)
                    seen[key] = batch
                span = Span(name, parent, run, work)
                tracer.spans.append(span)
            stack = tracer._stack()
            stack.append(sid)
            span.start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                stack.pop()

        return traced

    def _executor_class(self):
        tracer = self

        class ParentPassingExecutor(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def call(*a, **k):
                    saved = getattr(tracer._local, "inherited", None)
                    tracer._local.inherited = parent
                    try:
                        return fn(*a, **k)
                    finally:
                        tracer._local.inherited = saved

                return super().submit(call, *args, **kwargs)

        return ParentPassingExecutor

    # -- install / uninstall -----------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        modules = hetfed_modules()
        wrappers = {}
        for short in TRACED_MODULES:
            mod = modules[f"hetfed.{short}"]
            for attr, value in vars(mod).items():
                name = f"{short}.{attr}"
                if (
                    attr.startswith("_")
                    or not inspect.isfunction(value)
                    or value.__module__ != mod.__name__
                    or (self.only is not None and name not in self.only)
                ):
                    continue
                wrappers[id(value)] = self._wrap(name, value)
        executor = self._executor_class() if self.only is None else None
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                replacement = wrappers.get(id(value))
                if replacement is None and executor is not None and value is ThreadPoolExecutor:
                    replacement = executor
                if replacement is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, replacement)

    def uninstall(self) -> None:
        while self._patches:
            mod, attr, value = self._patches.pop()
            setattr(mod, attr, value)

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def durations(self, name: str, first: int = 0) -> list[float]:
        return [s.end - s.start for s in self.spans[first:] if s.name == name]


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part of it its child spans cover."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return [
        (s.end - s.start) - covered(children.get(sid, ()), s.start, s.end)
        for sid, s in enumerate(spans)
    ]


def layer_totals(spans: list[Span], selfs: list[float], lo: int, hi: int) -> dict:
    """Per span name: calls, self seconds, summed work counts; spans[lo:hi]."""
    out: dict[str, dict] = defaultdict(lambda: defaultdict(float))
    for sid in range(lo, hi):
        s = spans[sid]
        row = out[s.name]
        row["calls"] += 1
        row["s"] += selfs[sid]
        row["wall"] += s.end - s.start
        for key, value in s.work.items():
            row[key] += value
    return {name: dict(row) for name, row in out.items()}


def child_totals(spans: list[Span], parent_name: str, lo: int, hi: int) -> tuple[dict, float]:
    """Summed durations of the named spans' direct children, by child name.

    Also returns the named spans' summed duration.
    """
    parents = {sid for sid in range(lo, hi) if spans[sid].name == parent_name}
    by_name: dict[str, float] = defaultdict(float)
    for sid in range(lo, hi):
        if spans[sid].parent in parents:
            by_name[spans[sid].name] += spans[sid].end - spans[sid].start
    wall = sum(spans[sid].end - spans[sid].start for sid in parents)
    return dict(by_name), wall
