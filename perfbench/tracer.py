"""Outside-in tracer: spans around calls into riskeig's public functions.

The package carries no instrumentation of its own, so for the length of one
traced run this module swaps wrappers in from the outside:

* every public function of the traced modules, under every name in every
  ``riskeig`` module that refers to the same function object (``cli.run_sweep``
  is ``continuation.sweep``; ``groundstate`` imports ``principal_eigenpair``
  and ``run_paths`` by name), so calls are seen whichever name they go
  through;
* ``Model.drift_at``, ``Model.cost_at`` and ``Model.covariance`` on the class;
* ``riskeig.eigensolve.spla``, replaced by a proxy that counts ``splu`` and
  ``spilu`` factorizations and ``bicgstab`` solves without making spans.

A span is (id, name, start, end, parent id, run id).  Spans are kept per
thread in memory and written out when the run ends.  A span opened on a
worker thread with nothing open on that thread takes as parent the innermost
span open on the thread that entered ``run``: the package only starts workers
from inside a traced call on that thread (``sweep``, ``run_paths``).
"""

from __future__ import annotations

import functools
import gzip
import inspect
import itertools
import sys
import threading
import time
from collections import Counter, defaultdict

# module -> layer; the serializer belongs to the CLI layer
LAYERS = {
    "model": "model",
    "discretize": "discretize",
    "eigensolve": "eigensolve",
    "continuation": "continuation",
    "groundstate": "groundstate",
    "montecarlo": "montecarlo",
    "_serialize": "cli",
    "cli": "cli",
}
MODEL_METHODS = ("drift_at", "cost_at", "covariance")
SPLA_COUNTERS = {
    "splu": "eigensolve.factorizations",
    "spilu": "eigensolve.factorizations",
    "bicgstab": "eigensolve.bicgstab_solves",
}


def _count_eigenpair(out) -> dict:
    return {"eigensolve.iterations": out.iterations}


def _count_hjb(out) -> dict:
    return {"eigensolve.policy_sweeps": out.policy_sweeps}


def _count_paths(out) -> dict:
    # marched path-steps: a path stops at its exit step, others run to the end
    steps = out.exit_step.copy()
    steps[steps < 0] = out.cfg.n_steps
    return {
        "montecarlo.path_steps": int(steps.sum()),
        "montecarlo.truncated": int(out.truncated.sum()),
        "montecarlo.absorbed": int(out.absorbed.sum()),
    }


# counters read off return values at the layer boundary
RETURN_COUNTERS = {
    "eigensolve.principal_eigenpair": _count_eigenpair,
    "eigensolve.solve_hjb_dirichlet": _count_hjb,
    "montecarlo.run_paths": _count_paths,
}


class _SplaProxy:
    """Stands in for scipy.sparse.linalg inside riskeig.eigensolve, counting solver calls."""

    def __init__(self, real, tracer: "Tracer"):
        self._real = real
        for name, counter in SPLA_COUNTERS.items():
            setattr(self, name, tracer._counting(counter, getattr(real, name)))

    def __getattr__(self, name):
        return getattr(self._real, name)


class Tracer:
    """Installs wrappers into an imported riskeig and records spans and counters."""

    def __init__(self):
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._buffers: list[list[tuple]] = []
        self._root_stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []
        self.counters: Counter = Counter()
        self.run_id = 0

    # -- recording ---------------------------------------------------------

    def _state(self):
        local = self._local
        try:
            return local.stack, local.spans
        except AttributeError:
            local.stack, local.spans = [], []
            with self._lock:
                self._buffers.append(local.spans)
            return local.stack, local.spans

    def _parent(self, stack) -> int:
        if stack:
            return stack[-1]
        root = self._root_stack
        return root[-1] if root else 0

    def _wrap(self, name: str, fn):
        tracer = self
        count = RETURN_COUNTERS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack, spans = tracer._state()
            parent = tracer._parent(stack)
            sid = next(tracer._ids)
            stack.append(sid)
            start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans.append((sid, name, start, end, parent, tracer.run_id))
            if count is not None:
                tracer.add(count(out))
            return out

        return traced

    def _counting(self, counter: str, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.add({counter: 1})
            return fn(*args, **kwargs)

        return counted

    def add(self, counts: dict) -> None:
        with self._lock:
            self.counters.update(counts)

    def run(self, name: str, fn):
        """Call ``fn`` inside a root span; worker spans without a parent attach here."""
        stack, spans = self._state()
        self._root_stack = stack
        self.run_id += 1
        sid = next(self._ids)
        stack.append(sid)
        start = time.perf_counter()
        try:
            return fn()
        finally:
            end = time.perf_counter()
            stack.pop()
            spans.append((sid, name, start, end, self._parent(stack), self.run_id))

    # -- installing --------------------------------------------------------

    def install(self) -> None:
        mods = {
            name: mod for name, mod in sys.modules.items()
            if name == "riskeig" or name.startswith("riskeig.")
        }
        by_id: dict[int, tuple] = {}
        for short, layer in LAYERS.items():
            mod = mods["riskeig." + short]
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and obj.__module__ == mod.__name__
                        and not attr.startswith("_")):
                    by_id[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                hit = by_id.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._patch(mod, attr, hit[1])

        model_cls = mods["riskeig.model"].Model
        for meth in MODEL_METHODS:
            self._patch(model_cls, meth, self._wrap(f"model.{meth}", model_cls.__dict__[meth]))

        eig = mods["riskeig.eigensolve"]
        self._patch(eig, "spla", _SplaProxy(eig.spla, self))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- reading -----------------------------------------------------------

    def spans(self) -> list[tuple]:
        with self._lock:
            return [s for buf in self._buffers for s in buf]

    def write(self, path) -> None:
        """Spans as gzip'd CSV: id,name,start,end,parent,run."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,run\n")
            for sid, name, start, end, parent, run in sorted(self.spans()):
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},{parent},{run}\n")


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
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


def summarize(spans: list[tuple]) -> dict[str, dict]:
    """Per span name: calls, total (inclusive) seconds and self seconds.

    Self time is a span's duration minus the part of it its child spans
    cover; children on parallel threads are merged before subtracting.
    """
    children = defaultdict(list)
    for _sid, _name, start, end, parent, _run in spans:
        children[parent].append((start, end))
    out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0})
    for sid, name, start, end, _parent, _run in spans:
        row = out[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += (end - start) - _covered(children.get(sid, []), start, end)
    return dict(out)
