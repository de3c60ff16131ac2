"""Per-layer tracing of logconn from outside the package.

:class:`Tracer` wraps every public function of each layer module, and
the public methods of the classes each module defines, under every name
the function is bound to inside the package (``schur`` is also imported
into ``localforms`` and ``bundles``; ``monodromy_report`` into ``cli``).
Each call becomes a span: name, start, end, and the span that was open
when it began.  A span's self time is its duration minus the time its
child spans cover, so the self times of all spans add up to the time
spent inside the package.

Spans stay in memory (a flat array of doubles) and are written out when
the benchmark ends.  Aggregates per name are kept as calls arrive.
"""

import functools
import gzip
import importlib
import inspect
import sys
import time
from array import array
from collections import defaultdict

# The layers, one per module of the package.
LAYERS = ("series", "eigen", "localforms", "bundles", "synth", "verify", "documents", "cli")

# Dunder methods that do a layer's work: validation in __post_init__
# and series arithmetic.
_WORK_DUNDERS = ("__post_init__", "__add__", "__sub__", "__neg__", "__mul__", "__rmul__")

# Spans whose inclusive time is also kept per matrix rank.
_RANKED = frozenset(
    ("eigen.schur", "eigen.spectral_split", "eigen.norm_log", "eigen.cluster_expm", "bundles.invariant_subspaces")
)

# Work counts read from a span's return value.
_RESULT_COUNTS = {
    "bundles.invariant_subspaces": ("subspaces", lambda result: len(result.subspaces)),
    "documents.canonical_dumps": ("bytes_out", len),
}

# Raw span records kept for the dump; aggregates continue past this.
MAX_SPANS = 1_000_000
_FIELDS = 6  # span id, parent id (-1 at top level), problem, name id, start, end


def _rank_of(args):
    if not args:
        return None
    first = args[0]
    shape = getattr(first, "shape", None)
    if shape is not None and len(shape) == 2:
        return int(shape[0])
    rank = getattr(first, "rank", None)
    return rank if isinstance(rank, int) else None


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.calls = []
        self.inclusive = []
        self.self_time = []
        self.by_rank = defaultdict(lambda: [0, 0.0])  # (name, rank) -> [calls, seconds]
        self.counts = defaultdict(float)  # "layer.function.count" -> total
        self.top_level = 0.0  # seconds covered by spans opened outside any span
        self.spans = array("d")
        self.span_count = 0
        self.problem = -1
        self._stack = []  # [span id, child seconds]
        self._restore = []

    def _name_id(self, name):
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls.append(0)
            self.inclusive.append(0.0)
            self.self_time.append(0.0)
        return nid

    def _wrap(self, name, fn):
        nid = self._name_id(name)
        ranked = name in _RANKED
        count = _RESULT_COUNTS.get(name)
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = self.span_count
            self.span_count += 1
            frame = [span_id, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                self.calls[nid] += 1
                self.inclusive[nid] += duration
                self.self_time[nid] += duration - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += duration
                    parent_id = parent[0]
                else:
                    self.top_level += duration
                    parent_id = -1
                if ranked:
                    entry = self.by_rank[(name, _rank_of(args))]
                    entry[0] += 1
                    entry[1] += duration
                if span_id < MAX_SPANS:
                    self.spans.extend((span_id, parent_id, self.problem, nid, start, end))
            if count is not None:
                self.counts[f"{name}.{count[0]}"] += count[1](result)
            return result

        return traced

    def install(self, package="logconn"):
        """Wrap the layers' public functions and methods, everywhere they are bound."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{package}.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrappers[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        for name in [m for m in sys.modules if m == package or m.startswith(package + ".")]:
            module = sys.modules[name]
            for attr, obj in list(vars(module).items()):
                hit = wrappers.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(module, attr, hit[1])
                    self._restore.append((module, attr, obj))

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr not in _WORK_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                wrapped = self._wrap(name, member)
            elif isinstance(member, (classmethod, staticmethod)):
                wrapped = type(member)(self._wrap(name, member.__func__))
            else:
                continue
            setattr(cls, attr, wrapped)
            self._restore.append((cls, attr, member))

    def uninstall(self):
        for target, attr, obj in reversed(self._restore):
            setattr(target, attr, obj)
        self._restore.clear()

    # ------------------------------------------------------------------
    # aggregates

    def self_ms(self, prefix):
        """Total self time, in ms, of the spans whose name starts with `prefix`."""
        return 1e3 * sum(t for name, t in zip(self.names, self.self_time) if name.startswith(prefix))

    def stat(self, name):
        """(calls, inclusive seconds, self seconds) of one span name."""
        nid = self._name_ids.get(name)
        if nid is None:
            return 0, 0.0, 0.0
        return self.calls[nid], self.inclusive[nid], self.self_time[nid]

    def rank_ms_per_call(self, name, rank):
        calls, seconds = self.by_rank.get((name, rank), (0, 0.0))
        return 1e3 * seconds / calls if calls else 0.0

    def dump(self, path):
        """Write the spans as gzipped tab-separated text, one span per line."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            fh.write("span\tparent\tproblem\tname\tstart_s\tend_s\n")
            rec = self.spans
            for i in range(0, len(rec), _FIELDS):
                span_id, parent, problem, nid, start, end = rec[i : i + _FIELDS]
                fh.write(f"{int(span_id)}\t{int(parent)}\t{int(problem)}\t{self.names[int(nid)]}\t{start:.9f}\t{end:.9f}\n")
