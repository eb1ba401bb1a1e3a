"""Per-layer host-time tracing by wrapping each layer's public functions.

Nothing in ``src/`` is instrumented. :class:`Tracer` replaces the public
functions and methods of the modules listed in :data:`LAYER_MODULES`
with timing wrappers while it is installed, and restores them on exit.
Every wrapped call is one span: the site called, its parent span, and
host start/end times. Spans stay in memory and are written out once,
at the end (:meth:`Tracer.write_spans`).

Accounting, all on the host clock:

- ``<layer>.self_s``: the summed self time of the layer's spans (span
  duration minus the part its child spans cover). Code that is not
  wrapped -- private helpers, generators, context managers, the timing
  model's pricing functions -- is booked to the nearest wrapped caller.
- ``unattributed_s``: traced wall time outside every span (the
  benchmark's own loop), measured on its own as the wall time minus the
  summed durations of the root spans. The self times plus this residual
  must sum to the traced wall time, which checks the self-time
  bookkeeping; :func:`self_times_from_spans` recomputes the self times
  from the stored spans as a second cross-check.
- ``<boundary>.calls`` / ``<boundary>.host_s``: number and inclusive
  time of the outermost calls into a boundary (a layer, or one of the
  named entry points in :data:`NAMED_BOUNDARIES`); a call nested inside
  another call to the same boundary is not counted again.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Tuple

#: layer -> modules whose public functions and methods form the layer's
#: surface. Modules called only from inside their own layer (the store
#: buffer, radix bitmaps, the sim lock table, ...) are left unwrapped:
#: their time is the layer's self time either way, and wrapping them
#: would only add overhead.
LAYER_MODULES: Dict[str, Tuple[str, ...]] = {
    "fsapi": ("repro.fsapi.interface", "repro.fsapi.volume", "repro.fsapi.layout"),
    "core": (
        "repro.core.mgsp",
        "repro.core.file",
        "repro.core.recovery",
        "repro.core.txn",
        "repro.core.metalog",
        "repro.core.radix",
    ),
    "nvm": ("repro.nvm.device", "repro.nvm.crash", "repro.nvm.allocator"),
    "sim": ("repro.sim.trace", "repro.sim.engine"),
    "service": ("repro.service.service",),
    "obs": ("repro.obs.spans", "repro.obs.registry"),
    "crashsweep": (
        "repro.crashsweep.census",
        "repro.crashsweep.workloads",
        "repro.crashsweep.invariants",
    ),
    "fs": ("repro.fs.nova", "repro.fs.libnvmmio"),
    "db": (
        "repro.db.pqueue",
        "repro.db.engine",
        "repro.db.btree",
        "repro.db.pager",
        "repro.db.wal",
    ),
}
LAYERS = tuple(LAYER_MODULES)

#: module -> extra boundary every wrapped function of the module counts toward
MODULE_BOUNDARIES = {
    "repro.sim.trace": "sim.trace",
    "repro.fs.nova": "fs.nova",
    "repro.fs.libnvmmio": "fs.libnvmmio",
    "repro.db.pqueue": "db.pqueue",
}

#: function or method name -> boundary, per module. Methods match on the
#: bare name in every class of the module (``check`` covers each sweep
#: workload's override).
NAMED_BOUNDARIES = {
    "repro.core.recovery": {"recover": "core.recover"},
    "repro.nvm.device": {"from_image": "nvm.from_image"},
    "repro.nvm.crash": {"compose_image": "nvm.compose_image"},
    "repro.sim.engine": {"run": "sim.replay"},
    "repro.obs.spans": {"span_begin": "obs.span", "span_end": "obs.span"},
    "repro.service.service": {
        "register": "service.register",
        "submit": "service.submit",
        "run": "service.run",
    },
    "repro.crashsweep.census": {"take_census": "crashsweep.census"},
    "repro.crashsweep.workloads": {"run": "crashsweep.run", "check": "crashsweep.check"},
    "repro.crashsweep.invariants": {"check_image": "crashsweep.check"},
}

#: the FileHandle API, counted as fsapi.<call> whichever file system implements it
API_CALLS = ("write", "read", "fsync")

#: every boundary the traced run reports, in output order
BOUNDARIES = tuple(
    [f"fsapi.{call}" for call in API_CALLS]
    + list(LAYERS)
    + sorted({b for names in NAMED_BOUNDARIES.values() for b in names.values()})
    + sorted(MODULE_BOUNDARIES.values())
)


def _is_generator(fn) -> bool:
    target = getattr(fn, "__wrapped__", fn)
    return inspect.isgeneratorfunction(target)


def _public(name: str) -> bool:
    return not name.startswith("_") or name == "__init__"


def _targets(module):
    """(owner, attribute name, raw descriptor, function, qualname) for
    every public function and method defined in *module*."""
    modname = module.__name__
    for name, obj in sorted(vars(module).items()):
        if inspect.isfunction(obj) and obj.__module__ == modname and _public(name):
            if not _is_generator(obj):
                yield module, name, obj, obj, name
        elif inspect.isclass(obj) and obj.__module__ == modname:
            if getattr(obj, "_is_protocol", False) or issubclass(obj, BaseException):
                continue
            for attr, raw in sorted(vars(obj).items()):
                if not _public(attr):
                    continue
                if isinstance(raw, (classmethod, staticmethod)):
                    fn = raw.__func__
                elif inspect.isfunction(raw):
                    fn = raw
                else:
                    continue
                if _is_generator(fn) or getattr(fn, "__isabstractmethod__", False):
                    continue
                yield obj, attr, raw, fn, f"{name}.{attr}"


class Tracer:
    """Installs the wrappers, records spans, and keeps the accounting."""

    def __init__(self, record_spans: bool = True) -> None:
        #: site id -> (qualified name, layer)
        self.sites: List[Tuple[str, str]] = []
        self.record_spans = record_spans
        # spans, in the order they start
        self.span_site = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.layer_self = [0.0] * len(LAYERS)
        self.boundary_calls = {b: 0 for b in BOUNDARIES}
        self.boundary_s = {b: 0.0 for b in BOUNDARIES}
        self._depth = {b: 0 for b in BOUNDARIES}
        self._stack: List[list] = []
        #: summed duration of the root spans (those opened with no span open)
        self._root_s = [0.0]
        self._patches: List[tuple] = []
        self.wall_s = 0.0
        self._t0 = 0.0

    # -- installation -------------------------------------------------------

    def _wrap(self, fn, site: int, layer_index: int, boundaries: Tuple[str, ...]):
        stack = self._stack
        root_s = self._root_s
        layer_self = self.layer_self
        depth = self._depth
        calls = self.boundary_calls
        incl = self.boundary_s
        clock = perf_counter
        record = self.record_spans
        s_site, s_parent = self.span_site, self.span_parent
        s_start, s_end = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            # a span's id is its row in the span columns
            span = -1
            if record:
                span = len(s_site)
                s_site.append(site)
                s_parent.append(stack[-1][0] if stack else -1)
                s_start.append(0.0)
                s_end.append(0.0)
            for b in boundaries:
                depth[b] += 1
            frame = [span, 0.0, clock()]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[2]
                layer_self[layer_index] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    root_s[0] += duration
                for b in boundaries:
                    depth[b] -= 1
                    if not depth[b]:
                        calls[b] += 1
                        incl[b] += duration
                if record:
                    s_start[span] = frame[2]
                    s_end[span] = end

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", "wrapped")
        wrapper.__qualname__ = getattr(fn, "__qualname__", wrapper.__name__)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def install(self) -> None:
        rebind: Dict[int, object] = {}
        for layer_index, layer in enumerate(LAYERS):
            for modname in LAYER_MODULES[layer]:
                module = importlib.import_module(modname)
                named = NAMED_BOUNDARIES.get(modname, {})
                extra = MODULE_BOUNDARIES.get(modname)
                for owner, attr, raw, fn, qualname in _targets(module):
                    boundaries = [layer]
                    if extra:
                        boundaries.append(extra)
                    if attr in named:
                        boundaries.append(named[attr])
                    if attr in API_CALLS and inspect.isclass(owner) and _is_file_handle(owner):
                        boundaries.append(f"fsapi.{attr}")
                    site = len(self.sites)
                    self.sites.append((f"{modname}.{qualname}", layer))
                    wrapper = self._wrap(fn, site, layer_index, tuple(boundaries))
                    if isinstance(raw, classmethod):
                        new = classmethod(wrapper)
                    elif isinstance(raw, staticmethod):
                        new = staticmethod(wrapper)
                    else:
                        new = wrapper
                    self._patches.append((owner, attr, raw))
                    setattr(owner, attr, new)
                    if owner is module:
                        rebind[id(fn)] = (fn, wrapper)
        # ``from module import function`` copies: patch those bindings too.
        for modname, module in list(sys.modules.items()):
            if module is None or not modname.startswith(("repro", "perfbench")):
                continue
            for attr, value in list(vars(module).items()):
                hit = rebind.get(id(value))
                if hit is not None and hit[0] is value and getattr(module, attr) is not hit[1]:
                    self._patches.append((module, attr, value))
                    setattr(module, attr, hit[1])

    def uninstall(self) -> None:
        for owner, attr, raw in reversed(self._patches):
            setattr(owner, attr, raw)
        self._patches.clear()

    def __enter__(self) -> "Tracer":
        self.install()
        self._t0 = perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.wall_s = perf_counter() - self._t0
        self.uninstall()

    # -- results -------------------------------------------------------------

    def self_times(self) -> Dict[str, float]:
        return dict(zip(LAYERS, self.layer_self))

    def unattributed_s(self) -> float:
        """Traced wall time while no span was open."""
        return self.wall_s - self._root_s[0]

    def write_spans(self, path: Path) -> None:
        """Write the spans as ``<path>.json`` (site table, layout) plus
        ``<path>.bin`` (four columns in the header's byte order, one after
        another; a span's id is its row, ``parent`` is -1 for a root span)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        columns = [
            ("site", self.span_site),
            ("parent", self.span_parent),
            ("start_s", self.span_start),
            ("end_s", self.span_end),
        ]
        with open(path.with_suffix(".bin"), "wb") as out:
            for _, column in columns:
                column.tofile(out)
        header = {
            "spans": len(self.span_site),
            "byteorder": sys.byteorder,
            "columns": [[name, column.typecode] for name, column in columns],
            "sites": [list(site) for site in self.sites],
            "wall_s": self.wall_s,
        }
        path.with_suffix(".json").write_text(json.dumps(header, indent=1) + "\n")


def _is_file_handle(cls) -> bool:
    from repro.fsapi.interface import FileHandle

    return issubclass(cls, FileHandle)


def load_spans(path: Path):
    """Read a span file written by :meth:`Tracer.write_spans`:
    (header dict, {column name: array})."""
    header = json.loads(path.with_suffix(".json").read_text())
    columns = {}
    with open(path.with_suffix(".bin"), "rb") as src:
        for name, typecode in header["columns"]:
            column = array(typecode)
            column.fromfile(src, header["spans"])
            if header["byteorder"] != sys.byteorder:
                column.byteswap()
            columns[name] = column
    return header, columns


def self_times_from_spans(sites, columns) -> Dict[str, float]:
    """Recompute per-layer self time from stored spans alone."""
    child = {}
    for parent, start, end in zip(columns["parent"], columns["start_s"], columns["end_s"]):
        if parent >= 0:
            child[parent] = child.get(parent, 0.0) + (end - start)
    out = {layer: 0.0 for layer in LAYERS}
    for span, (site, start, end) in enumerate(
        zip(columns["site"], columns["start_s"], columns["end_s"])
    ):
        out[sites[site][1]] += (end - start) - child.get(span, 0.0)
    return out
