"""In-memory span recorder for the benchmark's traced runs.

Spans are taken around the benchmark's own calls into the library's public
functions; nothing inside the library is instrumented. Each span records its
name, start, end, parent span, the op and round it belongs to, and a few
size attributes (snapshot counts, cutoffs) read from the call's inputs and
result. Spans stay in memory until the run ends and are then written out.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import importlib
import inspect
import os
import time
import types
from typing import Callable, Optional

LAYERS = ("fock", "passivity", "dynamics", "ledger", "engine", "cli")


@dataclasses.dataclass
class Span:
    id: int
    name: str
    start: float
    end: Optional[float]
    parent: Optional[int]
    op: Optional[int]
    round: Optional[int]
    attrs: dict

    @property
    def duration(self) -> float:
        return self.end - self.start


def _out_path(args, kwargs):
    argv = args[0] if args else kwargs.get("argv")
    argv = list(argv or [])
    return argv[argv.index("--out") + 1] if "--out" in argv else None


def _csv_bytes(args, kwargs, out):
    path = _out_path(args, kwargs)
    return {"csv_bytes": os.path.getsize(path) if path and os.path.exists(path) else 0}


# Sizes recorded on spans of these calls, from (args, kwargs, result).
SPAN_SIZES: dict[str, Callable] = {
    "dynamics.evolve": lambda a, k, out: {
        "snapshots": len(out.times),
        "t_sim": float(out.times[-1] - out.times[0]),
    },
    "dynamics.steady_state": lambda a, k, out: {"cutoff": a[0].dim.cutoff},
    "ledger.accumulate_ledger": lambda a, k, out: {"snapshots": len(out.times)},
    "ledger.sigma_series": lambda a, k, out: {"snapshots": len(out)},
    "cli.main": _csv_bytes,
}


class Tracer:
    """Collects spans; the open-span stack gives each new span its parent."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._op: Optional[int] = None
        self._round: Optional[int] = None

    @contextlib.contextmanager
    def span(self, name: str, *, op: bool = False, round: Optional[int] = None, **attrs):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        saved = (self._op, self._round)
        if op:
            self._op = sid
        if round is not None:
            self._round = round
        rec = Span(sid, name, self.clock(), None, parent, self._op, self._round, attrs)
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec.end = self.clock()
            self._stack.pop()
            self._op, self._round = saved

    def wrap(self, name: str, fn: Callable) -> Callable:
        sizes = SPAN_SIZES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                out = fn(*args, **kwargs)
            if sizes is not None:
                rec.attrs.update(sizes(args, kwargs, out))
            return out

        return traced


def self_times(spans: list[Span]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        cursor = s.start
        for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.id] = s.duration - covered
    return out


def library_api(package_name: str, tracer: Optional[Tracer] = None):
    """Every public function of the six layer modules, by bare name.

    Without a tracer the functions are the library's own objects, so an
    untraced run pays nothing for this namespace. With one, each call is
    wrapped in a span named '<layer>.<function>'.
    """
    ns = {}
    for layer in LAYERS:
        mod = importlib.import_module(f"{package_name}.{layer}")
        for name, fn in vars(mod).items():
            if name.startswith("_") or not inspect.isfunction(fn):
                continue
            if fn.__module__ != mod.__name__:
                continue
            if name in ns:
                raise RuntimeError(f"public function name {name!r} is not unique")
            ns[name] = fn if tracer is None else tracer.wrap(f"{layer}.{name}", fn)
    return types.SimpleNamespace(**ns)


def span_records(spans: list[Span]) -> list[dict]:
    selfs = self_times(spans)
    return [
        dict(dataclasses.asdict(s), self=selfs[s.id]) for s in spans
    ]
