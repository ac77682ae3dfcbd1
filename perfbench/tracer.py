"""Outside-in tracer: spans around the program's public functions.

The tracer never edits the program. It replaces a function at the place its
caller looks it up (a module global such as ``repro.core.bsfbc.mfs_check``,
or a class attribute such as ``BipartiteGraph.induced``) with a wrapper that
records a span, and puts the original back on :meth:`Tracer.uninstall`.
A name that no longer exists is recorded as missing, not raised, so the
benchmark survives a refactor that merges or renames a function.

Spans are kept in memory as ``[name, qid, parent, start, end]`` and
written out once, at the end. Functions called ~10^5 times per query (the
fair-set kernels and the neighbourhood intersections) are *leaves*: their
calls are rolled up into one record per (query, parent span, name) with the
call count and summed time, which bounds the memory and the file size of a
traced run.
"""
from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import contextmanager
from typing import Callable

_MISSING = object()


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.rollup: dict[tuple[int, int, str], list] = {}
        self.counters: dict[tuple[int, str], float] = defaultdict(float)
        self.fanout: list[tuple[int, object]] = []  # (qid, accumulator)
        self.qid = 0
        self.missing: list[str] = []
        self._undo: list[tuple[object, str, object]] = []

    # ------------------------------------------------------------ recording
    @contextmanager
    def span(self, name: str):
        rec = [name, self.qid, self.stack[-1] if self.stack else -1, time.perf_counter(), None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield
        finally:
            rec[4] = time.perf_counter()
            self.stack.pop()

    def count(self, name: str, value: float = 1) -> None:
        self.counters[(self.qid, name)] += value

    # ------------------------------------------------------------- wrapping
    def wrap(
        self,
        path: str,
        name: str,
        *,
        leaf: bool = False,
        on_result: Callable[["Tracer", object, tuple], None] | None = None,
    ) -> None:
        """Wrap ``module:attr`` or ``module:Class.attr`` under span ``name``.

        ``on_result(tracer, result, args)`` runs after each call, to count
        the work the call did.
        """
        found = self._resolve(path)
        if found is None:
            return
        owner, attr, fn = found
        tracer = self

        if leaf:
            def wrapper(*args, **kw):
                t = time.perf_counter()
                out = fn(*args, **kw)
                dt = time.perf_counter() - t
                key = (tracer.qid, tracer.stack[-1] if tracer.stack else -1, name)
                rec = tracer.rollup.get(key)
                if rec is None:
                    tracer.rollup[key] = [1, dt]
                else:
                    rec[0] += 1
                    rec[1] += dt
                if on_result is not None:
                    on_result(tracer, out, args)
                return out
        else:
            def wrapper(*args, **kw):
                with tracer.span(name):
                    out = fn(*args, **kw)
                if on_result is not None:
                    on_result(tracer, out, args)
                return out

        self._patch(owner, attr, wrapper)

    def _resolve(self, path: str):
        """``(owner, attr, current value)`` of ``module:[Class.]attr``, or None if missing."""
        mod_name, _, attr_path = path.partition(":")
        *owner_path, attr = attr_path.split(".")
        try:
            owner = importlib.import_module(mod_name)
            for part in owner_path:
                owner = getattr(owner, part)
            return owner, attr, getattr(owner, attr)
        except (ImportError, AttributeError):
            self.missing.append(path)
            return None

    def _patch(self, owner, attr: str, new) -> None:
        # Remember whether the attribute was the owner's own or inherited, so
        # uninstall() restores exactly the lookup the program had.
        own = owner.__dict__.get(attr, _MISSING) if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, own))
        setattr(owner, attr, new)

    def wrap_map_in_pandas(self, path: str) -> None:
        """Time every task of a ``mapInPandas`` fan-out inside its Python worker.

        The function handed to ``mapInPandas`` is replaced by one that counts
        the rows it is fed (the roots of the search) and its own wall time,
        and ships ``(seconds, roots)`` back to the driver in an accumulator.
        """
        found = self._resolve(path)
        if found is None:
            return
        cls, attr, original = found
        from pyspark.accumulators import AddingAccumulatorParam

        tracer = self

        def map_in_pandas(df, func, *args, **kw):
            acc = df.sparkSession.sparkContext.accumulator([], AddingAccumulatorParam([]))
            tracer.fanout.append((tracer.qid, acc))

            def timed(batches):
                import time as _time

                t0 = _time.perf_counter()
                roots = 0

                def feed():
                    nonlocal roots
                    for pdf in batches:
                        roots += len(pdf)
                        yield pdf

                yield from func(feed())
                acc.add([(_time.perf_counter() - t0, roots)])

            return original(df, timed, *args, **kw)

        self._patch(cls, attr, map_in_pandas)

    def uninstall(self) -> None:
        for owner, attr, own in reversed(self._undo):
            if own is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, own)
        self._undo.clear()

    # -------------------------------------------------------------- reading
    def _under(self, parent: int, ancestor: str | None) -> bool:
        if ancestor is None:
            return True
        while parent >= 0:
            if self.spans[parent][0] == ancestor:
                return True
            parent = self.spans[parent][2]
        return False

    def total(self, qid: int, name: str, under: str | None = None) -> float:
        """Seconds spent in ``name`` during query ``qid`` (optionally below ``under``)."""
        s = sum(r[4] - r[3] for r in self.spans
                if r[1] == qid and r[0] == name and self._under(r[2], under))
        return s + sum(v[1] for (q, p, n), v in self.rollup.items()
                       if q == qid and n == name and self._under(p, under))

    def calls(self, qid: int, name: str, under: str | None = None) -> int:
        n = sum(1 for r in self.spans
                if r[1] == qid and r[0] == name and self._under(r[2], under))
        return n + sum(v[0] for (q, p, nm), v in self.rollup.items()
                       if q == qid and nm == name and self._under(p, under))

    def self_time(self, qid: int, name: str) -> float:
        """Time in ``name`` spans minus the time their child spans cover."""
        own = [i for i, r in enumerate(self.spans) if r[1] == qid and r[0] == name]
        mine = set(own)
        child = sum(r[4] - r[3] for r in self.spans if r[2] in mine)
        child += sum(v[1] for (q, p, _n), v in self.rollup.items() if p in mine)
        return sum(self.spans[i][4] - self.spans[i][3] for i in own) - child

    def tasks(self, qid: int) -> list[tuple[float, int]]:
        return [t for q, acc in self.fanout if q == qid for t in acc.value]

    def dump(self, path: str) -> None:
        """Write every span and roll-up as one JSON object per line."""
        with open(path, "w") as f:
            for i, (name, qid, parent, start, end) in enumerate(self.spans):
                f.write(json.dumps({"id": i, "name": name, "qid": qid, "parent": parent,
                                    "start": start, "end": end}) + "\n")
            for (qid, parent, name), (calls, total) in self.rollup.items():
                f.write(json.dumps({"name": name, "qid": qid, "parent": parent,
                                    "calls": calls, "total_s": total}) + "\n")
            for path_ in self.missing:
                f.write(json.dumps({"missing": path_}) + "\n")
