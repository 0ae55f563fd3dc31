"""Wall-clock spans around the calls into each layer, from outside src/.

The traced run replaces each layer entry point at the name its callers
look it up by, records one span per call in memory, and restores the
originals afterwards.  Nothing in the program is edited:

* ``repro.core.executor.parse`` and ``.generate_drive_program`` (and
  the sharded module's copy) are imported by name, so the module
  attribute is what the caller resolves;
* ``Binder.bind``, ``PlanBuilder.build``, ``NestGPU.prepare`` and the
  other methods are patched on their class;
* ``costmodel.predict_paths`` is imported at call time, so the module
  attribute is enough;
* kernels are called as ``kernels.<k>``, so the kernels module attribute
  is what every operator resolves.

A span is ``(id, parent, name, start_ns, end_ns, statement, thread)``.
Parents are per thread; spans on the server and worker threads of
``net-2tenant`` have no statement id and start their own trees.  Self
time is a span's duration minus its children's durations.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import inspect
import itertools
import json
import threading
import time

STATEMENT = "stmt"

#: Layers whose time is query preparation (the plan-cache miss path).
PREPARE_LAYERS = frozenset({
    "sql.parse", "plan.bind", "plan.build", "core.costmodel",
    "core.codegen", "core.prepare",
})

#: Spans that run a prepared query (solo engine or device group).
EXECUTE_ROOTS = frozenset({"core.execute", "core.sharded.run"})

#: The kernels the per-layer report names one by one.
KERNELS = (
    "hash_probe", "semi_probe", "hash_build", "compact", "gather",
    "sort_order", "isin", "compare_scalar", "compare_arrays",
    "segmented_reduce", "group_ids", "binary_search_ranges",
)


class SpanRecorder:
    """Spans kept in a list; ``list.append`` is atomic under the GIL."""

    def __init__(self):
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, fn, args, kwargs):
        stack = self._stack()
        parent = stack[-1] if stack else 0
        span_id = next(self._ids)
        stack.append(span_id)
        start = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter_ns()
            stack.pop()
            self.spans.append((
                span_id, parent, name, start, end,
                getattr(self._local, "statement", None),
                threading.get_ident(),
            ))

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs)
        return traced

    def statement(self, statement_id: int, fn, *args):
        """Run one client statement as a root span."""
        self._local.statement = statement_id
        try:
            return self.call(STATEMENT, fn, args, {})
        finally:
            self._local.statement = None

    def write(self, path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt") as handle:
            json.dump({
                "fields": ["id", "parent", "name", "start_ns", "end_ns",
                           "statement", "thread"],
                "spans": self.spans,
            }, handle, separators=(",", ":"))


def layer_targets() -> list[tuple[str, object, str]]:
    """``(span name, owner, attribute)`` for every patched entry point."""
    from repro.core import costmodel, executor, sharded
    from repro.core.executor import NestGPU
    from repro.core.sharded import ShardedEngine
    from repro.engine.context import ExecutionContext
    from repro.gpu import kernels
    from repro.net import client, protocol, server
    from repro.plan import Binder, PlanBuilder
    from repro.serve.concurrent import AsyncEngine
    from repro.serve.session import EngineSession

    targets = [
        ("sql.parse", executor, "parse"),
        ("plan.bind", Binder, "bind"),
        ("plan.build", PlanBuilder, "build"),
        ("core.costmodel", costmodel, "predict_paths"),
        ("core.codegen", executor, "generate_drive_program"),
        ("core.codegen", sharded, "generate_drive_program"),
        ("core.prepare", NestGPU, "prepare"),
        ("core.execute", NestGPU, "run_prepared"),
        ("core.preload", ExecutionContext, "preload"),
        ("core.sharded.prepare", ShardedEngine, "prepare"),
        ("core.sharded.run", ShardedEngine, "run_prepared"),
        ("serve.session.lookup_or_prepare", EngineSession, "lookup_or_prepare"),
        ("serve.session.run", EngineSession, "run"),
        ("serve.concurrent.submit", AsyncEngine, "submit"),
        ("net.protocol.encode", client, "encode_frame"),
        ("net.protocol.encode", server, "encode_frame"),
        ("net.protocol.encode", server, "encode_rows"),
        ("net.protocol.decode", protocol, "decode_body"),
        ("net.protocol.decode", client, "decode_rows"),
    ]
    for name, fn in vars(kernels).items():
        if (inspect.isfunction(fn) and fn.__module__ == kernels.__name__
                and not name.startswith("_") and name != "fused"):
            targets.append((f"gpu.kernels.{name}", kernels, name))
    return targets


@contextlib.contextmanager
def installed(recorder: SpanRecorder, on_submit=None):
    """Patch every layer entry point for the duration of the block.

    ``on_submit(tenant, ticket)`` sees each AsyncEngine submission, so
    the benchmark can pair client statements with server tickets.
    """
    saved = []
    try:
        for name, owner, attr in layer_targets():
            original = (
                owner.__dict__[attr] if isinstance(owner, type)
                else getattr(owner, attr)
            )
            wrapped = recorder.wrap(name, original)
            if attr == "submit" and on_submit is not None:
                wrapped = _observe_submit(wrapped, on_submit)
            saved.append((owner, attr, original))
            setattr(owner, attr, wrapped)
        yield recorder
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)


def _observe_submit(fn, on_submit):
    @functools.wraps(fn)
    def submit(engine, sql, *args, **kwargs):
        ticket = fn(engine, sql, *args, **kwargs)
        on_submit(kwargs.get("tenant"), ticket)
        return ticket
    return submit


class SpanSummary:
    """Per-layer totals over one traced window.

    Each span falls in a phase: *prepare* inside any prepare layer
    (the cost model's probe runs included), *execute* inside a query
    run outside preparation, otherwise none.
    """

    def __init__(self, spans: list[tuple]):
        child_ns: dict[int, int] = {}
        for _, parent, _, start, end, _, _ in spans:
            if parent:
                child_ns[parent] = child_ns.get(parent, 0) + (end - start)
        self.calls: dict[str, int] = {}
        self.total_ns: dict[str, int] = {}
        self.self_ns: dict[str, int] = {}
        self.phase_self_ns = {"prepare": {}, "execute": {}}
        self.execute_root_ns = 0
        self.statement_ns = 0
        self.statements = 0
        phase_of: dict[int, str | None] = {}
        # a parent ends after its children, so it was appended later:
        # walking backwards visits every parent before its children
        for span_id, parent, name, start, end, _, _ in reversed(spans):
            duration = end - start
            own = duration - child_ns.get(span_id, 0)
            self.calls[name] = self.calls.get(name, 0) + 1
            self.total_ns[name] = self.total_ns.get(name, 0) + duration
            self.self_ns[name] = self.self_ns.get(name, 0) + own
            if name == STATEMENT:
                self.statements += 1
                self.statement_ns += duration
                continue
            outer = phase_of.get(parent)
            if outer == "prepare" or name in PREPARE_LAYERS:
                phase = "prepare"
            elif outer == "execute" or name in EXECUTE_ROOTS:
                phase = "execute"
                if outer is None:
                    self.execute_root_ns += duration
            else:
                phase = None
            phase_of[span_id] = phase
            if phase is not None:
                table = self.phase_self_ns[phase]
                table[name] = table.get(name, 0) + own

    def per_stmt_ms(self, ns: int) -> float:
        return ns / 1e6 / max(self.statements, 1)

    def calls_per_stmt(self, name: str) -> float:
        return self.calls.get(name, 0) / max(self.statements, 1)

    def share_of_statements(self, ns: int) -> float:
        return ns / self.statement_ns if self.statement_ns else 0.0

    def kernel_calls(self) -> int:
        return sum(
            n for name, n in self.calls.items()
            if name.startswith("gpu.kernels.")
        )

    def layer_self_ns(self) -> int:
        return sum(
            ns for name, ns in self.self_ns.items() if name != STATEMENT
        )
