"""EXPLAIN ANALYZE: run a query under the tracer and render the plan
tree annotated with measured (modelled) per-operator cost.

This module is imported lazily (``NestGPU.explain(analyze=True)``,
``repro.cli --analyze``) so that :mod:`repro.obs` itself stays free of
engine imports.
"""

from __future__ import annotations

from .export import write_chrome_trace
from .tracer import Tracer


def _ms(ns: float) -> str:
    return f"{ns / 1e6:.4f} ms"


def explain_analyze(system, sql, mode=None, tracer=None, metrics=None):
    """Execute ``sql`` on ``system`` with tracing on and return an
    :class:`AnalyzeReport`.

    A fresh enabled :class:`Tracer` is created unless one is passed in;
    either way the report keeps a reference so the caller can export
    the trace afterwards.
    """
    if tracer is None:
        tracer = Tracer()
    query_span = None
    if tracer.enabled:
        from ..core.executor import _sql_snippet

        query_span = tracer.begin("query", "query", sql=_sql_snippet(sql))
    try:
        prepared = system.prepare(sql, mode, tracer=tracer)
        result = system.run_prepared(prepared, tracer=tracer, metrics=metrics)
    finally:
        if query_span is not None:
            tracer.end(query_span)
    return AnalyzeReport(prepared, result, tracer)


class AnalyzeReport:
    """A completed EXPLAIN ANALYZE run: prepared query, result, trace."""

    def __init__(self, prepared, result, tracer):
        self.prepared = prepared
        self.result = result
        self.tracer = tracer
        # node identity -> registry index (NodeRecord.node_id)
        self._node_ids = {
            id(node): i for i, node in enumerate(prepared.program.nodes)
        }

    # -- accounting ---------------------------------------------------------

    def node_ns(self, node) -> float:
        """Total modelled ns attributed to one plan node, merging the
        loop-path registry times with the vectorized-path profile."""
        r = self.result
        record = self._record(node)
        ns = record.ns if record is not None else 0.0
        ns += r.vector_node_ns.get(id(node), 0.0)
        return ns

    def _record(self, node):
        """The node's NodeRecord, or None when its operator never ran
        through the registry (vectorized-path nodes)."""
        nid = self._node_ids.get(id(node))
        return None if nid is None else self.result.node(nid)

    def accounting(self) -> dict[str, float]:
        """Where the modelled time went, in ns.  The buckets are
        disjoint by construction and ``unattributed`` closes the sum to
        ``stats.total_ns`` exactly."""
        r = self.result
        operators = sum(record.ns for record in r.nodes) + sum(
            r.vector_node_ns.values()
        )
        overhead = sum(sq.overhead_ns for sq in r.subqueries.values())
        total = r.stats.total_ns
        attributed = r.preload_ns + operators + overhead + r.fetch_ns
        return {
            "preload_ns": r.preload_ns,
            "operators_ns": operators,
            "subquery_setup_ns": overhead,
            "fetch_ns": r.fetch_ns,
            "unattributed_ns": total - attributed,
            "total_ns": total,
        }

    # -- rendering ----------------------------------------------------------

    def _annotate(self, node, extra: str = "") -> str:
        record = self._record(node)
        parts = [f"actual={_ms(self.node_ns(node))}"]
        if record is not None:
            if record.rows is not None:
                parts.append(f"rows={record.rows}")
            if record.calls > 1:
                parts.append(f"calls={record.calls}")
            if record.launches:
                parts.append(f"launches={record.launches}")
        if extra:
            parts.append(extra)
        return "  (" + ", ".join(parts) + ")"

    def _tree_lines(self, plan, info=None, indent: int = 1) -> list[str]:
        lines = []

        def visit(node, depth):
            mark = ""
            if info is not None:
                mark = (
                    "[transient] " if info.is_transient(node)
                    else "[invariant] "
                )
            lines.append(
                "  " * depth + mark + str(node) + self._annotate(node)
            )
            for child in node.children():
                visit(child, depth + 1)

        visit(plan, indent)
        return lines

    def render(self) -> str:
        from ..core.runtime import SubqueryRecord
        from ..plan.invariants import mark_invariants

        p, r = self.prepared, self.result
        lines = [f"EXPLAIN ANALYZE — execution path: {p.choice}"]
        if p.sql:
            lines.append(f"query: {' '.join(p.sql.split())}")
        summary = (
            f"modelled time: {r.total_ms:.4f} ms   rows: {r.num_rows}"
            f"   kernel launches: {r.stats.kernel_launches}"
        )
        if r.predicted_ms is not None and r.total_ms > 0:
            err = (r.predicted_ms - r.total_ms) / r.total_ms * 100.0
            summary += (
                f"   cost model predicted: {r.predicted_ms:.4f} ms"
                f" ({err:+.1f}%)"
            )
        decision = getattr(p, "fusion_decision", None)
        if decision is not None and decision.source != "off":
            fusion = f"fusion: {decision.describe()}"
            if r.stats.fused_launches:
                fusion += (
                    f"   fused launches: {r.stats.fused_launches}"
                    f" (absorbed {r.stats.fused_kernels} kernels, saved "
                    f"{r.stats.fused_kernels - r.stats.fused_launches}"
                    " launches)"
                )
            lines.append(fusion)
        lines += [summary, "", "outer plan:"]
        lines += self._tree_lines(p.plan)
        for k, spec in enumerate(p.program.specs):
            descriptor = spec.descriptor
            key = descriptor.index
            corr = (
                ", correlated on " + ", ".join(descriptor.free_quals)
                if descriptor.free_quals else ""
            )
            lines += ["", f"subquery #{k} ({descriptor.kind}{corr}):"]
            sq = r.subqueries.get(key) or SubqueryRecord()
            stat_parts = [f"iterations={sq.iterations}"]
            if sq.batches:
                stat_parts.append(f"vectorized batches={sq.batches}")
            hits, total = sq.cache_hits, sq.cache_hits + sq.cache_misses
            if total:
                stat_parts.append(
                    f"cache hits={hits}/{total}"
                    f" ({hits / total:.0%})"
                )
            stat_parts.append("setup " + _ms(sq.overhead_ns))
            lines.append("  " + "   ".join(stat_parts))
            lines += self._tree_lines(spec.plan, mark_invariants(spec.plan))
        acc = self.accounting()
        lines += [
            "",
            "time accounting:",
            f"  preload (PCIe + alloc)  {_ms(acc['preload_ns'])}",
            f"  plan operators          {_ms(acc['operators_ns'])}",
            f"  subquery setup          {_ms(acc['subquery_setup_ns'])}",
            f"  result fetch            {_ms(acc['fetch_ns'])}",
            f"  unattributed            {_ms(acc['unattributed_ns'])}",
            f"  total                   {_ms(acc['total_ns'])}",
        ]
        return "\n".join(lines)

    def write_trace(self, path) -> None:
        """Finish the trace (if still open) and export Chrome JSON."""
        self.tracer.finish()
        write_chrome_trace(path, self.tracer)
