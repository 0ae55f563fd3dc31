"""The measuring core: closed-loop clients, windows, metrics and checks."""

from __future__ import annotations

import gc
import resource
import statistics
import threading
import time
from dataclasses import dataclass, field

from checks import DeterminismGuard, ReferenceRows
from tracing import KERNELS, SpanRecorder, SpanSummary, installed
from workloads import SCALE_FACTOR, Outcome, build_stack, streams as make_streams

#: Every window times at least this many statements, so at least ten
#: latency samples lie beyond p95.
MIN_STATEMENTS = 200
#: Statements in the measured prefix: ``modelled_ms_per_stmt`` is their
#: mean, and the determinism guard replays them on another set-up.
PREFIX = 100
#: Set-ups per untraced run; ``setup_s`` is their median.
SETUPS = 3
#: The machine's speed drifts over seconds, so the wall metrics are
#: taken over the slower blocks of this length (``Window.sustained``).
BLOCK_S = 1.0
SELF_TEST_SQL = "SELECT no_such_column FROM part"

END_TO_END = {
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "modelled_ms_per_stmt": "ms",
    "ok_fraction": "ratio",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}


def _percentile(values: list[float], pct: int) -> float:
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=100)[pct - 1]


def _median(values: list[float]) -> float:
    return statistics.median(values) if values else 0.0


# -- running statements ------------------------------------------------------


def run_clients(clients, streams, seconds: float, per_client: int,
                recorder=None) -> list[list]:
    """The closed loop: each client waits for its reply before sending
    the next statement.  Runs until ``seconds`` passed and every client
    timed at least ``per_client`` statements.  A statement that raises
    is recorded as failed and the loop goes on."""
    deadline = time.perf_counter() + seconds
    outcomes: list[list] = [[] for _ in clients]
    crashed: list[BaseException] = []

    def drive(client: int) -> None:
        execute, stream, out = clients[client], streams[client], outcomes[client]
        try:
            while time.perf_counter() < deadline or len(out) < per_client:
                sql = next(stream)
                start = time.perf_counter()
                try:
                    if recorder is None:
                        rows, modelled, result = execute(sql)
                    else:
                        rows, modelled, result = recorder.statement(
                            client * 1_000_000 + len(out), execute, sql,
                        )
                except Exception as exc:  # counted as failed; run goes on
                    out.append(Outcome(
                        sql, start, time.perf_counter(),
                        error=f"{type(exc).__name__}: {exc}",
                    ))
                    continue
                out.append(Outcome(
                    sql, start, time.perf_counter(), rows, modelled, result,
                ))
        except BaseException as exc:
            crashed.append(exc)

    if len(clients) == 1:
        drive(0)
    else:
        threads = [
            threading.Thread(target=drive, args=(i,), name=f"bench-client-{i}")
            for i in range(len(clients))
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(seconds + 120.0)
        if any(thread.is_alive() for thread in threads):
            raise RuntimeError("a benchmark client did not finish")
    if crashed:
        raise crashed[0]
    return outcomes


@dataclass
class Warmed:
    """A set-up, warmed stack with its seed's streams."""

    stack: object
    streams: list
    setup_s: float
    warmup: list


def set_up(workload: str, seed: int) -> Warmed:
    """Build and warm one stack; ``setup_s`` times exactly this.  The
    self-test runs after the clock stops."""
    start = time.perf_counter()
    stack = build_stack(workload)
    try:
        streams = make_streams(workload, seed, len(stack.clients))
        statements = streams[0].warmup()
        warmup = run_clients(
            stack.clients[:1], [iter(statements)], 0.0, len(statements),
        )[0]
        elapsed = time.perf_counter() - start
        self_test(stack.clients[0])
    except BaseException:
        stack.close()
        raise
    return Warmed(stack, streams, elapsed, warmup)


class SelfTestFailed(RuntimeError):
    pass


def self_test(client) -> None:
    """One statement that must fail goes through the same loop as the
    window: it must come back counted as failed, not end the run."""
    outcome = run_clients([client], [iter([SELF_TEST_SQL])], 0.0, 1)[0]
    if len(outcome) != 1 or outcome[0].error is None:
        raise SelfTestFailed("a failing statement was not counted as failed")


@dataclass
class Window:
    """One timed window on one stack."""

    outcomes: list[list]
    start_s: float
    elapsed_s: float
    per_client: int
    pairs: list[tuple]
    report: list
    plan_cache: dict
    tenants: list
    tickets: dict = field(default_factory=dict)

    @property
    def flat(self) -> list:
        return [o for client in self.outcomes for o in client]

    def prefix(self) -> list[list]:
        return [client[: self.per_client] for client in self.outcomes]

    def modelled_prefix(self) -> list[list[float]]:
        return [[o.modelled_ns for o in client] for client in self.prefix()]

    def blocks(self) -> list[list]:
        """Statements by the whole block of the window they ended in."""
        blocks: list[list] = [[] for _ in range(int(self.elapsed_s // BLOCK_S))]
        for o in self.flat:
            k = int((o.end_s - self.start_s) // BLOCK_S)
            if k < len(blocks):
                blocks[k].append(o)
        return [block for block in blocks if block] or [self.flat]

    @staticmethod
    def _rate(block: list) -> float | None:
        """Completions per second between the block's first and last."""
        ends = sorted(o.end_s for o in block if o.error is None)
        if len(ends) > 2 and ends[-1] > ends[0]:
            return (len(ends) - 1) / (ends[-1] - ends[0])
        return None

    def sustained(self) -> tuple[list[float], list]:
        """The slower half of the blocks, by completion rate, joined by
        the next slowest until they hold ``MIN_STATEMENTS`` statements:
        their rates and their statements.  The machine runs in faster
        and slower spells of seconds to minutes; a window that caught a
        fast spell still reads the speed it keeps up."""
        rated = sorted(
            ((rate, block) for block in self.blocks()
             if (rate := self._rate(block)) is not None),
            key=lambda pair: pair[0],
        )
        if not rated:
            return [], self.flat
        half = -(-len(rated) // 2)
        rates, statements = [], []
        for rate, block in rated:
            if len(rates) >= half and len(statements) >= MIN_STATEMENTS:
                break
            rates.append(rate)
            statements.extend(block)
        return rates, statements

    @property
    def throughput(self) -> float:
        """Mean completion rate of the sustained blocks."""
        rates, _ = self.sustained()
        if not rates:
            return sum(o.error is None for o in self.flat) / self.elapsed_s
        return statistics.fmean(rates)

    @property
    def latency_p50_ms(self) -> float:
        return _median([o.wall_ms for o in self.sustained()[1]])

    @property
    def latency_p95_ms(self) -> float:
        return _percentile([o.wall_ms for o in self.sustained()[1]], 95)


def measure(run: Warmed, seconds: float, statements: int = MIN_STATEMENTS,
            recorder=None, tickets=None) -> Window:
    """Time ``seconds`` and at least ``statements`` statements."""
    stack = run.stack
    clients = len(stack.clients)
    stack.mark()
    before = stack.session.plan_cache.stats()
    start = time.perf_counter()
    outcomes = run_clients(
        stack.clients, run.streams, seconds, -(-statements // clients),
        recorder,
    )
    elapsed = max(o.end_s for client in outcomes for o in client) - start
    after = stack.session.plan_cache.stats()
    flat = [o for client in outcomes for o in client]
    return Window(
        outcomes=outcomes,
        start_s=start,
        elapsed_s=elapsed,
        per_client=PREFIX // clients,
        pairs=stack.window_results(flat),
        report=stack.window_report(),
        plan_cache={
            key: after[key] - before[key]
            for key in ("hits", "misses", "evictions")
        },
        tenants=stack.tenants,
        tickets=tickets or {},
    )


def close(run: Warmed) -> None:
    run.stack.close()
    run.stack = None
    gc.collect()


# -- metrics -------------------------------------------------------------------


def end_to_end(window: Window, setups: list[float], rss_mb: float,
               failed: int) -> tuple[dict, dict]:
    flat = window.flat
    sustained = len(window.sustained()[1])
    prefix = [
        ns for client in window.modelled_prefix() for ns in client
        if ns is not None
    ]
    values = {
        "throughput_qps": window.throughput,
        "latency_p50_ms": window.latency_p50_ms,
        "latency_p95_ms": window.latency_p95_ms,
        "modelled_ms_per_stmt": statistics.fmean(prefix) / 1e6 if prefix else 0.0,
        "ok_fraction": (len(flat) - failed) / len(flat),
        "setup_s": _median(setups),
        "peak_rss_mb": rss_mb,
    }
    samples = {
        "throughput_qps": sustained,
        "latency_p50_ms": sustained,
        "latency_p95_ms": sustained,
        "modelled_ms_per_stmt": len(prefix),
        "ok_fraction": len(flat),
        "setup_s": len(setups),
        "peak_rss_mb": 1,
    }
    return values, samples


def _mean_over(results: list, value) -> float:
    return statistics.fmean(value(r) for r in results) if results else 0.0


def per_layer(summary, traced: Window, untraced: Window) -> dict:
    """The per-layer metrics, as ``name -> (value, unit)``."""
    results = [result for _, result in traced.pairs]
    out: dict[str, tuple[float, str]] = {}
    for layer in ("sql.parse", "plan.bind", "plan.build", "core.costmodel",
                  "core.codegen"):
        out[f"{layer}.calls_per_stmt"] = (summary.calls_per_stmt(layer), "count")
        out[f"{layer}.ms_per_stmt"] = (
            summary.per_stmt_ms(summary.total_ns.get(layer, 0)), "ms")
    out["core.prepare.self_ms_per_stmt"] = (
        summary.per_stmt_ms(summary.self_ns.get("core.prepare", 0)), "ms")
    cache = traced.plan_cache
    probes = cache["hits"] + cache["misses"]
    out["serve.plancache.hit_ratio"] = (
        cache["hits"] / probes if probes else 0.0, "ratio")
    out["serve.plancache.evictions"] = (cache["evictions"], "count")
    out["serve.session.lookup_or_prepare.ms_per_stmt"] = (
        summary.per_stmt_ms(
            summary.total_ns.get("serve.session.lookup_or_prepare", 0)),
        "ms")

    for kernel in KERNELS:
        out[f"gpu.kernels.{kernel}.ms_per_stmt"] = (
            summary.per_stmt_ms(summary.self_ns.get(f"gpu.kernels.{kernel}", 0)),
            "ms")
    out["gpu.kernels.calls_per_stmt"] = (
        summary.kernel_calls() / max(summary.statements, 1), "count")
    executing = summary.phase_self_ns["execute"]
    out["gpu.kernels.hash_probe.share_of_execute"] = (
        executing.get("gpu.kernels.hash_probe", 0) / summary.execute_root_ns
        if summary.execute_root_ns else 0.0,
        "ratio")
    out["core.execute.self_ms_per_stmt"] = (
        summary.per_stmt_ms(summary.self_ns.get("core.execute", 0)), "ms")
    out["core.preload.ms_per_stmt"] = (
        summary.per_stmt_ms(summary.total_ns.get("core.preload", 0)), "ms")

    out["core.subquery.iterations_per_stmt"] = (
        _mean_over(results, lambda r: sum(r.subquery_iterations.values())),
        "count")
    out["core.subquery.batches_per_stmt"] = (
        _mean_over(results, lambda r: sum(r.subquery_batches.values())),
        "count")
    hits = sum(r.cache_hits for r in results)
    lookups = hits + sum(r.cache_misses for r in results)
    out["core.caching.hit_ratio"] = (hits / lookups if lookups else 0.0, "ratio")
    out["core.indexing.probes_per_stmt"] = (
        _mean_over(results, lambda r: r.index_probes), "count")
    out["core.adaptive.switch_fraction"] = (
        _mean_over(results, lambda r: float(r.adaptive_switch)), "ratio")
    out["core.path.nested_fraction"] = (
        _mean_over(results, lambda r: float(r.plan_choice.endswith("nested")
                                            and "unnested" not in r.plan_choice)),
        "ratio")

    out["gpu.device.launches_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.kernel_launches), "count")
    out["gpu.device.fused_launches_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.fused_launches), "count")
    out["gpu.device.malloc_calls_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.malloc_calls), "count")
    out["gpu.device.kernel_ms_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.kernel_time_ns / 1e6), "ms")
    out["gpu.device.h2d_mb_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.h2d_bytes / 1e6), "MB")
    out["gpu.device.d2h_mb_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.d2h_bytes / 1e6), "MB")
    out["gpu.device.materialize_mb_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.materialize_bytes / 1e6), "MB")
    out["gpu.device.peak_mb"] = (
        max((r.stats.peak_device_bytes for r in results), default=0) / 1e6,
        "MB")
    out["gpu.memory.pool_restores_per_stmt"] = (
        _mean_over(results, lambda r: r.pool_restores), "count")

    out["serve.session.run.self_ms_per_stmt"] = (
        summary.per_stmt_ms(summary.self_ns.get("serve.session.run", 0)), "ms")
    done = [q for q in traced.report if q.status == "done"]
    waits = [q.wall_wait_ms for q in done]
    out["serve.concurrent.queue_wait_p50_ms"] = (_median(waits), "ms")
    out["serve.concurrent.queue_wait_p95_ms"] = (_percentile(waits, 95), "ms")
    out["serve.concurrent.run_p50_ms"] = (
        _median([q.wall_run_ms for q in done]), "ms")
    overheads = []
    for client, tenant in zip(traced.outcomes, traced.tenants):
        tickets = traced.tickets.get(tenant, [])
        for outcome, ticket in zip(client, tickets):
            if outcome.error is None:
                overheads.append(
                    outcome.wall_ms
                    - (ticket.wall_wait_s + ticket.wall_run_s) * 1e3
                )
    out["net.overhead_p50_ms"] = (_median(overheads), "ms")
    out["net.protocol.encode_ms_per_stmt"] = (
        summary.per_stmt_ms(summary.self_ns.get("net.protocol.encode", 0)),
        "ms")
    out["net.protocol.decode_ms_per_stmt"] = (
        summary.per_stmt_ms(summary.self_ns.get("net.protocol.decode", 0)),
        "ms")

    out["core.sharded.ms_per_stmt"] = (
        summary.per_stmt_ms(
            summary.self_ns.get("core.sharded.prepare", 0)
            + summary.self_ns.get("core.sharded.run", 0)),
        "ms")
    out["core.sharded.interconnect_mb_per_stmt"] = (
        _mean_over(results, lambda r: sum(
            (r.group_report or {}).get("pair_bytes", {}).values()) / 1e6),
        "MB")
    out["core.sharded.peer_ms_per_stmt"] = (
        _mean_over(results, lambda r: r.stats.peer_time_ns / 1e6), "ms")

    out["trace.overhead_pct"] = (
        (untraced.throughput - traced.throughput) / untraced.throughput * 100.0,
        "%")
    out["trace.coverage"] = (
        summary.share_of_statements(summary.layer_self_ns()), "ratio")
    out["trace.prepare_share"] = (
        summary.share_of_statements(
            sum(summary.phase_self_ns["prepare"].values())),
        "ratio")
    out["trace.execute_share"] = (
        summary.share_of_statements(sum(
            ns for name, ns in executing.items()
            if name == "core.execute" or name.startswith("gpu.kernels.")
        )),
        "ratio")
    return out


# -- runs ------------------------------------------------------------------------


class Checks:
    """Row check and determinism guard over every run of one invocation."""

    def __init__(self):
        self.guard = DeterminismGuard()
        self.checked: list = []

    def add(self, run: Warmed, window: Window) -> None:
        self.guard.observe(window.pairs)
        self.guard.observe_prefix(window.modelled_prefix())
        self.checked.extend(run.warmup)
        self.checked.extend(window.flat)

    def finish(self, window: Window) -> tuple[int, list[str]]:
        """Failed statements of ``window`` and every problem found."""
        reference = ReferenceRows(SCALE_FACTOR)
        wrong = reference.wrong(self.checked)
        errors = [o for o in self.checked if o.error is not None]
        problems = reference.problems + self.guard.problems + [
            f"statement failed: {o.error}" for o in errors[:5]
        ]
        failed = sum(
            1 for o in window.flat if o.error is not None or id(o) in wrong
        )
        return failed, problems


def untraced_run(workload: str, seed: int, seconds: float) -> dict:
    checks = Checks()
    setups = []
    run = set_up(workload, seed)
    try:
        setups.append(run.setup_s)
        window = measure(run, seconds)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        checks.add(run, window)
    finally:
        close(run)
    # further set-ups for the setup_s median; the last one also replays
    # the measured prefix for the determinism guard
    for k in range(SETUPS - 1):
        run = set_up(workload, seed)
        try:
            setups.append(run.setup_s)
            if k == SETUPS - 2:
                checks.add(run, measure(run, 0.0, PREFIX))
        finally:
            close(run)
    failed, problems = checks.finish(window)
    values, samples = end_to_end(window, setups, rss_mb, failed)
    metrics = {name: (values[name], END_TO_END[name]) for name in END_TO_END}
    return {"metrics": metrics, "samples": samples, "window": window,
            "failed": failed, "problems": problems, "setups": setups}


def traced_run(workload: str, seed: int, seconds: float, out_dir) -> dict:
    checks = Checks()
    plain = set_up(workload, seed)
    try:
        untraced = measure(plain, seconds)
        checks.add(plain, untraced)
    finally:
        close(plain)

    recorder = SpanRecorder()
    tickets: dict[str, list] = {}
    lock = threading.Lock()

    def on_submit(tenant, ticket):
        with lock:
            tickets.setdefault(tenant, []).append(ticket)

    run = set_up(workload, seed)
    try:
        with installed(recorder, on_submit):
            traced = measure(run, seconds, recorder=recorder, tickets=tickets)
        checks.add(run, traced)
    finally:
        close(run)
    summary = SpanSummary(recorder.spans)
    metrics = per_layer(summary, traced, untraced)
    failed, problems = checks.finish(traced)
    recorder.write(out_dir / f"spans-{workload}-seed{seed}.json.gz")
    samples = {name: summary.statements for name in metrics}
    return {"metrics": metrics, "samples": samples, "window": traced,
            "failed": failed, "problems": problems}
