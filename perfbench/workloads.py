"""Statement streams and the serving stacks each workload runs on.

Every workload is a closed loop: each client sends its next statement
only after the previous reply arrived.  The statement streams come from
``--seed`` alone; the TPC-H data is the generator's fixed SF 10 catalog.
"""

from __future__ import annotations

import datetime
import random
from dataclasses import dataclass

from repro.engine import EngineOptions
from repro.net import NetServer, ReproNetClient, ServerThread, demo_registry
from repro.obs.metrics import MetricsRegistry
from repro.serve import PAPER_MIX, AsyncEngine, EngineSession
from repro.tpch import ALL_EVALUATION_QUERIES, generate_tpch
from repro.tpch.queries import PAPER_Q4V, PAPER_Q5, PAPER_Q8, TPCH_Q2, TPCH_Q4, TPCH_Q17
from repro.tpch.text import ALL_CONTAINERS, REGIONS, TYPE_SYLLABLE_3

SCALE_FACTOR = 10

#: The paper mix (with its repeats) plus the non-unnestable Query 5.
MIX_DECK = tuple(PAPER_MIX) + ("paper_q5",)

WORKLOADS = ("mix-warm", "adhoc-cold", "net-2tenant", "mix-sharded")


class MixStream:
    """The mix deck, reshuffled by seed every round.

    Whole rounds keep every query's share fixed, so the mean modelled
    time over a fixed prefix moves with the seed only through the last,
    partial round.
    """

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.round: list[str] = []

    def warmup(self) -> list[str]:
        return [ALL_EVALUATION_QUERIES[name] for name in MIX_DECK]

    def __next__(self) -> str:
        if not self.round:
            self.round = list(MIX_DECK)
            self.rng.shuffle(self.round)
        return ALL_EVALUATION_QUERIES[self.round.pop()]


def _substitute(template: str, pairs: list[tuple[str, str]]) -> str:
    for old, new in pairs:
        if old not in template:
            raise ValueError(f"template lacks {old!r}")
        template = template.replace(old, new)
    return template


def _brand(rng: random.Random) -> str:
    return f"Brand#{rng.randint(1, 5)}{rng.randint(1, 5)}"


def _q2_params(rng: random.Random) -> list[tuple[str, str]]:
    return [
        ("p_size = 15", f"p_size = {rng.randint(1, 50)}"),
        ("'%BRASS'", f"'%{rng.choice(TYPE_SYLLABLE_3)}'"),
        ("'EUROPE'", f"'{rng.choice(REGIONS)}'"),
    ]


_Q4_FIRST_DAY = datetime.date(1993, 1, 1)
_Q4_DAYS = (datetime.date(1997, 10, 1) - _Q4_FIRST_DAY).days


def _q4(rng: random.Random) -> str:
    start = _Q4_FIRST_DAY + datetime.timedelta(days=rng.randrange(_Q4_DAYS))
    month = start.month + 3
    end = start.replace(
        year=start.year + (month - 1) // 12, month=(month - 1) % 12 + 1,
        day=min(start.day, 28),
    )
    return _substitute(TPCH_Q4, [
        ("DATE '1993-07-01'", f"DATE '{start.isoformat()}'"),
        ("DATE '1993-10-01'", f"DATE '{end.isoformat()}'"),
    ])


def _q17(rng: random.Random) -> str:
    return _substitute(TPCH_Q17, [
        ("'Brand#23'", f"'{_brand(rng)}'"),
        ("'MED BOX'", f"'{rng.choice(ALL_CONTAINERS)}'"),
    ])


def _q2_family(template: str, brand: bool):
    def draw(rng: random.Random) -> str:
        pairs = _q2_params(rng)
        if brand:
            pairs.append(("'Brand#41'", f"'{_brand(rng)}'"))
        return _substitute(template, pairs)
    return draw


#: The six ad-hoc families with TPC-H qgen-style substitution parameters.
ADHOC_FAMILIES = {
    "q2": _q2_family(TPCH_Q2, brand=False),
    "q4": _q4,
    "q17": _q17,
    "q4v": _q2_family(PAPER_Q4V, brand=True),
    "q5": _q2_family(PAPER_Q5, brand=True),
    "q8": _q2_family(PAPER_Q8, brand=True),
}


class AdhocStream:
    """Distinct statements: families reshuffled per round, parameters
    drawn by seed, and no statement ever drawn twice."""

    def __init__(self, rng: random.Random):
        self.rng = rng
        self.seen: set[str] = set()
        self.round: list[str] = []

    def _fresh(self, family: str) -> str:
        for _ in range(1000):
            sql = ADHOC_FAMILIES[family](self.rng)
            if sql not in self.seen:
                self.seen.add(sql)
                return sql
        raise RuntimeError(f"family {family} ran out of distinct statements")

    def warmup(self) -> list[str]:
        # one statement per family makes the columns resident; the
        # timed stream never repeats them, so every timed statement
        # still misses the plan cache
        return [self._fresh(family) for family in ADHOC_FAMILIES]

    def __next__(self) -> str:
        if not self.round:
            self.round = list(ADHOC_FAMILIES)
            self.rng.shuffle(self.round)
        return self._fresh(self.round.pop())


def streams(workload: str, seed: int, clients: int) -> list:
    kind = AdhocStream if workload == "adhoc-cold" else MixStream
    return [
        kind(random.Random(f"{workload}:{seed}:{client}"))
        for client in range(clients)
    ]


@dataclass
class Outcome:
    """One statement as its client saw it."""

    sql: str
    start_s: float
    end_s: float
    rows: list | None = None
    modelled_ns: float | None = None
    result: object = None  # the QueryResult, where the client holds one
    error: str | None = None

    @property
    def wall_ms(self) -> float:
        return (self.end_s - self.start_s) * 1e3


class SessionStack:
    """One :class:`EngineSession` driven in-process by one client."""

    def __init__(self, workload: str):
        self.workload = workload
        self.catalog = generate_tpch(SCALE_FACTOR, use_cache=False)
        if workload == "mix-sharded":
            self.session = EngineSession(
                self.catalog, options=EngineOptions(), mode="auto",
                shards=2, interconnect="nvlink",
            )
        else:
            self.session = EngineSession(
                self.catalog, options=EngineOptions(), mode="auto",
            )
        self.clients = [self._execute]
        self.tenants = [None]

    def _execute(self, sql: str) -> tuple[list, float, object]:
        result = self.session.execute(sql)
        modelled = (
            result.makespan_ns if result.makespan_ns is not None
            else result.stats.total_ns
        )
        return result.rows, modelled, result

    def window_results(self, outcomes: list[Outcome]) -> list[tuple]:
        """``(sql, QueryResult)`` for every statement of the window."""
        return [(o.sql, o.result) for o in outcomes if o.result is not None]

    def mark(self) -> None:
        pass

    def window_report(self) -> list:
        return []

    def close(self) -> None:
        self.session.close()


class NetStack:
    """NetServer over AsyncEngine(2 workers, fair share), in-process,
    with the demo tenants; one connection per tenant."""

    TOKENS = ("alpha-token", "beta-token")

    def __init__(self, workload: str):
        self.workload = workload
        self.catalog = generate_tpch(SCALE_FACTOR, use_cache=False)
        self.session = EngineSession(
            self.catalog, options=EngineOptions(), mode="auto",
            metrics=MetricsRegistry(),
        )
        registry = demo_registry()
        self.engine = AsyncEngine(
            self.session, workers=2, policy="fair",
            tenant_budgets=registry.budgets(self.session.device_capacity_bytes),
            tenant_weights=registry.weights(),
            slo_objectives=registry.slo_objectives(),
        )
        self.server = ServerThread(NetServer(self.engine, registry))
        self.connections: list[ReproNetClient] = []
        try:
            self.server.start()
            for token in self.TOKENS:
                self.connections.append(ReproNetClient(
                    self.server.host, self.server.port, token=token,
                ))
        except BaseException:
            self.close()
            raise
        self.clients = [self._executor(c) for c in self.connections]
        self.tenants = [c.tenant for c in self.connections]
        self._first_seq = 0

    @staticmethod
    def _executor(connection: ReproNetClient):
        def execute(sql: str) -> tuple[list, float, object]:
            reply = connection.execute(sql)
            return reply.rows, reply.total_ns, None
        return execute

    def mark(self) -> None:
        """Start of a window: later report entries belong to it."""
        self._first_seq = len(self.engine.report().queries)

    def window_results(self, outcomes: list[Outcome]) -> list[tuple]:
        """``(sql, QueryResult)`` for every ticket of the window."""
        return [
            (q.sql, q.result) for q in self.window_report()
            if q.result is not None
        ]

    def window_report(self) -> list:
        return self.engine.report().queries[self._first_seq:]

    def close(self) -> None:
        for connection in self.connections:
            connection.close()
        self.engine.shutdown(drain=True, timeout=30.0)
        self.server.stop()
        self.session.close()


def build_stack(workload: str):
    """Construct one stack (part of what ``setup_s`` times)."""
    if workload == "net-2tenant":
        return NetStack(workload)
    return SessionStack(workload)
