"""Correctness checks: reference rows and the determinism guard."""

from __future__ import annotations

import pickle
import subprocess
import sys
from pathlib import Path

from repro.core import NestGPU
from repro.engine import EngineOptions
from repro.errors import ReproError, UnnestingError
from repro.fuzz.differential import canon_rows, rows_match
from repro.tpch import generate_tpch


def fingerprint(result) -> tuple:
    """Every modelled figure of one run that must repeat exactly."""
    stats = result.stats
    return (
        result.plan_choice,
        stats.total_ns,
        result.makespan_ns,
        stats.kernel_launches,
        stats.fused_launches,
        stats.malloc_calls,
        stats.kernel_time_ns,
        stats.h2d_bytes,
        stats.d2h_bytes,
        stats.materialize_bytes,
        stats.peak_device_bytes,
        stats.peer_bytes,
        result.pool_restores,
        sum(result.subquery_iterations.values()),
        sum(result.subquery_batches.values()),
        result.cache_hits,
        result.cache_misses,
        result.index_probes,
        result.adaptive_switch,
    )


def _reference(engines, sql: str) -> tuple[list[tuple] | None, str | None]:
    """Nested rows, or ``None`` and why there is no trusted answer."""
    nested_engine, unnested_engine = engines
    try:
        nested = canon_rows(nested_engine.execute(sql).rows)
    except ReproError as exc:
        return None, f"reference failed ({exc})"
    try:
        unnested = canon_rows(unnested_engine.execute(sql).rows)
    except UnnestingError:
        return nested, None
    except ReproError as exc:
        return None, f"unnested reference failed ({exc})"
    if not rows_match(nested, unnested):
        return None, "reference paths disagree"
    return nested, None


def reference_worker() -> None:
    """Child process: read ``(scale_factor, statements)`` pickled on
    stdin, write ``{sql: _reference(sql)}`` pickled on stdout."""
    scale_factor, statements = pickle.load(sys.stdin.buffer)
    out, sys.stdout = sys.stdout.buffer, sys.stderr  # stdout carries only the answers
    catalog = generate_tpch(scale_factor, use_cache=False)
    engines = tuple(
        NestGPU(catalog, mode=mode, options=EngineOptions.all_off())
        for mode in ("nested", "unnested")
    )
    answers = {sql: _reference(engines, sql) for sql in statements}
    pickle.dump(answers, out)
    out.flush()


class ReferenceRows:
    """Rows from fresh engines with every optimization off.

    The nested path is the reference; where the statement can be
    unnested, the unnested path must agree with it.  The rowstore
    oracle is too slow for SF 10 (correlated subqueries are
    outer x inner there).  The statements are split over ``workers``
    child processes, each with its own catalog; every child is waited
    for (and killed first if anything goes wrong), so none outlives
    the check.
    """

    def __init__(self, scale_factor: float, workers: int = 2):
        self.scale_factor = scale_factor
        self.workers = workers
        self.problems: list[str] = []

    def _answers(self, statements: list[str]) -> dict:
        shares = [statements[k:: self.workers] for k in range(self.workers)]
        shares = [share for share in shares if share]
        here = Path(__file__).resolve().parent
        command = [
            sys.executable, "-c",
            "import sys; sys.path[:0] = sys.argv[1:3]; "
            "import checks; checks.reference_worker()",
            str(here.parent / "src"), str(here),
        ]
        children = []
        try:
            for share in shares:
                child = subprocess.Popen(
                    command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                )
                children.append(child)
                child.stdin.write(pickle.dumps((self.scale_factor, share)))
                child.stdin.close()
            answers = {}
            for child in children:
                answers.update(pickle.loads(child.stdout.read()))
                if child.wait() != 0:
                    raise RuntimeError(
                        f"reference process exited with {child.returncode}")
            return answers
        finally:
            for child in children:
                if child.poll() is None:
                    child.kill()
                child.wait()
                child.stdout.close()

    def wrong(self, outcomes) -> set[int]:
        """``id()`` of every outcome whose rows differ from the reference."""
        statements = sorted({o.sql for o in outcomes if o.rows is not None})
        answers = self._answers(statements)
        for sql, (_, why) in answers.items():
            if why is not None:
                self.problems.append(f"{why} on {snippet(sql)}")
        bad = set()
        for outcome in outcomes:
            if outcome.rows is None:
                continue
            expected = answers[outcome.sql][0]
            if expected is None:
                bad.add(id(outcome))  # no trusted answer: not verified
            elif not rows_match(canon_rows(outcome.rows), expected):
                bad.add(id(outcome))
                self.problems.append(f"wrong rows for {snippet(outcome.sql)}")
        return bad


def snippet(sql: str, limit: int = 100) -> str:
    flat = " ".join(sql.split())
    return flat if len(flat) <= limit else flat[: limit - 3] + "..."


class DeterminismGuard:
    """Modelled figures must not depend on timing or thread order.

    Each statement text maps to one fingerprint for the whole
    invocation, and every run of the seed's stream must give the same
    per-client sequence of modelled times over the measured prefix.
    """

    def __init__(self):
        self.by_sql: dict[str, tuple] = {}
        self.prefixes: list[list[list[float]]] = []
        self.problems: list[str] = []

    def observe(self, pairs) -> None:
        """``pairs``: ``(sql, QueryResult)`` for every run statement."""
        for sql, result in pairs:
            value = fingerprint(result)
            known = self.by_sql.setdefault(sql, value)
            if known != value:
                self.problems.append(
                    f"modelled figures changed between runs of "
                    f"{snippet(sql)}: {known} != {value}"
                )

    def observe_prefix(self, prefix: list[list[float]]) -> None:
        """Per-client modelled ns of the measured prefix of one run."""
        if self.prefixes and prefix != self.prefixes[0]:
            self.problems.append(
                "modelled times over the measured prefix differ between "
                "runs of the same seed"
            )
        self.prefixes.append(prefix)
