"""Campaign execution: fan scenarios out across worker processes.

The :class:`CampaignRunner` takes a list of :class:`ScenarioSpec` and

* serves scenarios already present in its :class:`ResultStore` from cache
  (``cached`` outcomes never touch a simulator),
* executes the rest — in-process when ``max_workers <= 1``, otherwise on a
  :class:`concurrent.futures.ProcessPoolExecutor`,
* retries failed scenarios up to ``retries`` extra attempts,
* reports progress through an optional callback, and
* persists every fresh result back to the store.

Timeouts: ``timeout`` is a per-scenario wall-clock budget. In parallel
mode the whole batch is given ``timeout * ceil(n / workers)``; scenarios
still unfinished when the budget expires are cancelled (queued) or
abandoned (running — a worker process cannot be preempted mid-simulation)
and marked failed. In serial mode the budget is checked between
scenarios, which cannot interrupt one long-running simulation; use
worker processes when hard timeouts matter.
"""

from __future__ import annotations

import math
import os
import time
from concurrent.futures import (
    ProcessPoolExecutor,
    TimeoutError as FuturesTimeoutError,
    as_completed,
)
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from pathlib import Path
from collections.abc import Callable, Iterable, Sequence

from repro.campaign.spec import ScenarioSpec
from repro.campaign.store import ResultStore
from repro.errors import CampaignError
from repro.metrics.collector import MetricsCollector
from repro.obs.log import get_logger

logger = get_logger("campaign.runner")


def run_scenario(spec: ScenarioSpec) -> MetricsCollector:
    """Execute one scenario in the current process."""
    from repro.campaign.engines import execute_spec

    return execute_spec(spec)


def _worker(canonical: dict) -> dict:
    """Process-pool entry point: canonical spec in, plain-data result out."""
    spec = ScenarioSpec.from_dict(canonical)
    started = time.perf_counter()
    collector = run_scenario(spec)
    return {
        "key": spec.key,
        "collector": collector.to_dict(),
        "elapsed": time.perf_counter() - started,
        "worker": os.getpid(),
    }


@dataclass
class ScenarioOutcome:
    """What happened to one scenario in a campaign."""

    spec: ScenarioSpec
    key: str
    collector: MetricsCollector | None = None
    cached: bool = False
    elapsed: float = 0.0
    attempts: int = 0
    error: str | None = None
    worker: int | None = None

    @property
    def ok(self) -> bool:
        return self.collector is not None

    def log_row(self) -> dict:
        """Plain-data form for the store's campaign log."""
        return {
            "key": self.key,
            "scenario": self.spec.describe(),
            "ok": self.ok,
            "cached": self.cached,
            "elapsed": self.elapsed,
            "attempts": self.attempts,
            "worker": self.worker,
            "error": self.error,
            "logged_at": time.time(),
        }


@dataclass
class CampaignResult:
    """Outcomes in input order (duplicate specs share one outcome)."""

    outcomes: list[ScenarioOutcome] = field(default_factory=list)

    def __len__(self) -> int:
        return len(self.outcomes)

    def _unique(self) -> dict[str, ScenarioOutcome]:
        return {o.key: o for o in self.outcomes}

    @property
    def executed_count(self) -> int:
        """Unique scenarios that actually ran a simulator (cache misses)."""
        return sum(
            1 for o in self._unique().values()
            if not o.cached and o.attempts > 0
        )

    @property
    def cached_count(self) -> int:
        return sum(1 for o in self._unique().values() if o.cached)

    @property
    def failures(self) -> list[ScenarioOutcome]:
        return [o for o in self._unique().values() if not o.ok]

    def collectors(self) -> list[MetricsCollector]:
        """Per-spec collectors; raises if any scenario failed."""
        bad = self.failures
        if bad:
            detail = "; ".join(
                f"{o.spec.describe()}: {o.error}" for o in bad[:5]
            )
            raise CampaignError(
                f"{len(bad)} scenario(s) failed: {detail}"
            )
        return [o.collector for o in self.outcomes]


ProgressFn = Callable[[ScenarioOutcome, int, int], None]


class CampaignRunner:
    """Runs scenario lists with caching, parallelism, retry and progress."""

    def __init__(
        self,
        max_workers: int = 0,
        store: ResultStore | None = None,
        timeout: float | None = None,
        retries: int = 0,
        progress: ProgressFn | None = None,
        mp_context=None,
        trace_dir: str | Path | None = None,
    ):
        if timeout is not None and timeout <= 0:
            raise CampaignError("timeout must be positive")
        if retries < 0:
            raise CampaignError("retries must be >= 0")
        self.max_workers = max_workers or 0
        self.store = store
        self.timeout = timeout
        self.retries = retries
        self.progress = progress
        self.mp_context = mp_context
        #: where flow-lifecycle traces land as <key>.jsonl (None = don't)
        self.trace_dir = Path(trace_dir) if trace_dir is not None else None
        self._pool: ProcessPoolExecutor | None = None
        self._pool_broken = False

    # -- public API ---------------------------------------------------------------

    def run(self, specs: Iterable[ScenarioSpec]) -> CampaignResult:
        spec_list = list(specs)
        unique: dict[str, ScenarioSpec] = {}
        for spec in spec_list:
            unique.setdefault(spec.key, spec)

        outcomes: dict[str, ScenarioOutcome] = {}
        pending: list[ScenarioSpec] = []
        for key, spec in unique.items():
            collector = (self.store.get(spec) if self.store is not None
                         else None)
            if collector is not None:
                outcomes[key] = ScenarioOutcome(
                    spec=spec, key=key, collector=collector, cached=True
                )
            else:
                pending.append(spec)

        self._total = len(unique)
        self._done = 0
        logger.info(
            "campaign: %d scenario(s), %d cached, %d to run (workers=%d)",
            len(unique), len(outcomes), len(pending), self.max_workers,
        )
        if self.store is not None:
            self.store.log_outcomes(
                [outcome.log_row() for outcome in outcomes.values()])
        for outcome in outcomes.values():
            self._export_trace(outcome)
            self._report(outcome)

        if pending:
            if self.max_workers > 1:
                self._run_parallel(pending, outcomes)
            else:
                self._run_serial(pending, outcomes)

        return CampaignResult([outcomes[s.key] for s in spec_list])

    def collectors(self, specs: Iterable[ScenarioSpec]
                   ) -> list[MetricsCollector]:
        return self.run(specs).collectors()

    def close(self) -> None:
        """Shut the worker pool down (idempotent; run() reopens it)."""
        if self._pool is not None:
            self._pool.shutdown(wait=True, cancel_futures=True)
            self._pool = None

    def __enter__(self) -> "CampaignRunner":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # -- internals ----------------------------------------------------------------

    def _report(self, outcome: ScenarioOutcome) -> None:
        self._done += 1
        if self.progress is not None:
            self.progress(outcome, self._done, self._total)

    def _record(self, outcomes: dict[str, ScenarioOutcome],
                outcome: ScenarioOutcome) -> None:
        outcomes[outcome.key] = outcome
        if outcome.ok and not outcome.cached and self.store is not None:
            try:
                self.store.put(outcome.spec, outcome.collector,
                               outcome.elapsed)
            except OSError as exc:
                # an entry path the store cannot replace (a directory in
                # the way, a read-only root) costs the cache, not the run
                logger.warning("scenario %s not stored: %s",
                               outcome.spec.describe(), exc)
        if not outcome.ok:
            logger.warning("scenario %s failed (attempt %d): %s",
                           outcome.spec.describe(), outcome.attempts,
                           outcome.error)
        else:
            logger.debug("scenario %s ok in %.3fs (worker %s)",
                         outcome.spec.describe(), outcome.elapsed,
                         outcome.worker)
        if self.store is not None:
            self.store.log_outcome(outcome.log_row())
        self._export_trace(outcome)
        self._report(outcome)

    def _export_trace(self, outcome: ScenarioOutcome) -> None:
        """Write a scenario's flow-lifecycle trace (if it recorded one)
        to ``trace_dir/<key>.jsonl`` — cached outcomes included, since
        the trace round-trips through the store like any other field."""
        if self.trace_dir is None or not outcome.ok:
            return
        if not outcome.collector.trace:
            return
        from repro.obs.trace import write_trace_jsonl

        path = write_trace_jsonl(
            self.trace_dir / f"{outcome.key}.jsonl",
            outcome.collector.trace,
            header={"key": outcome.key,
                    "scenario": outcome.spec.describe()},
        )
        logger.info("trace written: %s (%d event(s))", path,
                    len(outcome.collector.trace))

    def _run_serial(self, pending: Sequence[ScenarioSpec],
                    outcomes: dict[str, ScenarioOutcome]) -> None:
        budget = (
            None if self.timeout is None
            else time.monotonic() + self.timeout * len(pending)
        )
        skipping = False
        for spec in pending:
            if budget is not None and time.monotonic() > budget:
                skipping = True
            if skipping:
                outcomes[spec.key] = ScenarioOutcome(
                    spec=spec, key=spec.key, error="campaign timeout"
                )
                self._report(outcomes[spec.key])
                continue
            outcome = ScenarioOutcome(spec=spec, key=spec.key,
                                      worker=os.getpid())
            for attempt in range(self.retries + 1):
                outcome.attempts = attempt + 1
                started = time.perf_counter()
                try:
                    outcome.collector = run_scenario(spec)
                    outcome.elapsed = time.perf_counter() - started
                    outcome.error = None
                    break
                except Exception as exc:  # noqa: BLE001 - isolate scenarios
                    outcome.error = f"{type(exc).__name__}: {exc}"
            self._record(outcomes, outcome)

    def _settle(self, future, spec: ScenarioSpec,
                attempts: dict[str, int]) -> ScenarioOutcome:
        """Turn one finished future into an outcome."""
        attempts[spec.key] += 1
        outcome = ScenarioOutcome(
            spec=spec, key=spec.key, attempts=attempts[spec.key],
        )
        try:
            payload = future.result()
            outcome.collector = MetricsCollector.from_dict(
                payload["collector"]
            )
            outcome.elapsed = payload["elapsed"]
            outcome.worker = payload.get("worker")
        except BrokenProcessPool as exc:
            # the pool is unusable from now on; flag it for rebuild
            self._pool_broken = True
            outcome.error = f"{type(exc).__name__}: {exc}"
        except Exception as exc:  # noqa: BLE001 - isolate scenarios
            outcome.error = f"{type(exc).__name__}: {exc}"
        return outcome

    def _run_parallel(self, pending: Sequence[ScenarioSpec],
                      outcomes: dict[str, ScenarioOutcome]) -> None:
        attempts: dict[str, int] = {spec.key: 0 for spec in pending}
        batch = list(pending)
        isolate = False
        while batch:
            retry: list[ScenarioSpec] = []
            if isolate:
                self._run_isolated(batch, attempts, retry, outcomes)
            else:
                # a crashed worker fails every in-flight sibling and the
                # executor does not say which scenario crashed, so the
                # retry round runs quarantined (one scenario in flight at
                # a time): the culprit then only takes out itself
                isolate = self._run_bulk(batch, attempts, retry, outcomes)
            batch = retry

    def _ensure_pool(self) -> ProcessPoolExecutor:
        # the pool is kept across run() calls: binary-search figures
        # issue many small batches and must not pay startup each time
        if self._pool is None:
            self._pool = ProcessPoolExecutor(
                max_workers=self.max_workers,
                mp_context=self.mp_context,
            )
        return self._pool

    def _run_bulk(self, batch: Sequence[ScenarioSpec],
                  attempts: dict[str, int], retry: list[ScenarioSpec],
                  outcomes: dict[str, ScenarioOutcome]) -> bool:
        """One all-in-flight round; returns True if the pool broke."""
        workers = min(self.max_workers, len(batch))
        budget = (
            None if self.timeout is None
            else self.timeout * math.ceil(len(batch) / workers)
        )
        pool = self._ensure_pool()
        futures = {
            pool.submit(_worker, spec.canonical()): spec for spec in batch
        }
        try:
            for future in as_completed(futures, timeout=budget):
                spec = futures.pop(future)
                outcome = self._settle(future, spec, attempts)
                if not outcome.ok and outcome.attempts <= self._limit(outcome):
                    retry.append(spec)
                    self._total += 1  # it will report again
                self._record(outcomes, outcome)
        except FuturesTimeoutError:
            return self._drain(futures, attempts, retry, outcomes,
                               f"timeout after {self.timeout:.1f}s")
        except BrokenProcessPool:
            self._pool_broken = True
            return self._drain(futures, attempts, retry, outcomes,
                               "worker process died (BrokenProcessPool)")
        broken = self._pool_broken
        if broken:
            self._discard_pool()
        return broken

    def _run_isolated(self, batch: Sequence[ScenarioSpec],
                      attempts: dict[str, int], retry: list[ScenarioSpec],
                      outcomes: dict[str, ScenarioOutcome]) -> None:
        """Quarantine round: one scenario in flight at a time, so a crash
        or timeout takes down only the scenario that caused it."""
        for spec in batch:
            future = self._ensure_pool().submit(_worker, spec.canonical())
            timed_out = False
            try:
                future.result(timeout=self.timeout)
            except FuturesTimeoutError:
                timed_out = True
            except Exception:  # noqa: BLE001 - settled below
                pass
            if timed_out:
                attempts[spec.key] += 1
                outcome = ScenarioOutcome(
                    spec=spec, key=spec.key, attempts=attempts[spec.key],
                    error=f"timeout after {self.timeout:.1f}s",
                )
                self._discard_pool()
            else:
                outcome = self._settle(future, spec, attempts)
                if self._pool_broken:
                    self._discard_pool()
            if not outcome.ok and outcome.attempts <= self._limit(outcome):
                retry.append(spec)
                self._total += 1
            self._record(outcomes, outcome)

    def _limit(self, outcome: ScenarioOutcome) -> int:
        """Retry budget for a failed outcome. A broken pool fails every
        in-flight sibling of the crashing scenario, and the executor does
        not say which one crashed — grant one extra attempt so collateral
        scenarios still run on a healthy pool even with retries=0 (the
        true culprit just crashes again and exhausts the bonus)."""
        if outcome.error and "BrokenProcessPool" in outcome.error:
            return self.retries + 1
        return self.retries

    def _discard_pool(self) -> None:
        if self._pool is not None:
            # a stuck or crashed worker must not be joined at interpreter
            # exit (concurrent.futures' atexit hook would hang on it)
            workers = list(getattr(self._pool, "_processes", {}).values())
            self._pool.shutdown(wait=False, cancel_futures=True)
            for process in workers:
                process.kill()
            self._pool = None
        self._pool_broken = False

    def _drain(self, futures: dict, attempts: dict[str, int],
               retry: list[ScenarioSpec],
               outcomes: dict[str, ScenarioOutcome], error: str) -> bool:
        """Settle what finished, fail the rest, and discard the pool.

        Used when a batch dies early (timeout or a crashed worker): a
        worker stuck inside a simulation cannot be joined without hanging
        the campaign, so the pool is abandoned (its workers are killed)
        and the next batch gets a fresh one. Returns whether the pool
        was broken (callers quarantine the retry round on that).
        """
        for future, spec in futures.items():
            if future.done() and not future.cancelled():
                # finished in the race window; keep the real result
                outcome = self._settle(future, spec, attempts)
            elif future.cancel():
                # still queued — it never ran, so charge no attempt
                outcome = ScenarioOutcome(
                    spec=spec, key=spec.key,
                    attempts=attempts[spec.key],
                    error=f"{error} (never started)",
                )
            else:
                attempts[spec.key] += 1
                outcome = ScenarioOutcome(
                    spec=spec, key=spec.key,
                    attempts=attempts[spec.key],
                    error=error,
                )
            if not outcome.ok and outcome.attempts <= self._limit(outcome):
                retry.append(spec)
                self._total += 1
            self._record(outcomes, outcome)
        broken = self._pool_broken
        self._discard_pool()
        return broken
