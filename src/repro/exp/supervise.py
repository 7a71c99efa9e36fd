"""Supervised spec execution: one retrying loop over an executor.

The simulations of a sweep are independent, deterministic, and
CPU-bound, which makes them ideal :mod:`concurrent.futures` fan-out
material.  :class:`SupervisedRunner` moves every unique
:class:`~repro.exp.spec.RunSpec` through pending → submitted → finished
| retry | quarantined in one loop over an executor.
:class:`PoolExecutor` marshals each spec to a worker as its canonical
key dict and the outcome back as its
:meth:`~repro.exp.spec.Outcome.as_dict` view — plain dicts both ways, so
parallel results are value-identical to a serial run.
:class:`InProcessExecutor` runs the spec inside ``submit`` and returns
an already-finished future: ``jobs=1``, a host with fewer cores than
jobs and a pool that keeps dying all select it, and nothing else about
the loop changes.  Unique specs are submitted heaviest-first (a static
per-workload weight table — longest-processing-time order keeps the
pool's tail short), at most ``2 × jobs`` in flight.

Workers are not trusted: the :class:`SupervisorPolicy` bounds every
failure mode a long sweep actually hits:

* **Hung workers** — each in-flight spec carries a wall-clock deadline;
  an overdue worker cannot be killed individually through
  :class:`~concurrent.futures.ProcessPoolExecutor`, so the supervisor
  recycles the whole pool (terminating its processes) and requeues the
  survivors without charging them an attempt.
* **Crashed workers** — a ``SIGKILL``-ed worker breaks the pool
  (``BrokenProcessPool``); every in-flight spec is charged one attempt
  (the killer cannot be identified) and the pool is recycled.
* **Failing specs** — each failure is retried after a capped-exponential
  backoff with jitter drawn deterministically from ``(policy seed,
  fingerprint, attempt)``, other specs running meanwhile.  After
  ``max_attempts`` failures the spec is **quarantined**: it gets no
  outcome, the rest of the grid proceeds, and the batch reports it.
* **A dying pool** — after ``max_pool_recycles`` recycles the supervisor
  drains the remaining specs in-process.

Every step is one record on the batch's
:class:`~repro.exp.journal.BatchJournal`, and the supervisor keeps no
books of its own: attempt counts, quarantine reasons and counters are
read from the journal's fold, so a resumed journal carries every spec's
spent budget into the new run.  Harness-chaos worker actions
(:mod:`repro.faults.harness`) are decided per ``(fingerprint, attempt)``
at submission and are exactly as deterministic as the supervision they
exercise.  ``SupervisorPolicy.strict()`` is the fail-fast contract — one
attempt, first failure raises — that :func:`~repro.exp.batch.run_batch`
defaults to.
"""

from __future__ import annotations

import hashlib
import heapq
import os
import random
import signal
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, SimulationError
from repro.exp.journal import BatchJournal, SuperviseStats
from repro.exp.spec import Outcome, RunSpec
from repro.faults.harness import HarnessChaosError, HarnessChaosPlan

#: Relative wall-clock weight per workload: milliseconds to build and run
#: its ``table3_grid()`` move-threshold spec at the default size (median
#: of three, serial, measured after PR 17 put the prime finders on sieve
#: tables).  Only the *ordering* matters, for longest-first submission;
#: unknown workloads sort mid-pack.
WORKLOAD_WEIGHTS: Dict[str, int] = {
    "Primes3": 475,
    "FFT": 170,
    "PlyTrace": 67,
    "IMatMult": 47,
    "Primes2": 47,
    "Primes1": 31,
    "Gfetch": 4,
    "ParMult": 2,
}

#: Default weight for workloads not in the table.
_DEFAULT_WEIGHT = 47

#: Specs kept in flight per pool worker: enough to hide submission
#: latency, small enough that a recycled pool re-queues little.
MAX_INFLIGHT_FACTOR = 2

#: Extra backoff fraction, drawn deterministically in [0, jitter).
BACKOFF_JITTER = 0.25


def spec_weight(spec: RunSpec) -> int:
    """Heuristic relative cost of one spec (for submission ordering)."""
    weight = WORKLOAD_WEIGHTS.get(spec.workload, _DEFAULT_WEIGHT)
    if spec.fault_profile not in (None, "none"):
        weight += 5  # recovery paths lengthen the run a little
    return weight


def warm_worker() -> None:
    """Pool initializer: import the engine, the chaos harness, the workloads.

    The orchestrating process never simulates when it has a pool, so it
    never imports the engine: a cache hit costs no engine import and a
    miss costs one per worker (≈ 0.1 s, the workers paying it side by
    side at pool start-up, again after a recycle), under ``fork`` and
    ``spawn`` alike.  Paying here rather than in the first simulation
    keeps per-spec timings comparable across workers.
    """
    import repro.faults.chaos  # noqa: F401
    import repro.sim.engine  # noqa: F401
    import repro.workloads  # noqa: F401


@dataclass(frozen=True)
class SupervisorPolicy:
    """How hard the supervisor fights for each spec.

    The retry envelope mirrors :class:`~repro.faults.injector.
    RetryPolicy` (attempt cap, doubling backoff with a ceiling), but the
    jitter is drawn deterministically per ``(seed, fingerprint,
    attempt)`` — batch behaviour must not depend on a shared RNG whose
    consumption order the pool scheduler controls.
    """

    #: Attempts per spec before quarantine (1 = no retry).
    max_attempts: int = 3
    #: Per-spec wall-clock timeout, host seconds (None = never time out).
    timeout_s: Optional[float] = None
    #: First-retry backoff, host seconds; doubles per attempt.
    backoff_base_s: float = 0.25
    #: Backoff ceiling, host seconds.
    backoff_cap_s: float = 4.0
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    #: Pool recycles tolerated before falling back to in-process execution.
    max_pool_recycles: int = 3
    #: Fail fast: the first failure raises instead of retrying.
    raise_on_failure: bool = False
    #: Harness-chaos schedule to run under (tests/benches/CI only).
    chaos: Optional[HarnessChaosPlan] = None

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigurationError(
                f"max_attempts must be >= 1, got {self.max_attempts}"
            )
        if self.timeout_s is not None and self.timeout_s <= 0:
            raise ConfigurationError(
                f"timeout_s must be positive, got {self.timeout_s}"
            )
        if self.backoff_base_s < 0 or self.backoff_cap_s < 0:
            raise ConfigurationError("backoff must be non-negative")

    def backoff_s(self, fingerprint: str, attempt: int) -> float:
        """Backoff before retrying the (1-based) *attempt*-th failure.

        Capped exponential, plus jitter that is a pure function of
        ``(seed, fingerprint, attempt)`` — byte-identical schedules per
        batch seed, regardless of completion order.
        """
        base = min(
            self.backoff_base_s * (2.0 ** (attempt - 1)), self.backoff_cap_s
        )
        if base <= 0.0:
            return 0.0
        key = f"{self.seed}:{fingerprint}:{attempt}:backoff"
        draw = random.Random(
            hashlib.sha256(key.encode("utf-8")).digest()
        ).random()
        return base * (1.0 + BACKOFF_JITTER * draw)

    @classmethod
    def strict(cls) -> "SupervisorPolicy":
        """The fail-fast contract: one attempt, failures raise."""
        return cls(max_attempts=1, raise_on_failure=True, backoff_base_s=0.0)


@dataclass
class _Flight:
    """One spec attempt currently in a worker."""

    fp: str
    spec: RunSpec
    attempt: int
    deadline: Optional[float]


def execute_supervised(
    payload: Dict[str, object], action: Optional[Dict[str, object]] = None
) -> Dict[str, object]:
    """Worker entry point: spec key dict in, outcome dict out.

    Module-level (picklable) on purpose; reconstructing the spec from
    its canonical key keeps the worker independent of parent-process
    object identity.  An optional chaos *action* is suffered first:
    ``{"kill": True}`` SIGKILLs the worker mid-spec (the parent sees a
    broken pool); ``{"hang_s": x}`` sleeps *x* host seconds before
    executing (the parent sees a hung worker if *x* exceeds its
    timeout).  The decision is made — deterministically — in the parent;
    the worker just obeys.
    """
    if action:
        if action.get("kill"):
            os.kill(os.getpid(), signal.SIGKILL)
        hang_s = action.get("hang_s")
        if hang_s:
            time.sleep(float(hang_s))
    return RunSpec.from_key(payload).execute().as_dict()


class InProcessExecutor:
    """Runs each spec inside :meth:`submit`: one spec in flight, and its
    future is finished when ``submit`` returns.

    The outcome is the spec's own :meth:`RunSpec.execute` result, not a
    marshalled copy.  Chaos worker actions cannot kill the orchestrator,
    so here they surface as :class:`HarnessChaosError` failures — the
    retry path is exercised identically, deterministically.
    """

    inline = True
    window = 1

    def submit(
        self, spec: RunSpec, action: Optional[Dict[str, object]]
    ) -> Future:
        future: Future = Future()
        try:
            if action is not None:
                kind = "killed" if action.get("kill") else "hung"
                raise HarnessChaosError(
                    f"harness chaos: worker {kind} (serial)"
                )
            future.set_result(spec.execute())
        except (KeyboardInterrupt, SystemExit):
            raise
        except BaseException as error:  # noqa: BLE001 - supervised
            future.set_exception(error)
        return future

    def shutdown(self) -> None:
        """Nothing runs outside the caller."""


class PoolExecutor:
    """Worker processes: the spec's key dict out, its outcome dict back."""

    inline = False

    def __init__(self, workers: int) -> None:
        self.window = MAX_INFLIGHT_FACTOR * workers
        self._pool = ProcessPoolExecutor(
            max_workers=workers, initializer=warm_worker
        )

    def submit(
        self, spec: RunSpec, action: Optional[Dict[str, object]]
    ) -> Future:
        return self._pool.submit(execute_supervised, spec.key(), action)

    def shutdown(self) -> None:
        """Tear the pool down without waiting for hung or dead workers."""
        procs = list((getattr(self._pool, "_processes", None) or {}).values())
        try:
            self._pool.shutdown(wait=False, cancel_futures=True)
        except Exception:  # noqa: BLE001 - teardown must not raise
            pass
        for proc in procs:
            try:
                proc.terminate()
            except Exception:  # noqa: BLE001
                pass
        for proc in procs:
            try:
                proc.join(timeout=2.0)
                if proc.is_alive():
                    proc.kill()
            except Exception:  # noqa: BLE001
                pass


Executor = Union[InProcessExecutor, PoolExecutor]


class SupervisedRunner:
    """Run unique specs under a :class:`SupervisorPolicy`.

    The input is the deduplicated ``(fingerprint, spec)`` list; the
    output is ``(outcomes, quarantined, stats)``, the last two read from
    the journal's current segment (a runner used on its own opens one in
    an in-memory journal).  Alignment with a caller's duplicate-bearing
    spec list is the caller's job (see :func:`~repro.exp.batch.run_batch`).
    """

    def __init__(
        self,
        jobs: int = 1,
        policy: Optional[SupervisorPolicy] = None,
        journal: Optional[BatchJournal] = None,
    ) -> None:
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.jobs = jobs
        # Fan-out on a starved host loses to the serial loop on
        # marshalling overhead alone; never run more workers than cores.
        self.jobs_effective = max(1, min(jobs, os.cpu_count() or 1))
        self.journal = journal if journal is not None else BatchJournal()

    def run(
        self,
        todo: Sequence[Tuple[str, RunSpec]],
        on_result: Optional[Callable[[RunSpec, Outcome], None]] = None,
    ) -> Tuple[Dict[str, Outcome], Dict[str, str], SuperviseStats]:
        """Execute unique ``(fingerprint, spec)`` pairs, heaviest first.

        *on_result* sees each fresh outcome before the spec's
        ``finished`` record is appended (the batch writes the cache
        there), so a kill between the two re-runs the spec rather than
        losing it.
        """
        journal, policy = self.journal, self.policy
        batch = journal.state.last or journal.begin(
            "", [fp for fp, _ in todo], {}, self.jobs
        )
        outcomes: Dict[str, Outcome] = {}
        spec_by_fp = dict(todo)
        runnable: List[Tuple[str, RunSpec]] = []
        for fp, spec in sorted(
            todo, key=lambda item: (-spec_weight(item[1]), item[0])
        ):
            # A spec that exhausted its budget before a resume stays
            # quarantined, with the error it was quarantined with.
            if (
                not policy.raise_on_failure
                and batch.failures.get(fp, 0) >= policy.max_attempts
            ):
                self._quarantine(fp, batch.errors.get(fp, ""))
            else:
                runnable.append((fp, spec))
        pending = runnable[::-1]  # a stack: the next spec is the last one
        retry_heap: List[Tuple[float, str]] = []  # (wake time, fingerprint)
        inflight: Dict[Future, _Flight] = {}
        executor: Executor = (
            InProcessExecutor() if self.jobs_effective == 1
            else PoolExecutor(self.jobs_effective)
        )
        try:
            while pending or inflight or retry_heap:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, fp = heapq.heappop(retry_heap)
                    pending.append((fp, spec_by_fp[fp]))
                broken: Optional[str] = None
                while pending and len(inflight) < executor.window:
                    fp, spec = pending.pop()
                    attempt = batch.failures.get(fp, 0) + 1
                    action = (
                        policy.chaos.worker_action(fp, attempt)
                        if policy.chaos is not None else None
                    )
                    journal.spec_event("submitted", fp, attempt=attempt)
                    deadline = (
                        time.monotonic() + policy.timeout_s
                        if policy.timeout_s is not None else None
                    )
                    try:
                        future = executor.submit(spec, action)
                    except BrokenProcessPool:
                        # The pool died between waits; flights that broke
                        # it fail below and are charged there.
                        pending.append((fp, spec))
                        if not inflight:
                            broken = "pool broken at submit"
                        break
                    inflight[future] = _Flight(fp, spec, attempt, deadline)
                if inflight:
                    # Wake for the next deadline or retry, whichever is first.
                    marks = [f.deadline for f in inflight.values()
                             if f.deadline is not None]
                    marks += [wake for wake, _ in retry_heap[:1]]
                    done, _ = wait(
                        set(inflight),
                        timeout=max(0.01, min(marks) - time.monotonic())
                        if marks else None,
                        return_when=FIRST_COMPLETED,
                    )
                    for future in done:
                        flight = inflight.pop(future)
                        try:
                            payload = future.result()
                        except BrokenProcessPool as error:
                            broken = "worker process died"
                            self._fail(
                                flight,
                                error if str(error) else "worker process died",
                                retry_heap, executor.inline,
                            )
                        except (KeyboardInterrupt, SystemExit):
                            raise
                        except BaseException as error:  # noqa: BLE001
                            self._fail(
                                flight, error, retry_heap, executor.inline
                            )
                        else:
                            outcome = (
                                payload if executor.inline
                                else Outcome.from_dict(payload)
                            )
                            outcomes[flight.fp] = outcome
                            if on_result is not None:
                                on_result(flight.spec, outcome)
                            journal.spec_event(
                                "finished", flight.fp, cached=False
                            )
                elif retry_heap and broken is None:
                    time.sleep(max(0.0, retry_heap[0][0] - time.monotonic()))
                # Hung-worker detection: anything past its deadline is
                # charged a (timeout) attempt; everything else in flight
                # is requeued uncharged by the recycle, because recycling
                # the pool is the only way to kill the hung worker.
                now = time.monotonic()
                overdue = [] if broken is not None else [
                    future for future, flight in inflight.items()
                    if flight.deadline is not None and now >= flight.deadline
                ]
                for future in overdue:
                    self._fail(
                        inflight.pop(future),
                        f"timed out after {policy.timeout_s:g}s",
                        retry_heap, executor.inline, timeout=True,
                    )
                    broken = "hung worker"
                if broken is not None:
                    executor = self._recycle(
                        executor, inflight, pending, retry_heap, broken
                    )
        finally:
            executor.shutdown()
        return outcomes, batch.quarantined, batch.stats

    def _quarantine(self, fp: str, reason: str) -> None:
        failures = self.journal.state.batches[-1].failures
        self.journal.spec_event(
            "quarantined", fp, attempts=failures.get(fp, 0), error=reason
        )

    def _fail(
        self,
        flight: _Flight,
        error: Union[str, BaseException],
        retry_heap: List[Tuple[float, str]],
        inline: bool,
        timeout: bool = False,
    ) -> None:
        """Book one failed attempt, then schedule its retry or quarantine
        it.  Strict policies raise: in-process the original error, from a
        worker a :class:`SimulationError` naming the spec."""
        fp, attempt, message = flight.fp, flight.attempt, str(error)
        reason = "timeout" if timeout else "error"
        self.journal.spec_event(
            "failed", fp, attempt=attempt, reason=reason, error=message
        )
        if self.policy.raise_on_failure:
            if inline and isinstance(error, BaseException):
                raise error
            raised = SimulationError(
                f"worker failed on spec {flight.spec.label} "
                f"({fp[:12]}): {message}"
            )
            if isinstance(error, BaseException):
                raise raised from error
            raise raised
        if attempt >= self.policy.max_attempts:
            self._quarantine(fp, message)
            return
        backoff = self.policy.backoff_s(fp, attempt)
        self.journal.spec_event(
            "retry", fp, attempt=attempt, backoff_s=round(backoff, 4),
            reason=reason,
        )
        heapq.heappush(retry_heap, (time.monotonic() + backoff, fp))

    def _recycle(
        self,
        executor: Executor,
        inflight: Dict[Future, _Flight],
        pending: List[Tuple[str, RunSpec]],
        retry_heap: List[Tuple[float, str]],
        reason: str,
    ) -> Executor:
        """Kill the pool and requeue its survivors (uncharged); build a
        new one, or past the recycle budget fall back to in-process."""
        pending.extend((flight.fp, flight.spec) for flight in inflight.values())
        inflight.clear()
        executor.shutdown()
        self.journal.append({"t": "pool_recycle", "reason": reason})
        stats = self.journal.state.batches[-1].stats
        if stats.pool_recycles < self.policy.max_pool_recycles:
            return PoolExecutor(self.jobs_effective)
        remaining = {fp for fp, _ in pending} | {fp for _, fp in retry_heap}
        self.journal.append(
            {"t": "serial_fallback", "remaining": len(remaining)}
        )
        return InProcessExecutor()
