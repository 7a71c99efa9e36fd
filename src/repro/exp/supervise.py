"""Supervised spec execution: fan-out, timeouts, retries, quarantine.

The simulations of a sweep are independent, deterministic, and
CPU-bound, which makes them ideal :mod:`concurrent.futures` fan-out
material.  :class:`SupervisedRunner` marshals each unique
:class:`~repro.exp.spec.RunSpec` to a worker as its canonical key dict,
executes it there from the declarative fields alone (so the result
depends on nothing but the spec), and marshals the outcome back as its
:meth:`~repro.exp.spec.Outcome.as_dict` view — both directions are
plain dicts of primitives, so the parallel results are value-identical
to a serial run.  ``jobs=1`` never touches a process pool: it calls
:meth:`RunSpec.execute` in-process.  Unique specs are submitted
heaviest-first (a static per-workload weight table — longest-processing-
time order keeps the pool's tail short) and in-flight work is bounded to
``2 × jobs`` futures, so a huge grid neither floods the executor queue
nor idles workers between waves.

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
  fingerprint, attempt)`` — the same shape as the simulated machine's
  :class:`~repro.faults.injector.RetryPolicy`, but on host time.  After
  ``max_attempts`` failures the spec is **quarantined**: it gets no
  outcome, the rest of the grid proceeds, and the batch reports it.
* **A dying pool** — after ``max_pool_recycles`` recycles the supervisor
  stops trusting multiprocessing entirely and drains the remaining
  specs serially in-process (the same fallback used up front when the
  host has fewer cores than requested jobs — fan-out on a starved host
  is strictly slower than the serial loop).

Harness-chaos plans (:mod:`repro.faults.harness`) hook in at two points:
worker actions (kill/hang) are decided per ``(fingerprint, attempt)`` at
submission and executed by the worker itself, and are therefore exactly
as deterministic as the supervision they exercise.

``SupervisorPolicy.strict()`` is the fail-fast contract — one attempt,
first failure raises — that :func:`~repro.exp.batch.run_batch` defaults
to.
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
from typing import (
    TYPE_CHECKING,
    Callable,
    Dict,
    List,
    Mapping,
    Optional,
    Sequence,
    Tuple,
    Union,
)

from repro.errors import ConfigurationError, SimulationError
from repro.exp.spec import Outcome, RunSpec
from repro.faults.harness import HarnessChaosError, HarnessChaosPlan

if TYPE_CHECKING:
    from repro.exp.journal import BatchJournal
    from repro.obs.events import EventBus

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
    #: Extra backoff fraction drawn deterministically in [0, jitter).
    backoff_jitter: float = 0.25
    #: Seed for the deterministic backoff jitter.
    seed: int = 0
    #: Pool recycles tolerated before falling back to serial execution.
    max_pool_recycles: int = 3
    #: Clamp jobs to the host's cores, and degrade to in-process serial
    #: execution when the pool keeps dying.
    auto_serial: bool = True
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
        return base * (1.0 + self.backoff_jitter * draw)

    @classmethod
    def strict(cls, auto_serial: bool = True) -> "SupervisorPolicy":
        """The fail-fast contract: one attempt, failures raise."""
        return cls(
            max_attempts=1,
            raise_on_failure=True,
            backoff_base_s=0.0,
            auto_serial=auto_serial,
        )


@dataclass
class SuperviseStats:
    """What the supervision layer did for one batch."""

    #: Failed attempts that were retried (after backoff).
    retries: int = 0
    #: Retries caused specifically by per-spec timeouts.
    timeouts: int = 0
    #: Specs abandoned after exhausting their attempts.
    quarantined: int = 0
    #: Process pools torn down and rebuilt (hang or crash).
    pool_recycles: int = 0
    #: Times the supervisor gave up on multiprocessing mid-batch.
    serial_fallbacks: int = 0
    #: Specs that produced a fresh outcome.
    executed: int = 0

    def as_dict(self) -> Dict[str, int]:
        """Flat view for summaries and the journal."""
        return {
            "retries": self.retries,
            "timeouts": self.timeouts,
            "quarantined": self.quarantined,
            "pool_recycles": self.pool_recycles,
            "serial_fallbacks": self.serial_fallbacks,
            "executed": self.executed,
        }


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


class SupervisedRunner:
    """Run unique specs under a :class:`SupervisorPolicy`.

    The input is the deduplicated ``(fingerprint, spec)`` list; the
    output is ``(outcomes, quarantined, stats)``.  Alignment with a
    caller's duplicate-bearing spec list is the caller's job (see
    :func:`~repro.exp.batch.run_batch`).
    """

    def __init__(
        self,
        jobs: int = 1,
        policy: Optional[SupervisorPolicy] = None,
        journal: Optional["BatchJournal"] = None,
        bus: Optional["EventBus"] = None,
        prior_failures: Optional[Mapping[str, int]] = None,
    ) -> None:
        if jobs < 1:
            raise SimulationError(f"jobs must be >= 1, got {jobs}")
        self.policy = policy if policy is not None else SupervisorPolicy()
        self.jobs = jobs
        if self.policy.auto_serial:
            # Fan-out on a starved host loses to the serial loop on
            # marshalling overhead alone; never run more workers than
            # cores.
            self.jobs_effective = max(1, min(jobs, os.cpu_count() or 1))
        else:
            self.jobs_effective = jobs
        self._window = MAX_INFLIGHT_FACTOR * self.jobs_effective
        self._journal = journal
        self._bus = bus
        self.stats = SuperviseStats()
        #: Failed attempts per fingerprint (seeded from a resumed
        #: journal so quarantine budgets survive a crash).
        self._attempts: Dict[str, int] = dict(prior_failures or {})

    # -- shared bookkeeping --------------------------------------------------

    def _journal_event(self, record: Dict[str, object]) -> None:
        if self._journal is not None:
            self._journal.append(record)

    def _journal_spec(self, t: str, fp: str, **extra: object) -> None:
        if self._journal is not None:
            self._journal.spec_event(t, fp, **extra)

    def _chaos_action(
        self, fp: str, attempt: int
    ) -> Optional[Dict[str, object]]:
        if self.policy.chaos is None:
            return None
        return self.policy.chaos.worker_action(fp, attempt)

    def _quarantine(self, fp: str, spec: RunSpec, reason: str) -> None:
        attempts = self._attempts.get(fp, 0)
        self.stats.quarantined += 1
        self._journal_spec(
            "quarantined", fp, attempts=attempts, error=reason
        )
        if self._bus is not None:
            self._bus.emit_spec_quarantined(fp, spec.label, attempts, reason)

    def _note_failure(
        self,
        fp: str,
        spec: RunSpec,
        error: Union[str, BaseException],
        quarantined: Dict[str, str],
        serial: bool,
        timeout: bool = False,
    ) -> Optional[float]:
        """Book one failed attempt; returns the retry backoff, or None
        when the spec is quarantined instead.  Strict policies raise."""
        attempt = self._attempts.get(fp, 0) + 1
        self._attempts[fp] = attempt
        message = str(error)
        reason = "timeout" if timeout else "error"
        if timeout:
            self.stats.timeouts += 1
        self._journal_spec(
            "failed", fp, attempt=attempt, reason=reason, error=message
        )
        if self.policy.raise_on_failure:
            if serial and isinstance(error, BaseException):
                raise error
            raised = SimulationError(
                f"worker failed on spec {spec.label} "
                f"({fp[:12]}): {message}"
            )
            if isinstance(error, BaseException):
                raise raised from error
            raise raised
        if attempt >= self.policy.max_attempts:
            quarantined[fp] = message
            self._quarantine(fp, spec, message)
            return None
        backoff = self.policy.backoff_s(fp, attempt)
        self.stats.retries += 1
        self._journal_spec(
            "retry", fp, attempt=attempt, backoff_s=round(backoff, 4),
            reason=reason,
        )
        if self._bus is not None:
            self._bus.emit_spec_retry(
                fp, spec.label, attempt, backoff, reason
            )
        return backoff

    # -- entry point ---------------------------------------------------------

    def run(
        self,
        todo: Sequence[Tuple[str, RunSpec]],
        on_result: Optional[Callable[[RunSpec, Outcome], None]] = None,
    ) -> Tuple[Dict[str, Outcome], Dict[str, str], SuperviseStats]:
        """Execute unique ``(fingerprint, spec)`` pairs, heaviest first."""
        outcomes: Dict[str, Outcome] = {}
        quarantined: Dict[str, str] = {}
        ordered = sorted(
            todo, key=lambda item: (-spec_weight(item[1]), item[0])
        )
        # Specs that already exhausted their budget in a previous run
        # (journal replay) stay quarantined — a poison spec must not
        # sink every resume attempt too.
        runnable: List[Tuple[str, RunSpec]] = []
        for fp, spec in ordered:
            if (
                not self.policy.raise_on_failure
                and self._attempts.get(fp, 0) >= self.policy.max_attempts
            ):
                quarantined[fp] = "quarantined in a previous run"
                self._quarantine(fp, spec, "quarantined in a previous run")
            else:
                runnable.append((fp, spec))
        callback = on_result if on_result is not None else (lambda s, o: None)
        if self.jobs_effective == 1:
            self._run_serial(runnable, outcomes, callback, quarantined)
        else:
            self._run_pool(runnable, outcomes, callback, quarantined)
        self.stats.executed = len(outcomes)
        return outcomes, quarantined, self.stats

    # -- serial path ---------------------------------------------------------

    def _run_serial(
        self,
        todo: Sequence[Tuple[str, RunSpec]],
        outcomes: Dict[str, Outcome],
        on_result: Callable[[RunSpec, Outcome], None],
        quarantined: Dict[str, str],
    ) -> None:
        """In-process execution with the same retry/quarantine envelope.

        Chaos worker actions cannot kill the orchestrator, so in serial
        mode they surface as :class:`HarnessChaosError` failures — the
        retry path is exercised identically, deterministically.
        """
        for fp, spec in todo:
            while True:
                attempt = self._attempts.get(fp, 0) + 1
                self._journal_spec("submitted", fp, attempt=attempt)
                action = self._chaos_action(fp, attempt)
                try:
                    if action is not None:
                        kind = "killed" if action.get("kill") else "hung"
                        raise HarnessChaosError(
                            f"harness chaos: worker {kind} (serial)"
                        )
                    outcome = spec.execute()
                except (KeyboardInterrupt, SystemExit):
                    raise
                except BaseException as error:  # noqa: BLE001 - supervised
                    backoff = self._note_failure(
                        fp, spec, error, quarantined, serial=True
                    )
                    if backoff is None:
                        break
                    if backoff > 0.0:
                        time.sleep(backoff)
                    continue
                outcomes[fp] = outcome
                on_result(spec, outcome)
                break

    # -- pool path -----------------------------------------------------------

    def _new_pool(self) -> ProcessPoolExecutor:
        return ProcessPoolExecutor(
            max_workers=self.jobs_effective, initializer=warm_worker
        )

    @staticmethod
    def _shutdown_pool(pool: Optional[ProcessPoolExecutor]) -> None:
        """Tear a pool down without waiting for hung or dead workers."""
        if pool is None:
            return
        procs = list((getattr(pool, "_processes", None) or {}).values())
        try:
            pool.shutdown(wait=False, cancel_futures=True)
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

    def _recycle(
        self,
        pool: ProcessPoolExecutor,
        inflight: Dict[Future, _Flight],
        pending: List[Tuple[str, RunSpec]],
        reason: str,
    ) -> ProcessPoolExecutor:
        """Kill the pool, requeue survivors (uncharged), build a new one."""
        for flight in inflight.values():
            pending.append((flight.fp, flight.spec))
        inflight.clear()
        self._shutdown_pool(pool)
        self.stats.pool_recycles += 1
        self._journal_event({"t": "pool_recycle", "reason": reason})
        return self._new_pool()

    def _give_up_on_pool(self) -> bool:
        return (
            self.policy.auto_serial
            and self.stats.pool_recycles >= self.policy.max_pool_recycles
        )

    def _wake_in(
        self,
        inflight: Dict[Future, _Flight],
        retry_heap: List[Tuple[float, str]],
    ) -> Optional[float]:
        """Seconds until the next deadline or retry wake (None = block)."""
        marks = [
            flight.deadline
            for flight in inflight.values()
            if flight.deadline is not None
        ]
        if retry_heap:
            marks.append(retry_heap[0][0])
        if not marks:
            return None
        return max(0.01, min(marks) - time.monotonic())

    def _run_pool(
        self,
        todo: Sequence[Tuple[str, RunSpec]],
        outcomes: Dict[str, Outcome],
        on_result: Callable[[RunSpec, Outcome], None],
        quarantined: Dict[str, str],
    ) -> None:
        spec_by_fp = {fp: spec for fp, spec in todo}
        pending: List[Tuple[str, RunSpec]] = list(reversed(list(todo)))
        retry_heap: List[Tuple[float, str]] = []  # (wake time, fingerprint)
        inflight: Dict[Future, _Flight] = {}
        pool = self._new_pool()
        try:
            while pending or inflight or retry_heap:
                now = time.monotonic()
                while retry_heap and retry_heap[0][0] <= now:
                    _, fp = heapq.heappop(retry_heap)
                    pending.append((fp, spec_by_fp[fp]))
                submit_broke = False
                while pending and len(inflight) < self._window:
                    fp, spec = pending.pop()
                    attempt = self._attempts.get(fp, 0) + 1
                    action = self._chaos_action(fp, attempt)
                    self._journal_spec("submitted", fp, attempt=attempt)
                    deadline = (
                        time.monotonic() + self.policy.timeout_s
                        if self.policy.timeout_s is not None
                        else None
                    )
                    try:
                        future = pool.submit(
                            execute_supervised, spec.key(), action
                        )
                    except BrokenProcessPool:
                        # The pool died between waits; the flights that
                        # broke it are in `inflight` with exceptions set
                        # and will be charged below.
                        pending.append((fp, spec))
                        submit_broke = True
                        break
                    inflight[future] = _Flight(fp, spec, attempt, deadline)
                if submit_broke and not inflight:
                    pool = self._recycle(
                        pool, inflight, pending, "pool broken at submit"
                    )
                    if self._give_up_on_pool():
                        self._fall_back_serial(
                            pending, retry_heap, spec_by_fp, outcomes,
                            on_result, quarantined,
                        )
                        return
                    continue
                if not inflight:
                    if retry_heap:
                        time.sleep(
                            max(0.0, retry_heap[0][0] - time.monotonic())
                        )
                    continue
                done, _ = wait(
                    set(inflight),
                    timeout=self._wake_in(inflight, retry_heap),
                    return_when=FIRST_COMPLETED,
                )
                pool_died = False
                for future in done:
                    flight = inflight.pop(future)
                    try:
                        payload = future.result()
                    except BrokenProcessPool as error:
                        pool_died = True
                        self._fail_flight(
                            flight,
                            error if str(error) else "worker process died",
                            retry_heap, quarantined,
                        )
                    except (KeyboardInterrupt, SystemExit):
                        raise
                    except BaseException as error:  # noqa: BLE001
                        self._fail_flight(
                            flight, error, retry_heap, quarantined
                        )
                    else:
                        outcome = Outcome.from_dict(payload)
                        outcomes[flight.fp] = outcome
                        on_result(flight.spec, outcome)
                if pool_died:
                    pool = self._recycle(
                        pool, inflight, pending, "worker process died"
                    )
                    if self._give_up_on_pool():
                        self._fall_back_serial(
                            pending, retry_heap, spec_by_fp, outcomes,
                            on_result, quarantined,
                        )
                        return
                    continue
                # Hung-worker detection: anything past its deadline is
                # charged a (timeout) attempt; everything else in flight
                # is requeued uncharged, because recycling the pool is
                # the only way to kill the hung worker.
                now = time.monotonic()
                overdue = [
                    (future, flight)
                    for future, flight in inflight.items()
                    if flight.deadline is not None and now >= flight.deadline
                ]
                if overdue:
                    for future, flight in overdue:
                        del inflight[future]
                        self._fail_flight(
                            flight,
                            f"timed out after {self.policy.timeout_s:g}s",
                            retry_heap, quarantined, timeout=True,
                        )
                    pool = self._recycle(
                        pool, inflight, pending, "hung worker"
                    )
                    if self._give_up_on_pool():
                        self._fall_back_serial(
                            pending, retry_heap, spec_by_fp, outcomes,
                            on_result, quarantined,
                        )
                        return
        finally:
            self._shutdown_pool(pool)

    def _fail_flight(
        self,
        flight: _Flight,
        error: Union[str, BaseException],
        retry_heap: List[Tuple[float, str]],
        quarantined: Dict[str, str],
        timeout: bool = False,
    ) -> None:
        backoff = self._note_failure(
            flight.fp, flight.spec, error, quarantined,
            serial=False, timeout=timeout,
        )
        if backoff is not None:
            heapq.heappush(
                retry_heap, (time.monotonic() + backoff, flight.fp)
            )

    def _fall_back_serial(
        self,
        pending: List[Tuple[str, RunSpec]],
        retry_heap: List[Tuple[float, str]],
        spec_by_fp: Dict[str, RunSpec],
        outcomes: Dict[str, Outcome],
        on_result: Callable[[RunSpec, Outcome], None],
        quarantined: Dict[str, str],
    ) -> None:
        """The pool keeps dying: drain the rest in-process.

        Everything not yet finished or quarantined — queued, backing
        off, or requeued by the last recycle — runs on the serial path,
        which retries and quarantines identically but cannot lose a
        worker.
        """
        self.stats.serial_fallbacks += 1
        remainder: Dict[str, RunSpec] = {}
        for fp, spec in pending:
            remainder.setdefault(fp, spec)
        for _, fp in retry_heap:
            remainder.setdefault(fp, spec_by_fp[fp])
        pending.clear()
        retry_heap.clear()
        self._journal_event(
            {"t": "serial_fallback", "remaining": len(remainder)}
        )
        self._run_serial(
            sorted(remainder.items()), outcomes, on_result, quarantined
        )
