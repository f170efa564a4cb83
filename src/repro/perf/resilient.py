"""Crash-resilient sweep execution: timeouts, retry, pool recovery.

:func:`repro.perf.sweep.run_sweep` used to collect worker results with
a blocking ``list(pool.map(...))`` — one segfault, OOM kill, hang, or
exception destroyed every completed point, and nothing reached the
result cache until the whole sweep returned.  This module is the
replacement dispatch layer, applying the same discipline the simulated
D2D links already get (CRC + bounded retry + watchdog) to the machinery
that runs the simulations:

- **submit / as-completed dispatch** — every point's result is handed
  to its completion callback (cache write, journal append) the moment
  it finishes, so an interrupted sweep keeps everything it computed;
- **per-point wall-clock timeout** — a point that exceeds ``timeout_s``
  is charged a failed attempt; if its worker is genuinely hung the pool
  is recycled (hung workers are terminated) and innocent in-flight
  points are re-dispatched without an attempt charge;
- **bounded retry with deterministically-jittered exponential
  backoff** — a failed attempt re-runs with the point's original
  index-derived seed, so a retried success is byte-identical to a
  first-try success; the backoff jitter is a pure function of
  ``(point index, attempt)``, never of wall clock or pid;
- **BrokenProcessPool recovery** — when a worker death kills the pool,
  the pool is respawned and every in-flight point is re-dispatched,
  *solo*, so blame can be attributed: a point in flight for
  :data:`POISON_POOL_KILLS` pool deaths is quarantined as poisoned
  (it reproducibly kills workers) instead of taking the sweep down
  forever;
- **structured failure records** — a terminally-failed point yields a
  :func:`repro.perf.outcomes.failure_record` in the results instead of
  raising, and every retry/timeout/restart/quarantine increments a
  :class:`SweepHealth` counter so partial results are always loud.

The ``workers <= 1`` in-process path applies the identical retry policy
(it is the semantics oracle the parallel path is tested against) but
cannot enforce timeouts or survive ``os._exit`` — wall-clock
enforcement requires a worker process to kill.

Chaos injection for tests and CI: setting ``REPRO_SWEEP_CHAOS`` makes
the worker-side trampoline inject failures *before* the real worker
function runs — ``crash-once`` / ``exit-once`` / ``hang-once`` fail
each point's first attempt only (tracked via marker files under
``REPRO_SWEEP_CHAOS_DIR``), ``crash-always`` fails every attempt.
Both variables are read in the parent when the sweep is dispatched and
travel in each job's payload, so injection works under every
multiprocessing start method.  Because the injection happens before
any simulation work, a retried point still produces its exact
deterministic result.
"""

from __future__ import annotations

import heapq
import os
import signal
import threading
import time
import traceback
from collections import deque
from concurrent.futures import (
    FIRST_COMPLETED,
    BrokenExecutor,
    ProcessPoolExecutor,
    wait,
)
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

from repro.perf.outcomes import KIND_POISONED, KIND_TIMEOUT, failure_record
from repro.sim.rng import make_rng, split_rng

#: A point *attributably* killing the pool this many times is
#: quarantined as poisoned.  A kill is attributable only when the point
#: was alone in flight (its solo probe after a group death, or a
#: single-worker dispatch); a group death makes every in-flight point a
#: suspect to be probed solo, but charges nobody — innocent bystanders
#: of someone else's segfault must not accumulate blame.
POISON_POOL_KILLS = 2

#: Environment variable selecting a chaos-injection mode (tests/CI).
CHAOS_ENV = "REPRO_SWEEP_CHAOS"
#: Marker-file directory for the ``*-once`` chaos modes; must be set
#: (and writable by workers) when one of those modes is active.
CHAOS_DIR_ENV = "REPRO_SWEEP_CHAOS_DIR"

#: Lines of worker traceback kept in a failure record.
_TRACEBACK_TAIL_LINES = 12


class ChaosCrash(RuntimeError):
    """Injected worker crash (``REPRO_SWEEP_CHAOS`` modes)."""


def _maybe_chaos(index: int, chaos: Tuple[str, Optional[str]]) -> None:
    """Inject the configured failure for this attempt (worker side)."""
    mode, marker_dir = chaos
    if not mode:
        return
    if mode == "crash-always":
        raise ChaosCrash(f"chaos crash-always: point index {index}")
    if mode in ("crash-once", "exit-once", "hang-once"):
        if not marker_dir:
            raise RuntimeError(
                f"{CHAOS_ENV}={mode} requires {CHAOS_DIR_ENV} to point "
                "at a writable marker directory")
        marker = os.path.join(marker_dir, f"chaos-{index}")
        if os.path.exists(marker):
            return  # already failed this point once; let it succeed
        with open(marker, "w", encoding="utf-8") as fh:
            fh.write(mode)
        if mode == "crash-once":
            raise ChaosCrash(f"chaos crash-once: point index {index}")
        if mode == "exit-once":
            os._exit(13)  # simulated segfault: kills the pool
        time.sleep(600)  # hang-once: trip the wall-clock timeout


def invoke_job(payload: Any) -> Any:
    """Picklable worker-side trampoline for one dispatch attempt."""
    fn, point, seed, index, chaos = payload
    _maybe_chaos(index, chaos)
    return fn(point, seed)


def _worker_init() -> None:
    """Pool-child initializer: detach from the parent's signal plumbing.

    Forked workers inherit the parent's handlers, including the
    SIGTERM-to-KeyboardInterrupt mapping from
    :func:`graceful_shutdown_signals`; left in place, terminating a
    hung worker raises a spurious KeyboardInterrupt inside the child's
    queue wait.  Workers take SIGTERM at face value and ignore SIGINT —
    Ctrl-C interrupts the parent, which then tears the pool down
    deliberately.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with deterministically-jittered exponential backoff.

    ``max_attempts`` counts every dispatch (first try included), so
    ``max_attempts=1`` disables retry.  The backoff before attempt
    ``n+1`` is ``backoff_base_s * 2**(n-1)`` capped at
    ``backoff_cap_s``, scaled by a jitter factor drawn from a stream
    that is a pure function of ``(point index, attempt)`` — two runs of
    the same sweep back off identically, and two points retrying at
    once do not stampede in phase.
    """

    max_attempts: int = 3
    backoff_base_s: float = 0.05
    backoff_cap_s: float = 2.0
    jitter: float = 0.5

    def delay_s(self, index: int, attempt: int) -> float:
        """Backoff before re-dispatching ``index`` after ``attempt``."""
        base = min(self.backoff_base_s * (2 ** max(attempt - 1, 0)),
                   self.backoff_cap_s)
        if self.jitter <= 0:
            return base
        draw = split_rng(make_rng(index), attempt).random()
        return base * (1.0 + self.jitter * (2.0 * draw - 1.0))


@dataclass
class SweepHealth:
    """Counters for one sweep run; the substance of the health report.

    ``points`` is the sweep size; ``computed + cached + resumed +
    skipped + failed == points`` once the sweep returns.  The remaining
    counters record *how* the run got there: ``retries`` (re-dispatched
    attempts), ``timeouts`` (attempts over the wall-clock budget),
    ``pool_restarts`` (worker pools respawned after a crash or hang),
    and ``quarantined`` (points convicted of killing the pool).
    """

    points: int = 0
    computed: int = 0
    cached: int = 0
    resumed: int = 0
    skipped: int = 0
    failed: int = 0
    retries: int = 0
    timeouts: int = 0
    pool_restarts: int = 0
    quarantined: int = 0

    def as_dict(self) -> Dict[str, int]:
        return {
            "points": self.points,
            "computed": self.computed,
            "cached": self.cached,
            "resumed": self.resumed,
            "skipped": self.skipped,
            "failed": self.failed,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "pool_restarts": self.pool_restarts,
            "quarantined": self.quarantined,
        }


def format_health(health: SweepHealth) -> str:
    """One-line terminal rendering of a sweep health report."""
    failed = f"{health.failed} FAILED" if health.failed else "0 failed"
    line = (f"sweep health: {health.points} point(s) — "
            f"{health.computed} computed, {health.cached} cached, "
            f"{health.resumed} resumed, {health.skipped} skipped, "
            f"{failed}")
    extras = []
    if health.retries:
        extras.append(f"{health.retries} retr"
                      f"{'y' if health.retries == 1 else 'ies'}")
    if health.timeouts:
        extras.append(f"{health.timeouts} timeout(s)")
    if health.pool_restarts:
        extras.append(f"{health.pool_restarts} pool restart(s)")
    if health.quarantined:
        extras.append(f"{health.quarantined} quarantined")
    if extras:
        line += "; " + ", ".join(extras)
    return line


@contextmanager
def graceful_shutdown_signals() -> Iterator[None]:
    """Convert SIGTERM into KeyboardInterrupt for a clean checkpoint.

    SIGINT already raises KeyboardInterrupt; with SIGTERM mapped onto
    the same path, both signals unwind through the dispatcher's
    cleanup (worker pools terminated, journal closed with every
    completed point on disk) instead of killing the process mid-write.
    No-op off the main thread, where signal handlers cannot be set.
    """
    if threading.current_thread() is not threading.main_thread():
        yield
        return

    def _handler(signum: int, frame: Any) -> None:
        raise KeyboardInterrupt(f"signal {signum}")

    previous = signal.signal(signal.SIGTERM, _handler)
    try:
        yield
    finally:
        signal.signal(signal.SIGTERM, previous)


@dataclass
class Job:
    """One dispatchable sweep point, with its retry/blame bookkeeping."""

    index: int
    point: Any
    seed: int
    attempts: int = 0
    pool_kills: int = 0
    started: float = field(default=0.0, repr=False)

    def elapsed(self) -> float:
        return time.monotonic() - self.started if self.started else 0.0


def _traceback_tail(exc: BaseException) -> str:
    lines = traceback.format_exception(type(exc), exc, exc.__traceback__)
    text = "".join(lines).rstrip().splitlines()
    return "\n".join(text[-_TRACEBACK_TAIL_LINES:])


def _kill_pool(pool: ProcessPoolExecutor) -> None:
    """Tear a pool down hard: cancel queued work, terminate children.

    ``shutdown(wait=False)`` alone leaves a hung worker alive (and the
    interpreter waiting on it at exit); terminating the processes is
    the only way to reclaim a wedged slot.  ``_processes`` is private
    API (and ``shutdown`` nulls it out), so snapshot the children
    first and fail soft if the attribute moves.
    """
    processes = dict(getattr(pool, "_processes", None) or {})
    try:
        pool.shutdown(wait=False, cancel_futures=True)
    except TypeError:  # pragma: no cover - pre-3.9 signature
        pool.shutdown(wait=False)
    for proc in list(processes.values()):
        try:
            proc.terminate()
        except (OSError, ValueError):  # pragma: no cover - already dead
            pass


OnResult = Callable[[int, Any], None]


def execute_jobs(
    fn: Callable[[Any, int], Any],
    jobs: List[Job],
    workers: Optional[int] = None,
    timeout_s: Optional[float] = None,
    retry: Optional[RetryPolicy] = None,
    health: Optional[SweepHealth] = None,
    on_ok: Optional[OnResult] = None,
    on_failure: Optional[OnResult] = None,
) -> None:
    """Run every job to a terminal outcome; never raises for a job.

    ``on_ok(index, value)`` fires the moment a job succeeds (in
    completion order, not index order — persist, don't assume
    ordering); ``on_failure(index, record)`` fires with a structured
    :func:`~repro.perf.outcomes.failure_record` when a job exhausts its
    retry budget, times out terminally, or is quarantined.  Exactly one
    of the two callbacks fires per job.  KeyboardInterrupt (and the
    SIGTERM mapping from :func:`graceful_shutdown_signals`) propagates
    after the pool is torn down — completed callbacks have already
    fired, which is what makes an interrupted journaled sweep
    resumable.
    """
    retry = retry or RetryPolicy()
    health = health or SweepHealth()
    on_ok = on_ok or (lambda index, value: None)
    on_failure = on_failure or (lambda index, record: None)
    if not jobs:
        return
    # Chaos settings travel in the job payload: a forkserver or spawn
    # worker sees the environment of its server process, not the
    # parent's environment at dispatch time.
    chaos = (os.environ.get(CHAOS_ENV, ""), os.environ.get(CHAOS_DIR_ENV))
    if workers is None or workers <= 1:
        _run_serial(fn, jobs, retry, health, on_ok, on_failure, chaos)
    else:
        _run_pool(fn, jobs, workers, timeout_s, retry, health,
                  on_ok, on_failure, chaos)


def _run_serial(
    fn: Callable[[Any, int], Any],
    jobs: List[Job],
    retry: RetryPolicy,
    health: SweepHealth,
    on_ok: OnResult,
    on_failure: OnResult,
    chaos: Tuple[str, Optional[str]],
) -> None:
    """In-process oracle: same retry policy, no timeout enforcement."""
    for job in jobs:
        job.started = time.monotonic()
        while True:
            job.attempts += 1
            try:
                value = invoke_job(
                    (fn, job.point, job.seed, job.index, chaos))
            except KeyboardInterrupt:
                raise
            except Exception as exc:
                if job.attempts < retry.max_attempts:
                    health.retries += 1
                    time.sleep(retry.delay_s(job.index, job.attempts))
                    continue
                health.failed += 1
                on_failure(job.index, failure_record(
                    job.point, type(exc).__name__, job.attempts,
                    job.elapsed(), message=str(exc),
                    traceback_tail=_traceback_tail(exc)))
                break
            else:
                health.computed += 1
                on_ok(job.index, value)
                break


def _run_pool(
    fn: Callable[[Any, int], Any],
    jobs: List[Job],
    workers: int,
    timeout_s: Optional[float],
    retry: RetryPolicy,
    health: SweepHealth,
    on_ok: OnResult,
    on_failure: OnResult,
    chaos: Tuple[str, Optional[str]],
) -> None:
    waiting: deque = deque(jobs)
    delayed: List[Any] = []  # heap of (ready_time, seq, job) backoffs
    suspects: deque = deque()  # re-run solo after a pool death
    inflight: Dict[Any, Job] = {}
    deadlines: Dict[Any, float] = {}
    pool = ProcessPoolExecutor(max_workers=workers,
                               initializer=_worker_init)
    seq = 0

    def respawn() -> None:
        nonlocal pool
        _kill_pool(pool)
        pool = ProcessPoolExecutor(max_workers=workers,
                                   initializer=_worker_init)
        health.pool_restarts += 1

    def terminal_failure(job: Job, kind: str, message: str,
                         tail: str = "") -> None:
        health.failed += 1
        on_failure(job.index, failure_record(
            job.point, kind, job.attempts, job.elapsed(),
            message=message, traceback_tail=tail))

    def fail_or_retry(job: Job, kind: str, message: str,
                      tail: str = "") -> None:
        nonlocal seq
        if job.attempts < retry.max_attempts:
            health.retries += 1
            ready = time.monotonic() + retry.delay_s(job.index, job.attempts)
            seq += 1
            heapq.heappush(delayed, (ready, seq, job))
        else:
            terminal_failure(job, kind, message, tail)

    def submit(job: Job) -> None:
        job.attempts += 1
        if not job.started:
            job.started = time.monotonic()
        while True:
            try:
                future = pool.submit(
                    invoke_job, (fn, job.point, job.seed, job.index, chaos))
                break
            except (BrokenExecutor, RuntimeError):
                # The pool died between completions; recycle and retry
                # the submission itself (no attempt charge — the job
                # never started).
                respawn()
        inflight[future] = job
        if timeout_s is not None:
            deadlines[future] = time.monotonic() + timeout_s

    def handle_pool_death() -> None:
        """Blame attribution after a BrokenProcessPool.

        A kill is charged to a job only when the blame is unambiguous —
        the job was alone in flight.  A group death charges nobody but
        makes every in-flight job a suspect, to be re-run solo so the
        next death (if any) convicts exactly its cause.  A job whose
        attributable kill count reaches :data:`POISON_POOL_KILLS` is
        quarantined with a structured ``poisoned`` failure record.
        Suspects keep their attempt count (the died attempt is charged)
        but quarantine is its own verdict, not a retry exhaustion.
        """
        attributable = len(inflight) == 1
        for future, job in list(inflight.items()):
            if attributable:
                job.pool_kills += 1
            if job.pool_kills >= POISON_POOL_KILLS:
                health.quarantined += 1
                terminal_failure(
                    job, KIND_POISONED,
                    f"killed the worker pool {job.pool_kills} times "
                    "(simulated segfault/OOM); quarantined")
            else:
                suspects.append(job)
        inflight.clear()
        deadlines.clear()
        respawn()

    try:
        while waiting or delayed or suspects or inflight:
            now = time.monotonic()
            while delayed and delayed[0][0] <= now:
                _, _, job = heapq.heappop(delayed)
                waiting.append(job)
            if suspects:
                # Solo probe: one suspect at a time, nothing else in
                # flight, so a second pool death convicts exactly it.
                if not inflight:
                    submit(suspects.popleft())
            else:
                while waiting and len(inflight) < workers:
                    submit(waiting.popleft())
            if not inflight:
                if delayed:  # everything is backing off; sleep it out
                    time.sleep(max(0.0, delayed[0][0] - time.monotonic()))
                continue

            wake: Optional[float] = None
            if deadlines:
                wake = min(deadlines.values())
            if delayed:
                wake = delayed[0][0] if wake is None else min(
                    wake, delayed[0][0])
            wait_timeout = (None if wake is None
                            else max(0.0, wake - time.monotonic()))
            done, _ = wait(set(inflight), timeout=wait_timeout,
                           return_when=FIRST_COMPLETED)

            pool_died = False
            for future in done:
                job = inflight.pop(future, None)
                if job is None:
                    continue
                deadlines.pop(future, None)
                exc = future.exception()
                if exc is None:
                    health.computed += 1
                    job.pool_kills = 0  # exonerated
                    on_ok(job.index, future.result())
                elif isinstance(exc, BrokenExecutor):
                    # Park the job back in flight so handle_pool_death
                    # sees every victim of this crash at once.
                    inflight[future] = job
                    pool_died = True
                else:
                    fail_or_retry(job, type(exc).__name__, str(exc),
                                  _traceback_tail(exc))
            if pool_died:
                handle_pool_death()
                continue

            if deadlines:
                now = time.monotonic()
                expired = [f for f, deadline in deadlines.items()
                           if deadline <= now]
                hung = False
                for future in expired:
                    job = inflight.pop(future)
                    deadlines.pop(future)
                    health.timeouts += 1
                    if not future.cancel():
                        hung = True  # running => that worker is stuck
                    fail_or_retry(
                        job, KIND_TIMEOUT,
                        f"exceeded the {timeout_s:g}s per-point "
                        "wall-clock budget")
                if hung:
                    # The hung worker must die; recycle the pool and
                    # re-dispatch the innocent bystanders for free.
                    for future, job in list(inflight.items()):
                        job.attempts -= 1
                        waiting.append(job)
                    inflight.clear()
                    deadlines.clear()
                    respawn()
    except BaseException:
        # KeyboardInterrupt / SIGTERM / unexpected dispatcher error:
        # checkpoint semantics — everything completed has already hit
        # its callback; tear the pool down hard and unwind.
        _kill_pool(pool)
        raise
    else:
        pool.shutdown(wait=True)
