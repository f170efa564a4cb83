"""Crash paths of the resilient sweep dispatcher must be deterministic.

The contract under test: no matter what a worker does — raise, exit,
hang, or kill the whole pool — a sweep either delivers the exact result
an undisturbed run would have produced (retries reuse the original
index-derived seed) or a structured failure record, and a journaled run
interrupted at ANY point resumes to the byte-identical result list.

Chaos is injected via the worker-side trampoline
(``REPRO_SWEEP_CHAOS``), which fires *before* the real worker function
runs, so a retried point still computes its untainted deterministic
value.
"""

import json
import multiprocessing
import multiprocessing.forkserver
import os
import signal
import subprocess
import sys
import tempfile
import textwrap
import time

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.perf import resilient
from repro.perf.journal import SweepJournal, SweepJournalMismatch
from repro.perf.outcomes import KIND_POISONED, KIND_TIMEOUT, is_failed
from repro.perf.resilient import RetryPolicy, SweepHealth
from repro.perf.sweep import SweepPoint, point_seed, run_sweep
from repro.sim.rng import make_rng

POINTS = [SweepPoint.make(f"p{i}", scale=i) for i in range(6)]

#: Small backoffs so retry-heavy tests stay fast; max_attempts matches
#: the RetryPolicy default.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base_s=0.01,
                         backoff_cap_s=0.02)


def echo_worker(point, seed):
    """Module-level (picklable) worker: pure function of (point, seed)."""
    rng = make_rng(seed)
    return {"name": point.name, "params": point.as_dict(),
            "draw": rng.randrange(10 ** 9)}


def exit_on_p2(point, seed):
    """Poison worker: point p2 reproducibly kills its worker process."""
    if point.name == "p2":
        os._exit(41)
    return echo_worker(point, seed)


def hang_on_p1(point, seed):
    """Hang worker: point p1 never returns (trips the timeout path)."""
    if point.name == "p1":
        time.sleep(600)
    return echo_worker(point, seed)


def baseline():
    """The undisturbed serial result list every chaos run must match."""
    return run_sweep(echo_worker, POINTS, base_seed=5, workers=1)


def chaos(monkeypatch, tmp_path, mode):
    monkeypatch.setenv(resilient.CHAOS_ENV, mode)
    monkeypatch.setenv(resilient.CHAOS_DIR_ENV, str(tmp_path))


# -- retry policy ----------------------------------------------------------


def test_retry_delay_is_pure_and_bounded():
    policy = RetryPolicy(max_attempts=3, backoff_base_s=0.1,
                         backoff_cap_s=1.0, jitter=0.5)
    for index in range(4):
        for attempt in (1, 2, 3):
            delay = policy.delay_s(index, attempt)
            assert delay == policy.delay_s(index, attempt)  # pure
            base = min(0.1 * 2 ** (attempt - 1), 1.0)
            assert base * 0.5 <= delay <= base * 1.5
    # Jitter streams differ per point, so retries do not stampede.
    assert policy.delay_s(0, 1) != policy.delay_s(1, 1)
    assert RetryPolicy(jitter=0.0).delay_s(7, 1) == 0.05


# -- crash-once: retry determinism -----------------------------------------


def test_crash_once_retries_to_baseline(monkeypatch, tmp_path):
    """Every point's first attempt raises; retries are byte-identical."""
    expected = baseline()
    chaos(monkeypatch, tmp_path, "crash-once")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                        retry=FAST_RETRY, health=health)
    assert results == expected
    assert health.retries == len(POINTS)
    assert health.computed == len(POINTS)
    assert health.failed == 0
    assert (health.computed + health.cached + health.resumed +
            health.skipped + health.failed) == health.points


def test_crash_once_serial_oracle_matches(monkeypatch, tmp_path):
    """The in-process path applies the identical retry policy."""
    expected = baseline()
    chaos(monkeypatch, tmp_path, "crash-once")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=1,
                        retry=FAST_RETRY, health=health)
    assert results == expected
    assert health.retries == len(POINTS)


@pytest.fixture
def forkserver_start_method():
    """Run the test's pools under ``forkserver``, then restore the default.

    The fork server is started here, before the test sets any chaos
    variable, so its workers can only learn about chaos from the job
    payload, never from an environment inherited at server start.
    """
    if "forkserver" not in multiprocessing.get_all_start_methods():
        pytest.skip("forkserver start method unavailable")
    previous = multiprocessing.get_start_method(allow_none=True)
    multiprocessing.set_start_method("forkserver", force=True)
    multiprocessing.forkserver.ensure_running()
    try:
        yield
    finally:
        multiprocessing.set_start_method(previous, force=True)


def test_crash_once_retries_under_forkserver(monkeypatch, tmp_path,
                                             forkserver_start_method):
    """Chaos set after the fork server started still reaches the workers."""
    expected = baseline()
    chaos(monkeypatch, tmp_path, "crash-once")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                        retry=FAST_RETRY, health=health)
    assert results == expected
    assert health.retries == len(POINTS)
    assert sorted(os.listdir(tmp_path)) == sorted(
        f"chaos-{i}" for i in range(len(POINTS)))


def test_crash_always_yields_failure_records(monkeypatch):
    monkeypatch.setenv(resilient.CHAOS_ENV, "crash-always")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                        retry=FAST_RETRY, health=health)
    assert all(is_failed(r) for r in results)
    assert [r["point"] for r in results] == [p.name for p in POINTS]
    for record in results:
        assert record["error_kind"] == "ChaosCrash"
        assert record["attempts"] == FAST_RETRY.max_attempts
        assert "crash-always" in record["error_message"]
        assert record["traceback_tail"]
    assert health.failed == len(POINTS)
    assert health.retries == len(POINTS) * (FAST_RETRY.max_attempts - 1)


# -- pool death: recovery and blame ----------------------------------------


def test_exit_once_pool_recovery_exonerates_innocents(monkeypatch, tmp_path):
    """Simulated segfaults kill the pool; nobody is falsely quarantined."""
    expected = baseline()
    chaos(monkeypatch, tmp_path, "exit-once")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                        retry=FAST_RETRY, health=health)
    assert results == expected
    assert health.computed == len(POINTS)
    assert health.failed == 0
    assert health.quarantined == 0
    assert health.pool_restarts >= 1


def test_poison_point_is_quarantined(monkeypatch):
    """A point that reproducibly kills the pool is convicted, solo."""
    expected = baseline()
    health = SweepHealth()
    results = run_sweep(exit_on_p2, POINTS, base_seed=5, workers=2,
                        retry=FAST_RETRY, health=health)
    for i, point in enumerate(POINTS):
        if point.name == "p2":
            assert is_failed(results[i])
            assert results[i]["error_kind"] == KIND_POISONED
            assert "quarantined" in results[i]["error_message"]
        else:
            assert results[i] == expected[i]
    assert health.quarantined == 1
    assert health.failed == 1
    assert health.computed == len(POINTS) - 1
    # Conviction takes POISON_POOL_KILLS attributable (solo) deaths,
    # each of which recycles the pool.
    assert health.pool_restarts >= resilient.POISON_POOL_KILLS


# -- timeouts --------------------------------------------------------------


def test_hang_once_timeouts_recover(monkeypatch, tmp_path):
    """A transiently-hung point times out, retries, and still matches."""
    expected = baseline()
    chaos(monkeypatch, tmp_path, "hang-once")
    health = SweepHealth()
    results = run_sweep(echo_worker, POINTS, base_seed=5, workers=2,
                        timeout=1.0,
                        retry=RetryPolicy(max_attempts=4,
                                          backoff_base_s=0.01,
                                          backoff_cap_s=0.02),
                        health=health)
    assert results == expected
    assert health.failed == 0
    assert health.timeouts >= 1
    assert health.pool_restarts >= 1  # hung workers must be recycled


def test_hang_worker_times_out_terminally():
    """A point that always hangs becomes a structured timeout failure."""
    expected = baseline()
    health = SweepHealth()
    results = run_sweep(hang_on_p1, POINTS, base_seed=5, workers=2,
                        timeout=0.5,
                        retry=RetryPolicy(max_attempts=2,
                                          backoff_base_s=0.01,
                                          backoff_cap_s=0.02),
                        health=health)
    for i, point in enumerate(POINTS):
        if point.name == "p1":
            assert is_failed(results[i])
            assert results[i]["error_kind"] == KIND_TIMEOUT
            assert results[i]["attempts"] == 2
        else:
            assert results[i] == expected[i]
    assert health.timeouts == 2
    assert health.failed == 1
    assert health.computed == len(POINTS) - 1


# -- journal + resume ------------------------------------------------------

#: Lazily-built shared state for the truncation property: the full
#: journal of an uninterrupted run and its result list (one sweep run,
#: reused across hypothesis examples).
_TRUNC = {}


def _uninterrupted_journal():
    if not _TRUNC:
        with tempfile.TemporaryDirectory() as td:
            path = os.path.join(td, "full.jsonl")
            results = run_sweep(echo_worker, POINTS, base_seed=7, workers=1,
                                cache_name="truncate", journal=path)
            with open(path, "r", encoding="utf-8") as fh:
                lines = fh.read().splitlines()
        assert len(lines) == 1 + len(POINTS)  # manifest + one per point
        _TRUNC["results"] = results
        _TRUNC["lines"] = lines
    return _TRUNC["results"], _TRUNC["lines"]


@given(keep=st.integers(min_value=0, max_value=len(POINTS)),
       torn=st.booleans())
@settings(max_examples=15, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_kill_at_any_point_plus_resume_matches_uninterrupted(keep, torn):
    """Truncate the journal after any prefix of outcomes — resuming
    from it (optionally with a half-written torn tail line, as a crash
    mid-append leaves) reproduces the uninterrupted run exactly."""
    expected, lines = _uninterrupted_journal()
    with tempfile.TemporaryDirectory() as td:
        path = os.path.join(td, "interrupted.jsonl")
        text = "\n".join(lines[:1 + keep]) + "\n"
        if torn:
            text += '{"record":"outcome","index":'  # crash mid-append
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        health = SweepHealth()
        resumed = run_sweep(echo_worker, POINTS, base_seed=7, workers=1,
                            cache_name="truncate", journal=path,
                            resume=True, health=health)
        assert resumed == expected
        assert health.resumed == keep
        assert health.computed == len(POINTS) - keep


def test_resume_refuses_a_different_sweep(tmp_path):
    path = str(tmp_path / "journal.jsonl")
    run_sweep(echo_worker, POINTS, base_seed=1, workers=1,
              cache_name="mismatch", journal=path)
    with pytest.raises(SweepJournalMismatch):
        run_sweep(echo_worker, POINTS, base_seed=2, workers=1,
                  cache_name="mismatch", journal=path, resume=True)


def test_resume_refuses_a_manifestless_file(tmp_path):
    path = tmp_path / "journal.jsonl"
    path.write_text("not a journal\n")
    with pytest.raises(SweepJournalMismatch):
        run_sweep(echo_worker, POINTS, base_seed=1, workers=1,
                  cache_name="mismatch", journal=str(path), resume=True)


def test_failed_points_rerun_on_resume(monkeypatch, tmp_path):
    """``failed`` journal outcomes re-dispatch; the retry heals them."""
    path = str(tmp_path / "journal.jsonl")
    monkeypatch.setenv(resilient.CHAOS_ENV, "crash-always")
    first = run_sweep(echo_worker, POINTS, base_seed=4, workers=1,
                      cache_name="heal", journal=path, retry=FAST_RETRY)
    assert all(is_failed(r) for r in first)
    monkeypatch.delenv(resilient.CHAOS_ENV)
    health = SweepHealth()
    second = run_sweep(echo_worker, POINTS, base_seed=4, workers=1,
                       cache_name="heal", journal=path, resume=True,
                       health=health)
    assert second == run_sweep(echo_worker, POINTS, base_seed=4, workers=1)
    assert health.resumed == 0  # failures replay nothing
    assert health.computed == len(POINTS)


# -- SIGTERM checkpoint (subprocess) ---------------------------------------

_SIGTERM_POINTS = 8
_SIGTERM_SCRIPT = """\
import os
import sys
import time

sys.path.insert(0, {src!r})

from repro.perf.sweep import SweepPoint, run_sweep
from repro.sim.rng import make_rng


def slow_worker(point, seed):
    time.sleep(float(os.environ.get("TEST_SLOW_S", "0")))
    return {{"point": point.name,
             "draw": make_rng(seed).randrange(10 ** 9)}}


POINTS = [SweepPoint.make(f"p{{i}}", scale=i) for i in range({npoints})]

if __name__ == "__main__":
    try:
        run_sweep(slow_worker, POINTS, base_seed=3, workers=2,
                  cache_name="sigterm", journal=sys.argv[1],
                  resume="--resume" in sys.argv)
    except KeyboardInterrupt:
        sys.exit(130)
    sys.exit(0)
"""


def _outcome_count(journal_path):
    _, outcomes = SweepJournal.load(str(journal_path))
    return len(outcomes)


def test_sigterm_checkpoints_and_resumes(tmp_path):
    """SIGTERM mid-sweep keeps every completed point on disk, and
    --resume finishes the campaign to the exact deterministic values."""
    src = os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src")
    script = tmp_path / "sigterm_sweep.py"
    script.write_text(_SIGTERM_SCRIPT.format(src=src,
                                             npoints=_SIGTERM_POINTS))
    journal = tmp_path / "journal.jsonl"

    env = dict(os.environ, TEST_SLOW_S="0.4")
    proc = subprocess.Popen([sys.executable, str(script), str(journal)],
                            env=env, stderr=subprocess.PIPE)
    try:
        deadline = time.monotonic() + 30.0
        while _outcome_count(journal) < 2:
            if time.monotonic() > deadline:
                proc.kill()
                pytest.fail("sweep subprocess made no journal progress: "
                            + proc.stderr.read().decode(errors="replace"))
            if proc.poll() is not None:
                break  # finished everything before we could interrupt
            time.sleep(0.02)
        proc.send_signal(signal.SIGTERM)
        rc = proc.wait(timeout=30)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()

    completed = _outcome_count(journal)
    assert completed >= 1  # the checkpoint kept finished work
    if completed < _SIGTERM_POINTS:
        assert rc == 130  # graceful SIGTERM -> KeyboardInterrupt path

    env["TEST_SLOW_S"] = "0"
    done = subprocess.run(
        [sys.executable, str(script), str(journal), "--resume"],
        env=env, capture_output=True, text=True)
    assert done.returncode == 0, done.stderr

    _, outcomes = SweepJournal.load(str(journal))
    assert sorted(outcomes) == list(range(_SIGTERM_POINTS))
    for i, record in sorted(outcomes.items()):
        assert record["status"] == "ok"
        seed = point_seed(3, i)
        assert record["value"]["draw"] == make_rng(seed).randrange(10 ** 9)


# -- journal durability details --------------------------------------------


def test_journal_rejects_unserializable_results(tmp_path):
    journal = SweepJournal(str(tmp_path / "j.jsonl"))
    journal.start("s", 0, 1, "fp")
    with pytest.raises(ValueError, match="JSON-serializable"):
        journal.append(0, "p0", "ok", {"bad": object()})
    journal.close()


def test_journal_later_outcomes_win(tmp_path):
    """A resumed-then-interrupted journal keeps the newest outcome."""
    path = tmp_path / "j.jsonl"
    journal = SweepJournal(str(path))
    journal.start("s", 0, 1, "fp")
    journal.append(0, "p0", "failed", {"failed": True})
    journal.append(0, "p0", "ok", {"draw": 1})
    journal.close()
    _, outcomes = SweepJournal.load(str(path))
    assert outcomes[0]["status"] == "ok"
    data = [json.loads(line) for line in
            path.read_text().splitlines()]
    assert len(data) == 3  # append-only: nothing was rewritten
