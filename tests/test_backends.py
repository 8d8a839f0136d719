"""The JSON-over-subprocess transport, against a stdlib fake worker.

Every request gets its own process; a batch runs at most core.usable_cpus()
of them at once, returns its replies in request order and, when a request
fails, raises the first failure in request order with no process left.  A
request that leaves room under usable_cpus() starts one idle process for the
next request, which close(), a failed call and the end of the process reap.
"""

import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from similekit import backends
from similekit.backends import BackendUnavailable, JsonSubprocessBackend

WORKER = [sys.executable, str(Path(__file__).resolve().parent / "fake_worker.py")]
SRC = Path(__file__).resolve().parent.parent / "src"


@pytest.fixture()
def started(monkeypatch):
    """Records each worker's pid and, as it starts, how many workers exist with it.

    A worker exists from its start until it is reaped (os.kill(pid, 0)
    succeeds on an exited worker nobody has waited for), so the peak counts
    every worker the transport had not yet reaped.
    """
    record = {"pids": [], "peak": 0}

    class Recording(subprocess.Popen):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            record["pids"].append(self.pid)
            record["peak"] = max(record["peak"], sum(map(_exists, record["pids"])))

    monkeypatch.setattr(subprocess, "Popen", Recording)
    return record


def _exists(pid: int) -> bool:
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    return True


def assert_all_reaped(started):
    assert started["pids"]
    assert not any(map(_exists, started["pids"]))


def test_replies_in_request_order_when_workers_finish_out_of_order(tmp_path, started,
                                                                    monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 4)
    log = tmp_path / "finished"
    sleeps = [0.6, 0.0, 0.3, 0.0]
    requests = [{"i": i, "sleep": s, "log": str(log)} for i, s in enumerate(sleeps)]
    replies = JsonSubprocessBackend(WORKER).call_many(requests, lambda reply: reply["i"])
    assert replies == [0, 1, 2, 3]
    finished = log.read_text(encoding="utf-8").split()
    assert finished[-1] == "0" and finished != sorted(finished)
    assert_all_reaped(started)


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_at_most_cpu_count_workers_at_once(started, monkeypatch, cpus):
    monkeypatch.setattr(backends, "usable_cpus", lambda: cpus)
    replies = JsonSubprocessBackend(WORKER).call_many(
        [{"i": i, "sleep": 0.2} for i in range(6)], lambda reply: reply["i"])
    assert replies == list(range(6))
    assert len(started["pids"]) == 6
    assert started["peak"] == cpus
    assert_all_reaped(started)


def test_unknown_cpu_count_runs_one_at_a_time(started, monkeypatch):
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert JsonSubprocessBackend(WORKER).call_many([{"i": 0}, {"i": 1}], len) == [2, 2]
    assert started["peak"] == 1


def test_call_is_the_one_request_batch(started):
    backend = JsonSubprocessBackend(WORKER)
    assert backend.call({"i": 5}) == {"i": 5, "length": len('{"i": 5}')}
    assert backend.call_many([]) == []
    backend.close()
    assert_all_reaped(started)


def test_a_request_larger_than_a_pipe_is_sent_whole(started):
    request = {"i": 0, "pad": "x" * 1_000_000}
    backend = JsonSubprocessBackend(WORKER)
    replies = backend.call_many([request, {"i": 1}])
    assert replies[0]["length"] == len('{"i": 0, "pad": ""}') + 1_000_000
    backend.close()
    assert_all_reaped(started)


def alive(started) -> int:
    return sum(map(_exists, started["pids"]))


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_a_request_starts_the_next_ones_process(started, monkeypatch, cpus):
    """After each call the backend has one idle process (none on one CPU), which the
    next request runs in, and never more than cpus processes at once."""
    monkeypatch.setattr(backends, "usable_cpus", lambda: cpus)
    backend = JsonSubprocessBackend(WORKER)
    idle = 1 if cpus > 1 else 0
    assert backend.call({"i": 0, "pid": True})["pid"] == started["pids"][0]
    assert (len(started["pids"]), alive(started)) == (1 + idle, idle)
    for i in range(1, 4):
        newest = started["pids"][-1]
        ran_in = backend.call({"i": i, "pid": True})["pid"]
        assert ran_in == (newest if idle else started["pids"][-1])
        assert alive(started) == idle
    assert backend.call_many([{"i": 4}, {"i": 5}], lambda reply: reply["i"]) == [4, 5]
    assert alive(started) == (1 if cpus == 3 else 0)  # the batch left room on 3 CPUs only
    assert started["peak"] == cpus
    backend.close()
    assert_all_reaped(started)


def test_close_reaps_the_idle_process_and_a_later_call_starts_another(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER)
    backend.call({"i": 0})
    assert alive(started) == 1
    backend.close()
    backend.close()
    assert_all_reaped(started)
    assert backend.call({"i": 1, "pid": True})["pid"] == started["pids"][2]
    backend.close()
    assert_all_reaped(started)


def test_a_collected_backend_reaps_its_idle_process(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER)
    backend.call({"i": 0})
    assert alive(started) == 1
    del backend
    assert_all_reaped(started)


def test_an_idle_process_older_than_the_timeout_still_answers(started, monkeypatch):
    """A request's timeout starts when its bytes are written, not when its process started."""
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER, timeout=0.5)
    backend.call({"i": 0})
    time.sleep(1.0)
    assert backend.call({"i": 1, "pid": True})["pid"] == started["pids"][1]
    backend.close()
    assert_all_reaped(started)


def test_a_failed_call_reaps_the_idle_process(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER)
    backend.call({"i": 0})
    with pytest.raises(BackendUnavailable, match="exited 3"):
        backend.call({"i": 1, "exit": 3})
    assert len(started["pids"]) == 3  # the failed request started an idle process too
    assert_all_reaped(started)


def test_an_idle_process_that_died_fails_its_request_and_the_next_works(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER)
    backend.call({"i": 0})
    spare = started["pids"][1]
    os.kill(spare, signal.SIGKILL)
    with pytest.raises(BackendUnavailable, match="exited -9"):
        backend.call({"i": 1})
    assert_all_reaped(started)
    assert backend.call({"i": 2, "pid": True})["pid"] not in (spare, None)
    backend.close()
    assert_all_reaped(started)


def test_a_forked_copy_leaves_the_parents_idle_process_alone(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    backend = JsonSubprocessBackend(WORKER)
    backend.call({"i": 0})
    spare = started["pids"][1]
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            ran_in = backend.call({"i": 1, "pid": True})["pid"]
            backend.close()
            code = 0 if ran_in != spare and _exists(spare) else 2
        finally:
            os._exit(code)
    assert os.waitpid(pid, 0)[1] == 0
    assert _exists(spare)
    assert backend.call({"i": 2, "pid": True})["pid"] == spare
    backend.close()
    assert_all_reaped(started)


def test_the_idle_process_is_reaped_at_exit(tmp_path):
    """A process that makes one request and exits leaves no process behind.  fake_worker
    logs each pid as it starts, and sleeps 30 s if its stdin closes with no request."""
    log = tmp_path / "pids"
    code = ("import time\n"
            "from similekit import backends\n"
            "backends.usable_cpus = lambda: 2\n"
            f"backend = backends.JsonSubprocessBackend({WORKER + [str(log)]!r})\n"
            "assert backend.call({'i': 0})['i'] == 0\n"
            "deadline = time.monotonic() + 20  # until the idle process has started\n"
            f"while len(open({str(log)!r}).read().split()) < 2 and time.monotonic() < deadline:\n"
            "    time.sleep(0.01)\n")
    subprocess.run([sys.executable, "-c", code], check=True, timeout=30,
                   env=dict(os.environ, PYTHONPATH=str(SRC)))
    pids = [int(line) for line in log.read_text(encoding="utf-8").split()]
    assert len(pids) == 2
    assert not any(map(_exists, pids))


FAILURES = {
    "exit": ({"exit": 3}, "exited 3: request 1 failed on purpose"),
    "bad-json": ({"raw": "not json"}, "sent a bad reply"),
    "timeout": ({"sleep": 30}, "timed out after 1.5 seconds"),
    "killed": ({"kill": True}, "exited -9"),
}


@pytest.mark.parametrize("kind", sorted(FAILURES))
def test_first_failure_in_request_order_is_raised(started, monkeypatch, kind):
    """Request 1 fails late; request 2 fails first in time but later in order."""
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)
    fields, message = FAILURES[kind]
    late = {"sleep": 0.5, **fields}
    requests = [{"i": 0}, {"i": 1, **late}, {"i": 2, "exit": 4}, {"i": 3, "sleep": 30}]
    backend = JsonSubprocessBackend(WORKER, timeout=1.5)
    began = time.monotonic()
    with pytest.raises(BackendUnavailable, match=message):
        backend.call_many(requests)
    assert time.monotonic() - began < 10
    assert_all_reaped(started)


def test_a_failure_kills_the_workers_still_running(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 3)
    requests = [{"i": 0, "exit": 5}, {"i": 1, "sleep": 30}, {"i": 2, "sleep": 30},
                {"i": 3, "sleep": 30}]
    began = time.monotonic()
    with pytest.raises(BackendUnavailable, match="exited 5"):
        JsonSubprocessBackend(WORKER).call_many(requests)
    assert time.monotonic() - began < 10
    assert len(started["pids"]) == 3  # no request after the failure starts
    assert_all_reaped(started)


def test_a_reply_read_rejects_is_a_bad_reply(started):
    with pytest.raises(BackendUnavailable, match=r"sent a bad reply \(KeyError\('missing'\)\)"):
        JsonSubprocessBackend(WORKER).call_many([{"i": 0}, {"i": 1}],
                                                lambda reply: reply["missing"])
    assert_all_reaped(started)


def test_an_error_read_raises_propagates_with_no_worker_left(started, monkeypatch):
    monkeypatch.setattr(backends, "usable_cpus", lambda: 2)

    def read(reply):
        raise RuntimeError(f"read refused {reply['i']}")

    with pytest.raises(RuntimeError, match="read refused 0"):
        JsonSubprocessBackend(WORKER).call_many([{"i": 0}, {"i": 1, "sleep": 30}], read)
    assert_all_reaped(started)


def test_a_command_that_cannot_start(tmp_path):
    missing = str(tmp_path / "no-such-worker")
    with pytest.raises(BackendUnavailable, match="No such file"):
        JsonSubprocessBackend([missing]).call_many([{"i": 0}, {"i": 1}])
