"""Out-of-process backend plumbing.

Heavy models (commonsense knowledge, neural scorers and generators) attach
over a subprocess boundary speaking JSON: every request is answered by one
process of the backend's command, which reads one JSON request on stdin and
writes one JSON reply on stdout.  `call_many` runs the requests of a batch
side by side, at most core.usable_cpus() processes at once, and reads their
replies one by one in request order, each through Popen.communicate.  When a
request takes its process and the backend has fewer than usable_cpus()
processes alive, one more is started, idle on stdin, so the next request does
not wait for an interpreter to start; close() and garbage collection or exit
kill and reap it.  If a request fails, the error raised is the first failure
in request order, and every process of the backend, the idle one too, is
killed and reaped.  `call` is the one-request case.  The core pipeline never
links a backend directly; every in-repo reference implementation satisfies
the same call contracts in-process.
"""

from __future__ import annotations

import collections
import json
import math
import os
import weakref

from .core import usable_cpus


class BackendUnavailable(RuntimeError):
    """A remote backend could not be reached or spoke an invalid protocol."""


def reply_field(reply, name: str, kind: type):
    """reply[name], which must be a `kind`; a float field takes any JSON number but a bool.

    Any other value is a TypeError, which call_many reports as a bad reply.
    """
    value = reply[name]
    if kind is float and isinstance(value, int) and not isinstance(value, bool):
        value = float(value)  # OverflowError for an int beyond any float
    if not isinstance(value, kind):
        raise TypeError(f"{name!r} is {type(value).__name__}, not {kind.__name__}")
    return value


def _start(command: list[str]):
    """A process of command, its stdin, stdout and stderr pipes to this process."""
    import subprocess  # loaded only by a process that sends a request

    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def _kill(owner: int, proc) -> None:
    """Close proc's pipes, kill it and reap it, if this process is `owner`, the one that
    started it: a forked copy of a backend leaves its parent's process alone."""
    if os.getpid() != owner:
        return
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        if pipe is not None:  # a request's stdin is None once it is written and closed
            pipe.close()
    proc.kill()
    proc.wait()


class JsonSubprocessBackend:
    """Runs a command per request: JSON request on stdin, JSON reply on stdout."""

    def __init__(self, command: list[str], timeout: float = 60.0):
        if not command:
            raise ValueError("command must be non-empty")
        if not 0 < timeout < math.inf:  # NaN too
            raise ValueError(f"timeout must be finite and > 0, not {timeout!r}")
        self.command = list(command)
        self.timeout = timeout
        # The idle process started ahead of the next request, held by the
        # weakref.finalize that kills it when the backend is collected or at exit.
        self._spare = None

    def close(self) -> None:
        """Kill and reap the idle process, if there is one; a later request starts another."""
        spare, self._spare = self._spare, None
        if spare is not None:
            spare()

    def _process(self):
        """The idle process, if this process started it, or else a new one."""
        spare, self._spare = self._spare, None
        found = spare.detach() if spare is not None else None
        if found is not None:
            owner, proc = found[2]
            if owner == os.getpid():
                return proc
        return _start(self.command)

    def _start_spare(self) -> None:
        try:
            proc = _start(self.command)
        except OSError:  # the next request starts its own process and reports the error
            return
        self._spare = weakref.finalize(self, _kill, os.getpid(), proc)

    def call(self, request: dict, read=lambda reply: reply):
        """Send one request and return read(reply); see call_many."""
        return self.call_many([request], read)[0]

    def call_many(self, requests: list[dict], read=lambda reply: reply) -> list:
        """Send each request to its own process and return [read(reply), ...] in request order.

        At most usable_cpus() processes of this backend are alive at once,
        the idle one included.  A request takes the idle process if there is
        one; if fewer than usable_cpus() are then alive, one more is started
        and waits on stdin for the next request.  A request of at most
        select.PIPE_BUF bytes is written as its process is handed it, a longer
        one once the requests before it have answered.  Replies are read in
        request order, and a slot is refilled once the oldest request has
        answered.  A request has `timeout` seconds from when the one before it
        answered, or from when its bytes start to be written if that is later.
        A process that cannot start, times out or exits non-zero, a reply that
        is not JSON, and one that read rejects with KeyError, OverflowError,
        TypeError or ValueError are BackendUnavailable; the first of them in
        request order is raised, after every process is reaped.
        """
        import select
        import subprocess

        name = self.command[0]
        payloads = [json.dumps(request).encode("utf-8") for request in requests]
        replies: list = []
        running = collections.deque()  # (process, request still to send or None), in order
        unstarted, slots = None, usable_cpus()
        try:
            while True:
                while (unstarted is None and len(running) < slots
                       and len(replies) + len(running) < len(payloads)):
                    unsent = payloads[len(replies) + len(running)]
                    try:
                        proc = self._process()
                    except OSError as exc:  # raised once the requests before it have answered
                        unstarted = BackendUnavailable(f"backend {name!r}: {exc}")
                        break
                    if len(unsent) <= select.PIPE_BUF:  # an empty pipe takes it at once
                        try:
                            os.write(proc.stdin.fileno(), unsent)
                        except BrokenPipeError:  # the process died; its exit code says how
                            pass
                        proc.stdin.close()
                        proc.stdin = unsent = None  # so that communicate flushes no closed pipe
                    running.append((proc, unsent))
                    if len(running) < slots:
                        self._start_spare()
                if not running:
                    break
                proc, unsent = running[0]
                try:
                    stdout, stderr = proc.communicate(unsent, timeout=self.timeout)
                except subprocess.TimeoutExpired:
                    raise BackendUnavailable(
                        f"backend {name!r}: timed out after {self.timeout} seconds") from None
                running.popleft()
                if proc.returncode != 0:
                    shown = stderr.decode("utf-8", "replace").strip()[:200]
                    raise BackendUnavailable(f"backend {name!r} exited {proc.returncode}: {shown}")
                try:
                    replies.append(read(json.loads(stdout.decode("utf-8"))))
                except (KeyError, OverflowError, TypeError, ValueError) as exc:
                    shown = stdout.decode("utf-8", "replace")[:200]
                    raise BackendUnavailable(
                        f"backend {name!r} sent a bad reply ({exc!r}): {shown!r}") from exc
            if unstarted is not None:
                raise unstarted
        except BaseException:
            self.close()
            for proc, _ in running:
                _kill(os.getpid(), proc)
            raise
        return replies
