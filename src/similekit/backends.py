"""Out-of-process backend plumbing.

Heavy models (commonsense knowledge, neural scorers and generators) attach
over a subprocess boundary speaking JSON: every request starts one process
of the backend's command, writes the JSON request to its stdin and reads one
JSON reply from its stdout.  `call_many` runs the requests of a batch side by
side, at most core.usable_cpus() processes at once, and returns the replies in
request order.  If a request fails, the error raised is the first failure in
request order, and every process still running is killed and reaped.  `call`
is the one-request case.  The core pipeline never links a backend directly;
every in-repo reference implementation satisfies the same call contracts
in-process.
"""

from __future__ import annotations

import json
import os
import time

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


class _Exchange:
    """One request's process: its request is written and its output read without blocking."""

    def __init__(self, command: list[str], payload: bytes, timeout: float, selector):
        import selectors
        import subprocess

        self.proc = subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     stderr=subprocess.PIPE)
        self.deadline = time.monotonic() + timeout
        self.selector = selector
        self.unsent = memoryview(payload)
        self.received = {self.proc.stdout: bytearray(), self.proc.stderr: bytearray()}
        os.set_blocking(self.proc.stdin.fileno(), False)
        selector.register(self.proc.stdin, selectors.EVENT_WRITE, self)
        for pipe in self.received:
            selector.register(pipe, selectors.EVENT_READ, self)

    @property
    def done(self) -> bool:
        """The request is written and both outputs are closed by the process."""
        return all(pipe.closed for pipe in (self.proc.stdin, *self.received))

    def step(self, pipe) -> None:
        """Move the bytes a ready pipe allows; close the pipe once it is finished."""
        if pipe is self.proc.stdin:
            try:
                self.unsent = self.unsent[os.write(pipe.fileno(), self.unsent):]
            except BrokenPipeError:  # the process exited without reading it all
                self.unsent = self.unsent[:0]
            if self.unsent:
                return
        else:
            chunk = os.read(pipe.fileno(), 65536)
            if chunk:
                self.received[pipe] += chunk
                return
        self.selector.unregister(pipe)
        pipe.close()

    def reply(self, name: str, timeout: float, read):
        """read(reply) once done; a timeout, a non-zero exit or a bad reply is BackendUnavailable."""
        import subprocess

        code = None
        if self.done:
            try:
                code = self.proc.wait(max(self.deadline - time.monotonic(), 0))
            except subprocess.TimeoutExpired:
                pass
        if code is None:
            raise BackendUnavailable(f"backend {name!r}: timed out after {timeout} seconds")
        if code != 0:
            stderr = self.received[self.proc.stderr].decode("utf-8", "replace")
            raise BackendUnavailable(f"backend {name!r} exited {code}: {stderr.strip()[:200]}")
        stdout = self.received[self.proc.stdout]
        try:
            return read(json.loads(stdout.decode("utf-8")))
        except (KeyError, OverflowError, TypeError, ValueError) as exc:
            shown = stdout.decode("utf-8", "replace")[:200]
            raise BackendUnavailable(f"backend {name!r} sent a bad reply ({exc!r}): {shown!r}") \
                from exc

    def close(self) -> None:
        """Close the pipes, then kill the process if it still runs and reap it."""
        for pipe in (self.proc.stdin, *self.received):
            if not pipe.closed:
                self.selector.unregister(pipe)
                pipe.close()
        self.proc.kill()
        self.proc.wait()


class JsonSubprocessBackend:
    """Runs a command per request: JSON request on stdin, JSON reply on stdout."""

    def __init__(self, command: list[str], timeout: float = 60.0):
        if not command:
            raise ValueError("command must be non-empty")
        self.command = list(command)
        self.timeout = timeout

    def call(self, request: dict, read=lambda reply: reply):
        """Send one request and return read(reply); see call_many."""
        return self.call_many([request], read)[0]

    def call_many(self, requests: list[dict], read=lambda reply: reply) -> list:
        """Send each request to its own process and return [read(reply), ...] in request order.

        At most usable_cpus() processes run at once, each for at most
        `timeout` seconds.  A process that cannot start, times out or exits
        non-zero, a reply that is not JSON, and one that read rejects with
        KeyError, OverflowError, TypeError or ValueError are
        BackendUnavailable; the first of them in request order is raised,
        after every process is reaped.
        """
        import selectors  # with subprocess, loaded only by a process that sends a request

        name = self.command[0]
        payloads = [json.dumps(request).encode("utf-8") for request in requests]
        replies: list = [None] * len(payloads)
        failures: dict[int, BackendUnavailable] = {}
        running: dict[int, _Exchange] = {}
        started, slots = 0, usable_cpus()
        with selectors.DefaultSelector() as selector:
            try:
                while True:
                    while (not failures and started < len(payloads)
                           and len(running) < slots):
                        try:
                            running[started] = _Exchange(self.command, payloads[started],
                                                         self.timeout, selector)
                        except OSError as exc:
                            failures[started] = BackendUnavailable(f"backend {name!r}: {exc}")
                        started += 1
                    if failures:  # requests start in order: no later one can fail first
                        for index in [i for i in running if i > min(failures)]:
                            running.pop(index).close()
                    if not running:
                        break
                    wait = min(ex.deadline for ex in running.values()) - time.monotonic()
                    for key, _ in selector.select(max(wait, 0)):
                        key.data.step(key.fileobj)
                    now = time.monotonic()
                    for index, ex in list(running.items()):
                        if ex.done or now >= ex.deadline:
                            del running[index]
                            try:
                                replies[index] = ex.reply(name, self.timeout, read)
                            except BackendUnavailable as exc:
                                failures[index] = exc
                            finally:
                                ex.close()
            finally:
                for ex in running.values():
                    ex.close()
        if failures:
            raise failures[min(failures)]
        return replies
