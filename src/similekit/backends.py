"""Out-of-process backend plumbing.

Heavy models (commonsense knowledge, neural scorers and generators) attach
over a subprocess boundary speaking JSON: every request is answered by one
process of the backend's command, which reads one JSON request on stdin and
writes one JSON reply on stdout.  `call_many` runs the requests of a batch
side by side, at most core.usable_cpus() processes at once, and returns the
replies in request order.  When a request takes its process and the backend
has fewer than usable_cpus() processes alive, one more is started, idle on
stdin, so the next request does not wait for an interpreter to start; close()
and garbage collection or exit kill and reap it.  If a request fails, the
error raised is the first failure in request order, and every process of the
backend, the idle one too, is killed and reaped.  `call` is the one-request
case.  The core pipeline never links a backend directly; every in-repo
reference implementation satisfies the same call contracts in-process.
"""

from __future__ import annotations

import json
import os
import time
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
    import subprocess  # with selectors, loaded only by a process that sends a request

    return subprocess.Popen(command, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE)


def _kill(owner: int, proc) -> None:
    """Close proc's pipes, kill it and reap it, if this process is `owner`, the one that
    started it: a forked copy of a backend leaves its parent's process alone."""
    if os.getpid() != owner:
        return
    for pipe in (proc.stdin, proc.stdout, proc.stderr):
        pipe.close()
    proc.kill()
    proc.wait()


class _Exchange:
    """One request's process: its request is written and its output read without blocking."""

    def __init__(self, proc, payload: bytes, timeout: float, selector):
        import selectors

        self.proc = proc
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
        and waits on stdin for the next request.  A request has `timeout`
        seconds from the moment its bytes start to be written.  A process
        that cannot start, times out or exits non-zero, a reply that is not
        JSON, and one that read rejects with KeyError, OverflowError,
        TypeError or ValueError are BackendUnavailable; the first of them in
        request order is raised, after every process is reaped.
        """
        import selectors

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
                            running[started] = _Exchange(self._process(), payloads[started],
                                                         self.timeout, selector)
                        except OSError as exc:
                            failures[started] = BackendUnavailable(f"backend {name!r}: {exc}")
                        else:
                            if len(running) < slots:
                                self._start_spare()
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
                if failures:
                    raise failures[min(failures)]
            except BaseException:
                self.close()
                raise
            finally:
                for ex in running.values():
                    ex.close()
        return replies
