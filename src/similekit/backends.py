"""Out-of-process backend plumbing.

Heavy models (commonsense knowledge, neural scorers and generators) attach
over a one-shot subprocess boundary speaking JSON on stdin/stdout.  The core
pipeline never links them directly; every in-repo reference implementation
satisfies the same call contracts in-process.
"""

from __future__ import annotations

import json
import subprocess


class BackendUnavailable(RuntimeError):
    """A remote backend could not be reached or spoke an invalid protocol."""


class JsonSubprocessBackend:
    """Runs a command per request: JSON request on stdin, JSON reply on stdout."""

    def __init__(self, command: list[str], timeout: float = 60.0):
        if not command:
            raise ValueError("command must be non-empty")
        self.command = list(command)
        self.timeout = timeout

    def call(self, request: dict, read=lambda reply: reply):
        """Send one request and return read(reply).  A reply that is not JSON, or
        that read rejects with KeyError, TypeError or ValueError, is BackendUnavailable."""
        try:
            proc = subprocess.run(
                self.command,
                input=json.dumps(request),
                capture_output=True,
                text=True,
                timeout=self.timeout,
            )
        except (OSError, subprocess.TimeoutExpired) as exc:
            raise BackendUnavailable(f"backend {self.command[0]!r}: {exc}") from exc
        if proc.returncode != 0:
            raise BackendUnavailable(
                f"backend {self.command[0]!r} exited {proc.returncode}: "
                f"{proc.stderr.strip()[:200]}"
            )
        try:
            return read(json.loads(proc.stdout))
        except (KeyError, TypeError, ValueError) as exc:
            raise BackendUnavailable(
                f"backend {self.command[0]!r} sent a bad reply ({exc!r}): {proc.stdout[:200]!r}"
            ) from exc
