"""A stdlib stand-in for a remote backend, driven by the request it is sent.

Given a file, appends its pid to it as it starts, before reading anything.
Reads one JSON request on stdin; if stdin closes with no request (the backend
that started it went away without killing it), it sleeps 30 seconds, so a
test can see it was left behind.  Optional fields, applied in this order:
`sleep` (seconds), `log` (a file the request's `i` is appended to),
`kill` (the process SIGKILLs itself), `stderr_bytes` (that many bytes
written to stderr), `exit` (exit with that code after a line on stderr) and
`raw` (printed instead of the reply).  The reply is {"i": i, "length": the
number of bytes of stdin}, with `pid`, the process's pid, when the request
has a true `pid`, and `pad`, a string of `reply_pad` x's, when it has
`reply_pad`.

    python3 fake_worker.py [PID_LOG] < request
"""

import json
import os
import signal
import sys
import time

if len(sys.argv) > 1:
    with open(sys.argv[1], "a", encoding="utf-8") as fh:
        fh.write(f"{os.getpid()}\n")
data = sys.stdin.buffer.read()
if not data:
    time.sleep(30)
    sys.exit(1)
request = json.loads(data)
time.sleep(request.get("sleep", 0))
if "log" in request:
    with open(request["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{request['i']}\n")
if request.get("kill"):
    os.kill(os.getpid(), signal.SIGKILL)
sys.stderr.write("x" * request.get("stderr_bytes", 0))
if "exit" in request:
    print(f"request {request['i']} failed on purpose", file=sys.stderr)
    sys.exit(request["exit"])
reply = {"i": request["i"], "length": len(data)}
if request.get("pid"):
    reply["pid"] = os.getpid()
if "reply_pad" in request:
    reply["pad"] = "x" * request["reply_pad"]
print(request["raw"] if "raw" in request else json.dumps(reply))
