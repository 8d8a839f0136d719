"""A stdlib stand-in for a remote backend, driven by the request it is sent.

Reads one JSON request on stdin.  Optional fields, applied in this order:
`sleep` (seconds), `log` (a file the request's `i` is appended to),
`kill` (the process SIGKILLs itself), `exit` (exit with that code after a
line on stderr) and `raw` (printed instead of the reply).  The reply is
{"i": i, "length": the number of bytes of stdin}.

    python3 fake_worker.py < request
"""

import json
import os
import signal
import sys
import time

data = sys.stdin.buffer.read()
request = json.loads(data)
time.sleep(request.get("sleep", 0))
if "log" in request:
    with open(request["log"], "a", encoding="utf-8") as fh:
        fh.write(f"{request['i']}\n")
if request.get("kill"):
    os.kill(os.getpid(), signal.SIGKILL)
if "exit" in request:
    print(f"request {request['i']} failed on purpose", file=sys.stderr)
    sys.exit(request["exit"])
print(request["raw"] if "raw" in request else json.dumps({"i": request["i"],
                                                          "length": len(data)}))
