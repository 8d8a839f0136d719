"""Pipeline benchmark for similekit: per-command time on seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout (it needs `src/similekit`).  The
load is one closed-loop client: every command runs as its own
single-threaded process and starts only after the previous one has exited.

--trace 0 sets the inputs up three times (the median is `setup_s`), then
repeats the timed pipeline until S seconds have passed, at least once, and
reports the median over those passes of `pipeline_s` and `peak_rss_mb`.
--trace 1 runs the pipeline once untraced and once with the probes of
`tracer.py` installed in every command process, fails unless both produce
byte-identical outputs, and reports the per-layer metrics.

Every output file and manifest is hashed (SHA-256) after each pass; the
digests, every check and every raw timing go to
`.bench_work/<workload>/result.json`.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import time

import checks
import layers
from layers import STEP_KEYS
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_REPEATS = 3
TRAIN_SEED, SPLIT_SEED, GEN_SEED, STORY_SEED = 7, 5, 13, 3
# The per-step times stay per-layer metrics (`cli.<step>.wall_s`): on a
# shared 2-core machine one run of a step of a few seconds or less varies
# by 10-35% between runs, more than any bound the gate may use.
END_TO_END = {"setup_s": "s", "pipeline_s": "s", "peak_rss_mb": "MB"}


def plan(workload: str) -> list[tuple[str, str, list[str]]]:
    """(step key, label, argv) for each command of one pass, in order.

    argv[0] is `cli` for the similekit command line or a library step of
    child.py.  Paths are relative to the workload's work directory, so
    manifests (which record argv) do not depend on where the checkout is.
    """
    spec = workloads.WORKLOADS[workload]
    systems = spec["systems"]
    worker = ["--knowledge", "in/edges.tsv", "--scorer-train", "out/train.jsonl",
              "--worker", os.path.join(HERE, "worker.py")]
    cmds = []
    if spec["direct_similes"]:
        cmds.append(("harvest", "harvest", ["cli", "harvest", "--sentences", "in/crawl.txt",
                                            "--literals-out", "out/holdout.jsonl"]))
        similes = "in/similes.jsonl"
    else:
        cmds.append(("harvest", "harvest", [
            "cli", "harvest", "--comments", "in/comments.ndjson",
            "--similes-out", "out/similes.jsonl", "--split", spec["split"],
            "--train-out", "out/train.jsonl", "--val-out", "out/val.jsonl",
            "--seed", str(SPLIT_SEED), "--sentences", "in/crawl.txt",
            "--literals-out", "out/holdout.jsonl"]))
        similes = "out/train.jsonl"
    corpus_args = ["--in", similes, "--out", "out/pairs.tsv",
                   "--audit-out", "out/pairs_audit.jsonl"]
    if spec["remote"]:
        cmds.append(("build_corpus", "build-corpus",
                     ["remote-build"] + corpus_args + worker))
    else:
        cmds.append(("build_corpus", "build-corpus",
                     ["cli", "build-corpus", "--knowledge", "in/edges.tsv",
                      "--scorer", spec["scorer"]] + corpus_args))
    for label, extra, model in (("train", [], "out/model"),
                                ("train-mask", ["--mask"], "out/mask-model")):
        cmds.append(("train", label, ["cli", "train", "--pairs", "out/pairs.tsv",
                                      "--model-out", model, "--seed", str(TRAIN_SEED)] + extra))
    for system in systems:
        model = "out/mask-model" if system == "meta_m" else "out/model"
        out = f"out/{system}.jsonl"
        common = ["--literals", "out/holdout.jsonl", "--system", system,
                  "--seed", str(GEN_SEED), "--out", out]
        if spec["remote"]:
            argv = ["remote-generate", "--model", model] + common + worker
        elif system == "rtrvl":
            argv = ["cli", "generate", "--knowledge", "in/edges.tsv"] + common
        else:
            argv = ["cli", "generate", "--model", model] + common
        cmds.append(("generate", f"generate-{system}", argv))
    cmds.append(("evaluate", "evaluate", [
        "cli", "evaluate", "--generated", *[f"out/{s}.jsonl" for s in systems],
        "--refs", "in/refs.jsonl", "--train-audit", "out/pairs_audit.jsonl",
        "--report", "out/metrics.json"]))
    for a, b in itertools.combinations(systems, 2):
        for crit in workloads.CRITERIA:
            cmds.append(("scoresheet", f"sheet-{a}-{b}-{crit}", [
                "cli", "evaluate", "--scoresheet", "in/scores.csv", "--pairwise", f"{a},{b}",
                "--criterion", crit, "--report", f"out/sheet/{a}-{b}-{crit}.json"]))
    cmds.append(("scoresheet", "alpha", ["alpha", "--scoresheet", "in/scores.csv",
                                         "--out", "out/alpha.json"]))
    cmds.append(("embellish", "embellish", [
        "cli", "embellish", "--stories", "in/stories.jsonl", "--model", "out/model",
        "--seed", str(STORY_SEED), "--out", "out/embellished.jsonl"]))
    return cmds


def reference_plan(workload: str) -> list[tuple[str, str, list[str]]]:
    """In-process runs the remote path must match; untimed, after the pass."""
    spec = workloads.WORKLOADS[workload]
    if not spec["remote"]:
        return []
    cmds = [("reference", "ref-build-corpus", [
        "cli", "build-corpus", "--in", "out/train.jsonl", "--knowledge", "in/edges.tsv",
        "--out", "ref/pairs.tsv", "--audit-out", "ref/pairs_audit.jsonl"])]
    for system in spec["systems"]:
        model = "out/mask-model" if system == "meta_m" else "out/model"
        cmds.append(("reference", f"ref-generate-{system}", [
            "cli", "generate", "--literals", "out/holdout.jsonl", "--system", system,
            "--model", model, "--seed", str(GEN_SEED), "--out", f"ref/{system}.jsonl"]))
    return cmds


class Runner:
    """Starts each command, waits for it, and records wall, CPU and memory."""

    def __init__(self, root: str, work: str):
        self.work = work
        self.env = dict(os.environ)
        src = os.path.join(root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.logs = os.path.join(work, "logs")
        os.makedirs(self.logs, exist_ok=True)

    def run(self, label: str, argv: list[str], trace_out: str | None = None,
            python: bool = False) -> dict:
        if python:
            command = [sys.executable] + argv
        elif argv[0] == "cli" and trace_out is None:
            command = [sys.executable, "-m", "similekit.cli"] + argv[1:]
        else:
            command = [sys.executable, os.path.join(HERE, "child.py"), trace_out or "-",
                       label] + argv
        out_path = os.path.join(self.logs, label + ".out")
        err_path = os.path.join(self.logs, label + ".err")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(command, cwd=self.work, env=self.env,
                                    stdin=subprocess.DEVNULL, stdout=out, stderr=err)
            try:
                _pid, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            end = time.perf_counter()
            proc.returncode = os.waitstatus_to_exitcode(status)
        with open(out_path, encoding="utf-8", errors="replace") as fh:
            stdout = fh.read()
        return {"label": label, "start": start, "end": end, "wall_s": end - start,
                "cpu_s": usage.ru_utime + usage.ru_stime,
                "peak_rss_mb": usage.ru_maxrss / 1024.0, "exit": proc.returncode,
                "stdout": stdout}


def digests(work: str) -> dict[str, str]:
    found = {}
    base = os.path.join(work, "out")
    for dirpath, _dirs, files in os.walk(base):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                found[os.path.relpath(path, work)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(found.items()))


def item_failures(stdout: str) -> int:
    """Items the command line reports as failed in its summary line."""
    failed = 0
    m = re.search(r"(\d+) failed\)", stdout)
    if m:
        failed += int(m.group(1))
    m = re.search(r"\((\d+) inputs failed\)", stdout)
    if m:
        failed += int(m.group(1))
    return failed


def run_pass(runner: Runner, workload: str, trace_dir: str | None = None) -> dict:
    for sub in ("out", "ref"):
        shutil.rmtree(os.path.join(runner.work, sub), ignore_errors=True)
    os.makedirs(os.path.join(runner.work, "out", "sheet"))
    os.makedirs(os.path.join(runner.work, "ref"))
    commands = []
    for key, label, argv in plan(workload):
        trace_out = None
        if trace_dir is not None:
            trace_out = os.path.join(trace_dir, label + ".json")
        rec = runner.run(label, argv, trace_out)
        rec["key"] = key
        commands.append(rec)
        if rec["exit"] != 0:
            break
    references = [runner.run(label, argv) for _key, label, argv in reference_plan(workload)]
    return {"commands": commands, "references": references, "digests": digests(runner.work)}


def pass_metrics(result: dict) -> dict[str, float]:
    """End-to-end metrics of one pass, plus the wall time of each step."""
    commands = result["commands"]
    metrics = {f"{key}_s": sum(c["wall_s"] for c in commands if c["key"] == key)
               for key in STEP_KEYS}
    metrics["pipeline_s"] = sum(c["wall_s"] for c in commands)
    metrics["peak_rss_mb"] = max(c["peak_rss_mb"] for c in commands)
    return metrics


def tally(workload, truth, runner, passes, traced) -> tuple[int, int, list]:
    """(attempted, failed, checks) over every pass of this run.

    With `traced`, the last pass is the traced one."""
    attempted = failed = 0
    spec = workloads.WORKLOADS[workload]
    items_per_pass = (truth["similes"] + len(spec["systems"]) * len(truth["literals"])
                      + truth["stories"])
    for result in passes:
        for rec in result["commands"] + result["references"]:
            attempted += 1
            failed += rec["exit"] != 0
            failed += item_failures(rec["stdout"])
        attempted += items_per_pass
        if len(result["commands"]) != len(plan(workload)):
            failed += 1
    found = []
    try:
        found = checks.check_outputs(workload, truth, runner.work,
                                     {c["label"]: c["stdout"] for c in passes[-1]["commands"]})
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        found = [("checks.completed", False, f"{type(exc).__name__}: {exc}")]
    first = passes[0]["digests"]
    for i, result in enumerate(passes[1:], start=1):
        same = result["digests"] == first
        differ = sorted(k for k in set(first) | set(result["digests"])
                        if first.get(k) != result["digests"].get(k))
        name = "determinism.traced" if traced and i == len(passes) - 1 else f"determinism.pass{i}"
        found.append((name, same, "" if same else f"differ: {differ[:5]}"))
    attempted += len(found)
    failed += sum(1 for _name, ok, _detail in found if not ok)
    return attempted, failed, found


def setup(runner: Runner, workload: str, seed: int) -> float:
    """Generate the inputs, then import similekit once; returns the seconds taken.

    Both run as child processes, so this process stays small and the peak
    memory the children inherit from it is below any command's own.
    """
    start = time.perf_counter()
    for label, command in (
            ("setup-generate", [os.path.join(HERE, "workloads.py"), workload, str(seed), "in",
                                "truth.json"]),
            ("setup-import", ["-c", "import similekit"])):
        rec = runner.run(label, command, python=True)
        if rec["exit"] != 0:
            raise SystemExit(f"{label} failed; see {runner.logs}")
    return time.perf_counter() - start


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "similekit", "cli.py")):
        print("error: run from a similekit checkout (src/similekit/cli.py not found)",
              file=sys.stderr)
        return 2
    work = os.path.join(root, ".bench_work", args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    runner = Runner(root, work)

    setup_times = [setup(runner, args.workload, args.seed)
                   for _ in range(SETUP_REPEATS if args.trace == 0 else 1)]

    passes = []
    started = time.perf_counter()
    while not passes or time.perf_counter() - started < args.seconds:
        passes.append(run_pass(runner, args.workload))
        if args.trace == 1:
            break
    if args.trace == 1:
        trace_dir = os.path.join(work, "trace")
        os.makedirs(trace_dir)
        traced = run_pass(runner, args.workload, trace_dir)
        passes.append(traced)
    with open(os.path.join(work, "truth.json"), encoding="utf-8") as fh:
        truth = json.load(fh)
    attempted, failed, found = tally(args.workload, truth, runner, passes, args.trace == 1)
    per_pass = [pass_metrics(p) for p in passes]
    if args.trace == 1:
        metrics = layers.per_layer(traced, os.path.join(work, "trace"), per_pass[0], work)
        units = layers.UNITS
    else:
        metrics = {"setup_s": statistics.median(setup_times)}
        for name in ("pipeline_s", "peak_rss_mb"):
            metrics[name] = statistics.median(p[name] for p in per_pass)
        units = END_TO_END
    with open(os.path.join(work, "result.json"), "w", encoding="utf-8") as fh:
        json.dump({"workload": args.workload, "seed": args.seed, "trace": args.trace,
                   "python": sys.version.split()[0], "nproc": os.cpu_count(),
                   "setup_s": setup_times, "per_pass": per_pass, "metrics": metrics,
                   "checks": found,
                   "passes": [{"digests": p["digests"],
                               "commands": [{k: v for k, v in c.items() if k != "stdout"}
                                            for c in p["commands"] + p["references"]]}
                              for p in passes]}, fh, indent=1)
    for name, ok, detail in found:
        print(f"check {name}: {'ok' if ok else 'FAILED'} {detail}".rstrip())
    combined = hashlib.sha256(json.dumps(passes[0]["digests"]).encode()).hexdigest()
    print(f"outputs: {len(passes[0]['digests'])} files, combined sha256 {combined}")
    for name in sorted(metrics):
        print(f"{name}: {metrics[name]:.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in sorted(metrics)},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
