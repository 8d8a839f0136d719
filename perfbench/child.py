"""Runs one pipeline step as its own process, optionally traced.

    python3 child.py TRACE_OUT COMMAND_ID STEP [ARGS...]

TRACE_OUT is "-" for an untraced run.  STEP is `cli` (the similekit command
line, unchanged) or one of the library-only steps below, which drive the
public API the command line does not expose: corpus build and decoding
through the remote adapters, and Krippendorff's alpha.  Library steps call
through module attributes (`corpus.build_parallel_corpus`, not a name bound
here) so the tracer's probes see them.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys

from similekit import corpus, evaluation, systems
from similekit.cli import main as cli_main
from similekit.harvest import read_literals_jsonl, read_similes_jsonl
from similekit.knowledge import RemoteKnowledgeBackend
from similekit.lm import GenerationConfig, RemoteModel, RemoteScorer
from similekit.tagging import DEFAULT_TAGGER

import tracer as tracing


def _worker_command(args) -> list[str]:
    return [sys.executable, args.worker, "--edges", args.knowledge,
            "--scorer-train", args.scorer_train]


def remote_build(argv) -> int:
    parser = argparse.ArgumentParser(prog="remote-build")
    for flag in ("--in", "--knowledge", "--scorer-train", "--worker", "--out", "--audit-out"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args(argv)
    command = _worker_command(args)
    stats = corpus.BuildStats()
    pairs = corpus.build_parallel_corpus(
        read_similes_jsonl(getattr(args, "in")), RemoteKnowledgeBackend(command),
        RemoteScorer(command), k=5, stats=stats)
    corpus.write_pairs_tsv(pairs, args.out)
    corpus.write_pairs_audit_jsonl(pairs, args.audit_out)
    print(f"built {stats.built} pairs "
          f"({stats.skipped_no_properties} skipped, {len(stats.failures)} failed)")
    return 0


def remote_generate(argv) -> int:
    parser = argparse.ArgumentParser(prog="remote-generate")
    for flag in ("--literals", "--system", "--model", "--seed", "--knowledge",
                 "--scorer-train", "--worker", "--out"):
        parser.add_argument(flag, required=True)
    args = parser.parse_args(argv)
    seed = int(args.seed)
    literals = [rec["text"] for rec in read_literals_jsonl(args.literals)]
    cfg = GenerationConfig(max_new_tokens=32, seed=seed, top_k=5, temperature=0.7)
    model = RemoteModel(_worker_command(args), args.model)
    if args.system == "scope":
        fn = lambda lit: systems.scope_generate(lit, model, cfg)
    elif args.system == "prefix":
        fn = lambda lit: systems.baseline_prefix_forced(lit, model, cfg, DEFAULT_TAGGER)
    elif args.system == "meta_m":
        fn = lambda lit: systems.baseline_metaphor_mask(lit, model, cfg, DEFAULT_TAGGER)
    else:
        raise ValueError(f"no remote path for system {args.system!r}")
    systems.run_batch(literals, args.system, fn, seed, args.out)
    print(f"{args.system}: generated {len(literals)} outputs -> {args.out}")
    return 0


def alpha(argv) -> int:
    parser = argparse.ArgumentParser(prog="alpha")
    parser.add_argument("--scoresheet", required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    sheet = evaluation.ScoreSheet.load_csv(args.scoresheet)
    alphas = {c: evaluation.krippendorff_alpha(sheet, c) for c in evaluation.CRITERIA}
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(alphas, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(" ".join(f"{c}={a:.4f}" for c, a in alphas.items()))
    return 0


STEPS = {"cli": cli_main, "remote-build": remote_build,
         "remote-generate": remote_generate, "alpha": alpha}


def main(argv) -> int:
    trace_out, command_id, step, args = argv[0], argv[1], argv[2], argv[3:]
    if trace_out == "-":
        return STEPS[step](args)
    tracer = tracing.Tracer(command_id)
    tracing.install(tracer)
    try:
        return tracer.run_root(STEPS[step], args)
    finally:
        usage = resource.getrusage(resource.RUSAGE_SELF)
        tracer.counters["own_cpu_s"] = usage.ru_utime + usage.ru_stime
        tracer.dump(trace_out)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
