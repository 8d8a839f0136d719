"""Stdlib remote backend for the remote-backend workload.

Speaks the one-request-per-process JSON contract of
`similekit.backends.JsonSubprocessBackend`: one JSON request on stdin, one
JSON reply on stdout.  Answers come from similekit's in-process reference
implementations, loaded from small files on every request, so the remote
path must give the same pairs and outputs as the in-process one.

    python3 worker.py --edges EDGES.tsv --scorer-train SIMILES.jsonl < request
"""

from __future__ import annotations

import argparse
import json
import sys

from similekit.knowledge import load_edge_table
from similekit.lm import (
    BigramScorer,
    GenerationConfig,
    TemplateNgramModel,
    generate,
    perplexity,
)


def answer(request: dict, args) -> object:
    op = request.get("op")
    if op is None and request.get("relation") == "HasProperty":
        table = load_edge_table(args.edges)
        return [{"text": c.text, "score": c.score}
                for c in table.properties_of(request["concept"], int(request["k"]))]
    if op == "perplexity":
        with open(args.scorer_train, encoding="utf-8") as fh:
            texts = [json.loads(line)["text"] for line in fh if line.strip()]
        return {"perplexity": perplexity(request["text"], BigramScorer(texts))}
    if op == "generate":
        model = TemplateNgramModel.load(request["model_id"])
        out = generate(request["source"], GenerationConfig(**request["config"]), model)
        return {"text": out.text, "truncated": out.truncated}
    raise ValueError(f"unsupported request: {sorted(request)}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--edges", required=True)
    parser.add_argument("--scorer-train", required=True)
    args = parser.parse_args(argv)
    json.dump(answer(json.load(sys.stdin), args), sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
