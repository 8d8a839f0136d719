"""Per-layer metrics from the traced pass.

Each traced command process leaves `<trace dir>/<label>.json` (see
tracer.py).  This module folds them into the metrics named in
BENCHMARK.json's `per_layer` list.  A layer the workload does not exercise
reports 0 (for example `backends.*` outside remote-backend).
Percentiles are nearest-rank over every call in the pass.
"""

from __future__ import annotations

import json
import math
import os
from collections import Counter, defaultdict

STEP_KEYS = ("harvest", "build_corpus", "train", "generate", "evaluate", "scoresheet",
             "embellish")

# name -> (unit, better)
PER_LAYER = {
    "harvest.load_comments.s": ("s", "lower"),
    "harvest.harvest_similes.s": ("s", "lower"),
    "harvest.harvest_literals.s": ("s", "lower"),
    "harvest.split_corpus.s": ("s", "lower"),
    "harvest.malformed": ("count", "lower"),
    "harvest.duplicates": ("count", "lower"),
    "harvest.kept_ratio": ("ratio", "higher"),
    "core.parse_simile.calls": ("count", "lower"),
    "core.split_sentences.calls": ("count", "lower"),
    "knowledge.load_edge_table.s": ("s", "lower"),
    "knowledge.properties_of.calls": ("count", "lower"),
    "knowledge.properties_of.s": ("s", "lower"),
    "knowledge.hit_ratio": ("ratio", "higher"),
    "knowledge.vehicle_for_property.calls": ("count", "lower"),
    "knowledge.vehicle_for_property.hit_ratio": ("ratio", "higher"),
    "lm.BigramScorer.init_s": ("s", "lower"),
    "lm.perplexity.calls": ("count", "lower"),
    "lm.perplexity.s": ("s", "lower"),
    "lm.perplexity.p50_us": ("us", "lower"),
    "lm.perplexity.p99_us": ("us", "lower"),
    "corpus.build_parallel_corpus.self_s": ("s", "lower"),
    "corpus.pairs_built": ("count", "higher"),
    "corpus.useful_ratio": ("ratio", "higher"),
    "corpus.perplexity_per_pair": ("count", "lower"),
    "corpus.write_s": ("s", "lower"),
    "corpus.read_pairs_audit_jsonl.s": ("s", "lower"),
    "lm.fine_tune.s": ("s", "lower"),
    "lm.TemplateNgramModel.save.s": ("s", "lower"),
    "lm.TemplateNgramModel.load.s": ("s", "lower"),
    "lm.model_json_bytes": ("bytes", "lower"),
    "lm.generate.calls": ("count", "lower"),
    "lm.generate.s": ("s", "lower"),
    "lm.generate.p50_ms": ("ms", "lower"),
    "lm.generate.p99_ms": ("ms", "lower"),
    "lm.next_token_distribution.calls": ("count", "lower"),
    "lm.next_token_distribution.p50_us": ("us", "lower"),
    "lm.next_token_distribution.p99_us": ("us", "lower"),
    "lm.steps_per_output": ("count", "lower"),
    "lm.truncated_ratio": ("ratio", "lower"),
    "systems.scope.s": ("s", "lower"),
    "systems.prefix.s": ("s", "lower"),
    "systems.meta_m.s": ("s", "lower"),
    "systems.rtrvl.s": ("s", "lower"),
    "systems.failed_ratio": ("ratio", "lower"),
    "systems.blank_ratio": ("ratio", "lower"),
    "evaluation.evaluate_generation.s": ("s", "lower"),
    "evaluation.embedding_f1.calls": ("count", "lower"),
    "evaluation.embedding_f1.s": ("s", "lower"),
    "evaluation.embedding_f1.p50_us": ("us", "lower"),
    "evaluation.vehicle_bleu.s": ("s", "lower"),
    "evaluation.novelty.s": ("s", "lower"),
    "evaluation.ScoreSheet.load_csv.s": ("s", "lower"),
    "evaluation.krippendorff_alpha.s": ("s", "lower"),
    "evaluation.pairwise_compare.s": ("s", "lower"),
    "evaluation.mean_scores.s": ("s", "lower"),
    "story.embellish.calls": ("count", "lower"),
    "story.embellish.s": ("s", "lower"),
    "story.replaced_ratio": ("ratio", "higher"),
    "backends.call.calls": ("count", "lower"),
    "backends.call.p50_ms": ("ms", "lower"),
    "backends.call.p99_ms": ("ms", "lower"),
    "backends.call.wait_s": ("s", "lower"),
    "backends.call.failed": ("count", "lower"),
}
for _key in STEP_KEYS:
    PER_LAYER[f"cli.{_key}.wall_s"] = ("s", "lower")
    PER_LAYER[f"cli.{_key}.self_s"] = ("s", "lower")
    PER_LAYER[f"cli.{_key}.cpu_s"] = ("s", "lower")
    PER_LAYER[f"cli.{_key}.own_cpu_s"] = ("s", "lower")
    PER_LAYER[f"cli.{_key}.peak_rss_mb"] = ("MB", "lower")
PER_LAYER["trace.overhead_s"] = ("s", "lower")

UNITS = {name: unit for name, (unit, _better) in PER_LAYER.items()}


def percentile(values, q: float) -> float:
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(traced: dict, trace_dir: str, untraced: dict, work: str) -> dict[str, float]:
    """Per-layer metrics of the traced pass; `untraced` is pass_metrics of the
    untraced pass of the same run."""
    spans = defaultdict(list)       # name -> [(seconds, self seconds)]
    durations = defaultdict(list)   # timed probes: name -> [seconds]
    counters: Counter = Counter()
    by_key = defaultdict(Counter)
    cli_self: Counter = Counter()
    for rec in traced["commands"]:
        with open(os.path.join(trace_dir, rec["label"] + ".json"), encoding="utf-8") as fh:
            data = json.load(fh)
        for name, start, end, _parent, child in data["spans"]:
            spans[name].append((end - start, end - start - child))
            if name == "cli":
                cli_self[rec["key"]] += end - start - child
        for name, values in data["durations"].items():
            durations[name].extend(values)
        counters.update(data["counters"])
        by_key[rec["key"]].update(data["counters"])

    def seconds(name):
        return sum(d for d, _self in spans[name]) + sum(durations[name])

    def calls(name):
        return len(spans[name]) + len(durations[name])

    def times(name):
        return [d for d, _self in spans[name]] + durations[name]

    m = {}
    for name in ("harvest.load_comments", "harvest.harvest_similes", "harvest.harvest_literals",
                 "harvest.split_corpus", "knowledge.load_edge_table", "knowledge.properties_of",
                 "lm.perplexity", "corpus.read_pairs_audit_jsonl", "lm.fine_tune",
                 "lm.TemplateNgramModel.save", "lm.TemplateNgramModel.load", "lm.generate",
                 "evaluation.evaluate_generation", "evaluation.embedding_f1",
                 "evaluation.vehicle_bleu", "evaluation.novelty",
                 "evaluation.ScoreSheet.load_csv", "evaluation.krippendorff_alpha",
                 "evaluation.pairwise_compare", "evaluation.mean_scores", "story.embellish"):
        m[name + ".s"] = seconds(name)
    for name in ("knowledge.properties_of", "knowledge.vehicle_for_property", "lm.perplexity",
                 "lm.generate", "lm.next_token_distribution", "evaluation.embedding_f1",
                 "story.embellish", "backends.call"):
        m[name + ".calls"] = calls(name)
    for system in ("scope", "prefix", "meta_m", "rtrvl"):
        m[f"systems.{system}.s"] = seconds("systems." + system)

    m["harvest.malformed"] = counters["harvest.malformed"]
    m["harvest.duplicates"] = counters["harvest.duplicates"]
    m["harvest.kept_ratio"] = _ratio(
        counters["harvest.similes"] + counters["harvest.literals"],
        counters["harvest.comments"] + counters["harvest.malformed"]
        + counters["harvest.crawl_lines"])
    m["core.parse_simile.calls"] = counters["core.parse_simile.calls"]
    m["core.split_sentences.calls"] = counters["core.split_sentences.calls"]
    m["knowledge.hit_ratio"] = _ratio(counters["knowledge.properties_of.hits"],
                                      m["knowledge.properties_of.calls"])
    m["knowledge.vehicle_for_property.hit_ratio"] = _ratio(
        counters["knowledge.vehicle_for_property.hits"], m["knowledge.vehicle_for_property.calls"])
    m["lm.BigramScorer.init_s"] = seconds("lm.BigramScorer.init")
    m["lm.perplexity.p50_us"] = 1e6 * percentile(times("lm.perplexity"), 0.50)
    m["lm.perplexity.p99_us"] = 1e6 * percentile(times("lm.perplexity"), 0.99)
    m["corpus.build_parallel_corpus.self_s"] = sum(
        own for _d, own in spans["corpus.build_parallel_corpus"])
    m["corpus.pairs_built"] = counters["corpus.pairs_built"]
    m["corpus.useful_ratio"] = _ratio(counters["corpus.pairs_built"],
                                      counters["corpus.similes_tried"])
    m["corpus.perplexity_per_pair"] = _ratio(m["lm.perplexity.calls"],
                                             counters["corpus.pairs_built"])
    m["corpus.write_s"] = seconds("corpus.write_pairs_tsv") + seconds(
        "corpus.write_pairs_audit_jsonl")
    model_json = os.path.join(work, "out", "model", "model.json")
    m["lm.model_json_bytes"] = os.path.getsize(model_json) if os.path.exists(model_json) else 0
    m["lm.generate.p50_ms"] = 1e3 * percentile(times("lm.generate"), 0.50)
    m["lm.generate.p99_ms"] = 1e3 * percentile(times("lm.generate"), 0.99)
    m["lm.next_token_distribution.p50_us"] = 1e6 * percentile(
        times("lm.next_token_distribution"), 0.50)
    m["lm.next_token_distribution.p99_us"] = 1e6 * percentile(
        times("lm.next_token_distribution"), 0.99)
    m["lm.steps_per_output"] = _ratio(m["lm.next_token_distribution.calls"],
                                      m["lm.generate.calls"])
    m["lm.truncated_ratio"] = _ratio(counters["lm.generate.truncated"], m["lm.generate.calls"])
    generate = by_key["generate"]
    m["systems.failed_ratio"] = _ratio(generate["systems.call.errors"],
                                       generate["systems.call.calls"])
    m["systems.blank_ratio"] = _ratio(generate["systems.blank"], generate["systems.rows"])
    m["evaluation.embedding_f1.p50_us"] = 1e6 * percentile(times("evaluation.embedding_f1"), 0.5)
    m["story.replaced_ratio"] = _ratio(counters["story.replaced"], m["story.embellish.calls"])
    m["backends.call.p50_ms"] = 1e3 * percentile(times("backends.call"), 0.50)
    m["backends.call.p99_ms"] = 1e3 * percentile(times("backends.call"), 0.99)
    m["backends.call.wait_s"] = seconds("backends.call")
    m["backends.call.failed"] = counters["backends.call.errors"]
    for key in STEP_KEYS:
        mine = [c for c in traced["commands"] if c["key"] == key]
        m[f"cli.{key}.wall_s"] = untraced[f"{key}_s"]
        m[f"cli.{key}.self_s"] = cli_self[key]
        m[f"cli.{key}.cpu_s"] = sum(c["cpu_s"] for c in mine)
        m[f"cli.{key}.own_cpu_s"] = by_key[key]["own_cpu_s"]
        m[f"cli.{key}.peak_rss_mb"] = max((c["peak_rss_mb"] for c in mine), default=0.0)
    m["trace.overhead_s"] = sum(c["wall_s"] for c in traced["commands"]) - untraced["pipeline_s"]
    missing = set(PER_LAYER) ^ set(m)
    if missing:
        raise RuntimeError(f"per-layer metrics out of step with PER_LAYER: {sorted(missing)}")
    return m
