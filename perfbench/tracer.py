"""In-memory tracing of similekit's public functions, installed from outside.

The benchmark does not change the package: `install()` replaces functions at
the module attribute their callers look up (``similekit.corpus.perplexity``,
not only ``similekit.lm.perplexity``, because ``corpus`` binds the name at
import).  Three kinds of probe:

* span   -- a record (name, start, end, parent, command id) kept in memory;
* timed  -- per-call durations only, for calls made tens of thousands of
  times, so the trace stays small;
* count  -- a counter, no clock at all, for the most frequent calls.

Spans and timed calls charge their duration to the enclosing span, so a
span's self time is its duration minus the time its children cover.
Everything is written once, by `dump()`, when the traced process ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from collections import Counter, defaultdict


class Tracer:
    def __init__(self, command_id: str):
        self.command_id = command_id
        self.spans: list = []   # frames of span probes, in start order
        self.stack: list = []   # open frames, spans and timed calls
        self.durations = defaultdict(list)
        self.counters: Counter = Counter()

    def _probe(self, name, fn, kind, observe):
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(args) if callable(name) else name
            if kind == "count":
                tracer.counters[label + ".calls"] += 1
                try:
                    result = fn(*args, **kwargs)
                except Exception:
                    tracer.counters[label + ".errors"] += 1
                    raise
                if observe is not None:
                    observe(tracer.counters, args, result)
                return result
            # [name, start, end, parent span index, child seconds, own index]
            parent = -1
            if tracer.stack:
                top = tracer.stack[-1]
                parent = top[5] if top[5] != -1 else top[3]
            frame = [label, 0.0, 0.0, parent, 0.0, -1]
            if kind == "span":
                frame[5] = len(tracer.spans)
                tracer.spans.append(frame)
            tracer.stack.append(frame)
            frame[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                tracer.counters[label + ".errors"] += 1
                raise
            finally:
                frame[2] = clock()
                tracer.stack.pop()
                elapsed = frame[2] - frame[1]
                if tracer.stack:
                    tracer.stack[-1][4] += elapsed
                if kind == "timed":
                    tracer.durations[label].append(elapsed)
            if observe is not None:
                observe(tracer.counters, args, result)
            return result

        return wrapper

    def patch(self, target: str, name, kind: str = "span", observe=None) -> None:
        """Replace `module:attr` or `module:Class.method` with a probe."""
        module_name, _, attr = target.partition(":")
        owner = importlib.import_module(module_name)
        if "." in attr:
            cls_name, attr = attr.split(".")
            owner = getattr(owner, cls_name)
            raw = owner.__dict__[attr]
            if isinstance(raw, classmethod):
                setattr(owner, attr, classmethod(self._probe(name, raw.__func__, kind, observe)))
                return
            setattr(owner, attr, self._probe(name, raw, kind, observe))
            return
        setattr(owner, attr, self._probe(name, getattr(owner, attr), kind, observe))

    def run_root(self, fn, *args):
        """Run the command body inside the root span named "cli"."""
        return self._probe("cli", fn, "span", None)(*args)

    def dump(self, path: str) -> None:
        spans = [frame[:5] for frame in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"command": self.command_id, "spans": spans,
                       "durations": self.durations, "counters": self.counters}, fh)


def _add(counters, key, value):
    counters[key] += value


def _corpus(counters, args, pairs):
    _add(counters, "corpus.similes_tried", len(args[0]))
    _add(counters, "corpus.pairs_built", len(pairs))


def _batch(counters, _args, rows):
    _add(counters, "systems.rows", len(rows))
    _add(counters, "systems.blank", sum(1 for rec in rows if not rec["output"]))


def _decoded(counters, _args, output):
    _add(counters, "lm.generate.truncated", output.truncated)


def _system(args):
    return "systems." + args[1]


# (target, metric name, kind, observe).  Names are `<module>.<function>`.
PROBES = [
    ("similekit.harvest:parse_simile", "core.parse_simile", "count", None),
    ("similekit.corpus:parse_simile", "core.parse_simile", "count", None),
    ("similekit.harvest:split_sentences", "core.split_sentences", "count", None),
    ("similekit.story:split_sentences", "core.split_sentences", "count", None),
    ("similekit.cli:load_comments", "harvest.load_comments", "span",
     lambda c, a, r: (_add(c, "harvest.comments", len(r)),
                      _add(c, "harvest.malformed", a[1].malformed))),
    ("similekit.cli:harvest_similes", "harvest.harvest_similes", "span",
     lambda c, a, r: (_add(c, "harvest.similes", len(r)),
                      _add(c, "harvest.duplicates", a[2].duplicates))),
    ("similekit.cli:harvest_literals", "harvest.harvest_literals", "span",
     lambda c, a, r: (_add(c, "harvest.crawl_lines", len(a[0])),
                      _add(c, "harvest.literals", len(r)))),
    ("similekit.cli:split_corpus", "harvest.split_corpus", "span", None),
    ("similekit.cli:load_edge_table", "knowledge.load_edge_table", "span", None),
    ("similekit.corpus:properties_of", "knowledge.properties_of", "timed",
     lambda c, a, r: _add(c, "knowledge.properties_of.hits", bool(r))),
    ("similekit.systems:vehicle_for_property", "knowledge.vehicle_for_property", "timed",
     lambda c, a, r: _add(c, "knowledge.vehicle_for_property.hits", r is not None)),
    ("similekit.lm:BigramScorer.__init__", "lm.BigramScorer.init", "span", None),
    ("similekit.corpus:perplexity", "lm.perplexity", "timed", None),
    ("similekit.cli:build_parallel_corpus", "corpus.build_parallel_corpus", "span", _corpus),
    ("similekit.corpus:build_parallel_corpus", "corpus.build_parallel_corpus", "span", _corpus),
    ("similekit.cli:write_pairs_tsv", "corpus.write_pairs_tsv", "span", None),
    ("similekit.corpus:write_pairs_tsv", "corpus.write_pairs_tsv", "span", None),
    ("similekit.cli:write_pairs_audit_jsonl", "corpus.write_pairs_audit_jsonl", "span", None),
    ("similekit.corpus:write_pairs_audit_jsonl", "corpus.write_pairs_audit_jsonl", "span", None),
    ("similekit.cli:read_pairs_audit_jsonl", "corpus.read_pairs_audit_jsonl", "span", None),
    ("similekit.cli:fine_tune", "lm.fine_tune", "span", None),
    ("similekit.systems:fine_tune", "lm.fine_tune", "span", None),
    ("similekit.lm:TemplateNgramModel.save", "lm.TemplateNgramModel.save", "span", None),
    ("similekit.lm:TemplateNgramModel.load", "lm.TemplateNgramModel.load", "span", None),
    ("similekit.lm:TemplateNgramModel.next_token_distribution",
     "lm.next_token_distribution", "timed", None),
    ("similekit.systems:generate", "lm.generate", "span", _decoded),
    ("similekit.story:generate", "lm.generate", "span", _decoded),
    ("similekit.cli:scope_generate", "systems.call", "count", None),
    ("similekit.cli:baseline_prefix_forced", "systems.call", "count", None),
    ("similekit.cli:baseline_metaphor_mask", "systems.call", "count", None),
    ("similekit.cli:baseline_retrieval", "systems.call", "count", None),
    ("similekit.systems:scope_generate", "systems.call", "count", None),
    ("similekit.systems:baseline_prefix_forced", "systems.call", "count", None),
    ("similekit.systems:baseline_metaphor_mask", "systems.call", "count", None),
    ("similekit.cli:run_batch", _system, "span", _batch),
    ("similekit.systems:run_batch", _system, "span", _batch),
    ("similekit.cli:evaluate_generation", "evaluation.evaluate_generation", "span", None),
    ("similekit.evaluation:embedding_f1", "evaluation.embedding_f1", "timed", None),
    ("similekit.evaluation:vehicle_bleu", "evaluation.vehicle_bleu", "span", None),
    ("similekit.evaluation:novelty", "evaluation.novelty", "span", None),
    ("similekit.evaluation:ScoreSheet.load_csv", "evaluation.ScoreSheet.load_csv", "span", None),
    ("similekit.evaluation:krippendorff_alpha", "evaluation.krippendorff_alpha", "span", None),
    ("similekit.cli:pairwise_compare", "evaluation.pairwise_compare", "span", None),
    ("similekit.cli:mean_scores", "evaluation.mean_scores", "span", None),
    ("similekit.cli:embellish", "story.embellish", "span",
     lambda c, a, r: _add(c, "story.replaced", r is not a[0])),
    ("similekit.backends:JsonSubprocessBackend.call", "backends.call", "timed", None),
]


def install(tracer: Tracer) -> None:
    for target, name, kind, observe in PROBES:
        tracer.patch(target, name, kind, observe)
