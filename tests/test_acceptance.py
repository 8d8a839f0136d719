"""Acceptance gate: eight headline behaviors, one verdict line each.

Each test prints "acceptance N (<name>): PASS|FAIL" straight to the terminal
(bypassing capture) so a full pytest run always shows the per-criterion
outcome at a glance.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from test_eval import oracle_bleu, oracle_novelty, random_corpus

from similekit.cli import main
from similekit.core import drop_dangling_comma, parse_simile, strip_terminal_modifier
from similekit.corpus import build_parallel_corpus
from similekit.evaluation import (
    CharNgramEmbedder,
    OneHotEmbedder,
    ScoreSheet,
    embedding_f1,
    novelty,
    pairwise_compare,
    vehicle_bleu,
)
from similekit.harvest import HarvestStats, harvest_literals, split_corpus
from similekit.knowledge import EMPTY_SYNONYMS, EdgeTableBackend, KnowledgeEdge
from similekit.lm import GenerationConfig, generate
from similekit.story import Story, embellish
from similekit.systems import baseline_retrieval, scope_generate
from similekit.tagging import DEFAULT_TAGGER


@contextmanager
def verdict(capsys, number, name):
    outcome = "FAIL"
    try:
        yield
        outcome = "PASS"
    finally:
        with capsys.disabled():
            print(f"\nacceptance {number} ({name}): {outcome}")


def test_criterion_1_corpus_worked_examples(capsys, table2_rows, table2_backend,
                                            table2_scorer, table2_corrector):
    with verdict(capsys, 1, "worked-example corpus rows"):
        similes = [parse_simile(row["simile"]) for row in table2_rows]
        start = time.monotonic()
        pairs = build_parallel_corpus(
            similes, table2_backend, table2_scorer, corrector=table2_corrector, k=5
        )
        elapsed = time.monotonic() - start
        assert [p.source for p in pairs] == [
            "Love is rare.",
            "It was cool and quiet, and I stormed through fast.",
            "Sir Francis's voice was calm and quiet, very relaxed.",
        ]
        assert elapsed < 1.0, f"took {elapsed:.2f}s"


def test_criterion_2_retrieval_baseline(capsys):
    with verdict(capsys, 2, "retrieval baseline"):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("sunset", "beautiful", 5.0),
                KnowledgeEdge("rose", "beautiful", 3.0),
                KnowledgeEdge("painting", "beautiful", 1.0),
            ]
        )
        out = baseline_retrieval(
            "The city was beautiful", backend, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out == "The city was like a sunset"


def test_criterion_3_bleu_and_embedding_oracles(capsys):
    with verdict(capsys, 3, "BLEU / embedding oracles"):
        for seed in range(100):
            rng = random.Random(seed)
            cands, refs = random_corpus(rng)
            for n in (1, 2):
                for smoothing in (False, True):
                    got = vehicle_bleu(cands, refs, n=n, smoothing=smoothing)
                    want = oracle_bleu(cands, refs, n, smoothing)
                    assert abs(got - want) <= 1e-9, (seed, n, smoothing, got, want)
        # A close-but-wrong vehicle: zero n-gram overlap, nonzero char-level similarity.
        assert vehicle_bleu([["death"]], [[["desert"]]], n=1) == 0.0
        assert embedding_f1("death", ["desert"], OneHotEmbedder()) == 0.0
        assert embedding_f1("death", ["desert"], CharNgramEmbedder()) > 0.0


def test_criterion_4_novelty_oracle(capsys):
    with verdict(capsys, 4, "novelty oracle"):
        words = ["rare", "fast", "slow", "bright", "deer", "snail", "sun", "fox"]
        rng = random.Random(0)
        for _ in range(1000):
            make = lambda: (rng.choice(words), rng.choice(words))
            train = [make() for _ in range(rng.randint(0, 10))]
            gen = [make() for _ in range(rng.randint(1, 10))]
            assert novelty(gen, train) == oracle_novelty(gen, train)
        train = [("rare", "unicorn"), ("fast", "deer")]
        assert novelty([("rare", "unicorn"), ("fast", "deer")], train) == 0.0
        assert novelty([("slow", "snail")], train) == 1.0


def test_criterion_5_pairwise_aggregation(capsys):
    with verdict(capsys, 5, "pairwise aggregation"):
        sheet = ScoreSheet()
        for k in range(343):
            sheet.add(f"w{k}", "A", "r0", "OQ", 5)
            sheet.add(f"w{k}", "B", "r0", "OQ", 3)
        for k in range(93):
            sheet.add(f"l{k}", "A", "r0", "OQ", 2)
            sheet.add(f"l{k}", "B", "r0", "OQ", 4)
        for k in range(64):
            sheet.add(f"t{k}", "A", "r0", "OQ", 3)
            sheet.add(f"t{k}", "B", "r0", "OQ", 3)
        assert pairwise_compare(sheet, "A", "B", "OQ") == (68.6, 18.6, 12.8)

        for seed in range(100):
            rng = random.Random(seed)
            rand_sheet = ScoreSheet()
            for item in range(rng.randint(2, 25)):
                for system in ("A", "B"):
                    for rater in range(rng.randint(1, 3)):
                        rand_sheet.add(f"i{item}", system, f"r{rater}", "OQ",
                                       rng.randint(1, 5))
            win, lose, tie = pairwise_compare(rand_sheet, "A", "B", "OQ")
            rwin, rlose, rtie = pairwise_compare(rand_sheet, "B", "A", "OQ")
            assert (win, lose, tie) == (rlose, rwin, rtie)
            assert abs(win + lose + tie - 100.0) < 1e-9


def test_criterion_6_end_to_end_desk_run(capsys, tmp_path, toy_world):
    with verdict(capsys, 6, "end-to-end desk run"):
        start = time.monotonic()
        root = tmp_path

        comments = root / "comments.ndjson"
        with open(comments, "w", encoding="utf-8") as fh:
            for i, text in enumerate(toy_world["simile_texts"]):
                fh.write(json.dumps(
                    {"id": f"c{i}", "body": text, "subreddit": "toy", "created_utc": i}
                ) + "\n")
        sentences = root / "sentences.txt"
        sentences.write_text("\n".join(toy_world["holdout"]) + "\n", encoding="utf-8")

        similes_out = root / "similes.jsonl"
        literals_out = root / "literals.jsonl"
        pairs_out = root / "pairs.tsv"
        model_dir = root / "model"
        pretrain_pairs = root / "pretrain.tsv"
        pretrain_dir = root / "pretrain-model"
        scope_out = root / "batch.scope.jsonl"
        prefix_out = root / "batch.prefix.jsonl"

        with open(pretrain_pairs, "w", encoding="utf-8") as fh:
            for text in toy_world["simile_texts"]:
                fh.write(f"{text}\t{text}\n")

        commands = [
            ["harvest", "--comments", str(comments), "--similes-out", str(similes_out),
             "--sentences", str(sentences), "--literals-out", str(literals_out)],
            ["build-corpus", "--in", str(similes_out), "--knowledge",
             toy_world["edges_path"], "--out", str(pairs_out)],
            ["train", "--pairs", str(pairs_out), "--model-out", str(model_dir),
             "--seed", "7"],
            ["train", "--pairs", str(pretrain_pairs), "--model-out", str(pretrain_dir),
             "--seed", "7"],
            ["generate", "--literals", str(literals_out), "--system", "scope",
             "--model", str(model_dir), "--seed", "13", "--out", str(scope_out)],
            ["generate", "--literals", str(literals_out), "--system", "prefix",
             "--model", str(pretrain_dir), "--seed", "13", "--out", str(prefix_out)],
        ]
        for argv in commands:
            assert main(argv) == 0, argv

        assert len(open(pairs_out, encoding="utf-8").read().splitlines()) == 200
        scope_records = [json.loads(l) for l in open(scope_out, encoding="utf-8")]
        assert len(scope_records) == 50
        rate = sum(1 for r in scope_records if "like a" in r["output"]) / len(scope_records)
        assert rate >= 0.90, f"'like a' rate {rate:.2%}"

        prefix_records = [json.loads(l) for l in open(prefix_out, encoding="utf-8")]
        assert len(prefix_records) == 50
        for rec in prefix_records:
            stripped = strip_terminal_modifier(rec["literal"], DEFAULT_TAGGER)
            forced = drop_dangling_comma(stripped.prefix) + " like a"
            assert rec["output"].startswith(forced), rec

        # Byte-reproducibility: replay each step's recorded argv and compare
        # every declared output (and the manifest itself) byte for byte.
        manifests = [
            str(similes_out) + ".manifest.json",
            str(pairs_out) + ".manifest.json",
            str(model_dir) + ".manifest.json",
            str(pretrain_dir) + ".manifest.json",
            str(scope_out) + ".manifest.json",
            str(prefix_out) + ".manifest.json",
        ]
        snapshots = {}
        for mpath in manifests:
            manifest = json.loads(open(mpath, encoding="utf-8").read())
            for out in manifest["outputs"]:
                snapshots.setdefault(mpath, {})[out] = _tree_bytes(out)
            snapshots[mpath][mpath] = _tree_bytes(mpath)
            assert main(manifest["argv"]) == 0
            for out, before in snapshots[mpath].items():
                assert _tree_bytes(out) == before, f"{out} changed on re-run"

        elapsed = time.monotonic() - start
        assert elapsed < 300, f"took {elapsed:.1f}s"


def _tree_bytes(path):
    import os

    if os.path.isdir(path):
        out = {}
        for name in sorted(os.listdir(path)):
            out[name] = open(os.path.join(path, name), "rb").read()
        return out
    return open(path, "rb").read()


def test_criterion_7_dataset_shape(capsys):
    with verdict(capsys, 7, "dataset shape"):
        # The published train/validation sizes imply the exact ratio
        # 82697/87843; as a float it prints as 0.94.  A literal two-decimal
        # 0.94 cannot reach these sizes under any rounding rule (0.94 * 87843
        # = 82572.42), so the shape check feeds the ratio exactly.
        ratio = Fraction(82697, 87843)
        assert round(float(ratio), 2) == 0.94
        items = [f"s{i}" for i in range(87843)]
        split = split_corpus(items, ratio, seed=0)
        assert (len(split.train), len(split.validation)) == (82697, 5146)
        assert sorted(split.train + split.validation) == sorted(items)

        # Exhaustive comparator scan: inserting like/as anywhere in otherwise
        # acceptable sentences must reject every variant.
        bases = [
            "The river seemed cold.",
            "Her voice was gentle.",
            "The night felt dark.",
            "His plan sounded simple.",
            "The valley was quiet.",
        ]
        variants = []
        for base in bases:
            words = base.split(" ")
            for pos in range(len(words) + 1):
                for comparator in ("like", "as", "Like", "AS"):
                    variants.append(" ".join(words[:pos] + [comparator] + words[pos:]))
        stats = HarvestStats()
        kept = harvest_literals(variants, DEFAULT_TAGGER, stats)
        assert kept == []
        assert stats.rejected == len(variants)
        clean = harvest_literals(bases, DEFAULT_TAGGER)
        assert len(clean) == len(bases)


def test_criterion_8_story_embellishment(capsys, toy_model, toy_world):
    with verdict(capsys, 8, "story embellishment"):
        qualifying = toy_world["holdout"]
        fillers = ("He saw a dog.", "They walked home.", "She opened the door.")
        stories = []
        for i in range(50):
            kind = i % 4
            if kind == 0:
                sentences = (qualifying[i % 50], qualifying[(i + 7) % 50],
                             qualifying[(i + 13) % 50])
            elif kind == 1:
                sentences = (fillers[0], qualifying[i % 50], fillers[1],
                             qualifying[(i + 3) % 50])
            elif kind == 2:
                sentences = (fillers[i % 3], fillers[(i + 1) % 3])
            else:
                sentences = (qualifying[i % 50],)
            stories.append(Story(title=f"Story {i}", storyline=(), sentences=sentences))

        cfg = GenerationConfig(max_new_tokens=32, seed=3, top_k=5, temperature=0.7)
        generator = lambda literal: scope_generate(literal, toy_model, cfg)
        replaced = 0
        for i, story in enumerate(stories):
            result = embellish(story, generator, DEFAULT_TAGGER, seed=1000 + i)
            again = embellish(story, generator, DEFAULT_TAGGER, seed=1000 + i)
            assert result == again, "embellishment not seed-deterministic"
            diffs = [
                j for j, (old, new) in enumerate(zip(story.sentences, result.sentences))
                if old != new
            ]
            assert len(result.sentences) == len(story.sentences)
            assert len(diffs) <= 1
            if i % 4 == 2:
                assert result == story, "non-qualifying story must pass through"
                assert diffs == []
            else:
                assert len(diffs) == 1
                original = story.sentences[diffs[0]]
                strip_terminal_modifier(original, DEFAULT_TAGGER)  # must not raise
                assert "like a" in result.sentences[diffs[0]]
                replaced += 1
        assert replaced == sum(1 for i in range(50) if i % 4 != 2)
