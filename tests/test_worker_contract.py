"""The remote adapters against perfbench/worker.py, the benchmark's stdlib worker.

The worker answers from similekit's in-process reference implementations, so
each answer that crosses the process boundary must equal the in-process one
exactly.  A change to an adapter's request or reply shape fails here instead
of only in a remote-backend benchmark run.  The worker is run by path and
never modified.
"""

import sys
from pathlib import Path

import pytest

from similekit.harvest import write_similes_jsonl
from similekit.knowledge import RemoteKnowledgeBackend, load_edge_table
from similekit.lm import (
    BigramScorer,
    GenerationConfig,
    RemoteModel,
    RemoteScorer,
    TemplateNgramModel,
    generate,
    perplexity,
)

ROOT = Path(__file__).resolve().parents[1]
WORKER = ROOT / "perfbench" / "worker.py"


@pytest.fixture()
def world(tmp_path, monkeypatch, toy_world):
    monkeypatch.setenv("PYTHONPATH", str(ROOT / "src"))
    similes = tmp_path / "similes.jsonl"
    write_similes_jsonl(toy_world["similes"][:20], similes)
    command = [sys.executable, str(WORKER), "--edges", toy_world["edges_path"],
               "--scorer-train", str(similes)]
    return {"command": command, "edges": toy_world["edges_path"],
            "texts": toy_world["simile_texts"][:20]}


@pytest.mark.parametrize("concept", ["glacier", "Hurricane", "zamboni"])
def test_properties_equal_edge_table(world, concept):
    remote = RemoteKnowledgeBackend(world["command"]).properties_of(concept, 3)
    assert remote == load_edge_table(world["edges"]).properties_of(concept, 3)


def test_batched_lookup_equals_edge_table(world):
    concepts = ["glacier", "Hurricane", "glacier", "zamboni", "hurricane", "Hurricane"]
    remote = RemoteKnowledgeBackend(world["command"]).properties_of_each(concepts, 3)
    assert remote == load_edge_table(world["edges"]).properties_of_each(concepts, 3)
    assert remote[0] and remote[1]


@pytest.mark.parametrize("text", ["The river was cold.", "Her voice was zzz quiet."])
def test_perplexity_equals_bigram_scorer(world, text):
    remote = perplexity(text, RemoteScorer(world["command"]))
    assert remote == perplexity(text, BigramScorer(world["texts"]))


def test_generate_equals_loaded_model(world, tmp_path, toy_model, toy_world):
    model_dir = tmp_path / "model"
    toy_model.save(str(model_dir))
    cfg = GenerationConfig(max_new_tokens=16, seed=3, top_k=5, temperature=0.7)
    remote = RemoteModel(world["command"], str(model_dir))
    local = TemplateNgramModel.load(str(model_dir))
    for literal in toy_world["holdout"][:2]:
        assert generate(literal, cfg, remote) == generate(literal, cfg, local)
