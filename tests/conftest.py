"""Shared test worlds.

table2: three worked similes with a property table, a preference-mocked
scorer, and an inflection-fixing corrector; the expected best literals are
known strings.

toy: a 200-simile templated corpus over 10 vehicles x 5 properties each,
plus 50 held-out modifier-final literals, small enough to push through the
whole pipeline in seconds.

Every test must leave no child process behind, running or a zombie: a
backend's idle process, a fan-out worker or anything else it started.
"""

from __future__ import annotations

import os

import pytest

from similekit.core import parse_simile
from similekit.knowledge import EdgeTableBackend, KnowledgeEdge
from similekit.lm import BigramScorer, TemplateNgramModel, TrainConfig


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left():
    """After each test, this process has no child at all."""
    yield
    assert_no_child_left()


TABLE2 = [
    {
        "simile": "Love is like a unicorn.",
        "vehicle": "unicorn",
        "properties": ["very rare", "rare", "beautiful", "beautiful and smart", "color"],
        "best_property": "rare",
        "best_literal": "Love is rare.",
    },
    {
        "simile": "It was cool and quiet, and I stormed through like a charging bull.",
        "vehicle": "charging bull",
        "properties": ["big and strong", "dangerous", "big", "fast", "large"],
        "best_property": "fast",
        "best_literal": "It was cool and quiet, and I stormed through fast.",
    },
    {
        "simile": "Sir Francis's voice was calm and quiet, like a breeze through a forest.",
        "vehicle": "breeze through a forest",
        "properties": ["very relax", "soothe", "cool", "beautiful", "relax"],
        "best_property": "very relax",
        "best_literal": "Sir Francis's voice was calm and quiet, very relaxed.",
    },
]


class PreferenceScorer:
    """Assigns a low perplexity to chosen texts, a high one to everything else."""

    def __init__(self, preferred: set[str]):
        self.preferred = set(preferred)

    def perplexities(self, texts: list[str]) -> list[float]:
        return [1.0 if text in self.preferred else 100.0 for text in texts]


def fix_relax(text: str) -> str:
    return text.replace("very relax.", "very relaxed.")


@pytest.fixture(scope="session")
def table2_rows():
    return TABLE2


@pytest.fixture(scope="session")
def table2_corrector():
    return fix_relax


@pytest.fixture(scope="session")
def table2_backend():
    edges = []
    for row in TABLE2:
        for rank, prop in enumerate(row["properties"]):
            edges.append(KnowledgeEdge(row["vehicle"], prop, float(len(row["properties"]) - rank)))
    return EdgeTableBackend(edges)


@pytest.fixture(scope="session")
def table2_scorer():
    preferred = set()
    for row in TABLE2:
        prefix = parse_simile(row["simile"]).prefix
        preferred.add((prefix + " " + row["best_property"]).strip() + ".")
    return PreferenceScorer(preferred)


# ---------------------------------------------------------------------------
# Toy world

SUBJECTS = [
    "The river", "The castle", "Her voice", "His plan", "The night",
    "The garden", "The engine", "The crowd", "The storm", "My heart",
    "The road", "The letter", "Their song", "The mirror", "The valley",
    "His smile", "The market", "Her dress", "The forest", "The tower",
]

VEHICLE_PROPS = {
    "glacier": ["cold", "vast", "slow", "ancient", "pale"],
    "furnace": ["hot", "fierce", "bright", "loud", "red"],
    "feather": ["light", "soft", "gentle", "small", "delicate"],
    "fortress": ["strong", "solid", "safe", "tall", "grim"],
    "whisper": ["quiet", "soft", "gentle", "low", "calm"],
    "diamond": ["bright", "hard", "rare", "pure", "shiny"],
    "shadow": ["dark", "silent", "thin", "quick", "strange"],
    "meadow": ["green", "peaceful", "fresh", "wide", "still"],
    "hurricane": ["wild", "loud", "fast", "huge", "fierce"],
    "snail": ["slow", "small", "patient", "quiet", "steady"],
}


def toy_edges_text() -> str:
    lines = []
    for vehicle, props in VEHICLE_PROPS.items():
        for rank, prop in enumerate(props):
            lines.append(f"{vehicle}\t{prop}\t{float(len(props) - rank)}")
    return "\n".join(lines) + "\n"


def toy_simile_texts() -> list[str]:
    vehicles = list(VEHICLE_PROPS)
    return [f"{subj} was like a {veh}." for subj in SUBJECTS for veh in vehicles]


def toy_holdout_literals(n: int = 50) -> list[str]:
    props = [p for plist in VEHICLE_PROPS.values() for p in plist]
    verbs = ["seemed", "felt"]
    out = []
    for i in range(n):
        out.append(f"{SUBJECTS[i % len(SUBJECTS)]} {verbs[i % 2]} {props[i % len(props)]}.")
    return out


@pytest.fixture(scope="session")
def toy_world(tmp_path_factory):
    root = tmp_path_factory.mktemp("toy")
    edges_path = root / "edges.tsv"
    edges_path.write_text(toy_edges_text(), encoding="utf-8")
    simile_texts = toy_simile_texts()
    similes = [parse_simile(t) for t in simile_texts]
    assert all(similes)
    return {
        "root": root,
        "edges_path": str(edges_path),
        "simile_texts": simile_texts,
        "similes": similes,
        "holdout": toy_holdout_literals(),
        "vehicle_props": VEHICLE_PROPS,
    }


@pytest.fixture(scope="session")
def toy_pairs(toy_world):
    from similekit.corpus import build_parallel_corpus
    from similekit.knowledge import load_edge_table

    backend = load_edge_table(toy_world["edges_path"])
    scorer = BigramScorer(toy_world["simile_texts"])
    return build_parallel_corpus(toy_world["similes"], backend, scorer, k=5)


@pytest.fixture(scope="session")
def toy_model(toy_pairs):
    return TemplateNgramModel.train([(p.source, p.target) for p in toy_pairs],
                                    TrainConfig(seed=11))


@pytest.fixture(scope="session")
def pretrained_model(toy_world):
    """Stand-in for a generic pretrained LM: trained to reproduce similes."""
    pairs = [(t, t) for t in toy_world["simile_texts"]]
    return TemplateNgramModel.train(pairs, TrainConfig(seed=5))
