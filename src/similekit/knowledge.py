"""Commonsense property lookup in both directions.

Corpus construction asks vehicle -> top-k HasProperty properties, for a run
of vehicles at a time; the retrieval baseline asks property -> best vehicle,
with a synonym fallback.  Backends are interchangeable for the forward
lookup: a static weighted edge table (used by every test) or a remote adapter
speaking the JSON contract {concept, relation: "HasProperty", k} ->
[{text, score}, ...].  The reverse lookup, best_concept_for, needs the edge
table; the remote adapter has none.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .backends import BackendUnavailable, JsonSubprocessBackend, reply_field
from .core import Checked, fold, read_records


class _CandidateFields(NamedTuple):
    text: str
    score: float


class PropertyCandidate(Checked, _CandidateFields):
    __slots__ = ()

    def __new__(cls, text, score):
        if not text:
            raise ValueError("property text must be non-empty")
        if not math.isfinite(score):
            raise ValueError(f"property score must be finite, got {score}")
        return tuple.__new__(cls, (text, score))


class _EdgeFields(NamedTuple):
    concept: str
    property: str
    weight: float


class KnowledgeEdge(Checked, _EdgeFields):
    __slots__ = ()

    def __new__(cls, concept, property, weight):
        if not concept.strip() or not property.strip():
            raise ValueError("empty concept or property")
        if not 0 < weight < math.inf:
            raise ValueError(f"edge weight must be positive and finite, got {weight}")
        return tuple.__new__(cls, (concept, property, weight))


class EdgeTableBackend:
    """Immutable in-memory edge store indexed by concept and by property."""

    def __init__(self, edges: list[KnowledgeEdge]):
        # Duplicate (concept, property) rows collapse to their max weight.
        best: dict[tuple[str, str], float] = {}
        for e in edges:
            key = (fold(e.concept), fold(e.property))
            if key not in best or e.weight > best[key]:
                best[key] = e.weight
        self.by_concept: dict[str, list[PropertyCandidate]] = {}
        # Per property, the max-weight edge as (-weight, concept); a tie goes to the least concept.
        self.by_property: dict[str, tuple[float, str]] = {}
        for (concept, prop), weight in best.items():
            self.by_concept.setdefault(concept, []).append(PropertyCandidate(prop, weight))
            row = (-weight, concept)
            self.by_property[prop] = min(row, self.by_property.get(prop, row))
        for cands in self.by_concept.values():
            cands.sort(key=lambda c: (-c.score, c.text))

    def properties_of(self, concept: str, k: int) -> list[PropertyCandidate]:
        return self.by_concept.get(fold(concept), [])[:k]

    def properties_of_each(self, concepts: list[str], k: int) -> list[list[PropertyCandidate]]:
        """properties_of for each concept, each distinct one looked up once."""
        found = {concept: self.properties_of(concept, k) for concept in set(concepts)}
        return [found[concept] for concept in concepts]

    def best_concept_for(self, prop: str) -> str | None:
        row = self.by_property.get(fold(prop))
        return row[1] if row else None


class RemoteKnowledgeBackend:
    """Adapter for an out-of-process HasProperty model; forward lookup only.

    A batch of concepts sends each distinct concept once, the requests side
    by side (JsonSubprocessBackend.call_many), and maps the answers back.
    """

    def __init__(self, command: list[str]):
        self.backend = JsonSubprocessBackend(command)

    def properties_of(self, concept: str, k: int) -> list[PropertyCandidate]:
        return self.properties_of_each([concept], k)[0]

    def properties_of_each(self, concepts: list[str], k: int) -> list[list[PropertyCandidate]]:
        def read(reply) -> list[PropertyCandidate]:
            if not isinstance(reply, list):
                raise TypeError("reply is not a list")
            cands = [PropertyCandidate(reply_field(row, "text", str),
                                       reply_field(row, "score", float)) for row in reply]
            cands.sort(key=lambda c: (-c.score, c.text))
            return cands[:k]

        distinct = list(dict.fromkeys(concepts))
        requests = [{"concept": c, "relation": "HasProperty", "k": k} for c in distinct]
        answers = dict(zip(distinct, self.backend.call_many(requests, read)))
        return [answers[concept] for concept in concepts]


def load_edge_table(path) -> EdgeTableBackend:
    """Load TSV rows concept<TAB>property<TAB>weight into an edge table."""
    return EdgeTableBackend(read_records(
        path, lambda concept, prop, weight: KnowledgeEdge(concept, prop, float(weight)), fields=3))


def _synonym_row(word: str, syn: str) -> tuple[str, str]:
    word, syn = fold(word), fold(syn)
    if not word or not syn:
        raise ValueError("empty word or synonym")
    return word, syn


class SynonymTable:
    """word<TAB>synonym rows; lookup returns synonyms in file order, deduped."""

    def __init__(self, mapping: dict[str, list[str]] | None = None):
        self.mapping = {fold(k): list(v) for k, v in (mapping or {}).items()}

    @classmethod
    def load(cls, path) -> "SynonymTable":
        mapping: dict[str, list[str]] = {}
        for word, syn in read_records(path, _synonym_row, fields=2):
            bucket = mapping.setdefault(word, [])
            if syn not in bucket:
                bucket.append(syn)
        return cls(mapping)

    def synonyms_of(self, word: str) -> list[str]:
        return list(self.mapping.get(fold(word), []))


EMPTY_SYNONYMS = SynonymTable()


def _in_score_order(cands: list[PropertyCandidate], k: int) -> list[PropertyCandidate]:
    if any(cands[i].score < cands[i + 1].score for i in range(len(cands) - 1)):
        raise BackendUnavailable("backend returned properties out of score order")
    return cands[:k]


def properties_of(vehicle: str, k: int, backend) -> list[PropertyCandidate]:
    """Top-k properties of a concept, descending score; fewer when unknown."""
    if k < 1:
        raise ValueError("k must be >= 1")
    return _in_score_order(backend.properties_of(vehicle, k), k)


def properties_of_each(vehicles: list[str], k: int, backend) -> list[list[PropertyCandidate]]:
    """properties_of for each vehicle, in order, from one call of the backend's
    properties_of_each."""
    if k < 1:
        raise ValueError("k must be >= 1")
    found = backend.properties_of_each(vehicles, k)
    if len(found) != len(vehicles):
        raise BackendUnavailable(f"backend answered {len(found)} of {len(vehicles)} concepts")
    # A backend answers the repeats of a vehicle with one list, checked once.
    distinct = {id(cands): cands for cands in found}
    checked = {key: _in_score_order(cands, k) for key, cands in distinct.items()}
    return [checked[id(cands)] for cands in found]


def vehicle_for_property(prop: str, backend, synonym_backend=EMPTY_SYNONYMS) -> str | None:
    """Concept of the max-weight edge for a property, trying synonyms on miss."""
    if not prop or not prop.strip():
        raise ValueError("property must be non-empty")
    for name in (prop, *synonym_backend.synonyms_of(prop)):
        hit = backend.best_concept_for(name)
        if hit is not None:
            return hit
    return None
