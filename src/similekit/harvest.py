"""Ingestion: comment dumps to simile sets, sentence crawls to literal test sets.

Comments arrive as newline-delimited JSON records {id, body, subreddit,
created_utc}.  Bodies are sentence-split, parsed for the trigger phrase, and
deduplicated on lowercased punctuation-stripped text.  Pronoun-topic short
similes ("I feel like a fool") are retained deliberately; they are a known
small noise fraction, not an error.  Literal sentences keep a separate,
stricter contract: no comparator token at all and a modifier-final ending.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import random
import re
from dataclasses import dataclass, replace

from .core import (
    DEFAULT_TRIGGERS,
    LiteralSentence,
    SimileInstance,
    TriggerConfig,
    parse_simile,
    read_records,
    split_sentences,
    strip_terminal_modifier,
    write_jsonl,
)


@dataclass(frozen=True)
class RawComment:
    id: str
    body: str
    subreddit: str = ""
    created_utc: int = 0

    def __post_init__(self):
        if not self.body:
            raise ValueError("comment body must be non-empty")


@dataclass
class HarvestStats:
    malformed: int = 0
    duplicates: int = 0
    rejected: int = 0


class EmptyCorpus(ValueError):
    """split_corpus received no similes."""


@dataclass(frozen=True)
class CorpusSplit:
    train: list
    validation: list
    seed: int


def iter_comments(path, stats: HarvestStats | None = None):
    """Yield the NDJSON comment records in file order; malformed lines are counted and skipped."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                created = rec.get("created_utc", 0)
                comment = RawComment(
                    id=str(rec["id"]),
                    body=str(rec["body"]),
                    subreddit=str(rec.get("subreddit", "")),
                    # "1600000000.0" reads like the JSON number 1600000000.0.
                    created_utc=int(float(created) if isinstance(created, str) else created),
                )
            # JSONDecodeError is a ValueError; a record that is not an object has no .get.
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                if stats is not None:
                    stats.malformed += 1
                continue
            yield comment


def load_comments(path, stats: HarvestStats | None = None) -> list[RawComment]:
    return list(iter_comments(path, stats))


def dedup_key(text: str) -> str:
    return " ".join(re.sub(r"[^\w\s]", " ", text.lower()).split())


def harvest_similes(
    comments,
    cfg: TriggerConfig = DEFAULT_TRIGGERS,
    stats: HarvestStats | None = None,
) -> list[SimileInstance]:
    """Extract deduplicated simile sentences from a stream of comments.

    Of the similes sharing a dedup key, the one that comes first by
    (created_utc, id, arrival) is kept, arrival being the order of comments
    in the stream and of sentences in a comment, and the kept similes are
    returned in that order.  Output is thus fixed by (created_utc, id)
    regardless of stream order, so repeated harvests over the same records
    agree byte for byte.  Only the kept similes are held, never the comments.
    """
    # dedup key -> (created_utc, id, arrival number, simile)
    kept: dict[str, tuple] = {}
    arrival = itertools.count()
    for comment in comments:
        rank = (comment.created_utc, comment.id)
        for sentence in split_sentences(comment.body):
            inst = parse_simile(sentence, cfg)
            if inst is None:
                continue
            key = dedup_key(inst.raw_text)
            held = kept.get(key)
            if held is not None:
                if stats is not None:
                    stats.duplicates += 1
                if held[:2] <= rank:  # an earlier arrival wins a tie
                    continue
            kept[key] = (*rank, next(arrival), replace(inst, source_id=comment.id))
    entries = list(kept.values())
    del kept
    entries.sort()
    return [entry[3] for entry in entries]


def harvest_literals(sentences, tagger, stats: HarvestStats | None = None) -> list[LiteralSentence]:
    """Keep sentences with no comparator token whose final content token is adj/adv."""
    out = []
    for sentence in sentences:
        text = sentence.strip()
        if not text:
            continue
        try:
            stripped = strip_terminal_modifier(text, tagger)
            out.append(LiteralSentence(raw_text=text, prefix=stripped.prefix,
                                       property=stripped.property, pos_tag=stripped.pos_tag))
        except ValueError:  # NotModifierFinal, or LiteralSentence refusing a comparator token
            if stats is not None:
                stats.rejected += 1
    return out


def sample_literals(literals: list, n: int, seed: int) -> list:
    """Fixed-seed uniform sample without replacement; all items when n >= len."""
    if n >= len(literals):
        return list(literals)
    return random.Random(seed).sample(literals, n)


def split_corpus(similes: list, ratio, seed: int) -> CorpusSplit:
    """Seeded shuffle then split; train takes the ceiling of ratio * n.

    ratio may be a float or an exact Fraction; 0 < ratio < 1.
    """
    if not similes:
        raise EmptyCorpus("no similes to split")
    if not 0 < ratio < 1:
        raise ValueError("ratio must be strictly between 0 and 1")
    order = list(similes)
    random.Random(seed).shuffle(order)
    train_n = math.ceil(ratio * len(order))
    return CorpusSplit(train=order[:train_n], validation=order[train_n:], seed=seed)


# ---------------------------------------------------------------------------
# File formats


def write_similes_jsonl(instances: list[SimileInstance], path) -> None:
    write_jsonl(({"text": inst.raw_text, "prefix": inst.prefix, "vehicle": inst.vehicle,
                  "source_id": inst.source_id} for inst in instances), path)


@functools.lru_cache(maxsize=64)
def _check_comparator(comparator: str) -> None:
    """TriggerConfig rejects a comparator outside COMPARATORS; a file repeats a few of them."""
    TriggerConfig((comparator,))


def _simile_record(rec) -> SimileInstance:
    """Rebuild a simile from harvest's stored split; a text-only record is parsed."""
    text = rec["text"]
    if "prefix" not in rec:
        inst = parse_simile(text)
        if inst is None:
            raise ValueError("text does not parse as a simile")
        return replace(inst, source_id=rec.get("source_id", ""))
    prefix, vehicle = rec["prefix"], rec["vehicle"]
    inst = SimileInstance(text, prefix, text[len(prefix) : len(text) - len(vehicle)], vehicle,
                          rec.get("source_id", ""))
    _check_comparator(inst.comparator)
    return inst


def iter_similes_jsonl(path):
    """Yield the similes of a file harvest wrote, in file order."""
    return read_records(path, _simile_record)


def read_similes_jsonl(path) -> list[SimileInstance]:
    return list(iter_similes_jsonl(path))


def write_literals_jsonl(literals: list[LiteralSentence], path) -> None:
    write_jsonl(({"text": lit.raw_text, "property": lit.property} for lit in literals), path)


def read_literals_jsonl(path) -> list[dict]:
    return list(read_records(path, dict))
