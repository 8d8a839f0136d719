"""Ingestion: comment dumps to simile sets, sentence crawls to literal test sets.

Comments arrive as newline-delimited JSON records {id, body, subreddit,
created_utc}.  Bodies are sentence-split, parsed for the trigger phrase, and
deduplicated on lowercased punctuation-stripped text.  Pronoun-topic short
similes ("I feel like a fool") are retained deliberately; they are a known
small noise fraction, not an error.  Literal sentences keep a separate,
stricter contract: no comparator token at all and a modifier-final ending.
"""

from __future__ import annotations

import itertools
import math
import random
import re
from typing import NamedTuple

from .core import (
    COMPARATORS,
    DEFAULT_TRIGGERS,
    Checked,
    LiteralSentence,
    SimileInstance,
    Slots,
    TriggerConfig,
    is_comparator,
    parse_simile,
    read_records,
    split_sentences,
    strip_terminal_modifier,
    text_of,
    write_jsonl,
)


class _CommentFields(NamedTuple):
    id: str
    body: str
    subreddit: str = ""
    created_utc: int = 0


class RawComment(Checked, _CommentFields):
    __slots__ = ()

    def __new__(cls, id, body, subreddit="", created_utc=0):
        if not body:
            raise ValueError("comment body must be non-empty")
        return tuple.__new__(cls, (id, body, subreddit, created_utc))


class HarvestStats(Slots):
    """Harvest's counts: malformed comment lines, duplicate similes, rejected literals."""

    __slots__ = ("malformed", "duplicates", "rejected")

    def __init__(self, malformed: int = 0, duplicates: int = 0, rejected: int = 0):
        self.malformed = malformed
        self.duplicates = duplicates
        self.rejected = rejected


class EmptyCorpus(ValueError):
    """split_corpus received no similes."""


class CorpusSplit(NamedTuple):
    train: list
    validation: list


def _comment_record(rec) -> RawComment:
    created = rec.get("created_utc", 0)  # a record that is not an object has no .get
    comment_id, body = rec["id"], rec["body"]
    if not isinstance(body, str):
        raise TypeError(f"'body' is {type(body).__name__}, not a string")
    if isinstance(comment_id, bool) or not isinstance(comment_id, (str, int)):
        raise TypeError(f"'id' is {type(comment_id).__name__}, not a string or an integer")
    return RawComment(
        id=str(comment_id),
        body=body,
        subreddit=str(rec.get("subreddit", "")),
        # "1600000000.0" reads like the JSON number 1600000000.0.
        created_utc=int(float(created) if isinstance(created, str) else created),
    )


def iter_comments(path, stats: HarvestStats | None = None):
    """Yield the NDJSON comment records in file order; malformed lines are counted and skipped."""
    if stats is None:
        stats = HarvestStats()

    def malformed(error) -> None:
        stats.malformed += 1

    return read_records(path, _comment_record, on_error=malformed)


def load_comments(path, stats: HarvestStats | None = None) -> list[RawComment]:
    return list(iter_comments(path, stats))


def dedup_key(text: str) -> str:
    return " ".join(re.sub(r"[^\w\s]", " ", text.lower()).split())


class HarvestedSimile(NamedTuple):
    """A kept simile as harvest holds it: its rank, its text and the split offsets.

    Rows sort by (created_utc, source_id, arrival).  `prefix`, `vehicle`,
    `raw_text` and `source_id` are what write_similes_jsonl reads, so rows
    are written as they are; instance() rebuilds the SimileInstance.
    """

    created_utc: int
    source_id: str
    arrival: int
    raw_text: str
    prefix_end: int
    vehicle_start: int

    @property
    def prefix(self) -> str:
        return self.raw_text[: self.prefix_end]

    @property
    def vehicle(self) -> str:
        return self.raw_text[self.vehicle_start :]

    def instance(self) -> SimileInstance:
        comparator = self.raw_text[self.prefix_end : self.vehicle_start]
        return SimileInstance(self.raw_text, self.prefix, comparator, self.vehicle, self.source_id)


def harvest_similes(
    comments,
    cfg: TriggerConfig = DEFAULT_TRIGGERS,
    stats: HarvestStats | None = None,
) -> list[HarvestedSimile]:
    """Extract deduplicated simile sentences from a stream of comments.

    Of the similes sharing a dedup key, the one that comes first by
    (created_utc, id, arrival) is kept, arrival being the order of comments
    in the stream and of sentences in a comment, and the kept similes are
    returned in that order.  Output is thus fixed by (created_utc, id)
    regardless of stream order, so repeated harvests over the same records
    agree byte for byte.  Only one compact row per kept simile is held,
    never the comments; `[row.instance() for row in rows]` gives the similes.
    """
    kept: dict[str, HarvestedSimile] = {}
    arrival = itertools.count()
    for comment in comments:
        rank = (comment.created_utc, comment.id)
        for sentence in split_sentences(comment.body):
            inst = parse_simile(sentence, cfg)
            if inst is None:
                continue
            key = dedup_key(sentence)
            held = kept.get(key)
            if held is not None:
                if stats is not None:
                    stats.duplicates += 1
                if held[:2] <= rank:  # an earlier arrival wins a tie
                    continue
            kept[key] = HarvestedSimile(*rank, next(arrival), sentence, len(inst.prefix),
                                        len(sentence) - len(inst.vehicle))
    rows = list(kept.values())
    del kept
    rows.sort()
    return rows


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
                                       property=stripped.property))
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
    return CorpusSplit(train=order[:train_n], validation=order[train_n:])


# ---------------------------------------------------------------------------
# File formats


def write_similes_jsonl(instances, path) -> None:
    """Write SimileInstances or HarvestedSimile rows, one JSON record each."""
    write_jsonl(({"text": inst.raw_text, "prefix": inst.prefix, "vehicle": inst.vehicle,
                  "source_id": inst.source_id} for inst in instances), path)


def simile_record(rec) -> SimileInstance:
    """Rebuild a simile from harvest's stored split; a text-only record is parsed."""
    text = text_of(rec)
    if "prefix" not in rec:
        inst = parse_simile(text)
        if inst is None:
            raise ValueError("text does not parse as a simile")
        return inst._replace(source_id=rec.get("source_id", ""))
    prefix, vehicle = rec["prefix"], rec["vehicle"]
    inst = SimileInstance(text, prefix, text[len(prefix) : len(text) - len(vehicle)], vehicle,
                          rec.get("source_id", ""))
    if not is_comparator(inst.comparator):
        raise ValueError(f"comparator {inst.comparator!r} is not one of {COMPARATORS}")
    return inst


def read_similes_jsonl(path) -> list[SimileInstance]:
    """The similes of a file harvest wrote, in file order."""
    return list(read_records(path, simile_record))


def write_literals_jsonl(literals: list[LiteralSentence], path) -> None:
    write_jsonl(({"text": lit.raw_text, "property": lit.property} for lit in literals), path)


def _literal_record(rec) -> dict:
    text_of(rec)  # a literal is generated from its text
    return rec


def read_literals_jsonl(path) -> list[dict]:
    """The literal records of a file, each with a string `text`."""
    return list(read_records(path, _literal_record))
