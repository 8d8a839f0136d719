"""Ingestion: comment dumps to simile sets, sentence crawls to literal test sets.

Comments arrive as newline-delimited JSON records {id, body, subreddit,
created_utc}.  Bodies are sentence-split, parsed for the trigger phrase, and
deduplicated on lowercased punctuation-stripped text.  Pronoun-topic short
similes ("I feel like a fool") are retained deliberately; they are a known
small noise fraction, not an error.  Literal sentences keep a separate,
stricter contract: no comparator token at all and a modifier-final ending.
"""

from __future__ import annotations

import heapq
import json
import math
import operator
import random
import re
from array import array
from collections.abc import Sequence
from itertools import accumulate, compress, count, islice
from typing import NamedTuple

from . import core
from .core import (
    DEFAULT_TRIGGERS,
    TEXT_ENCODING,
    Checked,
    LiteralSentence,
    RecordRuns,
    SimileInstance,
    Slots,
    Spool,
    TriggerConfig,
    atomic_open,
    fan_out,
    json_line,
    parse_simile,
    read_records,
    split_sentences,
    strip_terminal_modifier,
    write_jsonl,
)

# The readers of the files harvest writes live in core, so that build-corpus and
# generate read them without loading this module; they stay importable from here.
read_literals_jsonl, read_similes_jsonl, simile_record = (
    core.read_literals_jsonl, core.read_similes_jsonl, core.simile_record)


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
    train: Sequence
    validation: Sequence


def _comment_record(rec) -> RawComment:
    created = rec.get("created_utc", 0)  # a record that is not an object has no .get
    comment_id, body = rec["id"], rec["body"]
    if not isinstance(body, str):
        raise TypeError(f"'body' is {type(body).__name__}, not a string")
    if isinstance(comment_id, bool) or not isinstance(comment_id, (str, int)):
        raise TypeError(f"'id' is {type(comment_id).__name__}, not a string or an integer")
    if isinstance(created, bool):  # int(True) would read as 1
        raise TypeError("'created_utc' is bool, not a number or a numeric string")
    # "1600000000.0" reads like the JSON number 1600000000.0.
    created = int(float(created) if isinstance(created, str) else created)
    if not -1 << 63 <= created < 1 << 63:  # harvest holds it in an array("q")
        raise OverflowError("'created_utc' does not fit 64 bits")
    return RawComment(
        id=str(comment_id),
        body=body,
        subreddit=str(rec.get("subreddit", "")),
        created_utc=created,
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


_PUNCT = re.compile(r"[^\w\s]")


def dedup_key(text: str) -> str:
    return " ".join(_PUNCT.sub(" ", text.lower()).split())


class HarvestedSimile(NamedTuple):
    """A kept simile as harvest_similes gives it: its rank, its text and the split offsets.

    harvest_similes holds no HarvestedSimile: its sequence builds one from a
    simile's line each time an item is read.  `prefix`, `vehicle`, `raw_text`
    and `source_id` are what write_similes_jsonl writes of any other simile,
    so rows are written as they are; instance() rebuilds the SimileInstance.
    """

    created_utc: int
    source_id: str
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


# Rows per block in _Columns.ranked: a block is int objects while it is sorted,
# then 4 bytes a row until the blocks are merged.
RANK_BLOCK = 4096

# A simile's slot is its key's hash cut to 30 bits, so that it fits an array("i").
_SLOT_MASK = (1 << 30) - 1


def _simile_line(text: str, prefix: str, vehicle: str, source_id: str) -> bytes:
    """A simile's line of similes.jsonl, as write_similes_jsonl writes it."""
    return json_line({"text": text, "prefix": prefix, "vehicle": vehicle,
                      "source_id": source_id}).encode(*TEXT_ENCODING)


class _Run(NamedTuple):
    """One run's similes as a fan-out worker sends them, in file order.

    `text` joins each simile's similes.jsonl line (_simile_line).  `length`
    counts each line's bytes in an array("i"), so a line of 2**31 bytes
    raises OverflowError; `created` is an array("q") (see _comment_record).
    """

    text: bytes
    length: array
    created: array
    hashes: array
    malformed: int


class _Columns:
    """The similes harvest_similes holds, in arrival order: their lines in a spool
    (core.Spool), not in memory, and one fixed-width row for each simile, kept or
    dropped since the last keep(), in an array per field.  A row's line is read back
    from the spool when it is written or a row is built from it."""

    __slots__ = ("spool", "offset", "length", "created", "hashes")
    # A row's line is the length bytes at its offset in the spool.
    _ROW_FIELDS = ("offset", "length", "created", "hashes")

    def __init__(self):
        self.spool = Spool()
        self.offset, self.created = array("q"), array("q")
        self.length, self.hashes = array("i"), array("i")

    def add(self, run: _Run) -> None:
        if not run.length:
            return
        self.offset.extend(accumulate(run.length[:-1], initial=self.spool.append(run.text)))
        for name in self._ROW_FIELDS[1:]:  # the fields a run sends as they are
            getattr(self, name).extend(getattr(run, name))

    def keep(self, alive: bytearray) -> None:
        """Drop each row whose byte in alive is 0; the rest keep their order and are
        numbered from 0 again.  The spool is left as it is."""
        for name in self._ROW_FIELDS:
            column = getattr(self, name)
            setattr(self, name, array(column.typecode, compress(column, alive)))

    def line(self, row: int) -> bytes:
        """The row's similes.jsonl line, one exact-length read from the spool."""
        return self.spool.read(self.length[row], self.offset[row])

    def row(self, row: int) -> HarvestedSimile:
        rec = json.loads(self.line(row))
        text = rec["text"]
        return HarvestedSimile(self.created[row], rec["source_id"], text, len(rec["prefix"]),
                               len(text) - len(rec["vehicle"]))

    def ranked(self, alive: bytearray) -> array:
        """The rows whose byte in alive is 1, by (created_utc, source_id, row), in an array("i")."""
        # The rows are sorted by created_utc RANK_BLOCK at a time, each block kept as an
        # array("i"), and the blocks merged: not an int object per row at once.  Both
        # steps are stable, so rows of one created_utc stay in arrival order, and only
        # those rare rows are sorted by id.
        created = self.created.__getitem__
        rows = compress(count(), alive)
        order = array("i", heapq.merge(*[array("i", block) for block in iter(
            lambda: sorted(islice(rows, RANK_BLOCK), key=created), [])], key=created))
        ties = list(compress(count(1), map(operator.eq, map(created, islice(order, 1, None)),
                                           map(created, order))))
        end = 0
        for tie in ties:  # order[tie] has the created_utc of order[tie - 1]
            if tie >= end:  # the second row of a group, which is in arrival order
                start, end = tie - 1, tie + 1
                while end < len(order) and created(order[end]) == created(order[start]):
                    end += 1
                order[start:end] = array("i", sorted(order[start:end],
                                                     key=lambda row: self.row(row).source_id))
        return order


class HarvestRows(Sequence):
    """The similes harvest_similes keeps, in output order: a read-only sequence of
    HarvestedSimile, each built from harvest's columns when it is read.

    It supports len, indexing, slicing (another HarvestRows), iteration and
    ==, which compares the items with those of any other sequence.
    """

    __slots__ = ("_columns", "_order")

    def __init__(self, columns: _Columns, order: array):
        self._columns, self._order = columns, order

    def __len__(self) -> int:
        return len(self._order)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return HarvestRows(self._columns, self._order[index])
        return self._columns.row(self._order[index])

    def __iter__(self):
        return map(self._columns.row, self._order)

    def __eq__(self, other):
        if not isinstance(other, Sequence) or isinstance(other, str):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def __repr__(self) -> str:
        return f"HarvestRows({list(self)!r})"

    def take(self, positions) -> HarvestRows:
        """The items at these positions, in their order, over the same columns."""
        return HarvestRows(self._columns, array("i", map(self._order.__getitem__, positions)))


def _table(rows, hashes: array, size: int) -> array:
    """A table of size slots (a power of 2), each row in the first free slot from its hash."""
    table = array("i", [-1]) * size
    mask = size - 1
    for row in rows:
        slot = hashes[row] & mask
        while table[slot] >= 0:
            slot = (slot + 1) & mask
        table[slot] = row
    return table


def _alive(slots: array, rows: int) -> bytearray:
    """A byte per row of rows rows: 1 for each row a slot holds, 0 for the rest."""
    alive = bytearray(rows)
    for row in slots:
        if row >= 0:
            alive[row] = 1
    return alive


def harvest_similes(
    path,
    cfg: TriggerConfig = DEFAULT_TRIGGERS,
    stats: HarvestStats | None = None,
) -> HarvestRows:
    """The deduplicated simile sentences of a comment dump, read with core.fan_out.

    Of the similes sharing a dedup key, the one that comes first by
    (created_utc, id, arrival) is kept, arrival being the order of comments
    in the file and of sentences in a comment, and the kept similes are
    returned in that order.  Output is thus fixed by (created_utc, id)
    regardless of file order, so repeated harvests over the same records
    agree byte for byte.  Worker processes decode the comments, split and
    parse them, hash each simile's dedup key and encode its line of
    similes.jsonl; each sends its run back as columns (_Run).  This process
    appends every run's lines to a spool (core.Spool, a temporary file) and
    a fixed-width row per simile to its own columns: the spool offset and
    length of its line, its created_utc and its key's hash, 24 bytes in
    all.  It applies the dedup rule run by run, in file order, through an
    open-addressing table of row numbers: a simile's slot comes from its
    key's hash (cut to 30 bits), a held simile of the same hash is checked
    against the keys of the texts, read back from the spool, and a
    different key there moves on to the next slot, so a collision drops no
    simile.  An earlier-ranked duplicate takes the slot of the row it
    replaces.  When a run leaves more dropped rows than held ones, the
    dropped rows are cut from the columns, so memory follows the similes
    kept, not the duplicates read.  The result is a HarvestRows, which
    reads its rows' lines from the spool; `[row.instance() for row in
    rows]` gives the similes.  Malformed lines (a created_utc outside the
    signed 64-bit range among them) and duplicates are counted in stats.
    """
    if stats is None:
        stats = HarvestStats()
    malformed = 0  # of the run being parsed, in the process that parses it

    def skip(error) -> None:
        nonlocal malformed
        malformed += 1

    def parse(comments) -> _Run:
        nonlocal malformed
        malformed = 0
        lines, length, created, hashes = [], array("i"), array("q"), array("i")
        for comment in comments:
            for sentence in split_sentences(comment.body):
                inst = parse_simile(sentence, cfg)
                if inst is not None:
                    hashes.append(hash(dedup_key(sentence)) & _SLOT_MASK)
                    line = _simile_line(sentence, inst.prefix, inst.vehicle, comment.id)
                    lines.append(line)
                    length.append(len(line))
                    created.append(comment.created_utc)
        return _Run(b"".join(lines), length, created, hashes, malformed)

    columns = _Columns()
    slots = array("i", [-1]) * 8  # a row number, or -1; at most half of them held
    held_count = 0
    for run in fan_out(RecordRuns(path, _comment_record, on_error=skip), parse):
        stats.malformed += run.malformed
        first = len(columns.hashes)
        columns.add(run)
        hashes = columns.hashes
        for row in range(first, len(hashes)):
            mask, wanted, simile = len(slots) - 1, hashes[row], None
            slot = wanted & mask
            while (held := slots[slot]) >= 0:
                if hashes[held] == wanted:
                    if simile is None:
                        simile = columns.row(row)
                        key = dedup_key(simile.raw_text)
                    kept = columns.row(held)
                    if dedup_key(kept.raw_text) == key:
                        break
                slot = (slot + 1) & mask  # another key took this slot first
            else:
                slots[slot] = row
                held_count += 1
                if 2 * held_count > len(slots):
                    slots = _table((row for row in slots if row >= 0), hashes, 2 * len(slots))
                continue
            stats.duplicates += 1
            if simile[:2] < kept[:2]:  # (created_utc, source_id); a tie keeps the earlier
                slots[slot] = row
        if len(hashes) > 2 * held_count:  # more dropped rows than held ones
            columns.keep(_alive(slots, len(hashes)))
            slots = _table(range(held_count), columns.hashes, len(slots))
    return HarvestRows(columns, columns.ranked(_alive(slots, len(columns.hashes))))


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


def split_corpus(similes: Sequence, ratio, seed: int) -> CorpusSplit:
    """Seeded shuffle then split; train takes the ceiling of ratio * n.

    ratio may be a float or an exact Fraction; 0 < ratio < 1.  HarvestRows
    split into two HarvestRows over the same columns, any other sequence
    into two lists.
    """
    if not similes:
        raise EmptyCorpus("no similes to split")
    if not 0 < ratio < 1:
        raise ValueError("ratio must be strictly between 0 and 1")
    # Shuffling positions permutes them as shuffling the similes would.
    order = array("i", range(len(similes)))
    random.Random(seed).shuffle(order)
    train_n = math.ceil(ratio * len(order))
    if isinstance(similes, HarvestRows):
        take = similes.take
    else:
        def take(positions):
            return [similes[i] for i in positions]
    return CorpusSplit(train=take(order[:train_n]), validation=take(order[train_n:]))


# ---------------------------------------------------------------------------
# File formats


def write_similes_jsonl(instances, path) -> None:
    """Write SimileInstances or HarvestedSimile rows, one JSON record each.  A
    HarvestRows's lines are copied from harvest's spool, each in one read of its
    length, so each simile it holds was encoded once, by the worker that parsed it."""
    with atomic_open(path, binary=True) as out:
        if isinstance(instances, HarvestRows):
            out.writelines(map(instances._columns.line, instances._order))
        else:
            out.writelines(_simile_line(inst.raw_text, inst.prefix, inst.vehicle,
                                        inst.source_id) for inst in instances)


def write_literals_jsonl(literals: list[LiteralSentence], path) -> None:
    write_jsonl(({"text": lit.raw_text, "property": lit.property} for lit in literals), path)
