"""Automatic metrics over extracted vehicles plus human-score aggregation.

Vehicle BLEU is corpus-level modified n-gram precision with a brevity
penalty and no smoothing by default (a flag adds add-one smoothing, since
BLEU-2 on tiny corpora collapses without it).  The embedding score is greedy
token matching under any token embedder; with a one-hot embedder it reduces
to token-overlap F1.  Novelty is the fraction of generated (property,
vehicle) pairs unseen in training.  Score sheets carry 1-5 ratings on four
criteria (C, R1, R2, OQ); pairwise comparison averages raters per item and
counts strict wins.
"""

from __future__ import annotations

import csv
import math
from collections import Counter
from typing import NamedTuple

from .core import (
    CRITERIA,
    LINE_ERRORS,
    Checked,
    NotModifierFinal,
    ParseError,
    Slots,
    extract_generated_vehicle,
    float_sum,
    is_word,
    read_records,
    rstrip_punct,
    string,
    strings,
    strip_terminal_modifier,
    tokenize,
    utf8_lines,
)


class LengthMismatch(ValueError):
    """Candidate and reference lists must align one to one."""


class EmptyGenerated(ValueError):
    """Novelty is undefined over zero generated pairs."""


class MissingItem(KeyError):
    def __init__(self, items):
        self.items = sorted(items)
        super().__init__(f"items scored for one system only: {self.items}")


# ---------------------------------------------------------------------------
# Vehicle BLEU


def _ngrams(tokens: list[str], n: int) -> Counter:
    return Counter(tuple(tokens[i : i + n]) for i in range(len(tokens) - n + 1))


def vehicle_bleu(
    candidates: list[list[str]],
    references: list[list[list[str]]],
    n: int = 1,
    smoothing: bool = False,
) -> float:
    """Corpus-level BLEU-n over already-extracted vehicle token lists.

    Per order i <= n: p_i = clipped matches / candidate n-gram total, add-one
    smoothed to (m+1)/(t+1) when the flag is set.  Empty candidates contribute
    zero matches but still count toward the brevity penalty via their best
    reference length.  Returns 0.0 when the candidate corpus has no tokens or
    any unsmoothed p_i is zero.
    """
    if n not in (1, 2):
        raise ValueError("n must be 1 or 2")
    if len(candidates) != len(references):
        raise LengthMismatch(
            f"{len(candidates)} candidates vs {len(references)} reference sets"
        )
    matches = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, references):
        if not refs:
            raise ValueError("every candidate needs at least one reference")
        cand_len += len(cand)
        # Closest reference length; ties prefer the shorter reference.
        ref_len += min((abs(len(r) - len(cand)), len(r)) for r in refs)[1]
        for i in range(1, n + 1):
            cand_counts = _ngrams(cand, i)
            totals[i - 1] += max(0, len(cand) - i + 1)
            if not cand_counts:
                continue
            max_ref: Counter = Counter()
            for ref in refs:
                max_ref |= _ngrams(ref, i)  # the largest count of each n-gram
            matches[i - 1] += sum(
                min(count, max_ref[gram]) for gram, count in cand_counts.items()
            )
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matches, totals):
        if smoothing:
            p = (m + 1) / (t + 1)
        else:
            p = m / t if t > 0 else 0.0
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    bp = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return bp * math.exp(log_sum / n)


# ---------------------------------------------------------------------------
# Embedding F1 (greedy matching)


class OneHotEmbedder:
    """Identity embedding; cosine is 1 for equal tokens, else 0."""

    def embed(self, token: str) -> dict[str, float]:
        return {token: 1.0}


class CharNgramEmbedder:
    """Sparse character bigram counts of #token#; related word forms get nonzero cosine."""

    def embed(self, token: str) -> dict[str, float]:
        padded = f"#{token.lower()}#"
        vec: dict[str, float] = {}
        for i in range(len(padded) - 1):
            gram = padded[i : i + 2]
            vec[gram] = vec.get(gram, 0.0) + 1.0
        return vec


def _unit(vec: dict[str, float]) -> dict[str, float]:
    norm = math.sqrt(float_sum(v * v for v in vec.values()))
    if norm == 0:
        return {}
    return {k: v / norm for k, v in vec.items()}


def _cosine(a: dict[str, float], b: dict[str, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    return float_sum(v * b.get(k, 0.0) for k, v in a.items())


def embedding_f1(candidate: str, references: list[str], embedder) -> float:
    """Greedy-matching token F1 under the embedder; max over references.

    Empty candidates score 0.0 by convention.
    """
    cand_tokens = tokenize(candidate)
    if not cand_tokens:
        return 0.0
    cand_vecs = [_unit(embedder.embed(t)) for t in cand_tokens]
    best = 0.0
    for reference in references:
        ref_tokens = tokenize(reference)
        if not ref_tokens:
            continue
        ref_vecs = [_unit(embedder.embed(t)) for t in ref_tokens]
        recall = float_sum(max(_cosine(r, c) for c in cand_vecs) for r in ref_vecs) / len(ref_vecs)
        precision = (float_sum(max(_cosine(c, r) for r in ref_vecs) for c in cand_vecs)
                     / len(cand_vecs))
        f1 = 0.0 if precision + recall == 0 else 2 * precision * recall / (precision + recall)
        if f1 > best:
            best = f1
    return best


# ---------------------------------------------------------------------------
# Novelty


def normalize_pair(pair: tuple[str, str]) -> tuple[str, str]:
    """Lowercase, tokenize, drop trailing punctuation, single-space join."""
    return tuple(" ".join(rstrip_punct(tokenize(part.lower()))) for part in pair)


def novelty(generated: list[tuple[str, str]], training) -> float:
    """Fraction of generated (property, vehicle) pairs absent from training."""
    return unseen_fraction(generated, {normalize_pair(p) for p in training})


def unseen_fraction(generated: list[tuple[str, str]], seen) -> float:
    """novelty against training pairs already normalized, e.g. shared by many batches."""
    if not generated:
        raise EmptyGenerated("no generated pairs")
    absent = sum(1 for p in generated if normalize_pair(p) not in seen)
    return absent / len(generated)


# ---------------------------------------------------------------------------
# Human score sheets


class ScoreRow(Slots):
    """One rating, checked when made.

    A slots class, not a named tuple: the score-sheet statistics read a named
    tuple's fields more slowly, and they read every field of every rating.
    """

    __slots__ = ("item_id", "system", "rater_id", "criterion", "score")

    def __init__(self, item_id: str, system: str, rater_id: str, criterion: str, score: int):
        if criterion not in CRITERIA:
            raise ValueError(f"criterion must be one of {CRITERIA}, got {criterion!r}")
        if not isinstance(score, int) or not 1 <= score <= 5:
            raise ValueError(f"score must be an integer in 1..5, got {score!r}")
        self.item_id = item_id
        self.system = system
        self.rater_id = rater_id
        self.criterion = criterion
        self.score = score


class ScoreSheet(Slots):
    __slots__ = ("rows",)

    def __init__(self, rows: list[ScoreRow] | None = None):
        self.rows = [] if rows is None else rows

    def add(self, item_id, system, rater_id, criterion, score) -> None:
        self.rows.append(ScoreRow(str(item_id), str(system), str(rater_id), criterion, int(score)))

    @classmethod
    def load_csv(cls, path) -> "ScoreSheet":
        """Columns by header name, as csv.DictReader finds them: blank rows are
        skipped, and a row shorter than the header is a ParseError."""
        sheet = cls()
        reader = csv.reader(utf8_lines(path, newline=""))
        header = next(reader, [])
        column = {name: i for i, name in enumerate(header)}
        for row in reader:
            if not row:
                continue
            try:
                if len(row) < len(header):
                    raise ValueError(f"expected {len(header)} fields, got {len(row)}")
                sheet.add(row[column["item_id"]], row[column["system"]], row[column["rater_id"]],
                          row[column["criterion"]], row[column["score"]])
            except LINE_ERRORS as exc:
                raise ParseError(path, reader.line_num, exc) from exc
        return sheet


def _item_means(sheet: ScoreSheet, system: str, criterion: str) -> dict[str, float]:
    scores: dict[str, list[int]] = {}
    for r in sheet.rows:
        if r.system == system and r.criterion == criterion:
            scores.setdefault(r.item_id, []).append(r.score)
    return {item: sum(v) / len(v) for item, v in scores.items()}


def pairwise_compare(
    sheet: ScoreSheet, system_a: str, system_b: str, criterion: str
) -> tuple[float, float, float]:
    """(win%, lose%, tie%) for A vs B: per-item rater means, strict comparison."""
    means_a = _item_means(sheet, system_a, criterion)
    means_b = _item_means(sheet, system_b, criterion)
    if not means_a and not means_b:
        raise ValueError(f"no items scored on criterion {criterion!r}")
    for system, means in ((system_a, means_a), (system_b, means_b)):
        if not means:
            raise ValueError(f"system {system!r} has no scores on criterion {criterion!r}")
    if set(means_a) != set(means_b):
        raise MissingItem(set(means_a) ^ set(means_b))
    wins = sum(mean_a > means_b[item] for item, mean_a in means_a.items())
    loses = sum(mean_a < means_b[item] for item, mean_a in means_a.items())
    total = len(means_a)
    ties = total - wins - loses
    return (100.0 * wins / total, 100.0 * loses / total, 100.0 * ties / total)


def mean_scores(sheet: ScoreSheet) -> dict[tuple[str, str], float]:
    """Arithmetic mean over all ratings, keyed by (system, criterion)."""
    buckets: dict[tuple[str, str], list[int]] = {}
    for r in sheet.rows:
        buckets.setdefault((r.system, r.criterion), []).append(r.score)
    return {key: sum(v) / len(v) for key, v in buckets.items()}


def _squared_differences(vals: list[int]) -> int:
    """Sum of (a - b) ** 2 over all ordered pairs, in linear time.

    The identity 2n * sum(v ** 2) - 2 * sum(v) ** 2 is exact on integer
    scores, so the result equals the quadratic double loop bit for bit.
    """
    return 2 * len(vals) * sum(v * v for v in vals) - 2 * sum(vals) ** 2


def krippendorff_alpha(sheet: ScoreSheet, criterion: str | None = None) -> float:
    """Interval-metric alpha over (item, system) units; 1.0 when variance is zero."""
    units: dict[tuple[str, str], list[int]] = {}
    for r in sheet.rows:
        if criterion is not None and r.criterion != criterion:
            continue
        units.setdefault((r.item_id, r.system), []).append(r.score)
    pairable = [vals for vals in units.values() if len(vals) >= 2]
    if not pairable:
        raise ValueError("alpha needs at least one unit with two ratings")
    n = sum(len(vals) for vals in pairable)
    observed = float_sum(_squared_differences(vals) / (len(vals) - 1) for vals in pairable) / n
    flat = [v for vals in pairable for v in vals]
    expected = _squared_differences(flat) / (n * (n - 1))
    if expected == 0:
        return 1.0
    return 1.0 - observed / expected


# ---------------------------------------------------------------------------
# Reports


class _MetricFields(NamedTuple):
    bleu1: float
    bleu2: float
    embedding_f1: float
    novelty: float | None
    scored: int
    blank: int


class SystemMetrics(Checked, _MetricFields):
    __slots__ = ()

    def __new__(cls, bleu1, bleu2, embedding_f1, novelty, scored, blank):
        for name, value in (("bleu1", bleu1), ("bleu2", bleu2), ("embedding_f1", embedding_f1),
                            ("novelty", novelty)):
            if value is not None and not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {value}")
        return tuple.__new__(cls, (bleu1, bleu2, embedding_f1, novelty, scored, blank))


class MetricReport(Slots):
    __slots__ = ("systems",)

    def __init__(self, systems: dict[str, SystemMetrics] | None = None):
        self.systems = {} if systems is None else systems

    def format_table(self) -> str:
        """BLEU and novelty scaled x100, embedding F1 raw, one system per row."""
        header = f"{'System':<10} {'B-1':>7} {'B-2':>7} {'Emb-F1':>7} {'Novelty':>8}"
        lines = [header, "-" * len(header)]
        for name in sorted(self.systems):
            m = self.systems[name]
            nov = f"{100 * m.novelty:8.1f}" if m.novelty is not None else f"{'-':>8}"
            lines.append(
                f"{name:<10} {100 * m.bleu1:7.2f} {100 * m.bleu2:7.2f} "
                f"{m.embedding_f1:7.2f} {nov}"
            )
        return "\n".join(lines) + "\n"


def _literal_property(literal: str, tagger) -> str:
    if tagger is not None:
        try:
            return strip_terminal_modifier(literal, tagger).property
        except NotModifierFinal:
            pass
    words = [t for t in tokenize(literal) if is_word(t)]
    return words[-1] if words else ""


def evaluate_generation(
    records: list[dict],
    refs_by_literal: dict[str, list[str]],
    embedder,
    train_seen=None,
    tagger=None,
    smoothing: bool = False,
) -> SystemMetrics:
    """Score one system's batch records ({literal, output}) against references.

    Vehicles are extracted by discarding each output's common token prefix
    with its literal; references get the same treatment.  Blank outputs stay
    in as empty candidates.  Novelty pairs the literal's terminal property
    with the extracted vehicle, skipping blanks, and looks it up in
    train_seen, the normalize_pair form of each training pair; it is None
    when train_seen is not supplied or nothing survived.
    """
    missing = [rec["literal"] for rec in records if rec["literal"] not in refs_by_literal]
    if missing:
        raise MissingItem(set(missing))
    candidates = []
    reference_sets = []
    f1_values = []
    generated_pairs = []
    blank = 0
    for rec in records:
        literal = rec["literal"]
        output = rec.get("output", "")
        refs = refs_by_literal[literal]
        cand = extract_generated_vehicle(output, literal)
        ref_tokens = [extract_generated_vehicle(r, literal) for r in refs]
        candidates.append(cand)
        reference_sets.append(ref_tokens)
        f1_values.append(
            embedding_f1(" ".join(cand), [" ".join(r) for r in ref_tokens], embedder)
        )
        if cand:
            generated_pairs.append((_literal_property(literal, tagger), " ".join(cand)))
        else:
            blank += 1
    nov = None
    if train_seen is not None and generated_pairs:
        nov = unseen_fraction(generated_pairs, train_seen)
    return SystemMetrics(
        bleu1=vehicle_bleu(candidates, reference_sets, n=1, smoothing=smoothing),
        bleu2=vehicle_bleu(candidates, reference_sets, n=2, smoothing=smoothing),
        embedding_f1=float_sum(f1_values) / len(f1_values) if f1_values else 0.0,
        novelty=nov,
        scored=len(records),
        blank=blank,
    )


def read_refs_jsonl(path) -> dict[str, list[str]]:
    """{literal, references: [...]} rows into a literal -> references map.

    A literal given on two rows is an error at the second.
    """
    seen = set()

    def row(rec):
        literal = string("literal", rec["literal"])
        if literal in seen:
            raise ValueError(f"repeated literal {literal!r}")
        seen.add(literal)
        return literal, strings("references", rec["references"])

    return dict(read_records(path, row))


def read_batch_jsonl(path, refs_by_literal=None) -> list[dict]:
    """The rows of a batch file `generate` wrote, each with a string `literal` and a
    string `output` when it has one.  Given refs_by_literal, a row whose literal has
    no references is an error at its line."""
    def record(rec) -> dict:
        row = dict(rec)
        literal = string("literal", row["literal"])
        if "output" in row:
            string("output", row["output"])
        if refs_by_literal is not None and literal not in refs_by_literal:
            raise ValueError(f"literal {literal!r} is not in the references")
        return row

    return list(read_records(path, record))
