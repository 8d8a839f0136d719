"""Distant-supervision corpus construction: simile in, (literal, simile) pair out.

For each simile: look up the vehicle's top-k HasProperty properties, append
each to the prefix to form literal candidates, keep the candidate the scorer
finds most fluent (minimum perplexity, ties by property rank), run it through
the grammar-correction hook, and emit the pair.  Similes are converted a run
at a time, with one lookup (prepare_run) and one scoring call (convert_run)
per run.  The simile prefix is kept verbatim, so a comma before the
comparator survives into the literal ("... calm and quiet, very relaxed.").
"""

from __future__ import annotations

import contextlib
import re
import warnings
from typing import NamedTuple

from .core import (
    COMPARATORS,
    Checked,
    SimileInstance,
    Slots,
    TriggerConfig,
    atomic_open,
    is_simile,
    json_line,
    read_records,
    runs_of,
    terminal_punctuation,
    tokenize,
    write_jsonl,
    write_lines,
)
from .knowledge import PropertyCandidate, properties_of_each
from .lm import EmptyText, perplexities

# Bound for perfbench/tracer.py, which probes similekit.corpus:properties_of,
# similekit.corpus:perplexity and similekit.corpus:parse_simile; a run's vehicles
# are looked up through properties_of_each and its candidates scored in one call,
# and a pair's contract is checked with is_simile.
from .core import parse_simile
from .knowledge import properties_of
from .lm import perplexity


class NoProperties(ValueError):
    """A simile cannot be converted without at least one property."""


class GrammarCorrectionWarning(UserWarning):
    """The corrector failed; the uncorrected text was used instead."""


# Every comparator counts when validating the source/target contract, whatever
# the parse-time configuration was.  Built once: each pair checks it twice.
_CONTRACT_TRIGGERS = TriggerConfig(COMPARATORS)

# A code point UTF-8 cannot encode; a JSON escape can put one in a str.
_SURROGATE = re.compile("[\ud800-\udfff]")


class LiteralCandidate(NamedTuple):
    text: str
    property: str
    perplexity: float | None = None


class _PairFields(NamedTuple):
    source: str
    target: str
    property_used: str
    vehicle: str
    provenance: str = ""


class ParallelPair(Checked, _PairFields):
    __slots__ = ()

    def __new__(cls, source, target, property_used, vehicle, provenance=""):
        if not is_simile(target, _CONTRACT_TRIGGERS):
            raise ValueError("target must contain a trigger phrase")
        if is_simile(source, _CONTRACT_TRIGGERS):
            raise ValueError("source must not contain a trigger phrase")
        if not (source.isascii() and target.isascii()):
            if bad := _SURROGATE.search(source + target):
                raise ValueError(f"pair text holds the lone surrogate {bad.group()!r}, "
                                 "which a TSV line cannot carry")
        return tuple.__new__(cls, (source, target, property_used, vehicle, provenance))


class BuildStats(Slots):
    """A build's counts: pairs built, similes skipped, (simile id, reason) per failure."""

    __slots__ = ("built", "skipped_no_properties", "failures")

    def __init__(self, built: int = 0, skipped_no_properties: int = 0, failures=None):
        self.built = built
        self.skipped_no_properties = skipped_no_properties
        self.failures = [] if failures is None else failures

    def add(self, other: BuildStats) -> None:
        """Count the similes of `other`, read after these."""
        self.built += other.built
        self.skipped_no_properties += other.skipped_no_properties
        self.failures += other.failures


def prepare(simile: SimileInstance, concept: str, properties: list[PropertyCandidate]) -> tuple:
    """A simile as the scoring half of a conversion reads it: the tuple of strings (text,
    prefix, terminal punctuation, concept, source id, property texts), the property texts
    those of its vehicle's top-k properties, in rank order (none when it has none)."""
    return (simile.raw_text, simile.prefix, terminal_punctuation(simile.raw_text), concept,
            simile.source_id, tuple(p.text for p in properties))


def prepare_run(similes, knowledge_backend, k: int = 5) -> list[tuple]:
    """The first half of converting a run of similes: one lookup of all their vehicles
    (knowledge.properties_of_each), and each simile prepared.  The result holds only
    tuples of strings, so marshal can set it aside for the second half, convert_run."""
    run = list(similes)
    concepts = [simile.vehicle_phrase() for simile in run]
    found = properties_of_each(concepts, k, knowledge_backend)
    return list(map(prepare, run, concepts, found))


def select_best_literals(similes: list[tuple], scorer) -> list:
    """For each prepared simile, the literal candidate the scorer finds most fluent
    (minimum perplexity, ties keep the earlier, higher-ranked property), or the
    ValueError its candidates raise: NoProperties when it has none, EmptyText when
    one has no tokens.

    A candidate is prefix + property + the simile's terminal punctuation.
    Every candidate of the batch is scored in one call, those of a simile
    next to each other.  A scorer with token_perplexities is handed each
    simile's prefix tokens once, with each candidate's tail (property and
    punctuation) tokens: a token holds no whitespace, so a candidate's
    tokens are the prefix's and its tail's.  Only the chosen candidate's text
    is built.  Any other scorer is handed every candidate's text.
    """
    by_tokens = hasattr(scorer, "token_perplexities")
    batch, starts, scored = [], [], 0
    for text, prefix, punct, _, _, properties in similes:
        if not properties:
            starts.append(NoProperties(f"no properties for vehicle of {text!r}"))
            continue
        # A candidate is empty or whitespace exactly when its prefix and property are
        # and the simile ends in a word (terminal punctuation holds no whitespace).
        if not punct and not prefix.strip() and not all(p.strip() for p in properties):
            starts.append(EmptyText("cannot score an empty text"))
            continue
        starts.append(scored)
        scored += len(properties)
        if by_tokens:
            batch.append((tokenize(prefix), [tokenize(p + punct) for p in properties]))
        else:
            batch += (_candidate_text(prefix, p, punct) for p in properties)
    if not batch:
        ppls = []
    elif by_tokens:
        ppls = scorer.token_perplexities(batch)
    else:
        ppls = perplexities(batch, scorer)
    best = []
    for (_, prefix, punct, _, _, properties), start in zip(similes, starts):
        if isinstance(start, ValueError):
            best.append(start)
            continue
        i = min(range(start, start + len(properties)), key=ppls.__getitem__)
        prop = properties[i - start]
        best.append(LiteralCandidate(_candidate_text(prefix, prop, punct), prop, ppls[i]))
    return best


def _candidate_text(prefix: str, prop: str, punct: str) -> str:
    return (prefix + " " + prop).strip() + punct


def correct_grammar(text: str, corrector=None) -> str:
    """Apply the pluggable corrector; identity when absent, input on failure."""
    if corrector is None:
        return text
    try:
        return corrector(text)
    except Exception as exc:
        warnings.warn(
            f"grammar corrector failed ({exc}); using uncorrected text",
            GrammarCorrectionWarning,
            stacklevel=2,
        )
        return text


def convert_run(similes: list[tuple], scorer, corrector=None, stats: BuildStats | None = None):
    """The second half of converting a run: yield the pair of each prepared simile
    (prepare_run) that converts, choosing its literal with select_best_literals;
    count a skipped simile and record a failed one in stats, as iter_parallel_corpus
    describes."""
    stats = BuildStats() if stats is None else stats
    for (text, _, _, concept, source_id, _), best in zip(similes,
                                                         select_best_literals(similes, scorer)):
        if isinstance(best, NoProperties):
            stats.skipped_no_properties += 1
            continue
        try:
            if isinstance(best, ValueError):
                raise best
            pair = ParallelPair(source=correct_grammar(best.text, corrector), target=text,
                                property_used=best.property, vehicle=concept,
                                provenance=source_id)
        except ValueError as exc:
            stats.failures.append((source_id or text, str(exc)))
            continue
        stats.built += 1
        yield pair


def iter_parallel_corpus(
    similes,
    knowledge_backend,
    scorer,
    corrector=None,
    k: int = 5,
    stats: BuildStats | None = None,
):
    """Yield one pair per convertible simile; a simile that fails with a ValueError is recorded.

    Similes are converted a run (core.RUN_LENGTH of them) at a time, in two
    halves: prepare_run looks up the run's vehicles in one call
    (knowledge.properties_of_each), and convert_run scores all the run's
    candidates in one call (select_best_literals) and builds the pairs.
    build-corpus runs the same halves, in two fan-outs.  Similes whose
    vehicle yields no properties are skipped and counted.  A ValueError on
    one simile (an empty candidate text, or a pair that breaks the
    source/target contract) is recorded in stats.failures and the simile is
    dropped.  An error of the lookup or of the scoring call, such as
    BackendUnavailable from a remote scorer or knowledge table, or a k below
    1, propagates and ends the build.  Output order follows input order, and
    a run is read from `similes` only when the pairs of the run before it
    have been taken, so a stream of similes is converted holding one run at
    a time.
    """
    stats = BuildStats() if stats is None else stats
    for run in runs_of(similes):
        yield from convert_run(prepare_run(run, knowledge_backend, k), scorer, corrector, stats)


def build_parallel_corpus(
    similes: list[SimileInstance],
    knowledge_backend,
    scorer,
    corrector=None,
    k: int = 5,
    stats: BuildStats | None = None,
) -> list[ParallelPair]:
    """All the pairs iter_parallel_corpus yields, as a list."""
    return list(iter_parallel_corpus(similes, knowledge_backend, scorer, corrector, k, stats))


# ---------------------------------------------------------------------------
# File formats: TSV for the trainer, JSONL for the audit trail.


def _tsv_line(pair: ParallelPair) -> str:
    if "\t" in pair.source + pair.target or "\n" in pair.source + pair.target:
        raise ValueError(f"pair text contains a tab or newline: {pair.source!r}")
    return f"{pair.source}\t{pair.target}\n"


def _audit_record(pair: ParallelPair) -> dict:
    return {"source": pair.source, "target": pair.target, "property_used": pair.property_used,
            "vehicle": pair.vehicle, "provenance": pair.provenance}


def write_pairs_tsv(pairs: list[ParallelPair], path) -> None:
    write_lines(map(_tsv_line, pairs), path)


def write_pairs_audit_jsonl(pairs: list[ParallelPair], path) -> None:
    write_jsonl(map(_audit_record, pairs), path)


def format_pairs(pairs, audit: bool = True) -> tuple[str, str]:
    """The TSV text of pairs and, with audit, their audit JSONL text ("" without), in one pass.

    Each text is the bytes write_pairs_tsv or write_pairs_audit_jsonl writes.
    """
    tsv, jsonl = [], []
    for pair in pairs:
        tsv.append(_tsv_line(pair))
        if audit:
            jsonl.append(json_line(_audit_record(pair)))
    return "".join(tsv), "".join(jsonl)


def write_pair_files(texts, tsv_path, audit_path=None) -> None:
    """Write each (TSV text, audit text) of a stream, in order, to the TSV and,
    when given, the audit JSONL; if the stream raises, neither file is replaced."""
    with atomic_open(tsv_path) as tsv, \
            (atomic_open(audit_path) if audit_path else contextlib.nullcontext()) as audit:
        for tsv_text, audit_text in texts:
            tsv.write(tsv_text)
            if audit is not None:
                audit.write(audit_text)


def _pair_record(rec) -> ParallelPair:
    return ParallelPair(source=rec["source"], target=rec["target"],
                        property_used=rec["property_used"], vehicle=rec["vehicle"],
                        provenance=rec.get("provenance", ""))


def read_pairs_audit_jsonl(path) -> list[ParallelPair]:
    return list(read_records(path, _pair_record))
