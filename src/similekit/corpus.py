"""Distant-supervision corpus construction: simile in, (literal, simile) pair out.

For each simile: look up the vehicle's top-k HasProperty properties, append
each to the prefix to form literal candidates, keep the candidate the scorer
finds most fluent (minimum perplexity, ties by property rank), run it through
the grammar-correction hook, and emit the pair.  The simile prefix is kept
verbatim, so a comma before the comparator survives into the literal
("... calm and quiet, very relaxed.").
"""

from __future__ import annotations

import contextlib
import warnings
from typing import NamedTuple

from .core import (
    COMPARATORS,
    Checked,
    SimileInstance,
    Slots,
    TriggerConfig,
    atomic_open,
    json_line,
    parse_simile,
    read_records,
    terminal_punctuation,
    tokenize,
    write_jsonl,
    write_lines,
)
from .knowledge import PropertyCandidate, properties_of
from .lm import perplexities

# Bound for perfbench/tracer.py, which probes similekit.corpus:perplexity;
# candidates are scored through perplexities, one call per simile.
from .lm import perplexity


class NoProperties(ValueError):
    """A simile cannot be converted without at least one property."""


class GrammarCorrectionWarning(UserWarning):
    """The corrector failed; the uncorrected text was used instead."""


# Every comparator counts when validating the source/target contract, whatever
# the parse-time configuration was.  Built once: each pair checks it twice.
_CONTRACT_TRIGGERS = TriggerConfig(COMPARATORS)


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
        if parse_simile(target, _CONTRACT_TRIGGERS) is None:
            raise ValueError("target must contain a trigger phrase")
        if parse_simile(source, _CONTRACT_TRIGGERS) is not None:
            raise ValueError("source must not contain a trigger phrase")
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


def select_best_literal(simile: SimileInstance,
                        properties: list[PropertyCandidate], scorer) -> LiteralCandidate:
    """The literal candidate the scorer finds most fluent (minimum perplexity,
    ties keep the earlier, higher-ranked property).

    A candidate is prefix + property + the simile's terminal punctuation.
    All are scored in one call.  A token holds no whitespace, so a
    candidate's tokens are the prefix's, tokenized once, and its tail's.
    """
    if not properties:
        raise NoProperties(f"no properties for vehicle of {simile.raw_text!r}")
    punct = terminal_punctuation(simile.raw_text)
    head = tokenize(simile.prefix)
    texts = [(simile.prefix + " " + prop.text).strip() + punct for prop in properties]
    ppls = perplexities(texts, scorer, [head + tokenize(prop.text + punct) for prop in properties])
    best = min(range(len(texts)), key=ppls.__getitem__)
    return LiteralCandidate(texts[best], properties[best].text, ppls[best])


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


def iter_parallel_corpus(
    similes,
    knowledge_backend,
    scorer,
    corrector=None,
    k: int = 5,
    stats: BuildStats | None = None,
):
    """Yield one pair per convertible simile; a simile that fails with a ValueError is recorded.

    Similes whose vehicle yields no properties are skipped and counted.  A
    ValueError on one simile (an empty candidate text, or a pair that breaks
    the source/target contract) is recorded in stats.failures and the
    simile is dropped; any other error, such as BackendUnavailable from a
    remote scorer or knowledge table, propagates and ends the build.
    Output order follows input order, and each simile is read from
    `similes` only when the pair before it has been taken, so a stream of
    similes is converted holding one at a time.
    """
    for simile in similes:
        try:
            concept = simile.vehicle_phrase()
            props = properties_of(concept, k, knowledge_backend)
            if not props:
                if stats is not None:
                    stats.skipped_no_properties += 1
                continue
            best = select_best_literal(simile, props, scorer)
            source = correct_grammar(best.text, corrector)
            pair = ParallelPair(
                source=source,
                target=simile.raw_text,
                property_used=best.property,
                vehicle=concept,
                provenance=simile.source_id,
            )
        except ValueError as exc:
            if stats is not None:
                stats.failures.append((simile.source_id or simile.raw_text, str(exc)))
            continue
        if stats is not None:
            stats.built += 1
        yield pair


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


def read_pairs_tsv(path) -> list[tuple[str, str]]:
    return list(read_records(path, lambda source, target: (source, target), fields=2))


def _pair_record(rec) -> ParallelPair:
    return ParallelPair(source=rec["source"], target=rec["target"],
                        property_used=rec["property_used"], vehicle=rec["vehicle"],
                        provenance=rec.get("provenance", ""))


def read_pairs_audit_jsonl(path) -> list[ParallelPair]:
    return list(read_records(path, _pair_record))
