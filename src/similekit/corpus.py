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
from dataclasses import dataclass, field, replace

from .core import (
    COMPARATORS,
    SimileInstance,
    TriggerConfig,
    atomic_open,
    json_line,
    parse_simile,
    read_records,
    terminal_punctuation,
    write_jsonl,
    write_lines,
)
from .knowledge import PropertyCandidate, properties_of
from .lm import perplexity


class NoProperties(ValueError):
    """A simile cannot be converted without at least one property."""


class GrammarCorrectionWarning(UserWarning):
    """The corrector failed; the uncorrected text was used instead."""


# Every comparator counts when validating the source/target contract, whatever
# the parse-time configuration was.  Built once: each pair checks it twice.
_CONTRACT_TRIGGERS = TriggerConfig(COMPARATORS)


@dataclass(frozen=True)
class LiteralCandidate:
    text: str
    property: str
    perplexity: float | None = None


@dataclass(frozen=True)
class ParallelPair:
    source: str
    target: str
    property_used: str
    vehicle: str
    provenance: str = ""

    def __post_init__(self):
        if parse_simile(self.target, _CONTRACT_TRIGGERS) is None:
            raise ValueError("target must contain a trigger phrase")
        if parse_simile(self.source, _CONTRACT_TRIGGERS) is not None:
            raise ValueError("source must not contain a trigger phrase")


@dataclass
class BuildStats:
    built: int = 0
    skipped_no_properties: int = 0
    failures: list = field(default_factory=list)


def make_literal_candidates(
    simile: SimileInstance, properties: list[PropertyCandidate]
) -> list[LiteralCandidate]:
    """One candidate per property: prefix + property + original terminal punctuation."""
    if not properties:
        raise NoProperties(f"no properties for vehicle of {simile.raw_text!r}")
    punct = terminal_punctuation(simile.raw_text)
    out = []
    for prop in properties:
        text = (simile.prefix + " " + prop.text).strip() + punct
        out.append(LiteralCandidate(text=text, property=prop.text))
    return out


def select_best_literal(candidates: list[LiteralCandidate], scorer) -> LiteralCandidate:
    """Minimum-perplexity candidate; ties keep the earlier (higher-ranked) property."""
    if not candidates:
        raise ValueError("no candidates to select from")
    best, best_ppl = None, None
    for cand in candidates:
        ppl = perplexity(cand.text, scorer)
        if best is None or ppl < best_ppl:
            best, best_ppl = cand, ppl
    return replace(best, perplexity=best_ppl)


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
    """Yield one pair per convertible simile; per-item failures are recorded, never fatal.

    Similes whose vehicle yields no properties are skipped and counted.
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
            candidates = make_literal_candidates(simile, props)
            best = select_best_literal(candidates, scorer)
            source = correct_grammar(best.text, corrector)
            pair = ParallelPair(
                source=source,
                target=simile.raw_text,
                property_used=best.property,
                vehicle=concept,
                provenance=simile.source_id,
            )
        except Exception as exc:
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


def write_pair_files(pairs, tsv_path, audit_path=None) -> None:
    """Write a stream of pairs to the TSV and, when given, the audit JSONL in one pass.

    Each file is the bytes write_pairs_tsv and write_pairs_audit_jsonl would
    write; if the stream raises, neither file is replaced.
    """
    with atomic_open(tsv_path) as tsv, \
            (atomic_open(audit_path) if audit_path else contextlib.nullcontext()) as audit:
        for pair in pairs:
            tsv.write(_tsv_line(pair))
            if audit is not None:
                audit.write(json_line(_audit_record(pair)))


def read_pairs_tsv(path) -> list[tuple[str, str]]:
    return list(read_records(path, lambda source, target: (source, target), fields=2))


def _pair_record(rec) -> ParallelPair:
    return ParallelPair(source=rec["source"], target=rec["target"],
                        property_used=rec["property_used"], vehicle=rec["vehicle"],
                        provenance=rec.get("provenance", ""))


def read_pairs_audit_jsonl(path) -> list[ParallelPair]:
    return list(read_records(path, _pair_record))
