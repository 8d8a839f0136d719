"""The four simile generators sharing one literal-in, simile-out signature.

scope: free decode from a model fine-tuned on the parallel corpus.
prefix: pretrained model forced to begin with "<literal minus modifier> like a".
rtrvl: no model at all; the vehicle comes from a knowledge-table lookup on the
  stripped property, with a synonym fallback.  Misses are real outputs here
  (None), serialized as an empty string so evaluation scores them as
  zero-overlap candidates rather than dropping them.
meta_m: like scope but trained and queried with the terminal modifier replaced
  by a mask token.
"""

from __future__ import annotations

from .core import NotModifierFinal, drop_dangling_comma, strip_terminal_modifier, write_jsonl
from .knowledge import vehicle_for_property
from .lm import GenerationConfig, generate

# Bound for perfbench/tracer.py, which probes similekit.systems:fine_tune;
# masked training counts through lm.TemplateCounts (cli.cmd_train).
from .lm import fine_tune

MASK_TOKEN = "<MASK>"

# How a missing retrieval result is written to batch files.
ABSENT_OUTPUT = ""

_VOWELS = "aeiou"


def scope_generate(literal: str, model, cfg: GenerationConfig) -> str:
    """Free decode conditioned on the literal; seeded-deterministic."""
    if cfg.forced_prefix:
        raise ValueError("scope_generate decodes freely; cfg.forced_prefix must be unset")
    return generate(literal, cfg, model).text


def baseline_prefix_forced(literal: str, model, cfg: GenerationConfig, tagger) -> str:
    """Strip the terminal modifier, then force the decoder to continue 'like a'."""
    stripped = strip_terminal_modifier(literal, tagger)
    prefix = drop_dangling_comma(stripped.prefix) + " like a"
    return generate(literal, cfg._replace(forced_prefix=prefix), model).text


def baseline_retrieval(
    literal: str,
    knowledge_backend,
    synonym_backend,
    tagger,
    use_article_heuristic: bool = False,
) -> str | None:
    """Vehicle lookup on the stripped property; None when knowledge has no answer.

    The article is always "a" unless the vowel heuristic is enabled.  The
    literal's trailing punctuation is re-attached after the vehicle.
    """
    stripped = strip_terminal_modifier(literal, tagger)
    vehicle = vehicle_for_property(stripped.property, knowledge_backend, synonym_backend)
    if vehicle is None:
        return None
    article = "a"
    if use_article_heuristic and vehicle[:1].lower() in _VOWELS:
        article = "an"
    prefix = drop_dangling_comma(stripped.prefix)
    return f"{prefix} like {article} {vehicle}{stripped.trailing}"


def mask_terminal_modifier(text: str, tagger) -> str:
    """The text with its terminal modifier replaced by the mask token.

    Reassembly normalizes inter-token whitespace to single spaces.
    """
    stripped = strip_terminal_modifier(text, tagger)
    return stripped.prefix + " " + MASK_TOKEN + stripped.trailing


# What training on masked sources raises when no source can be masked.
NOTHING_MASKED = "no sources survive terminal-modifier masking"


def masked_pairs(pairs, tagger, stats: dict):
    """Yield (masked source, target) for each (source, target) pair whose source can be masked.

    Pairs are read as they are taken; stats["skipped"] is incremented for each other pair.
    """
    for source, target in pairs:
        try:
            masked = mask_terminal_modifier(source, tagger)
        except NotModifierFinal:
            stats["skipped"] += 1
            continue
        yield masked, target


def baseline_metaphor_mask(literal: str, model, cfg: GenerationConfig, tagger) -> str:
    """Mask the literal's terminal modifier, then decode as scope does."""
    return generate(mask_terminal_modifier(literal, tagger), cfg, model).text


def run_batch(literals: list[str], system: str, fn, seed: int, out_path=None) -> list[dict]:
    """Run one generator over a literal list; optionally write the batch JSONL.

    fn(literal) returns the output string or None (absent); rows are
    {literal, system, output, seed}.
    """
    records = []
    for literal in literals:
        output = fn(literal)
        records.append(
            {
                "literal": literal,
                "system": system,
                "output": ABSENT_OUTPUT if output is None else output,
                "seed": seed,
            }
        )
    if out_path is not None:
        write_jsonl(records, out_path)
    return records
