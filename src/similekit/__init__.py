"""similekit: literal-simile parallel corpus construction, generation, evaluation.

The names below are imported from their modules on first use (PEP 562), so
`import similekit.lm` loads lm and what it imports, not the whole package.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "backends": ("BackendUnavailable",),
    "core": (
        "COMPARATORS",
        "DEFAULT_TRIGGERS",
        "LiteralSentence",
        "NotModifierFinal",
        "ParseError",
        "SimileInstance",
        "TriggerConfig",
        "extract_generated_vehicle",
        "parse_simile",
        "strip_terminal_modifier",
        "tokenize",
    ),
    "corpus": (
        "GrammarCorrectionWarning",
        "LiteralCandidate",
        "NoProperties",
        "ParallelPair",
        "build_parallel_corpus",
    ),
    "evaluation": (
        "EmptyGenerated",
        "LengthMismatch",
        "MetricReport",
        "MissingItem",
        "ScoreSheet",
        "embedding_f1",
        "krippendorff_alpha",
        "mean_scores",
        "novelty",
        "pairwise_compare",
        "read_batch_jsonl",
        "vehicle_bleu",
    ),
    "harvest": (
        "CorpusSplit",
        "EmptyCorpus",
        "HarvestedSimile",
        "RawComment",
        "harvest_literals",
        "harvest_similes",
        "split_corpus",
    ),
    "knowledge": ("KnowledgeEdge", "PropertyCandidate", "properties_of", "vehicle_for_property"),
    "lm": (
        "EmptyText",
        "EmptyTrainingSet",
        "GenerationConfig",
        "GenerationOutput",
        "RemoteModel",
        "RemoteScorer",
        "TemplateNgramModel",
        "TrainConfig",
        "fine_tune",
        "generate",
        "perplexities",
        "perplexity",
    ),
    "story": ("Story", "embellish", "generate_story", "select_replaceable"),
    "systems": (
        "baseline_metaphor_mask",
        "baseline_prefix_forced",
        "baseline_retrieval",
        "scope_generate",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}
__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
