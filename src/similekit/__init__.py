"""similekit: literal-simile parallel corpus construction, generation, evaluation."""

from .backends import BackendUnavailable
from .core import (
    COMPARATORS,
    DEFAULT_TRIGGERS,
    LiteralSentence,
    NotModifierFinal,
    ParseError,
    SimileInstance,
    TriggerConfig,
    extract_generated_vehicle,
    parse_simile,
    strip_terminal_modifier,
    tokenize,
)
from .corpus import (
    GrammarCorrectionWarning,
    LiteralCandidate,
    NoProperties,
    ParallelPair,
    build_parallel_corpus,
)
from .evaluation import (
    EmptyGenerated,
    LengthMismatch,
    MetricReport,
    MissingItem,
    ScoreSheet,
    embedding_f1,
    krippendorff_alpha,
    mean_scores,
    novelty,
    pairwise_compare,
    vehicle_bleu,
)
from .harvest import (
    CorpusSplit,
    EmptyCorpus,
    HarvestedSimile,
    RawComment,
    harvest_literals,
    harvest_similes,
    split_corpus,
)
from .knowledge import KnowledgeEdge, PropertyCandidate, properties_of, vehicle_for_property
from .lm import (
    EmptyText,
    EmptyTrainingSet,
    GenerationConfig,
    GenerationOutput,
    RemoteModel,
    RemoteScorer,
    RemoteSeq2SeqBackend,
    TemplateNgramModel,
    TrainConfig,
    fine_tune,
    generate,
    perplexity,
)
from .story import Story, embellish, generate_story, select_replaceable
from .systems import (
    baseline_metaphor_mask,
    baseline_prefix_forced,
    baseline_retrieval,
    scope_generate,
    train_metaphor_mask,
)

__version__ = "0.1.0"
