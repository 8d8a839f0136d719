"""The record types: named tuples (immutable) and slots classes (mutable).

Each record keeps the fields, field order and defaults it had as a
dataclass, compares equal by value, refuses assignment when immutable, runs
its checks on every construction path (the constructor, _make and _replace)
and pickles, as core.fan_out sends results from its worker processes.
"""

import inspect
import math
import pickle

import pytest

from similekit import cli, core, corpus, evaluation, harvest, knowledge, lm, story
from similekit.core import ParseError

EMPTY = "-"  # a field with no default

# (class, fields in order with their defaults, the required arguments, a valid
# change of one field, mutable).  A default made fresh for each record (a
# dataclass default_factory) is written as the empty value it makes.
RECORDS = [
    (core.TriggerConfig, [("trigger_phrases", ("like a",))], {},
     {"trigger_phrases": ("like an",)}, False),
    (core.SimileInstance,
     [("raw_text", EMPTY), ("prefix", EMPTY), ("comparator", EMPTY), ("vehicle", EMPTY),
      ("source_id", "")],
     {"raw_text": "It ran like a deer.", "prefix": "It ran", "comparator": " like a ",
      "vehicle": "deer."}, {"source_id": "c7"}, False),
    (core.LiteralSentence, [("raw_text", EMPTY), ("prefix", EMPTY), ("property", EMPTY)],
     {"raw_text": "It ran fast.", "prefix": "It ran", "property": "fast"},
     {"property": "quick"}, False),
    (core.StrippedLiteral, [("prefix", EMPTY), ("property", EMPTY), ("trailing", EMPTY)],
     {"prefix": "It ran", "property": "fast", "trailing": "."}, {"trailing": "!"}, False),
    (knowledge.PropertyCandidate, [("text", EMPTY), ("score", EMPTY)],
     {"text": "fast", "score": 0.9}, {"score": 0.5}, False),
    (knowledge.KnowledgeEdge, [("concept", EMPTY), ("property", EMPTY), ("weight", EMPTY)],
     {"concept": "deer", "property": "fast", "weight": 2.0}, {"weight": 3.0}, False),
    (lm.GenerationConfig,
     [("max_new_tokens", EMPTY), ("seed", EMPTY), ("top_k", 5), ("temperature", 0.7),
      ("forced_prefix", None)],
     {"max_new_tokens": 8, "seed": 1}, {"forced_prefix": "It ran like a"}, False),
    (lm.TrainConfig, [("seed", EMPTY)], {"seed": 1}, {"seed": 3}, False),
    (lm.GenerationOutput, [("text", EMPTY), ("truncated", False)], {"text": "x"},
     {"truncated": True}, False),
    (corpus.LiteralCandidate, [("text", EMPTY), ("property", EMPTY), ("perplexity", None)],
     {"text": "It ran fast.", "property": "fast"}, {"perplexity": 12.5}, False),
    (corpus.ParallelPair,
     [("source", EMPTY), ("target", EMPTY), ("property_used", EMPTY), ("vehicle", EMPTY),
      ("provenance", "")],
     {"source": "It ran fast.", "target": "It ran like a deer.", "property_used": "fast",
      "vehicle": "deer"}, {"provenance": "c7"}, False),
    (corpus.BuildStats, [("built", 0), ("skipped_no_properties", 0), ("failures", [])], {},
     {"built": 3}, True),
    (harvest.RawComment,
     [("id", EMPTY), ("body", EMPTY), ("subreddit", ""), ("created_utc", 0)],
     {"id": "c1", "body": "It ran like a deer."}, {"created_utc": 1600000000}, False),
    (harvest.HarvestStats, [("malformed", 0), ("duplicates", 0), ("rejected", 0)], {},
     {"rejected": 2}, True),
    (harvest.CorpusSplit, [("train", EMPTY), ("validation", EMPTY)],
     {"train": [1, 2], "validation": [3]}, {"validation": []}, False),
    (evaluation.ScoreRow,
     [("item_id", EMPTY), ("system", EMPTY), ("rater_id", EMPTY), ("criterion", EMPTY),
      ("score", EMPTY)],
     {"item_id": "i0", "system": "A", "rater_id": "r0", "criterion": "OQ", "score": 4},
     {"score": 5}, True),
    (evaluation.ScoreSheet, [("rows", [])], {}, {"rows": [None]}, True),
    (evaluation.SystemMetrics,
     [("bleu1", EMPTY), ("bleu2", EMPTY), ("embedding_f1", EMPTY), ("novelty", EMPTY),
      ("scored", EMPTY), ("blank", EMPTY)],
     {"bleu1": 0.5, "bleu2": 0.25, "embedding_f1": 0.75, "novelty": None, "scored": 3,
      "blank": 0}, {"novelty": 0.9}, False),
    (evaluation.MetricReport, [("systems", {})], {}, {"systems": {"scope": None}}, True),
    (story.Story, [("title", EMPTY), ("storyline", EMPTY), ("sentences", EMPTY)],
     {"title": "T", "storyline": ("calm",), "sentences": ("It was calm.",)},
     {"title": "U"}, False),
    (cli.Option,
     [("name", EMPTY), ("cast", str), ("default", None), ("required", False), ("choices", ()),
      ("path", False), ("output", False), ("requires", ()), ("help", None)],
     {"name": "seed"}, {"required": True}, False),
    (cli.Command, [("section", EMPTY), ("help", EMPTY), ("run", EMPTY), ("options", EMPTY)],
     {"section": "s", "help": "h", "run": print, "options": ()}, {"options": (1,)}, False),
]
IDS = [cls.__name__ for cls, *_ in RECORDS]
IMMUTABLE = [entry for entry in RECORDS if not entry[4]]

# (class, required arguments, a change each check refuses, what the refusal says)
CHECKS = [
    (core.TriggerConfig, {}, {"trigger_phrases": ()}, "non-empty subset"),
    (core.TriggerConfig, {}, {"trigger_phrases": ("like the",)}, "non-empty subset"),
    (core.SimileInstance, RECORDS[1][2], {"prefix": "He ran"}, "must equal raw_text"),
    (core.SimileInstance, RECORDS[1][2], {"raw_text": "It ran like a !", "vehicle": "!"},
     "word token"),
    (core.LiteralSentence, RECORDS[2][2], {"raw_text": "It ran as fast."}, "comparator"),
    (knowledge.PropertyCandidate, RECORDS[4][2], {"text": ""}, "non-empty"),
    (knowledge.PropertyCandidate, RECORDS[4][2], {"score": math.nan}, "finite"),
    (knowledge.KnowledgeEdge, RECORDS[5][2], {"concept": " "}, "empty concept"),
    (knowledge.KnowledgeEdge, RECORDS[5][2], {"weight": 0.0}, "positive and finite"),
    (knowledge.KnowledgeEdge, RECORDS[5][2], {"weight": math.inf}, "positive and finite"),
    (lm.GenerationConfig, RECORDS[6][2], {"max_new_tokens": 0}, "max_new_tokens"),
    (lm.GenerationConfig, RECORDS[6][2], {"top_k": 0}, "top_k"),
    (lm.GenerationConfig, RECORDS[6][2], {"temperature": math.nan}, "temperature"),
    (corpus.ParallelPair, RECORDS[10][2], {"target": "It ran fast."}, "target must contain"),
    (corpus.ParallelPair, RECORDS[10][2], {"source": "It ran like a hare."},
     "source must not contain"),
    (harvest.RawComment, RECORDS[12][2], {"body": ""}, "non-empty"),
    (evaluation.ScoreRow, RECORDS[15][2], {"criterion": "X"}, "criterion"),
    (evaluation.ScoreRow, RECORDS[15][2], {"score": 6}, "score"),
    (evaluation.ScoreRow, RECORDS[15][2], {"score": "4"}, "score"),
    (evaluation.SystemMetrics, RECORDS[17][2], {"bleu1": 1.5}, "bleu1"),
    (evaluation.SystemMetrics, RECORDS[17][2], {"novelty": -0.1}, "novelty"),
    (story.Story, RECORDS[19][2], {"sentences": ()}, "at least one sentence"),
]
CHECK_IDS = [f"{cls.__name__}-{'-'.join(change)}" for cls, _, change, _ in CHECKS]


@pytest.mark.parametrize("cls, fields, required, change, mutable", RECORDS, ids=IDS)
def test_fields_order_and_defaults(cls, fields, required, change, mutable):
    assert cls._fields == tuple(name for name, _ in fields)
    parameters = inspect.signature(cls).parameters
    assert list(parameters) == [name for name, _ in fields]
    record = cls(**required)
    for name, default in fields:
        if default is EMPTY:
            assert parameters[name].default is inspect.Parameter.empty
            assert getattr(record, name) == required[name]
        else:
            assert getattr(record, name) == default
    if hasattr(cls, "_field_defaults"):  # the NamedTuple's defaults are the constructor's
        assert cls._field_defaults == {name: parameters[name].default for name in parameters
                                       if parameters[name].default is not inspect.Parameter.empty}


@pytest.mark.parametrize("cls", [corpus.BuildStats, evaluation.ScoreSheet,
                                 evaluation.MetricReport], ids=lambda cls: cls.__name__)
def test_a_collection_default_is_made_for_each_record(cls):
    first, second = cls(), cls()
    name = cls._fields[-1]
    assert getattr(first, name) is not getattr(second, name)


@pytest.mark.parametrize("cls, fields, required, change, mutable", RECORDS, ids=IDS)
def test_equal_by_value(cls, fields, required, change, mutable):
    assert cls(**required) == cls(**required)
    assert not cls(**required) != cls(**required)
    assert cls(**required) != cls(**{**required, **change})
    if mutable:
        with pytest.raises(TypeError):
            hash(cls(**required))
    elif not any(isinstance(value, list) for value in required.values()):  # not CorpusSplit
        assert hash(cls(**required)) == hash(cls(**required))


def test_mutable_records_of_two_classes_differ():
    class Counts(core.Slots):
        __slots__ = ("malformed", "duplicates", "rejected")

        def __init__(self):
            self.malformed = self.duplicates = self.rejected = 0

    assert harvest.HarvestStats()._asdict() == Counts()._asdict()
    assert harvest.HarvestStats() != Counts()
    assert harvest.HarvestStats() != corpus.BuildStats()
    assert evaluation.ScoreSheet() != evaluation.MetricReport()


def test_a_subclass_of_a_mutable_record_keeps_its_fields():
    class Counted(harvest.HarvestStats):
        __slots__ = ("comments",)

        def __init__(self, comments=0, **counts):
            super().__init__(**counts)
            self.comments = comments

    assert Counted._fields == ("malformed", "duplicates", "rejected", "comments")
    assert Counted(comments=3, rejected=1)._asdict() == {
        "malformed": 0, "duplicates": 0, "rejected": 1, "comments": 3}
    assert Counted(comments=3) != Counted(comments=4)
    assert repr(Counted(comments=3)) == "Counted(malformed=0, duplicates=0, rejected=0, comments=3)"


@pytest.mark.parametrize("cls, fields, required, change, mutable", IMMUTABLE,
                         ids=[cls.__name__ for cls, *_ in IMMUTABLE])
def test_immutable_record_refuses_assignment(cls, fields, required, change, mutable):
    record = cls(**required)
    for name, _ in fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.extra = 1
    assert not hasattr(record, "__dict__")


@pytest.mark.parametrize("cls, fields, required, change, mutable", IMMUTABLE,
                         ids=[cls.__name__ for cls, *_ in IMMUTABLE])
def test_replace_makes_a_changed_copy(cls, fields, required, change, mutable):
    record = cls(**required)
    changed = record._replace(**change)
    assert type(changed) is cls
    assert changed == cls(**{**required, **change})
    assert record == cls(**required)
    assert cls._make(tuple(record)) == record
    assert record._asdict() == {name: getattr(record, name) for name, _ in fields}


@pytest.mark.parametrize("cls, fields, required, change, mutable",
                         [entry for entry in RECORDS if entry[4]],
                         ids=[cls.__name__ for cls, *_, mutable in RECORDS if mutable])
def test_mutable_record_takes_assignment_to_its_fields_only(cls, fields, required, change,
                                                            mutable):
    record = cls(**required)
    for name, value in change.items():
        setattr(record, name, value)
    assert record == cls(**{**required, **change})
    assert record._asdict() == {name: getattr(record, name) for name, _ in fields}
    with pytest.raises(AttributeError):
        record.extra = 1


@pytest.mark.parametrize("cls, required, change, message", CHECKS, ids=CHECK_IDS)
def test_checks_run_on_every_construction_path(cls, required, change, message):
    good = cls(**required)
    bad = {**{name: getattr(good, name) for name in cls._fields}, **change}
    with pytest.raises(ValueError, match=message):
        cls(**bad)
    with pytest.raises(ValueError, match=message):
        cls(*bad.values())
    if hasattr(cls, "_replace"):  # a named tuple: what replaces dataclasses.replace checks too
        with pytest.raises(ValueError, match=message):
            good._replace(**change)
        with pytest.raises(ValueError, match=message):
            cls._make(bad.values())


def test_normalizing_records_normalize_on_replace():
    config = core.TriggerConfig()._replace(trigger_phrases=["Like  AN"])
    assert config.trigger_phrases == ("like an",)
    told = story.Story("T", ["calm"], ["It was calm."])
    assert told == story.Story("T", ("calm",), ("It was calm.",))
    assert told._replace(sentences=["a.", "b."]).sentences == ("a.", "b.")


@pytest.mark.parametrize("cls, fields, required, change, mutable", RECORDS, ids=IDS)
def test_record_survives_pickle(cls, fields, required, change, mutable):
    record = cls(**{**required, **change})
    copied = pickle.loads(pickle.dumps(record, pickle.HIGHEST_PROTOCOL))
    assert type(copied) is cls and copied == record


def test_fan_out_results_survive_pickle():
    """What a build-corpus or train worker sends its parent (core._send pickles it)."""
    stats = corpus.BuildStats(built=2, skipped_no_properties=1, failures=[("c1", "bad pair")])
    counts = lm.TemplateCounts().count([("It ran fast.", "It ran like a deer."),
                                        ("It was calm.", "It was like a lake.")])
    error = ParseError("in.jsonl", 7, KeyError("text"))
    for value in (stats, counts, error):
        copied = pickle.loads(pickle.dumps(("run", value), pickle.HIGHEST_PROTOCOL))[1]
        assert type(copied) is type(value)
    assert pickle.loads(pickle.dumps(stats, pickle.HIGHEST_PROTOCOL)) == stats
    copied = pickle.loads(pickle.dumps(counts, pickle.HIGHEST_PROTOCOL))
    assert vars(copied) == vars(counts)
    copied = pickle.loads(pickle.dumps(error, pickle.HIGHEST_PROTOCOL))
    assert (str(copied), copied.line_number) == ("in.jsonl:7: missing field 'text'", 7)
