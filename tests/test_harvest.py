"""Ingestion, dedup, literal filtering, and corpus splitting."""

import json
import tempfile
from pathlib import Path
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from similekit.harvest import (
    CorpusSplit,
    EmptyCorpus,
    HarvestStats,
    RawComment,
    dedup_key,
    harvest_literals,
    harvest_similes,
    iter_comments,
    load_comments,
    read_literals_jsonl,
    read_similes_jsonl,
    sample_literals,
    split_corpus,
    write_literals_jsonl,
    write_similes_jsonl,
)
from similekit.core import (
    COMPARATORS,
    DEFAULT_TRIGGERS,
    ParseError,
    TriggerConfig,
    parse_simile,
    split_sentences,
)
from similekit.tagging import DEFAULT_TAGGER


def comment(i, body, ts=0):
    return RawComment(id=str(i), body=body, subreddit="test", created_utc=ts)


def oracle_harvest_similes(comments, cfg=DEFAULT_TRIGGERS, stats=None):
    """The previous harvest_similes: sort every comment, the first simile of a key wins."""
    ordered = sorted(comments, key=lambda c: (c.created_utc, c.id))
    seen = set()
    out = []
    for comment in ordered:
        for sentence in split_sentences(comment.body):
            inst = parse_simile(sentence, cfg)
            if inst is None:
                continue
            key = dedup_key(inst.raw_text)
            if key in seen:
                if stats is not None:
                    stats.duplicates += 1
                continue
            seen.add(key)
            out.append(inst._replace(source_id=comment.id))
    return out


# Sentences that share a dedup key but differ in text, so the wrong winner shows.
SENTENCES = [
    "He ran like a deer.", "he ran, like a deer!", "HE RAN LIKE A DEER?",
    "She sang like a bird.", "She sang like a bird!", "It was like an owl.",
    "it was like an OWL.", "Nothing here.", "The sea was like a mirror.",
]
comments_strategy = st.lists(st.builds(
    RawComment,
    id=st.sampled_from(["a", "b", "c"]),
    body=st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=4).map("\n".join),
    created_utc=st.integers(0, 2),
), max_size=12)


class TestHarvestSimiles:
    @given(comments_strategy, st.sampled_from([DEFAULT_TRIGGERS, TriggerConfig(COMPARATORS)]))
    @settings(max_examples=300, deadline=None)
    def test_streaming_equals_sort_then_first_wins(self, comments, cfg):
        stats, oracle_stats = HarvestStats(), HarvestStats()
        instances = [row.instance() for row in harvest_similes(iter(comments), cfg, stats)]
        assert instances == oracle_harvest_similes(comments, cfg, oracle_stats)  # source_id too
        assert stats.duplicates == oracle_stats.duplicates

    def test_rows_write_the_bytes_of_their_instances(self, tmp_path):
        rows = harvest_similes([comment(1, "Ok, he ran like a deer! Then she sang like an owl."),
                                comment(2, "It was, like a, dream like a storm.", ts=1)],
                               TriggerConfig(COMPARATORS))
        assert [(r.raw_text, r.prefix, r.vehicle) for r in rows] == [
            ("Ok, he ran like a deer!", "Ok, he ran", "deer!"),
            ("Then she sang like an owl.", "Then she sang", "owl."),
            ("It was, like a, dream like a storm.", "It was,", ", dream like a storm.")]
        write_similes_jsonl(rows, tmp_path / "rows.jsonl")
        write_similes_jsonl([r.instance() for r in rows], tmp_path / "instances.jsonl")
        assert (tmp_path / "rows.jsonl").read_bytes() == \
            (tmp_path / "instances.jsonl").read_bytes()

    def test_pronoun_topic_retained(self):
        out = harvest_similes([comment(1, "I feel like a fool")])
        assert len(out) == 1
        assert out[0].vehicle == "fool"

    def test_non_trigger_dropped(self):
        assert harvest_similes([comment(1, "I like apples")]) == []

    def test_dedup_across_comments(self):
        body = "He ran like a deer."
        comments = [
            comment(1, body, ts=1),
            comment(2, "She sang like a bird.", ts=2),
            comment(3, body.upper(), ts=3),  # same text modulo case
        ]
        stats = HarvestStats()
        out = harvest_similes(comments, stats=stats)
        assert len(out) == 2
        assert stats.duplicates == 1

    def test_dedup_key_ignores_punctuation_and_case(self):
        assert dedup_key("He ran, like a deer!") == dedup_key("he ran like a deer")

    def test_multi_sentence_bodies_split(self):
        body = "It rained. The sea was like a mirror. We left."
        out = harvest_similes([comment(1, body)])
        assert [s.raw_text for s in out] == ["The sea was like a mirror."]

    def test_order_fixed_by_timestamp_then_id(self):
        comments = [
            comment(2, "B was like a bat.", ts=5),
            comment(1, "A was like an ant or like a fly.", ts=5),
            comment(3, "C was like a cat.", ts=1),
        ]
        out = harvest_similes(comments)
        first_words = [s.raw_text.split()[0] for s in out]
        assert first_words == ["C", "A", "B"]

    def test_harvest_idempotent(self):
        comments = [comment(i, f"Thing {i} was like a stone {i}.") for i in range(10)]
        assert harvest_similes(comments) == harvest_similes(comments)

    def test_source_id_attached(self):
        out = harvest_similes([comment(42, "Love is like a unicorn.")])
        assert out[0].source_id == "42"


def oracle_iter_comments(path, stats=None):
    """The comment reader's own file loop, as it was before it read through read_records,
    with the type rule since added: `body` a string, `id` a string or an integer."""
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            try:
                rec = json.loads(line)
                created = rec.get("created_utc", 0)
                if not isinstance(rec["body"], str) or type(rec["id"]) not in (str, int):
                    raise TypeError("not a comment")
                comment = RawComment(
                    id=str(rec["id"]),
                    body=rec["body"],
                    subreddit=str(rec.get("subreddit", "")),
                    created_utc=int(float(created) if isinstance(created, str) else created),
                )
            except (AttributeError, KeyError, TypeError, ValueError, OverflowError):
                if stats is not None:
                    stats.malformed += 1
                continue
            yield comment


def comment_line(fields: dict) -> str:
    """A JSON object line whose values are given as JSON text, so 1e400 stays as written."""
    return "{" + ", ".join(f"{json.dumps(k)}: {v}" for k, v in fields.items()) + "}"


json_text = st.text(max_size=12).map(json.dumps)
created_texts = st.one_of(
    st.integers(-10**12, 10**12).map(str),
    st.floats(allow_nan=False, allow_infinity=False).map(json.dumps),
    st.sampled_from(['"1600000000.0"', '" 42 "', '"soon"', '"nan"', '"inf"', '"-inf"',
                     "1e400", "-1e400", "NaN", "Infinity", "null", "[1]", "true"]),
)
record_lines = st.fixed_dictionaries({}, optional={
    "id": st.one_of(json_text, st.integers().map(str),
                    st.sampled_from(["null", "true", "1.5", '["a"]'])),
    "body": st.one_of(json_text, st.sampled_from(['""', "7", "null", '["b like a c."]'])),
    "subreddit": json_text,
    "created_utc": created_texts,
}).map(comment_line)
dump_lines = st.one_of(
    record_lines,
    st.sampled_from(["{not json", "[1, 2]", '"a string"', "42", "null", "", "   ",
                     '{"id": "1"}', '{"body": "b like a c."}']),
)


class TestLoadComments:
    def test_malformed_counted_skipped(self, tmp_path):
        path = tmp_path / "c.ndjson"
        rows = [
            json.dumps({"id": "1", "body": "ok like a rock.", "subreddit": "x", "created_utc": 1}),
            "{not json",
            json.dumps({"id": "2"}),  # missing body
            json.dumps({"id": "3", "body": "", "subreddit": "x", "created_utc": 2}),  # empty body
            json.dumps({"id": "4", "body": "fine like a breeze.", "created_utc": 3}),
        ]
        path.write_text("\n".join(rows) + "\n", encoding="utf-8")
        stats = HarvestStats()
        comments = load_comments(path, stats)
        assert [c.id for c in comments] == ["1", "4"]
        assert stats.malformed == 3

    @pytest.mark.parametrize("fields", [
        {"id": "a", "body": ["It ran like a dog."]},
        {"id": "b", "body": 7},
        {"id": "c", "body": None},
        {"id": None, "body": "It ran like a dog."},
        {"id": True, "body": "It ran like a dog."},
        {"id": 1.5, "body": "It ran like a dog."},
        {"id": ["d"], "body": "It ran like a dog."},
    ])
    def test_wrong_type_is_malformed(self, tmp_path, fields):
        path = tmp_path / "c.ndjson"
        rows = [fields, {"id": 7, "body": "It ran like a cat."}]
        path.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
        stats = HarvestStats()
        assert load_comments(path, stats) == [RawComment("7", "It ran like a cat.")]
        assert stats.malformed == 1

    def test_decimal_timestamp_strings_read_as_numbers(self, tmp_path):
        path = tmp_path / "c.ndjson"
        stamps = ["1600000000.0", 1600000000.5, " 42 ", "soon", "nan", "inf", float("inf")]
        rows = [json.dumps({"id": str(i), "body": "b like a c.", "created_utc": ts})
                for i, ts in enumerate(stamps)]
        path.write_text("\n".join(rows + ["[1, 2]"]) + "\n", encoding="utf-8")
        stats = HarvestStats()
        comments = load_comments(path, stats)
        assert [(c.id, c.created_utc) for c in comments] == [
            ("0", 1600000000), ("1", 1600000000), ("2", 42)]
        assert stats.malformed == 5

    def test_iter_comments_streams_what_load_comments_lists(self, tmp_path):
        path = tmp_path / "c.ndjson"
        rows = [json.dumps({"id": str(i), "body": f"b{i} like a c.", "created_utc": i})
                for i in range(3)]
        path.write_text("\n".join(rows[:2] + ["{bad"] + rows[2:]) + "\n", encoding="utf-8")
        stats = HarvestStats()
        stream = iter_comments(path, stats)
        assert next(stream).id == "0"
        assert stats.malformed == 0
        assert [c.id for c in stream] == ["1", "2"]
        assert stats.malformed == 1
        assert load_comments(path) == list(iter_comments(path))

    @settings(max_examples=300, deadline=None)
    @given(st.lists(dump_lines, max_size=12))
    def test_iter_comments_equals_the_old_loop(self, lines):
        """Through read_records, the same comments are kept and the same lines counted."""
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "c.ndjson"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
            got, want = HarvestStats(), HarvestStats()
            assert list(iter_comments(path, got)) == list(oracle_iter_comments(path, want))
            assert got.malformed == want.malformed

    def test_empty_body_rejected_at_type_level(self):
        with pytest.raises(ValueError):
            RawComment(id="1", body="")


class TestHarvestLiterals:
    def test_keeps_modifier_final(self):
        out = harvest_literals(["The city was beautiful"], DEFAULT_TAGGER)
        assert len(out) == 1
        assert out[0].property == "beautiful"

    def test_rejects_comparators(self):
        stats = HarvestStats()
        out = harvest_literals(
            ["He ran like a deer", "It was as cold as ice", "The city was beautiful"],
            DEFAULT_TAGGER,
            stats,
        )
        assert [l.raw_text for l in out] == ["The city was beautiful"]
        assert stats.rejected == 2

    def test_modifier_final_sentence_with_comparator_token_rejected(self):
        stats = HarvestStats()
        assert harvest_literals(["It ran like the wind, very fast."], DEFAULT_TAGGER, stats) == []
        assert stats.rejected == 1

    def test_rejects_noun_final(self):
        stats = HarvestStats()
        assert harvest_literals(["He saw a dog"], DEFAULT_TAGGER, stats) == []
        assert stats.rejected == 1

    def test_sample_is_seeded_and_sized(self):
        crawled = harvest_literals(
            [f"The road number {i} felt smooth" for i in range(500)], DEFAULT_TAGGER
        )
        assert len(crawled) == 500
        picked = sample_literals(crawled, 150, seed=9)
        assert len(picked) == 150
        assert picked == sample_literals(crawled, 150, seed=9)
        assert picked != sample_literals(crawled, 150, seed=10)

    def test_sample_returns_all_when_n_large(self):
        items = ["The sky was blue"]
        assert sample_literals(items, 5, seed=1) == items


class TestSplitCorpus:
    def test_sizes_and_disjoint(self):
        items = [f"item{i}" for i in range(100)]
        split = split_corpus(items, 0.9, seed=7)
        assert len(split.train) == 90
        assert len(split.validation) == 10
        assert set(split.train).isdisjoint(split.validation)
        assert sorted(split.train + split.validation) == sorted(items)

    def test_deterministic(self):
        items = [f"item{i}" for i in range(50)]
        a = split_corpus(items, 0.8, seed=3)
        b = split_corpus(items, 0.8, seed=3)
        assert a == b
        assert a != split_corpus(items, 0.8, seed=4)

    def test_empty_raises(self):
        with pytest.raises(EmptyCorpus):
            split_corpus([], 0.5, seed=1)

    def test_train_takes_ceiling_on_degenerate_input(self):
        split = split_corpus(["only"], 0.5, seed=1)
        assert (len(split.train), len(split.validation)) == (1, 0)

    def test_bad_ratio(self):
        for ratio in (0, 1, -0.1, 1.5):
            with pytest.raises(ValueError):
                split_corpus(["a"], ratio, seed=1)

    def test_exact_fraction_ratio_supported(self):
        # A Fraction ratio makes the train size an exact integer product,
        # independent of the rounding policy.
        items = list(range(87843))
        split = split_corpus(items, Fraction(82697, 87843), seed=0)
        assert (len(split.train), len(split.validation)) == (82697, 5146)

    def test_float_094_rounds_with_ceiling(self):
        # ceil(0.94 * 87843) = 82573: a two-decimal ratio cannot reproduce
        # the 82697/5146 sizes, whatever the rounding policy.
        items = list(range(87843))
        split = split_corpus(items, 0.94, seed=0)
        assert (len(split.train), len(split.validation)) == (82573, 5270)

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_partition_property(self, n, seed):
        items = [f"i{k}" for k in range(n)]
        split = split_corpus(items, 0.75, seed=seed)
        assert sorted(split.train + split.validation) == sorted(items)
        assert len(split.train) >= len(split.validation)


class TestFileFormats:
    def test_similes_round_trip(self, tmp_path, toy_world):
        path = tmp_path / "similes.jsonl"
        write_similes_jsonl(toy_world["similes"][:5], path)
        loaded = read_similes_jsonl(path)
        assert loaded == toy_world["similes"][:5]
        rec = json.loads(path.read_text().splitlines()[0])
        assert set(rec) == {"text", "prefix", "vehicle", "source_id"}

    def test_similes_read_back_with_stored_split(self, tmp_path):
        inst = parse_simile("The pie was like an oven.", TriggerConfig(COMPARATORS))
        path = tmp_path / "similes.jsonl"
        write_similes_jsonl([inst._replace(source_id="7")], path)
        assert read_similes_jsonl(path) == [inst._replace(source_id="7")]

    def test_text_only_record_parsed_with_default_triggers(self, tmp_path):
        path = tmp_path / "similes.jsonl"
        path.write_text(json.dumps({"text": "He ran like a deer."}) + "\n", encoding="utf-8")
        assert read_similes_jsonl(path) == [parse_simile("He ran like a deer.")]

    @pytest.mark.parametrize("rec", [
        {"text": "He ran like a deer.", "prefix": "He ran", "vehicle": "dog."},
        {"text": "He ran as a deer.", "prefix": "He ran", "vehicle": "deer."},
        {"text": "She ran like a deer.", "prefix": "He ran", "vehicle": "deer."},
    ], ids=["vehicle-mismatch", "comparator-not-known", "prefix-mismatch"])
    def test_bad_stored_split_is_located(self, tmp_path, rec):
        path = tmp_path / "similes.jsonl"
        lines = [json.dumps({"text": "He ran like a deer."}), "", json.dumps(rec)]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_similes_jsonl(path)
        assert exc.value.line_number == 3
        assert str(exc.value).startswith(f"{path}:3: ")

    @pytest.mark.parametrize("rec, reason", [
        ({"property": "hot"}, "missing field 'text'"),
        ({"text": 3, "property": "hot"}, "'text' is int, not a string"),
    ], ids=["missing-text", "int-text"])
    def test_literal_without_text_is_located(self, tmp_path, rec, reason):
        path = tmp_path / "lits.jsonl"
        path.write_text(json.dumps({"text": "Love is rare."}) + "\n" + json.dumps(rec) + "\n",
                        encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_literals_jsonl(path)
        assert str(exc.value) == f"{path}:2: {reason}"

    def test_literals_round_trip(self, tmp_path):
        lits = harvest_literals(["The city was beautiful", "Love is rare."], DEFAULT_TAGGER)
        path = tmp_path / "lits.jsonl"
        write_literals_jsonl(lits, path)
        recs = read_literals_jsonl(path)
        assert recs == [
            {"property": "beautiful", "text": "The city was beautiful"},
            {"property": "rare", "text": "Love is rare."},
        ]
