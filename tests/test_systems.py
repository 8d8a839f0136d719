"""The four generators: free decode, forced prefix, retrieval, mask-and-decode."""

import pytest
from hypothesis import given, settings, strategies as st

from similekit.core import NotModifierFinal, parse_simile
from similekit.evaluation import read_batch_jsonl
from similekit.knowledge import EMPTY_SYNONYMS, EdgeTableBackend, KnowledgeEdge, SynonymTable
from similekit.lm import EmptyTrainingSet, GenerationConfig, TemplateNgramModel, TrainConfig
from similekit.systems import (
    ABSENT_OUTPUT,
    MASK_TOKEN,
    NOTHING_MASKED,
    baseline_metaphor_mask,
    baseline_prefix_forced,
    baseline_retrieval,
    mask_terminal_modifier,
    masked_pairs,
    run_batch,
    scope_generate,
)
from similekit.tagging import DEFAULT_TAGGER


def cfg(**kw):
    base = dict(max_new_tokens=50, seed=0, top_k=5, temperature=0.7)
    base.update(kw)
    return GenerationConfig(**base)


def oracle_masked_pairs(pairs, tagger, stats):
    """The list-based masking: (index, (masked source, target)) for each pair whose source
    can be masked."""
    kept = []
    for index, (source, target) in enumerate(pairs):
        try:
            masked = mask_terminal_modifier(source, tagger)
        except NotModifierFinal:
            stats["skipped"] += 1
            continue
        kept.append((index, (masked, target)))
    return kept


sources = st.builds("{} {} {}{}".format, st.sampled_from(["The sky", "He", "A rock"]),
                    st.sampled_from(["was", "ran", "saw"]),
                    st.sampled_from(["blue", "quickly", "a dog", "hard", "the tree"]),
                    st.sampled_from([".", "!", ""]))
TARGETS = ["The sky was like a sea.", "He ran like a deer!", "A rock was like a wall."]


class TestScope:
    def test_free_decode(self, toy_model, toy_world):
        text = scope_generate(toy_world["holdout"][0], toy_model, cfg(seed=4))
        assert parse_simile(text) is not None

    def test_rejects_forced_prefix(self, toy_model):
        with pytest.raises(ValueError):
            scope_generate("The river seemed cold.", toy_model, cfg(forced_prefix="x"))

    def test_deterministic(self, toy_model, toy_world):
        lit = toy_world["holdout"][3]
        assert scope_generate(lit, toy_model, cfg(seed=9)) == scope_generate(
            lit, toy_model, cfg(seed=9)
        )


class TestPrefixForced:
    def test_output_starts_with_constructed_prefix(self, pretrained_model):
        out = baseline_prefix_forced(
            "The river seemed cold.", pretrained_model, cfg(), DEFAULT_TAGGER
        )
        assert out.startswith("The river seemed like a")

    def test_dangling_comma_removed(self, pretrained_model):
        # Stripping "bold" leaves "His plan was simple," ; the forced prefix
        # must not carry that comma into "like a".
        out = baseline_prefix_forced(
            "His plan was simple, bold.", pretrained_model, cfg(), DEFAULT_TAGGER
        )
        assert out.startswith("His plan was simple like a")

    def test_preservation_is_total(self, pretrained_model, toy_world):
        for lit in toy_world["holdout"]:
            out = baseline_prefix_forced(lit, pretrained_model, cfg(seed=2), DEFAULT_TAGGER)
            assert " like a" in out

    def test_unstrippable_literal_raises(self, pretrained_model):
        with pytest.raises(NotModifierFinal):
            baseline_prefix_forced("He saw a dog.", pretrained_model, cfg(), DEFAULT_TAGGER)


class TestRetrieval:
    BACKEND = EdgeTableBackend(
        [
            KnowledgeEdge("sunset", "beautiful", 3.0),
            KnowledgeEdge("rose", "beautiful", 2.0),
            KnowledgeEdge("oven", "hot", 2.0),
        ]
    )

    def test_known_property(self):
        out = baseline_retrieval(
            "The city was beautiful.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out == "The city was like a sunset."

    def test_trailing_punctuation_reattached(self):
        out = baseline_retrieval(
            "The city was beautiful!", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out == "The city was like a sunset!"

    def test_absent_property_returns_none(self):
        out = baseline_retrieval(
            "The city was fractal.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER
        )
        assert out is None

    def test_synonym_fallback(self):
        syns = SynonymTable({"gorgeous": ["beautiful"]})
        out = baseline_retrieval("The city was gorgeous.", self.BACKEND, syns, DEFAULT_TAGGER)
        assert out == "The city was like a sunset."

    def test_article_fixed_by_default(self):
        out = baseline_retrieval("The pie was hot.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER)
        assert out == "The pie was like a oven."

    def test_article_heuristic_opt_in(self):
        out = baseline_retrieval(
            "The pie was hot.", self.BACKEND, EMPTY_SYNONYMS, DEFAULT_TAGGER,
            use_article_heuristic=True,
        )
        assert out == "The pie was like an oven."

    def test_empty_table(self):
        empty = EdgeTableBackend([])
        assert baseline_retrieval("It was hot.", empty, EMPTY_SYNONYMS, DEFAULT_TAGGER) is None


class TestMasking:
    def test_mask_and_unmask_round_trip(self):
        masked = mask_terminal_modifier("The city was beautiful.", DEFAULT_TAGGER)
        assert masked == f"The city was {MASK_TOKEN}."
        assert masked.replace(MASK_TOKEN, "beautiful", 1) == "The city was beautiful."

    def test_mask_requires_modifier_final(self):
        with pytest.raises(NotModifierFinal):
            mask_terminal_modifier("He saw a dog.", DEFAULT_TAGGER)

    def test_train_skips_unstrippable_sources(self):
        pairs = [
            ("The sky was blue.", "The sky was like a sea."),
            ("He saw a dog.", "He ran like a deer."),
        ]
        stats = {"skipped": 0}
        model = TemplateNgramModel.train(masked_pairs(pairs, DEFAULT_TAGGER, stats),
                                         TrainConfig(seed=0))
        assert stats["skipped"] == 1
        assert model.drop_words >= 1

    def test_tagger_failure_propagates(self):
        class BrokenTagger:
            def tag(self, word):
                raise RuntimeError("tagger crashed")

        pairs = [("The sky was blue.", "The sky was like a sea.")]
        with pytest.raises(RuntimeError, match="tagger crashed"):
            list(masked_pairs(pairs, BrokenTagger(), {"skipped": 0}))

    def test_train_raises_when_nothing_survives(self):
        pairs = [("He saw a dog.", "He ran like a deer.")]
        with pytest.raises(EmptyTrainingSet):
            TemplateNgramModel.train(masked_pairs(pairs, DEFAULT_TAGGER, {"skipped": 0}),
                                     TrainConfig(seed=0))

    @pytest.mark.parametrize("make", [list, lambda pairs: (pair for pair in pairs)],
                             ids=["list", "generator"])
    @pytest.mark.parametrize("pairs", [
        [],
        [("He saw a dog.", "He ran like a deer."), ("A tree.", "A tree like a tower.")],
    ], ids=["empty", "all-unmaskable"])
    def test_nothing_to_train_on_names_the_masking(self, make, pairs):
        """With no maskable source every pair counts as skipped and training has nothing
        to learn from; train --mask then reports NOTHING_MASKED, which names the masking."""
        stats = {"skipped": 0}
        with pytest.raises(EmptyTrainingSet):
            TemplateNgramModel.train(masked_pairs(make(pairs), DEFAULT_TAGGER, stats),
                                     TrainConfig(seed=0))
        assert stats == {"skipped": len(pairs)}
        assert NOTHING_MASKED == "no sources survive terminal-modifier masking"

    @given(st.lists(st.tuples(sources, st.sampled_from(TARGETS)), min_size=1, max_size=10))
    @settings(max_examples=100, deadline=None)
    def test_streamed_masking_equals_the_list_oracle(self, pairs):
        """masked_pairs yields what the list oracle keeps, reading a pair only when the
        masked pair before it has been taken."""
        stats, oracle_stats = {"skipped": 0}, {"skipped": 0}
        expected = oracle_masked_pairs(pairs, DEFAULT_TAGGER, oracle_stats)
        read = []

        def stream():
            for pair in pairs:
                read.append(pair)
                yield pair

        # Each masked pair with the index of the last pair read when it was yielded.
        got = [(len(read) - 1, masked)
               for masked in masked_pairs(stream(), DEFAULT_TAGGER, stats)]
        assert got == expected
        assert stats == oracle_stats
        assert len(read) == len(pairs)

    def test_masked_decode_produces_similes(self, toy_pairs, toy_world):
        pairs = ((p.source, p.target) for p in toy_pairs)
        model = TemplateNgramModel.train(masked_pairs(pairs, DEFAULT_TAGGER, {"skipped": 0}),
                                         TrainConfig(seed=6))
        out = baseline_metaphor_mask(toy_world["holdout"][0], model, cfg(seed=6), DEFAULT_TAGGER)
        assert "like a" in out
        assert MASK_TOKEN not in out


class TestRunBatch:
    def test_records_and_file(self, tmp_path):
        path = tmp_path / "batch.jsonl"
        records = run_batch(
            ["The city was beautiful.", "The city was fractal."],
            "rtrvl",
            lambda lit: "The city was like a sunset." if "beautiful" in lit else None,
            seed=5,
            out_path=path,
        )
        assert records == read_batch_jsonl(path)
        assert records[0] == {
            "literal": "The city was beautiful.",
            "system": "rtrvl",
            "output": "The city was like a sunset.",
            "seed": 5,
        }
        assert records[1]["output"] == ABSENT_OUTPUT

    def test_order_preserved(self):
        literals = [f"Item {i} felt warm." for i in range(10)]
        records = run_batch(literals, "scope", lambda lit: lit.upper(), seed=1)
        assert [r["literal"] for r in records] == literals
