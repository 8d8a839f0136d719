"""Scoring, seeded decoding, and the reference template n-gram trainer."""

import heapq
import json
import math
import random
import re
import subprocess
import sys
import tempfile
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from similekit.backends import BackendUnavailable
from similekit.core import EOS_TOKEN, append_token, tokenize
from similekit.lm import (
    BigramScorer,
    EmptyText,
    EmptyTrainingSet,
    GenerationConfig,
    GenerationOutput,
    RemoteModel,
    RemoteScorer,
    TemplateCounts,
    TemplateNgramModel,
    TrainConfig,
    UniformScorer,
    _derive_rng,
    _last_word,
    _sample,
    fine_tune,
    generate,
    perplexities,
    perplexity,
)


class CountingBackend:
    """A trainer backend of one's own: fine_tune hands it the pairs to count."""

    def fine_tune(self, pairs, cfg):
        return TemplateNgramModel.train(pairs, cfg)


class UnreachableBackend:
    """A trainer backend that fails when asked, as a remote one with no worker does."""

    def fine_tune(self, pairs, cfg):
        raise BackendUnavailable("no worker")


BACKEND = CountingBackend()


def cfg(**kw):
    base = dict(max_new_tokens=50, seed=0, top_k=5, temperature=0.7)
    base.update(kw)
    return GenerationConfig(**base)


class TestPerplexity:
    @pytest.mark.parametrize("vocab", [1, 3, 17, 50000])
    def test_uniform_scorer_equals_vocab_size(self, vocab):
        scorer = UniformScorer(vocab)
        for text in ("word", "a few more words", "punctuation , counts !"):
            assert perplexity(text, scorer) == vocab

    @pytest.mark.parametrize("vocab", [7, 1000])
    def test_uniform_scorer_is_exact_at_every_length(self, vocab):
        scorer = UniformScorer(vocab)
        for n in range(1, 80):
            assert perplexity(" ".join(["w"] * n), scorer) == vocab

    def test_empty_text_raises(self):
        scorer = UniformScorer(10)
        for text in ("", "   ", None):
            with pytest.raises(EmptyText):
                perplexity(text, scorer)

    def test_delegates_to_scorer_perplexity(self):
        class Fixed:
            def perplexities(self, texts):
                return [42] * len(texts)

        assert perplexity("anything at all", Fixed()) == 42.0
        assert type(perplexity("anything at all", Fixed())) is float

    def test_bigram_hand_computed_single_token(self):
        # Trained on "a b a b": bigram <s>->a has count 1 of 1 context total;
        # unigram a has count 2 of 4; V = {a, b, <unk>} = 3, alpha = 0.1.
        scorer = BigramScorer(["a b a b"])
        p_bi = (1 + 0.1) / (1 + 0.1 * 3)
        p_uni = (2 + 0.1) / (4 + 0.1 * 3)
        expected = 0.5 * p_bi + 0.5 * p_uni
        assert perplexity("a", scorer) == pytest.approx(1.0 / expected, rel=1e-12)

    def test_bigram_prefers_seen_sequence(self):
        scorer = BigramScorer(["a b a b"])
        assert perplexity("a b", scorer) < perplexity("b b", scorer)

    def test_bigram_handles_unknown_tokens(self):
        scorer = BigramScorer(["a b a b"])
        assert math.isfinite(perplexity("zebra quark", scorer))

    def test_bigram_rejects_empty_training(self):
        with pytest.raises(EmptyText):
            BigramScorer([])
        with pytest.raises(EmptyText):
            BigramScorer(["", "  "])

    def test_bigram_parameter_validation(self):
        with pytest.raises(ValueError):
            BigramScorer(["a"], alpha=0.0)
        with pytest.raises(ValueError):
            BigramScorer(["a"], interpolation=1.5)

    def test_uniform_scorer_validation(self):
        with pytest.raises(ValueError):
            UniformScorer(0)


class OracleBigramScorer:
    """The straightforward bigram scorer that BigramScorer must equal bit for bit."""

    BOS = "<s>"
    UNK = "<unk>"

    def __init__(self, texts, alpha=0.1, interpolation=0.5):
        self.alpha = alpha
        self.lam = interpolation
        self.unigram = Counter()
        self.bigram = {}
        self.context_total = Counter()
        for text in texts:
            prev = self.BOS
            for tok in tokenize(text):
                self.unigram[tok] += 1
                self.bigram.setdefault(prev, Counter())[tok] += 1
                self.context_total[prev] += 1
                prev = tok
        self.vocab = set(self.unigram) | {self.UNK}
        self.vocab_size = len(self.vocab)
        self.total = sum(self.unigram.values())

    def token_logprobs(self, tokens):
        out = []
        prev = self.BOS
        for tok in tokens:
            t = tok if tok in self.vocab else self.UNK
            num = self.bigram.get(prev, Counter()).get(t, 0) + self.alpha
            den = self.context_total.get(prev, 0) + self.alpha * self.vocab_size
            p_bi = num / den
            p_uni = (self.unigram.get(t, 0) + self.alpha) / (
                self.total + self.alpha * self.vocab_size
            )
            out.append(math.log(self.lam * p_bi + (1 - self.lam) * p_uni))
            prev = t
        return out


def oracle_perplexity(text, scorer):
    logps = scorer.token_logprobs(tokenize(text))
    return math.exp(-sum(logps) / len(logps))


def oracle_sample(dist, top_k, temperature, rng):
    """Top-k sampling over the fully sorted distribution."""
    items = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))[:top_k]
    if len(items) == 1:
        return items[0][0]
    pmax = items[0][1]
    weights = [(p / pmax) ** (1.0 / temperature) for _, p in items]
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for (tok, _), w in zip(items, weights):
        acc += w
        if r <= acc:
            return tok
    return items[-1][0]


class OracleTrie:
    """The previous suffix trie, returning the counts at the matched node."""

    def __init__(self, suffix_counts):
        self.root = {}
        for joined, count in suffix_counts.items():
            node = self.root
            for tok in joined.split(" "):
                entry = node.setdefault(tok, [0, {}])
                entry[0] += count
                node = entry[1]

    def next_counts(self, context):
        for depth in range(len(context), -1, -1):
            node = self.root
            ok = True
            for tok in context[len(context) - depth :]:
                if tok not in node:
                    ok = False
                    break
                node = node[tok][1]
            if ok and node:
                return {tok: entry[0] for tok, entry in node.items()}
        return None


class OracleDecoder:
    """The previous dict-returning next_token_distribution over a model's tables."""

    def __init__(self, model):
        self.model = model
        self.cue_tries = {cue: OracleTrie(c) for cue, c in model.cue_suffixes.items()}
        self.global_trie = OracleTrie(model.global_suffixes)

    def next_token_distribution(self, src_tokens, out_tokens):
        model = self.model
        copy = model.copy_region(src_tokens)
        n = len(out_tokens)
        if n < len(copy) and out_tokens == copy[:n]:
            return {copy[n]: 1.0}
        counts = None
        if n >= len(copy) and out_tokens[: len(copy)] == copy:
            context = out_tokens[len(copy) :]
            trie = self.cue_tries.get(_last_word(src_tokens))
            if trie is not None:
                counts = trie.next_counts(context)
            if counts is None:
                counts = self.global_trie.next_counts(context)
        if counts is None:
            last = out_tokens[-1] if out_tokens else model.BOS
            counts = model.bigram.get(last) or model.unigram
        if not counts:
            return {EOS_TOKEN: 1.0}
        total = sum(counts.values())
        return {tok: c / total for tok, c in counts.items()}


def heap_sample(dist, top_k, temperature, rng):
    """The previous _sample: top k of a {token: prob} dict by heapq.nsmallest."""
    items = heapq.nsmallest(top_k, dist.items(), key=lambda kv: (-kv[1], kv[0]))
    if len(items) == 1:
        return items[0][0]
    pmax = items[0][1]
    weights = [(p / pmax) ** (1.0 / temperature) for _, p in items]
    total = sum(weights)
    r = rng.random() * total
    acc = 0.0
    for (tok, _), w in zip(items, weights):
        acc += w
        if r <= acc:
            return tok
    return items[-1][0]


def oracle_generate(source, cfg, decoder):
    """The previous decode loop over OracleDecoder and heap_sample."""
    src_tokens = tokenize(source)
    if cfg.forced_prefix:
        out_text, out_tokens = cfg.forced_prefix, tokenize(cfg.forced_prefix)
    else:
        out_text, out_tokens = "", []
    rng = _derive_rng(cfg.seed, source, cfg.forced_prefix)
    for _ in range(cfg.max_new_tokens):
        dist = decoder.next_token_distribution(src_tokens, out_tokens)
        if not dist:
            return GenerationOutput(out_text, truncated=False)
        token = heap_sample(dist, cfg.top_k, cfg.temperature, rng)
        if token == EOS_TOKEN:
            return GenerationOutput(out_text, truncated=False)
        out_tokens.append(token)
        out_text = append_token(out_text, token)
    return GenerationOutput(out_text, truncated=True)


TRAIN_WORDS = ["a", "b", "the", "cat", "ran", "fast", ",", ".", "!"]
# Query words add out-of-vocabulary tokens, including "<unk>" spelled out.
QUERY_WORDS = TRAIN_WORDS + ["zebra", "quark", "<unk>", "<s>"]


def texts_of(words, min_size):
    return st.lists(st.lists(st.sampled_from(words), min_size=min_size, max_size=12)
                    .map(" ".join), min_size=1, max_size=8)


class TestKernelsEqualOracles:
    @given(texts_of(TRAIN_WORDS, 0), texts_of(QUERY_WORDS, 1),
           st.floats(0.001, 5.0), st.floats(0.0, 1.0))
    @settings(max_examples=200, deadline=None)
    def test_bigram_scorer_is_bit_identical(self, train, queries, alpha, lam):
        if not any(tokenize(t) for t in train):
            train = train + ["a"]
        scorer = BigramScorer(train, alpha=alpha, interpolation=lam)
        oracle = OracleBigramScorer(train, alpha=alpha, interpolation=lam)
        assert scorer.context_total == oracle.context_total
        for text in queries:
            tokens = tokenize(text)
            assert scorer._logprobs(tokens, [], []) == oracle.token_logprobs(tokens)
            assert perplexity(text, scorer) == oracle_perplexity(text, oracle)

    @given(st.dictionaries(st.text("abcdefgh", min_size=1, max_size=3),
                           st.sampled_from([0.05, 0.1, 0.1, 0.2, 0.25, 0.25, 0.5, 1e-9]),
                           min_size=1, max_size=40),
           st.integers(1, 12), st.sampled_from([1e-3, 0.3, 0.7, 1.0, 2.5]),
           st.integers(0, 2**32 - 1))
    @settings(max_examples=300, deadline=None)
    def test_sample_picks_the_oracle_token(self, dist, top_k, temperature, seed):
        ranked = sorted(dist.items(), key=lambda kv: (-kv[1], kv[0]))
        rng, oracle_rng = random.Random(seed), random.Random(seed)
        for _ in range(5):
            assert _sample(ranked, top_k, temperature, rng) == \
                oracle_sample(dist, top_k, temperature, oracle_rng)

    @given(texts_of(TRAIN_WORDS, 1), st.data())
    @settings(max_examples=200, deadline=None)
    def test_prefix_reuse_equals_scoring_from_the_start(self, train, data):
        # Candidate families share a prefix and differ at the end, as the
        # literal candidates of one simile do; calls interleave families, each
        # reuses the log-probs of the call before, as token_perplexities does,
        # and both the returned lists and the token lists passed in are mutated.
        scorer, oracle = BigramScorer(train), OracleBigramScorer(train)
        word = st.sampled_from(QUERY_WORDS)
        families = data.draw(st.lists(st.tuples(
            st.lists(word, max_size=8),
            st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=5)),
            min_size=1, max_size=4))
        calls = [prefix + tail for prefix, tails in families for tail in tails]
        before, before_logps = [], []
        for tokens in data.draw(st.permutations(calls)):
            tokens = list(tokens)
            expected = oracle.token_logprobs(tokens)
            got = scorer._logprobs(tokens, before, before_logps)
            assert got == expected
            before, before_logps = list(tokens), list(got)
            got.append(0.0)
            got[0] = 1.0
            tokens[-1] = "mutated"
            assert scorer._logprobs(tokens, [], []) == oracle.token_logprobs(tokens)


@st.composite
def candidate_families(draw):
    """Texts in families that share a prefix and differ at the end, as the
    literal candidates of one simile do."""
    word = st.sampled_from(QUERY_WORDS)
    families = draw(st.lists(st.tuples(
        st.lists(word, max_size=8),
        st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=5)),
        min_size=1, max_size=4))
    return [" ".join(prefix + tail) for prefix, tails in families for tail in tails]


class TestBatchScoring:
    @given(texts_of(TRAIN_WORDS, 1), candidate_families())
    @settings(max_examples=200, deadline=None)
    def test_batch_equals_the_oracle_bit_for_bit(self, train, texts):
        oracle = OracleBigramScorer(train)
        expected = [oracle_perplexity(text, oracle) for text in texts]
        assert perplexities(texts, BigramScorer(train)) == expected
        assert BigramScorer(train).perplexities(texts) == expected

    @given(texts_of(TRAIN_WORDS, 1), candidate_families(), candidate_families())
    @settings(max_examples=200, deadline=None)
    def test_a_batch_leaves_no_state_behind(self, train, first, second):
        scorer = BigramScorer(train)
        perplexities(first, scorer)
        assert perplexities(second, scorer) == perplexities(second, BigramScorer(train))
        tokens = tokenize(second[0])
        assert scorer._logprobs(tokens, [], []) == OracleBigramScorer(train).token_logprobs(tokens)

    @given(texts_of(TRAIN_WORDS, 1), candidate_families())
    @settings(max_examples=100, deadline=None)
    def test_adapter_equals_per_text_scoring(self, train, texts):
        """Handed the tokens, perplexities scores them as it scores each text alone."""
        oracle, scorer = OracleBigramScorer(train), BigramScorer(train)
        expected = [oracle_perplexity(text, oracle) for text in texts]
        assert perplexities(texts, scorer, [tokenize(text) for text in texts]) == expected
        assert [perplexity(text, scorer) for text in texts] == expected

    @given(candidate_families(), st.data(), st.sampled_from(["", " ", "\t\n", None]))
    @settings(max_examples=50, deadline=None)
    def test_empty_candidate_raises_before_any_request(self, texts, data, empty):
        texts.insert(data.draw(st.integers(0, len(texts))), empty)
        scorer = RemoteScorer([sys.executable, "-c", "pass"])
        with mock.patch.object(subprocess, "Popen", side_effect=AssertionError("request sent")):
            with pytest.raises(EmptyText):
                perplexities(texts, scorer)

    def test_uniform_batch_is_constant(self):
        assert perplexities(["a b", "c", "d e f"], UniformScorer(7)) == [7.0, 7.0, 7.0]

    def test_remote_batch_is_one_request_per_text(self, tmp_path):
        scorer = RemoteScorer(write_lm_script(tmp_path, ECHO_SERVER))
        assert perplexities(["a", "b c", "d"], scorer) == [42.0, 42.0, 42.0]


SRC_WORDS = ["x", "y", "sky", "is", "was", "red", "cold", "very", ",", "."]
TGT_WORDS = SRC_WORDS + ["like", "a", "rose", "fire", "sea"]


@st.composite
def template_models(draw):
    """A trained model, or now and then one with empty tables."""
    if draw(st.integers(0, 9)) == 0:
        return TemplateNgramModel(draw(st.integers(0, 2)), {}, {}, {}, {}, {})
    pairs = []
    for _ in range(draw(st.integers(1, 8))):
        src = draw(st.lists(st.sampled_from(SRC_WORDS), min_size=1, max_size=7))
        keep = draw(st.integers(0, len(src)))
        tail = draw(st.lists(st.sampled_from(TGT_WORDS), max_size=5))
        pairs.append((" ".join(src), " ".join(src[:keep] + tail)))
    return TemplateNgramModel.train(pairs, TrainConfig(seed=0))


decode_sources = st.lists(st.sampled_from(TGT_WORDS + ["zebra"]), min_size=1,
                          max_size=7).map(" ".join)


class TestDecodeEqualsOracle:
    @given(template_models(), st.lists(decode_sources, min_size=1, max_size=4),
           st.none() | decode_sources, st.integers(1, 8),
           st.sampled_from([1e-3, 0.3, 0.7, 1.0, 2.5]), st.integers(0, 2**32 - 1),
           st.integers(1, 20))
    @settings(max_examples=300, deadline=None)
    def test_generate_equals_oracle_decode(self, model, sources, forced, top_k,
                                           temperature, seed, budget):
        oracle = OracleDecoder(model)
        c = cfg(max_new_tokens=budget, seed=seed, top_k=top_k, temperature=temperature,
                forced_prefix=forced)
        # Sources repeat and interleave, so state kept between calls is exercised.
        for source in sources + sources[::-1]:
            assert generate(source, c, model) == oracle_generate(source, c, oracle)

    def test_toy_model_equals_oracle_decode(self, toy_model, toy_world):
        oracle = OracleDecoder(toy_model)
        for seed, text in enumerate(toy_world["holdout"]):
            c = cfg(seed=seed, forced_prefix="The river was like a" if seed % 3 == 0 else None)
            assert generate(text, c, toy_model) == oracle_generate(text, c, oracle)


class TestGenerationConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            cfg(max_new_tokens=0)
        with pytest.raises(ValueError):
            cfg(top_k=0)
        with pytest.raises(ValueError):
            cfg(temperature=0.0)

    @pytest.mark.parametrize("temperature", [-1.0, float("nan"), float("inf"), float("-inf")])
    def test_temperature_must_be_finite_and_positive(self, temperature):
        with pytest.raises(ValueError, match="temperature must be finite and > 0"):
            cfg(temperature=temperature)

    def test_train_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(seed=1, epochs=0)


def balanced_model():
    pairs = [
        ("x is red.", "x is like a rose."),
        ("x is red.", "x is like a fire."),
        ("x is red.", "x is like a brick."),
    ]
    return TemplateNgramModel.train(pairs, TrainConfig(seed=0))


def skewed_model():
    pairs = [
        ("x is red.", "x is like a rose."),
        ("x is red.", "x is like a rose."),
        ("x is red.", "x is like a fire."),
    ]
    return TemplateNgramModel.train(pairs, TrainConfig(seed=0))


class TestGenerate:
    def test_single_pair_greedy_reproduces_target(self):
        model = TemplateNgramModel.train(
            [("He ran fast.", "He ran like a deer.")], TrainConfig(seed=0)
        )
        out = generate("He ran fast.", cfg(top_k=1), model)
        assert out == GenerationOutput("He ran like a deer.", truncated=False)

    def test_same_seed_same_output(self):
        model = balanced_model()
        a = generate("x is red.", cfg(seed=3), model)
        b = generate("x is red.", cfg(seed=3), model)
        assert a == b

    def test_seeds_explore_the_distribution(self):
        model = balanced_model()
        texts = {generate("x is red.", cfg(seed=s, temperature=1.0), model).text for s in range(20)}
        assert len(texts) >= 2
        assert all(t.startswith("x is like a") for t in texts)

    def test_greedy_breaks_ties_lexicographically(self):
        out = generate("x is red.", cfg(top_k=1), balanced_model())
        assert out.text == "x is like a brick."

    def test_low_temperature_approaches_greedy(self):
        model = skewed_model()
        greedy = generate("x is red.", cfg(top_k=1), model).text
        for seed in range(10):
            sampled = generate("x is red.", cfg(seed=seed, top_k=2, temperature=1e-3), model)
            assert sampled.text == greedy

    def test_forced_prefix_is_verbatim(self):
        model = balanced_model()
        out = generate("x is red.", cfg(forced_prefix="y might be like a"), model)
        assert out.text.startswith("y might be like a")

    def test_truncation_flag_set_when_budget_runs_out(self):
        out = generate("x is red.", cfg(max_new_tokens=2), balanced_model())
        assert out.truncated
        assert out.text == "x is"

    def test_truncation_flag_clear_on_eos(self):
        out = generate("x is red.", cfg(), balanced_model())
        assert not out.truncated

    def test_silent_model_yields_empty_untruncated(self):
        class Silent:
            def next_token_distribution(self, src, out):
                return {}

        assert generate("x", cfg(), Silent()) == GenerationOutput("", truncated=False)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_decode_depends_only_on_seed_and_input(self, seed):
        model = balanced_model()
        first = generate("x is red.", cfg(seed=seed, temperature=1.5), model)
        # Interleave an unrelated call; the derived stream must not shift.
        generate("something else is red.", cfg(seed=seed + 1), model)
        again = generate("x is red.", cfg(seed=seed, temperature=1.5), model)
        assert first == again


def model_state(model):
    return (model.drop_words, model.cue_suffixes, model.global_suffixes, model.bigram,
            model.unigram, model.train_config)


def saved_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        model.save(tmp)
        return {name: (Path(tmp) / name).read_bytes() for name in ("manifest.json", "model.json")}


WORDS = ["the", "sky", "was", "blue", "hard", "rock", "ran", "fast", ",", ".", "!"]
texts = st.lists(st.sampled_from(WORDS), min_size=1, max_size=6).map(" ".join)
pair_lists = st.lists(st.tuples(texts, texts.map(lambda t: t + " like a sea .")),
                      min_size=1, max_size=12)


class TestTemplateNgramModel:
    def test_empty_training_set(self):
        with pytest.raises(EmptyTrainingSet):
            TemplateNgramModel.train([], TrainConfig(seed=0))
        with pytest.raises(EmptyTrainingSet):
            fine_tune([], TrainConfig(seed=0), BACKEND)

    @pytest.mark.parametrize("backend", [BACKEND, UnreachableBackend()],
                             ids=["reference", "remote"])
    def test_empty_iterator_is_an_empty_training_set(self, backend):
        with pytest.raises(EmptyTrainingSet):
            TemplateNgramModel.train(iter([]), TrainConfig(seed=0))
        with pytest.raises(EmptyTrainingSet):
            fine_tune((pair for pair in []), TrainConfig(seed=0), backend)

    @given(pair_lists, st.integers(0, 3))
    @settings(max_examples=100, deadline=None)
    def test_training_on_an_iterator_equals_training_on_a_list(self, pairs, seed):
        cfg = TrainConfig(seed=seed)
        from_list = TemplateNgramModel.train(pairs, cfg)
        streamed = fine_tune((pair for pair in pairs), cfg, BACKEND)
        assert model_state(streamed) == model_state(from_list)
        assert saved_bytes(streamed) == saved_bytes(from_list)

    @given(pair_lists, st.data())
    @settings(max_examples=100, deadline=None)
    def test_counts_of_runs_add_up_to_the_counts_of_all(self, pairs, data):
        """Runs counted apart and added, as train's workers are, give the model of one count."""
        cuts = sorted(data.draw(st.lists(st.integers(0, len(pairs)), max_size=4)))
        total = TemplateCounts()
        for start, end in zip([0, *cuts], [*cuts, len(pairs)]):
            total.add(TemplateCounts().count(pairs[start:end]))
        assert vars(total) == vars(TemplateCounts().count(pairs))
        merged = TemplateNgramModel.from_counts(total, TrainConfig(seed=1))
        assert saved_bytes(merged) == saved_bytes(TemplateNgramModel.train(pairs,
                                                                           TrainConfig(seed=1)))

    def test_training_and_saving_build_no_trie(self, tmp_path, toy_pairs, toy_world):
        model = fine_tune(iter(toy_pairs), TrainConfig(seed=11), BACKEND)
        model.save(tmp_path)
        assert model._cue_tries == {} and model._global_trie is None
        generate(toy_world["holdout"][0], cfg(seed=7), model)
        assert len(model._cue_tries) == 1

    def test_failed_model_write_leaves_no_new_manifest(self, tmp_path, monkeypatch, toy_model):
        import similekit.lm as lm

        old = tmp_path / "old"
        TemplateNgramModel.train([("a b c.", "a b like a d.")], TrainConfig(seed=1)).save(old)
        before = {p.name: p.read_bytes() for p in old.iterdir()}
        write_json = lm.write_json

        def fail_on_model(obj, path, indent=2):
            if str(path).endswith("model.json"):
                raise OSError("disk full")
            write_json(obj, path, indent)

        monkeypatch.setattr(lm, "write_json", fail_on_model)
        for model_dir in (old, tmp_path / "new"):
            with pytest.raises(OSError, match="disk full"):
                toy_model.save(model_dir)
        assert {p.name: p.read_bytes() for p in old.iterdir()} == before
        assert list((tmp_path / "new").iterdir()) == []

    def test_learns_drop_count_mode(self):
        pairs = [
            ("a b c.", "a b z."),          # drops 1
            ("a b c.", "a b z z."),        # drops 1
            ("a b c d.", "a b z."),        # drops 2
        ]
        model = TemplateNgramModel.train(pairs, TrainConfig(seed=0))
        assert model.drop_words == 1

    def test_drop_count_tie_takes_smaller(self):
        pairs = [
            ("a b c.", "a b z."),      # drops 1
            ("a b c d.", "a b z."),    # drops 2
        ]
        model = TemplateNgramModel.train(pairs, TrainConfig(seed=0))
        assert model.drop_words == 1

    def test_copy_region_trims_trailing_punctuation(self):
        model = balanced_model()
        assert model.copy_region(["x", "is", "red", ".", "!"]) == ["x", "is"]

    def test_cue_conditions_the_continuation(self):
        pairs = [
            ("The sky was blue.", "The sky was like a sea."),
            ("The rock was hard.", "The rock was like a diamond."),
        ]
        model = TemplateNgramModel.train(pairs, TrainConfig(seed=0))
        out = generate("The wall was hard.", cfg(top_k=1), model)
        assert out.text == "The wall was like a diamond."

    def test_unseen_cue_falls_back_to_global_suffixes(self):
        pairs = [
            ("The sky was blue.", "The sky was like a sea."),
            ("The rock was hard.", "The rock was like a diamond."),
        ]
        model = TemplateNgramModel.train(pairs, TrainConfig(seed=0))
        out = generate("The day felt odd.", cfg(top_k=1), model)
        assert out.text == "The day felt like a diamond."

    def test_fine_tune_accepts_pair_objects(self, toy_pairs):
        model = fine_tune(toy_pairs[:5], TrainConfig(seed=2), BACKEND)
        assert model.drop_words == 1

    def test_save_load_round_trip(self, tmp_path, toy_model, toy_world):
        model_dir = tmp_path / "model"
        toy_model.save(model_dir)
        manifest = json.loads((model_dir / "manifest.json").read_text())
        assert manifest["type"] == "template-ngram"
        assert manifest["train_config"]["seed"] == 11
        loaded = TemplateNgramModel.load(model_dir)
        assert loaded.drop_words == toy_model.drop_words
        for text in toy_world["holdout"][:5]:
            c = cfg(seed=7)
            assert generate(text, c, loaded) == generate(text, c, toy_model)

    def test_load_rejects_foreign_dir(self, tmp_path):
        (tmp_path / "manifest.json").write_text(json.dumps({"type": "other"}))
        with pytest.raises(ValueError):
            TemplateNgramModel.load(tmp_path)

    @pytest.mark.parametrize("name", ["model.json", "manifest.json"])
    @pytest.mark.parametrize("damage, reason", [
        (lambda data: data + b"\xff", "'utf-8' codec can't decode byte 0xff"),
        (lambda data: data[:-5], "Expecting"),
        (lambda data: b"[]", "not a JSON object"),
        (lambda data: b"{}", "missing field"),
    ])
    def test_damaged_model_file_is_named(self, tmp_path, name, damage, reason):
        model_dir = tmp_path / "model"
        fine_tune([("The sky was blue.", "The sky was like a sea.")], TrainConfig(seed=1),
                  BACKEND).save(model_dir)
        path = model_dir / name
        path.write_bytes(damage(path.read_bytes()))
        with pytest.raises(ValueError, match=re.escape(f"{path}: ") + ".*" + re.escape(reason)):
            TemplateNgramModel.load(model_dir)

    def test_toy_model_generates_similes_from_held_out_literals(self, toy_model, toy_world):
        text = toy_world["holdout"][0]
        out = generate(text, cfg(seed=1), toy_model)
        assert "like a" in out.text
        assert not out.truncated


def write_lm_script(tmp_path, body: str):
    script = tmp_path / "lm.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


ECHO_SERVER = """\
import json, sys
req = json.load(sys.stdin)
if req["op"] == "perplexity":
    print(json.dumps({"perplexity": 42.0}))
elif req["op"] == "generate":
    print(json.dumps({"text": req["source"] + " ok", "truncated": False}))
"""


class TestRemoteAdapters:
    def test_remote_scorer(self, tmp_path):
        scorer = RemoteScorer(write_lm_script(tmp_path, ECHO_SERVER))
        assert perplexity("any text", scorer) == 42.0

    def test_remote_generate(self, tmp_path):
        model = RemoteModel(write_lm_script(tmp_path, ECHO_SERVER), "m1")
        out = generate("hello", cfg(), model)
        assert out == GenerationOutput("hello ok", truncated=False)

    def test_remote_forced_prefix_violation_detected(self, tmp_path):
        command = write_lm_script(tmp_path, ECHO_SERVER)
        model = RemoteModel(command, "m1")
        with pytest.raises(BackendUnavailable):
            generate("hello", cfg(forced_prefix="entirely different"), model)

    def test_bad_scorer_reply(self, tmp_path):
        scorer = RemoteScorer(write_lm_script(tmp_path, "print('{}')"))
        with pytest.raises(BackendUnavailable):
            perplexity("text", scorer)

    @pytest.mark.parametrize("call", ["generate", "perplexity"])
    def test_reply_without_its_field_names_the_command(self, tmp_path, call):
        command = write_lm_script(tmp_path, "print('[\"wrong shape\"]')")
        message = f"backend '{sys.executable}' sent a bad reply"
        with pytest.raises(BackendUnavailable, match=re.escape(message)):
            if call == "generate":
                RemoteModel(command, "m1").generate_text("hello", cfg())
            else:
                RemoteScorer(command).perplexities(["hello"])


def reply_command(tmp_path, reply: str):
    """A stdlib worker that reads its request and prints `reply`, whatever was asked."""
    return write_lm_script(tmp_path, f"import sys\nsys.stdin.read()\nprint({reply!r})\n")


class TestRemoteReplyTypes:
    """A reply value its field's type rejects is BackendUnavailable, not a converted value."""

    @pytest.mark.parametrize("reply", [
        '{"text": null, "truncated": "no"}',
        '{"text": null}',
        '{"text": 7, "truncated": false}',
        '{"text": ["a"], "truncated": false}',
        '{"text": "hello ok", "truncated": "no"}',
        '{"text": "hello ok", "truncated": 1}',
        '{"text": "hello ok", "truncated": null}',
    ])
    def test_generate_refuses(self, tmp_path, reply):
        model = RemoteModel(reply_command(tmp_path, reply), "m1")
        with pytest.raises(BackendUnavailable, match="bad reply"):
            model.generate_text("hello", cfg())

    @pytest.mark.parametrize("reply, expected", [
        ('{"text": "hello ok", "truncated": true}', GenerationOutput("hello ok", True)),
        ('{"text": "hello ok"}', GenerationOutput("hello ok", False)),
    ])
    def test_generate_accepts(self, tmp_path, reply, expected):
        assert RemoteModel(reply_command(tmp_path, reply), "m1").generate_text(
            "hello", cfg()) == expected

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "0", "-2.5", "true",
                                       "false", "null", '"3.5"', "[3.5]", "1e400",
                                       "1" + "0" * 400])
    def test_perplexity_refuses(self, tmp_path, value):
        scorer = RemoteScorer(reply_command(tmp_path, f'{{"perplexity": {value}}}'))
        with pytest.raises(BackendUnavailable, match="bad reply"):
            perplexities(["a", "b"], scorer)

    @pytest.mark.parametrize("value, expected", [("3", 3.0), ("2.5", 2.5), ("1e-300", 1e-300)])
    def test_perplexity_accepts(self, tmp_path, value, expected):
        scorer = RemoteScorer(reply_command(tmp_path, f'{{"perplexity": {value}}}'))
        assert perplexities(["a"], scorer) == [expected]
        assert type(perplexities(["a"], scorer)[0]) is float

    def test_nan_perplexity_never_wins_a_candidate(self, tmp_path):
        """select_best_literals would take a NaN perplexity as the best; the build stops
        instead."""
        from similekit.core import parse_simile
        from similekit.corpus import select_best_literals
        from similekit.knowledge import PropertyCandidate

        scorer = RemoteScorer(reply_command(tmp_path, '{"perplexity": NaN}'))
        simile = parse_simile("It ran like a deer.")
        with pytest.raises(BackendUnavailable):
            select_best_literals([simile], [[PropertyCandidate("fast", 1.0)]], scorer)
