"""Scoring, seeded decoding, and the reference template n-gram trainer."""

import heapq
import itertools
import json
import math
import os
import random
import re
import subprocess
import sys
import tempfile
import tracemalloc
from array import array
from collections import Counter
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from similekit import core, lm
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
    _SuffixTable,
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


def scorer_tables(scorer):
    """A BigramScorer's bigram rows {context: {token: count}}, those not empty, and its
    unigram counts, read from its arrays: ids number the tokens 1 up in their order, 0
    is BOS, and the id after the last, UNK, has an empty row."""
    names = [BigramScorer.BOS, *scorer.ids]
    assert list(scorer.ids.values()) == list(range(1, len(names)))
    assert len(scorer.starts) == len(names) + 2 and scorer.starts[-1] == scorer.starts[-2]
    rows, unigram = {}, Counter()
    for context, (begin, end) in enumerate(itertools.pairwise(scorer.starts)):
        row = {names[token]: count for token, count in zip(scorer.successors[begin:end],
                                                           scorer.counts[begin:end])}
        if row:
            assert list(scorer.successors[begin:end]) == sorted(scorer.successors[begin:end])
            rows[names[context]] = row
            unigram.update(row)
    return rows, unigram


def generated_texts(count: int, seed: int = 3) -> list[str]:
    """count texts of 4 to 16 words and a period, the words drawn from 3,000 by
    falling frequency (the word of rank r weighs 1/r)."""
    rng = random.Random(seed)
    words = [f"w{rank}" for rank in range(3000)]
    weights = [1 / rank for rank in range(1, 3001)]
    return [" ".join(rng.choices(words, weights, k=rng.randint(4, 16))) + "."
            for _ in range(count)]


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
    """The dict-returning next_token_distribution over a model's cue table.

    The global trie is built from one summed table, and an output a forced
    prefix took away from the copy region is matched whole.
    """

    def __init__(self, model):
        self.model = model
        self.cue_tries = {cue: OracleTrie(c) for cue, c in model.cue_suffixes.items()}
        summed = Counter()
        for bucket in model.cue_suffixes.values():
            summed.update(bucket)
        self.global_trie = OracleTrie(summed)

    def next_token_distribution(self, src_tokens, out_tokens):
        model = self.model
        copy = model.copy_region(src_tokens)
        n = len(out_tokens)
        if n < len(copy) and out_tokens == copy[:n]:
            return {copy[n]: 1.0}
        if n >= len(copy) and out_tokens[: len(copy)] == copy:
            context = out_tokens[len(copy) :]
        else:
            context = out_tokens
        counts = None
        trie = self.cue_tries.get(_last_word(src_tokens))
        if trie is not None:
            counts = trie.next_counts(context)
        if counts is None:
            counts = self.global_trie.next_counts(context)
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
        # Each context's row, so its bigram total, and each token's count are the oracle's.
        rows, unigram = scorer_tables(scorer)
        assert rows == {prev: dict(row) for prev, row in oracle.bigram.items()}
        assert {prev: sum(row.values()) for prev, row in rows.items()} == oracle.context_total
        assert unigram == oracle.unigram
        for text in queries:
            tokens = tokenize(text)
            assert scorer._logprobs(tokens) == oracle.token_logprobs(tokens)
            assert perplexity(text, scorer) == oracle_perplexity(text, oracle)

    @given(st.lists(st.lists(st.sampled_from(TRAIN_WORDS), max_size=12).map(" ".join),
                    min_size=1, max_size=40), texts_of(QUERY_WORDS, 1))
    @settings(max_examples=100, deadline=None)
    def test_a_scorer_counted_in_runs_and_ranges_is_the_oracle(self, train, queries):
        """Runs of 3 texts, spooled, their keys counted in ranges of about 2 keys, and
        keyed with the fewest bits their ids need, so that a run keyed before the
        vocabulary outgrew its shift is keyed anew."""
        train = train + ["a"]
        with mock.patch.object(core, "RUN_LENGTH", 3), \
                mock.patch.multiple(lm, _MIN_SHIFT=1, _SAMPLE_STEP=2, _SAMPLES_PER_RANGE=1):
            scorer = BigramScorer(train)
        oracle = OracleBigramScorer(train)
        rows, unigram = scorer_tables(scorer)
        assert rows == {prev: dict(row) for prev, row in oracle.bigram.items()}
        assert unigram == oracle.unigram
        for text in queries:
            tokens = tokenize(text)
            assert scorer._logprobs(tokens) == oracle.token_logprobs(tokens)

    @given(texts_of(TRAIN_WORDS, 1))
    @settings(max_examples=100, deadline=None)
    def test_the_scorer_holds_one_string_per_token(self, train):
        """The keys of ids, one per distinct token, are the only strs the scorer holds:
        every other field is a number or an array of numbers, and _terms holds those
        and ids.get."""
        scorer = BigramScorer(train)
        assert set(scorer.ids) == {token for text in train for token in tokenize(text)}
        numbers = (int, float, array)
        assert all(isinstance(value, numbers) for name, value in vars(scorer).items()
                   if name not in ("ids", "_terms"))
        assert all(isinstance(value, numbers) or value == scorer.ids.get
                   for value in scorer._terms)

    def test_it_holds_fewer_bytes_than_its_dicts_did(self):
        """tracemalloc's count of what a scorer holds, and of its build's peak, per
        distinct bigram, over 6,000 generated texts (65,602 tokens, 36,242 bigrams; 12
        runs, so its keys are spooled and counted in ranges).  The dict of dicts held
        44.7 bytes a bigram and peaked at 45.1 (Python 3.11); the arrays hold 17.4 and
        the build peaks at 30.0: the ids, the samples and one range's Counter."""
        texts = generated_texts(6000)
        BigramScorer(texts[:10])  # the first call fills the caches it leaves behind
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            scorer = BigramScorer(texts)
            held, peak = (size - before for size in tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        bigrams = len(scorer.successors)
        assert bigrams == 36242
        assert held / bigrams < 44.7 / 2, f"{held / bigrams:.1f} bytes held per bigram"
        assert peak / bigrams < 45.1, f"{peak / bigrams:.1f} bytes per bigram at the peak"

    def test_a_scorer_of_one_run_loads_no_module(self):
        """A scorer of a few texts, as the remote worker builds on each perplexity
        request, is counted in memory: it loads no module that similekit.lm does not
        (tempfile, which core.Spool loads, in particular)."""
        code = ("import sys\n"
                "import similekit.lm as lm\n"
                "before = set(sys.modules)\n"
                "scorer = lm.BigramScorer(['The wall was hard.', 'He ran like a deer.'] * 3)\n"
                "lm.perplexity('The deer was hard.', scorer)\n"
                "print(sorted(set(sys.modules) - before), 'tempfile' in sys.modules)")
        done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, timeout=30, env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["[]", "False"]

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
        # literal candidates of one simile do; each prefix is scored once and
        # each tail after it, as token_perplexities does, calls interleave
        # families, and both the returned lists and the token lists passed in
        # are mutated.
        scorer, oracle = BigramScorer(train), OracleBigramScorer(train)
        word = st.sampled_from(QUERY_WORDS)
        families = data.draw(st.lists(st.tuples(
            st.lists(word, max_size=8),
            st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=5)),
            min_size=1, max_size=4))
        heads = [(prefix, scorer._logprobs(prefix)) for prefix, _ in families]
        assert [logps for _, logps in heads] == [oracle.token_logprobs(p) for p, _ in families]
        calls = [(index, tail) for index, (_, tails) in enumerate(families) for tail in tails]
        for index, tail in data.draw(st.permutations(calls)):
            head, head_logps = heads[index]
            tail = list(tail)
            got = scorer._logprobs(tail, head)
            assert head_logps + got == oracle.token_logprobs(head + tail)
            got.append(0.0)
            got[0] = 1.0
            tail[-1] = "mutated"
            assert scorer._logprobs(tail) == oracle.token_logprobs(tail)
        assert [logps for _, logps in heads] == [oracle.token_logprobs(p) for p, _ in families]


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
        assert scorer._logprobs(tokens) == OracleBigramScorer(train).token_logprobs(tokens)

    @given(texts_of(TRAIN_WORDS, 1), st.data())
    @settings(max_examples=100, deadline=None)
    def test_adapter_equals_per_text_scoring(self, train, data):
        """Handed (head, tails) groups, token_perplexities scores each head + tail
        as perplexity scores its text alone."""
        oracle, scorer = OracleBigramScorer(train), BigramScorer(train)
        word = st.sampled_from(QUERY_WORDS)
        groups = data.draw(st.lists(st.tuples(
            st.lists(word, max_size=8),
            st.lists(st.lists(word, min_size=1, max_size=3), min_size=1, max_size=5)),
            max_size=4))
        texts = [" ".join(head + tail) for head, tails in groups for tail in tails]
        expected = [oracle_perplexity(text, oracle) for text in texts]
        # A token holds no whitespace, so a text's tokens are its head's and its tail's.
        groups = [(tokenize(" ".join(head)), [tokenize(" ".join(tail)) for tail in tails])
                  for head, tails in groups]
        assert scorer.token_perplexities(groups) == expected
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


SRC = Path(__file__).resolve().parent.parent / "src"
SRC_WORDS = ["x", "y", "sky", "is", "was", "red", "cold", "very", ",", "."]
TGT_WORDS = SRC_WORDS + ["like", "a", "rose", "fire", "sea"]


@st.composite
def template_models(draw):
    """A trained model, or now and then one with empty tables."""
    if draw(st.integers(0, 9)) == 0:
        return TemplateNgramModel(draw(st.integers(0, 2)), {}, {})
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


class ListTrie:
    """The suffix trie as built before leaves were counts: every node is
    [count, children, ranked]."""

    def __init__(self, *suffix_tables):
        self.root = [0, {}, None]
        for suffix_counts in suffix_tables:
            for joined, count in suffix_counts.items():
                node = self.root
                for tok in joined.split(" "):
                    node = node[1].setdefault(tok, [0, {}, None])
                    node[0] += count

    def next_ranked(self, context):
        for depth in range(len(context), -1, -1):
            node = self.root
            for tok in context[len(context) - depth :]:
                node = node[1].get(tok)
                if node is None:
                    break
            else:
                if node[1]:
                    if node[2] is None:
                        counts = {tok: child[0] for tok, child in node[1].items()}
                        total = sum(counts.values())
                        node[2] = tuple((tok, c / total) for tok, c in
                                        sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))
                    return node[2]
        return None


# Besides a b c </s>, tokens a hand-written model.json may hold that sit at the
# bounds of a context's range of sorted suffixes: an empty token (from a leading,
# trailing or doubled space), "!" (the character after " "), characters before
# " ", and a non-ASCII one.
TRIE_WORDS = ["a", "b", "c", EOS_TOKEN, "", "!", "a!", "\t", "a\tb", "é"]
trie_suffixes = st.lists(st.sampled_from(TRIE_WORDS), min_size=1, max_size=4).map(" ".join)


@st.composite
def suffix_tables(draw):
    """One to three {suffix: count} tables.  Some suffix is a prefix of another, the
    shorter drawn first or last, within one table or across two, as a hand-written
    model.json may have; a model trained here ends every suffix in </s>."""
    tables = draw(st.lists(st.dictionaries(trie_suffixes, st.integers(1, 5), max_size=6),
                           min_size=1, max_size=3))
    short = draw(trie_suffixes)
    pair = [short, f"{short} {draw(trie_suffixes)}"]
    for suffix in pair[:: draw(st.sampled_from([1, -1]))]:
        table = tables[draw(st.integers(0, len(tables) - 1))]
        table[suffix] = table.get(suffix, 0) + draw(st.integers(1, 5))
    return tables


trie_contexts = st.lists(st.lists(st.sampled_from(TRIE_WORDS + ["z"]), max_size=5),
                         min_size=1, max_size=8)


class TestTrie:
    @given(suffix_tables(), trie_contexts)
    @settings(max_examples=300, deadline=None)
    def test_next_ranked_equals_the_trie_of_lists(self, tables, contexts):
        table, oracle = _SuffixTable(*tables), ListTrie(*tables)
        # Asked twice, so a context's ranked tuple is read back from the cache too.
        for context in contexts + contexts:
            assert table.next_ranked(context) == oracle.next_ranked(context)

    def test_equal_suffixes_of_two_tables_add_up(self):
        table = _SuffixTable({"a </s>": 2, "a b </s>": 1}, {"a </s>": 3})
        assert table.next_ranked([]) == (("a", 1.0),)
        assert table.next_ranked(["a"]) == ((EOS_TOKEN, 5 / 6), ("b", 1 / 6))
        assert table.next_ranked(["a", "b"]) == ((EOS_TOKEN, 1.0),)

    @pytest.mark.parametrize("tables", [({"a": 2, "a b": 1},), ({"a b": 1}, {"a": 2})],
                             ids=["shorter-first", "longer-first"])
    def test_a_suffix_that_ends_where_another_goes_on(self, tables):
        table = _SuffixTable(*tables)
        assert table.next_ranked(["a"]) == (("b", 1.0),)
        assert table.next_ranked(["b"]) == table.next_ranked([]) == (("a", 1.0),)


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
        """The seed is the one field: epochs and batch_token_budget were never read."""
        assert TrainConfig(seed=1)._asdict() == {"seed": 1}
        with pytest.raises(TypeError):
            TrainConfig(seed=1, epochs=3)


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
    return (model.drop_words, model.cue_suffixes, model.train_config)


def saved_bytes(model):
    with tempfile.TemporaryDirectory() as tmp:
        model.save(tmp)
        return {name: (Path(tmp) / name).read_bytes() for name in ("manifest.json", "model.json")}


V1_PAIRS = [("The sky was blue.", "The sky was like a sea."),
            ("The lake was blue.", "The lake was like a sapphire."),
            ("The rock was very hard.", "The rock was like a diamond."),
            ("He ran fast.", "He ran like a deer.")]
# The model.json version 1 wrote for V1_PAIRS.
V1_MODEL_JSON = (
    '{"bigram": {".": {"</s>": 4}, "<s>": {"He": 1, "The": 3}, "He": {"ran": 1}, "The": '
    '{"lake": 1, "rock": 1, "sky": 1}, "a": {"deer": 1, "diamond": 1, "sapphire": 1, "sea": 1}, '
    '"deer": {".": 1}, "diamond": {".": 1}, "lake": {"was": 1}, "like": {"a": 4}, "ran": '
    '{"like": 1}, "rock": {"was": 1}, "sapphire": {".": 1}, "sea": {".": 1}, "sky": {"was": 1}, '
    '"was": {"like": 3}}, "cue_suffixes": {"blue": {"like a sapphire . </s>": 1, '
    '"like a sea . </s>": 1}, "fast": {"like a deer . </s>": 1}, "hard": '
    '{"like a diamond . </s>": 1}}, "drop_words": 1, "global_suffixes": '
    '{"like a deer . </s>": 1, "like a diamond . </s>": 1, "like a sapphire . </s>": 1, '
    '"like a sea . </s>": 1}, "unigram": {".": 4, "</s>": 4, "He": 1, "The": 3, "a": 4, '
    '"deer": 1, "diamond": 1, "lake": 1, "like": 4, "ran": 1, "rock": 1, "sapphire": 1, '
    '"sea": 1, "sky": 1, "was": 3}}\n')


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

    def test_training_and_saving_build_no_table(self, tmp_path, toy_pairs, toy_world):
        model = fine_tune(iter(toy_pairs), TrainConfig(seed=11), BACKEND)
        model.save(tmp_path)
        assert model._cue_tables == {} and model._global_table is None
        source = toy_world["holdout"][0]
        generate(source, cfg(seed=7), model)
        [(cue, table)] = model._cue_tables.items()
        assert cue == _last_word(tokenize(source))
        first = Counter()
        for suffix, count in model.cue_suffixes[cue].items():
            first[suffix.split(" ")[0]] += count
        assert dict(table.next_ranked([])) == {tok: c / sum(first.values())
                                               for tok, c in first.items()}

    def test_decoding_holds_no_copy_of_a_suffix_string(self, tmp_path, toy_pairs, toy_world):
        """Every suffix a cue's table or the global table holds is a key of
        cue_suffixes itself, in a trained model and in one loaded from disk."""
        trained = fine_tune(iter(toy_pairs), TrainConfig(seed=11), BACKEND)
        trained.save(tmp_path)
        for model in (trained, TemplateNgramModel.load(tmp_path)):
            for seed, text in enumerate(toy_world["holdout"] + ["The zyx was qqq."]):
                prefix = "The river was like a" if seed % 3 == 0 else None
                generate(text, cfg(seed=seed, forced_prefix=prefix), model)
            assert model._cue_tables and model._global_table is not None
            held = {cue: {id(suffix) for suffix in bucket}
                    for cue, bucket in model.cue_suffixes.items()}
            for cue, table in model._cue_tables.items():
                assert all(id(suffix) in held[cue] for suffix in table.suffixes)
            every = set().union(*held.values())
            assert all(id(suffix) in every for suffix in model._global_table.suffixes)

    def test_a_huge_drop_words_decodes_within_seconds(self, tmp_path):
        """copy_region stops once nothing is left to drop, so a hand-written
        drop_words of 10**12 decodes at once, as one of the source's length does."""
        model = TemplateNgramModel.train(V1_PAIRS, TrainConfig(seed=4))
        model.drop_words = 10**12
        model.save(tmp_path / "model")
        sources = ["The sky was blue.", "He ran fast!", "It was hard , very ."]
        code = ("import json, sys\n"
                "from similekit.lm import GenerationConfig, TemplateNgramModel, generate\n"
                "model = TemplateNgramModel.load(sys.argv[1])\n"
                "print(json.dumps([generate(source, GenerationConfig(8, 3), model).text\n"
                "                  for source in sys.argv[2:]]))")
        done = subprocess.run([sys.executable, "-c", code, str(tmp_path / "model"), *sources],
                              capture_output=True, text=True, timeout=20,
                              env=dict(os.environ, PYTHONPATH=str(SRC)))
        assert done.returncode == 0, done.stderr
        model.drop_words = 8  # more than any source above has tokens
        assert json.loads(done.stdout) == [generate(source, cfg(max_new_tokens=8, seed=3),
                                                    model).text for source in sources]

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

    @pytest.mark.parametrize("field, value, reason", [
        ("drop_words", "1", "drop_words must be an integer >= 0, not '1'"),
        ("drop_words", -1, "drop_words must be an integer >= 0, not -1"),
        ("drop_words", True, "drop_words must be an integer >= 0, not True"),
        ("cue_suffixes", [], "cue_suffixes must be an object"),
        ("cue_suffixes", {"blue": ["x"]}, "cue_suffixes['blue'] must map each suffix"),
        ("cue_suffixes", {"blue": {"like a sea . </s>": "1"}},
         "cue_suffixes['blue'] must map each suffix"),
        ("cue_suffixes", {"blue": {"like a sea . </s>": 0}},
         "cue_suffixes['blue'] must map each suffix"),
        ("cue_suffixes", {"blue": {"like a sea . </s>": 1.5}},
         "cue_suffixes['blue'] must map each suffix"),
    ], ids=["drop-string", "drop-negative", "drop-bool", "cues-list", "bucket-list",
            "count-string", "count-zero", "count-float"])
    def test_bad_model_field_is_named(self, tmp_path, field, value, reason):
        model_dir = tmp_path / "model"
        fine_tune([("The sky was blue.", "The sky was like a sea.")], TrainConfig(seed=1),
                  BACKEND).save(model_dir)
        path = model_dir / "model.json"
        state = json.loads(path.read_text(encoding="utf-8"))
        state[field] = value
        path.write_text(json.dumps(state), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: {reason}")):
            TemplateNgramModel.load(model_dir)

    @pytest.mark.parametrize("version", [0, 3, "2", True, None, 2.0])
    def test_unknown_model_version_is_named(self, tmp_path, version):
        model_dir = tmp_path / "model"
        fine_tune([("The sky was blue.", "The sky was like a sea.")], TrainConfig(seed=1),
                  BACKEND).save(model_dir)
        path = model_dir / "manifest.json"
        manifest = json.loads(path.read_text(encoding="utf-8"))
        manifest["version"] = version
        path.write_text(json.dumps(manifest), encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(f"{path}: unknown model version "
                                                       f"{version!r}")):
            TemplateNgramModel.load(model_dir)

    @pytest.mark.parametrize("versioned", [True, False], ids=["version-1", "no-version"])
    def test_version_1_model_decodes_as_version_2(self, tmp_path, versioned):
        """A model dir as version 1 wrote it, with the three tables decoding no longer reads."""
        v1 = tmp_path / "v1"
        v1.mkdir()
        (v1 / "model.json").write_text(V1_MODEL_JSON, encoding="utf-8")
        manifest = {"train_config": {"batch_token_budget": 1024, "epochs": 17, "seed": 4},
                    "type": "template-ngram", **({"version": 1} if versioned else {})}
        (v1 / "manifest.json").write_text(json.dumps(manifest, indent=2), encoding="utf-8")
        loaded = TemplateNgramModel.load(v1)
        model = TemplateNgramModel.train(V1_PAIRS, TrainConfig(seed=4))
        assert (loaded.drop_words, loaded.cue_suffixes) == (model.drop_words, model.cue_suffixes)
        for source in ["The sky was blue.", "The sea was very blue.", "It was hard.",
                       "The day felt odd.", "He ran fast!"]:
            for seed in range(4):
                for prefix in (None, model.copy_region(tokenize(source))[0]):
                    c = cfg(seed=seed, temperature=2.0, forced_prefix=prefix)
                    assert generate(source, c, loaded) == generate(source, c, model)

    @pytest.mark.parametrize("prefix", ["y might be like a", "y might", "x", "x is red",
                                        "x is like a rose"])
    def test_divergent_forced_prefix_ends_within_budget(self, prefix):
        """A forced prefix off the copy region is continued from the cue's suffixes."""
        for seed in range(10):
            out = generate("x is red.", cfg(seed=seed, max_new_tokens=6, forced_prefix=prefix),
                           balanced_model())
            assert out.text.startswith(prefix) and not out.truncated

    @given(pair_lists, texts, st.data())
    @settings(max_examples=200, deadline=None)
    def test_a_seen_cue_yields_one_of_its_training_suffixes(self, pairs, words, data):
        """Free decoding copies the source, then emits a training suffix of its cue whole:
        the reference model cannot write a vehicle its cue was never trained on."""
        model = TemplateNgramModel.train(pairs, TrainConfig(seed=0))
        source = words + " " + data.draw(st.sampled_from(pairs))[0]
        c = cfg(seed=data.draw(st.integers(0, 2**32 - 1)), temperature=2.5, top_k=10)
        src_tokens = tokenize(source)
        assume(_last_word(src_tokens) in model.cue_suffixes)  # not so for a wordless source
        out = generate(source, c, model)
        copy = model.copy_region(src_tokens)
        out_tokens = tokenize(out.text)
        assert out_tokens[: len(copy)] == copy and not out.truncated
        suffix = " ".join(out_tokens[len(copy) :] + [EOS_TOKEN])
        assert suffix in model.cue_suffixes[_last_word(src_tokens)]

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
        from similekit.corpus import prepare, select_best_literals
        from similekit.knowledge import PropertyCandidate

        scorer = RemoteScorer(reply_command(tmp_path, '{"perplexity": NaN}'))
        simile = parse_simile("It ran like a deer.")
        with pytest.raises(BackendUnavailable):
            select_best_literals([prepare(simile, "deer", [PropertyCandidate("fast", 1.0)])],
                                 scorer)
