"""Language-model contracts: perplexity scoring, top-k generation, fine-tuning.

Three capabilities, each behind a small protocol so neural backends can attach
out of process, plus deterministic in-process reference implementations:

* scorer: `perplexities(texts) -> [ppl, ...]`, one call for a batch such as
  the literal candidates of a run of similes; one with
  `token_perplexities(groups)` is handed instead each simile's prefix tokens
  once with its candidates' tail tokens, `(head, [tail, ...])`, and scores
  each head + tail.  Reference: interpolated word-bigram model with add-alpha
  smoothing.
* seq2seq model: `next_token_distribution(src_tokens, out_tokens) -> [(token,
  prob), ...]`, ranked by falling probability, ties by token; decoding
  samples from the first top_k.  Reference: a template n-gram model that
  learns how many terminal words a source drops and what suffixes replace
  them, conditioned on the dropped cue word.  Its model file holds just
  those two tables, and decoding reads the suffixes through the same
  strings, sorted, one bisect range per context.
* trainer: `TemplateNgramModel.train(pairs, cfg)` counts (source, target)
  pairs into a model, reading each once; `fine_tune(pairs, cfg, backend)`
  hands them to any `backend.fine_tune(pairs, cfg)`.

Decoding is seeded per call from (seed, source, forced_prefix) so batch order
and process boundaries never change an output.
"""

from __future__ import annotations

import itertools
import json
import math
import operator
import os
import random
from array import array
from bisect import bisect_left
from collections import Counter, defaultdict
from typing import NamedTuple

from .backends import BackendUnavailable, JsonSubprocessBackend, reply_field
from .core import (
    EOS_TOKEN,
    Checked,
    Spool,
    append_token,
    common_prefix_len,
    derive_seed,
    float_sum,
    is_word,
    make_dirs,
    rstrip_punct,
    runs_of,
    tokenize,
    write_json,
)


class EmptyText(ValueError):
    """Perplexity is undefined for a text with no tokens."""


class EmptyTrainingSet(ValueError):
    """fine_tune needs at least one (source, target) pair."""


class _GenerationFields(NamedTuple):
    max_new_tokens: int
    seed: int
    top_k: int = 5
    temperature: float = 0.7
    forced_prefix: str | None = None


class GenerationConfig(Checked, _GenerationFields):
    __slots__ = ()

    def __new__(cls, max_new_tokens, seed, top_k=5, temperature=0.7, forced_prefix=None):
        refused = [reason for bad, reason in (  # every refused field, in one ValueError
            (max_new_tokens < 1, "max_new_tokens must be >= 1"),
            (top_k < 1, "top_k must be >= 1"),
            (not 0 < temperature < math.inf, "temperature must be finite and > 0"),  # NaN too
        ) if bad]
        if refused:
            raise ValueError("; ".join(refused))
        return tuple.__new__(cls, (max_new_tokens, seed, top_k, temperature, forced_prefix))


class TrainConfig(NamedTuple):
    seed: int


class GenerationOutput(NamedTuple):
    """Decoded text; truncated marks max_new_tokens running out before EOS."""

    text: str
    truncated: bool = False


# ---------------------------------------------------------------------------
# Perplexity


def perplexities(texts, scorer) -> list[float]:
    """Perplexity of each text, in order: exp of mean negative log-likelihood
    per token; lower = more fluent.

    EmptyText is raised before anything is scored if a text has no tokens
    (tokenize finds a token at every character that is not whitespace).  The
    scorer's `perplexities` scores the batch in one call.
    """
    texts = list(texts)
    if any(not text or text.isspace() for text in texts):
        raise EmptyText("cannot score an empty text")
    return [float(ppl) for ppl in scorer.perplexities(texts)]


def perplexity(text: str, scorer) -> float:
    """The perplexity of one text; see perplexities."""
    return perplexities([text], scorer)[0]


class UniformScorer:
    """Perplexity of any text is exactly V, so candidates tie at every length."""

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        self.vocab_size = vocab_size

    def perplexities(self, texts: list[str]) -> list[float]:
        return [float(self.vocab_size)] * len(texts)


# While the scorer counts, a bigram is one int, its key: context id << shift | token id.
# The shift is at least _MIN_SHIFT, so that the keys of a vocabulary below 2**15 ids
# stay below 2**30, ints that sort fastest, and grows with the vocabulary beyond it.
# The keys are counted one range at a time, the ranges cut at every
# _SAMPLES_PER_RANGE-th of the sampled keys (every _SAMPLE_STEP-th bigram of each run),
# so one Counter holds at most about 4k distinct keys.
_MIN_SHIFT = 15
_SAMPLE_STEP = 64
_SAMPLES_PER_RANGE = 64


def _keys(contexts, tokens, shift: int):
    """The key of each (context, token) id pair."""
    return map(operator.or_, map(operator.lshift, contexts, itertools.repeat(shift)), tokens)


def _bigram_keys(ids: array, shift: int):
    """The keys of a run's bigrams, its ids BOS, a text, BOS, ... BOS: each pair of ids
    but those whose token is BOS, 0, which ends a text."""
    tokens = ids[1:]
    return itertools.compress(_keys(ids[:-1], tokens, shift), tokens)


def _rekeyed(keys: array, shift: int, wider: int):
    """Keys of one shift under a wider one, in the same order."""
    return _keys(map(operator.rshift, keys, itertools.repeat(shift)),
                 map(operator.and_, keys, itertools.repeat((1 << shift) - 1)), wider)


class BigramScorer:
    """Interpolated word-bigram model with add-alpha smoothing.

    p(t|c) = lam * p_bigram(t|c) + (1-lam) * p_unigram(t), both add-alpha
    smoothed over a vocabulary that includes <unk>; out-of-vocabulary tokens
    map to <unk> so every text gets a finite score.

    The model is held in flat arrays keyed by token id.  `ids` maps each
    distinct token of the training texts (one str each) to its id, 1 up, in
    order of first use; id 0 is the start of text and the id after the last
    token is UNK.  Context i's successors are
    `successors[starts[i]:starts[i + 1]]`, sorted, each counted in the same
    place of `counts`, so p_bigram's numerator is one bisect of that slice.
    The terms that do not depend on the next token are computed once per id,
    each by the expression of the formula: `unigram_terms[i]` is p_unigram,
    (count + alpha) / (total + alpha*V), and `denominators[i]` is p_bigram's
    denominator, the context's count less the texts it ends, plus alpha*V.
    No table of either count is held: a context's bigram row adds up to the
    first, and a token's column to its count.

    Counting holds no dict over all bigrams.  Each run of core.RUN_LENGTH
    texts is encoded as token ids as it is read (texts may be a stream still
    being produced), and its bigram keys sorted and set aside in a
    core.Spool; once every text is read, the keys are counted one range at a
    time, in key order, and the arrays are made at their final size.  An
    input of one run is counted in memory, with no temporary file.
    """

    BOS = "<s>"
    UNK = "<unk>"

    def __init__(self, texts, alpha: float = 0.1, interpolation: float = 0.5):
        if alpha <= 0:
            raise ValueError("alpha must be > 0")
        if not 0 <= interpolation <= 1:
            raise ValueError("interpolation must be in [0, 1]")
        self.alpha = alpha
        self.lam = interpolation
        # Each token gets the next id on first use; BOS also ends each text of a run.
        index = defaultdict(itertools.count(1).__next__, {self.BOS: 0})
        end_of_text = [self.BOS]
        sampled = array("i"), array("i")

        def encode(run) -> tuple[int, array]:
            """The shift of a run's keys, and its keys, sorted."""
            ids = array("i", [0])
            ids.extend(map(index.__getitem__, itertools.chain.from_iterable(
                map(operator.add, map(tokenize, run), itertools.repeat(end_of_text)))))
            sampled[0].extend(ids[:-1:_SAMPLE_STEP])
            sampled[1].extend(ids[1::_SAMPLE_STEP])
            shift = max(_MIN_SHIFT, len(index).bit_length())
            return shift, array("q", sorted(_bigram_keys(ids, shift)))

        runs = map(encode, runs_of(texts))
        first, second = next(runs, (_MIN_SHIFT, array("q"))), next(runs, None)
        if second is None:
            self._tabulate(index, first[0], [Counter(first[1])])
            return
        with Spool() as spool:
            extents = [(shift, len(keys), spool.append(keys.tobytes()))
                       for shift, keys in itertools.chain((first, second), runs)]
            del first, second
            shift = extents[-1][0]  # the widest
            cuts = sorted(_keys(*sampled, shift))[_SAMPLES_PER_RANGE::_SAMPLES_PER_RANGE]
            del sampled
            # Where each run's keys reach each cut, then their end: width positions a run.
            width, reach = len(cuts) + 1, array("q")
            for run, (run_shift, length, offset) in enumerate(extents):
                keys = array("q")
                keys.frombytes(spool.read(8 * length, offset))
                if run_shift != shift:
                    keys = array("q", _rekeyed(keys, run_shift, shift))
                    offset = spool.append(keys.tobytes())
                extents[run] = offset
                reach.extend(map(bisect_left, itertools.repeat(keys), cuts))
                reach.append(len(keys))
            del keys

            def counted_ranges():
                read, begins = spool.read, array("q", bytes(8 * len(extents)))
                for part in range(width):
                    keys = array("q")
                    for run, offset in enumerate(extents):
                        begin, end = begins[run], reach[run * width + part]
                        keys.frombytes(read(8 * (end - begin), offset + 8 * begin))
                        begins[run] = end
                    yield Counter(keys)

            self._tabulate(index, shift, counted_ranges(), spool)

    def _tabulate(self, index, shift: int, counters, spool=None) -> None:
        """Fill the arrays from Counters of bigram keys, each range's keys above the
        last's.  Given a spool, each range's part of successors and counts is set aside
        there, and copied into arrays made at their final size once every range is
        counted: arrays grown range by range leave each outgrown copy's memory behind.
        Without one, the Counter is the only one."""
        index.default_factory = None
        del index[self.BOS]
        self.ids = index
        unk = len(index) + 1
        token_of = (1 << shift) - 1
        sizes, totals, columns = (array("q", bytes(8 * (unk + 1))) for _ in range(3))
        kind = "H" if unk < 1 << 16 else "i"
        parts = []
        for counter in counters:
            keys = sorted(counter)
            tokens = array(kind, map(operator.and_, keys, itertools.repeat(token_of)))
            counts = array("I", map(counter.__getitem__, keys))
            for token, count in zip(tokens, counts):
                columns[token] += count
            begin = 0
            for context in dict.fromkeys(map(operator.rshift, keys, itertools.repeat(shift))):
                end = bisect_left(keys, (context + 1) << shift, begin)
                sizes[context] += end - begin
                totals[context] += sum(counts[begin:end])
                begin = end
            parts.append((tokens, counts) if spool is None else
                         (len(keys), spool.append(tokens.tobytes() + counts.tobytes())))
        if not totals[0]:
            raise EmptyText("scorer needs at least one non-empty training text")
        self.starts = array("q", itertools.accumulate(sizes, initial=0))
        if spool is None:
            [(successors, counts)] = parts
        else:
            successors = array(kind, [0]) * self.starts[-1]
            counts = array("I", [0]) * self.starts[-1]
            at, width = 0, successors.itemsize
            for length, offset in parts:
                data = spool.read(length * (width + counts.itemsize), offset)
                successors[at : at + length] = array(kind, data[: length * width])
                counts[at : at + length] = array("I", data[length * width :])
                at += length
        self.successors, self.counts = successors, counts
        self.vocab_size = unk  # the tokens and UNK, which tokenize never gives
        self.total = sum(columns)
        alpha, alpha_v = self.alpha, self.alpha * self.vocab_size
        uni_den = self.total + alpha_v
        self.unigram_terms = array("d", ((count + alpha) / uni_den for count in columns))
        self.denominators = array("d", (total + alpha_v for total in totals))
        # What _logprobs reads, hoisted once.
        self._terms = (alpha, self.lam, 1 - self.lam, index.get, unk, self.starts, successors,
                       counts, self.unigram_terms, self.denominators)

    def perplexities(self, texts: list[str]) -> list[float]:
        """Each text is tokenized once; see token_perplexities."""
        return self.token_perplexities(([], [tokenize(text)]) for text in texts)

    def token_perplexities(self, groups) -> list[float]:
        """The perplexity of head + tail for each (head, tails) of groups and each
        tail of its tails, in order.  A token's log-prob depends only on it and
        the token before it, so a head's log-probs are computed and summed once,
        and each tail's are added to that sum (the literal candidates of one
        simile share its prefix and differ only after it).  core.float_sum adds
        from the left, so the head's sum plus the tail's is the sum of the whole
        list, on every interpreter."""
        out, logprobs, exp = [], self._logprobs, math.exp
        for head, tails in groups:
            head_sum = float_sum(logprobs(head))
            for tail in tails:
                if not head and not tail:
                    raise EmptyText("cannot score an empty text")
                total = float_sum(logprobs(tail, head), head_sum)
                out.append(exp(-total / (len(head) + len(tail))))
        return out

    def _logprobs(self, tokens: list[str], head: list[str] = ()) -> list[float]:
        """The log-probs of tokens, read after head.  The float expressions keep
        the operation order of the formula above (tests compare the log-probs bit
        for bit); the per-id terms and lookups are read from _terms.  A token
        never counted is UNK, whose count and row are empty."""
        (alpha, lam, rest, id_of, unk, starts, successors, counts, unigram_terms,
         denominators) = self._terms
        out = []
        log, append = math.log, out.append
        prev = id_of(head[-1], unk) if head else 0
        for tok in tokens:
            tok = id_of(tok, unk)
            end = starts[prev + 1]
            at = bisect_left(successors, tok, starts[prev], end)
            count = counts[at] if at < end and successors[at] == tok else 0
            p_bi = (count + alpha) / denominators[prev]
            append(log(lam * p_bi + rest * unigram_terms[tok]))
            prev = tok
        return out


# ---------------------------------------------------------------------------
# Generation


def _derive_rng(seed: int, source: str, forced_prefix: str | None) -> random.Random:
    return random.Random(derive_seed(seed, source, forced_prefix or ""))


def _sample(ranked, top_k: int, temperature: float, rng) -> str:
    """Sample from the first top_k of a ranked [(token, prob), ...] sequence."""
    items = ranked[:top_k]
    if len(items) == 1:
        return items[0][0]
    # Rescale by the max before exponentiating so tiny temperatures stay finite.
    pmax = items[0][1]
    weights = [(p / pmax) ** (1.0 / temperature) for _, p in items]
    total = float_sum(weights)
    r = rng.random() * total
    acc = 0.0
    for (tok, _), w in zip(items, weights):
        acc += w
        if r <= acc:
            return tok
    return items[-1][0]


def generate(source: str, cfg: GenerationConfig, model) -> GenerationOutput:
    """Autoregressive top-k decode; deterministic for fixed (source, cfg, model).

    With forced_prefix set, the output starts with that string verbatim and
    sampling continues after it.  Exhausting max_new_tokens before the end
    token returns the partial output flagged truncated.
    """
    if hasattr(model, "generate_text"):
        out = model.generate_text(source, cfg)
        if cfg.forced_prefix and not out.text.startswith(cfg.forced_prefix):
            raise BackendUnavailable("backend violated the forced-prefix contract")
        return out
    src_tokens = tokenize(source)
    out_text = cfg.forced_prefix or ""
    out_tokens = tokenize(out_text)
    rng = _derive_rng(cfg.seed, source, cfg.forced_prefix)
    truncated = True
    for _ in range(cfg.max_new_tokens):
        ranked = model.next_token_distribution(src_tokens, out_tokens)
        if not ranked:
            truncated = False
            break
        token = _sample(ranked, cfg.top_k, cfg.temperature, rng)
        if token == EOS_TOKEN:
            truncated = False
            break
        out_tokens.append(token)
        out_text = append_token(out_text, token)
    return GenerationOutput(text=out_text, truncated=truncated)


# ---------------------------------------------------------------------------
# Fine-tuning


def _pair_texts(pair) -> tuple[str, str]:
    if hasattr(pair, "source") and hasattr(pair, "target"):
        return (pair.source, pair.target)
    source, target = pair
    return (source, target)


def fine_tune(pairs, cfg: TrainConfig, backend):
    """Train a seq2seq model on (source, target) pairs via the given backend.

    Accepts any iterable of ParallelPair-shaped objects or plain 2-tuples,
    and hands the backend an iterator that reads `pairs` as it goes, so a
    stream of pairs is never held as a list here.
    """
    texts = map(_pair_texts, pairs)
    first = next(texts, None)
    if first is None:
        raise EmptyTrainingSet("no training pairs")
    return backend.fine_tune(itertools.chain((first,), texts), cfg)


def _last_word(tokens: list[str]) -> str:
    words = rstrip_punct(tokens)
    return words[-1].lower() if words else ""


def _rank(counts: dict[str, int]) -> tuple[tuple[str, float], ...]:
    """(token, count / total) pairs by falling count, ties by token.

    Distinct integer counts over one total give distinct quotients, so this
    is also the order by falling probability.
    """
    total = sum(counts.values())
    return tuple((tok, c / total) for tok, c in sorted(counts.items(),
                                                       key=lambda kv: (-kv[1], kv[0])))


class _SuffixTable:
    """{suffix: count} tables merged and sorted, matched by longest context.

    Holds the suffix strings themselves, sorted, and their summed counts.
    No token holds a space, so the suffixes that continue a context are one
    range of the sorted strings: from the context joined plus " " up to the
    context plus "!", the character after " ".  The root's range is the
    whole table.  A context's ranked next tokens are computed on first use
    and kept by the range's lower bound, "" for the root.
    """

    __slots__ = ("suffixes", "counts", "ranked")

    def __init__(self, *suffix_tables: dict[str, int]):
        merged: dict[str, int] = {}
        for suffix_counts in suffix_tables:
            _add_counts(merged, suffix_counts)
        self.suffixes = sorted(merged)
        self.counts = [merged[suffix] for suffix in self.suffixes]
        self.ranked: dict[str, tuple] = {}

    def next_ranked(self, context: list[str]) -> tuple | None:
        """Ranked next tokens after the longest suffix of context that a suffix continues."""
        suffixes = self.suffixes
        for depth in range(len(context), -1, -1):
            low = " ".join(context[len(context) - depth :]) + " " if depth else ""
            ranked = self.ranked.get(low)
            if ranked is not None:
                return ranked
            start, end = 0, len(suffixes)
            if depth:
                start = bisect_left(suffixes, low)
                end = bisect_left(suffixes, low[:-1] + "!", start)
            if start < end:
                counts: dict[str, int] = {}
                for suffix, count in zip(suffixes[start:end], self.counts[start:end]):
                    tok = suffix[len(low) :].partition(" ")[0]
                    counts[tok] = counts.get(tok, 0) + count
                return self.ranked.setdefault(low, _rank(counts))
        return None


class TemplateCounts:
    """The integer counts TemplateNgramModel is built from.

    Per (source, target) pair: the number of source words the target drops,
    and the target suffix after the common token prefix, by the source's
    last word (the cue).  Counts add up, so runs of pairs counted apart and
    added give the counts of all.
    """

    def __init__(self):
        self.drops: dict[int, int] = {}
        self.cue_suffixes: dict[str, dict[str, int]] = {}

    def count(self, pairs) -> "TemplateCounts":
        """Add the counts of an iterable of (source, target) pairs, reading each once."""
        drops, cue_suffixes = self.drops, self.cue_suffixes
        for source, target in pairs:
            src = tokenize(source)
            tgt = tokenize(target)
            common = common_prefix_len(src, tgt)
            dropped = sum(1 for tok in src[common:] if is_word(tok))
            drops[dropped] = drops.get(dropped, 0) + 1
            suffix = " ".join(tgt[common:] + [EOS_TOKEN])
            bucket = cue_suffixes.setdefault(_last_word(src), {})
            bucket[suffix] = bucket.get(suffix, 0) + 1
        return self

    def add(self, other: "TemplateCounts") -> None:
        """Add another's counts; `other` is not used afterwards, so its buckets may be taken."""
        for cue, bucket in other.cue_suffixes.items():
            mine = self.cue_suffixes.setdefault(cue, bucket)
            if mine is not bucket:
                _add_counts(mine, bucket)
        _add_counts(self.drops, other.drops)


def _add_counts(total: dict, counts: dict) -> None:
    for key, n in counts.items():
        total[key] = total.get(key, 0) + n


# What decoding returns where no suffix is known: the end of the output.
_END = ((EOS_TOKEN, 1.0),)


class TemplateNgramModel:
    """Count-based conditional generator for (source, target) sentence pairs.

    Training observes, per pair, the longest common token prefix between
    source and target; it learns (a) how many terminal source words fall off
    (the mode over pairs), and (b) which target suffixes replace them, keyed
    by the dropped cue word.  Decoding copies the source minus its dropped
    words deterministically, then samples the continuation from the cue's
    suffix table, backing off to a global table that merges every cue's
    suffixes.  An output that a forced prefix took away from the copy
    region is matched against the same tables with the whole output as
    context.  The tables hold the strings of cue_suffixes, sorted, not a
    copy of them.  Purely count-based, so training is deterministic; the
    TrainConfig is recorded for the model manifest.
    """

    def __init__(self, drop_words: int, cue_suffixes: dict[str, dict[str, int]],
                 train_config: dict):
        self.drop_words = drop_words
        self.cue_suffixes = cue_suffixes
        self.train_config = train_config
        # Tables are built on first lookup, so training and saving build none
        # and decoding builds only the cues its sources end in.
        self._cue_tables: dict[str, _SuffixTable] = {}
        self._global_table: _SuffixTable | None = None
        # The last source seen, its copy region and its cue's table: decoding
        # asks about one source on every step.
        self._source: tuple = (None, [], None)

    # What model.json holds: the constructor's arguments but the train config.
    STATE = ("drop_words", "cue_suffixes")

    @classmethod
    def train(cls, pairs, cfg: TrainConfig) -> "TemplateNgramModel":
        """Count an iterable of (source, target) pairs, reading each pair once."""
        return cls.from_counts(TemplateCounts().count(pairs), cfg)

    @classmethod
    def from_counts(cls, counts: TemplateCounts, cfg: TrainConfig) -> "TemplateNgramModel":
        """The model of counted pairs; the model holds the counts' cue table."""
        if not counts.drops:
            raise EmptyTrainingSet("no training pairs")
        # Mode of the per-pair drop counts; ties go to the smaller count.
        best = max(counts.drops.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        return cls(best, counts.cue_suffixes, train_config=cfg._asdict())

    def copy_region(self, src_tokens: list[str]) -> list[str]:
        """Source tokens minus trailing punctuation and drop_words final words."""
        toks = rstrip_punct(list(src_tokens))
        for _ in range(min(self.drop_words, len(toks))):  # each pass drops a word
            toks = rstrip_punct(toks[:-1])
        return toks

    def next_token_distribution(self, src_tokens: list[str], out_tokens: list[str]) -> tuple:
        """Ranked (token, prob) pairs; each context's tuple is built once and shared."""
        source, copy, cue_table = self._source
        if src_tokens != source:
            copy = self.copy_region(src_tokens)
            cue = _last_word(src_tokens)
            cue_table = self._cue_tables.get(cue)
            if cue_table is None and cue in self.cue_suffixes:
                cue_table = self._cue_tables[cue] = _SuffixTable(self.cue_suffixes[cue])
            self._source = (list(src_tokens), copy, cue_table)
        n = len(out_tokens)
        if n < len(copy) and out_tokens == copy[:n]:
            return ((copy[n], 1.0),)
        # The continuation after the copy region; an output a forced prefix
        # took away from it is matched whole.
        context = out_tokens[len(copy) :] if out_tokens[: len(copy)] == copy else out_tokens
        ranked = None
        if cue_table is not None:
            ranked = cue_table.next_ranked(context)
        if ranked is None:
            if self._global_table is None:
                self._global_table = _SuffixTable(*self.cue_suffixes.values())
            ranked = self._global_table.next_ranked(context)
        return ranked or _END

    # Persistence: a directory with a manifest (config + seed) and the counts.

    def save(self, model_dir: str) -> None:
        """Write model.json, then manifest.json: a failed save leaves no new
        manifest beside an old or missing model.json."""
        make_dirs(model_dir)
        state = {name: getattr(self, name) for name in self.STATE}
        write_json(state, os.path.join(model_dir, "model.json"), indent=None)
        manifest = {
            "type": "template-ngram",
            "version": 2,
            "train_config": self.train_config,
        }
        write_json(manifest, os.path.join(model_dir, "manifest.json"))

    @classmethod
    def load(cls, model_dir: str) -> "TemplateNgramModel":
        """A saved model of version 2 or 1 (a manifest without `version` is 1).
        A version-1 model.json also holds three tables decoding does not
        read; they are ignored.  A damaged manifest.json or model.json is a
        ValueError naming it."""
        path = os.path.join(model_dir, "manifest.json")
        manifest = _read_json_object(path, ("type",))
        if manifest["type"] != "template-ngram":
            raise ValueError(f"not a template-ngram model dir: {model_dir}")
        version = manifest.get("version", 1)
        if type(version) is not int or version not in (1, 2):
            raise ValueError(f"{path}: unknown model version {version!r}")
        path = os.path.join(model_dir, "model.json")
        state = _read_json_object(path, cls.STATE)
        drop_words, cue_suffixes = state["drop_words"], state["cue_suffixes"]
        if type(drop_words) is not int or drop_words < 0:
            raise ValueError(f"{path}: drop_words must be an integer >= 0, not {drop_words!r}")
        if not isinstance(cue_suffixes, dict):
            raise ValueError(f"{path}: cue_suffixes must be an object")
        for cue, bucket in cue_suffixes.items():
            if not (isinstance(bucket, dict)
                    and all(type(n) is int and n >= 1 for n in bucket.values())):
                raise ValueError(f"{path}: cue_suffixes[{cue!r}] must map each suffix "
                                 "to an integer count >= 1")
        return cls(drop_words, cue_suffixes, train_config=manifest.get("train_config", {}))


def _read_json_object(path: str, keys) -> dict:
    """The JSON object in a UTF-8 file, holding every key; otherwise a ValueError "path: reason"."""
    try:
        with open(path, encoding="utf-8") as fh:
            obj = json.load(fh)
    except ValueError as exc:  # a byte that is not UTF-8, or bad JSON
        raise ValueError(f"{path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: not a JSON object")
    missing = [key for key in keys if key not in obj]
    if missing:
        raise ValueError(f"{path}: missing field {missing[0]!r}")
    return obj


# ---------------------------------------------------------------------------
# Remote adapters (JSON-over-subprocess; see backends module)


def _reply_perplexity(reply) -> float:
    """A reply's perplexity: a number, not a bool, finite and > 0."""
    value = reply_field(reply, "perplexity", float)
    if not 0 < value < math.inf:  # NaN too
        raise ValueError(f"perplexity must be finite and > 0, got {value!r}")
    return value


def _reply_output(reply) -> GenerationOutput:
    """A generate reply: `text` a string and `truncated`, False when absent, a bool."""
    text = reply_field(reply, "text", str)
    return GenerationOutput(text, "truncated" in reply and reply_field(reply, "truncated", bool))


class RemoteScorer:
    """Scorer adapter: {op: "perplexity", text} -> {perplexity}, one request per text."""

    def __init__(self, command: list[str]):
        self.backend = JsonSubprocessBackend(command)

    def perplexities(self, texts: list[str]) -> list[float]:
        """The requests of a batch run side by side; see JsonSubprocessBackend.call_many."""
        return self.backend.call_many([{"op": "perplexity", "text": text} for text in texts],
                                      _reply_perplexity)


class RemoteModel:
    """Generator adapter: {op: "generate", model_id, source, config} -> {text, truncated}."""

    def __init__(self, command: list[str], model_id: str):
        self.backend = JsonSubprocessBackend(command)
        self.model_id = model_id

    def generate_text(self, source: str, cfg: GenerationConfig) -> GenerationOutput:
        return self.backend.call(
            {"op": "generate", "model_id": self.model_id, "source": source,
             "config": cfg._asdict()},
            _reply_output,
        )
