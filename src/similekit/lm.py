"""Language-model contracts: perplexity scoring, top-k generation, fine-tuning.

Three capabilities, each behind a small protocol so neural backends can attach
out of process, plus deterministic in-process reference implementations:

* scorer: `perplexities(texts) -> [ppl, ...]`, one call for a batch such as
  the literal candidates of a run of similes; one with
  `token_perplexities(token_lists)` is handed the tokens a caller already
  has instead.  Reference: interpolated word-bigram model with add-alpha
  smoothing.
* seq2seq model: `next_token_distribution(src_tokens, out_tokens) -> [(token,
  prob), ...]`, ranked by falling probability, ties by token; decoding
  samples from the first top_k.  Reference: a template n-gram model that
  learns how many terminal words a source drops and what suffixes replace
  them, conditioned on the dropped cue word.
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
import os
import random
from collections import Counter, defaultdict
from typing import NamedTuple

from .backends import BackendUnavailable, JsonSubprocessBackend, reply_field
from .core import (
    EOS_TOKEN,
    Checked,
    append_token,
    common_prefix_len,
    derive_seed,
    is_word,
    rstrip_punct,
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


class _TrainFields(NamedTuple):
    seed: int
    epochs: int = 17
    batch_token_budget: int = 1024


class TrainConfig(Checked, _TrainFields):
    __slots__ = ()

    def __new__(cls, seed, epochs=17, batch_token_budget=1024):
        if epochs < 1 or batch_token_budget < 1:
            raise ValueError("epochs and batch_token_budget must be positive")
        return tuple.__new__(cls, (seed, epochs, batch_token_budget))


class GenerationOutput(NamedTuple):
    """Decoded text; truncated marks max_new_tokens running out before EOS."""

    text: str
    truncated: bool = False


# ---------------------------------------------------------------------------
# Perplexity


def perplexities(texts, scorer, tokens=None) -> list[float]:
    """Perplexity of each text, in order: exp of mean negative log-likelihood
    per token; lower = more fluent.

    EmptyText is raised before anything is scored if a text has no tokens
    (tokenize finds a token at every character that is not whitespace).  The
    scorer's `perplexities` scores the batch in one call.  `tokens`, when
    given, holds tokenize(text) for each text: a scorer with
    `token_perplexities` is handed them instead of tokenizing each text again.
    """
    texts = list(texts)
    if any(not text or text.isspace() for text in texts):
        raise EmptyText("cannot score an empty text")
    if tokens is not None and hasattr(scorer, "token_perplexities"):
        return scorer.token_perplexities(tokens)
    return [float(ppl) for ppl in scorer.perplexities(texts)]


def perplexity(text: str, scorer) -> float:
    """The perplexity of one text; see perplexities."""
    return perplexities([text], scorer)[0]


def _perplexity_of(logps: list[float]) -> float:
    return math.exp(-sum(logps) / len(logps))


class UniformScorer:
    """Perplexity of any text is exactly V, so candidates tie at every length."""

    def __init__(self, vocab_size: int):
        if vocab_size < 1:
            raise ValueError("vocab_size must be >= 1")
        self.vocab_size = vocab_size

    def perplexities(self, texts: list[str]) -> list[float]:
        return [float(self.vocab_size)] * len(texts)


# The bigram row of a context never seen in training; never written to.
_NO_ROW: dict[str, int] = {}


class BigramScorer:
    """Interpolated word-bigram model with add-alpha smoothing.

    p(t|c) = lam * p_bigram(t|c) + (1-lam) * p_unigram(t), both add-alpha
    smoothed over a vocabulary that includes <unk>; out-of-vocabulary tokens
    map to <unk> so every text gets a finite score.
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
        self.unigram: Counter = Counter()
        bigram: defaultdict[str, Counter] = defaultdict(Counter)
        trained = False
        for text in texts:
            tokens = tokenize(text)
            if not tokens:
                continue
            trained = True
            prev = self.BOS
            for tok in tokens:
                self.unigram[tok] += 1
                bigram[prev][tok] += 1
                prev = tok
        if not trained:
            raise EmptyText("scorer needs at least one non-empty training text")
        self.bigram: dict[str, Counter] = dict(bigram)
        self.context_total = Counter({prev: row.total() for prev, row in bigram.items()})
        self.vocab = set(self.unigram) | {self.UNK}
        self.vocab_size = len(self.vocab)
        self.total = sum(self.unigram.values())

    def perplexities(self, texts: list[str]) -> list[float]:
        """Each text is tokenized once; see token_perplexities."""
        return self.token_perplexities(map(tokenize, texts))

    def token_perplexities(self, token_lists) -> list[float]:
        """The perplexity of each token list.  A token's log-prob depends only
        on it and the token before it, so the log-probs of the prefix a list
        shares with the list before it (the literal candidates of one simile
        differ only at the end) are reused within the call."""
        out, tokens, logps = [], [], []
        for next_tokens in token_lists:
            before, tokens = tokens, next_tokens
            if not tokens:
                raise EmptyText("cannot score an empty text")
            logps = self._logprobs(tokens, before, logps)
            out.append(_perplexity_of(logps))
        return out

    def _logprobs(self, tokens: list[str], before: list[str],
                  before_logps: list[float]) -> list[float]:
        """Log-probs of tokens; those of the prefix shared with `before` are
        copied from before_logps.  The float expressions keep the operation
        order of the formula above (tests compare the log-probs bit for bit);
        only invariants computed by the same expression, and the lookups,
        are hoisted out of the loop."""
        shared = common_prefix_len(tokens, before)
        out = before_logps[:shared]
        vocab, unk, alpha, lam = self.vocab, self.UNK, self.alpha, self.lam
        prev = self.BOS
        if shared:
            prev = tokens[shared - 1] if tokens[shared - 1] in vocab else unk
        alpha_v = alpha * self.vocab_size
        uni_den = self.total + alpha_v
        rest = 1 - lam
        row_of, context_total, unigram = self.bigram.get, self.context_total.get, self.unigram.get
        log, append = math.log, out.append
        for tok in tokens[shared:]:
            t = tok if tok in vocab else unk
            p_bi = (row_of(prev, _NO_ROW).get(t, 0) + alpha) / (context_total(prev, 0) + alpha_v)
            p_uni = (unigram(t, 0) + alpha) / uni_den
            append(log(lam * p_bi + rest * p_uni))
            prev = t
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
    total = sum(weights)
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
    return tuple((tok, c / total)
                 for tok, c in sorted(counts.items(), key=lambda kv: (-kv[1], kv[0])))


class _Trie:
    """Counted token trie over target suffixes, walked by longest context match.

    An entry is [count, children, ranked]: ranked is the children's _rank,
    computed on first use.  The root is an entry whose count is unused.
    """

    __slots__ = ("root",)

    def __init__(self, suffix_counts: dict[str, int]):
        self.root: list = [0, {}, None]
        for joined, count in suffix_counts.items():
            entry = self.root
            for tok in joined.split(" "):
                entry = entry[1].setdefault(tok, [0, {}, None])
                entry[0] += count

    def next_ranked(self, context: list[str]) -> tuple | None:
        """Ranked next tokens at the deepest node whose root path is a suffix of context."""
        for depth in range(len(context), -1, -1):
            entry = self.root
            for tok in context[len(context) - depth :]:
                entry = entry[1].get(tok)
                if entry is None:
                    break
            else:
                if entry[1]:
                    if entry[2] is None:
                        entry[2] = _rank({tok: child[0] for tok, child in entry[1].items()})
                    return entry[2]
        return None


class TemplateCounts:
    """The integer counts TemplateNgramModel is built from.

    Per (source, target) pair: the source words the target drops, the target
    suffix after the common token prefix (by the source's last word, the cue,
    and over all cues), and the target's token bigrams and unigrams.  Counts
    add up, so runs of pairs counted apart and added give the counts of all.
    """

    def __init__(self):
        self.drops: dict[int, int] = {}
        self.cue_suffixes: dict[str, dict[str, int]] = {}
        self.global_suffixes: dict[str, int] = {}
        self.bigram: dict[str, dict[str, int]] = {}
        self.unigram: dict[str, int] = {}

    def count(self, pairs) -> "TemplateCounts":
        """Add the counts of an iterable of (source, target) pairs, reading each once."""
        drops, cue_suffixes, global_suffixes = self.drops, self.cue_suffixes, self.global_suffixes
        bigram, unigram = self.bigram, self.unigram
        for source, target in pairs:
            src = tokenize(source)
            tgt = tokenize(target)
            common = common_prefix_len(src, tgt)
            dropped = sum(1 for tok in src[common:] if is_word(tok))
            drops[dropped] = drops.get(dropped, 0) + 1
            suffix = " ".join(tgt[common:] + [EOS_TOKEN])
            bucket = cue_suffixes.setdefault(_last_word(src), {})
            bucket[suffix] = bucket.get(suffix, 0) + 1
            global_suffixes[suffix] = global_suffixes.get(suffix, 0) + 1
            prev = TemplateNgramModel.BOS
            for tok in tgt + [EOS_TOKEN]:
                row = bigram.setdefault(prev, {})
                row[tok] = row.get(tok, 0) + 1
                unigram[tok] = unigram.get(tok, 0) + 1
                prev = tok
        return self

    def add(self, other: "TemplateCounts") -> None:
        """Add another's counts; `other` is not used afterwards, so its rows may be taken."""
        for table, rows in ((self.cue_suffixes, other.cue_suffixes), (self.bigram, other.bigram)):
            for key, row in rows.items():
                mine = table.setdefault(key, row)
                if mine is not row:
                    _add_counts(mine, row)
        for table, counts in ((self.drops, other.drops), (self.global_suffixes,
                              other.global_suffixes), (self.unigram, other.unigram)):
            _add_counts(table, counts)


def _add_counts(total: dict, counts: dict) -> None:
    for key, n in counts.items():
        total[key] = total.get(key, 0) + n


class TemplateNgramModel:
    """Count-based conditional generator for (source, target) sentence pairs.

    Training observes, per pair, the longest common token prefix between
    source and target; it learns (a) how many terminal source words fall off
    (the mode over pairs), and (b) which target suffixes replace them, keyed
    by the dropped cue word.  Decoding copies the source minus its dropped
    words deterministically, then samples the continuation from the cue's
    suffix trie, backing off to a global trie, a target-side bigram model,
    and finally a unigram model.  Purely count-based, so training is
    deterministic; the TrainConfig is recorded for the model manifest.
    """

    def __init__(self, drop_words: int, cue_suffixes: dict[str, dict[str, int]],
                 global_suffixes: dict[str, int], bigram: dict[str, dict[str, int]],
                 unigram: dict[str, int], train_config: dict):
        self.drop_words = drop_words
        self.cue_suffixes = cue_suffixes
        self.global_suffixes = global_suffixes
        self.bigram = bigram
        self.unigram = unigram
        self.train_config = train_config
        # Tries are built on first lookup, so training and saving build none
        # and decoding builds only the cues its sources end in.
        self._cue_tries: dict[str, _Trie] = {}
        self._global_trie: _Trie | None = None
        # The bigram (or unigram) row after a token, ranked on first use.
        self._ranked_rows: dict[str, tuple] = {}
        # The last source seen, its copy region and its cue's trie: decoding
        # asks about one source on every step.
        self._source: tuple = (None, [], None)

    BOS = "<s>"
    # What model.json holds: the constructor's arguments but the train config.
    STATE = ("drop_words", "cue_suffixes", "global_suffixes", "bigram", "unigram")

    @classmethod
    def train(cls, pairs, cfg: TrainConfig) -> "TemplateNgramModel":
        """Count an iterable of (source, target) pairs, reading each pair once."""
        return cls.from_counts(TemplateCounts().count(pairs), cfg)

    @classmethod
    def from_counts(cls, counts: TemplateCounts, cfg: TrainConfig) -> "TemplateNgramModel":
        """The model of counted pairs; the model holds the counts' tables."""
        if not counts.drops:
            raise EmptyTrainingSet("no training pairs")
        # Mode of the per-pair drop counts; ties go to the smaller count.
        best = max(counts.drops.items(), key=lambda kv: (kv[1], -kv[0]))[0]
        return cls(best, counts.cue_suffixes, counts.global_suffixes, counts.bigram,
                   counts.unigram, train_config=cfg._asdict())

    def copy_region(self, src_tokens: list[str]) -> list[str]:
        """Source tokens minus trailing punctuation and drop_words final words."""
        toks = rstrip_punct(list(src_tokens))
        for _ in range(self.drop_words):
            toks = rstrip_punct(toks[:-1])
        return toks

    def next_token_distribution(self, src_tokens: list[str], out_tokens: list[str]) -> tuple:
        """Ranked (token, prob) pairs; each node's or row's tuple is built once and shared."""
        source, copy, cue_trie = self._source
        if src_tokens != source:
            copy = self.copy_region(src_tokens)
            cue = _last_word(src_tokens)
            cue_trie = self._cue_tries.get(cue)
            if cue_trie is None and cue in self.cue_suffixes:
                cue_trie = self._cue_tries[cue] = _Trie(self.cue_suffixes[cue])
            self._source = (list(src_tokens), copy, cue_trie)
        n = len(out_tokens)
        if n < len(copy) and out_tokens == copy[:n]:
            return ((copy[n], 1.0),)
        ranked = None
        if n >= len(copy) and out_tokens[: len(copy)] == copy:
            # Continuation region: walk the cue trie, then the global trie.
            context = out_tokens[len(copy) :]
            if cue_trie is not None:
                ranked = cue_trie.next_ranked(context)
            if ranked is None:
                if self._global_trie is None:
                    self._global_trie = _Trie(self.global_suffixes)
                ranked = self._global_trie.next_ranked(context)
        if ranked is None:
            # Forced-prefix divergence or trie miss: sentence-level bigram.
            last = out_tokens[-1] if out_tokens else self.BOS
            ranked = self._ranked_rows.get(last)
            if ranked is None:
                counts = self.bigram.get(last) or self.unigram
                ranked = self._ranked_rows[last] = _rank(counts) if counts else ((EOS_TOKEN, 1.0),)
        return ranked

    # Persistence: a directory with a manifest (config + seed) and the counts.

    def save(self, model_dir: str) -> None:
        """Write model.json, then manifest.json: a failed save leaves no new
        manifest beside an old or missing model.json."""
        os.makedirs(model_dir, exist_ok=True)
        state = {name: getattr(self, name) for name in self.STATE}
        write_json(state, os.path.join(model_dir, "model.json"), indent=None)
        manifest = {
            "type": "template-ngram",
            "version": 1,
            "train_config": self.train_config,
        }
        write_json(manifest, os.path.join(model_dir, "manifest.json"))

    @classmethod
    def load(cls, model_dir: str) -> "TemplateNgramModel":
        """A saved model; a damaged manifest.json or model.json is a ValueError naming it."""
        manifest = _read_json_object(os.path.join(model_dir, "manifest.json"), ("type",))
        if manifest["type"] != "template-ngram":
            raise ValueError(f"not a template-ngram model dir: {model_dir}")
        state = _read_json_object(os.path.join(model_dir, "model.json"), cls.STATE)
        return cls(**{name: state[name] for name in cls.STATE},
                   train_config=manifest.get("train_config", {}))


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
