"""Command-line pipeline: harvest | build-corpus | train | generate | evaluate | embellish.

Each command declares its settings once, in an option table: the flag
`--name` is the key `name` in the command's INI config section, and flags
win over the config file.  Validation problems are reported all at once, not
first-only, with exit code 2.  Every run writes a manifest next to its first
output recording argv, config hash, the digest of every input path (taken
when the run starts), seeds, and every output path, all taken from the option
table, with no timestamps, so re-running an identical invocation reproduces
outputs byte for byte; an output may not name an input or another output.
Seeds are mandatory wherever sampling happens; there are no wall-clock
defaults.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import marshal
import os
import sys
from typing import Callable, NamedTuple

from .core import (
    CRITERIA,
    DEFAULT_TRIGGERS,
    NotModifierFinal,
    RecordRuns,
    Spool,
    TriggerConfig,
    derive_seed,
    fan_out,
    read_lines,
    read_literals_jsonl,
    read_records,
    sha256,
    simile_record,
    write_json,
    write_jsonl,
)

# The library names the commands call, by module: each command binds those of the
# modules it runs (_load), so a process imports no other.  perfbench/tracer.py patches
# them here (`similekit.cli:name`); it alone reads load_comments, build_parallel_corpus,
# read_pairs_audit_jsonl, write_pairs_tsv, write_pairs_audit_jsonl and fine_tune.
_NAMES = {
    "corpus": ("BuildStats", "convert_run", "format_pairs", "prepare_run", "write_pair_files",
               "build_parallel_corpus", "read_pairs_audit_jsonl", "write_pairs_audit_jsonl",
               "write_pairs_tsv"),
    "evaluation": ("CharNgramEmbedder", "MetricReport", "OneHotEmbedder", "ScoreSheet",
                   "evaluate_generation", "mean_scores", "normalize_pair", "pairwise_compare",
                   "read_batch_jsonl", "read_refs_jsonl"),
    "harvest": ("HarvestStats", "harvest_literals", "harvest_similes", "load_comments",
                "sample_literals", "split_corpus", "write_literals_jsonl",
                "write_similes_jsonl"),
    "knowledge": ("EMPTY_SYNONYMS", "SynonymTable", "load_edge_table"),
    "lm": ("BigramScorer", "EmptyTrainingSet", "GenerationConfig", "TemplateCounts",
           "TemplateNgramModel", "TrainConfig", "UniformScorer", "fine_tune"),
    "story": ("embellish", "generate_story", "read_stories_jsonl"),
    "systems": ("NOTHING_MASKED", "baseline_metaphor_mask", "baseline_prefix_forced",
                "baseline_retrieval", "masked_pairs", "run_batch", "scope_generate"),
    "tagging": ("DEFAULT_TAGGER",),
}


def _load(*modules: str) -> None:
    """Bind the names of similekit modules here; a name already bound (a probe) stays."""
    for module in modules:
        found = importlib.import_module("." + module, __package__)
        for name in _NAMES[module]:
            globals().setdefault(name, getattr(found, name))


def __getattr__(name: str):
    """`similekit.cli.<name>` for a name no command has loaded yet (PEP 562)."""
    for module, names in _NAMES.items():
        if name in names:
            _load(module)
            return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# A forked child that loads hashlib costs about 15 ms of CPU, what the built-in
# sha256 (about 150 MB/s, against OpenSSL's 1,000) takes over 2 MiB; below that,
# hashing in the command's process is faster.
FORK_HASHING_BYTES = 2 << 20


def _sha256_files(paths, new=sha256) -> list[str]:
    """The hex SHA-256 of each file, by `new` or else the built-in sha256.  hashlib's
    hashes with OpenSSL, six times as fast, but maps its 3.6 MB libcrypto, so only the
    child _hash_inputs forks imports it."""
    digests = []
    for path in paths:
        h = new()
        with open(path, "rb") as fh:
            for chunk in iter(lambda: fh.read(65536), b""):
                h.update(chunk)
        digests.append(h.hexdigest())
    return digests


def _hashed(path: str) -> str:
    """The file an input path is hashed through: a model directory's model.json."""
    return os.path.join(path, "model.json") if os.path.isdir(path) else path


def _file_id(path: str):
    """The (device, inode) of the file a path names, or None where it names none."""
    try:
        st = os.stat(path)
    except (OSError, ValueError):
        return None
    return st.st_dev, st.st_ino


def _hash_inputs(s: Settings) -> None:
    """Hash a run's inputs before the command reads them.  Up to FORK_HASHING_BYTES the
    built-in sha256 does it here; above, a forked child hashes with OpenSSL and sends
    the digests down a pipe.  The run waits for it, so the command never shares a CPU
    with it and no child outlives this call."""
    if s.errors or not s.outputs:
        return
    paths = sorted(set(s.inputs))
    try:
        if sum(map(os.path.getsize, paths)) <= FORK_HASHING_BYTES:
            s.digests = dict(zip(paths, _sha256_files(paths)))
            return
    except (OSError, ValueError):  # the command reports it; the manifest hashes again
        return
    if not hasattr(os, "fork"):
        return
    read_end, write_end = os.pipe()
    try:
        pid = os.fork()
    except OSError:  # the manifest hashes the inputs in this process
        os.close(read_end)
        os.close(write_end)
        return
    if pid == 0:
        code = 1
        try:
            os.close(read_end)
            import hashlib

            with open(write_end, "w", encoding="ascii") as out:
                out.write(" ".join(_sha256_files(paths, hashlib.sha256)))
            code = 0
        finally:
            # No atexit handler runs and no buffer inherited from the parent is flushed twice.
            os._exit(code)
    os.close(write_end)
    try:
        with open(read_end, encoding="ascii") as reader:
            digests = reader.read().split()
    finally:
        status = os.waitpid(pid, 0)[1]
    if status == 0:
        s.digests = dict(zip(paths, digests))


def _input_digests(s: Settings) -> dict[str, str]:
    """Each input file's digest, as _hash_inputs took it; hashed here by the built-in
    sha256 where it took none, so that a file it could not read raises its error here."""
    if s.digests is not None:
        return s.digests
    paths = sorted(set(s.inputs))
    return dict(zip(paths, _sha256_files(paths)))


def _write_manifest(s: Settings, seeds: dict) -> None:
    """Record the run's input and output options; the first output names the manifest."""
    write_json({
        "command": s.command,
        "argv": list(s.argv),
        "config_sha256": sha256(s.config_text.encode("utf-8")).hexdigest(),
        "inputs": _input_digests(s),
        "seeds": seeds,
        "outputs": sorted(s.outputs),
    }, s.outputs[0].rstrip("/") + ".manifest.json")


def _parse_ratio(text: str):
    """An exact Fraction, strictly between 0 and 1, from a decimal such as 0.55 or a
    fraction such as 82697/87843: a float 0.55 times 100 is 55.00000000000001."""
    from fractions import Fraction

    if "/" in text:
        num, den = text.split("/", 1)
        ratio = Fraction(int(num), int(den))
    else:
        ratio = Fraction(text)
    if not 0 < ratio < 1:
        raise ValueError(f"ratio must be strictly between 0 and 1: {text}")
    return ratio


def _parse_positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"must be at least 1: {text}")
    return value


# configparser.ConfigParser.BOOLEAN_STATES: only a run given --config loads configparser.
_BOOLEAN_STATES = {"1": True, "yes": True, "true": True, "on": True,
                   "0": False, "no": False, "false": False, "off": False}


def _parse_bool(text: str) -> bool:
    try:
        return _BOOLEAN_STATES[text.strip().lower()]
    except KeyError:
        raise ValueError(f"not a boolean: {text!r}") from None


def _parse_paths(value) -> list[str]:
    """A flag gives the paths as a list; a config value separates them with commas."""
    return value if isinstance(value, list) else [p.strip() for p in value.split(",")]


def _parse_pair(text: str) -> tuple[str, str]:
    """Two distinct, non-empty names separated by a comma."""
    names = tuple(name.strip() for name in text.split(","))
    if len(names) != 2 or not all(names) or names[0] == names[1]:
        raise ValueError(f"need two distinct names: {text!r}")
    return names


def _parse_triggers(text: str) -> TriggerConfig:
    return TriggerConfig(trigger_phrases=tuple(p.strip() for p in text.split(";") if p.strip()))


class Option(NamedTuple):
    """One setting: the flag `--name` and the config key `name`.

    cast turns a flag or config value into the setting; _parse_bool makes a
    switch flag and _parse_paths a flag of one or more paths.  path marks
    input paths, which must exist (a directory through its model.json), and
    output marks output paths; the manifest records both.  requires names the
    options, none with a default, that must also be given when this one is
    set to other than its default: a run without them would ignore it.
    """

    name: str
    cast: Callable = str
    default: object = None
    required: bool = False
    choices: tuple = ()
    path: bool = False
    output: bool = False
    requires: tuple = ()
    help: str | None = None


class Command(NamedTuple):
    section: str
    help: str
    run: Callable
    options: tuple


class Settings(dict):
    """One run's settings by option name: flags over the command's config section.

    Every problem is collected in `errors` rather than stopping at the first.
    A value that fails a check is kept as given; the errors end the run
    before it is used.  `inputs` holds the file each given input path is
    hashed through and `outputs` each given output path, in table order; an
    output may name neither an input's file nor another output's.  `digests`
    maps each input to its digest, once _hash_inputs has taken them.
    """

    def __init__(self, args: argparse.Namespace, argv: list[str], unknown: list[str]):
        super().__init__()
        command = COMMANDS[args.command]
        self.command, self.argv, self.section = args.command, argv, command.section
        self.errors: list[str] = []
        self.inputs: list[str] = []
        self.outputs: list[str] = []
        self.config_text = ""
        self.digests = None
        if unknown:
            self.error(f"unrecognized arguments: {' '.join(unknown)}")
        config: dict[str, str] = {}
        if args.config == []:
            self.errors.append("argument --config: expected a value")
        elif args.config:
            import configparser

            try:
                with open(args.config, encoding="utf-8") as fh:
                    self.config_text = fh.read()
                parser = configparser.ConfigParser()
                parser.read_string(self.config_text)
                sections = {c.section for c in COMMANDS.values()}
                for name in parser.sections():
                    if name not in sections:
                        self.errors.append(f"config file {args.config}: unknown section [{name}]")
                if parser.has_section(self.section):
                    config = dict(parser[self.section])
                # [DEFAULT] keys reach every section and are not checked.
                names = {opt.name for opt in command.options} | parser.defaults().keys()
                for key in sorted(config.keys() - names):
                    self.error(f"unknown config key '{key}'")
            except (OSError, UnicodeDecodeError, configparser.Error) as exc:
                self.errors.append(f"config file {args.config}: {exc}")
        for opt in command.options:
            self[opt.name] = self._resolve(opt, getattr(args, opt.name), config)
            if opt.required:
                self.require(opt.name)
        for opt in command.options:
            for name in opt.requires:
                if self[opt.name] != opt.default and self[name] is None:
                    self.error(f"--{opt.name} requires --{name}")
        # Written over, an input could no longer be replayed from the manifest; written
        # twice, an output would hold only what was written last.  realpath also matches
        # outputs that do not exist yet.
        inputs = {_file_id(path) for path in self.inputs} - {None}
        outputs: dict[str, str] = {}
        for opt in command.options:
            path = self[opt.name]
            if not (opt.output and isinstance(path, str)):
                continue
            if _file_id(_hashed(path)) in inputs:
                self.error(f"'{opt.name}' names an input file: {path}")
            first = outputs.setdefault(os.path.realpath(path), opt.name)
            if first != opt.name:
                self.error(f"'{opt.name}' names the file of '{first}': {path}")

    def _resolve(self, opt: Option, value, config: dict[str, str]):
        if value == []:
            self.error(f"argument --{opt.name}: expected a value")
            return value
        if value is None:
            value = config.get(opt.name)
        if value is None:
            return opt.default
        try:
            value = opt.cast(value)
        except (ValueError, ZeroDivisionError):
            self.error(f"bad value for '{opt.name}': {value!r}")
            return value
        if opt.choices and value not in opt.choices:
            self.error(f"'{opt.name}' must be one of {', '.join(opt.choices)}, got {value!r}")
        if opt.output:
            self.outputs.append(value)
        if opt.path:
            for path in value if isinstance(value, list) else [value]:
                self.inputs.append(_hashed(path))
                if not os.path.exists(self.inputs[-1]):
                    self.error(f"'{opt.name}' path does not exist: {self.inputs[-1]}")
        return value

    def error(self, message: str) -> None:
        self.errors.append(f"[{self.section}] {message}")

    def require(self, name: str) -> None:
        if self[name] is None:
            self.error(f"missing required setting '{name}'")

    def fail_if_errors(self) -> bool:
        for err in self.errors:
            print(f"error: {err}", file=sys.stderr)
        return bool(self.errors)


COMMANDS: dict[str, Command] = {}


def _command(name: str, section: str, help: str, *options: Option):
    """Register a command with its config section and option table."""
    def register(run):
        COMMANDS[name] = Command(section, help, run, options)
        return run
    return register


_DECODING = (
    Option("top-k", int, 5, requires=("model",)),
    Option("temperature", float, 0.7, requires=("model",)),
    Option("max-new-tokens", int, 32, requires=("model",)),
)


def _generation_config(s: Settings) -> GenerationConfig | None:
    """The decoding settings; GenerationConfig's refusals are one more collected error.

    A value that failed its cast (an error already) is checked as its default.
    """
    value = {o.name: s[o.name] if isinstance(s[o.name], o.cast) else o.default for o in _DECODING}
    try:
        return GenerationConfig(max_new_tokens=value["max-new-tokens"], seed=s["seed"],
                                top_k=value["top-k"], temperature=value["temperature"])
    except ValueError as exc:
        s.error(str(exc))
    return None


# ---------------------------------------------------------------------------
# Commands


@_command(
    "harvest", "harvest", "extract similes from comment dumps, literals from crawls",
    # An output needs the setting it is made from; a setting for one input needs it.
    Option("comments", path=True, requires=("similes-out",)),
    Option("similes-out", output=True, requires=("comments",)),
    Option("triggers", _parse_triggers, requires=("comments",),
           help="semicolon-separated phrases from: like a; like an (default: like a)"),
    Option("split", _parse_ratio, requires=("train-out", "val-out", "comments", "seed"),
           help="train fraction, e.g. 0.9 or 82697/87843"),
    Option("train-out", output=True, requires=("split",)),
    Option("val-out", output=True, requires=("split",)),
    Option("sentences", path=True, requires=("literals-out",)),
    Option("literals-out", output=True, requires=("sentences",)),
    Option("sample", _parse_positive, requires=("sentences", "seed")),
    Option("seed", int),
)
def cmd_harvest(s: Settings) -> int:
    _load("harvest", "tagging")
    comments, sentences, split, seed = s["comments"], s["sentences"], s["split"], s["seed"]
    if comments is None and sentences is None:
        s.error("need --comments and/or --sentences")
    if seed is not None and split is None and s["sample"] is None:
        s.error("--seed requires --split or --sample")
    if s.fail_if_errors():
        return 2
    stats = HarvestStats()
    seeds = {}
    files = []  # (writer, *args): nothing is written until every output is computed
    if comments is not None:
        similes = harvest_similes(comments, s["triggers"] or DEFAULT_TRIGGERS, stats)
        print(f"harvested {len(similes)} similes "
              f"({stats.duplicates} duplicates, {stats.malformed} malformed records)")
        parts = []
        if split is not None:
            result = split_corpus(similes, split, seed)
            parts = [(result.train, s["train-out"]), (result.validation, s["val-out"])]
            seeds["split_seed"] = seed
            print(f"split {len(result.train)} train / {len(result.validation)} validation")
        files.append((write_similes_jsonl, similes, s["similes-out"], parts))
    if sentences is not None:
        # A list, because perfbench/tracer.py counts the crawl lines with len().
        literals = harvest_literals(list(read_lines(sentences)), DEFAULT_TAGGER, stats)
        if s["sample"] is not None:
            literals = sample_literals(literals, s["sample"], seed)
            seeds["sample_seed"] = seed
        files.append((write_literals_jsonl, literals, s["literals-out"]))
        print(f"kept {len(literals)} literals ({stats.rejected} rejected)")
    for write, *args in files:
        write(*args)
    _write_manifest(s, seeds)
    return 0


@_command(
    "build-corpus", "corpus", "turn similes into (literal, simile) pairs",
    Option("in", required=True, path=True),
    Option("knowledge", required=True, path=True),
    Option("scorer", default="reference", choices=("reference", "uniform")),
    Option("scorer-train", path=True),
    Option("k", _parse_positive, 5),
    Option("out", required=True, output=True),
    Option("audit-out", output=True),
)
def cmd_build_corpus(s: Settings) -> int:
    """Convert --in in two fan-outs (core.fan_out) through a spool (core.Spool): the first
    decodes each record once and looks its vehicle up in the --knowledge table; with the
    table freed, the scorer is built; the second scores the spooled runs, and their pairs
    are written in file order."""
    _load("corpus", "knowledge", "lm")
    if s["scorer"] == "uniform":
        # Every candidate ties, so the top-ranked property wins whatever k or V is.
        if s["scorer-train"] is not None:
            s.error("--scorer uniform does not read --scorer-train")
        if s["k"] != 5:
            s.error("--scorer uniform does not read --k")
    if s.fail_if_errors():
        return 2
    audit = s["audit-out"] is not None
    stats = BuildStats()
    with Spool() as spool:
        runs = _prepare_runs(s, spool)
        if s["scorer"] == "uniform":
            scorer = UniformScorer(1000)
        elif s["scorer-train"]:
            scorer = BigramScorer(read_lines(s["scorer-train"]))
        else:
            scorer = BigramScorer(text for texts, _ in runs for text in _unspool(spool, texts))

        def convert(run):
            """A run's TSV text, audit text and counts."""
            run_stats = BuildStats()
            pairs = convert_run(_unspool(spool, run[1]), scorer, stats=run_stats)
            return format_pairs(pairs, audit), run_stats

        def texts(results):
            for text, run_stats in results:
                stats.add(run_stats)
                yield text

        with contextlib.closing(fan_out(runs, convert)) as results:
            write_pair_files(texts(results), s["out"], s["audit-out"])
    _write_manifest(s, {})
    print(f"built {stats.built} pairs "
          f"({stats.skipped_no_properties} skipped, {len(stats.failures)} failed)")
    return 0


def _prepare_runs(s: Settings, spool) -> list[list[tuple[int, int]]]:
    """Load the --knowledge table, then decode --in and look up its runs in worker
    processes (corpus.prepare_run), each record decoded once.  Spool each run's texts
    and its prepared similes, each marshalled, and return for each run where they lie,
    (length, offset) each: the scorer reads the texts alone, run by run, which leaves
    it less to interleave with its counts.  Nothing holds the table once this returns,
    so the memory it took is free for the scorer."""
    backend = load_edge_table(s["knowledge"])

    def prepare(similes) -> tuple[bytes, bytes]:
        prepared = prepare_run(similes, backend, s["k"])
        return marshal.dumps([simile[0] for simile in prepared]), marshal.dumps(prepared)

    with contextlib.closing(fan_out(RecordRuns(s["in"], simile_record), prepare)) as runs:
        return [[(len(data), spool.append(data)) for data in run] for run in runs]


def _unspool(spool, extent: tuple[int, int]):
    """What _prepare_runs spooled at (length, offset)."""
    return marshal.loads(spool.read(*extent))


@_command(
    "train", "train", "fine-tune the reference seq2seq model on pairs",
    Option("pairs", required=True, path=True),
    Option("model-out", required=True, output=True),
    Option("seed", int, required=True),
    Option("mask", _parse_bool, False,
           help="replace terminal modifiers with the mask token before training"),
)
def cmd_train(s: Settings) -> int:
    """Count the runs of --pairs in worker processes (core.fan_out), then add the counts up."""
    _load("lm", "systems", "tagging")
    if s.fail_if_errors():
        return 2
    mask = s["mask"]

    def count(records):
        """A run's template counts, its number of pairs and the sources the mask skipped."""
        pairs, stats = list(records), {"skipped": 0}
        counts = TemplateCounts().count(masked_pairs(pairs, DEFAULT_TAGGER, stats) if mask
                                        else pairs)
        return counts, len(pairs), stats["skipped"]

    counts, read, skipped = TemplateCounts(), 0, 0
    runs = fan_out(RecordRuns(s["pairs"], lambda source, target: (source, target), fields=2),
                   count)
    with contextlib.closing(runs):
        for run_counts, run_read, run_skipped in runs:
            counts.add(run_counts)
            read += run_read
            skipped += run_skipped
    try:
        model = TemplateNgramModel.from_counts(counts, TrainConfig(seed=s["seed"]))
    except EmptyTrainingSet:
        if not mask:
            raise
        raise EmptyTrainingSet(NOTHING_MASKED) from None
    if mask:
        print(f"masked training: {skipped} pairs skipped")
    model.save(s["model-out"])
    _write_manifest(s, {"seed": s["seed"]})
    print(f"trained on {read} pairs -> {s['model-out']}")
    return 0


@_command(
    "generate", "generate", "run one generation system over a literal file",
    Option("literals", required=True, path=True),
    Option("system", required=True, choices=("scope", "prefix", "rtrvl", "meta_m")),
    Option("model", path=True),
    Option("knowledge", path=True),
    Option("synonyms", path=True, requires=("knowledge",)),
    Option("seed", int, required=True),
    *_DECODING,
    Option("article-heuristic", _parse_bool, False, requires=("knowledge",)),
    Option("out", required=True, output=True),
)
def cmd_generate(s: Settings) -> int:
    _load("knowledge", "lm", "systems", "tagging")
    system = s["system"]
    # rtrvl reads the knowledge table and no model; the other systems the reverse.
    reads, ignores = ("knowledge", "model") if system == "rtrvl" else ("model", "knowledge")
    s.require(reads)
    if system and s[ignores] is not None:
        s.error(f"--system {system} does not read --{ignores}")
    cfg = _generation_config(s)
    if s.fail_if_errors():
        return 2
    literals = [rec["text"] for rec in read_literals_jsonl(s["literals"])]
    if system == "rtrvl":
        backend = load_edge_table(s["knowledge"])
        synonyms = SynonymTable.load(s["synonyms"]) if s["synonyms"] else EMPTY_SYNONYMS
        fn = lambda lit: baseline_retrieval(lit, backend, synonyms, DEFAULT_TAGGER,
                                            use_article_heuristic=s["article-heuristic"])
    else:
        model = TemplateNgramModel.load(s["model"])
        fn = {
            "scope": lambda lit: scope_generate(lit, model, cfg),
            "prefix": lambda lit: baseline_prefix_forced(lit, model, cfg, DEFAULT_TAGGER),
            "meta_m": lambda lit: baseline_metaphor_mask(lit, model, cfg, DEFAULT_TAGGER),
        }[system]
    skipped = 0

    def guarded(literal):
        """An input whose modifier cannot be stripped or masked gets no output."""
        nonlocal skipped
        try:
            return fn(literal)
        except NotModifierFinal:
            skipped += 1
            return None

    run_batch(literals, system, guarded, s["seed"], s["out"])
    _write_manifest(s, {"seed": s["seed"]})
    note = f" ({skipped} inputs failed)" if skipped else ""
    print(f"{system}: generated {len(literals)} outputs -> {s['out']}{note}")
    return 0


@_command(
    "evaluate", "evaluate", "automatic metrics and score-sheet aggregation",
    Option("generated", _parse_paths, path=True, requires=("refs",)),
    Option("refs", path=True, requires=("generated",)),
    Option("train-audit", path=True, requires=("generated",)),
    Option("embedder", default="chargram", choices=("onehot", "chargram"),
           requires=("generated",)),
    Option("smoothing", _parse_bool, False, requires=("generated",)),
    Option("scoresheet", path=True),
    Option("pairwise", _parse_pair, requires=("scoresheet", "criterion"),
           help="two distinct system names, e.g. scope,meta_m"),
    Option("criterion", choices=CRITERIA, requires=("pairwise",)),
    Option("report", output=True),
)
def cmd_evaluate(s: Settings) -> int:
    _load("evaluation")
    generated, scoresheet, pairwise = s["generated"], s["scoresheet"], s["pairwise"]
    if scoresheet is None and generated is None:
        s.error("need --generated batch files or --scoresheet")
    if s.fail_if_errors():
        return 2
    payload: dict = {}
    if generated is not None:
        _load("tagging")
        refs_by_literal = read_refs_jsonl(s["refs"])
        train_seen = None
        if s["train-audit"]:
            # Novelty reads two fields of each pair, normalized once for every batch.
            train_seen = set(read_records(s["train-audit"], lambda rec: normalize_pair(
                (rec["property_used"], rec["vehicle"]))))
        embedder = OneHotEmbedder() if s["embedder"] == "onehot" else CharNgramEmbedder()
        report, scored_from = MetricReport(), {}
        for path in generated:
            records = read_batch_jsonl(path, refs_by_literal)
            if not records:
                print(f"warning: {path} has no rows; not scored", file=sys.stderr)
                continue
            system = records[0].get("system", os.path.basename(path))
            if system in scored_from:
                raise ValueError(f"{path}: system {system!r} was already scored from "
                                 f"{scored_from[system]}")
            scored_from[system] = path
            report.systems[system] = evaluate_generation(
                records, refs_by_literal, embedder, train_seen=train_seen,
                tagger=DEFAULT_TAGGER, smoothing=s["smoothing"],
            )
        payload["metrics"] = {name: m._asdict() for name, m in report.systems.items()}
        print(report.format_table(), end="")
    if scoresheet is not None:
        sheet = ScoreSheet.load_csv(scoresheet)
        means = mean_scores(sheet)
        payload["mean_scores"] = {
            f"{system}/{criterion_}": round(value, 4)
            for (system, criterion_), value in sorted(means.items())
        }
        for key, value in sorted(payload["mean_scores"].items()):
            print(f"{key}: {value:.2f}")
        if pairwise is not None:
            criterion = s["criterion"]
            system_a, system_b = pairwise
            win, lose, tie = pairwise_compare(sheet, system_a, system_b, criterion)
            payload["pairwise"] = {"systems": [system_a, system_b], "criterion": criterion,
                                   "win": win, "lose": lose, "tie": tie}
            print(f"{system_a} vs {system_b} on {criterion}: "
                  f"win {win:.1f} / lose {lose:.1f} / tie {tie:.1f}")
    if s["report"] is not None:
        write_json(payload, s["report"])
        _write_manifest(s, {})
    return 0


@_command(
    "embellish", "story", "replace one literal sentence per story with a simile",
    Option("stories", path=True),
    Option("titles", path=True, requires=("storyline-model", "story-model")),
    Option("storyline-model", path=True, requires=("titles",)),
    Option("story-model", path=True, requires=("titles",)),
    Option("model", required=True, path=True),
    Option("seed", int, required=True),
    *_DECODING,
    Option("out", required=True, output=True),
)
def cmd_embellish(s: Settings) -> int:
    _load("lm", "story", "systems", "tagging")
    titles_path, storyline_dir, story_dir = s["titles"], s["storyline-model"], s["story-model"]
    if (s["stories"] is None) == (titles_path is None):
        s.error("need --stories or --titles, not both")
    cfg = _generation_config(s)
    if s.fail_if_errors():
        return 2
    if s["stories"] is not None:
        stories = read_stories_jsonl(s["stories"])
    else:
        storyline_model = TemplateNgramModel.load(storyline_dir)
        story_model = TemplateNgramModel.load(story_dir)
        stories = [generate_story(t, storyline_model, story_model, cfg)
                   for t in read_lines(titles_path)]
    model = TemplateNgramModel.load(s["model"])
    generator = lambda sentence: scope_generate(sentence, model, cfg)
    records = []
    replaced_count = 0
    for index, story in enumerate(stories):
        story_seed = derive_seed(s["seed"], index, story.title)
        result = embellish(story, generator, DEFAULT_TAGGER, story_seed)
        replaced = next((i for i, (old, new) in enumerate(zip(story.sentences, result.sentences))
                         if old != new), None)
        replaced_count += replaced is not None
        records.append({
            "title": result.title,
            "storyline": list(result.storyline),
            "sentences": list(result.sentences),
            "replaced_index": replaced,
            "original_sentence": None if replaced is None else story.sentences[replaced],
        })
    write_jsonl(records, s["out"])
    _write_manifest(s, {"seed": s["seed"]})
    print(f"embellished {replaced_count}/{len(stories)} stories -> {s['out']}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    """Flags come from the option tables; every value is cast later, by Settings.

    A flag given without its value parses as [], so that Settings reports it
    with every other error instead of argparse stopping at it.
    """
    parser = argparse.ArgumentParser(
        prog="similekit",
        description="Literal-simile parallel corpus construction, generation, and evaluation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", nargs="?", const=[])
        for opt in command.options:
            kwargs = {"dest": opt.name, "help": opt.help}
            if opt.cast is _parse_bool:
                kwargs.update(action="store_const", const="true")
            elif opt.cast is _parse_paths:
                kwargs["nargs"] = "*"
            else:
                kwargs.update(nargs="?", const=[])
                if opt.choices:
                    kwargs["metavar"] = "{" + ",".join(opt.choices) + "}"
            p.add_argument("--" + opt.name, **kwargs)
    return parser


def main(argv=None) -> int:
    argv = list(sys.argv[1:]) if argv is None else list(argv)
    args, unknown = build_parser().parse_known_args(argv)
    try:
        s = Settings(args, argv, unknown)
        _hash_inputs(s)
        return COMMANDS[args.command].run(s)
    except Exception as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
