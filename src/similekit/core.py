"""Simile structure: shared tokenizer, trigger parsing, terminal-modifier surgery.

A simile is a sentence containing a comparator trigger ("like a") that splits
it into a prefix (topic + event, possibly an explicit property), the
comparator span itself, and the vehicle (everything after the trigger up to
the end of the sentence).  Every module uses the tokenizer defined here so
that token-level metrics and model vocabularies agree.
"""

from __future__ import annotations

import collections
import contextlib
import copyreg
import functools
import itertools
import json
import os
import re
from typing import NamedTuple

# Word tokens keep internal apostrophes ("Francis's" is one token); every
# other non-space character is its own token.
_WORD_RE = re.compile(r"\w+(?:'\w+)*")
_TOKEN_RE = re.compile(_WORD_RE.pattern + r"|[^\w\s]")

# A word character: a token is a word when it starts with one.
WORD_CHAR = re.compile(r"\w")

# Punctuation that attaches to the preceding token when text is rebuilt.
NO_SPACE_BEFORE = frozenset(".,!?;:")

EOS_TOKEN = "</s>"


def tokenize(text: str) -> list[str]:
    return _TOKEN_RE.findall(text)


def is_word(token: str) -> bool:
    return WORD_CHAR.match(token) is not None


def rstrip_punct(tokens: list[str]) -> list[str]:
    """The tokens up to and including the last word token."""
    end = len(tokens)
    while end and not is_word(tokens[end - 1]):
        end -= 1
    return tokens[:end]


def common_prefix_len(a: list, b: list) -> int:
    """Length of the longest common prefix of two sequences."""
    limit = min(len(a), len(b))
    i = 0
    while i < limit and a[i] == b[i]:
        i += 1
    return i


def float_sum(values, start: float = 0.0) -> float:
    """start plus the values, added one at a time from the left, as sum() adds floats up to
    Python 3.11.  From 3.12 sum() compensates its rounding, so one list could sum to
    another last digit there; these sums give the same bytes on every interpreter, and
    float_sum(b, float_sum(a)) is float_sum(a + b)."""
    total = start
    for value in values:
        total += value
    return total


def fold(text: str) -> str:
    """Lowercase, with each whitespace run made one space and the ends stripped."""
    return " ".join(text.lower().split())


@functools.cache
def _sha256_type():
    """The interpreter's own sha256 where it has one: hashlib maps OpenSSL's libcrypto,
    3.6 MB of every process that imports it, and hashes a short key no faster."""
    try:
        from _sha2 import sha256  # Python 3.12+
    except ImportError:
        try:
            from _sha256 import sha256  # Python 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def sha256(data: bytes = b""):
    """A sha256 object over data, as hashlib.sha256(data) gives, for short texts: the
    built-in hashes at about an eighth of OpenSSL's speed."""
    return _sha256_type()(data)


def derive_seed(seed: int, *parts) -> int:
    """A 64-bit seed hashed from a run seed and the item it is for, in any process."""
    key = "|".join(str(part) for part in (seed, *parts)).encode("utf-8")
    return int.from_bytes(sha256(key).digest()[:8], "big")


def append_token(text: str, token: str) -> str:
    """Extend a partially built sentence by one token with standard spacing."""
    if not text:
        return token
    if token in NO_SPACE_BEFORE:
        return text + token
    return text + " " + token


_NEWLINES = re.compile(r"\n+")
# A sentence runs to a run of terminal punctuation and the closing quotes and
# brackets after it, attached or after spaces ("”", "’", ")" and "]" never open
# one).  A period ends none when it is a decimal point, belongs to Mr, Mrs, Ms,
# Dr, St, e.g. or i.e. (any case) or to a run of capital initials ("U.S."), or
# ends a single-capital initial ("I" aside, the pronoun) that opens the sentence,
# follows a capitalised word or comes before or after another initial ("J. Smith",
# "John F. Kennedy", "by J. R. R. Tolkien"), and no closing mark follows it.  So
# "got a B. Then" splits, but "Plan B. It" does not: it reads as a name would.
_INITIAL = r"""[A-HJ-Z]\.(?![\w"'”’)\]])"""
_SENTENCE = r"""
    \s* (?: INITIAL \s+ )*
    (?: [^.!?…A-Z]+
      | (?=[A-Z]\.) \b (?: (?: [A-Z]\. ){2,} (?!["'”’)\]]) | INITIAL (?: \s+ INITIAL )+ )
      | [A-Z]\w* (?: \s+ INITIAL )*
      | \.(?!["'”’)\]])
          (?: (?<=\d\.)(?=\d)
            | (?i: (?<=\bmr\.) | (?<=\bmrs\.) | (?<=\bms\.) | (?<=\bdr\.) | (?<=\bst\.)
                 | (?<=\be\.)(?=g\.) | (?<=\be\.g\.) | (?<=\bi\.)(?=e\.) | (?<=\bi\.e\.) ))
    )*
    [.!?…]* (?: ["'”’)\]] | \s+(?=[”’)\]]) )*
""".replace("INITIAL", _INITIAL)
_TERMINAL_PUNCT = re.compile(r"([^\w\s]+)\s*$")


@functools.cache
def _sentences():
    """_SENTENCE's finditer, compiled (a few ms) only in a process that splits text."""
    return re.compile(_SENTENCE, re.VERBOSE).finditer


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence split on terminal punctuation (., !, ?, …) and newlines."""
    parts = []
    sentences = _sentences()
    for chunk in _NEWLINES.split(text):
        for m in sentences(chunk):
            sent = m.group().strip()
            if sent:
                parts.append(sent)
    return parts


def terminal_punctuation(text: str) -> str:
    """Trailing punctuation run of a sentence, "" when it ends in a word."""
    m = _TERMINAL_PUNCT.search(text)
    return m.group(1) if m else ""


COMPARATORS = ("like a", "like an")

# The human-evaluation criteria a score sheet rates (see evaluation); defined
# here so that the command line's option table names them without importing it.
CRITERIA = ("C", "R1", "R2", "OQ")


def is_comparator(phrase: str) -> bool:
    """Whether a phrase is one of COMPARATORS, compared folded."""
    return fold(phrase) in COMPARATORS


# ---------------------------------------------------------------------------
# Records.  An immutable record is a typing.NamedTuple; one whose fields are
# checked subclasses the NamedTuple of its fields with Checked first, and
# checks them in its __new__.  A mutable record is a Slots subclass.


class Checked:
    """The first base of a checked record, so that _make and _replace check too.

    typing.NamedTuple refuses a __new__ in its class body, so a checked
    record subclasses the NamedTuple of its fields and defines __new__
    there, building itself with tuple.__new__(cls, fields).  A named
    tuple's _make skips __new__, and its _replace builds through _make.
    """

    __slots__ = ()

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class Slots:
    """The base of a mutable record: its fields (_fields) are the __slots__ of its classes.

    Two records are equal when they are of one class and their fields are
    equal; defining __eq__ leaves a mutable record unhashable.
    """

    __slots__ = ()

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        cls._fields = tuple(name for klass in reversed(cls.__mro__)
                            for name in vars(klass).get("__slots__", ()))

    def _asdict(self) -> dict:
        """{field: value}, in field order, as a named tuple's _asdict gives."""
        return {name: getattr(self, name) for name in self._fields}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._asdict() == other._asdict()

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={value!r}" for name, value in self._asdict().items())
        return f"{self.__class__.__name__}({fields})"


class _TriggerFields(NamedTuple):
    trigger_phrases: tuple[str, ...] = ("like a",)


class TriggerConfig(Checked, _TriggerFields):
    """Comparator trigger set: a non-empty subset of COMPARATORS.

    Only "like a" is on by default; "like an" is a configurable extension.
    Phrases are matched case-insensitively and with word boundaries, so
    "like a" does not fire inside "like apples" or "unlike a".
    """

    __slots__ = ()

    def __new__(cls, trigger_phrases=("like a",)):
        if not trigger_phrases or not all(map(is_comparator, trigger_phrases)):
            raise ValueError(f"{trigger_phrases} is not a non-empty subset of {COMPARATORS}")
        return tuple.__new__(cls, (tuple(map(fold, trigger_phrases)),))


DEFAULT_TRIGGERS = TriggerConfig()


@functools.lru_cache(maxsize=64)
def _trigger_pattern(phrase: str) -> re.Pattern:
    words = [re.escape(w) for w in phrase.split()]
    pat = r"(?<!\w)" + r"\s+".join(words) + r"(?!\w)"
    return re.compile(pat, re.IGNORECASE)


class _SimileFields(NamedTuple):
    raw_text: str
    prefix: str
    comparator: str
    vehicle: str
    source_id: str = ""


class SimileInstance(Checked, _SimileFields):
    """A parsed simile.  prefix + comparator + vehicle == raw_text, byte for byte.

    The comparator span absorbs the whitespace around the trigger phrase so
    prefix and vehicle carry no flanking spaces.
    """

    __slots__ = ()

    def __new__(cls, raw_text, prefix, comparator, vehicle, source_id=""):
        if prefix + comparator + vehicle != raw_text:
            raise ValueError("prefix + comparator + vehicle must equal raw_text")
        if not WORD_CHAR.search(vehicle):
            raise ValueError("vehicle must contain a word token")
        return tuple.__new__(cls, (raw_text, prefix, comparator, vehicle, source_id))

    def vehicle_phrase(self) -> str:
        """Vehicle text with trailing sentence punctuation removed."""
        return re.sub(r"[^\w\s]+\s*$", "", self.vehicle).strip()


class _LiteralFields(NamedTuple):
    raw_text: str
    prefix: str
    property: str


class LiteralSentence(Checked, _LiteralFields):
    """A literal utterance whose final content token is an adjective/adverb."""

    __slots__ = ()

    def __new__(cls, raw_text, prefix, property):
        if {t.lower() for t in tokenize(raw_text)} & {"like", "as"}:
            raise ValueError("literal sentence must contain no comparator token")
        return tuple.__new__(cls, (raw_text, prefix, property))


def _first_trigger(text: str, cfg: TriggerConfig) -> re.Match | None:
    """The first occurrence of the first trigger of cfg that occurs in text."""
    for phrase in cfg.trigger_phrases:
        m = _trigger_pattern(phrase).search(text)
        if m is not None:
            return m
    return None


def parse_simile(text: str, cfg: TriggerConfig = DEFAULT_TRIGGERS) -> SimileInstance | None:
    """Split a sentence at the first occurrence of the first matching trigger.

    Returns None when no trigger occurs or the vehicle would be empty.
    """
    m = _first_trigger(text, cfg)
    if m is None:
        return None
    start, end = m.start(), m.end()
    # Absorb flanking whitespace into the comparator span so the
    # prefix/vehicle round-trip stays exact without stray spaces.
    while start > 0 and text[start - 1].isspace():
        start -= 1
    while end < len(text) and text[end].isspace():
        end += 1
    vehicle = text[end:]
    if not WORD_CHAR.search(vehicle):
        return None
    return SimileInstance(
        raw_text=text,
        prefix=text[:start],
        comparator=text[start:end],
        vehicle=vehicle,
    )


def is_simile(text: str, cfg: TriggerConfig = DEFAULT_TRIGGERS) -> bool:
    """Whether parse_simile(text, cfg) finds a simile, without building it: a word
    follows the trigger it splits at (the whitespace it absorbs holds none)."""
    m = _first_trigger(text, cfg)
    return m is not None and WORD_CHAR.search(text, m.end()) is not None


class NotModifierFinal(ValueError):
    """The sentence's last content token is not an adjective or adverb."""


class StrippedLiteral(NamedTuple):
    """Result of removing a sentence's terminal modifier.

    prefix keeps the original text verbatim up to the modifier (including any
    comma); trailing holds the punctuation after the modifier.
    """

    prefix: str
    property: str
    trailing: str


def strip_terminal_modifier(text: str, tagger) -> StrippedLiteral:
    """Split off the final content token when it is tagged ADJ or ADV.

    Raises NotModifierFinal otherwise (including sentences with no word
    tokens at all).
    """
    # The tokenizer tries a word first wherever a word can start, so the word tokens
    # of a text are the matches of _WORD_RE alone; the last one is kept.
    words = collections.deque(_WORD_RE.finditer(text), maxlen=1)
    if not words:
        raise NotModifierFinal(f"no content token in {text!r}")
    last = words[0]
    tag = tagger.tag(last.group())
    if tag not in ("ADJ", "ADV"):
        raise NotModifierFinal(f"final token {last.group()!r} tagged {tag}, not ADJ/ADV")
    prefix = text[: last.start()].rstrip()
    trailing = text[last.end() :].strip()
    return StrippedLiteral(prefix=prefix, property=last.group(), trailing=trailing)


def drop_dangling_comma(prefix: str) -> str:
    """Remove a trailing comma left behind when a clause-final modifier goes."""
    return prefix.rstrip().rstrip(",").rstrip()


def extract_generated_vehicle(generated: str, reference: str) -> list[str]:
    """Tokens of `generated` after the longest common token prefix with `reference`.

    A leading comparator remnant ("like a"/"like an" tokens) surviving the
    prefix discard is dropped, so the result is the vehicle whether the
    reference was the literal source or an explicit simile prefix.  May be empty.
    """
    gen = tokenize(generated)
    rest = gen[common_prefix_len(gen, tokenize(reference)):]
    for phrase in COMPARATORS:
        ptoks = tokenize(phrase)
        if [t.lower() for t in rest[: len(ptoks)]] == ptoks:
            return rest[len(ptoks) :]
    return rest


# ---------------------------------------------------------------------------
# Files: JSONL has one JSON object per line, keys sorted, non-ASCII text kept
# as is, but a lone surrogate, which UTF-8 cannot encode, written as its JSON
# escape; a JSON document has its keys sorted and ends in a newline.  Every
# output is written through atomic_open, so a run that fails part-way leaves
# the previous file in place; within commit_outputs, every file it wrote.

# The encoding of an output's text: a lone surrogate becomes its escape \udXXX,
# which JSON reads back as the same str.  Only JSON can hold one: a pair of the
# corpus, the one text written as TSV, refuses it.
TEXT_ENCODING = ("utf-8", "backslashreplace")

# In commit_outputs, the (temporary file, path) of each output written and the
# (None, path) of each directory make_dirs made, in order.
_held = None


@contextlib.contextmanager
def commit_outputs():
    """Move each file atomic_open writes in the block into place, in the order written,
    when the block completes; if it raises, move none, remove every temporary file and
    every directory make_dirs made.  A block within another one joins it."""
    global _held
    if _held is not None:
        yield
        return
    _held = []
    try:
        yield
        for tmp, path in _held:
            if tmp is not None:
                os.replace(tmp, path)
    except BaseException:
        for tmp, path in reversed(_held):
            with contextlib.suppress(OSError):  # a directory is removed only when empty
                if tmp is None:
                    os.rmdir(path)
                else:
                    os.remove(tmp)
        raise
    finally:
        _held = None


def make_dirs(path) -> None:
    """os.makedirs(path, exist_ok=True); within commit_outputs, the directory `path`,
    when this made it, is removed if the block raises."""
    made = not os.path.isdir(path)
    os.makedirs(path, exist_ok=True)
    if made and _held is not None:
        _held.append((None, path))


@contextlib.contextmanager
def atomic_open(path, newline=None, binary=False):
    """A file for writing, text in TEXT_ENCODING or, with binary, bytes, that
    replaces `path` only when the block completes.

    The text goes to a temporary file next to `path`, moved into place with
    os.replace, or within commit_outputs when that block completes; if the
    block raises, the temporary file is removed and `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    encoding, errors = TEXT_ENCODING
    try:
        with (open(tmp, "wb") if binary else
              open(tmp, "w", encoding=encoding, errors=errors, newline=newline)) as fh:
            yield fh
        if _held is None:
            os.replace(tmp, path)
        else:
            _held.append((tmp, path))
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(lines, path) -> None:
    """Write each string of `lines`, which end in their own newlines, as they come."""
    with atomic_open(path) as fh:
        fh.writelines(lines)


def _record_encoder():
    """A function giving json.dumps(record, ensure_ascii=False, sort_keys=True).

    JSONEncoder.encode builds a C encoder for every call; this one is built
    once, with the arguments encode would give it, where the C encoder
    exists.  Its circular-reference markers are cleared after an error, which
    can leave them behind.
    """
    encoder = json.JSONEncoder(ensure_ascii=False, sort_keys=True)
    make = json.encoder.c_make_encoder
    if make is None:
        return encoder.encode
    markers = {}
    encode = make(markers, encoder.default, json.encoder.encode_basestring, encoder.indent,
                  encoder.key_separator, encoder.item_separator, encoder.sort_keys,
                  encoder.skipkeys, encoder.allow_nan)

    def encode_record(record) -> str:
        try:
            return "".join(encode(record, 0))
        except BaseException:
            markers.clear()
            raise

    return encode_record


_encode_record = _record_encoder()


def json_line(record) -> str:
    return _encode_record(record) + "\n"


def write_jsonl(records, path) -> None:
    write_lines(map(json_line, records), path)


class ParseError(ValueError):
    """A line of an input file that cannot be read; the message starts path:line:."""

    def __init__(self, path, line_number: int, reason: str | Exception):
        """reason is a message or the error the line raised; a KeyError names the field."""
        missing = "missing field " if isinstance(reason, KeyError) else ""
        super().__init__(f"{path}:{line_number}: {missing}{reason}")
        self.line_number = line_number

    def __reduce__(self):
        """Rebuilt from its message, so that a worker process can send it to its parent."""
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


# What a reader of one bad line raises; re-raised as ParseError(path, line, exc).
# OverflowError is int() of an infinite float, such as the JSON number 1e400.
LINE_ERRORS = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


# A byte that is not UTF-8, as an input file opened with errors="surrogateescape"
# reads it, so that decoding never stops the file and each line is checked alone.
_NOT_UTF8 = re.compile("[\udc80-\udcff]")


def _check_utf8(line: str) -> None:
    """Refuse a line that held a byte that is not UTF-8; json.loads would accept its escape."""
    bad = None if line.isascii() else _NOT_UTF8.search(line)
    if bad:
        raise ValueError(f"byte {ord(bad.group()) - 0xDC00:#04x} is not UTF-8")


def _numbered_lines(path):
    """(line number, line) for each non-blank line of a UTF-8 file, in file order."""
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for number, line in enumerate(fh, start=1):
            if line.strip():
                yield number, line


def _records(path, numbered_lines, build, fields: int = 0, on_error=None):
    """build(record) for each (number, line) of path; see read_records."""
    for number, line in numbered_lines:
        try:
            _check_utf8(line)
            if not fields:
                item = build(json.loads(line))
            else:
                row = line.rstrip("\n").split("\t")
                if len(row) != fields:
                    raise ValueError(f"expected {fields} tab-separated fields, got {len(row)}")
                item = build(*row)
        except LINE_ERRORS as exc:
            if on_error is None:
                raise ParseError(path, number, exc) from exc
            on_error(ParseError(path, number, exc))
            continue
        yield item


def read_records(path, build, fields: int = 0, on_error=None):
    """Yield build(record) for each non-blank line, in file order.

    A record is the line's JSON value or, with `fields`, that many
    tab-separated fields passed as arguments.  One of LINE_ERRORS on a line
    becomes a ParseError at path:line, which is raised or, given on_error,
    passed to on_error(error) and the line skipped.
    """
    return _records(path, _numbered_lines(path), build, fields, on_error)


# ---------------------------------------------------------------------------
# Fan-out: a record file split into runs that forked worker processes handle.

# Records per run.  A worker holds one run's records and result at a time, and
# the parent one run's result, so a longer run raises the peak memory (runs of
# 2,048 similes added 2 MB to a build of 8,000); the workers finish their last
# runs up to one run's time apart.
RUN_LENGTH = 512


def usable_cpus() -> int:
    """The CPUs this process may run on: its affinity mask where the platform has one."""
    if hasattr(os, "sched_getaffinity"):
        return max(len(os.sched_getaffinity(0)), 1)
    return os.cpu_count() or 1


def runs_of(items):
    """The items of an iterable in lists of RUN_LENGTH, in order; a list is read
    from items only when the one before it has been taken."""
    items = iter(items)
    while run := list(itertools.islice(items, RUN_LENGTH)):
        yield run


class RecordRuns:
    """The records of a file in runs of RUN_LENGTH non-blank lines, for fan_out: each run
    is an iterator of build(record) over its lines, as read_records gives them, that
    decodes a line only when it is read.  It iterates anew each time, so each worker of a
    fan-out reads the file's lines and decodes only those of its own runs."""

    __slots__ = ("path", "build", "fields", "on_error")

    def __init__(self, path, build, fields: int = 0, on_error=None):
        self.path, self.build, self.fields, self.on_error = path, build, fields, on_error

    def __iter__(self):
        for run in runs_of(_numbered_lines(self.path)):
            yield _records(self.path, run, self.build, self.fields, self.on_error)


def fan_out(runs, work):
    """Yield work(run) for each run of `runs`, in order.

    runs is iterable again and again, such as RecordRuns or a list.  Given
    more than one run and more than one usable CPU, the runs are dealt in
    turn to forked worker processes, one per usable CPU up to the number of
    runs, which share the caller's state copy-on-write: fork once that state
    is built, in a process with no other thread.  Each worker iterates runs
    from the start, hands work only its own runs and sends each result back
    pickled.  The first error in run order is raised here as the worker
    raised it, after the results of the runs before it; every worker is
    killed and reaped when the generator ends, however it ends, so close it
    when it is not exhausted.  Whatever work does in a worker (a count kept
    by a RecordRuns on_error, say) reaches the caller only in its result.
    """
    workers = usable_cpus() if hasattr(os, "fork") else 1
    if workers > 1:  # no more workers than runs
        workers = sum(1 for _ in itertools.islice(runs, workers))
    if workers < 2:
        for run in runs:
            yield work(run)
        return
    import pickle  # only a process that forks loads these
    import signal

    readers, pids = [], []
    try:
        for index in range(workers):
            read_end, write_end = os.pipe()
            readers.append(open(read_end, "rb"))
            try:
                pid = os.fork()
            except OSError:
                os.close(write_end)
                raise
            if pid == 0:
                for reader in readers:
                    reader.close()
                _serve(runs, work, index, workers, write_end)
            os.close(write_end)
            pids.append(pid)
        for index in itertools.count():
            try:
                kind, value = pickle.load(readers[index % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"worker process {pids[index % workers]} "
                                        f"ended before sending run {index + 1}") from None
            if kind == "error":
                raise value
            if kind == "end":
                return
            yield value
    finally:
        for reader in readers:
            reader.close()
        for pid in pids:
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _serve(runs, work, index, workers, fd) -> None:
    """A worker's life: run every workers-th run from index, send each result, exit."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for number, run in enumerate(runs):
                if number % workers != index:
                    continue
                try:
                    _send(out, ("run", work(run)))
                except Exception as exc:  # raised in the parent, in run order
                    _send(out, ("error", exc))
                    break
            else:
                _send(out, ("end", None))
        code = 0
    finally:
        # No atexit handler runs and no buffer inherited from the parent is flushed twice.
        os._exit(code)


def _send(out, message) -> None:
    """Write (kind, value) pickled; a value that cannot be pickled is sent as a RuntimeError."""
    import pickle

    try:
        data = pickle.dumps(message, pickle.HIGHEST_PROTOCOL)
    except Exception as exc:  # pickle raises several types for an object it cannot pickle
        error = message[1] if message[0] == "error" else exc
        data = pickle.dumps(("error", RuntimeError(f"{type(error).__name__}: {error}")))
    out.write(data)
    out.flush()


def positional_reader(file):
    """read(length, offset) of an open binary file: os.pread, which leaves the file
    position alone, so processes forked with the file open read it side by side; where
    the platform has no os.pread (nor os.fork, as on Windows), a seek and a read."""
    if hasattr(os, "pread"):
        return functools.partial(os.pread, file.fileno())

    def read(length: int, offset: int) -> bytes:
        file.seek(offset)
        return file.read(length)

    return read


class Spool:
    """Bytes a command sets aside and reads back by offset, in an unlinked temporary file
    (tempfile.TemporaryFile, so in TMPDIR), not in its memory.

    append returns the offset of what it wrote; read(length, offset) is
    positional_reader's, so fan_out workers forked after the appends read the
    spool through the descriptor they inherit.  The file is closed by close,
    at the end of a with block, or when the spool is freed.
    """

    __slots__ = ("_file", "size", "read")

    def __init__(self):
        import tempfile

        self._file = tempfile.TemporaryFile()
        self.size = 0
        self.read = positional_reader(self._file)

    def append(self, data: bytes) -> int:
        offset = self.size
        self._file.seek(offset)  # a read without os.pread moves the position
        self._file.write(data)
        self._file.flush()
        self.size += len(data)
        return offset

    def close(self) -> None:
        self._file.close()

    def __del__(self):
        if hasattr(self, "_file"):  # unset when TemporaryFile failed
            self.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.close()


def string(name: str, value) -> str:
    """value, a string; anything else is a TypeError naming field `name`."""
    if not isinstance(value, str):
        raise TypeError(f"{name!r} is {type(value).__name__}, not a string")
    return value


def text_of(record) -> str:
    """A record's `text` field, which must be a string."""
    return string("text", record["text"])


def simile_record(rec) -> SimileInstance:
    """Rebuild a simile from harvest's stored split; a text-only record is parsed."""
    text = text_of(rec)
    if "prefix" not in rec:
        inst = parse_simile(text)
        if inst is None:
            raise ValueError("text does not parse as a simile")
        return inst._replace(source_id=rec.get("source_id", ""))
    prefix, vehicle = rec["prefix"], rec["vehicle"]
    inst = SimileInstance(text, prefix, text[len(prefix) : len(text) - len(vehicle)], vehicle,
                          rec.get("source_id", ""))
    if not is_comparator(inst.comparator):
        raise ValueError(f"comparator {inst.comparator!r} is not one of {COMPARATORS}")
    return inst


def read_similes_jsonl(path) -> list[SimileInstance]:
    """The similes of a file harvest wrote, in file order."""
    return list(read_records(path, simile_record))


def _literal_record(rec) -> dict:
    text_of(rec)  # a literal is generated from its text
    return rec


def read_literals_jsonl(path) -> list[dict]:
    """The literal records of a file, each with a string `text`."""
    return list(read_records(path, _literal_record))


def strings(name: str, items):
    """items, a list or tuple of strings; anything else is a TypeError naming field `name`."""
    if not isinstance(items, (list, tuple)) or not all(isinstance(s, str) for s in items):
        raise TypeError(f"'{name}' must be a list of strings")
    return items


def write_json(obj, path, indent=2) -> None:
    """The bytes json.dump writes, encoded in one json.dumps call: with indent=None
    that runs the C encoder, which json.dump, encoding in chunks, never does."""
    text = json.dumps(obj, indent=indent, sort_keys=True)
    with atomic_open(path) as fh:
        fh.write(text)
        fh.write("\n")


def utf8_lines(path, newline=None):
    """Yield each line of a text file as read; a line not UTF-8 is a ParseError at path:line."""
    with open(path, encoding="utf-8", errors="surrogateescape", newline=newline) as fh:
        for number, line in enumerate(fh, start=1):
            try:
                _check_utf8(line)
            except ValueError as exc:
                raise ParseError(path, number, exc) from exc
            yield line


def read_lines(path):
    """Yield the stripped, non-blank lines of a UTF-8 text file, in file order."""
    return (line.strip() for line in utf8_lines(path) if line.strip())
