"""Simile structure: shared tokenizer, trigger parsing, terminal-modifier surgery.

A simile is a sentence containing a comparator trigger ("like a") that splits
it into a prefix (topic + event, possibly an explicit property), the
comparator span itself, and the vehicle (everything after the trigger up to
the end of the sentence).  Every module uses the tokenizer defined here so
that token-level metrics and model vocabularies agree.
"""

from __future__ import annotations

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
_TOKEN_RE = re.compile(r"\w+(?:'\w+)*|[^\w\s]")

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


def fold(text: str) -> str:
    """Lowercase, with each whitespace run made one space and the ends stripped."""
    return " ".join(text.lower().split())


def derive_seed(seed: int, *parts) -> int:
    """A 64-bit seed hashed from a run seed and the item it is for, in any process."""
    import hashlib  # loaded by the processes that seed, not by every one that imports core

    key = "|".join(str(part) for part in (seed, *parts)).encode("utf-8")
    return int.from_bytes(hashlib.sha256(key).digest()[:8], "big")


def append_token(text: str, token: str) -> str:
    """Extend a partially built sentence by one token with standard spacing."""
    if not text:
        return token
    if token in NO_SPACE_BEFORE:
        return text + token
    return text + " " + token


def split_sentences(text: str) -> list[str]:
    """Rule-based sentence split on terminal punctuation and newlines."""
    parts = []
    for chunk in re.split(r"\n+", text):
        for m in re.finditer(r"[^.!?]+[.!?]*", chunk):
            sent = m.group().strip()
            if sent:
                parts.append(sent)
    return parts


def terminal_punctuation(text: str) -> str:
    """Trailing punctuation run of a sentence, "" when it ends in a word."""
    m = re.search(r"([^\w\s]+)\s*$", text)
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


def parse_simile(text: str, cfg: TriggerConfig = DEFAULT_TRIGGERS) -> SimileInstance | None:
    """Split a sentence at the first occurrence of the first matching trigger.

    Returns None when no trigger occurs or the vehicle would be empty.
    """
    for phrase in cfg.trigger_phrases:
        m = _trigger_pattern(phrase).search(text)
        if m is None:
            continue
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
    return None


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
    words = [m for m in _TOKEN_RE.finditer(text) if is_word(m.group())]
    if not words:
        raise NotModifierFinal(f"no content token in {text!r}")
    last = words[-1]
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
# as is; a JSON document has its keys sorted and ends in a newline.  Every
# output is written through atomic_open, so a run that fails part-way leaves
# the previous file in place.


@contextlib.contextmanager
def atomic_open(path, newline=None):
    """A text file for writing that replaces `path` only when the block completes.

    The text goes to a temporary file next to `path`, moved into place with
    os.replace; if the block raises, the temporary file is removed and
    `path` is left as it was.
    """
    tmp = f"{os.fspath(path)}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def write_lines(lines, path) -> None:
    """Write each string of `lines`, which end in their own newlines, as they come."""
    with atomic_open(path) as fh:
        fh.writelines(lines)


# json.dumps(record, ensure_ascii=False, sort_keys=True), without an encoder per call.
_JSON_ENCODER = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


def json_line(record) -> str:
    return _JSON_ENCODER.encode(record) + "\n"


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


def _runs(path):
    """The (number, line) pairs of path's non-blank lines, RUN_LENGTH at a time."""
    return runs_of(_numbered_lines(path))


def fan_out(path, build, work, fields: int = 0):
    """Yield work(records) for each run of RUN_LENGTH records of path, in file order.

    records iterates build(record) over the run's lines as read_records does,
    so a bad line is a ParseError at path:line.  Given more than one run and
    more than one usable CPU, the runs are dealt in turn to forked worker
    processes, one per usable CPU up to the number of runs, which share the
    caller's state copy-on-write: fork once that state is built, in a
    process with no other thread.  Each worker reads the file, decodes only
    its own runs and sends each result back pickled.  The first error in
    file order is raised here as the worker raised it, after the results of
    the runs before it; every worker is killed and reaped when the
    generator ends, however it ends, so close it when it is not exhausted.
    """
    workers = usable_cpus() if hasattr(os, "fork") else 1
    if workers > 1:  # no more workers than runs
        workers = sum(1 for _ in itertools.islice(_runs(path), workers))
    if workers < 2:
        for run in _runs(path):
            yield work(_records(path, run, build, fields))
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
                _serve(path, build, work, fields, index, workers, write_end)
            os.close(write_end)
            pids.append(pid)
        for index in itertools.count():
            try:
                kind, value = pickle.load(readers[index % workers])
            except (EOFError, pickle.UnpicklingError):
                raise ChildProcessError(f"{path}: worker process {pids[index % workers]} "
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


def _serve(path, build, work, fields, index, workers, fd) -> None:
    """A worker's life: run every workers-th run from index, send each result, exit."""
    code = 1
    try:
        with open(fd, "wb") as out:
            for number, run in enumerate(_runs(path)):
                if number % workers != index:
                    continue
                try:
                    _send(out, ("run", work(_records(path, run, build, fields))))
                except Exception as exc:  # raised in the parent, in file order
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


def string(name: str, value) -> str:
    """value, a string; anything else is a TypeError naming field `name`."""
    if not isinstance(value, str):
        raise TypeError(f"{name!r} is {type(value).__name__}, not a string")
    return value


def text_of(record) -> str:
    """A record's `text` field, which must be a string."""
    return string("text", record["text"])


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
