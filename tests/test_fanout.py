"""core.fan_out and the commands that split their input over worker processes.

Each test sets core.RUN_LENGTH small and core.usable_cpus to a worker count,
so a few dozen records make several runs and every worker gets some.
"""

import builtins
import contextlib
import io
import json
import os
import pickle
import re
import signal
import tempfile
import time
from array import array
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from similekit import cli, core, corpus, harvest
from similekit.backends import BackendUnavailable
from similekit.cli import main
from similekit.core import ParseError, RecordRuns, fan_out, read_records
from similekit.harvest import HarvestStats, RawComment, harvest_similes
from similekit.lm import TemplateNgramModel, TrainConfig
from similekit.systems import masked_pairs
from similekit.tagging import DEFAULT_TAGGER

from conftest import assert_no_child_left
from test_harvest import SENTENCES, oracle_harvest_similes

WORKERS = [1, 2, 3]


@pytest.fixture(autouse=True)
def deadline():
    """A fan-out that hangs fails its test after 60 s instead of stalling the suite."""
    def expire(signum, frame):
        raise TimeoutError("the test ran over 60 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(60)
    yield
    signal.alarm(0)
    signal.signal(signal.SIGALRM, previous)


@pytest.fixture()
def split(monkeypatch):
    """split(run_length, workers): runs of that many records over that many CPUs."""
    def configure(run_length, workers):
        monkeypatch.setattr(core, "RUN_LENGTH", run_length)
        monkeypatch.setattr(core, "usable_cpus", lambda: workers)
    return configure


def write_records(path, count, blank_every=0):
    lines = []
    for i in range(count):
        lines.append(json.dumps({"i": i}) + "\n")
        if blank_every and i % blank_every == 0:
            lines.append("\n")
    path.write_text("".join(lines), encoding="utf-8")


def numbers(records):
    """A run's record numbers and the process that read them."""
    return [rec["i"] for rec in records], os.getpid()


# ---------------------------------------------------------------------------
# fan_out


@pytest.mark.parametrize("workers", WORKERS)
@pytest.mark.parametrize("count", [0, 1, 4, 5, 8, 12, 13])
def test_runs_come_back_in_file_order(tmp_path, split, workers, count):
    """Every record once, in runs of RUN_LENGTH, whether or not the input ends on a run boundary."""
    path = tmp_path / "records.jsonl"
    write_records(path, count, blank_every=3)
    split(4, workers)
    results = list(fan_out(RecordRuns(path, lambda rec: rec), numbers))
    assert [ids for ids, _ in results] == [list(range(i, min(i + 4, count)))
                                           for i in range(0, count, 4)]
    forked = workers > 1 and count > 4
    assert all((pid != os.getpid()) == forked for _, pid in results)
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_a_bad_line_in_a_later_run_is_the_error_read_records_raises(tmp_path, split, workers):
    path = tmp_path / "records.jsonl"
    write_records(path, 10, blank_every=4)
    with open(path, "a", encoding="utf-8") as fh:
        fh.write('{"j": 1}\n{"i": 11}\n')
    with pytest.raises(ParseError) as expected:
        list(read_records(path, lambda rec: rec["i"]))
    split(3, workers)
    taken = []
    with pytest.raises(ParseError) as raised:
        for ids in fan_out(RecordRuns(path, lambda rec: rec["i"]), list):
            taken.append(ids)
    assert str(raised.value) == str(expected.value) == f"{path}:14: missing field 'i'"
    assert raised.value.line_number == 14
    assert taken == [[0, 1, 2], [3, 4, 5], [6, 7, 8]]
    assert_no_child_left()


@pytest.mark.parametrize("workers", [2, 3])
def test_the_first_error_in_file_order_is_raised(tmp_path, split, workers):
    """Run 1 fails late, run 2 fails first in time: run 1's error is raised."""
    path = tmp_path / "records.jsonl"
    write_records(path, 12)

    def work(records):
        ids = [rec["i"] for rec in records]
        if ids[0] == 2:
            time.sleep(0.3)
            raise RuntimeError("run 1 failed")
        if ids[0] == 4:
            raise BackendUnavailable("run 2 failed")
        return ids

    split(2, workers)
    with pytest.raises(RuntimeError, match="^run 1 failed$") as raised:
        list(fan_out(RecordRuns(path, lambda rec: rec), work))
    assert type(raised.value) is RuntimeError
    assert_no_child_left()


def test_a_killed_worker_is_an_error_not_a_hang(tmp_path, split):
    path = tmp_path / "records.jsonl"
    write_records(path, 12)

    def work(records):
        ids = [rec["i"] for rec in records]
        if ids[0] == 3:
            os.kill(os.getpid(), signal.SIGKILL)
        return ids

    split(3, 2)
    began = time.monotonic()
    with pytest.raises(ChildProcessError, match="ended before sending run 2"):
        list(fan_out(RecordRuns(path, lambda rec: rec), work))
    assert time.monotonic() - began < 10
    assert_no_child_left()


def test_a_failed_fork_reaps_the_workers_already_started(tmp_path, split, monkeypatch):
    path = tmp_path / "records.jsonl"
    write_records(path, 12)
    fork, forked = os.fork, []

    def fork_once():
        if forked:
            raise BlockingIOError(11, "Resource temporarily unavailable")
        forked.append(True)
        return fork()

    monkeypatch.setattr(os, "fork", fork_once)
    split(2, 3)
    with pytest.raises(BlockingIOError):
        list(fan_out(RecordRuns(path, lambda rec: rec), numbers))
    assert forked == [True]
    assert_no_child_left()


def test_closing_early_reaps_every_worker(tmp_path, split):
    path = tmp_path / "records.jsonl"
    write_records(path, 40)
    split(2, 3)
    results = fan_out(RecordRuns(path, lambda rec: rec), lambda records: time.sleep(0.01))
    next(results)
    results.close()
    assert_no_child_left()


def test_a_result_that_cannot_be_pickled_is_an_error(tmp_path, split):
    path = tmp_path / "records.jsonl"
    write_records(path, 6)
    split(2, 2)
    with pytest.raises(RuntimeError, match="PicklingError|AttributeError|TypeError"):
        list(fan_out(RecordRuns(path, lambda rec: rec), lambda records: lambda: None))
    assert_no_child_left()


def test_parse_error_survives_pickling():
    error = ParseError("in.jsonl", 7, KeyError("text"))
    copy = pickle.loads(pickle.dumps(error))
    assert (type(copy), str(copy), copy.line_number) == (ParseError, str(error), 7)


def test_usable_cpus_counts_the_affinity_mask(monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    assert core.usable_cpus() == 2
    monkeypatch.delattr(os, "sched_getaffinity")
    assert core.usable_cpus() == 64
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert core.usable_cpus() == 1


def test_no_fork_without_os_fork(tmp_path, split, monkeypatch):
    path = tmp_path / "records.jsonl"
    write_records(path, 9)
    split(2, 4)
    monkeypatch.delattr(os, "fork")
    results = list(fan_out(RecordRuns(path, lambda rec: rec), numbers))
    assert [ids for ids, _ in results] == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]
    assert {pid for _, pid in results} == {os.getpid()}


@pytest.mark.parametrize("workers", WORKERS)
def test_on_error_skips_a_bad_line_in_the_process_that_reads_it(tmp_path, split, workers):
    """What on_error counts in a worker reaches the caller only through work's result."""
    path = tmp_path / "records.jsonl"
    write_records(path, 9)
    lines = path.read_text(encoding="utf-8").splitlines(keepends=True)
    path.write_text("".join(lines[:6] + ['{"j": 1}\n'] + lines[6:]), encoding="utf-8")
    errors = []

    def work(records):
        ids = list(records)
        bad = [error.line_number for error in errors]
        errors.clear()
        return ids, bad

    split(3, workers)
    runs = RecordRuns(path, lambda rec: rec["i"], on_error=errors.append)
    assert list(fan_out(runs, work)) == [
        ([0, 1, 2], []), ([3, 4, 5], []), ([6, 7], [7]), ([8], [])]
    assert errors == []
    assert_no_child_left()


# ---------------------------------------------------------------------------
# harvest


BAD_LINES = ["{not json", "[1, 2]", '{"id": "1"}', '{"id": true, "body": "It ran like a dog."}',
             '{"id": "x", "body": "It ran like a dog.", "created_utc": true}',
             '{"id": "y", "body": "It ran like a dog.", "created_utc": 18446744073709551616}']
dump_entries = st.lists(st.one_of(
    st.builds(RawComment, id=st.sampled_from(["a", "b", "c"]),
              body=st.lists(st.sampled_from(SENTENCES), min_size=1, max_size=3).map("\n".join),
              created_utc=st.integers(0, 2)),
    st.sampled_from(BAD_LINES + ["", "  "]),
), max_size=16)


def write_dump(path, entries):
    """A comment dump: a RawComment as its JSON record, a string as the line it is."""
    path.write_text("".join((json.dumps(e._asdict()) if isinstance(e, RawComment) else e) + "\n"
                            for e in entries), encoding="utf-8")
    return path


def few_hashes(monkeypatch, buckets):
    """Make harvest hash every dedup key to one of `buckets` values (0: the real hash)."""
    if buckets:
        monkeypatch.setattr(harvest, "hash", lambda key: builtins.hash(key) % buckets,
                            raising=False)
    else:
        monkeypatch.delattr(harvest, "hash", raising=False)


def assert_no_run_text(rows):
    """Harvest's columns hold offsets and fields, each in an array, and the spool that
    holds the runs' lines."""
    columns = rows._columns
    for name in columns.__slots__:
        assert isinstance(getattr(columns, name), (array, core.Spool)), name


@pytest.fixture()
def keeps(monkeypatch):
    """The number of times harvest's columns have cut their dropped rows."""
    calls, keep = [], harvest._Columns.keep
    monkeypatch.setattr(harvest._Columns, "keep",
                        lambda columns, alive: (calls.append(1), keep(columns, alive))[1])
    return calls


@given(entries=dump_entries, run_length=st.integers(1, 4), buckets=st.sampled_from([0, 1, 3]),
       copies=st.sampled_from([1, 3]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_harvest_equals_the_oracle_for_every_worker_count(tmp_path_factory, split, monkeypatch,
                                                          keeps, entries, run_length, buckets,
                                                          copies):
    """Malformed and blank lines, and duplicates on both sides of a run boundary, with
    earlier ranks in later runs and equal ranks; with buckets, keys collide as well.
    Three copies of each comment make the dropped rows outnumber the held ones, so the
    columns cut them."""
    entries = [e for e in entries for _ in range(copies)]
    path = write_dump(tmp_path_factory.mktemp("dump") / "c.ndjson", entries)
    want_stats = HarvestStats(malformed=sum(isinstance(e, str) and bool(e.strip())
                                            for e in entries))
    want = oracle_harvest_similes([e for e in entries if isinstance(e, RawComment)],
                                  stats=want_stats)
    few_hashes(monkeypatch, buckets)
    for workers in WORKERS:
        split(run_length, workers)
        stats, keeps[:] = HarvestStats(), []
        rows = harvest_similes(path, stats=stats)
        assert [row.instance() for row in rows] == want
        assert stats == want_stats
        assert keeps or not (copies == 3 and want)
        assert_no_run_text(rows)
        assert_no_child_left()


# Keys shared by texts that differ, in text one, two and four bytes a character wide.
WIDE_SENTENCES = [
    "Él corrió like a ciervo.", "él corrió, like a CIERVO!", "Ça va like a café.",
    "猫が走った like a 虎.", "猫が走った LIKE A 虎!", "It glowed like a star 🌟.",
    "it glowed, like a STAR 🌟?", "😀 sang like a bird 🐦.", "He ran like a deer.",
    "Nothing here.", "A lone \ud83d ran like a shade.",  # a surrogate, as a JSON escape gives
]
wide_comments = st.builds(
    RawComment, id=st.sampled_from(["a", "bb", "123", "猫"]),
    body=st.lists(st.sampled_from(WIDE_SENTENCES), min_size=1, max_size=3).map(" ".join),
    created_utc=st.sampled_from([-3, 0, 1, 2, 2**63 - 1, -2**63]))  # the widest that fit
wide_dump_entries = st.lists(st.one_of(wide_comments, st.sampled_from(BAD_LINES)), max_size=16)


@given(entries=wide_dump_entries, run_length=st.integers(1, 4),
       buckets=st.sampled_from([0, 1, 3]), copies=st.sampled_from([1, 3]))
@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_harvest_of_wide_text_equals_the_oracle(tmp_path_factory, split, monkeypatch, keeps,
                                                 entries, run_length, buckets, copies):
    """Each run's lines are spooled joined, each row at its offset: mixed widths, ids of
    several lengths, and created_utc from -2**63 to 2**63 - 1, come back as they were
    read, also after the columns have cut the rows that three copies of each comment
    drop; a created_utc of 65 bits is a malformed line."""
    entries = [e for e in entries for _ in range(copies)]
    path = write_dump(tmp_path_factory.mktemp("dump") / "c.ndjson", entries)
    want_stats = HarvestStats(malformed=sum(isinstance(e, str) for e in entries))
    comments = [e for e in entries if isinstance(e, RawComment)]
    want = oracle_harvest_similes(comments, stats=want_stats)
    few_hashes(monkeypatch, buckets)
    for workers in WORKERS:
        split(run_length, workers)
        stats, keeps[:] = HarvestStats(), []
        rows = harvest_similes(path, stats=stats)
        assert [row.instance() for row in rows] == want
        assert stats == want_stats
        assert keeps or not (copies == 3 and want)
        ranks = {(c.id, c.created_utc) for c in comments}
        assert all((row.source_id, row.created_utc) in ranks for row in rows)
        assert_no_run_text(rows)
        assert_no_child_left()


@given(entries=st.lists(wide_comments, min_size=1, max_size=10),
       run_length=st.integers(1, 4), data=st.data())
@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_copied_split_lines_are_the_bytes_written_alone(tmp_path_factory, split, entries,
                                                        run_length, data):
    """write_similes_jsonl copies the lines of a HarvestRows and of each part of its split
    from harvest's spool; each file is the one its rows give as a list of HarvestedSimile,
    each encoded there.  Three copies of each comment make the dropped rows outnumber the held ones,
    so the columns are cut, and the split may leave one validation row."""
    out = tmp_path_factory.mktemp("out")
    path = write_dump(out / "c.ndjson", [e for e in entries for _ in range(3)])
    split(run_length, data.draw(st.sampled_from(WORKERS)))
    rows = harvest_similes(path)
    if len(rows) < 2:
        return
    ratio = data.draw(st.sampled_from([Fraction(len(rows) - 1, len(rows)), Fraction(1, 2)]))
    result = harvest.split_corpus(rows, ratio, data.draw(st.integers(0, 9)))
    harvest.write_similes_jsonl(rows, out / "similes.jsonl")
    harvest.write_similes_jsonl(result.train, out / "train.jsonl")
    harvest.write_similes_jsonl(result.validation, out / "val.jsonl")
    for name, alone in (("similes", rows), ("train", result.train), ("val", result.validation)):
        harvest.write_similes_jsonl(list(alone), out / f"{name}.alone.jsonl")
        assert (out / f"{name}.jsonl").read_bytes() == (out / f"{name}.alone.jsonl").read_bytes()
    assert harvest.read_similes_jsonl(out / "val.jsonl") == [r.instance() for r in result.validation]


@pytest.mark.parametrize("workers", [1, 2])
def test_writing_harvest_rows_encodes_no_simile(tmp_path, split, monkeypatch, workers):
    """Each simile's line is encoded once, by the worker that parsed it (in-process on
    one CPU): writing the three files only copies lines from the spool."""
    comments = [RawComment(str(i), sentence) for i, sentence in enumerate(WIDE_SENTENCES)]
    split(2, workers)
    rows = harvest_similes(write_dump(tmp_path / "c.ndjson", comments))
    result = harvest.split_corpus(rows, Fraction(1, 2), 3)
    files = [(rows, tmp_path / "s.jsonl"), (result.train, tmp_path / "t.jsonl"),
             (result.validation, tmp_path / "v.jsonl")]
    encode = harvest._simile_line

    def refuse(*args):
        raise AssertionError("a simile was encoded again")

    monkeypatch.setattr(harvest, "_simile_line", refuse)
    for part, path in files:
        harvest.write_similes_jsonl(part, path)
    monkeypatch.setattr(harvest, "_simile_line", encode)
    for part, path in files:
        harvest.write_similes_jsonl(list(part), tmp_path / "alone.jsonl")
        assert path.read_bytes() == (tmp_path / "alone.jsonl").read_bytes()


@pytest.mark.parametrize("workers", WORKERS)
def test_an_earlier_rank_in_a_later_run_replaces_the_held_simile(tmp_path, split, workers):
    path = write_dump(tmp_path / "c.ndjson", [
        RawComment("b", "He ran like a deer.", created_utc=2),
        RawComment("c", "She sang like a bird.", created_utc=1),
        RawComment("a", "he ran, like a deer!", created_utc=1),   # ranked before b's
        RawComment("c", "SHE SANG LIKE A BIRD?", created_utc=1),  # a tie: the first read stays
    ])
    split(2, workers)
    stats = HarvestStats()
    rows = harvest_similes(path, stats=stats)
    assert [(row.source_id, row.raw_text) for row in rows] == [
        ("a", "he ran, like a deer!"), ("c", "She sang like a bird.")]
    assert stats == HarvestStats(duplicates=2)


@pytest.mark.parametrize("buckets", [1, 7])
@pytest.mark.parametrize("workers", WORKERS)
def test_colliding_hashes_drop_no_simile(tmp_path, split, monkeypatch, workers, buckets):
    comments = [RawComment(str(i % 5), f"Thing {i % 13} ran like a deer {i % 17}. "
                                       f"THING {i % 11} RAN LIKE A DEER {i % 17}!",
                           created_utc=i % 3) for i in range(60)]
    path = write_dump(tmp_path / "c.ndjson", comments)
    split(4, workers)
    want_stats = HarvestStats()
    want = harvest_similes(path, stats=want_stats)
    assert len(want) > 50 and want_stats.duplicates > 10
    few_hashes(monkeypatch, buckets)
    stats = HarvestStats()
    assert harvest_similes(path, stats=stats) == want
    assert stats == want_stats
    assert [row.instance() for row in want] == oracle_harvest_similes(comments)


@pytest.mark.parametrize("workers", [2, 3])
def test_a_bad_line_read_in_a_worker_is_counted_not_raised(tmp_path, split, workers):
    entries = [RawComment(str(i), f"Thing {i} ran like a deer.") for i in range(6)]
    entries.insert(3, '{"id": "7", "body": ["It ran like a dog."]}')
    path = write_dump(tmp_path / "c.ndjson", entries)
    split(2, workers)
    stats = HarvestStats()
    rows = harvest_similes(path, stats=stats)
    assert [row.source_id for row in rows] == [str(i) for i in range(6)]
    assert stats == HarvestStats(malformed=1)
    assert_no_child_left()


# ---------------------------------------------------------------------------
# build-corpus and train


SKIPPED = "It hummed like a zamboni."    # a vehicle the table does not know
FAILED = "It talked like a parrot."      # its one property puts a comparator in the source


@pytest.fixture(scope="module")
def edges(toy_world, tmp_path_factory):
    path = tmp_path_factory.mktemp("edges") / "edges.tsv"
    with open(toy_world["edges_path"], encoding="utf-8") as fh:
        path.write_text(fh.read() + "parrot\tloud like an alarm\t1.0\n", encoding="utf-8")
    return str(path)


def similes_file(path, texts):
    path.write_text("".join(json.dumps({"text": t, "source_id": f"s{i}"}) + "\n"
                            for i, t in enumerate(texts)), encoding="utf-8")


def build(tmp_path, edges, similes, name, extra=()):
    out = tmp_path / name
    out.mkdir()
    argv = ["build-corpus", "--in", str(similes), "--knowledge", edges,
            "--out", str(out / "pairs.tsv"), "--audit-out", str(out / "audit.jsonl"), *extra]
    return main(argv), out


def outputs(out):
    """The pair files in out; its manifest names out, so it differs between directories."""
    return {name: (out / name).read_bytes() for name in ("pairs.tsv", "audit.jsonl")}


def counts(printed):
    built, skipped, failed = map(int, re.search(
        r"built (\d+) pairs \((\d+) skipped, (\d+) failed\)", printed).groups())
    return built, skipped, failed


@pytest.mark.parametrize("scorer", ["reference", "uniform"])
@pytest.mark.parametrize("count", [16, 19])
def test_build_corpus_bytes_do_not_depend_on_the_workers(toy_world, edges, tmp_path, split,
                                                          capsys, scorer, count):
    """Skipped and failed similes sit on both sides of the first run boundaries."""
    texts = toy_world["simile_texts"][:count]
    for at, text in ((3, SKIPPED), (4, FAILED), (7, FAILED), (8, SKIPPED)):
        texts.insert(at, text)
    similes = tmp_path / "similes.jsonl"
    similes_file(similes, texts)
    extra = ["--scorer", scorer] if scorer == "uniform" else []
    seen = {}
    for workers in WORKERS:
        split(4, workers)
        rc, out = build(tmp_path, edges, similes, f"w{workers}", extra)
        assert rc == 0
        assert_no_child_left()
        seen[workers] = (outputs(out), counts(capsys.readouterr().out))
    assert seen[2] == seen[1] == seen[3]
    assert seen[1][1] == (len(texts) - 4, 2, 2)


@pytest.mark.parametrize("mask", [False, True])
def test_train_bytes_do_not_depend_on_the_workers(toy_pairs, tmp_path, split, capsys, mask):
    pairs = tmp_path / "pairs.tsv"
    extra = [("He saw a dog.", "He ran like a deer.")] * 3  # the mask skips these sources
    pairs.write_text("".join(f"{p.source}\t{p.target}\n" for p in toy_pairs[:50])
                     + "".join(f"{s}\t{t}\n" for s, t in extra), encoding="utf-8")
    seen = {}
    for workers in WORKERS:
        split(8, workers)
        model = tmp_path / f"model{workers}"
        assert main(["train", "--pairs", str(pairs), "--model-out", str(model), "--seed", "7"]
                    + (["--mask"] if mask else [])) == 0
        assert_no_child_left()
        seen[workers] = ((model / "model.json").read_bytes(), capsys.readouterr().out
                         .replace(str(model), "MODEL"))
    assert seen[2] == seen[1] == seen[3]
    reference = tmp_path / "reference"
    pairs_read = [tuple(line.split("\t")) for line in pairs.read_text(encoding="utf-8")
                  .splitlines()]
    if mask:
        pairs_read = masked_pairs(pairs_read, DEFAULT_TAGGER, {"skipped": 0})
    TemplateNgramModel.train(pairs_read, TrainConfig(seed=7)).save(reference)
    assert seen[1][0] == (reference / "model.json").read_bytes()
    assert "trained on 53 pairs" in seen[1][1]
    assert ("masked training: 3 pairs skipped" in seen[1][1]) == mask


@pytest.mark.parametrize("workers", [2, 3])
def test_a_bad_line_in_a_later_run_fails_as_in_process(toy_world, edges, tmp_path, split,
                                                       capsys, workers):
    similes = tmp_path / "similes.jsonl"
    similes_file(similes, toy_world["simile_texts"][:12])
    with open(similes, "a", encoding="utf-8") as fh:
        fh.write('{"text": "No comparator here."}\n')
    errors = []
    for count in (1, workers):
        split(4, count)
        rc, out = build(tmp_path, edges, similes, f"w{count}", ["--scorer", "uniform"])
        assert rc == 1
        assert list(out.iterdir()) == []
        assert_no_child_left()
        errors.append(capsys.readouterr().err)
    assert errors[0] == errors[1] == f"error: {similes}:13: text does not parse as a simile\n"


def test_a_worker_error_keeps_the_old_outputs(toy_world, edges, tmp_path, split, capsys,
                                              monkeypatch):
    """An error other than ValueError in a later run ends the command before anything is written."""
    similes = tmp_path / "similes.jsonl"
    similes_file(similes, toy_world["simile_texts"][:12])
    last = toy_world["similes"][11].vehicle_phrase()
    lookup = corpus.properties_of_each

    def down_on_the_last(concepts, k, backend):
        if last in concepts:
            raise BackendUnavailable("knowledge backend down")
        return lookup(concepts, k, backend)

    split(4, 2)
    rc, out = build(tmp_path, edges, similes, "out")
    assert rc == 0
    manifest = out / "pairs.tsv.manifest.json"
    before = outputs(out), manifest.read_bytes()
    capsys.readouterr()
    monkeypatch.setattr(corpus, "properties_of_each", down_on_the_last)
    # --k 4 would change the manifest, had the run written one.
    rc = main(["build-corpus", "--in", str(similes), "--knowledge", edges, "--k", "4",
               "--out", str(out / "pairs.tsv"), "--audit-out", str(out / "audit.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err == "error: knowledge backend down\n"
    assert (outputs(out), manifest.read_bytes()) == before
    assert_no_child_left()


KINDS = st.sampled_from(["built", "skipped", "failed"])


@given(kinds=st.lists(KINDS, max_size=14), run_length=st.integers(1, 5),
       workers=st.sampled_from(WORKERS))
@settings(max_examples=40, deadline=None)
def test_every_simile_read_is_built_skipped_or_failed(toy_world, edges, tmp_path_factory,
                                                       kinds, run_length, workers):
    texts = [{"built": toy_world["simile_texts"][i], "skipped": SKIPPED, "failed": FAILED}[kind]
             for i, kind in enumerate(kinds)]
    root = tmp_path_factory.mktemp("identity")
    similes = root / "similes.jsonl"
    similes_file(similes, texts)
    saved = core.RUN_LENGTH, core.usable_cpus  # a function-scoped monkeypatch spans examples
    core.RUN_LENGTH, core.usable_cpus = run_length, lambda: workers
    pairs, printed = root / "pairs.tsv", io.StringIO()
    try:
        with contextlib.redirect_stdout(printed):
            assert main(["build-corpus", "--in", str(similes), "--knowledge", edges,
                         "--scorer", "uniform", "--out", str(pairs)]) == 0
    finally:
        core.RUN_LENGTH, core.usable_cpus = saved
    assert_no_child_left()
    built, skipped, failed = counts(printed.getvalue())
    assert built + skipped + failed == len(texts)
    assert (built, skipped, failed) == tuple(kinds.count(k) for k in ("built", "skipped",
                                                                      "failed"))
    assert pairs.read_text(encoding="utf-8").count("\n") == built


@pytest.fixture()
def tmpdir_env(tmp_path, monkeypatch):
    """TMPDIR, where a spool's file goes, an empty directory of its own."""
    tmp = tmp_path / "tmpdir"
    tmp.mkdir()
    monkeypatch.setenv("TMPDIR", str(tmp))
    monkeypatch.setattr(tempfile, "tempdir", None)  # gettempdir reads TMPDIR again
    return tmp


def open_fds() -> int:
    if not os.path.isdir("/proc/self/fd"):
        pytest.skip("no /proc/self/fd to count open descriptors in")
    return len(os.listdir("/proc/self/fd"))


def fail_on_the_last(name, last):
    """A stand-in for corpus.<name> that raises on the run holding the simile `last`."""
    real = getattr(corpus, name)

    def fail(similes, *args):
        if last in str(similes):
            raise BackendUnavailable(f"{name} failed")
        return real(similes, *args)
    return fail


def write_then_fail(real):
    """A stand-in for write_pair_files whose stream fails after its first run, as a full
    disk would."""
    def write(texts, *paths):
        def first_then_fail():
            yield next(texts)
            raise OSError(28, "No space left on device")
        return real(first_then_fail(), *paths)
    return write


def test_harvest_bytes_do_not_depend_on_os_fork_or_os_pread(tmp_path, split, monkeypatch):
    """On a platform with neither (Windows), the spool is read after a seek, in one
    process; three copies of each comment make the columns cut rows."""
    comments = [RawComment(str(i % 7), sentence, created_utc=i % 3)
                for i, sentence in enumerate(WIDE_SENTENCES * 3)]
    path = write_dump(tmp_path / "c.ndjson", comments)
    split(2, 2)
    seen = []
    for name in ("forked", "alone"):
        if name == "alone":
            monkeypatch.delattr(os, "fork")
            monkeypatch.delattr(os, "pread")
        out = tmp_path / name
        out.mkdir()
        assert main(["harvest", "--comments", str(path), "--similes-out", str(out / "s.jsonl"),
                     "--split", "0.5", "--train-out", str(out / "t.jsonl"),
                     "--val-out", str(out / "v.jsonl"), "--seed", "3"]) == 0
        seen.append({f: (out / f).read_bytes() for f in ("s.jsonl", "t.jsonl", "v.jsonl")})
    assert seen[0] == seen[1]
    assert harvest.read_similes_jsonl(tmp_path / "alone" / "s.jsonl") == oracle_harvest_similes(
        comments)


@pytest.mark.parametrize("scorer", ["reference", "uniform"])
def test_build_corpus_bytes_do_not_depend_on_os_fork_or_os_pread(toy_world, edges, tmp_path,
                                                                  split, capsys, monkeypatch,
                                                                  scorer):
    """On a platform with neither (Windows), the spool is read after a seek, in one process."""
    similes = tmp_path / "similes.jsonl"
    similes_file(similes, toy_world["simile_texts"][:19] + [SKIPPED, FAILED])
    extra = ["--scorer", scorer] if scorer == "uniform" else []
    split(4, 2)
    seen = [build(tmp_path, edges, similes, "forked", extra)]
    monkeypatch.delattr(os, "fork")
    monkeypatch.delattr(os, "pread")
    seen.append(build(tmp_path, edges, similes, "alone", extra))
    assert [rc for rc, _ in seen] == [0, 0]
    assert outputs(seen[0][1]) == outputs(seen[1][1])
    printed = capsys.readouterr().out.splitlines()
    assert printed[0] == printed[1] == "built 19 pairs (1 skipped, 1 failed)"


@pytest.mark.parametrize("fork", [True, False], ids=["forked", "no-fork"])
@pytest.mark.parametrize("failure", ["first fan-out", "second fan-out", "scorer", "writing"])
def test_a_failed_build_leaves_no_file_descriptor_or_worker(toy_world, edges, tmp_path, split,
                                                             capsys, monkeypatch, tmpdir_env,
                                                             failure, fork):
    """Wherever build-corpus fails, it writes nothing to its output directory, leaves
    nothing in TMPDIR and no descriptor open (the spool is closed), and reaps every
    worker."""
    similes = tmp_path / "similes.jsonl"
    similes_file(similes, toy_world["simile_texts"][:12])
    last = toy_world["simile_texts"][11]
    if failure == "first fan-out":
        monkeypatch.setattr(corpus, "properties_of_each",
                            fail_on_the_last("properties_of_each",
                                             toy_world["similes"][11].vehicle_phrase()))
    elif failure == "second fan-out":
        monkeypatch.setattr(corpus, "select_best_literals",
                            fail_on_the_last("select_best_literals", last))
    elif failure == "scorer":
        def no_scorer(texts):
            raise MemoryError("no room for the scorer")
        monkeypatch.setattr(cli, "BigramScorer", no_scorer)
    else:
        monkeypatch.setattr(cli, "write_pair_files", write_then_fail(cli.write_pair_files))
    split(4, 2)
    if not fork:
        monkeypatch.delattr(os, "fork")
    before = open_fds()
    rc, out = build(tmp_path, edges, similes, "out")
    assert rc == 1
    assert capsys.readouterr().err == "error: " + {
        "first fan-out": "properties_of_each failed",
        "second fan-out": "select_best_literals failed",
        "scorer": "no room for the scorer",
        "writing": "[Errno 28] No space left on device"}[failure] + "\n"
    assert list(out.iterdir()) == []
    assert list(tmpdir_env.iterdir()) == []
    assert open_fds() == before
    assert_no_child_left()


def test_a_failed_harvest_closes_its_spool(tmp_path, split, capsys, monkeypatch, tmpdir_env):
    path = write_dump(tmp_path / "c.ndjson", [RawComment(str(i), f"Thing {i} ran like a deer.")
                                              for i in range(9)])
    out = tmp_path / "out"
    out.mkdir()

    def no_room(*args):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli, "write_similes_jsonl", no_room)
    split(2, 2)
    before = open_fds()
    assert main(["harvest", "--comments", str(path), "--similes-out",
                 str(out / "similes.jsonl")]) == 1
    assert capsys.readouterr().err == "error: [Errno 28] No space left on device\n"
    assert list(out.iterdir()) == list(tmpdir_env.iterdir()) == []
    assert open_fds() == before
    assert_no_child_left()
