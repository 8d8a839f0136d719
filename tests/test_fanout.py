"""core.fan_out and the commands that split their input over worker processes.

Each test sets core.RUN_LENGTH small and core.usable_cpus to a worker count,
so a few dozen records make several runs and every worker gets some.
"""

import contextlib
import io
import json
import os
import pickle
import re
import signal
import time

import pytest
from hypothesis import given, settings, strategies as st

from similekit import core, corpus
from similekit.backends import BackendUnavailable
from similekit.cli import main
from similekit.core import ParseError, fan_out, read_records
from similekit.lm import TemplateNgramModel, TrainConfig
from similekit.systems import masked_pairs
from similekit.tagging import DEFAULT_TAGGER

from conftest import assert_no_child_left

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
    results = list(fan_out(path, lambda rec: rec, numbers))
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
        for ids in fan_out(path, lambda rec: rec["i"], list):
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
        list(fan_out(path, lambda rec: rec, work))
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
        list(fan_out(path, lambda rec: rec, work))
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
        list(fan_out(path, lambda rec: rec, numbers))
    assert forked == [True]
    assert_no_child_left()


def test_closing_early_reaps_every_worker(tmp_path, split):
    path = tmp_path / "records.jsonl"
    write_records(path, 40)
    split(2, 3)
    results = fan_out(path, lambda rec: rec, lambda records: time.sleep(0.01))
    next(results)
    results.close()
    assert_no_child_left()


def test_a_result_that_cannot_be_pickled_is_an_error(tmp_path, split):
    path = tmp_path / "records.jsonl"
    write_records(path, 6)
    split(2, 2)
    with pytest.raises(RuntimeError, match="PicklingError|AttributeError|TypeError"):
        list(fan_out(path, lambda rec: rec, lambda records: lambda: None))
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
    results = list(fan_out(path, lambda rec: rec, numbers))
    assert [ids for ids, _ in results] == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]
    assert {pid for _, pid in results} == {os.getpid()}


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
