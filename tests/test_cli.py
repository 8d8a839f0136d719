"""End-to-end command-line runs over a small on-disk world."""

import collections
import contextlib
import errno
import hashlib
import json
import math
import os
import re
import subprocess
import sys
import weakref
from fractions import Fraction
from pathlib import Path

import pytest

from similekit import cli, core
from similekit.backends import BackendUnavailable
from similekit.cli import (
    COMMANDS,
    _parse_bool,
    _parse_pair,
    _parse_positive,
    _parse_ratio,
    _parse_triggers,
    main,
)
from similekit.core import parse_simile, read_lines, read_records, write_jsonl
from similekit.corpus import (
    BuildStats,
    build_parallel_corpus,
    iter_parallel_corpus,
    write_pairs_audit_jsonl,
    write_pairs_tsv,
)
from similekit.evaluation import ScoreSheet
from similekit.harvest import (
    harvest_similes,
    read_literals_jsonl,
    read_similes_jsonl,
    split_corpus,
    write_similes_jsonl,
)
from similekit.knowledge import load_edge_table
from similekit.lm import BigramScorer, TemplateNgramModel, TrainConfig, UniformScorer
from similekit.story import Story

from conftest import assert_no_child_left
from test_eval import write_scoresheet

MANIFEST_KEYS = {"command", "argv", "config_sha256", "inputs", "seeds", "outputs"}


def load_manifest(primary_out):
    path = str(primary_out) + ".manifest.json"
    return json.loads(open(path, encoding="utf-8").read())


def assert_manifest_lists(primary_out, inputs, outputs):
    """The manifest hashes exactly `inputs` and lists exactly `outputs`, which all exist."""
    manifest = load_manifest(primary_out)
    assert manifest["inputs"] == {
        str(p): hashlib.sha256(Path(p).read_bytes()).hexdigest() for p in inputs
    }
    assert manifest["outputs"] == sorted(str(p) for p in outputs)
    assert all(Path(p).exists() for p in manifest["outputs"])


@pytest.fixture(scope="module")
def world(tmp_path_factory, toy_world):
    """Run the whole pipeline once: harvest -> corpus -> train -> generate."""
    root = tmp_path_factory.mktemp("cli")
    paths = {
        "root": root,
        "comments": root / "comments.ndjson",
        "sentences": root / "sentences.txt",
        "similes": root / "similes.jsonl",
        "train_similes": root / "similes.train.jsonl",
        "val_similes": root / "similes.val.jsonl",
        "literals": root / "literals.jsonl",
        "pairs": root / "pairs.tsv",
        "audit": root / "pairs.audit.jsonl",
        "pretrain_pairs": root / "pretrain.tsv",
        "model": root / "model",
        "pretrain_model": root / "pretrain-model",
        "mask_model": root / "mask-model",
        "edges": toy_world["edges_path"],
    }

    lines = []
    for i, text in enumerate(toy_world["simile_texts"][:30]):
        lines.append(json.dumps(
            {"id": f"c{i}", "body": text, "subreddit": "toy", "created_utc": i}
        ))
    lines.append(json.dumps(  # duplicate of the first simile
        {"id": "dup", "body": toy_world["simile_texts"][0], "created_utc": 99}
    ))
    lines.append("{malformed")
    lines.append(json.dumps({"id": "plain", "body": "Nothing here.", "created_utc": 98}))
    paths["comments"].write_text("\n".join(lines) + "\n", encoding="utf-8")

    sentences = toy_world["holdout"][:10] + ["He saw a dog.", "It was as cold as ice."]
    paths["sentences"].write_text("\n".join(sentences) + "\n", encoding="utf-8")

    rc = main([
        "harvest",
        "--comments", str(paths["comments"]), "--similes-out", str(paths["similes"]),
        "--split", "0.9", "--train-out", str(paths["train_similes"]),
        "--val-out", str(paths["val_similes"]),
        "--sentences", str(paths["sentences"]), "--literals-out", str(paths["literals"]),
        "--seed", "5",
    ])
    assert rc == 0

    rc = main([
        "build-corpus",
        "--in", str(paths["train_similes"]), "--knowledge", paths["edges"],
        "--out", str(paths["pairs"]), "--audit-out", str(paths["audit"]),
    ])
    assert rc == 0

    # An identity-trained model stands in for a generic pretrained one.
    with open(paths["pretrain_pairs"], "w", encoding="utf-8") as fh:
        for text in toy_world["simile_texts"]:
            fh.write(f"{text}\t{text}\n")

    for pairs, model_dir, extra in (
        (paths["pairs"], paths["model"], []),
        (paths["pretrain_pairs"], paths["pretrain_model"], []),
        (paths["pairs"], paths["mask_model"], ["--mask"]),
    ):
        rc = main(["train", "--pairs", str(pairs), "--model-out", str(model_dir),
                   "--seed", "7"] + extra)
        assert rc == 0

    batches = {}
    for system, model_dir in (
        ("scope", paths["model"]),
        ("prefix", paths["pretrain_model"]),
        ("meta_m", paths["mask_model"]),
    ):
        out = root / f"batch.{system}.jsonl"
        rc = main(["generate", "--literals", str(paths["literals"]), "--system", system,
                   "--model", str(model_dir), "--seed", "13", "--out", str(out)])
        assert rc == 0
        batches[system] = out

    out = root / "batch.rtrvl.jsonl"
    rc = main(["generate", "--literals", str(paths["literals"]), "--system", "rtrvl",
               "--knowledge", paths["edges"], "--seed", "13", "--out", str(out)])
    assert rc == 0
    batches["rtrvl"] = out

    paths["batches"] = batches
    return paths


def read_jsonl(path):
    return [json.loads(line) for line in open(path, encoding="utf-8") if line.strip()]


@pytest.fixture()
def refs(world, tmp_path):
    path = tmp_path / "refs.jsonl"
    rows = []
    for rec in read_literals_jsonl(world["literals"]):
        stem = rec["text"][:-1].rsplit(" ", 1)[0]
        rows.append({"literal": rec["text"],
                     "references": [f"{stem} like a glacier."]})
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
    return path


@pytest.fixture()
def stories(tmp_path):
    path = tmp_path / "stories.jsonl"
    items = [
        Story("Flood", ("river",), (
            "The rain began at dusk.",
            "By midnight the river seemed wild.",
            "Nobody slept.",
        )),
        Story("Quiet", (), ("He saw a dog.", "They walked home.")),
        Story("Winter", (), ("The road felt slow.",)),
    ]
    write_jsonl(map(Story._asdict, items), path)
    return path


def test_summary_lines(tmp_path, capsys):
    """The harvest and build-corpus lines, whole, on a dump with known counts."""
    lines = [
        json.dumps({"id": "1", "body": "The wall was like a rock.", "created_utc": 1}),
        json.dumps({"id": "2", "body": "The wall was like a rock!", "created_utc": 2}),
        json.dumps({"id": "3", "body": "It moved like a ghost. It moved like a ghost."}),
        json.dumps({"id": "4", "body": "He sang like an angel like a bird."}),
        "{bad",
        json.dumps({"id": "5"}),
        '{"id": "6", "body": "b like a c.", "created_utc": 1e400}',
        "",
        json.dumps({"id": "7", "body": "Nothing here."}),
    ]
    comments, similes = tmp_path / "c.ndjson", tmp_path / "s.jsonl"
    comments.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert main(["harvest", "--comments", str(comments), "--similes-out", str(similes)]) == 0
    assert capsys.readouterr().out == "harvested 3 similes (2 duplicates, 3 malformed records)\n"
    # rock has a property, ghost has none, and bird's literal keeps "like an".
    edges = tmp_path / "edges.tsv"
    edges.write_text("rock\thard\t1.0\nbird\tfree\t1.0\n", encoding="utf-8")
    assert main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                 "--out", str(tmp_path / "p.tsv")]) == 0
    assert capsys.readouterr().out == "built 1 pairs (1 skipped, 1 failed)\n"


def test_a_lone_surrogate_is_carried_by_harvest_and_failed_by_build_corpus(tmp_path, capsys):
    """A body or id holding a JSON-escaped lone surrogate is harvested and written as the
    same escape, and read back as the same string; build-corpus fails the pair whose
    text holds one, with its reason, since a TSV line cannot carry it."""
    comments, similes = tmp_path / "c.ndjson", tmp_path / "s.jsonl"
    comments.write_text('{"id": "1", "body": "The dog ran like a rocket \\ud83d. It was late."}\n'
                        '{"id": "2\\udc00", "body": "She sang like a bird."}\n', encoding="utf-8")
    assert main(["harvest", "--comments", str(comments), "--similes-out", str(similes),
                 "--split", "0.5", "--train-out", str(tmp_path / "t.jsonl"),
                 "--val-out", str(tmp_path / "v.jsonl"), "--seed", "1"]) == 0
    assert capsys.readouterr().out == ("harvested 2 similes (0 duplicates, 0 malformed records)\n"
                                       "split 1 train / 1 validation\n")
    written = similes.read_bytes().decode("utf-8")
    assert "rocket \\ud83d." in written and '"2\\udc00"' in written
    records = list(read_records(similes, lambda rec: rec))
    assert [(rec["text"], rec["source_id"]) for rec in records] == [
        ("The dog ran like a rocket \ud83d.", "1"), ("She sang like a bird.", "2\udc00")]
    split_bytes = (tmp_path / "t.jsonl").read_bytes() + (tmp_path / "v.jsonl").read_bytes()
    assert sorted(split_bytes.splitlines()) == sorted(similes.read_bytes().splitlines())
    edges = tmp_path / "edges.tsv"
    edges.write_text("rocket\tfast\t1.0\nbird\tsweet\t1.0\n", encoding="utf-8")
    assert main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                 "--out", str(tmp_path / "p.tsv"), "--audit-out", str(tmp_path / "a.jsonl")]) == 0
    assert capsys.readouterr().out == "built 1 pairs (0 skipped, 1 failed)\n"
    assert (tmp_path / "p.tsv").read_text(encoding="utf-8") == \
        "She sang sweet.\tShe sang like a bird.\n"
    assert [rec["provenance"] for rec in read_records(tmp_path / "a.jsonl", lambda r: r)] == \
        ["2\udc00"]
    stats = BuildStats()
    list(iter_parallel_corpus(read_similes_jsonl(similes), load_edge_table(edges),
                              UniformScorer(3), stats=stats))
    assert stats.failures == [
        ("1", "pair text holds the lone surrogate '\\ud83d', which a TSV line cannot carry")]


def test_byte_not_utf8_is_a_malformed_comment(tmp_path, capsys):
    """A dump line that is not UTF-8 is counted like any unreadable line; the others are kept."""
    comments, similes = tmp_path / "c.ndjson", tmp_path / "s.jsonl"
    comments.write_bytes(b'{"id": "1", "body": "The wall was like a rock."}\n'
                         b'{"id": "2", "body": "The sea was like a mirror \xff."}\n'
                         b'{"id": "3", "body": "It moved like a ghost."}\n')
    assert main(["harvest", "--comments", str(comments), "--similes-out", str(similes)]) == 0
    assert capsys.readouterr().out == "harvested 2 similes (0 duplicates, 1 malformed records)\n"
    assert [rec["source_id"] for rec in read_jsonl(similes)] == ["1", "3"]


def test_config_file_not_utf8_is_a_collected_error(world, tmp_path, capsys):
    config = tmp_path / "c.ini"
    config.write_bytes(b"[train]\nseed = 1 \xff\n")
    rc = main(["train", "--config", str(config), "--pairs", str(world["pairs"])])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: config file {config}: 'utf-8' codec can't decode byte 0xff in position 17: "
        "invalid start byte\n"
        "error: [train] missing required setting 'model-out'\n"
        "error: [train] missing required setting 'seed'\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ini"]


class TestHarvest:
    def test_outputs_and_counts(self, world, toy_world):
        similes = read_jsonl(world["similes"])
        assert len(similes) == 30
        assert {r["text"] for r in similes} == set(toy_world["simile_texts"][:30])
        train = read_jsonl(world["train_similes"])
        val = read_jsonl(world["val_similes"])
        assert (len(train), len(val)) == (27, 3)

    def test_literals_reject_comparators_and_noun_endings(self, world, toy_world):
        literals = read_literals_jsonl(world["literals"])
        assert [r["text"] for r in literals] == toy_world["holdout"][:10]

    def test_manifest_shape(self, world):
        manifest = load_manifest(world["similes"])
        assert set(manifest) == MANIFEST_KEYS
        assert manifest["command"] == "harvest"
        assert manifest["seeds"] == {"split_seed": 5}
        for digest in manifest["inputs"].values():
            assert len(digest) == 64 and int(digest, 16) >= 0
        assert str(world["train_similes"]) in manifest["outputs"]

    def test_rerun_is_byte_identical(self, world, tmp_path):
        args = [
            "harvest", "--comments", str(world["comments"]),
            "--similes-out", str(tmp_path / "s.jsonl"),
        ]
        assert main(args) == 0
        first = (tmp_path / "s.jsonl").read_bytes()
        first_manifest = (tmp_path / "s.jsonl.manifest.json").read_bytes()
        assert main(args) == 0
        assert (tmp_path / "s.jsonl").read_bytes() == first
        assert (tmp_path / "s.jsonl.manifest.json").read_bytes() == first_manifest

    def test_split_writes_what_the_library_writes(self, world, tmp_path):
        """Written from compact rows, the three files equal the rebuilt instances' files."""
        instances = [row.instance() for row in harvest_similes(world["comments"])]
        split = split_corpus(instances, 0.9, 5)
        for name, similes in (("similes", instances), ("train_similes", split.train),
                              ("val_similes", split.validation)):
            write_similes_jsonl(similes, tmp_path / name)
            assert (tmp_path / name).read_bytes() == world[name].read_bytes()

    def test_failed_run_keeps_previous_outputs(self, tmp_path, capsys):
        """Nothing is written before the split, so a dump with no simile replaces nothing."""
        comments = tmp_path / "c.ndjson"
        comments.write_text(json.dumps({"id": "1", "body": "Nothing here."}) + "\n",
                            encoding="utf-8")
        similes = tmp_path / "s.jsonl"
        similes.write_bytes(b"old\n")
        rc = main(["harvest", "--comments", str(comments), "--similes-out", str(similes),
                   "--split", "0.9", "--train-out", str(tmp_path / "tr.jsonl"),
                   "--val-out", str(tmp_path / "va.jsonl"), "--seed", "1"])
        assert rc == 1
        assert capsys.readouterr().err == "error: no similes to split\n"
        assert similes.read_bytes() == b"old\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["c.ndjson", "s.jsonl"]

    @pytest.mark.parametrize("full", ["s.jsonl", "tr.jsonl", "va.jsonl"])
    def test_a_failed_simile_file_write_replaces_none_of_them(self, world, tmp_path, capsys,
                                                              monkeypatch, full):
        """A disk that fills while any of the three simile files is written leaves all
        three and the manifest as the last run wrote them, and no temporary file, so a
        train and a validation file of two runs never stand side by side."""
        from similekit import harvest

        def argv(comments, seed):
            return ["harvest", "--comments", str(comments),
                    "--similes-out", str(tmp_path / "s.jsonl"), "--split", "0.5",
                    "--train-out", str(tmp_path / "tr.jsonl"),
                    "--val-out", str(tmp_path / "va.jsonl"), "--seed", str(seed)]

        lines = world["comments"].read_bytes().splitlines(keepends=True)
        (tmp_path / "half.ndjson").write_bytes(b"".join(lines[: len(lines) // 2]))
        assert main(argv(tmp_path / "half.ndjson", 1)) == 0
        before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
        assert len(before) == 5  # the dump, the three files and the manifest
        real = harvest.atomic_open

        class Full:
            def write(self, data):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            writelines = write

        @contextlib.contextmanager
        def fills(path, **kwargs):
            with real(path, **kwargs) as fh:
                yield Full() if Path(path).name == full else fh

        monkeypatch.setattr(harvest, "atomic_open", fills)
        assert main(argv(world["comments"], 2)) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before

    @pytest.mark.parametrize("sample", ["0", "-1"])
    def test_sample_below_one_exits_two(self, world, tmp_path, capsys, sample):
        rc = main(["harvest", "--sentences", str(world["sentences"]), "--literals-out",
                   str(tmp_path / "h.jsonl"), "--sample", sample, "--seed", "1"])
        assert rc == 2
        assert f"bad value for 'sample': '{sample}'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_seed_without_split_or_sample_exits_two(self, world, tmp_path, capsys):
        rc = main(["harvest", "--sentences", str(world["sentences"]),
                   "--literals-out", str(tmp_path / "h.jsonl"), "--seed", "99"])
        assert rc == 2
        assert "--seed requires --split or --sample" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_validation_reports_every_error(self, tmp_path, capsys):
        rc = main(["harvest", "--split", "0.9", "--comments", str(tmp_path / "missing.ndjson")])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") >= 3  # missing file, split outputs, seed

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_split_outside_unit_interval_exits_two(self, world, tmp_path, capsys, source):
        outs = {name: tmp_path / f"{name}.jsonl" for name in ("similes", "train", "val")}
        argv = ["harvest", "--comments", str(world["comments"]),
                "--similes-out", str(outs["similes"]), "--train-out", str(outs["train"]),
                "--val-out", str(outs["val"]), "--seed", "5"]
        if source == "flag":
            argv += ["--split", "1.5"]
        else:
            config = tmp_path / "run.ini"
            config.write_text("[harvest]\nsplit = 1.5\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert "split" in capsys.readouterr().err
        assert [p for p in tmp_path.iterdir() if p.suffix != ".ini"] == []

    @pytest.mark.parametrize("ratio, n, train", [
        ("0.55", 100, 55), ("11/20", 100, 55), ("0.28", 25, 7), ("0.9", 30, 27)])
    def test_split_train_size_is_the_exact_ceiling(self, tmp_path, capsys, ratio, n, train):
        """0.55 is read as 11/20: the float 0.55 times 100 is 55.00000000000001."""
        comments = tmp_path / "c.ndjson"
        comments.write_text("".join(json.dumps({"id": str(i), "body": f"Thing {i} ran like a cat."})
                                    + "\n" for i in range(n)), encoding="utf-8")
        assert main(["harvest", "--comments", str(comments),
                     "--similes-out", str(tmp_path / "s.jsonl"), "--split", ratio,
                     "--train-out", str(tmp_path / "t.jsonl"),
                     "--val-out", str(tmp_path / "v.jsonl"), "--seed", "5"]) == 0
        assert f"split {train} train / {n - train} validation" in capsys.readouterr().out
        assert len(read_jsonl(tmp_path / "t.jsonl")) == train

    def test_ratio_text_is_read_exactly(self):
        assert _parse_ratio("0.55") == Fraction(11, 20)
        assert _parse_ratio("82697/87843") == Fraction(82697, 87843)
        assert math.ceil(_parse_ratio("0.28") * 25) == 7

    @pytest.mark.parametrize("ratio", ["nan", "inf", "0", "1", "1/0", "0.5.5", ""])
    def test_a_ratio_that_is_not_between_0_and_1_exits_two(self, world, tmp_path, capsys, ratio):
        argv = ["harvest", "--comments", str(world["comments"]),
                "--similes-out", str(tmp_path / "s.jsonl"), "--split", ratio,
                "--train-out", str(tmp_path / "t.jsonl"), "--val-out", str(tmp_path / "v.jsonl"),
                "--seed", "5"]
        assert main(argv) == 2
        assert "'split'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_manifest_lists_given_paths(self, world):
        assert_manifest_lists(
            world["similes"], [world["comments"], world["sentences"]],
            [world["similes"], world["train_similes"], world["val_similes"], world["literals"]],
        )

    @pytest.mark.parametrize("given, missing", [
        ("train-out", "split"), ("similes-out", "comments"),
        ("literals-out", "sentences"), ("split", "comments"),
    ])
    def test_output_without_its_source_exits_two(self, world, tmp_path, capsys, given, missing):
        """An output that the run would not write is an error, not a false manifest entry."""
        comments = ["--comments", str(world["comments"]),
                    "--similes-out", str(tmp_path / "s.jsonl")]
        sentences = ["--sentences", str(world["sentences"]),
                     "--literals-out", str(tmp_path / "l.jsonl")]
        split = ["--split", "0.9", "--train-out", str(tmp_path / "t.jsonl"),
                 "--val-out", str(tmp_path / "v.jsonl")]
        argv = ["harvest", "--seed", "5"] + {
            "train-out": comments + split[2:],
            "similes-out": sentences + comments[2:],
            "literals-out": comments + sentences[2:],
            "split": sentences + split,
        }[given]
        assert main(argv) == 2
        assert f"--{given} requires --{missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("given, value, missing", [
        ("sample", "3", "sentences"), ("triggers", "like a;like an", "comments"),
    ], ids=["sample-sentences", "triggers-comments"])
    def test_setting_without_its_input_exits_two(self, world, tmp_path, capsys,
                                                 given, value, missing):
        """A setting the run would ignore is an error, not a silent no-op."""
        argv = ["harvest", "--seed", "1", f"--{given}", value] + {
            "sentences": ["--comments", str(world["comments"]),
                          "--similes-out", str(tmp_path / "s.jsonl")],
            "comments": ["--sentences", str(world["sentences"]),
                         "--literals-out", str(tmp_path / "l.jsonl")],
        }[missing]
        assert main(argv) == 2
        assert f"--{given} requires --{missing}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_trigger_outside_comparators_exits_two(self, world, tmp_path, capsys):
        rc = main(["harvest", "--comments", str(world["comments"]),
                   "--similes-out", str(tmp_path / "s.jsonl"), "--triggers", "like a;as a"])
        assert rc == 2
        assert "bad value for 'triggers'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_empty_triggers_exit_two(self, world, tmp_path, capsys, source):
        argv = ["harvest", "--comments", str(world["comments"]),
                "--similes-out", str(tmp_path / "s.jsonl")]
        if source == "flag":
            argv += ["--triggers", ""]
        else:
            config = tmp_path / "run.ini"
            config.write_text("[harvest]\ntriggers =\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        assert "bad value for 'triggers'" in capsys.readouterr().err
        assert [p for p in tmp_path.iterdir() if p.suffix != ".ini"] == []

    def test_sampling_requires_seed(self, world, tmp_path, capsys):
        rc = main(["harvest", "--sentences", str(world["sentences"]),
                   "--literals-out", str(tmp_path / "l.jsonl"), "--sample", "3"])
        assert rc == 2
        assert "seed" in capsys.readouterr().err


class TestBuildCorpus:
    def test_pairs_written(self, world):
        rows = [line.split("\t") for line in
                open(world["pairs"], encoding="utf-8").read().splitlines()]
        assert len(rows) == 27
        for source, target in rows:
            assert parse_simile(target) is not None
            assert parse_simile(source) is None

    def test_audit_carries_provenance(self, world):
        audit = read_jsonl(world["audit"])
        assert set(audit[0]) == {"source", "target", "property_used", "vehicle", "provenance"}
        assert all(rec["provenance"].startswith("c") for rec in audit)

    def test_config_section_matches_flags(self, world, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[corpus]\nin = {world['train_similes']}\nknowledge = {world['edges']}\n"
            f"out = {tmp_path / 'p.tsv'}\naudit-out = {tmp_path / 'a.jsonl'}\n",
            encoding="utf-8",
        )
        assert main(["build-corpus", "--config", str(config)]) == 0
        assert (tmp_path / "p.tsv").read_bytes() == world["pairs"].read_bytes()
        assert (tmp_path / "a.jsonl").read_bytes() == world["audit"].read_bytes()

    def test_manifest_lists_given_paths(self, world):
        assert_manifest_lists(world["pairs"], [world["train_similes"], world["edges"]],
                              [world["pairs"], world["audit"]])

    def test_unknown_config_section_exits_two(self, world, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[build-corpus]\nk = 3\n", encoding="utf-8")
        out = tmp_path / "p.tsv"
        rc = main(["build-corpus", "--config", str(config), "--in", str(world["train_similes"]),
                   "--knowledge", world["edges"], "--out", str(out)])
        assert rc == 2
        assert "unknown section [build-corpus]" in capsys.readouterr().err
        assert not out.exists()

    def test_reads_the_split_harvest_wrote(self, tmp_path):
        """Similes harvested with "like an" go through build-corpus unparsed."""
        bodies = ["The pie was like an oven.", "He was like an owl.", "She ran like a deer."]
        comments = tmp_path / "comments.ndjson"
        comments.write_text("".join(json.dumps({"id": f"c{i}", "body": body}) + "\n"
                                    for i, body in enumerate(bodies)), encoding="utf-8")
        edges = tmp_path / "edges.tsv"
        edges.write_text("oven\thot\t1.0\nowl\twise\t1.0\ndeer\tfast\t1.0\n", encoding="utf-8")
        similes, pairs = tmp_path / "similes.jsonl", tmp_path / "pairs.tsv"
        assert main(["harvest", "--comments", str(comments), "--similes-out", str(similes),
                     "--triggers", "like a;like an"]) == 0
        assert main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                     "--out", str(pairs)]) == 0
        assert pairs.read_text(encoding="utf-8").splitlines() == [
            "The pie was hot.\tThe pie was like an oven.",
            "He was wise.\tHe was like an owl.",
            "She ran fast.\tShe ran like a deer.",
        ]

    def test_runtime_failure_exits_one(self, world, tmp_path, capsys):
        bad = tmp_path / "bad.jsonl"
        bad.write_text(json.dumps({"text": "No comparator here."}) + "\n", encoding="utf-8")
        rc = main(["build-corpus", "--in", str(bad), "--knowledge", world["edges"],
                   "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_uniform_scorer_refuses_scorer_train(self, world, tmp_path, capsys):
        out = tmp_path / "p.tsv"
        rc = main(["build-corpus", "--in", str(world["train_similes"]),
                   "--knowledge", world["edges"], "--scorer", "uniform",
                   "--scorer-train", str(world["sentences"]), "--out", str(out)])
        assert rc == 2
        assert "--scorer uniform does not read --scorer-train" in capsys.readouterr().err
        assert not out.exists()


    @pytest.mark.parametrize("scorer", ["reference", "scorer-train", "uniform"])
    def test_writes_what_the_library_writes(self, world, tmp_path, scorer):
        """Streaming both files in one pass gives the bytes of the list-based API."""
        similes = read_similes_jsonl(world["train_similes"])
        flags = {"reference": [], "uniform": ["--scorer", "uniform"],
                 "scorer-train": ["--scorer-train", str(world["sentences"])]}[scorer]
        model = {"reference": lambda: BigramScorer([sim.raw_text for sim in similes]),
                 "uniform": lambda: UniformScorer(1000),
                 "scorer-train": lambda: BigramScorer(read_lines(world["sentences"]))}[scorer]
        pairs = build_parallel_corpus(similes, load_edge_table(world["edges"]), model(), k=5)
        write_pairs_tsv(pairs, tmp_path / "lib.tsv")
        write_pairs_audit_jsonl(pairs, tmp_path / "lib.jsonl")
        assert main(["build-corpus", "--in", str(world["train_similes"]),
                     "--knowledge", world["edges"], "--out", str(tmp_path / "cli.tsv"),
                     "--audit-out", str(tmp_path / "cli.jsonl")] + flags) == 0
        assert (tmp_path / "cli.tsv").read_bytes() == (tmp_path / "lib.tsv").read_bytes()
        assert (tmp_path / "cli.jsonl").read_bytes() == (tmp_path / "lib.jsonl").read_bytes()
        if scorer == "reference":
            assert (tmp_path / "cli.tsv").read_bytes() == world["pairs"].read_bytes()

    @pytest.mark.parametrize("scorer", ["reference", "uniform"])
    def test_bad_last_line_writes_nothing(self, world, tmp_path, capsys, scorer):
        """The uniform scorer meets the bad line after output has started."""
        similes = tmp_path / "in" / "similes.jsonl"
        similes.parent.mkdir()
        similes.write_bytes(world["train_similes"].read_bytes() + b'{"text": "no simile"}\n')
        line = len(list(read_lines(similes)))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", world["edges"],
                   "--scorer", scorer, "--out", str(out / "pairs.tsv"),
                   "--audit-out", str(out / "audit.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {similes}:{line}: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scorer", ["reference", "scorer-train", "uniform"])
    @pytest.mark.parametrize("bad_line, reason", [
        ('{"text": 7}', "'text' is int, not a string"),
        ('{"text": "He ran as a deer.", "prefix": "He ran", "vehicle": "deer."}',
         "comparator ' as a ' is not one of ('like a', 'like an')"),
    ], ids=["int-text", "bad-comparator"])
    def test_bad_last_line_is_located(self, world, tmp_path, capsys, scorer, bad_line, reason):
        """Each record is checked whole as it is decoded, whatever the scorer."""
        similes = tmp_path / "in" / "similes.jsonl"
        similes.parent.mkdir()
        similes.write_bytes(world["train_similes"].read_bytes() + bad_line.encode() + b"\n")
        line = len(list(read_lines(similes)))
        flags = {"reference": [], "uniform": ["--scorer", "uniform"],
                 "scorer-train": ["--scorer-train", str(world["sentences"])]}[scorer]
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", world["edges"],
                   "--out", str(out / "pairs.tsv"), "--audit-out", str(out / "audit.jsonl")]
                  + flags)
        assert rc == 1
        assert capsys.readouterr().err == f"error: {similes}:{line}: {reason}\n"
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scorer", ["reference", "scorer-train", "uniform"])
    def test_the_first_bad_line_in_file_order_is_reported(self, world, tmp_path, capsys,
                                                          scorer):
        """--in is decoded once, in file order: a bad comparator is reported before a later
        record without a string `text`, which a separate pass for the reference scorer's
        texts once reported first."""
        similes = tmp_path / "in" / "similes.jsonl"
        similes.parent.mkdir()
        similes.write_bytes(world["train_similes"].read_bytes()
                            + b'{"text": "He ran as a deer.", "prefix": "He ran", '
                              b'"vehicle": "deer."}\n{"text": 7}\n')
        line = len(list(read_lines(similes))) - 1
        flags = {"reference": [], "uniform": ["--scorer", "uniform"],
                 "scorer-train": ["--scorer-train", str(world["sentences"])]}[scorer]
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", world["edges"],
                   "--out", str(out / "pairs.tsv")] + flags)
        assert rc == 1
        assert capsys.readouterr().err == (f"error: {similes}:{line}: comparator ' as a ' "
                                           "is not one of ('like a', 'like an')\n")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("scorer", ["reference", "scorer-train", "uniform"])
    def test_the_edge_table_is_freed_before_the_scorer_is_built(self, world, tmp_path,
                                                                 monkeypatch, scorer):
        """The scorer's counts reuse the memory the table took: in one process, nothing
        holds the table once the lookups are spooled, when the bigram scorer counts its
        texts (BigramScorer._tabulate) or the uniform one is built."""
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        tables, alive = [], []
        load = cli.load_edge_table
        monkeypatch.setattr(cli, "load_edge_table", lambda path: (
            tables.append(weakref.ref(table := load(path))), table)[1])
        tabulate = BigramScorer._tabulate
        monkeypatch.setattr(BigramScorer, "_tabulate", lambda *args: (
            alive.append(tables[0]() is not None), tabulate(*args))[1])
        monkeypatch.setattr(cli, "UniformScorer", lambda *args, real=UniformScorer: (
            alive.append(tables[0]() is not None), real(*args))[1])
        flags = {"reference": [], "uniform": ["--scorer", "uniform"],
                 "scorer-train": ["--scorer-train", str(world["sentences"])]}[scorer]
        assert main(["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
                     world["edges"], "--out", str(tmp_path / "p.tsv")] + flags) == 0
        assert len(tables) == 1
        assert alive == [False]

    @pytest.mark.parametrize("scorer", ["reference", "uniform"])
    def test_each_line_of_in_is_decoded_once(self, world, tmp_path, monkeypatch, scorer):
        """In one process, the scorer trains on the spooled texts and the conversion reads
        the spooled lookups: json.loads reads each line of --in once."""
        decoded = collections.Counter()
        loads = json.loads
        monkeypatch.setattr(json, "loads", lambda text, **kw: (decoded.update([text]),
                                                               loads(text, **kw))[1])
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        monkeypatch.setattr(core, "RUN_LENGTH", 8)  # several runs
        flags = ["--scorer", "uniform"] if scorer == "uniform" else []
        assert main(["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
                     world["edges"], "--out", str(tmp_path / "p.tsv")] + flags) == 0
        lines = collections.Counter(world["train_similes"].read_text(encoding="utf-8")
                                    .splitlines(keepends=True))
        assert sum(lines.values()) > 2 * core.RUN_LENGTH
        assert {line: decoded[line] for line in lines} == lines

    @pytest.mark.parametrize("scorer", ["reference", "scorer-train", "uniform"])
    def test_edge_table_is_loaded_before_the_scorer(self, world, tmp_path, monkeypatch, scorer):
        """In one process, the table is loaded, and the temporary objects of its load
        freed, before the scorer reads its first text (or, uniform, is built), so none
        of them lies among the scorer's."""
        monkeypatch.setattr(core, "usable_cpus", lambda: 1)
        calls = []
        load = cli.load_edge_table
        monkeypatch.setattr(cli, "load_edge_table", lambda path: (
            calls.append("load_edge_table"), load(path))[1])

        def read(texts):
            for number, text in enumerate(texts):
                if not number:
                    calls.append("BigramScorer reads")
                yield text

        monkeypatch.setattr(cli, "BigramScorer", lambda texts: BigramScorer(read(texts)))
        monkeypatch.setattr(cli, "UniformScorer", lambda *args: (
            calls.append("UniformScorer"), UniformScorer(*args))[1])
        flags = {"reference": [], "uniform": ["--scorer", "uniform"],
                 "scorer-train": ["--scorer-train", str(world["sentences"])]}[scorer]
        assert main(["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
                     world["edges"], "--out", str(tmp_path / "p.tsv")] + flags) == 0
        scorer_call = "UniformScorer" if scorer == "uniform" else "BigramScorer reads"
        assert calls == ["load_edge_table", scorer_call]

    @pytest.mark.parametrize("scorer", ["reference", "uniform"])
    def test_with_two_cpus_the_parent_never_loads_the_table(self, world, tmp_path, capsys,
                                                             monkeypatch, scorer):
        """With several runs and two usable CPUs, each worker of the first fan-out loads
        the table before its first run: the parent never calls load_edge_table, and a
        bad line in the table is still reported before one in --in."""
        monkeypatch.setattr(core, "usable_cpus", lambda: 2)
        monkeypatch.setattr(core, "RUN_LENGTH", 8)  # several runs
        pids = []
        load = cli.load_edge_table
        monkeypatch.setattr(cli, "load_edge_table", lambda path: (
            pids.append(os.getpid()), load(path))[1])
        flags = ["--scorer", scorer]
        assert main(["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
                     world["edges"], "--out", str(tmp_path / "p.tsv")] + flags) == 0
        assert len(list(read_lines(world["train_similes"]))) > 2 * core.RUN_LENGTH
        similes, edges = tmp_path / "similes.jsonl", tmp_path / "edges.tsv"
        similes.write_bytes(b"not json\n" + world["train_similes"].read_bytes())
        table = Path(world["edges"]).read_bytes()
        edges.write_bytes(table + b"deer\tfast\n")
        line = table.count(b"\n") + 1
        capsys.readouterr()
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                   "--out", str(tmp_path / "q.tsv")] + flags)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {edges}:{line}: ")
        assert pids == []

    @pytest.mark.parametrize("scorer", ["reference", "uniform"])
    def test_a_bad_table_line_is_reported_before_a_bad_simile(self, world, tmp_path, capsys,
                                                              scorer):
        """With a bad line in both --knowledge and --in, the table's is reported: it is
        read first, before the scorer reads the texts of --in."""
        similes, edges = tmp_path / "similes.jsonl", tmp_path / "edges.tsv"
        similes.write_bytes(b"not json\n" + world["train_similes"].read_bytes())
        table = Path(world["edges"]).read_bytes()
        edges.write_bytes(table + b"deer\tfast\n")
        line = table.count(b"\n") + 1
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                   "--scorer", scorer, "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {edges}:{line}: ")
        assert str(similes) not in err
        assert not (tmp_path / "p.tsv").exists()

    def test_the_table_is_checked_when_in_holds_no_simile(self, world, tmp_path, capsys):
        """An --in of blank lines gives no run to look up; the table is loaded all the
        same, so a bad line in it is an error, where the uniform scorer would otherwise
        write empty outputs."""
        similes, edges = tmp_path / "similes.jsonl", tmp_path / "edges.tsv"
        similes.write_text("\n\n", encoding="utf-8")
        table = Path(world["edges"]).read_bytes()
        edges.write_bytes(table + b"deer\tfast\n")
        line = table.count(b"\n") + 1
        rc = main(["build-corpus", "--in", str(similes), "--knowledge", str(edges),
                   "--scorer", "uniform", "--out", str(tmp_path / "p.tsv")])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {edges}:{line}: ")
        assert not (tmp_path / "p.tsv").exists()

    def test_backend_error_exits_one_and_writes_nothing(self, world, tmp_path, capsys,
                                                        monkeypatch):
        def unreachable(concepts, k, backend):
            raise BackendUnavailable("knowledge backend down")

        monkeypatch.setattr("similekit.corpus.properties_of_each", unreachable)
        rc = main(["build-corpus", "--in", str(world["train_similes"]),
                   "--knowledge", world["edges"], "--out", str(tmp_path / "pairs.tsv"),
                   "--audit-out", str(tmp_path / "audit.jsonl")])
        assert rc == 1
        assert capsys.readouterr().err == "error: knowledge backend down\n"
        assert list(tmp_path.iterdir()) == []

    def test_k_below_one_exits_two(self, world, tmp_path, capsys):
        rc = main(["build-corpus", "--in", str(world["train_similes"]),
                   "--knowledge", world["edges"], "--k", "0", "--out", str(tmp_path / "p.tsv")])
        assert rc == 2
        assert "bad value for 'k': '0'" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_uniform_scorer_refuses_k(self, world, tmp_path, capsys):
        argv = ["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
                world["edges"], "--scorer", "uniform", "--out", str(tmp_path / "p.tsv")]
        assert main(argv + ["--k", "1"]) == 2
        assert "--scorer uniform does not read --k" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []
        assert main(argv + ["--k", "5"]) == 0  # the default changes nothing


class TestTrain:
    def test_model_directory_layout(self, world):
        assert (world["model"] / "manifest.json").is_file()
        assert (world["model"] / "model.json").is_file()
        model = TemplateNgramModel.load(world["model"])
        assert model.drop_words == 1
        assert model.train_config["seed"] == 7

    def test_cli_manifest_next_to_model_dir(self, world):
        manifest = load_manifest(world["model"])
        assert manifest["command"] == "train"
        assert manifest["seeds"] == {"seed": 7}

    def test_missing_settings_exit_two(self, capsys):
        rc = main(["train"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") >= 3  # pairs, model-out, seed

    def test_bad_typed_flags_reported_with_missing_settings(self, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[train]\nmask = maybe\n", encoding="utf-8")
        rc = main(["train", "--config", str(config), "--seed", "abc"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("pairs", "model-out", "seed", "mask"):
            assert f"'{name}'" in err

    def test_unknown_flag_reported_with_other_errors(self, capsys):
        rc = main(["train", "--bogus", "1", "--seed", "x"])
        assert rc == 2
        err = capsys.readouterr().err
        for name in ("--bogus", "pairs", "model-out", "seed"):
            assert name in err

    @pytest.mark.parametrize("argv, names", [
        (["--pairs", "x", "--seed"], ("--seed", "model-out")),
        (["--seed", "7", "--config"], ("--config", "pairs", "model-out")),
    ], ids=["seed", "config"])
    def test_flag_without_value_reported_with_other_errors(self, capsys, argv, names):
        assert main(["train"] + argv) == 2
        err = capsys.readouterr().err
        for name in names:
            assert name in err

    def test_manifest_lists_given_paths(self, world):
        assert_manifest_lists(world["model"], [world["pairs"]], [world["model"]])

    @pytest.mark.parametrize("extra", [[], ["--mask"]], ids=["plain", "mask"])
    def test_bad_last_line_writes_nothing(self, world, tmp_path, capsys, extra):
        """The pairs stream into the trainer, so the bad line is met after training began."""
        pairs = tmp_path / "pairs.tsv"
        pairs.write_bytes(world["pairs"].read_bytes() + b"one field only\n")
        line = len(list(read_lines(pairs)))
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["train", "--pairs", str(pairs), "--model-out", str(out / "model"),
                   "--seed", "7"] + extra)
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {pairs}:{line}: ")
        assert list(out.iterdir()) == []

    @pytest.mark.parametrize("lines", [
        "",
        "He saw a dog.\tHe ran like a deer.\nA tree.\tA tree like a tower.\n",
    ], ids=["empty", "all-unmaskable"])
    def test_nothing_to_mask_exits_one(self, tmp_path, capsys, lines):
        pairs = tmp_path / "pairs.tsv"
        pairs.write_text(lines, encoding="utf-8")
        out = tmp_path / "out"
        out.mkdir()
        rc = main(["train", "--pairs", str(pairs), "--model-out", str(out / "model"),
                   "--seed", "7", "--mask"])
        assert rc == 1
        assert capsys.readouterr().err == "error: no sources survive terminal-modifier masking\n"
        assert list(out.iterdir()) == []

    def test_reports_pairs_read_and_skipped(self, world, tmp_path, capsys):
        pairs = len(list(read_lines(world["pairs"])))
        rc = main(["train", "--pairs", str(world["pairs"]), "--model-out",
                   str(tmp_path / "model"), "--seed", "7", "--mask"])
        assert rc == 0
        assert capsys.readouterr().out == (
            "masked training: 0 pairs skipped\n"
            f"trained on {pairs} pairs -> {tmp_path / 'model'}\n")

    def test_config_section_matches_flags(self, world, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            f"[train]\npairs = {world['pairs']}\nmodel-out = {tmp_path / 'm'}\n"
            "seed = 7\nmask = yes\n",
            encoding="utf-8",
        )
        assert main(["train", "--config", str(config)]) == 0
        for name in ("manifest.json", "model.json"):
            assert (tmp_path / "m" / name).read_bytes() == \
                (world["mask_model"] / name).read_bytes()


class TestGenerate:
    def test_batch_schema(self, world):
        for system, path in world["batches"].items():
            records = read_jsonl(path)
            assert len(records) == 10
            for rec in records:
                assert set(rec) == {"literal", "system", "output", "seed"}
                assert rec["system"] == system and rec["seed"] == 13

    def test_scope_outputs_are_similes(self, world):
        records = read_jsonl(world["batches"]["scope"])
        hits = sum(1 for rec in records if "like a" in rec["output"])
        assert hits == len(records)

    def test_prefix_outputs_preserve_context(self, world):
        for rec in read_jsonl(world["batches"]["prefix"]):
            prefix = rec["literal"][:-1].rsplit(" ", 1)[0]
            assert rec["output"].startswith(prefix + " like a")

    def test_retrieval_absent_serialized_as_empty(self, world, tmp_path):
        lits = tmp_path / "lits.jsonl"
        rows = [
            {"property": "cold", "text": "The river seemed cold."},
            {"property": "obscene", "text": "The door was obscene."},
        ]
        lits.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")
        out = tmp_path / "batch.jsonl"
        rc = main(["generate", "--literals", str(lits), "--system", "rtrvl",
                   "--knowledge", world["edges"], "--seed", "1", "--out", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert records[0]["output"] == "The river seemed like a glacier."
        assert records[1]["output"] == ""

    def test_generation_reruns_byte_identical(self, world, tmp_path):
        out = tmp_path / "b.jsonl"
        args = ["generate", "--literals", str(world["literals"]), "--system", "scope",
                "--model", str(world["model"]), "--seed", "21", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_manifest_lists_given_paths(self, world):
        for system, model in (("scope", "model"), ("prefix", "pretrain_model"),
                              ("meta_m", "mask_model")):
            batch = world["batches"][system]
            assert_manifest_lists(batch, [world["literals"], world[model] / "model.json"], [batch])
        batch = world["batches"]["rtrvl"]
        assert_manifest_lists(batch, [world["literals"], world["edges"]], [batch])

    def test_manifest_hashes_every_path_given(self, world, tmp_path):
        literals = tmp_path / "lits.jsonl"
        literals.write_text('{"text": "The door was obscene."}\n', encoding="utf-8")
        synonyms = tmp_path / "synonyms.tsv"
        synonyms.write_text("obscene\tcold\n", encoding="utf-8")
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(literals), "--system", "rtrvl",
                   "--knowledge", world["edges"], "--synonyms", str(synonyms),
                   "--seed", "13", "--out", str(out)])
        assert rc == 0
        # "obscene" misses the edge table; its synonym "cold" hits it.
        assert read_jsonl(out)[0]["output"] == "The door was like a glacier."
        assert_manifest_lists(out, [literals, world["edges"], synonyms], [out])

    @pytest.mark.parametrize("extra", [["--knowledge"], ["--synonyms"],
                                       ["--knowledge", "--synonyms"]],
                             ids=["knowledge", "synonyms", "both"])
    def test_scope_refuses_retrieval_inputs(self, world, tmp_path, capsys, extra):
        synonyms = tmp_path / "synonyms.tsv"
        synonyms.write_text("obscene\tcold\n", encoding="utf-8")
        paths = {"--knowledge": world["edges"], "--synonyms": str(synonyms)}
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(world["literals"]), "--system", "scope",
                   "--model", str(world["model"]), "--seed", "13", "--out", str(out)]
                  + [arg for flag in extra for arg in (flag, paths[flag])])
        assert rc == 2
        err = capsys.readouterr().err
        if "--knowledge" in extra:
            assert "--system scope does not read --knowledge" in err
        else:
            assert "--synonyms requires --knowledge" in err
        assert not out.exists()
        assert not Path(str(out) + ".manifest.json").exists()

    @pytest.mark.parametrize("system", ["scope", "prefix", "meta_m", "rtrvl"])
    def test_each_system_refuses_the_others_input(self, world, tmp_path, capsys, system):
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(world["literals"]), "--system", system,
                   "--model", str(world["model"]), "--knowledge", world["edges"],
                   "--seed", "13", "--out", str(out)])
        assert rc == 2
        ignored = "model" if system == "rtrvl" else "knowledge"
        assert f"--system {system} does not read --{ignored}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("system, name", [
        ("scope", "scope_generate"), ("prefix", "baseline_prefix_forced"),
        ("meta_m", "baseline_metaphor_mask"), ("rtrvl", "baseline_retrieval")])
    def test_system_failure_other_than_stripping_exits_one(self, world, tmp_path, capsys,
                                                           monkeypatch, system, name):
        def broken(*args, **kwargs):
            raise RuntimeError("system crashed")

        monkeypatch.setattr(f"similekit.cli.{name}", broken)
        source = ["--knowledge", world["edges"]] if system == "rtrvl" else \
            ["--model", str(world["model"])]
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(world["literals"]), "--system", system,
                   "--seed", "13", "--out", str(out)] + source)
        assert rc == 1
        assert capsys.readouterr().err == "error: system crashed\n"
        assert not out.exists()

    def test_unstrippable_literal_counted_as_failed(self, world, tmp_path, capsys):
        literals = tmp_path / "lits.jsonl"
        literals.write_text('{"text": "He saw a dog."}\n', encoding="utf-8")
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(literals), "--system", "prefix",
                   "--model", str(world["pretrain_model"]), "--seed", "13", "--out", str(out)])
        assert rc == 0
        assert "(1 inputs failed)" in capsys.readouterr().out
        assert read_jsonl(out)[0]["output"] == ""

    def test_model_dir_without_model_json_exits_two(self, world, tmp_path, capsys):
        model_dir = tmp_path / "model"
        model_dir.mkdir()
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--literals", str(world["literals"]), "--system", "scope",
                   "--model", str(model_dir), "--seed", "13", "--out", str(out)])
        assert rc == 2
        assert str(model_dir / "model.json") in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_config_key_exits_two(self, world, tmp_path, capsys):
        config = tmp_path / "run.ini"
        config.write_text("[generate]\ntop_k = 1\n", encoding="utf-8")
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--config", str(config), "--literals", str(world["literals"]),
                   "--system", "scope", "--model", str(world["model"]), "--seed", "13",
                   "--out", str(out)])
        assert rc == 2
        assert "unknown config key 'top_k'" in capsys.readouterr().err
        assert not out.exists()

    def test_default_section_keys_are_not_checked(self, world, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text("[DEFAULT]\nroot = runs\n\n[generate]\nseed = 13\n",
                          encoding="utf-8")
        out = tmp_path / "b.jsonl"
        rc = main(["generate", "--config", str(config), "--literals", str(world["literals"]),
                   "--system", "scope", "--model", str(world["model"]), "--out", str(out)])
        assert rc == 0
        assert out.read_bytes() == world["batches"]["scope"].read_bytes()

    @pytest.mark.parametrize("bad_line, reason", [
        ('{"property": "hot"}', "missing field 'text'"),
        ("{not json", "Expecting property name enclosed in double quotes"),
    ], ids=["missing-text", "not-json"])
    def test_bad_literal_line_is_located(self, world, tmp_path, capsys, bad_line, reason):
        literals = tmp_path / "literals.jsonl"
        literals.write_text('{"text": "The city was beautiful"}\n\n' + bad_line + "\n",
                            encoding="utf-8")
        out = tmp_path / "batch.jsonl"
        rc = main(["generate", "--literals", str(literals), "--system", "scope",
                   "--model", str(world["model"]), "--seed", "1", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err.startswith(f"error: {literals}:3: {reason}")
        assert not out.exists()

    def test_validation_is_collected(self, capsys):
        rc = main(["generate", "--system", "scope"])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.count("error:") >= 4  # literals, out, seed, model

    def test_config_file_supplies_settings_flags_win(self, world, tmp_path):
        config = tmp_path / "run.ini"
        config.write_text(
            "[generate]\nseed = 9\ntop-k = 1\nmax-new-tokens = 40\n", encoding="utf-8"
        )
        out = tmp_path / "from-config.jsonl"
        rc = main(["generate", "--config", str(config), "--literals", str(world["literals"]),
                   "--system", "scope", "--model", str(world["model"]), "--out", str(out)])
        assert rc == 0
        assert load_manifest(out)["seeds"] == {"seed": 9}
        rc = main(["generate", "--config", str(config), "--literals", str(world["literals"]),
                   "--system", "scope", "--model", str(world["model"]), "--out", str(out),
                   "--seed", "11"])
        assert rc == 0
        assert load_manifest(out)["seeds"] == {"seed": 11}


class TestEvaluate:
    def test_metrics_report(self, world, refs, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        rc = main([
            "evaluate",
            "--generated", str(world["batches"]["scope"]), str(world["batches"]["rtrvl"]),
            "--refs", str(refs), "--train-audit", str(world["audit"]),
            "--report", str(report_path),
        ])
        assert rc == 0
        table = capsys.readouterr().out
        assert "scope" in table and "rtrvl" in table
        payload = json.loads(report_path.read_text())
        for system in ("scope", "rtrvl"):
            metrics = payload["metrics"][system]
            assert set(metrics) == {"bleu1", "bleu2", "embedding_f1", "novelty",
                                    "scored", "blank"}
            assert metrics["scored"] == 10
        manifest = load_manifest(report_path)
        assert manifest["command"] == "evaluate"

    def test_generated_list_from_config_is_comma_separated(self, world, refs, tmp_path):
        batches = [str(world["batches"][system]) for system in ("scope", "rtrvl")]
        from_flags, from_config = tmp_path / "flags.json", tmp_path / "config.json"
        assert main(["evaluate", "--generated", *batches, "--refs", str(refs),
                     "--report", str(from_flags)]) == 0
        config = tmp_path / "run.ini"
        config.write_text(f"[evaluate]\ngenerated = {batches[0]}, {batches[1]}\n"
                          f"refs = {refs}\nreport = {from_config}\n", encoding="utf-8")
        assert main(["evaluate", "--config", str(config)]) == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_scoresheet_means_and_pairwise(self, tmp_path, capsys):
        sheet = ScoreSheet()
        for k in range(10):
            better, worse = (4, 2) if k < 7 else (2, 4)
            sheet.add(f"i{k}", "scope", "r0", "OQ", better)
            sheet.add(f"i{k}", "meta_m", "r0", "OQ", worse)
        csv_path = tmp_path / "scores.csv"
        write_scoresheet(sheet, csv_path)
        rc = main(["evaluate", "--scoresheet", str(csv_path),
                   "--pairwise", "scope,meta_m", "--criterion", "OQ"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "scope/OQ" in out
        assert "win 70.0 / lose 30.0 / tie 0.0" in out

    @pytest.mark.parametrize("pairwise", ["scope", "scope,meta_m,rtrvl", " ,meta_m", "scope,",
                                          "scope,scope", "scope, scope "])
    def test_pairwise_needs_two_distinct_names(self, tmp_path, capsys, pairwise):
        """Anything else is a settings error, reported with the others: nothing runs."""
        csv_path, report = tmp_path / "scores.csv", tmp_path / "report.json"
        csv_path.write_text("item_id,system,rater_id,criterion,score\ni0,scope,r0,OQ,4\n",
                            encoding="utf-8")
        assert main(["evaluate", "--scoresheet", str(csv_path), "--pairwise", pairwise,
                     "--criterion", "Q", "--report", str(report)]) == 2
        captured = capsys.readouterr()
        assert captured.err == (f"error: [evaluate] bad value for 'pairwise': {pairwise!r}\n"
                                "error: [evaluate] 'criterion' must be one of C, R1, R2, OQ, "
                                "got 'Q'\n")
        assert captured.out == ""
        assert not report.exists()

    def test_pairwise_system_the_sheet_never_scores_is_named(self, tmp_path, capsys):
        csv_path = tmp_path / "scores.csv"
        csv_path.write_text("item_id,system,rater_id,criterion,score\ni0,scope,r0,OQ,4\n",
                            encoding="utf-8")
        assert main(["evaluate", "--scoresheet", str(csv_path), "--pairwise", "scope,rtrvl",
                     "--criterion", "OQ"]) == 1
        assert capsys.readouterr().err == (
            "error: system 'rtrvl' has no scores on criterion 'OQ'\n")

    @pytest.mark.parametrize("source", ["flag", "config"])
    def test_unknown_criterion_exits_two(self, tmp_path, capsys, source):
        sheet = ScoreSheet()
        sheet.add("i0", "scope", "r0", "OQ", 4)
        sheet.add("i0", "meta_m", "r0", "OQ", 2)
        csv_path = tmp_path / "scores.csv"
        write_scoresheet(sheet, csv_path)
        report = tmp_path / "report.json"
        argv = ["evaluate", "--scoresheet", str(csv_path), "--pairwise", "scope,meta_m",
                "--report", str(report)]
        if source == "flag":
            argv += ["--criterion", "Q"]
        else:
            config = tmp_path / "run.ini"
            config.write_text("[evaluate]\ncriterion = Q\n", encoding="utf-8")
            argv += ["--config", str(config)]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "criterion" in captured.err
        assert captured.out == ""
        assert not report.exists()

    def test_manifest_lists_given_paths(self, world, refs, tmp_path, capsys):
        """An empty batch file is named on stderr and hashed, but not scored."""
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        scope = world["batches"]["scope"]
        report, alone = tmp_path / "report.json", tmp_path / "alone.json"
        rc = main(["evaluate", "--generated", str(empty), str(scope), "--refs", str(refs),
                   "--train-audit", str(world["audit"]), "--report", str(report)])
        assert rc == 0
        err = capsys.readouterr().err
        assert str(empty) in err and "no rows" in err
        assert_manifest_lists(report, [empty, scope, refs, world["audit"]], [report])
        assert main(["evaluate", "--generated", str(scope), "--refs", str(refs),
                     "--train-audit", str(world["audit"]), "--report", str(alone)]) == 0
        assert report.read_bytes() == alone.read_bytes()

    def test_two_batches_of_one_system_are_refused(self, world, refs, tmp_path, capsys):
        """Only one of them could be scored, so neither is: no report, no manifest."""
        scope, again = world["batches"]["scope"], tmp_path / "again.jsonl"
        again.write_bytes(scope.read_bytes())
        report = tmp_path / "report.json"
        assert main(["evaluate", "--generated", str(scope), str(again), "--refs", str(refs),
                     "--report", str(report)]) == 1
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: {again}: system 'scope' was already scored from {scope}\n")
        assert captured.out == ""
        assert not report.exists() and not Path(f"{report}.manifest.json").exists()

    def test_batch_row_without_literal_is_located(self, refs, tmp_path, capsys):
        batch = tmp_path / "b.jsonl"
        batch.write_text('{"output": "It was like a glacier.", "system": "scope"}\n',
                         encoding="utf-8")
        assert main(["evaluate", "--generated", str(batch), "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == f"error: {batch}:1: missing field 'literal'\n"

    def test_batch_output_not_a_string_is_located(self, refs, tmp_path, capsys):
        batch = tmp_path / "b.jsonl"
        literal = json.loads(refs.read_text(encoding="utf-8").splitlines()[0])["literal"]
        batch.write_text(json.dumps({"literal": literal, "output": 5}) + "\n", encoding="utf-8")
        assert main(["evaluate", "--generated", str(batch), "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == f"error: {batch}:1: 'output' is int, not a string\n"

    def test_batch_literal_missing_from_refs_is_located(self, refs, tmp_path, capsys):
        batch = tmp_path / "b.jsonl"
        literal = json.loads(refs.read_text(encoding="utf-8").splitlines()[0])["literal"]
        batch.write_text("".join(json.dumps({"literal": text, "output": "x"}) + "\n"
                                 for text in (literal, "It was cold.")), encoding="utf-8")
        assert main(["evaluate", "--generated", str(batch), "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == (
            f"error: {batch}:2: literal 'It was cold.' is not in the references\n")

    @pytest.mark.parametrize("bad", ["batch", "refs"])
    def test_literal_not_a_string_is_located(self, refs, tmp_path, capsys, bad):
        batch = tmp_path / "b.jsonl"
        batch.write_text(json.dumps({"literal": "It was cold.", "output": "x"}) + "\n",
                         encoding="utf-8")
        refs.write_text(json.dumps({"literal": "It was cold.", "references": ["y"]}) + "\n",
                        encoding="utf-8")
        path = {"batch": batch, "refs": refs}[bad]
        path.write_text(json.dumps({"literal": 5, "output": "x", "references": ["y"]}) + "\n",
                        encoding="utf-8")
        assert main(["evaluate", "--generated", str(batch), "--refs", str(refs)]) == 1
        assert capsys.readouterr().err == f"error: {path}:1: 'literal' is int, not a string\n"

    def test_bad_scoresheet_row_is_located(self, tmp_path, capsys):
        sheet = tmp_path / "scores.csv"
        sheet.write_text("item_id,system,rater_id,criterion\ni0,A,r0,C\n", encoding="utf-8")
        rc = main(["evaluate", "--scoresheet", str(sheet)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {sheet}:2: missing field 'score'\n"

    def test_generated_requires_refs(self, world, capsys):
        rc = main(["evaluate", "--generated", str(world["batches"]["scope"])])
        assert rc == 2
        assert "refs" in capsys.readouterr().err

    def test_paths_flag_without_value_exits_two(self, capsys):
        assert main(["evaluate", "--generated", "--refs"]) == 2
        err = capsys.readouterr().err
        for name in ("--generated", "--refs"):
            assert f"argument {name}: expected a value" in err


class TestEmbellish:
    def test_single_replacement_and_passthrough(self, world, stories, tmp_path):
        out = tmp_path / "embellished.jsonl"
        rc = main(["embellish", "--stories", str(stories), "--model", str(world["model"]),
                   "--seed", "3", "--out", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert records[0]["replaced_index"] == 1
        assert "like a" in records[0]["sentences"][1]
        assert records[0]["original_sentence"] == "By midnight the river seemed wild."
        assert records[1]["replaced_index"] is None  # nothing qualifies
        assert records[2]["replaced_index"] == 0

    def test_deterministic_output(self, world, stories, tmp_path):
        out = tmp_path / "embellished.jsonl"
        args = ["embellish", "--stories", str(stories), "--model", str(world["model"]),
                "--seed", "3", "--out", str(out)]
        assert main(args) == 0
        first = out.read_bytes()
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_manifest_lists_given_paths(self, world, stories, tmp_path):
        out = tmp_path / "embellished.jsonl"
        assert main(["embellish", "--stories", str(stories), "--model", str(world["model"]),
                     "--seed", "3", "--out", str(out)]) == 0
        assert_manifest_lists(out, [stories, world["model"] / "model.json"], [out])

    def test_generator_crash_exits_one(self, world, stories, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise RuntimeError("decoder crashed")

        monkeypatch.setattr("similekit.cli.scope_generate", broken)
        out = tmp_path / "embellished.jsonl"
        rc = main(["embellish", "--stories", str(stories), "--model", str(world["model"]),
                   "--seed", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == "error: decoder crashed\n"
        assert not out.exists()

    def test_title_not_a_string_is_located(self, world, tmp_path, capsys):
        stories = tmp_path / "stories.jsonl"
        stories.write_text('{"title": ["a"], "sentences": ["The road felt slow."]}\n',
                           encoding="utf-8")
        out = tmp_path / "embellished.jsonl"
        rc = main(["embellish", "--stories", str(stories), "--model", str(world["model"]),
                   "--seed", "3", "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: {stories}:1: 'title' is list, not a string\n"
        assert not out.exists()

    def test_titles_need_models(self, world, tmp_path, capsys):
        titles = tmp_path / "titles.txt"
        titles.write_text("Flood\n", encoding="utf-8")
        rc = main(["embellish", "--titles", str(titles), "--model", str(world["model"]),
                   "--seed", "3", "--out", str(tmp_path / "o.jsonl")])
        assert rc == 2
        assert "storyline-model" in capsys.readouterr().err

    def test_stories_and_titles_together_exit_two(self, world, stories, tmp_path, capsys):
        titles = tmp_path / "titles.txt"
        titles.write_text("Flood\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        rc = main(["embellish", "--stories", str(stories), "--titles", str(titles),
                   "--storyline-model", str(world["model"]), "--story-model", str(world["model"]),
                   "--model", str(world["model"]), "--seed", "1", "--out", str(out)])
        assert rc == 2
        assert "need --stories or --titles, not both" in capsys.readouterr().err
        assert not out.exists()

    def test_title_chain(self, world, tmp_path):
        storyline_dir = tmp_path / "storyline-model"
        story_dir = tmp_path / "story-model"
        TemplateNgramModel.train(
            [("Flood", "Flood river night")], TrainConfig(seed=0)
        ).save(storyline_dir)
        TemplateNgramModel.train(
            [("Flood river night", "Flood river night came. The water felt cold.")],
            TrainConfig(seed=0),
        ).save(story_dir)
        titles = tmp_path / "titles.txt"
        titles.write_text("Flood\n", encoding="utf-8")
        out = tmp_path / "o.jsonl"
        rc = main(["embellish", "--titles", str(titles),
                   "--storyline-model", str(storyline_dir), "--story-model", str(story_dir),
                   "--model", str(world["model"]), "--seed", "3", "--out", str(out)])
        assert rc == 0
        records = read_jsonl(out)
        assert records[0]["title"] == "Flood"
        assert records[0]["sentences"]
        assert_manifest_lists(out, [titles, storyline_dir / "model.json",
                                    story_dir / "model.json", world["model"] / "model.json"],
                              [out])


# ---------------------------------------------------------------------------
# Input digests: a child forked when the run starts hashes the inputs.


@pytest.mark.parametrize("alias", ["same", "dot", "symlink", "model-json"])
def test_an_output_naming_an_input_exits_two(world, tmp_path, capsys, alias):
    """Written over, an input could not be replayed: the manifest would record the
    output's digest for it.  Paths match by the file they name."""
    literals, model = tmp_path / "h.jsonl", tmp_path / "m"
    literals.write_bytes(world["literals"].read_bytes())
    model.mkdir()
    for name in ("manifest.json", "model.json"):
        (model / name).write_bytes((world["model"] / name).read_bytes())
    (tmp_path / "link.jsonl").symlink_to(literals)
    given, out = {
        "same": (literals, literals),
        "dot": (literals, f"{tmp_path}/./h.jsonl"),
        "symlink": (tmp_path / "link.jsonl", literals),
        "model-json": (literals, model / "model.json"),
    }[alias]
    kept = {path: path.read_bytes() for path in (literals, model / "model.json")}
    rc = main(["generate", "--literals", str(given), "--system", "scope", "--model", str(model),
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"[generate] 'out' names an input file: {out}" in err
    assert "missing required setting 'seed'" in err  # collected with the other errors
    assert {path: path.read_bytes() for path in kept} == kept
    assert not Path(f"{out}.manifest.json").exists()


@pytest.mark.parametrize("alias", ["same", "dot", "absolute", "linked-dir"])
def test_two_outputs_naming_one_file_exit_two(world, tmp_path, capsys, monkeypatch, alias):
    """Written twice, a file would hold only the output written last, and the manifest
    would list it once.  Outputs need not exist yet, so paths match by os.path.realpath:
    `./s.jsonl` is `s.jsonl`."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "link").symlink_to(tmp_path)
    train = {"same": "s.jsonl", "dot": "./s.jsonl", "absolute": f"{tmp_path}/s.jsonl",
             "linked-dir": "link/s.jsonl"}[alias]
    rc = main(["harvest", "--comments", str(world["comments"]), "--similes-out", "s.jsonl",
               "--split", "0.5", "--train-out", train, "--val-out", "v.jsonl", "--seed", "1",
               "--sample", "2"])
    assert rc == 2
    err = capsys.readouterr().err
    assert f"[harvest] 'train-out' names the file of 'similes-out': {train}" in err
    assert "--sample requires --sentences" in err  # collected with the other errors
    assert sorted(p.name for p in tmp_path.iterdir()) == ["link"]


def test_every_output_of_a_run_is_its_own_file(world, tmp_path, capsys):
    """Each later output that names an earlier one's file is reported; distinct outputs
    with the same name in different directories are not."""
    (tmp_path / "a").mkdir()
    out, audit = tmp_path / "p.tsv", tmp_path / "a" / "p.tsv"
    argv = ["build-corpus", "--in", str(world["train_similes"]), "--knowledge",
            str(world["edges"]), "--scorer", "uniform", "--out", str(out)]
    assert main([*argv, "--audit-out", f"{tmp_path}/a/../p.tsv"]) == 2
    assert (f"[corpus] 'audit-out' names the file of 'out': {tmp_path}/a/../p.tsv"
            in capsys.readouterr().err)
    assert main([*argv, "--audit-out", str(audit)]) == 0
    manifest = json.loads(Path(f"{out}.manifest.json").read_text(encoding="utf-8"))
    assert manifest["outputs"] == sorted([str(out), str(audit)])


@pytest.mark.parametrize("case", ["output", "input"])
def test_a_path_naming_the_run_manifest_exits_two(world, tmp_path, capsys, case):
    """The manifest is written next to the first output, last: an output there would be
    written over by it, and an input there is the last run's manifest, written over too."""
    if case == "output":
        argv = ["harvest", "--comments", str(world["comments"]), "--similes-out",
                str(tmp_path / "s.jsonl"), "--split", "0.5",
                "--train-out", str(tmp_path / "s.jsonl.manifest.json"),
                "--val-out", str(tmp_path / "v.jsonl"), "--seed", "1"]
        error = (f"[harvest] 'manifest' names the file of 'train-out': "
                 f"{tmp_path}/s.jsonl.manifest.json")
    else:
        literals = tmp_path / "h.jsonl"
        assert main(["harvest", "--sentences", str(world["sentences"]),
                     "--literals-out", str(literals)]) == 0
        argv = ["harvest", "--sentences", f"{literals}.manifest.json",
                "--literals-out", str(literals)]
        error = f"[harvest] 'manifest' names an input file: {literals}.manifest.json"
    before = {p.name: p.read_bytes() for p in tmp_path.iterdir()}
    capsys.readouterr()
    assert main(argv + ["--sample", "0"]) == 2  # another error, reported with it
    err = capsys.readouterr().err
    assert error in err
    assert "bad value for 'sample': '0'" in err
    assert {p.name: p.read_bytes() for p in tmp_path.iterdir()} == before


@pytest.mark.parametrize("command", ["harvest", "train"])
def test_an_output_in_a_missing_directory_exits_two_before_reading(world, tmp_path, capsys,
                                                                   monkeypatch, command):
    """Refused up front, naming the option and its path, not a temporary file after the
    work is done; no input is hashed or read."""
    out = tmp_path / "nodir" / "out"
    argv, name = {
        "harvest": (["harvest", "--sentences", str(world["sentences"]),
                     "--literals-out", str(out)], "literals-out"),
        "train": (["train", "--pairs", str(world["pairs"]), "--model-out", str(out),
                   "--seed", "1"], "model-out"),
    }[command]

    def refuse(*args, **kwargs):
        raise AssertionError("an input was read")

    monkeypatch.setattr(cli, "_sha256_files", refuse)
    monkeypatch.setattr(cli, "read_lines", refuse)
    monkeypatch.setattr(cli, "RecordRuns", refuse)
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == (f"error: [{command}] '{name}' is in a directory that does not "
                            f"exist: {out}\n")
    assert captured.out == ""
    assert list(tmp_path.iterdir()) == []


class FullDisk:
    """A file whose buffered bytes fail to reach the disk when it is closed."""

    def __init__(self, fh):
        self.fh = fh

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, kind, *exc):
        self.fh.close()
        if kind is None:
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


# Each command run twice, on other inputs the second time, so that every output the
# second run writes differs from the first's, and the outputs of a run, the manifest
# included, relative to the run's directory.
COMMIT_RUNS = {
    "harvest": (lambda world, d, n: [
        "harvest", "--comments", d / f"c{n}.ndjson", "--similes-out", d / "s.jsonl",
        "--split", "0.5", "--train-out", d / "tr.jsonl", "--val-out", d / "va.jsonl",
        "--sentences", d / f"l{n}.txt", "--literals-out", d / "h.jsonl", "--seed", n],
        ["s.jsonl", "tr.jsonl", "va.jsonl", "h.jsonl", "s.jsonl.manifest.json"]),
    "build-corpus": (lambda world, d, n: [
        "build-corpus", "--in", world["train_similes" if n == 1 else "similes"],
        "--knowledge", world["edges"], "--scorer", "uniform", "--out", d / "p.tsv",
        "--audit-out", d / "a.jsonl"],
        ["p.tsv", "a.jsonl", "p.tsv.manifest.json"]),
    "train": (lambda world, d, n: [
        "train", "--pairs", world["pairs" if n == 1 else "pretrain_pairs"],
        "--model-out", d / "m", "--seed", n],
        ["m/model.json", "m/manifest.json", "m.manifest.json"]),
    "generate": (lambda world, d, n: [
        "generate", "--literals", world["literals"], "--system", "scope",
        "--model", world["model" if n == 1 else "pretrain_model"], "--seed", n,
        "--out", d / "g.jsonl"],
        ["g.jsonl", "g.jsonl.manifest.json"]),
    "evaluate": (lambda world, d, n: [
        "evaluate", "--generated", world["batches"]["scope" if n == 1 else "meta_m"],
        "--refs", d / "refs.jsonl", "--report", d / "r.json"],
        ["r.json", "r.json.manifest.json"]),
    "embellish": (lambda world, d, n: [
        "embellish", "--stories", d / "stories.jsonl",
        "--model", world["model" if n == 1 else "pretrain_model"], "--seed", n,
        "--out", d / "e.jsonl"],
        ["e.jsonl", "e.jsonl.manifest.json"]),
}


def files_under(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes() for p in root.rglob("*") if p.is_file()}


@pytest.mark.parametrize("command, full", [(command, output)
                                           for command, (_, outputs) in COMMIT_RUNS.items()
                                           for output in outputs])
def test_a_failed_write_of_any_output_replaces_none(world, refs, stories, tmp_path, capsys,
                                                    monkeypatch, command, full):
    """A disk that fills while any output of a run is written, its manifest included,
    leaves every output as the last run wrote it and no temporary file."""
    for name, source in (("c{}.ndjson", "comments"), ("l{}.txt", "sentences")):
        lines = world[source].read_bytes().splitlines(keepends=True)
        (tmp_path / name.format(1)).write_bytes(b"".join(lines[: len(lines) // 2]))
        (tmp_path / name.format(2)).write_bytes(b"".join(lines))
    run, outputs = COMMIT_RUNS[command]

    def argv(n):
        return [str(arg) for arg in run(world, tmp_path, n)]

    assert main(argv(1)) == 0
    before = files_under(tmp_path)
    assert set(outputs) <= before.keys()
    target, real_open = str(tmp_path / full), open

    def fills(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return FullDisk(fh) if path == f"{target}.{os.getpid()}.tmp" else fh

    monkeypatch.setattr(core, "open", fills, raising=False)
    assert main(argv(2)) == 1
    assert "No space left on device" in capsys.readouterr().err
    assert files_under(tmp_path) == before
    if command == "train":  # a failed run removes the model directory it made
        target = str(tmp_path / ("n" + full[1:]))  # n/model.json, n/manifest.json, n.manifest.json
        assert main([str(tmp_path / "n") if arg == str(tmp_path / "m") else arg
                     for arg in argv(2)]) == 1
        assert "No space left on device" in capsys.readouterr().err
        assert not (tmp_path / "n").exists()
        assert files_under(tmp_path) == before
    monkeypatch.undo()
    assert main(argv(2)) == 0  # and written whole, every output is new
    after = files_under(tmp_path)
    assert [name for name in outputs if after[name] == before[name]] == []


def counted_forks(monkeypatch) -> list[int]:
    """The pid of each child os.fork starts from here on, with every run's inputs
    hashed in a forked child however small they are."""
    monkeypatch.setattr(cli, "FORK_HASHING_BYTES", 0)
    forks, fork = [], os.fork

    def counting():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting)
    return forks


def test_the_hashing_child_is_reaped_after_a_refusal(world, tmp_path, capsys, monkeypatch):
    """The command refuses the run after the child is forked: exit 2, no child left."""
    forks = counted_forks(monkeypatch)
    rc = main(["harvest", "--comments", str(world["comments"]),
               "--similes-out", str(tmp_path / "s.jsonl"), "--seed", "3"])
    assert rc == 2
    assert "--seed requires --split or --sample" in capsys.readouterr().err
    assert len(forks) == 1
    assert_no_child_left()


def test_the_hashing_child_is_reaped_after_a_failure(world, tmp_path, capsys, monkeypatch):
    forks = counted_forks(monkeypatch)
    pairs = tmp_path / "pairs.tsv"
    pairs.write_text("He ran fast.\tHe ran like a deer.\nno tab here\n", encoding="utf-8")
    rc = main(["train", "--pairs", str(pairs), "--model-out", str(tmp_path / "m"),
               "--seed", "1"])
    assert rc == 1
    assert f"{pairs}:2" in capsys.readouterr().err
    assert len(forks) == 1
    assert_no_child_left()


def generate_scope(world, tmp_path) -> Path:
    out = tmp_path / "b.jsonl"
    assert main(["generate", "--literals", str(world["literals"]), "--system", "scope",
                 "--model", str(world["model"]), "--seed", "1", "--out", str(out)]) == 0
    return out


def test_the_manifest_digests_come_from_the_hashing_child(world, tmp_path, monkeypatch):
    forks = counted_forks(monkeypatch)
    out = generate_scope(world, tmp_path)
    assert len(forks) == 1
    assert_manifest_lists(out, [world["literals"], world["model"] / "model.json"], [out])


def test_small_inputs_are_hashed_without_a_fork(world, tmp_path, monkeypatch):
    """Up to FORK_HASHING_BYTES the built-in sha256 is faster than a child."""
    forks = counted_forks(monkeypatch)
    total = sum(path.stat().st_size for path in (world["literals"], world["model"] / "model.json"))
    monkeypatch.setattr(cli, "FORK_HASHING_BYTES", total)
    out = generate_scope(world, tmp_path)
    assert forks == []
    assert_manifest_lists(out, [world["literals"], world["model"] / "model.json"], [out])


def test_without_fork_the_manifest_hashes_in_process(world, tmp_path, monkeypatch):
    monkeypatch.setattr(cli, "FORK_HASHING_BYTES", 0)
    monkeypatch.delattr(os, "fork")
    out = generate_scope(world, tmp_path)
    assert_manifest_lists(out, [world["literals"], world["model"] / "model.json"], [out])


def test_a_failed_hashing_child_is_replaced_by_hashing_in_process(world, tmp_path,
                                                                  monkeypatch):
    parent, hash_files = os.getpid(), cli._sha256_files

    def failing_in_the_child(paths, *new):
        if os.getpid() != parent:
            raise OSError("cannot read")
        return hash_files(paths, *new)

    monkeypatch.setattr(cli, "_sha256_files", failing_in_the_child)
    forks = counted_forks(monkeypatch)
    out = generate_scope(world, tmp_path)
    assert len(forks) == 1
    assert_manifest_lists(out, [world["literals"], world["model"] / "model.json"], [out])


def test_module_entry_point_help():
    proc = subprocess.run(
        [sys.executable, "-m", "similekit.cli", "--help"],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0
    for command in ("harvest", "build-corpus", "train", "generate", "evaluate", "embellish"):
        assert command in proc.stdout


SRC = Path(__file__).resolve().parent.parent / "src"

# One run of each command path: argv from the world w, the inputs x and an output directory o.
FRESH_RUNS = {
    "harvest-comments": lambda w, x, o: ["harvest", "--comments", w["comments"],
                                         "--similes-out", o / "similes.jsonl"],
    "harvest-sentences": lambda w, x, o: ["harvest", "--sentences", w["sentences"],
                                          "--literals-out", o / "literals.jsonl"],
    "build-corpus-reference": lambda w, x, o: ["build-corpus", "--in", w["train_similes"],
                                               "--knowledge", w["edges"], "--out", o / "p.tsv"],
    "build-corpus-uniform": lambda w, x, o: ["build-corpus", "--in", w["train_similes"],
                                             "--knowledge", w["edges"], "--scorer", "uniform",
                                             "--out", o / "p.tsv"],
    "train": lambda w, x, o: ["train", "--pairs", w["pairs"], "--model-out", o / "m",
                              "--seed", "1"],
    "train-mask": lambda w, x, o: ["train", "--pairs", w["pairs"], "--model-out", o / "m",
                                   "--seed", "1", "--mask"],
    **{f"generate-{system}": lambda w, x, o, system=system, model=model: [
        "generate", "--literals", w["literals"], "--system", system, "--model", w[model],
        "--seed", "1", "--out", o / "b.jsonl"]
       for system, model in (("scope", "model"), ("prefix", "pretrain_model"),
                             ("meta_m", "mask_model"))},
    "generate-rtrvl": lambda w, x, o: ["generate", "--literals", w["literals"], "--system",
                                       "rtrvl", "--knowledge", w["edges"], "--synonyms",
                                       x["synonyms"], "--seed", "1", "--out", o / "b.jsonl"],
    "evaluate-generated": lambda w, x, o: ["evaluate", "--generated", w["batches"]["scope"],
                                           "--refs", x["refs"], "--train-audit", w["audit"],
                                           "--report", o / "r.json"],
    "evaluate-scoresheet": lambda w, x, o: ["evaluate", "--scoresheet", x["scoresheet"],
                                            "--pairwise", "scope,meta_m", "--criterion", "OQ",
                                            "--report", o / "r.json"],
    "embellish-stories": lambda w, x, o: ["embellish", "--stories", x["stories"], "--model",
                                          w["model"], "--seed", "3", "--out", o / "e.jsonl"],
    "embellish-titles": lambda w, x, o: ["embellish", "--titles", x["titles"],
                                         "--storyline-model", w["model"], "--story-model",
                                         w["model"], "--model", w["model"], "--seed", "3",
                                         "--out", o / "e.jsonl"],
}


@pytest.fixture
def fresh_inputs(refs, stories, tmp_path):
    """The inputs x of FRESH_RUNS."""
    synonyms, scoresheet, titles = (tmp_path / "syn.tsv", tmp_path / "scores.csv",
                                    tmp_path / "titles.txt")
    synonyms.write_text("cold\tchilly\n", encoding="utf-8")
    titles.write_text("Flood\n", encoding="utf-8")
    sheet = ScoreSheet()
    for k, (a, b) in enumerate([(4, 2), (2, 4), (3, 3)]):
        sheet.add(f"i{k}", "scope", "r0", "OQ", a)
        sheet.add(f"i{k}", "meta_m", "r0", "OQ", b)
    write_scoresheet(sheet, scoresheet)
    return {"synonyms": synonyms, "scoresheet": scoresheet, "titles": titles,
            "refs": refs, "stories": stories}


@pytest.mark.parametrize("run", FRESH_RUNS)
def test_command_path_runs_in_a_fresh_interpreter(run, world, fresh_inputs, tmp_path):
    """`python -m similekit.cli` binds every name the path calls.

    The in-process tests share one cli module whose names earlier commands
    already loaded, so only a new interpreter shows a name a command does not load.
    """
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(arg) for arg in FRESH_RUNS[run](world, fresh_inputs, out)]
    proc = subprocess.run([sys.executable, "-m", "similekit.cli", *argv], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(SRC)))
    assert proc.returncode == 0, proc.stderr


def test_readme_flags_are_declared():
    """Every `similekit <command> --flag` in README code blocks is a declared option."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    seen = 0
    for block in re.findall(r"```bash\n(.*?)```", readme, re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            for command, rest in re.findall(r"\bsimilekit (\S+)(.*?)(?=\bsimilekit |$)", line):
                assert command in COMMANDS, command
                declared = {opt.name for opt in COMMANDS[command].options} | {"config"}
                for flag in re.findall(r"(?<!\S)--([\w-]+)", rest):
                    assert flag in declared, f"similekit {command} --{flag}"
                    seen += 1
    assert seen > 30


@pytest.mark.parametrize("command, flag", [("build-corpus", "--uniform-vocab"),
                                           ("train", "--epochs"),
                                           ("train", "--batch-token-budget")])
def test_removed_flags_are_unrecognized(command, flag, capsys):
    """Flags that changed no output are gone; passing one is an error, not a no-op."""
    assert main([command, flag, "3"]) == 2
    assert f"unrecognized arguments: {flag} 3" in capsys.readouterr().err


def test_declared_options_are_in_readme():
    """Every option of every command's table is documented in README.md as --name."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    documented = set(re.findall(r"(?<![\w-])--([a-z][\w-]*)", readme))
    missing = [f"{name} --{opt.name}" for name, command in COMMANDS.items()
               for opt in command.options if opt.name not in documented]
    assert missing == []


REQUIRES = [(name, opt.name, needed) for name, command in COMMANDS.items()
            for opt in command.options for needed in opt.requires]


@pytest.mark.parametrize("command, given, needed", REQUIRES,
                         ids=[f"{c}-{g}-{n}" for c, g, n in REQUIRES])
def test_requires_names_an_unset_option_of_the_command(command, given, needed):
    """A typo in a requires tuple fails here, not at a user's run.

    The needed option has no default and is no switch, or it would always be given.
    """
    options = {opt.name: opt for opt in COMMANDS[command].options}
    assert given != needed and needed in options
    assert options[needed].default is None and options[needed].cast is not _parse_bool


@pytest.mark.parametrize("command, given, needed", REQUIRES,
                         ids=[f"{c}-{g}-{n}" for c, g, n in REQUIRES])
def test_option_without_what_it_requires_exits_two(command, given, needed, tmp_path, capsys):
    """Each requires entry is enforced: nothing runs and nothing is written."""
    opt = next(opt for opt in COMMANDS[command].options if opt.name == given)
    inputs, outputs = tmp_path / "in", tmp_path / "out"
    inputs.mkdir()
    outputs.mkdir()
    if opt.output:
        value = str(outputs / given)
    elif opt.path:
        value = inputs / given
        value.write_text("x\n", encoding="utf-8")
    elif opt.choices:
        value = next(choice for choice in opt.choices if choice != opt.default)
    elif opt.cast is not _parse_bool:
        value = {int: "1", _parse_positive: "1", float: "0.5", _parse_ratio: "0.5",
                 _parse_triggers: "like a", _parse_pair: "a,b"}[opt.cast]
        assert opt.cast(value) != opt.default
    argv = [command, f"--{given}"] + ([] if opt.cast is _parse_bool else [str(value)])
    assert main(argv) == 2
    assert f"--{given} requires --{needed}" in capsys.readouterr().err
    assert list(outputs.iterdir()) == []
    assert [p.name for p in inputs.iterdir()] == ([given] if opt.path else [])


@pytest.mark.parametrize("command", ["generate", "embellish"])
@pytest.mark.parametrize("flag, value, reason", [
    ("top-k", "0", "top_k must be >= 1"),
    ("max-new-tokens", "0", "max_new_tokens must be >= 1"),
    ("temperature", "0", "temperature must be finite and > 0"),
    ("temperature", "-1", "temperature must be finite and > 0"),
    ("temperature", "nan", "temperature must be finite and > 0"),
    ("temperature", "inf", "temperature must be finite and > 0"),
])
def test_bad_decoding_setting_is_collected(world, tmp_path, capsys, command, flag, value,
                                           reason):
    """GenerationConfig's refusal is reported with the other errors: exit 2, nothing written."""
    stories = tmp_path / "stories.jsonl"
    write_jsonl(map(Story._asdict, [Story("Winter", (), ("The road felt slow.",))]), stories)
    inputs = {"generate": ["--literals", str(world["literals"]), "--system", "scope"],
              "embellish": ["--stories", str(stories)]}[command]
    out = tmp_path / "out"
    out.mkdir()
    rc = main([command, *inputs, "--model", str(world["model"]), f"--{flag}", value,
               "--out", str(out / "batch.jsonl")])
    assert rc == 2
    section = {"generate": "generate", "embellish": "story"}[command]
    assert capsys.readouterr().err == (f"error: [{section}] missing required setting 'seed'\n"
                                       f"error: [{section}] {reason}\n")
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["generate", "embellish"])
@pytest.mark.parametrize("settings, errors", [
    ({"top-k": "0", "temperature": "nan"},
     ["top_k must be >= 1; temperature must be finite and > 0"]),
    ({"max-new-tokens": "0", "top-k": "0", "temperature": "inf"},
     ["max_new_tokens must be >= 1; top_k must be >= 1; temperature must be finite and > 0"]),
    # A value that fails its cast does not hide the other refused field.
    ({"top-k": "x", "temperature": "-1"},
     ["bad value for 'top-k': 'x'", "temperature must be finite and > 0"]),
])
def test_every_refused_decoding_setting_is_reported(world, tmp_path, capsys, command, settings,
                                                    errors):
    stories = tmp_path / "stories.jsonl"
    write_jsonl(map(Story._asdict, [Story("Winter", (), ("The road felt slow.",))]), stories)
    inputs = {"generate": ["--literals", str(world["literals"]), "--system", "scope"],
              "embellish": ["--stories", str(stories)]}[command]
    out = tmp_path / "out"
    out.mkdir()
    flags = [arg for flag, value in settings.items() for arg in (f"--{flag}", value)]
    rc = main([command, *inputs, "--model", str(world["model"]), "--seed", "1", *flags,
               "--out", str(out / "batch.jsonl")])
    assert rc == 2
    section = {"generate": "generate", "embellish": "story"}[command]
    assert capsys.readouterr().err == "".join(f"error: [{section}] {e}\n" for e in errors)
    assert list(out.iterdir()) == []


def run_on_damaged_model(tmp_path, capsys, command, damage) -> str:
    """Train a one-pair model, damage(model dir), run command on it: exit 1, no output;
    returns standard error."""
    pairs, model = tmp_path / "pairs.tsv", tmp_path / "model"
    pairs.write_text("The sky was very blue.\tThe sky was like a sapphire.\n", encoding="utf-8")
    assert main(["train", "--pairs", str(pairs), "--model-out", str(model), "--seed", "1"]) == 0
    damage(model)
    literals, stories = tmp_path / "literals.jsonl", tmp_path / "stories.jsonl"
    literals.write_text('{"text": "The sea was very calm."}\n', encoding="utf-8")
    write_jsonl(map(Story._asdict, [Story("Winter", (), ("The road felt slow.",))]), stories)
    inputs = {"generate": ["--literals", str(literals), "--system", "scope"],
              "embellish": ["--stories", str(stories)]}[command]
    capsys.readouterr()
    rc = main([command, *inputs, "--model", str(model), "--seed", "1",
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert not (tmp_path / "out.jsonl").exists()
    return capsys.readouterr().err


@pytest.mark.parametrize("command", ["generate", "embellish"])
def test_damaged_model_is_named(tmp_path, capsys, command):
    """A byte that is not UTF-8 appended to a one-pair model.json: exit 1, the file named."""
    def damage(model):
        with open(model / "model.json", "ab") as fh:
            fh.write(b"\xff")

    assert run_on_damaged_model(tmp_path, capsys, command, damage).startswith(
        f"error: {tmp_path / 'model' / 'model.json'}: 'utf-8' codec can't decode byte 0xff "
        "in position ")


@pytest.mark.parametrize("command", ["generate", "embellish"])
@pytest.mark.parametrize("name, field, value, reason", [
    ("model.json", "drop_words", -1, "drop_words must be an integer >= 0, not -1"),
    ("model.json", "cue_suffixes", [], "cue_suffixes must be an object"),
    ("manifest.json", "version", 3, "unknown model version 3"),
], ids=["drop-words", "cue-suffixes", "version"])
def test_model_with_a_bad_field_is_named(tmp_path, capsys, command, name, field, value,
                                         reason):
    path = tmp_path / "model" / name

    def damage(model):
        obj = json.loads(path.read_text(encoding="utf-8"))
        obj[field] = value
        path.write_text(json.dumps(obj), encoding="utf-8")

    assert run_on_damaged_model(tmp_path, capsys, command, damage) == f"error: {path}: {reason}\n"
