"""End-to-end command-line runs over a small on-disk world."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

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
from similekit.core import parse_simile, read_lines, write_jsonl
from similekit.corpus import build_parallel_corpus, write_pairs_audit_jsonl, write_pairs_tsv
from similekit.evaluation import ScoreSheet
from similekit.harvest import (
    harvest_similes,
    iter_comments,
    read_literals_jsonl,
    read_similes_jsonl,
    split_corpus,
    write_similes_jsonl,
)
from similekit.knowledge import load_edge_table
from similekit.lm import BigramScorer, TemplateNgramModel, TrainConfig, UniformScorer
from similekit.story import Story

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
        instances = [row.instance()
                     for row in harvest_similes(iter_comments(world["comments"]))]
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
        """The scorer pass reads only `text`; the conversion pass checks the whole record."""
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


@pytest.mark.parametrize("run", FRESH_RUNS)
def test_command_path_runs_in_a_fresh_interpreter(run, world, refs, stories, tmp_path):
    """`python -m similekit.cli` binds every name the path calls.

    The in-process tests share one cli module whose names earlier commands
    already loaded, so only a new interpreter shows a name a command does not load.
    """
    synonyms, scoresheet, titles = (tmp_path / "syn.tsv", tmp_path / "scores.csv",
                                    tmp_path / "titles.txt")
    synonyms.write_text("cold\tchilly\n", encoding="utf-8")
    titles.write_text("Flood\n", encoding="utf-8")
    sheet = ScoreSheet()
    for k, (a, b) in enumerate([(4, 2), (2, 4), (3, 3)]):
        sheet.add(f"i{k}", "scope", "r0", "OQ", a)
        sheet.add(f"i{k}", "meta_m", "r0", "OQ", b)
    write_scoresheet(sheet, scoresheet)
    inputs = {"synonyms": synonyms, "scoresheet": scoresheet, "titles": titles,
              "refs": refs, "stories": stories}
    out = tmp_path / "out"
    out.mkdir()
    argv = [str(arg) for arg in FRESH_RUNS[run](world, inputs, out)]
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


@pytest.mark.parametrize("command", ["generate", "embellish"])
def test_damaged_model_is_named(tmp_path, capsys, command):
    """A byte that is not UTF-8 appended to a one-pair model.json: exit 1, the file named."""
    pairs, model = tmp_path / "pairs.tsv", tmp_path / "model"
    pairs.write_text("The sky was very blue.\tThe sky was like a sapphire.\n", encoding="utf-8")
    assert main(["train", "--pairs", str(pairs), "--model-out", str(model), "--seed", "1"]) == 0
    with open(model / "model.json", "ab") as fh:
        fh.write(b"\xff")
    literals, stories = tmp_path / "literals.jsonl", tmp_path / "stories.jsonl"
    literals.write_text('{"text": "The sea was very calm."}\n', encoding="utf-8")
    write_jsonl(map(Story._asdict, [Story("Winter", (), ("The road felt slow.",))]), stories)
    inputs = {"generate": ["--literals", str(literals), "--system", "scope"],
              "embellish": ["--stories", str(stories)]}[command]
    capsys.readouterr()
    rc = main([command, *inputs, "--model", str(model), "--seed", "1",
               "--out", str(tmp_path / "out.jsonl")])
    assert rc == 1
    assert capsys.readouterr().err.startswith(
        f"error: {model / 'model.json'}: 'utf-8' codec can't decode byte 0xff in position ")
    assert not (tmp_path / "out.jsonl").exists()
