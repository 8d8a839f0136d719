"""The desk pipeline's output bytes are pinned.

Every command runs through `cli.main` on the toy world: harvest, build-corpus
with the reference scorer, train with and without --mask, generate with all
four systems, evaluate with --train-audit, and embellish.  Each output's
SHA-256 must equal the digest below, recorded with Python 3.11.7, so a speed
change that moves a byte (a perplexity, a ranking, a sampled token) fails
here.  The scorer is trained on lines in which some properties follow
"was" and others do not, so the literal chosen for a simile depends on the
word before its property.  Run manifests are left out: they record argv,
which holds the temporary paths.
"""

import hashlib
import json

from similekit.cli import main
from similekit.core import write_jsonl
from similekit.harvest import read_literals_jsonl
from similekit.story import Story

EXPECTED = {
    "audit.jsonl": "381b240ee01cb613f67a75d88f28f3b591b2c45bf6234579e80d482234c82de7",
    "batch.meta_m.jsonl": "390401d9f5328cd7c3ef97656e5e06079597516717a777ddbe96ce657bb88ebf",
    "batch.prefix.jsonl": "d9b08c2ff5c692f64bc03a1c49b120453c35c058b7c7db196a96f7079e153f73",
    "batch.rtrvl.jsonl": "afd9f4cb1e37d32575bd963903483cfa0bf7e1668fc43b60a4639c895c65e822",
    "batch.scope.jsonl": "d69f0668d1264b95d3e55a3f8eb07e9bbfb01b82042f33a1037d9f5676d77ff8",
    "embellished.jsonl": "303847c748331cc361fed450dddcaeec5f66043468ffea0b88101666dfaf4ba4",
    "literals.jsonl": "500deee06380861f58d0afe13e3e400d3df30e7e6ea53252714ea357e05ad1c7",
    "mask-model/manifest.json": "e2377ff1846958c37c78c545a2d7f4fa06fb37a45d16014205cd058e92783e89",
    "mask-model/model.json": "3d4c580818542964ba9897a045319f629ac543bec41170a1eeb497ca209f6696",
    "model/manifest.json": "e2377ff1846958c37c78c545a2d7f4fa06fb37a45d16014205cd058e92783e89",
    "model/model.json": "6a412af55a54fa532d6052567261b17b9ee72c5e018a47a96873ea416f940f6d",
    "pairs.tsv": "49eef7fe18d80b1b654425e9680b1524c1c81cb6a2a963779c108e9fa955d753",
    "report.json": "730190cbd0854dc0aa2832c6c82389e4075ec6afe0fd26efc37dbbb9040d466d",
    "similes.jsonl": "08c73cec4a1a66df36f06ab2e2dee8ee06ad07b1860507528a0fbaf137132b04",
    "train.jsonl": "d115711db0645dd07a0acaa92364f8f33c6fb4893d4c5a7226ba2365f546e7a8",
    "val.jsonl": "677335237ed012bfbe562ab2a991614201aaf32577e67c25b9c7dcb8bd71ecd8",
}



def run_desk_pipeline(root, toy_world) -> dict:
    """Run every command once under root; return {output name: path}."""
    out = {name: root / name for name in (
        "similes.jsonl", "train.jsonl", "val.jsonl", "literals.jsonl", "pairs.tsv",
        "audit.jsonl", "report.json", "embellished.jsonl")}
    comments = root / "comments.ndjson"
    lines = [json.dumps({"id": f"c{i}", "body": text, "created_utc": i})
             for i, text in enumerate(toy_world["simile_texts"])]
    lines += [json.dumps({"id": "dup", "body": toy_world["simile_texts"][0],
                          "created_utc": 999}), "{malformed"]
    comments.write_text("\n".join(lines) + "\n", encoding="utf-8")
    sentences = root / "sentences.txt"
    sentences.write_text("\n".join(toy_world["holdout"] + ["He saw a dog."]) + "\n",
                         encoding="utf-8")
    assert main(["harvest", "--comments", str(comments), "--similes-out",
                 str(out["similes.jsonl"]), "--split", "0.9", "--train-out",
                 str(out["train.jsonl"]), "--val-out", str(out["val.jsonl"]),
                 "--sentences", str(sentences), "--literals-out", str(out["literals.jsonl"]),
                 "--seed", "5"]) == 0
    scorer_train = root / "scorer.txt"
    scorer_lines = toy_world["simile_texts"] + toy_world["holdout"]
    for props in toy_world["vehicle_props"].values():
        scorer_lines += [f"It was {props[2]}."] * 3 + [f"Very {props[3]}."] * 6
    scorer_train.write_text("\n".join(scorer_lines) + "\n", encoding="utf-8")
    assert main(["build-corpus", "--in", str(out["train.jsonl"]),
                 "--knowledge", toy_world["edges_path"], "--scorer-train", str(scorer_train),
                 "--out", str(out["pairs.tsv"]), "--audit-out", str(out["audit.jsonl"])]) == 0
    for model, extra in (("model", []), ("mask-model", ["--mask"])):
        assert main(["train", "--pairs", str(out["pairs.tsv"]), "--model-out",
                     str(root / model), "--seed", "7"] + extra) == 0
        for name in ("model.json", "manifest.json"):
            out[f"{model}/{name}"] = root / model / name
    for system, flags in (("scope", ["--model", str(root / "model")]),
                          ("prefix", ["--model", str(root / "model")]),
                          ("meta_m", ["--model", str(root / "mask-model")]),
                          ("rtrvl", ["--knowledge", toy_world["edges_path"]])):
        batch = out[f"batch.{system}.jsonl"] = root / f"batch.{system}.jsonl"
        assert main(["generate", "--literals", str(out["literals.jsonl"]), "--system", system,
                     "--seed", "13", "--out", str(batch)] + flags) == 0
    refs = root / "refs.jsonl"
    refs.write_text("".join(
        json.dumps({"literal": rec["text"],
                    "references": [rec["text"][:-1].rsplit(" ", 1)[0] + " like a glacier."]})
        + "\n" for rec in read_literals_jsonl(out["literals.jsonl"])), encoding="utf-8")
    batches = [str(out[f"batch.{s}.jsonl"]) for s in ("scope", "prefix", "meta_m", "rtrvl")]
    assert main(["evaluate", "--generated", *batches, "--refs", str(refs),
                 "--train-audit", str(out["audit.jsonl"]),
                 "--report", str(out["report.json"])]) == 0
    stories = root / "stories.jsonl"
    write_jsonl(map(Story._asdict, [
        Story("Flood", ("river",), ("The rain began at dusk.",
                                    "By midnight the river seemed wild.", "Nobody slept.")),
        Story("Winter", (), ("The road felt slow.", "Her voice felt soft.")),
    ]), stories)
    assert main(["embellish", "--stories", str(stories), "--model", str(root / "model"),
                 "--seed", "3", "--out", str(out["embellished.jsonl"])]) == 0
    return out


def test_desk_pipeline_output_bytes_are_pinned(tmp_path, toy_world):
    out = run_desk_pipeline(tmp_path, toy_world)
    digests = {name: hashlib.sha256(path.read_bytes()).hexdigest()
               for name, path in sorted(out.items())}
    assert digests == EXPECTED
