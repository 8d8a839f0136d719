"""Output checks against the ground truth the workload generator knows.

Each check returns (name, ok, detail).  Nothing here imports similekit: the
expected values are recomputed from the generator's own tables, and
Krippendorff's alpha is recomputed in histogram (coincidence-matrix) form
rather than the pairwise form the program uses.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
import os
import re
from collections import Counter, defaultdict
from fractions import Fraction

from workloads import CRITERIA, TOP_K, WORKLOADS, simile_key

TOL = 1e-9


def _jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def _read(path):
    with open(path, "rb") as fh:
        return fh.read()


def _punct(text):
    m = re.search(r"([^\w\s]+)\s*$", text)
    return m.group(1) if m else ""


def alpha_histogram(rows, criterion):
    """Interval alpha from value histograms; exact rational arithmetic."""
    units = defaultdict(list)
    for item, system, _rater, crit, score in rows:
        if crit == criterion:
            units[(item, system)].append(score)
    pairable = [vals for vals in units.values() if len(vals) >= 2]
    n = sum(len(vals) for vals in pairable)
    observed = Fraction(0)
    for vals in pairable:
        hist = Counter(vals)
        within = sum(hist[c] * hist[k] * (c - k) ** 2 for c in hist for k in hist)
        observed += Fraction(within, len(vals) - 1)
    total = Counter(v for vals in pairable for v in vals)
    expected = Fraction(sum(total[c] * total[k] * (c - k) ** 2 for c in total for k in total),
                        n * (n - 1))
    if expected == 0:
        return 1.0
    return float(1 - (observed / n) / expected)


def _pairwise(rows, a, b, criterion):
    means = {}
    for system in (a, b):
        per_item = defaultdict(list)
        for item, sys_, _rater, crit, score in rows:
            if sys_ == system and crit == criterion:
                per_item[item].append(score)
        means[system] = {i: Fraction(sum(v), len(v)) for i, v in per_item.items()}
    wins = sum(1 for i in means[a] if means[a][i] > means[b][i])
    loses = sum(1 for i in means[a] if means[a][i] < means[b][i])
    total = len(means[a])
    return (100.0 * wins / total, 100.0 * loses / total,
            100.0 * (total - wins - loses) / total)


def check_outputs(workload, truth, work, stdouts):
    """All checks for one pass; `stdouts` maps command label -> stdout text."""
    spec = WORKLOADS[workload]
    out = os.path.join(work, "out")
    inp = os.path.join(work, "in")
    results = []

    def check(name, ok, detail=""):
        results.append((name, bool(ok), detail))

    table = truth["table"]

    # Harvest: counts the generator planted, and exactly the planted literals.
    if not spec["direct_similes"]:
        m = re.search(r"harvested (\d+) similes \((\d+) duplicates, (\d+) malformed",
                      stdouts.get("harvest", ""))
        got = tuple(map(int, m.groups())) if m else None
        want = (truth["similes"], truth["duplicates"], truth["malformed"])
        check("harvest.counts", got == want, f"got {got}, want {want}")
        train = _jsonl(os.path.join(out, "train.jsonl"))
        val = _jsonl(os.path.join(out, "val.jsonl"))
        num, den = map(int, spec["split"].split("/"))
        want_train = math.ceil(Fraction(num, den) * truth["similes"])
        check("harvest.split", (len(train), len(val)) == (want_train, truth["similes"] - want_train),
              f"got {len(train)}/{len(val)}")
        similes = train
    else:
        similes = _jsonl(os.path.join(inp, "similes.jsonl"))
    holdout = [rec["text"] for rec in _jsonl(os.path.join(out, "holdout.jsonl"))]
    check("harvest.literals", sorted(holdout) == sorted(truth["literals"]),
          f"kept {len(holdout)}, want {len(truth['literals'])}")

    # Corpus: one pair per simile with a known vehicle, built from the
    # prefix, one of the vehicle's top-k properties and the punctuation.
    audit = _jsonl(os.path.join(out, "pairs_audit.jsonl"))
    expected_targets = [rec["text"] for rec in similes
                        if truth["vehicle_of"][simile_key(rec["text"])] in table]
    check("corpus.pairs_built", [p["target"] for p in audit] == expected_targets,
          f"built {len(audit)}, want {len(expected_targets)}")
    bad = 0
    for pair in audit:
        target = pair["target"]
        vehicle = truth["vehicle_of"][simile_key(target)]
        props = table.get(vehicle, [])[:TOP_K]
        if spec["scorer"] == "uniform":
            props = props[:1]  # every candidate ties; the top-ranked one wins
        prefix = target[: target.lower().index(" like a ")]
        if pair["property_used"] not in props or \
                pair["source"] != prefix + " " + pair["property_used"] + _punct(target):
            bad += 1
    check("corpus.pair_sources", bad == 0, f"{bad} pairs off the prefix+property rule")
    with open(os.path.join(out, "pairs.tsv"), encoding="utf-8") as fh:
        tsv = [line.rstrip("\n").split("\t") for line in fh]
    check("corpus.tsv_matches_audit", tsv == [[p["source"], p["target"]] for p in audit])

    # Generation: one row per literal, in order; rtrvl against the table.
    for system in truth["systems"]:
        rows = _jsonl(os.path.join(out, f"{system}.jsonl"))
        check(f"generate.{system}.rows",
              [r["literal"] for r in rows] == holdout and all(r["system"] == system for r in rows),
              f"{len(rows)} rows")
        if system == "rtrvl":
            wrong = 0
            for r in rows:
                prefix, prop = truth["literals"][r["literal"]]
                concept = truth["best_concept"].get(prop)
                want = "" if concept is None else f"{prefix} like a {concept}."
                wrong += r["output"] != want
            check("generate.rtrvl.best_concept", wrong == 0, f"{wrong} wrong")

    # Evaluation: every metric in [0, 1], every input scored.
    report = json.loads(_read(os.path.join(out, "metrics.json")))["metrics"]
    ok = set(report) == set(truth["systems"])
    for system, metrics in report.items():
        for key in ("bleu1", "bleu2", "embedding_f1", "novelty"):
            value = metrics[key]
            ok = ok and value is not None and 0.0 <= value <= 1.0
        ok = ok and metrics["scored"] == len(holdout)
    check("evaluate.metrics_in_range", ok)

    # Score sheet: pairwise tallies, means and alpha recomputed here.
    with open(os.path.join(inp, "scores.csv"), encoding="utf-8", newline="") as fh:
        rows = [(r["item_id"], r["system"], r["rater_id"], r["criterion"], int(r["score"]))
                for r in csv.DictReader(fh)]
    means = defaultdict(list)
    for _item, system, _rater, crit, score in rows:
        means[f"{system}/{crit}"].append(score)
    wrong = 0
    for a, b in itertools.combinations(truth["systems"], 2):
        for crit in CRITERIA:
            rep = json.loads(_read(os.path.join(out, "sheet", f"{a}-{b}-{crit}.json")))
            got = (rep["pairwise"]["win"], rep["pairwise"]["lose"], rep["pairwise"]["tie"])
            want = _pairwise(rows, a, b, crit)
            wrong += any(abs(g - w) > TOL for g, w in zip(got, want))
            wrong += rep["mean_scores"] != {k: round(sum(v) / len(v), 4) for k, v in means.items()}
    check("scoresheet.pairwise", wrong == 0, f"{wrong} reports differ")
    alphas = json.loads(_read(os.path.join(out, "alpha.json")))
    diffs = {c: abs(alphas[c] - alpha_histogram(rows, c)) for c in CRITERIA}
    check("scoresheet.alpha", all(d <= TOL for d in diffs.values()), f"max diff {max(diffs.values())}")

    # Embellish: at most the chosen modifier-final sentence changes.
    stories = _jsonl(os.path.join(inp, "stories.jsonl"))
    embellished = _jsonl(os.path.join(out, "embellished.jsonl"))
    wrong = len(stories) != len(embellished)
    for story, rec in zip(stories, embellished):
        qualifying = [i for i, s in enumerate(story["sentences"]) if s.endswith(("ous.", "ful.",
                                                                                 "ive.", "able."))]
        idx = rec["replaced_index"]
        changed = [i for i, (a, b) in enumerate(zip(story["sentences"], rec["sentences"])) if a != b]
        if qualifying:
            wrong += idx not in qualifying or changed != [idx] \
                or rec["original_sentence"] != story["sentences"][idx]
        else:
            wrong += idx is not None or changed != []
    check("embellish.replacements", wrong == 0, f"{wrong} stories off")

    # Remote: the same pairs and outputs as the in-process reference run.
    if spec["remote"]:
        ref = os.path.join(work, "ref")
        names = ["pairs.tsv", "pairs_audit.jsonl"] + [f"{s}.jsonl" for s in truth["systems"]]
        differ = [n for n in names if _read(os.path.join(out, n)) != _read(os.path.join(ref, n))]
        check("remote.matches_in_process", not differ, f"differ: {differ}")
    return results
