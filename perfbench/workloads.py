"""Seeded input generators for the three benchmark workloads.

Everything here is a pure function of (workload, seed): the same seed writes
byte-identical input files.  The generator also returns the ground truth the
output checks need (which vehicle each simile uses, the edge table, which
crawl lines must survive), so checks never have to trust the program under
test.  It imports nothing from similekit.
"""

from __future__ import annotations

import itertools
import json
import os
import random
import sys

# Sizes per workload.  `why` is the one-line reason the workload exists; the
# same text is in BENCHMARK.json.
WORKLOADS = {
    "paper-pipeline": {
        "why": "paper scale: 87,843 similes, 2k concepts, 2k literals, 4 systems; "
               "harvest, corpus build (scorer) and training dominate",
        "similes": 87843, "split": "82697/87843", "direct_similes": False,
        "duplicate_share": 0.05, "filler_comments": 4000, "malformed": 800,
        "concepts": 2000, "properties": 1500, "missing_vehicle_share": 0.08,
        "literals": 2000, "crawl_rejects": 600, "long_literal_share": 0.0,
        "unknown_property_share": 0.05, "systems": ("scope", "prefix", "meta_m", "rtrvl"),
        "sheet_items": 150, "stories": 200, "scorer": "reference", "remote": False,
    },
    "decode-eval": {
        "why": "8k similes written directly on the same 2k concepts, 1k literals (5% over "
               "the 32-token budget) through 4 systems, evaluate, embellish; scorer bypassed",
        "similes": 8000, "split": None, "direct_similes": True,
        "duplicate_share": 0.0, "filler_comments": 0, "malformed": 0,
        "concepts": 2000, "properties": 1500, "missing_vehicle_share": 0.08,
        "literals": 1000, "crawl_rejects": 400, "long_literal_share": 0.05,
        "unknown_property_share": 0.05, "systems": ("scope", "prefix", "meta_m", "rtrvl"),
        "sheet_items": 120, "stories": 400, "scorer": "uniform", "remote": False,
    },
    "remote-backend": {
        "why": "7 similes, 5 literals; corpus build and decoding go through the "
               "one-process-per-request remote adapters to a stdlib worker",
        "similes": 7, "split": "82697/87843", "direct_similes": False,
        "duplicate_share": 0.2, "filler_comments": 4, "malformed": 2,
        "concepts": 7, "properties": 20, "missing_vehicle_share": 0.0,
        "literals": 5, "crawl_rejects": 4, "long_literal_share": 0.0,
        "unknown_property_share": 0.0, "systems": ("scope", "prefix", "meta_m"),
        "sheet_items": 40, "stories": 12, "scorer": "reference", "remote": True,
    },
}

CRITERIA = ("C", "R1", "R2", "OQ")
RATERS = ("r1", "r2", "r3")
TOP_K = 5

_SYLLABLES = [c + v for c in "bdfgkmnprstvz" for v in "aeiou"]
# Endings chosen so the lexicon tagger reads the word as a noun (no -ly,
# -al, -ic, -ish, ... suffix) or as an adjective (-ous, -ful, -ive, -able).
_NOUN_ENDINGS = ("n", "r", "t", "m", "k", "nd", "rt")
_ADJ_ENDINGS = ("ous", "ful", "ive", "able")
# Closed-class words the syllable generator can spell.
_TAGGER_WORDS = frozenset({"never"})
_DETERMINERS = ("The", "My", "Her", "His", "Their", "Our", "This", "That")
_SIMILE_VERBS = ("was", "ran", "moved", "looked", "sounded", "felt", "fought", "slept",
                 "sang", "shone", "stood", "fell", "went", "worked", "grew")
_LITERAL_VERBS = ("was", "seemed", "felt", "looked", "sounded", "became", "grew", "stayed")
_PUNCT = (".", ".", ".", "!", "?", "!!")


def _make_words(rng, n, endings, taken, syllables=(2, 3)):
    out = []
    while len(out) < n:
        word = "".join(rng.choice(_SYLLABLES) for _ in range(rng.randint(*syllables)))
        word += rng.choice(endings)
        if word not in taken and word not in _TAGGER_WORDS:
            taken.add(word)
            out.append(word)
    return out


def _zipf_weights(n):
    """Cumulative rank-frequency weights, p(rank r) proportional to 1/r."""
    return list(itertools.accumulate(1.0 / (r + 1) for r in range(n)))


def generate(workload: str, seed: int, inputs_dir: str) -> dict:
    """Write the workload's input files under inputs_dir; return ground truth."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}|{seed}")
    taken: set[str] = set()
    nouns = _make_words(rng, max(600, spec["similes"] // 10), _NOUN_ENDINGS, taken)
    concepts = _make_words(rng, spec["concepts"], _NOUN_ENDINGS, taken)
    missing = _make_words(rng, max(4, spec["concepts"] // 10), _NOUN_ENDINGS, taken)
    properties = _make_words(rng, spec["properties"], _ADJ_ENDINGS, taken)
    unknown_props = _make_words(rng, max(4, spec["properties"] // 20), _ADJ_ENDINGS, taken)
    noun_cum = _zipf_weights(len(nouns))
    concept_cum = _zipf_weights(len(concepts))
    random_ = rng.random

    def pick(seq):
        return seq[int(random_() * len(seq))]

    def between(lo, hi):
        return lo + int(random_() * (hi - lo + 1))

    # Nouns are drawn in bulk and consumed in order: one rng.choices call
    # per few hundred thousand words instead of one per sentence.
    stream: list[str] = []
    position = 0

    def take(n):
        nonlocal stream, position
        if position + n > len(stream):
            stream = stream[position:] + rng.choices(nouns, cum_weights=noun_cum, k=1 << 18)
            position = 0
        position += n
        return stream[position - n:position]

    def noun():
        return take(1)[0]

    # Edge table: every concept gets TOP_K distinct properties with distinct
    # weights; the generator keeps the ranking it expects back.
    table: dict[str, list[tuple[str, float]]] = {}
    edge_lines = []
    for concept in concepts:
        props = rng.sample(properties, TOP_K)
        weights = sorted({round(rng.uniform(0.5, 10.0), 4) for _ in range(TOP_K * 2)},
                         reverse=True)[:TOP_K]
        while len(weights) < TOP_K:
            weights.append(weights[-1] / 2)
        ranked = sorted(zip(props, weights), key=lambda pw: (-pw[1], pw[0]))
        table[concept] = ranked
        for prop, weight in ranked:
            edge_lines.append(f"{concept}\t{prop}\t{weight}\n")
    rng.shuffle(edge_lines)
    best_concept: dict[str, tuple[float, str]] = {}
    for concept, ranked in table.items():
        for prop, weight in ranked:
            cur = best_concept.get(prop)
            if cur is None or (-weight, concept) < (-cur[0], cur[1]):
                best_concept[prop] = (weight, concept)

    def subject(n_min=2, n_max=8):
        return [pick(_DETERMINERS)] + take(between(n_min, n_max) - 1)

    # Unique similes: prefix words + "like a" + vehicle.
    similes = []  # (text, vehicle)
    seen = set()
    known = iter(())
    while len(similes) < spec["similes"]:
        if random_() < spec["missing_vehicle_share"]:
            vehicle = pick(missing)
        else:
            vehicle = next(known, None)
            if vehicle is None:
                known = iter(rng.choices(concepts, cum_weights=concept_cum, k=1 << 16))
                vehicle = next(known)
        body = " ".join(subject() + [pick(_SIMILE_VERBS)]) + " like a " + vehicle
        key = body.lower()
        if key in seen:
            continue
        seen.add(key)
        similes.append((body + pick(_PUNCT), vehicle))
    vehicle_of = {simile_key(text): vehicle for text, vehicle in similes}

    os.makedirs(inputs_dir, exist_ok=True)

    def path(name):
        return os.path.join(inputs_dir, name)

    def filler():
        words = subject(2, 6) + [pick(("saw", "took", "found", "left")), "the", noun()]
        return " ".join(words) + "."

    duplicates = 0
    malformed = 0
    if spec["direct_similes"]:
        with open(path("similes.jsonl"), "w", encoding="utf-8") as fh:
            for i, (text, _vehicle) in enumerate(similes):
                fh.write(json.dumps({"text": text, "source_id": f"s{i:06d}"},
                                    sort_keys=True) + "\n")
    else:
        records = []
        for i, (text, _vehicle) in enumerate(similes):
            sentences = [filler() for _ in range(between(0, 2))]
            sentences.insert(between(0, len(sentences)), text)
            records.append(" ".join(sentences))
        n_dup = round(spec["duplicate_share"] * spec["similes"])
        for _ in range(n_dup):
            text, _vehicle = rng.choice(similes)
            variant = text.upper() if rng.random() < 0.5 else text.rstrip(".!?") + "!"
            records.append(variant + " " + filler())
            duplicates += 1
        for _ in range(spec["filler_comments"]):
            records.append(" ".join(filler() for _ in range(between(1, 3))))
        lines = []
        for i, body in enumerate(records):
            rec = {"id": f"c{i:07d}", "body": body, "subreddit": pick(("a", "b", "c")),
                   "created_utc": 1_500_000_000 + int(random_() * 100_000_000)}
            lines.append(json.dumps(rec, ensure_ascii=False) + "\n")
        bad = ('{"id": "x", "body": ', '{"body": "no id like a thing."}\n',
               '{"id": "y", "body": "", "created_utc": 1}\n',
               '{"id": "z", "body": "It ran like a dog.", "created_utc": "soon"}\n')
        for i in range(spec["malformed"]):
            choice = bad[i % len(bad)]
            lines.append(choice if choice.endswith("\n") else choice + "\n")
            malformed += 1
        rng.shuffle(lines)
        with open(path("comments.ndjson"), "w", encoding="utf-8") as fh:
            fh.writelines(lines)

    # Crawl: modifier-final literals the harvest keeps, plus lines it must
    # reject (a comparator token, or a noun in final position).
    literals = []  # (text, prefix, property)
    lit_seen = set()
    n_long = round(spec["long_literal_share"] * spec["literals"])
    while len(literals) < spec["literals"]:
        if rng.random() < spec["unknown_property_share"]:
            prop = rng.choice(unknown_props)
        else:
            prop = rng.choice(properties)
        long = len(literals) < n_long
        words = subject(34, 40) if long else subject(2, 6)
        prefix = " ".join(words + [rng.choice(_LITERAL_VERBS)])
        text = prefix + " " + prop + "."
        if text in lit_seen:
            continue
        lit_seen.add(text)
        literals.append((text, prefix, prop))
    crawl = [text for text, _, _ in literals]
    for i in range(spec["crawl_rejects"]):
        if i % 2:
            crawl.append(" ".join(subject(2, 5)) + " was as " + rng.choice(properties)
                         + " as the " + noun() + ".")
        else:
            crawl.append(filler())
    order = list(range(len(crawl)))
    rng.shuffle(order)
    with open(path("crawl.txt"), "w", encoding="utf-8") as fh:
        fh.writelines(crawl[i] + "\n" for i in order)

    with open(path("edges.tsv"), "w", encoding="utf-8") as fh:
        fh.writelines(edge_lines)

    holders: dict[str, list[str]] = {}
    for concept, ranked in table.items():
        for prop, _weight in ranked:
            holders.setdefault(prop, []).append(concept)
    with open(path("refs.jsonl"), "w", encoding="utf-8") as fh:
        for text, prefix, prop in literals:
            pool = holders.get(prop) or concepts
            refs = sorted({prefix + " like a " + rng.choice(pool) + "."
                           for _ in range(rng.randint(1, 2))})
            fh.write(json.dumps({"literal": text, "references": refs}, sort_keys=True) + "\n")

    # Score sheet: per-(item, system, criterion) quality plus rater noise, so
    # raters agree more than chance and alpha is neither 0 nor 1.
    systems = spec["systems"]
    with open(path("scores.csv"), "w", encoding="utf-8", newline="") as fh:
        fh.write("item_id,system,rater_id,criterion,score\n")
        for item in range(spec["sheet_items"]):
            for system in systems:
                for criterion in CRITERIA:
                    quality = rng.randint(1, 5)
                    for rater in RATERS:
                        score = min(5, max(1, quality + rng.choice((-1, 0, 0, 0, 1))))
                        fh.write(f"i{item:05d},{system},{rater},{criterion},{score}\n")

    with open(path("stories.jsonl"), "w", encoding="utf-8") as fh:
        for i in range(spec["stories"]):
            sentences = []
            for _ in range(rng.randint(3, 6)):
                if rng.random() < 0.4:
                    sentences.append(" ".join(subject(2, 5)) + " "
                                     + rng.choice(_LITERAL_VERBS) + " "
                                     + rng.choice(properties) + ".")
                else:
                    sentences.append(filler())
            rec = {"title": f"story {i}", "storyline": [noun()],
                   "sentences": sentences}
            fh.write(json.dumps(rec, sort_keys=True) + "\n")

    return {
        "table": {c: [p for p, _w in ranked] for c, ranked in table.items()},
        "best_concept": {p: c for p, (_w, c) in best_concept.items()},
        "vehicle_of": vehicle_of,
        "similes": len(similes),
        "duplicates": duplicates,
        "malformed": malformed,
        "literals": {text: [prefix, prop] for text, prefix, prop in literals},
        "systems": list(systems),
        "stories": spec["stories"],
    }


def simile_key(text: str) -> str:
    """Simile text minus terminal punctuation, lowercased: the identity of a simile."""
    return text.rstrip(".!?").lower()


def main(argv) -> int:
    """python3 workloads.py WORKLOAD SEED INPUTS_DIR TRUTH_JSON"""
    workload, seed, inputs_dir, truth_path = argv
    truth = generate(workload, int(seed), inputs_dir)
    with open(truth_path, "w", encoding="utf-8") as fh:
        json.dump(truth, fh, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
