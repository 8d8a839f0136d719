"""Metrics: vehicle BLEU, embedding F1, novelty, and score-sheet aggregation."""

import csv
import json
import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from similekit.evaluation import (
    CharNgramEmbedder,
    EmptyGenerated,
    LengthMismatch,
    MetricReport,
    MissingItem,
    OneHotEmbedder,
    ScoreRow,
    ScoreSheet,
    SystemMetrics,
    embedding_f1,
    evaluate_generation,
    krippendorff_alpha,
    mean_scores,
    normalize_pair,
    novelty,
    pairwise_compare,
    read_refs_jsonl,
    unseen_fraction,
    vehicle_bleu,
)
from similekit.core import tokenize
from similekit.core import ParseError
from similekit.tagging import DEFAULT_TAGGER


def write_scoresheet(sheet, path):
    """A score sheet's ratings as the CSV `evaluate --scoresheet` reads: a header row, then
    one row per rating."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ScoreRow._fields)
        writer.writerows([getattr(r, name) for name in ScoreRow._fields] for r in sheet.rows)


# Plain-loop reference implementation, kept deliberately naive.
def oracle_bleu(candidates, reference_sets, n, smoothing=False):
    def grams(tokens, k):
        out = {}
        for i in range(len(tokens) - k + 1):
            g = tuple(tokens[i : i + k])
            out[g] = out.get(g, 0) + 1
        return out

    matches = [0] * n
    totals = [0] * n
    cand_len = 0
    ref_len = 0
    for cand, refs in zip(candidates, reference_sets):
        cand_len += len(cand)
        best = None
        for ref in refs:
            key = (abs(len(ref) - len(cand)), len(ref))
            if best is None or key < best:
                best = key
        ref_len += best[1]
        for k in range(1, n + 1):
            totals[k - 1] += max(0, len(cand) - k + 1)
            for g, c in grams(cand, k).items():
                allowed = max(grams(ref, k).get(g, 0) for ref in refs)
                matches[k - 1] += min(c, allowed)
    if cand_len == 0:
        return 0.0
    log_sum = 0.0
    for m, t in zip(matches, totals):
        if smoothing:
            p = (m + 1) / (t + 1)
        else:
            p = m / t if t > 0 else 0.0
        if p == 0.0:
            return 0.0
        log_sum += math.log(p)
    bp = 1.0 if cand_len > ref_len else math.exp(1 - ref_len / cand_len)
    return bp * math.exp(log_sum / n)


def random_corpus(rng):
    vocab = ["sun", "sea", "rock", "bird", "fire", "glass", "moon", "tree"]
    n_items = rng.randint(1, 15)
    candidates = []
    reference_sets = []
    for _ in range(n_items):
        candidates.append([rng.choice(vocab) for _ in range(rng.randint(0, 5))])
        refs = []
        for _ in range(rng.randint(1, 3)):
            refs.append([rng.choice(vocab) for _ in range(rng.randint(1, 5))])
        reference_sets.append(refs)
    return candidates, reference_sets


class TestVehicleBleu:
    def test_perfect_match(self):
        cands = [["desert"], ["charging", "bull"]]
        refs = [[["desert"]], [["charging", "bull"]]]
        assert vehicle_bleu(cands, refs, n=1) == pytest.approx(1.0)
        assert vehicle_bleu(cands, refs, n=2) == pytest.approx(1.0)

    def test_total_miss_is_zero(self):
        assert vehicle_bleu([["death"]], [[["desert"]]], n=1) == 0.0

    def test_half_precision(self):
        assert vehicle_bleu([["a", "b"]], [[["a", "c"]]], n=1) == pytest.approx(0.5)

    def test_brevity_penalty(self):
        score = vehicle_bleu([["a"]], [[["a", "b", "c"]]], n=1)
        assert score == pytest.approx(math.exp(1 - 3.0))

    def test_closest_ref_length_tie_prefers_shorter(self):
        score = vehicle_bleu([["a", "b"]], [[["a"], ["a", "b", "x"]]], n=1)
        assert score == pytest.approx(1.0)

    def test_empty_candidate_corpus(self):
        assert vehicle_bleu([[], []], [[["a"]], [["b"]]], n=1) == 0.0

    def test_smoothing_rescues_short_bigrams(self):
        cands = [["desert"]]
        refs = [[["desert"]]]
        assert vehicle_bleu(cands, refs, n=2) == 0.0
        assert vehicle_bleu(cands, refs, n=2, smoothing=True) > 0.0

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            vehicle_bleu([["a"]], [])

    def test_reference_required(self):
        with pytest.raises(ValueError):
            vehicle_bleu([["a"]], [[]])

    def test_order_validation(self):
        with pytest.raises(ValueError):
            vehicle_bleu([["a"]], [[["a"]]], n=3)

    def test_corruption_lowers_score(self):
        refs = [[["green", "meadow"]], [["cold", "glacier"]], [["old", "castle"]]]
        good = [["green", "meadow"], ["cold", "glacier"], ["old", "castle"]]
        bad = [["green", "meadow"], ["cold", "glacier"], ["old", "zzz"]]
        worse = [["green", "zzz"], ["qqq", "glacier"], ["old", "zzz"]]
        s_good = vehicle_bleu(good, refs, n=1)
        s_bad = vehicle_bleu(bad, refs, n=1)
        s_worse = vehicle_bleu(worse, refs, n=1)
        assert s_good > s_bad > s_worse

    @pytest.mark.parametrize("n", [1, 2])
    @pytest.mark.parametrize("smoothing", [False, True])
    def test_matches_reference_implementation(self, n, smoothing):
        for seed in range(30):
            rng = random.Random(seed)
            cands, refs = random_corpus(rng)
            assert vehicle_bleu(cands, refs, n=n, smoothing=smoothing) == pytest.approx(
                oracle_bleu(cands, refs, n, smoothing), abs=1e-9
            )


class TestEmbeddingF1:
    def test_identical_is_one(self):
        assert embedding_f1("desert", ["desert"], OneHotEmbedder()) == pytest.approx(1.0)
        assert embedding_f1("desert", ["desert"], CharNgramEmbedder()) == pytest.approx(1.0)

    def test_one_hot_reduces_to_overlap_f1(self):
        assert embedding_f1("a b", ["a c"], OneHotEmbedder()) == pytest.approx(0.5)

    def test_char_ngrams_score_related_forms(self):
        assert embedding_f1("death", ["desert"], OneHotEmbedder()) == 0.0
        assert embedding_f1("death", ["desert"], CharNgramEmbedder()) > 0.0

    def test_empty_candidate(self):
        assert embedding_f1("", ["desert"], OneHotEmbedder()) == 0.0

    def test_takes_best_reference(self):
        score = embedding_f1("a b", ["z z z", "a b"], OneHotEmbedder())
        assert score == pytest.approx(1.0)

    def test_no_references(self):
        assert embedding_f1("a b", [], OneHotEmbedder()) == 0.0

    def test_bounded(self):
        for cand, refs in [("x y z", ["x q"]), ("one", ["two three"])]:
            score = embedding_f1(cand, refs, CharNgramEmbedder())
            assert 0.0 <= score <= 1.0 + 1e-12


def oracle_novelty(generated, training):
    seen = set()
    for prop, veh in training:
        seen.add(normalize_pair((prop, veh)))
    fresh = 0
    for pair in generated:
        if normalize_pair(pair) not in seen:
            fresh += 1
    return fresh / len(generated)


def old_normalize_pair(pair):
    """normalize_pair as a pop loop over each part's tokens."""
    out = []
    for part in pair:
        tokens = tokenize(part.lower())
        while tokens and not tokens[-1][0].isalnum() and tokens[-1][0] != "_":
            tokens.pop()
        out.append(" ".join(tokens))
    return (out[0], out[1])


class TestNovelty:
    def test_all_seen(self):
        train = [("rare", "unicorn"), ("fast", "deer")]
        assert novelty([("rare", "unicorn")], train) == 0.0

    def test_none_seen(self):
        assert novelty([("slow", "snail")], [("rare", "unicorn")]) == 1.0

    def test_fraction(self):
        train = [("a", "x"), ("b", "y")]
        gen = [("a", "x"), ("b", "y"), ("c", "z"), ("d", "w"), ("a", "y")]
        assert novelty(gen, train) == pytest.approx(0.6)

    def test_normalization_is_case_and_punct_insensitive(self):
        train = [("rare", "unicorn")]
        assert novelty([("Rare", "Unicorn.")], train) == 0.0

    def test_empty_generated(self):
        with pytest.raises(EmptyGenerated):
            novelty([], [("a", "b")])

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_matches_reference_implementation(self, seed):
        rng = random.Random(seed)
        words = ["rare", "fast", "slow", "deer", "snail", "fox"]
        make = lambda: (rng.choice(words), rng.choice(words))
        train = [make() for _ in range(rng.randint(0, 12))]
        gen = [make() for _ in range(rng.randint(1, 12))]
        assert novelty(gen, train) == pytest.approx(oracle_novelty(gen, train), abs=1e-12)

    @given(st.tuples(st.text(max_size=12), st.text(max_size=12)))
    def test_normalize_pair_equals_pop_loop(self, pair):
        assert normalize_pair(pair) == old_normalize_pair(pair)

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_training_normalized_once_equals_novelty(self, seed):
        """evaluate normalizes the training pairs once and scores every batch against them."""
        rng = random.Random(seed)
        words = ["Rare", "rare.", "fast!", "deer", "Deer ,", "snail"]
        make = lambda: (rng.choice(words), rng.choice(words))
        train = [make() for _ in range(rng.randint(0, 12))]
        seen = {normalize_pair(p) for p in train}
        for _ in range(3):
            gen = [make() for _ in range(rng.randint(1, 12))]
            assert unseen_fraction(gen, seen) == novelty(gen, train) == oracle_novelty(gen, train)


def oracle_krippendorff_alpha(sheet, criterion=None):
    """Interval alpha with expected disagreement as a double loop over all ratings."""
    units = {}
    for r in sheet.rows:
        if criterion is not None and r.criterion != criterion:
            continue
        units.setdefault((r.item_id, r.system), []).append(r.score)
    pairable = [vals for vals in units.values() if len(vals) >= 2]
    if not pairable:
        raise ValueError("alpha needs at least one unit with two ratings")
    n = sum(len(vals) for vals in pairable)
    observed = 0.0
    for vals in pairable:
        m = len(vals)
        observed += sum((a - b) ** 2 for a in vals for b in vals) / (m - 1)
    observed /= n
    flat = [v for vals in pairable for v in vals]
    expected = sum((a - b) ** 2 for a in flat for b in flat) / (n * (n - 1))
    if expected == 0:
        return 1.0
    return 1.0 - observed / expected


def oracle_load_csv(path):
    """The csv.DictReader reading: fields by header name; a short row, whose missing
    fields DictReader reads as None, is an error."""
    sheet = ScoreSheet()
    with open(path, encoding="utf-8", newline="") as fh:
        for rec in csv.DictReader(fh):
            if None in rec.values():
                raise ValueError("short row")
            sheet.add(rec["item_id"], rec["system"], rec["rater_id"], rec["criterion"],
                      int(rec["score"]))
    return sheet.rows


# Each column's values, mostly valid; a sheet may lack a column or have an extra one.
SHEET_VALUES = {"item_id": ["i0", "i1"], "system": ["A", "B"], "rater_id": ["r0", "r1"],
                "criterion": ["OQ", "C"] * 4 + ["Z"], "score": ["1", "5"] * 4 + ["6", "x"],
                "note": ["", "n"]}


@st.composite
def sheet_texts(draw):
    """A score sheet's text: some rows short or blank, the columns in any order."""
    header = draw(st.permutations(list(SHEET_VALUES)))[:draw(st.sampled_from([5, 6, 6, 6]))]
    lines = [header]
    for _ in range(draw(st.integers(0, 8))):
        row = [draw(st.sampled_from(SHEET_VALUES[name])) for name in header]
        lines.append(row[:len(row) - draw(st.sampled_from([0] * 8 + [1, 3, 6]))])
    return "".join(",".join(line) + "\n" for line in lines)


SCORE_ROWS = st.lists(
    st.tuples(st.sampled_from(["i0", "i1", "i2", "i3", "i4"]), st.sampled_from(["A", "B"]),
              st.sampled_from(["r0", "r1", "r2"]), st.sampled_from(["OQ", "C"]),
              st.integers(1, 5)),
    max_size=120,
)


class TestScoreSheets:
    def build_sheet(self, triples):
        sheet = ScoreSheet()
        for item, a_scores, b_scores in triples:
            for rater, score in enumerate(a_scores):
                sheet.add(item, "A", f"r{rater}", "OQ", score)
            for rater, score in enumerate(b_scores):
                sheet.add(item, "B", f"r{rater}", "OQ", score)
        return sheet

    def test_identical_scores_all_ties(self):
        sheet = self.build_sheet([(f"i{k}", (3, 4), (4, 3)) for k in range(10)])
        assert pairwise_compare(sheet, "A", "B", "OQ") == (0.0, 0.0, 100.0)

    def test_clean_sweep(self):
        sheet = self.build_sheet([(f"i{k}", (5, 5), (1, 2)) for k in range(10)])
        assert pairwise_compare(sheet, "A", "B", "OQ") == (100.0, 0.0, 0.0)

    def test_engineered_sheet_hits_target_percentages(self):
        triples = []
        for k in range(343):
            triples.append((f"w{k}", (5, 4), (3, 4)))
        for k in range(93):
            triples.append((f"l{k}", (2, 2), (3, 3)))
        for k in range(64):
            triples.append((f"t{k}", (3, 4), (4, 3)))
        sheet = self.build_sheet(triples)
        win, lose, tie = pairwise_compare(sheet, "A", "B", "OQ")
        assert win == pytest.approx(68.6)
        assert lose == pytest.approx(18.6)
        assert tie == pytest.approx(12.8)

    def test_antisymmetry(self):
        rng = random.Random(4)
        triples = [
            (f"i{k}", (rng.randint(1, 5), rng.randint(1, 5)),
             (rng.randint(1, 5), rng.randint(1, 5)))
            for k in range(40)
        ]
        sheet = self.build_sheet(triples)
        win, lose, tie = pairwise_compare(sheet, "A", "B", "OQ")
        rwin, rlose, rtie = pairwise_compare(sheet, "B", "A", "OQ")
        assert (win, lose, tie) == (rlose, rwin, rtie)
        assert win + lose + tie == pytest.approx(100.0)

    def test_missing_item_detected(self):
        sheet = self.build_sheet([("i0", (3,), (4,)), ("i1", (3,), (4,))])
        sheet.add("i2", "A", "r0", "OQ", 5)
        with pytest.raises(MissingItem) as exc:
            pairwise_compare(sheet, "A", "B", "OQ")
        assert exc.value.items == ["i2"]

    def test_system_the_sheet_never_scores_is_named(self):
        sheet = self.build_sheet([("i0", (3,), (4,))])
        sheet.add("i0", "C", "r0", "R1", 3)  # scored, but not on OQ
        for system_a, system_b, unscored in (("A", "C", "C"), ("C", "B", "C"), ("A", "D", "D")):
            with pytest.raises(ValueError) as exc:
                pairwise_compare(sheet, system_a, system_b, "OQ")
            assert str(exc.value) == f"system {unscored!r} has no scores on criterion 'OQ'"

    def test_empty_criterion(self):
        sheet = self.build_sheet([("i0", (3,), (4,))])
        with pytest.raises(ValueError):
            pairwise_compare(sheet, "A", "B", "R1")

    def test_row_validation(self):
        with pytest.raises(ValueError):
            ScoreRow("i", "A", "r", "XX", 3)
        with pytest.raises(ValueError):
            ScoreRow("i", "A", "r", "OQ", 6)
        with pytest.raises(ValueError):
            ScoreRow("i", "A", "r", "OQ", 0)

    def test_mean_scores(self):
        sheet = ScoreSheet()
        sheet.add("i0", "A", "r0", "C", 4)
        sheet.add("i0", "A", "r1", "C", 2)
        sheet.add("i1", "A", "r0", "C", 3)
        sheet.add("i0", "A", "r0", "R1", 5)
        means = mean_scores(sheet)
        assert means[("A", "C")] == pytest.approx(3.0)
        assert means[("A", "R1")] == pytest.approx(5.0)

    def test_csv_round_trip(self, tmp_path):
        sheet = self.build_sheet([("i0", (3, 4), (4, 5)), ("i1", (1,), (2,))])
        path = tmp_path / "scores.csv"
        write_scoresheet(sheet, path)
        assert ScoreSheet.load_csv(path).rows == sheet.rows

    def test_columns_are_found_by_header_name(self, tmp_path):
        path = tmp_path / "scores.csv"
        path.write_text("score,note,criterion,rater_id,system,item_id\n4,x,OQ,r0,A,i0\n\n"
                        "2,,C,r1,B,i1\n", encoding="utf-8")
        assert ScoreSheet.load_csv(path).rows == [ScoreRow("i0", "A", "r0", "OQ", 4),
                                                  ScoreRow("i1", "B", "r1", "C", 2)]

    @given(sheet_texts())
    @settings(max_examples=300, deadline=None)
    def test_load_csv_reads_what_dictreader_reads(self, tmp_path_factory, text):
        """Same rows, or an error where the DictReader reading raises one."""
        path = tmp_path_factory.mktemp("sheet") / "scores.csv"
        path.write_text(text, encoding="utf-8")
        try:
            expected = oracle_load_csv(path)
        except (KeyError, TypeError, ValueError):
            with pytest.raises(ParseError):
                ScoreSheet.load_csv(path)
            return
        assert ScoreSheet.load_csv(path).rows == expected

    @pytest.mark.parametrize("rows, reason", [
        ("item_id,system,rater_id,criterion\ni0,A,r0,C\n", "missing field 'score'"),
        ("item_id,system,rater_id,criterion,score\ni0,A,r0,C,3\ni1,A,r0,C,x\n",
         "invalid literal for int() with base 10: 'x'"),
        ("item_id,system,rater_id,criterion,score\ni0,A,r0,C,9\n",
         "score must be an integer in 1..5, got 9"),
        ("item_id,system,rater_id,criterion,score\ni0,A,r0,Z,3\n",
         "criterion must be one of ('C', 'R1', 'R2', 'OQ'), got 'Z'"),
        ("item_id,system,rater_id,criterion,score\ni0,A,r0\n", "expected 5 fields, got 3"),
        ("item_id,system,criterion,score,rater_id\ni0,A,OQ,4,r0\ni0,A,OQ,4\n",
         "expected 5 fields, got 4"),
    ], ids=["missing-column", "bad-score", "score-out-of-range", "bad-criterion", "short-row",
            "short-row-missing-rater"])
    def test_bad_row_is_located(self, tmp_path, rows, reason):
        path = tmp_path / "scores.csv"
        path.write_text(rows, encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            ScoreSheet.load_csv(path)
        line = rows.count("\n")
        assert str(exc.value).startswith(f"{path}:{line}: {reason}")

    @pytest.mark.parametrize("rows, line", [
        (b"item_id,system,rater_id,criterion,score\ni0,A,r0,C,3\ni\xff,A,r0,C,3\n", 3),
        (b"item_id,system,rater_id,criterion,score,n\xffte\ni0,A,r0,C,3,x\n", 1),
        (b'item_id,system,rater_id,criterion,score\n"i0\nis\xff",A,r0,C,3\n', 3),
    ], ids=["row", "header", "quoted-newline"])
    def test_byte_not_utf8_is_located(self, tmp_path, rows, line):
        path = tmp_path / "scores.csv"
        path.write_bytes(rows)
        with pytest.raises(ParseError) as exc:
            ScoreSheet.load_csv(path)
        assert str(exc.value) == f"{path}:{line}: byte 0xff is not UTF-8"

    def test_quoted_newline_round_trips(self, tmp_path):
        sheet = ScoreSheet()
        sheet.add("i0\r\nsecond line", "A", "r0", "C", 3)
        sheet.add("i1", "A", "r0", "C", 4)
        path = tmp_path / "scores.csv"
        write_scoresheet(sheet, path)
        assert ScoreSheet.load_csv(path).rows == sheet.rows

    def test_alpha_perfect_agreement(self):
        sheet = ScoreSheet()
        for item, score in (("i0", 1), ("i1", 2), ("i2", 3)):
            sheet.add(item, "A", "r0", "OQ", score)
            sheet.add(item, "A", "r1", "OQ", score)
        assert krippendorff_alpha(sheet) == pytest.approx(1.0)

    def test_alpha_single_unit_disagreement(self):
        sheet = ScoreSheet()
        sheet.add("i0", "A", "r0", "OQ", 1)
        sheet.add("i0", "A", "r1", "OQ", 2)
        assert krippendorff_alpha(sheet) == pytest.approx(0.0)

    @given(SCORE_ROWS, st.sampled_from([None, "OQ", "C"]))
    @settings(max_examples=300, deadline=None)
    def test_alpha_equals_quadratic_oracle(self, rows, criterion):
        sheet = ScoreSheet()
        for row in rows:
            sheet.add(*row)
        try:
            expected = oracle_krippendorff_alpha(sheet, criterion)
        except ValueError:
            with pytest.raises(ValueError):
                krippendorff_alpha(sheet, criterion)
            return
        assert krippendorff_alpha(sheet, criterion) == expected

    def test_alpha_needs_pairable_unit(self):
        sheet = ScoreSheet()
        sheet.add("i0", "A", "r0", "OQ", 1)
        with pytest.raises(ValueError):
            krippendorff_alpha(sheet)


class TestReports:
    def test_metric_bounds_enforced(self):
        with pytest.raises(ValueError):
            SystemMetrics(bleu1=1.5, bleu2=0.0, embedding_f1=0.0, novelty=None,
                          scored=1, blank=0)

    def test_json_round_trip(self):
        report = MetricReport(
            {"scope": SystemMetrics(0.5, 0.25, 0.75, 0.9, scored=10, blank=1)}
        )
        # The CLI's --report serializes a report this way.
        payload = json.loads(json.dumps({name: m._asdict() for name, m in report.systems.items()}))
        assert payload["scope"]["bleu1"] == 0.5
        assert payload["scope"]["blank"] == 1

    def test_table_scales_and_marks_missing_novelty(self):
        report = MetricReport(
            {
                "scope": SystemMetrics(0.5, 0.25, 0.75, 0.9, scored=10, blank=1),
                "rtrvl": SystemMetrics(0.1, 0.0, 0.3, None, scored=10, blank=4),
            }
        )
        table = report.format_table()
        assert "50.00" in table and "25.00" in table and "90.0" in table
        assert "-" in table.splitlines()[-1] or "-" in table


class TestEvaluateGeneration:
    REFS = {
        "The river seemed cold.": ["The river seemed like a glacier."],
        "The night felt dark.": ["The night felt like a shadow."],
    }

    def records(self, outputs):
        return [
            {"literal": lit, "system": "scope", "output": out, "seed": 0}
            for lit, out in zip(self.REFS, outputs)
        ]

    def test_perfect_outputs(self):
        records = self.records(
            ["The river seemed like a glacier.", "The night felt like a shadow."]
        )
        metrics = evaluate_generation(records, self.REFS, OneHotEmbedder(), tagger=DEFAULT_TAGGER)
        assert metrics.bleu1 == pytest.approx(1.0)
        assert metrics.embedding_f1 == pytest.approx(1.0)
        assert metrics.blank == 0 and metrics.scored == 2
        assert metrics.novelty is None

    def test_blank_outputs_counted_and_scored_zero(self):
        records = self.records(["The river seemed like a glacier.", ""])
        metrics = evaluate_generation(records, self.REFS, OneHotEmbedder(), tagger=DEFAULT_TAGGER)
        assert metrics.blank == 1
        assert metrics.bleu1 < 1.0

    def test_novelty_against_training_pairs(self):
        records = self.records(
            ["The river seemed like a glacier.", "The night felt like a shadow."]
        )
        train = [("cold", "glacier")]
        metrics = evaluate_generation(
            records, self.REFS, OneHotEmbedder(), train_seen={normalize_pair(p) for p in train},
            tagger=DEFAULT_TAGGER,
        )
        assert metrics.novelty == pytest.approx(0.5)

    def test_unknown_literal_rejected(self):
        records = [{"literal": "Nobody asked this.", "system": "scope", "output": "x"}]
        with pytest.raises(MissingItem):
            evaluate_generation(records, self.REFS, OneHotEmbedder())

    def test_refs_file_round_trip(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        rows = [
            {"literal": lit, "references": refs} for lit, refs in self.REFS.items()
        ]
        path.write_text(
            "\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8"
        )
        assert read_refs_jsonl(path) == self.REFS

    def test_repeated_literal_is_an_error_at_its_line(self, tmp_path):
        path = tmp_path / "refs.jsonl"
        rows = [{"literal": "x", "references": ["one"]},
                {"literal": "y", "references": ["two"]},
                {"literal": "x", "references": ["other"]}]
        path.write_text("".join(json.dumps(r) + "\n" for r in rows), encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_refs_jsonl(path)
        assert str(exc.value) == f"{path}:3: repeated literal 'x'"
