"""Corpus construction: candidates, perplexity selection, pair contracts."""

import pytest
from hypothesis import given, settings, strategies as st

from similekit import core
from similekit.core import (
    SimileInstance,
    parse_simile,
    read_records,
    terminal_punctuation,
    tokenize,
)
from similekit.corpus import (
    BuildStats,
    GrammarCorrectionWarning,
    NoProperties,
    ParallelPair,
    build_parallel_corpus,
    correct_grammar,
    format_pairs,
    iter_parallel_corpus,
    read_pairs_audit_jsonl,
    select_best_literals,
    write_pair_files,
    write_pairs_audit_jsonl,
    write_pairs_tsv,
)
from similekit.knowledge import PropertyCandidate, load_edge_table, properties_of
from similekit.lm import BigramScorer, EmptyText, UniformScorer, perplexities

# Word pieces, apostrophes, punctuation and whitespace of several kinds, or any character.
PIECES = st.sampled_from(["ab", "x", "'", "’", " ", ".", ",", "!", "-", "\t", "\n",
                          "\u00a0", "\u2028", "\x1c", "\u00e9t\u00e9"]) | st.characters()
TEXTS = st.lists(PIECES, max_size=8).map("".join)


def props(*texts):
    return [PropertyCandidate(t, float(len(texts) - i)) for i, t in enumerate(texts)]


def select_best_literal(simile, properties, scorer):
    """The one-simile batch of select_best_literals: its candidate, or the error it holds."""
    [best] = select_best_literals([simile], [properties], scorer)
    if isinstance(best, ValueError):
        raise best
    return best


class TextRecorder:
    """A scorer of texts that keeps the texts it is handed; every candidate ties."""

    def __init__(self):
        self.texts = []

    def perplexities(self, texts):
        self.texts = list(texts)
        return [1.0] * len(self.texts)


class TokenRecorder(TextRecorder):
    """A scorer that is also handed each candidate's tokens, and keeps them."""

    def token_perplexities(self, token_lists):
        self.tokens = list(token_lists)
        return [1.0] * len(self.tokens)


def candidate_texts(simile, properties):
    """The candidate texts select_best_literal scores for a simile."""
    scorer = TextRecorder()
    select_best_literal(simile, properties, scorer)
    return scorer.texts


class TestMakeLiteralCandidates:
    def test_simple_prefix(self):
        simile = parse_simile("Love is like a unicorn.")
        assert candidate_texts(simile, props("very rare", "rare")) == ["Love is very rare.",
                                                                       "Love is rare."]
        best = select_best_literal(simile, props("very rare", "rare"), UniformScorer(3))
        assert (best.text, best.property) == ("Love is very rare.", "very rare")

    def test_clause_prefix_kept_verbatim(self):
        simile = parse_simile(
            "It was cool and quiet, and I stormed through like a charging bull."
        )
        texts = candidate_texts(simile, props("fast"))
        assert texts == ["It was cool and quiet, and I stormed through fast."]

    def test_comma_before_comparator_survives(self):
        simile = parse_simile(
            "Sir Francis's voice was calm and quiet, like a breeze through a forest."
        )
        texts = candidate_texts(simile, props("very relax"))
        assert texts == ["Sir Francis's voice was calm and quiet, very relax."]

    def test_terminal_punctuation_preserved(self):
        simile = parse_simile("He fought like a lion!")
        assert candidate_texts(simile, props("brave")) == ["He fought brave!"]

    def test_no_terminal_punctuation(self):
        simile = parse_simile("he fought like a lion")
        assert candidate_texts(simile, props("brave")) == ["he fought brave"]

    def test_one_candidate_per_property(self):
        simile = parse_simile("Love is like a unicorn.")
        assert len(candidate_texts(simile, props("a", "b", "c"))) == 3

    def test_no_properties_raises(self):
        simile = parse_simile("Love is like a unicorn.")
        with pytest.raises(NoProperties):
            select_best_literal(simile, [], UniformScorer(2))

    @given(TEXTS, st.lists(TEXTS.filter(bool), min_size=1, max_size=5),
           st.sampled_from(["", ".", "!", "?!", "...", "'", "”"]))
    @settings(max_examples=300, deadline=None)
    def test_candidate_tokens_are_the_candidate_texts_tokens(self, prefix, properties, punct):
        """The prefix tokenized once plus each tail gives each candidate text's tokens."""
        simile = SimileInstance(prefix + " like a rock" + punct, prefix, " like a ", "rock" + punct)
        texts = [(prefix + " " + p).strip() + terminal_punctuation(simile.raw_text)
                 for p in properties]
        candidates = [PropertyCandidate(p, 1.0) for p in properties]
        scorer = TokenRecorder()
        if any(not text or text.isspace() for text in texts):
            with pytest.raises(EmptyText):
                select_best_literal(simile, candidates, scorer)
            return
        select_best_literal(simile, candidates, scorer)
        assert scorer.tokens == [tokenize(text) for text in texts]


class TestSelectBestLiteral:
    def test_picks_minimum_perplexity(self, table2_scorer):
        simile = parse_simile("Love is like a unicorn.")
        best = select_best_literal(simile, props("very rare", "rare", "beautiful"),
                                   table2_scorer)
        assert best.property == "rare"
        assert best.perplexity == 1.0

    def test_tie_keeps_earlier_property(self):
        simile = parse_simile("a like a b.")
        assert select_best_literal(simile, props("first", "second"),
                                   UniformScorer(7)).property == "first"

    def test_uniform_tie_keeps_top_ranked_property_at_any_length(self):
        # 9 and 13 tokens: exp(-mean(-log 7)) would score these 6.999999999999999
        # and 6.9999999999999964, and the lower-ranked property would win.
        simile = parse_simile("The old truck went down the road like a snail.")
        best = select_best_literal(simile, props("slow", "very very slow and steady"),
                                   UniformScorer(7))
        assert (best.text, best.property, best.perplexity) == (
            "The old truck went down the road slow.", "slow", 7.0)

    def test_empty_candidates(self):
        with pytest.raises(ValueError):
            select_best_literal(parse_simile("Love is like a unicorn."), [], UniformScorer(2))


class TestCorrectGrammar:
    def test_identity_without_corrector(self):
        assert correct_grammar("Love is rare.") == "Love is rare."

    def test_corrector_applied(self, table2_corrector):
        assert (
            correct_grammar("voice was quiet, very relax.", table2_corrector)
            == "voice was quiet, very relaxed."
        )

    def test_failure_warns_and_passes_through(self):
        def broken(text):
            raise RuntimeError("no grammar today")

        with pytest.warns(GrammarCorrectionWarning):
            assert correct_grammar("Love is rare.", broken) == "Love is rare."


class TestParallelPair:
    def test_valid_pair(self):
        pair = ParallelPair(
            source="Love is rare.",
            target="Love is like a unicorn.",
            property_used="rare",
            vehicle="unicorn",
        )
        assert pair.source == "Love is rare."

    def test_target_must_contain_trigger(self):
        with pytest.raises(ValueError):
            ParallelPair(source="Love is rare.", target="Love is rare indeed.",
                         property_used="rare", vehicle="unicorn")

    def test_source_must_not_contain_trigger(self):
        with pytest.raises(ValueError):
            ParallelPair(source="Love is like a gem.", target="Love is like a unicorn.",
                         property_used="rare", vehicle="unicorn")

    def test_contract_covers_both_article_variants(self):
        # "like an" counts for both sides of the contract even though default
        # parsing only reacts to "like a".
        with pytest.raises(ValueError):
            ParallelPair(source="It flew like an arrow.", target="It flew like a dart.",
                         property_used="fast", vehicle="dart")
        pair = ParallelPair(source="It flew fast.", target="It flew like an arrow.",
                            property_used="fast", vehicle="arrow")
        assert pair.target.endswith("arrow.")


class TestBuildParallelCorpus:
    def test_worked_examples_end_to_end(self, table2_rows, table2_backend, table2_scorer,
                                        table2_corrector):
        similes = [parse_simile(row["simile"]) for row in table2_rows]
        stats = BuildStats()
        pairs = build_parallel_corpus(
            similes, table2_backend, table2_scorer, corrector=table2_corrector,
            k=5, stats=stats,
        )
        assert stats.built == 3 and not stats.failures
        assert [p.source for p in pairs] == [row["best_literal"] for row in table2_rows]
        assert [p.target for p in pairs] == [row["simile"] for row in table2_rows]
        assert [p.property_used for p in pairs] == [row["best_property"] for row in table2_rows]
        assert [p.vehicle for p in pairs] == [row["vehicle"] for row in table2_rows]

    def test_unknown_vehicle_skipped_and_counted(self, table2_backend, table2_scorer):
        similes = [
            parse_simile("Love is like a unicorn."),
            parse_simile("It hummed like a zamboni."),
        ]
        stats = BuildStats()
        pairs = build_parallel_corpus(similes, table2_backend, table2_scorer, stats=stats)
        assert len(pairs) == 1
        assert stats.skipped_no_properties == 1

    def test_scorer_error_propagates(self, table2_backend):
        class Explodes:
            def perplexities(self, texts):
                raise RuntimeError("scorer down")

        similes = [parse_simile("Love is like a unicorn.")]
        stats = BuildStats()
        with pytest.raises(RuntimeError, match="scorer down"):
            build_parallel_corpus(similes, table2_backend, Explodes(), stats=stats)
        assert stats.failures == []

    def test_value_error_recorded_not_fatal(self, table2_rows, table2_backend, table2_scorer):
        """A corrector that adds a comparator breaks the pair contract on one simile."""
        similes = [parse_simile(row["simile"]) for row in table2_rows]
        stats = BuildStats()
        pairs = build_parallel_corpus(
            similes, table2_backend, table2_scorer, stats=stats,
            corrector=lambda text: text + " Like a rock." if text.startswith("Love") else text)
        assert [p.target for p in pairs] == [row["simile"] for row in table2_rows[1:]]
        assert stats.failures == [(table2_rows[0]["simile"],
                                   "source must not contain a trigger phrase")]
        assert stats.built == 2

    def test_toy_corpus_is_complete_and_comparator_free(self, toy_pairs, toy_world):
        assert len(toy_pairs) == len(toy_world["similes"]) == 200
        for pair in toy_pairs:
            tokens = pair.source.lower().split()
            assert "like" not in tokens and "as" not in tokens
            assert parse_simile(pair.target) is not None
            assert pair.target.startswith(pair.source.rsplit(" ", 1)[0])

    def test_build_is_deterministic(self, toy_world, table2_scorer):
        from similekit.knowledge import load_edge_table
        from similekit.lm import BigramScorer

        backend = load_edge_table(toy_world["edges_path"])
        scorer = BigramScorer(toy_world["simile_texts"])
        once = build_parallel_corpus(toy_world["similes"][:40], backend, scorer)
        again = build_parallel_corpus(toy_world["similes"][:40], backend, scorer)
        assert once == again

    def test_stream_pulls_one_simile_per_pair(self, toy_world, monkeypatch):
        """With runs of one simile, a simile is read only once the pair before it has been
        taken."""
        monkeypatch.setattr(core, "RUN_LENGTH", 1)
        similes = toy_world["similes"][:20]
        pulled = []

        def stream():
            for simile in similes:
                pulled.append(simile)
                yield simile

        backend = load_edge_table(toy_world["edges_path"])
        pairs = iter_parallel_corpus(stream(), backend, UniformScorer(10))
        assert pulled == []
        for taken, pair in enumerate(pairs, start=1):
            assert len(pulled) == taken
            assert pair.target == pulled[-1].raw_text
        assert pulled == similes

    def test_stream_pulls_one_run_at_a_time(self, toy_world, monkeypatch):
        """A run is read only once the pairs of the run before it have been taken."""
        monkeypatch.setattr(core, "RUN_LENGTH", 3)
        similes = toy_world["similes"][:20]
        pulled = []

        def stream():
            for simile in similes:
                pulled.append(simile)
                yield simile

        backend = load_edge_table(toy_world["edges_path"])
        pairs = iter_parallel_corpus(stream(), backend, UniformScorer(10))
        assert pulled == []
        for taken, pair in enumerate(pairs, start=1):
            assert len(pulled) == min(-(-taken // 3) * 3, len(similes))
            assert pair.target == similes[taken - 1].raw_text
        assert pulled == similes

    def test_stream_counts_skips_before_the_next_pair(self, table2_backend, table2_scorer,
                                                      monkeypatch):
        monkeypatch.setattr(core, "RUN_LENGTH", 2)
        similes = iter([parse_simile("It hummed like a zamboni."),
                        parse_simile("Love is like a unicorn."),
                        parse_simile("It hummed like a zamboni.")])
        stats = BuildStats()
        pairs = iter_parallel_corpus(similes, table2_backend, table2_scorer, stats=stats)
        assert next(pairs).target == "Love is like a unicorn."
        assert (stats.built, stats.skipped_no_properties) == (1, 1)
        assert next(similes).vehicle == "zamboni."


class TableBackend:
    """A knowledge backend answering from a dict, so properties can be any candidate."""

    def __init__(self, table):
        self.table = table

    def properties_of(self, concept, k):
        return self.table.get(concept, [])[:k]

    def properties_of_each(self, concepts, k):
        return [self.properties_of(concept, k) for concept in concepts]


def convert_one_at_a_time(similes, backend, scorer, corrector, k, stats):
    """The pairs of the conversion earlier versions made, one simile at a time, with
    each simile's candidates scored in a call of their own: the oracle of runs."""
    pairs = []
    for simile in similes:
        try:
            concept = simile.vehicle_phrase()
            found = properties_of(concept, k, backend)
            if not found:
                stats.skipped_no_properties += 1
                continue
            punct = terminal_punctuation(simile.raw_text)
            texts = [(simile.prefix + " " + prop.text).strip() + punct for prop in found]
            ppls = perplexities(texts, scorer)
            best = min(range(len(texts)), key=ppls.__getitem__)
            pair = ParallelPair(correct_grammar(texts[best], corrector), simile.raw_text,
                                found[best].text, concept, simile.source_id)
        except ValueError as exc:
            stats.failures.append((simile.source_id or simile.raw_text, str(exc)))
            continue
        stats.built += 1
        pairs.append(pair)
    return pairs


# Vehicles with several properties, with none, and with a blank one that leaves the
# candidate of an empty prefix without punctuation empty.
RUN_TABLE = {
    "rock": props("hard", "grey and hard", "loud", "solid"),
    "owl": props("wise", "quiet", "very very wise"),
    "ghost": [],
    "void": [PropertyCandidate(" ", 1.0)],
}
RUN_SCORER = BigramScorer(["The wall was hard.", "He was wise and quiet.",
                           "It was grey and hard.", "She was very quiet."])
SIMILES = st.builds(
    lambda prefix, vehicle, punct, source_id: SimileInstance(
        f"{prefix} like a {vehicle}{punct}".lstrip(), prefix, " like a " if prefix else "like a ",
        vehicle + punct, source_id),
    st.sampled_from(["", "The wall was", "He sat, calm", "It was"]),
    st.sampled_from(sorted(RUN_TABLE) + ["zamboni"]),
    st.sampled_from(["", ".", "!"]),
    st.sampled_from(["", "c1", "c2"]))


@given(similes=st.lists(SIMILES, max_size=12), run_length=st.integers(1, 5),
       k=st.integers(1, 4), scorer=st.sampled_from([RUN_SCORER, UniformScorer(7)]))
@settings(max_examples=200, deadline=None)
def test_runs_convert_as_one_simile_at_a_time(similes, run_length, k, scorer):
    """Pairs, counts and the order of the failures do not depend on how the similes
    fall into runs; a ValueError in mid-run drops only its own simile."""
    def add_comparator(text):  # the pair then breaks the source/target contract
        return text + " Like a drum." if text.startswith("He sat") else text

    backend = TableBackend(RUN_TABLE)
    expected_stats = BuildStats()
    expected = convert_one_at_a_time(similes, backend, scorer, add_comparator, k,
                                      expected_stats)
    saved = core.RUN_LENGTH  # a function-scoped monkeypatch spans examples
    core.RUN_LENGTH = run_length
    try:
        stats = BuildStats()
        pairs = list(iter_parallel_corpus(iter(similes), backend, scorer, add_comparator, k,
                                          stats))
    finally:
        core.RUN_LENGTH = saved
    assert pairs == expected
    assert (stats.built, stats.skipped_no_properties, stats.failures) == (
        expected_stats.built, expected_stats.skipped_no_properties, expected_stats.failures)


def test_one_lookup_and_one_scoring_call_per_run(toy_world, monkeypatch):
    monkeypatch.setattr(core, "RUN_LENGTH", 8)
    lookups, batches = [], []

    class Counting(TableBackend):
        def properties_of_each(self, concepts, k):
            lookups.append(len(concepts))
            return super().properties_of_each(concepts, k)

    class Recorder(TextRecorder):
        def perplexities(self, texts):
            batches.append(len(texts))
            return super().perplexities(texts)

    backend = Counting({simile.vehicle_phrase(): props("big", "small")
                        for simile in toy_world["similes"]})
    pairs = build_parallel_corpus(toy_world["similes"][:20], backend, Recorder())
    assert len(pairs) == 20
    assert lookups == [8, 8, 4]
    assert batches == [16, 16, 8]


def read_pairs_tsv(path) -> list[tuple[str, str]]:
    """The (source, target) pairs of a TSV, read as train reads them."""
    return list(read_records(path, lambda source, target: (source, target), fields=2))


class TestPairFiles:
    @pytest.fixture()
    def pairs(self):
        return [
            ParallelPair("Love is rare.", "Love is like a unicorn.", "rare", "unicorn", "c1"),
            ParallelPair("He ran fast.", "He ran like a deer.", "fast", "deer", "c2"),
        ]

    def test_tsv_round_trip(self, tmp_path, pairs):
        path = tmp_path / "pairs.tsv"
        write_pairs_tsv(pairs, path)
        assert read_pairs_tsv(path) == [(p.source, p.target) for p in pairs]

    def test_tsv_rejects_embedded_tabs(self, tmp_path):
        bad = ParallelPair("a\tb fast.", "a b like a c.", "fast", "c")
        with pytest.raises(ValueError):
            write_pairs_tsv([bad], tmp_path / "pairs.tsv")

    def test_tsv_rejects_malformed_rows(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("only one field\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_pairs_tsv(path)

    def test_audit_round_trip(self, tmp_path, pairs):
        path = tmp_path / "pairs.audit.jsonl"
        write_pairs_audit_jsonl(pairs, path)
        assert read_pairs_audit_jsonl(path) == pairs

    @pytest.mark.parametrize("audit", [True, False])
    def test_one_pass_writer_writes_what_the_two_writers_write(self, tmp_path, pairs, audit):
        write_pairs_tsv(pairs, tmp_path / "a.tsv")
        write_pairs_audit_jsonl(pairs, tmp_path / "a.jsonl")
        runs = [format_pairs(iter(pairs[:1]), audit), format_pairs(iter(pairs[1:]), audit)]
        write_pair_files(iter(runs), tmp_path / "b.tsv", tmp_path / "b.jsonl" if audit else None)
        assert (tmp_path / "b.tsv").read_bytes() == (tmp_path / "a.tsv").read_bytes()
        assert (tmp_path / "b.jsonl").exists() == audit
        if audit:
            assert (tmp_path / "b.jsonl").read_bytes() == (tmp_path / "a.jsonl").read_bytes()

    def test_failed_stream_replaces_neither_file(self, tmp_path, pairs):
        def crashing():
            yield from pairs
            raise RuntimeError("input went bad")

        tsv, audit = tmp_path / "pairs.tsv", tmp_path / "pairs.audit.jsonl"
        tsv.write_bytes(b"old tsv\n")
        audit.write_bytes(b"old audit\n")
        for write in (lambda: write_pair_files((format_pairs([p]) for p in crashing()), tsv, audit),
                      lambda: write_pairs_tsv(crashing(), tsv),
                      lambda: write_pairs_audit_jsonl(crashing(), audit)):
            with pytest.raises(RuntimeError):
                write()
            assert (tsv.read_bytes(), audit.read_bytes()) == (b"old tsv\n", b"old audit\n")
            assert sorted(p.name for p in tmp_path.iterdir()) == ["pairs.audit.jsonl",
                                                                  "pairs.tsv"]

    def test_tab_in_a_later_pair_writes_nothing(self, tmp_path, pairs):
        bad = ParallelPair("a\tb fast.", "a b like a c.", "fast", "c")
        with pytest.raises(ValueError):
            write_pair_files((format_pairs([p]) for p in pairs + [bad]), tmp_path / "pairs.tsv",
                             tmp_path / "a.jsonl")
        assert list(tmp_path.iterdir()) == []
