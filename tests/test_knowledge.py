"""Property lookup: edge tables, remote adapter contract, reverse retrieval."""

import sys

import pytest
from hypothesis import given, strategies as st

from similekit.backends import BackendUnavailable, JsonSubprocessBackend
from similekit.core import ParseError
from similekit.knowledge import (
    EMPTY_SYNONYMS,
    EdgeTableBackend,
    KnowledgeEdge,
    PropertyCandidate,
    RemoteKnowledgeBackend,
    SynonymTable,
    load_edge_table,
    properties_of,
    properties_of_each,
    vehicle_for_property,
)


class TestEdgeTable:
    def test_table2_lists_exact(self, table2_backend, table2_rows):
        for row in table2_rows:
            cands = properties_of(row["vehicle"], 5, table2_backend)
            assert [c.text for c in cands] == row["properties"]

    def test_k_truncates(self, table2_backend):
        cands = properties_of("unicorn", 2, table2_backend)
        assert [c.text for c in cands] == ["very rare", "rare"]

    def test_k_larger_than_table(self, table2_backend):
        assert len(properties_of("unicorn", 50, table2_backend)) == 5

    def test_k_must_be_positive(self, table2_backend):
        with pytest.raises(ValueError):
            properties_of("unicorn", 0, table2_backend)

    def test_scores_descend(self, table2_backend):
        cands = properties_of("unicorn", 5, table2_backend)
        scores = [c.score for c in cands]
        assert scores == sorted(scores, reverse=True)

    def test_unknown_concept_empty(self, table2_backend):
        assert properties_of("zamboni", 5, table2_backend) == []

    def test_duplicate_rows_keep_max_weight(self):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("rock", "hard", 1.0),
                KnowledgeEdge("rock", "hard", 3.0),
                KnowledgeEdge("rock", "hard", 2.0),
            ]
        )
        assert backend.properties_of("rock", 5) == [PropertyCandidate("hard", 3.0)]

    def test_score_ties_break_lexicographically(self):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("rock", "solid", 2.0),
                KnowledgeEdge("rock", "grey", 2.0),
                KnowledgeEdge("rock", "hard", 2.0),
            ]
        )
        assert [c.text for c in backend.properties_of("rock", 3)] == ["grey", "hard", "solid"]

    def test_concept_lookup_normalized(self):
        backend = EdgeTableBackend([KnowledgeEdge("Charging  Bull", "fast", 1.0)])
        assert backend.properties_of("charging bull", 1) == [PropertyCandidate("fast", 1.0)]

    def test_out_of_order_backend_rejected(self):
        class Shuffled:
            def properties_of(self, concept, k):
                return [PropertyCandidate("a", 0.1), PropertyCandidate("b", 0.9)]

        with pytest.raises(BackendUnavailable):
            properties_of("rock", 2, Shuffled())

    def test_batch_is_each_lookup_in_order(self, table2_backend, table2_rows):
        vehicles = [row["vehicle"] for row in table2_rows] + ["zamboni", table2_rows[0]["vehicle"]]
        for k in (1, 3, 50):
            assert properties_of_each(vehicles, k, table2_backend) == [
                properties_of(vehicle, k, table2_backend) for vehicle in vehicles]
        with pytest.raises(ValueError, match="k must be >= 1"):
            properties_of_each(vehicles, 0, table2_backend)

    def test_out_of_order_batch_rejected(self):
        class Shuffled:
            def properties_of_each(self, concepts, k):
                return [[], [PropertyCandidate("a", 0.1), PropertyCandidate("b", 0.9)]]

        with pytest.raises(BackendUnavailable, match="out of score order"):
            properties_of_each(["rock", "owl"], 2, Shuffled())

    def test_nonpositive_weight_rejected(self):
        with pytest.raises(ValueError):
            KnowledgeEdge("rock", "hard", 0.0)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    def test_nonfinite_weight_and_score_rejected(self, value):
        with pytest.raises(ValueError):
            KnowledgeEdge("ox", "hungry", value)
        with pytest.raises(ValueError):
            PropertyCandidate("hungry", value)


class TestLoadEdgeTable:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("sunset\tbeautiful\t2.0\nsunset\tred\t1.0\n", encoding="utf-8")
        backend = load_edge_table(path)
        assert [c.text for c in backend.properties_of("sunset", 5)] == ["beautiful", "red"]

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "edges.tsv"
        path.write_text("\nsunset\tred\t1.0\n\n", encoding="utf-8")
        assert load_edge_table(path).properties_of("sunset", 1)[0].text == "red"

    @pytest.mark.parametrize(
        "bad_line,lineno",
        [
            ("sunset\tred", 2),
            ("sunset\tred\theavy", 2),
            ("sunset\tred\t-1.0", 2),
            ("\tred\t1.0", 2),
            ("ox\thungry\tnan", 2),
            ("ox\thungry\tinf", 2),
        ],
    )
    def test_parse_errors_carry_line_numbers(self, tmp_path, bad_line, lineno):
        path = tmp_path / "edges.tsv"
        path.write_text("sunset\tbeautiful\t2.0\n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            load_edge_table(path)
        assert exc.value.line_number == lineno
        assert str(exc.value).startswith(f"{path}:{lineno}: ")


class TestReverseLookup:
    def test_best_vehicle_is_max_weight(self):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("sunset", "beautiful", 3.0),
                KnowledgeEdge("rose", "beautiful", 2.0),
            ]
        )
        assert vehicle_for_property("beautiful", backend) == "sunset"

    def test_weight_tie_breaks_lexicographically(self):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("sunset", "beautiful", 2.0),
                KnowledgeEdge("rose", "beautiful", 2.0),
            ]
        )
        assert vehicle_for_property("beautiful", backend) == "rose"

    def test_absent_property_returns_none(self):
        backend = EdgeTableBackend([KnowledgeEdge("sunset", "beautiful", 1.0)])
        assert vehicle_for_property("funky", backend) is None

    def test_synonym_fallback(self):
        backend = EdgeTableBackend([KnowledgeEdge("sunset", "gorgeous", 1.0)])
        syns = SynonymTable({"beautiful": ["pretty", "gorgeous"]})
        assert vehicle_for_property("beautiful", backend, syns) == "sunset"

    def test_direct_hit_wins_over_synonyms(self):
        backend = EdgeTableBackend(
            [
                KnowledgeEdge("sunset", "beautiful", 1.0),
                KnowledgeEdge("rose", "gorgeous", 9.0),
            ]
        )
        syns = SynonymTable({"beautiful": ["gorgeous"]})
        assert vehicle_for_property("beautiful", backend, syns) == "sunset"

    def test_empty_property_rejected(self):
        with pytest.raises(ValueError):
            vehicle_for_property("  ", EdgeTableBackend([]))

    @given(st.lists(st.builds(KnowledgeEdge, st.sampled_from(["rose", "Rose", "oven", "owl", "sun"]),
                              st.sampled_from(["hot", "HOT", "wise", "red"]),
                              st.sampled_from([0.5, 1.0, 2.0, 1e300])), max_size=12))
    def test_best_concept_is_the_head_of_the_sorted_rows(self, edges):
        """The table keeps one row per property: the head of the full sorted list."""
        best: dict[tuple[str, str], float] = {}  # each (concept, property) at its max weight
        for e in edges:
            key = (e.concept.lower(), e.property.lower())
            best[key] = max(best.get(key, e.weight), e.weight)
        backend = EdgeTableBackend(edges)
        for prop in ("hot", "wise", "red", "cold"):
            rows = sorted((-weight, concept) for (concept, p), weight in best.items() if p == prop)
            assert backend.best_concept_for(prop) == (rows[0][1] if rows else None)


class TestSynonymTable:
    def test_load_keeps_file_order_dedupes(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text(
            "beautiful\tpretty\nbeautiful\tgorgeous\nbeautiful\tpretty\n", encoding="utf-8"
        )
        table = SynonymTable.load(path)
        assert table.synonyms_of("beautiful") == ["pretty", "gorgeous"]

    def test_missing_word_empty(self):
        assert EMPTY_SYNONYMS.synonyms_of("anything") == []

    def test_bad_row_raises(self, tmp_path):
        path = tmp_path / "syn.tsv"
        path.write_text("beautiful pretty\n", encoding="utf-8")
        with pytest.raises(ParseError):
            SynonymTable.load(path)


def write_reply_script(tmp_path, body: str):
    script = tmp_path / "kb.py"
    script.write_text(body, encoding="utf-8")
    return [sys.executable, str(script)]


class TestRemoteBackend:
    def test_json_contract(self, tmp_path):
        cmd = write_reply_script(
            tmp_path,
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            "assert req['relation'] == 'HasProperty'\n"
            "table = {'sunset': [\n"
            "    {'text': 'beautiful', 'score': 0.9},\n"
            "    {'text': 'red', 'score': 0.7},\n"
            "    {'text': 'warm', 'score': 0.5},\n"
            "]}\n"
            "print(json.dumps(table.get(req['concept'], [])[: req['k']]))\n",
        )
        backend = RemoteKnowledgeBackend(cmd)
        cands = properties_of("sunset", 2, backend)
        assert [c.text for c in cands] == ["beautiful", "red"]
        assert properties_of("zamboni", 2, backend) == []

    def test_a_batch_sends_each_distinct_concept_once(self, tmp_path):
        log = tmp_path / "concepts"
        cmd = write_reply_script(
            tmp_path,
            "import json, sys\n"
            "req = json.load(sys.stdin)\n"
            f"open({str(log)!r}, 'a').write(req['concept'] + '\\n')\n"
            "print(json.dumps([{'text': req['concept'] + '-ish', 'score': 1.0}]))\n",
        )
        concepts = ["sunset", "Sunset", "sunset", "rock", "Sunset"]
        found = properties_of_each(concepts, 2, RemoteKnowledgeBackend(cmd))
        assert found == [[PropertyCandidate(c + "-ish", 1.0)] for c in concepts]
        assert sorted(log.read_text(encoding="utf-8").split()) == ["Sunset", "rock", "sunset"]

    def test_a_batch_answer_of_the_wrong_length_is_unavailable(self, table2_backend):
        class Short:
            def properties_of_each(self, concepts, k):
                return table2_backend.properties_of_each(concepts[1:], k)

        with pytest.raises(BackendUnavailable, match="answered 1 of 2 concepts"):
            properties_of_each(["unicorn", "rock"], 2, Short())

    def test_nonzero_exit_raises(self, tmp_path):
        cmd = write_reply_script(tmp_path, "import sys\nsys.exit(3)\n")
        with pytest.raises(BackendUnavailable):
            RemoteKnowledgeBackend(cmd).properties_of("sunset", 2)

    def test_garbage_output_raises(self, tmp_path):
        cmd = write_reply_script(tmp_path, "print('not json')\n")
        with pytest.raises(BackendUnavailable):
            RemoteKnowledgeBackend(cmd).properties_of("sunset", 2)

    @pytest.mark.parametrize("reply", [
        [{"text": "red"}],
        [{"text": "red", "score": "nan"}],
        {},
        {"text": "red", "score": 1.0},
        [{"text": None, "score": 1.0}],
        [{"text": 7, "score": 1.0}],
        [{"text": "red", "score": True}],
        [{"text": "red", "score": "1.0"}],
        [{"text": "red", "score": None}],
        [{"text": "red", "score": 10 ** 400}],
    ], ids=["missing-score", "nan-score", "empty-object", "object", "null-text", "int-text",
            "bool-score", "string-score", "null-score", "huge-int-score"])
    def test_bad_reply_raises(self, tmp_path, reply):
        cmd = write_reply_script(tmp_path, f"import json\nprint(json.dumps({reply!r}))\n")
        with pytest.raises(BackendUnavailable, match="bad reply"):
            RemoteKnowledgeBackend(cmd).properties_of("sunset", 2)

    def test_missing_command_raises(self):
        backend = JsonSubprocessBackend(["/no/such/binary"])
        with pytest.raises(BackendUnavailable):
            backend.call({})

    def test_no_reverse_lookup(self, tmp_path):
        cmd = write_reply_script(tmp_path, "print('[]')\n")
        assert not hasattr(RemoteKnowledgeBackend(cmd), "best_concept_for")
        with pytest.raises(AttributeError):
            vehicle_for_property("beautiful", RemoteKnowledgeBackend(cmd))
