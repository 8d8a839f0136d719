"""Tokenizer, trigger parsing, modifier stripping, vehicle extraction, file reading."""

import functools
import hashlib
import json
import sys

import pytest
from hypothesis import given, strategies as st

import similekit
from similekit import knowledge
from similekit.core import (
    DEFAULT_TRIGGERS,
    NotModifierFinal,
    ParseError,
    SimileInstance,
    TriggerConfig,
    append_token,
    common_prefix_len,
    derive_seed,
    drop_dangling_comma,
    extract_generated_vehicle,
    fold,
    is_comparator,
    is_word,
    parse_simile,
    read_lines,
    read_records,
    rstrip_punct,
    split_sentences,
    strip_terminal_modifier,
    terminal_punctuation,
    text_of,
    tokenize,
    write_json,
    write_jsonl,
    write_lines,
)
from similekit.corpus import read_pairs_audit_jsonl
from similekit.evaluation import read_batch_jsonl, read_refs_jsonl
from similekit.harvest import read_literals_jsonl, read_similes_jsonl
from similekit.knowledge import SynonymTable, load_edge_table
from similekit.story import read_stories_jsonl
from similekit.tagging import DEFAULT_TAGGER, LexiconTagger

from test_corpus import read_pairs_tsv


class WordTagger:
    """A tagger of one's own: ADJ for the given words, X for any other token."""

    def __init__(self, *adjectives):
        self.adjectives = set(adjectives)

    def tag(self, token):
        return "ADJ" if token in self.adjectives else "X"


# Token alphabet with no vowels: can never collide with "like", "a", or "an".
words = st.text(alphabet="bcdfg", min_size=1, max_size=6)
word_lists = st.lists(words, min_size=1, max_size=8)


class TestTokenizer:
    def test_punctuation_separate(self):
        assert tokenize("Hello, world!") == ["Hello", ",", "world", "!"]

    def test_internal_apostrophe_kept(self):
        assert tokenize("Sir Francis's voice") == ["Sir", "Francis's", "voice"]

    def test_append_token_attaches_punctuation(self):
        assert functools.reduce(append_token, ["Hello", ",", "world", "!"], "") == "Hello, world!"

    def test_empty(self):
        assert tokenize("") == []
        assert append_token("", "!") == "!"

    @given(word_lists)
    def test_word_round_trip(self, ws):
        assert tokenize(" ".join(ws)) == ws

    def test_terminal_punctuation(self):
        assert terminal_punctuation("Love is rare.") == "."
        assert terminal_punctuation("The city was beautiful") == ""
        assert terminal_punctuation("What?!") == "?!"

    def test_split_sentences(self):
        assert split_sentences("One. Two! Three?") == ["One.", "Two!", "Three?"]
        assert split_sentences("line one\nline two.") == ["line one", "line two."]


class TestSimileInstance:
    def test_has_no_instance_dict(self):
        """Harvest holds every kept simile; slots keep each one small."""
        assert not hasattr(parse_simile("He ran like a deer."), "__dict__")


class TestParseSimile:
    def test_basic_split(self):
        inst = parse_simile("Love is like a unicorn.")
        assert inst.prefix == "Love is"
        assert inst.vehicle == "unicorn."

    def test_no_trigger(self):
        assert parse_simile("The city was beautiful") is None

    def test_comma_kept_in_prefix(self):
        inst = parse_simile("Sir Francis's voice was calm and quiet, like a breeze through a forest.")
        assert inst.prefix == "Sir Francis's voice was calm and quiet,"
        assert inst.vehicle == "breeze through a forest."

    def test_round_trip_exact(self):
        text = "Sir Francis's voice was calm and quiet, like a breeze through a forest."
        inst = parse_simile(text)
        assert inst.prefix + inst.comparator + inst.vehicle == text

    def test_requires_word_boundaries(self):
        assert parse_simile("I like apples") is None
        assert parse_simile("This is unlike a rock") is None

    def test_like_an_not_matched_by_default(self):
        assert parse_simile("She was like an angel.") is None

    def test_like_an_as_configured_extension(self):
        cfg = TriggerConfig(trigger_phrases=("like a", "like an"))
        inst = parse_simile("She was like an angel.", cfg)
        assert inst.vehicle == "angel."

    @pytest.mark.parametrize("phrases", [("as a",), (), ("like a", "like the")])
    def test_triggers_outside_comparators_rejected(self, phrases):
        with pytest.raises(ValueError):
            TriggerConfig(phrases)

    def test_triggers_fold_case_and_whitespace(self):
        cfg = TriggerConfig((" LIKE  An ", "like a"))
        assert cfg.trigger_phrases == ("like an", "like a")

    def test_first_occurrence_wins(self):
        inst = parse_simile("He ran like a wolf like a storm.")
        assert inst.prefix == "He ran"
        assert inst.vehicle == "wolf like a storm."

    def test_case_insensitive_preserves_text(self):
        inst = parse_simile("LOVE IS LIKE A UNICORN.")
        assert inst.comparator == " LIKE A "
        assert inst.raw_text == "LOVE IS LIKE A UNICORN."

    def test_empty_vehicle_is_absent(self):
        assert parse_simile("She sang like a") is None
        assert parse_simile("She sang like a .") is None

    def test_pronoun_topic_parses(self):
        inst = parse_simile("I feel like a fool")
        assert inst.vehicle == "fool"

    @given(st.lists(words, min_size=0, max_size=6), word_lists)
    def test_round_trip_property(self, prefix_ws, vehicle_ws):
        prefix = " ".join(prefix_ws)
        text = (prefix + " " if prefix else "") + "like a " + " ".join(vehicle_ws) + "."
        inst = parse_simile(text)
        assert inst is not None
        assert inst.prefix + inst.comparator + inst.vehicle == text
        assert inst.vehicle == " ".join(vehicle_ws) + "."

    @given(st.lists(words, min_size=0, max_size=4), word_lists, word_lists)
    def test_prefix_never_contains_trigger(self, pre, veh1, veh2):
        # Even with a second trigger inside the vehicle, the prefix stays clean.
        prefix = " ".join(pre)
        text = ((prefix + " ") if prefix else "") + "like a " + " ".join(veh1) \
            + " like a " + " ".join(veh2)
        inst = parse_simile(text)
        assert inst is not None
        assert parse_simile(inst.prefix) is None

    def test_instance_validates_round_trip(self):
        with pytest.raises(ValueError):
            SimileInstance(raw_text="a like a b", prefix="x", comparator=" like a ", vehicle="b")


class TestStripTerminalModifier:
    def test_adjective_final(self):
        s = strip_terminal_modifier("The city was beautiful", DEFAULT_TAGGER)
        assert (s.prefix, s.property, s.trailing) == ("The city was", "beautiful", "")

    def test_trailing_punctuation_reattachable(self):
        s = strip_terminal_modifier("Love is rare.", DEFAULT_TAGGER)
        assert (s.prefix, s.property, s.trailing) == ("Love is", "rare", ".")
        assert s.prefix + " " + s.property + s.trailing == "Love is rare."

    def test_clause_final_comma_stays_in_prefix(self):
        s = strip_terminal_modifier(
            "It was obscene, but she was drawn to it, fascinated", DEFAULT_TAGGER
        )
        assert s.property == "fascinated"
        assert s.prefix == "It was obscene, but she was drawn to it,"

    def test_noun_final_raises(self):
        with pytest.raises(NotModifierFinal):
            strip_terminal_modifier("He saw a dog", DEFAULT_TAGGER)

    def test_no_content_tokens_raises(self):
        with pytest.raises(NotModifierFinal):
            strip_terminal_modifier("...", DEFAULT_TAGGER)

    def test_adverb_final(self):
        s = strip_terminal_modifier("I start to prowl across the room warily", DEFAULT_TAGGER)
        assert s.property == "warily"
        assert DEFAULT_TAGGER.tag(s.property) == "ADV"

    @given(st.lists(words, min_size=1, max_size=6))
    def test_prefix_nonempty_for_two_content_tokens(self, ws):
        text = " ".join(ws) + " fgbd"
        tagger = WordTagger("fgbd")
        s = strip_terminal_modifier(text, tagger)
        assert s.prefix
        assert s.property == "fgbd"

    def test_drop_dangling_comma(self):
        assert drop_dangling_comma("It was obscene, but she was drawn to it,") == \
            "It was obscene, but she was drawn to it"
        assert drop_dangling_comma("The city was") == "The city was"


def lcp_suffix_oracle(gen, ref):
    """Brute-force longest-common-prefix discard over token lists."""
    i = 0
    for a, b in zip(gen, ref):
        if a != b:
            break
        i += 1
    return gen[i:]


class TestExtractGeneratedVehicle:
    def test_exact_prefix(self):
        out = extract_generated_vehicle("The city was like a painting", "The city was like a")
        assert out == ["painting"]

    def test_identical_returns_empty(self):
        assert extract_generated_vehicle("The city was like a", "The city was like a") == []

    def test_remnant_trigger_dropped_for_literal_reference(self):
        out = extract_generated_vehicle(
            "It was obscene, but she was drawn to it like a moth to a flame",
            "It was obscene, but she was drawn to it, fascinated",
        )
        assert out == ["moth", "to", "a", "flame"]

    def test_like_an_remnant_dropped(self):
        out = extract_generated_vehicle("The pie was like an oven.", "The pie was hot.")
        assert out == ["oven", "."]

    def test_matches_oracle_modulo_remnant(self):
        gen = "The night was like a velvet curtain."
        ref = "The night was dark."
        expected = lcp_suffix_oracle(tokenize(gen), tokenize(ref))
        assert expected[:2] == ["like", "a"]
        assert extract_generated_vehicle(gen, ref) == expected[2:]

    @given(st.lists(words, min_size=0, max_size=6), st.lists(words, min_size=0, max_size=6))
    def test_suffix_recovery_property(self, prefix_ws, suffix_ws):
        prefix = " ".join(prefix_ws)
        full = " ".join(prefix_ws + suffix_ws)
        assert extract_generated_vehicle(full, prefix) == suffix_ws

    @given(st.lists(words, min_size=0, max_size=8), st.lists(words, min_size=0, max_size=8))
    def test_oracle_agreement_without_triggers(self, gen_ws, ref_ws):
        # Vowel-free tokens cannot form a trigger remnant, so the brute-force
        # oracle and the implementation must agree exactly.
        gen, ref = " ".join(gen_ws), " ".join(ref_ws)
        assert extract_generated_vehicle(gen, ref) == lcp_suffix_oracle(gen_ws, ref_ws)


def old_prefix_len(a, b):
    """The common-prefix loop each caller used to spell out."""
    i = 0
    while i < len(a) and i < len(b) and a[i] == b[i]:
        i += 1
    return i


class TestSharedRules:
    """Each rule defined once in core equals the spellings it replaced."""

    def test_is_word_equals_isalnum_or_underscore_on_every_code_point(self):
        for code in range(sys.maxunicode + 1):
            ch = chr(code)
            assert is_word(ch) == (ch.isalnum() or ch == "_"), hex(code)

    @given(st.lists(st.sampled_from(["a", "b", "_x", ".", "!", ",", "\u00e9t\u00e9", "--"]),
                    max_size=8))
    def test_rstrip_punct_equals_pop_loop(self, tokens):
        popped = list(tokens)
        while popped and not popped[-1][0].isalnum() and popped[-1][0] != "_":
            popped.pop()
        assert rstrip_punct(tokens) == popped

    @given(st.lists(st.sampled_from("abc"), max_size=8),
           st.lists(st.sampled_from("abc"), max_size=8))
    def test_common_prefix_len_equals_loop(self, a, b):
        assert common_prefix_len(a, b) == old_prefix_len(a, b)

    @given(st.text(max_size=20))
    def test_fold_equals_inline_fold(self, text):
        assert fold(text) == " ".join(text.lower().split())

    @given(st.integers(-2**70, 2**70), st.text(max_size=30), st.none() | st.text(max_size=10),
           st.integers(0, 10**6))
    def test_derive_seed_equals_both_old_formulas(self, seed, text, prefix, index):
        decode = f"{seed}|{text}|{prefix or ''}".encode("utf-8")
        assert derive_seed(seed, text, prefix or "") == int.from_bytes(
            hashlib.sha256(decode).digest()[:8], "big")
        story = f"{seed}|{index}|{text}".encode()
        assert derive_seed(seed, index, text) == int.from_bytes(
            hashlib.sha256(story).digest()[:8], "big")


class TestReadRecords:
    """Every input-file reader reports a bad line as path:line: reason."""

    JSONL_READERS = {
        "similes": (read_similes_jsonl, "text"),
        "audit": (read_pairs_audit_jsonl, "source"),
        "refs": (read_refs_jsonl, "literal"),
        "stories": (read_stories_jsonl, "sentences"),
        "literals": (read_literals_jsonl, "text"),
        "batch": (read_batch_jsonl, "literal"),
    }

    @pytest.mark.parametrize("name", sorted(JSONL_READERS))
    @pytest.mark.parametrize("bad_line", ["{not json", "[1, 2]"])
    def test_undecodable_line_is_located(self, tmp_path, name, bad_line):
        path = tmp_path / "in.jsonl"
        path.write_text("\n" + bad_line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            self.JSONL_READERS[name][0](path)
        assert exc.value.line_number == 2
        assert str(exc.value).startswith(f"{path}:2: ")

    @pytest.mark.parametrize("name", sorted(n for n, (_, f) in JSONL_READERS.items() if f))
    def test_missing_field_is_named(self, tmp_path, name):
        read, field = self.JSONL_READERS[name]
        path = tmp_path / "in.jsonl"
        path.write_text("{}\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read(path)
        assert str(exc.value) == f"{path}:1: missing field '{field}'"

    @pytest.mark.parametrize("name, line, reason", [
        ("refs", '{"literal": "x"}', "missing field 'references'"),
        ("refs", '{"literal": "x", "references": "It was like ice."}',
         "'references' must be a list of strings"),
        ("refs", '{"literal": "x", "references": ["It was like ice.", 5]}',
         "'references' must be a list of strings"),
        ("stories", '{"sentences": "It was cold. It was late."}',
         "'sentences' must be a list of strings"),
        ("stories", '{"sentences": ["It was cold.", null]}',
         "'sentences' must be a list of strings"),
        ("stories", '{"sentences": ["It was cold."], "storyline": "winter"}',
         "'storyline' must be a list of strings"),
        ("batch", '{"literal": "x", "output": 5}', "'output' is int, not a string"),
        ("batch", '{"literal": "x", "output": null}', "'output' is NoneType, not a string"),
        ("batch", '{"literal": ["x"], "output": "y"}', "'literal' is list, not a string"),
        ("refs", '{"literal": 5, "references": []}', "'literal' is int, not a string"),
        ("stories", '{"title": ["a"], "sentences": ["It was cold."]}',
         "'title' is list, not a string"),
    ])
    def test_bad_value_is_located(self, tmp_path, name, line, reason):
        path = tmp_path / "in.jsonl"
        path.write_text("\n" + line + "\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            self.JSONL_READERS[name][0](path)
        assert str(exc.value) == f"{path}:2: {reason}"

    UTF8_READERS = {
        **{name: read for name, (read, _) in JSONL_READERS.items()},
        "pairs-tsv": read_pairs_tsv,
        "edges": load_edge_table,
        "synonyms": SynonymTable.load,
        "lines": lambda path: list(read_lines(path)),
    }

    @pytest.mark.parametrize("name", sorted(UTF8_READERS))
    @pytest.mark.parametrize("byte", [b"\xff", b"\xe9", b"\xed\xb2\x80"],
                             ids=["invalid", "latin-1", "encoded-surrogate"])
    def test_byte_not_utf8_is_located(self, tmp_path, name, byte):
        path = tmp_path / "in"
        path.write_bytes(b"\n" + b'{"text": "caf' + byte + b'"}\tb\n')
        with pytest.raises(ParseError) as exc:
            self.UTF8_READERS[name](path)
        assert str(exc.value) == f"{path}:2: byte {byte[0]:#04x} is not UTF-8"

    def test_on_error_gets_a_line_not_utf8(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_bytes(b'{"x": 1}\n{"x": "\xff"}\n{"x": "\xc3\xa9"}\n')
        errors = []
        assert list(read_records(path, lambda rec: rec["x"], on_error=errors.append)) == [1, "é"]
        assert [str(e) for e in errors] == [f"{path}:2: byte 0xff is not UTF-8"]

    def test_text_mode_newlines(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_bytes(b"a\tb\r\nc\td\re\tf\n")
        assert list(read_records(path, lambda *row: row, fields=2)) == [
            ("a", "b"), ("c", "d"), ("e", "f")]
        assert list(read_lines(path)) == ["a\tb", "c\td", "e\tf"]

    def test_tsv_field_count_is_located(self, tmp_path):
        path = tmp_path / "pairs.tsv"
        path.write_text("a\tb\n\na\tb\tc\n", encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            read_pairs_tsv(path)
        assert str(exc.value) == f"{path}:3: expected 2 tab-separated fields, got 3"

    def test_builder_gets_fields_as_arguments(self, tmp_path):
        path = tmp_path / "rows.tsv"
        path.write_text("a\tb\tc\n\nd\te\tf\n", encoding="utf-8")
        assert list(read_records(path, lambda *row: row, fields=3)) == [
            ("a", "b", "c"), ("d", "e", "f")]

    def test_on_error_gets_each_bad_line_and_skips_it(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"x": 1}\n{bad\n\n{"y": 2}\n{"x": 1e400}\n{"x": 3}\n',
                        encoding="utf-8")
        errors = []
        assert list(read_records(path, lambda rec: int(rec["x"]), on_error=errors.append)) == [
            1, 3]
        assert [(type(e), e.line_number) for e in errors] == [(ParseError, 2), (ParseError, 4),
                                                               (ParseError, 5)]
        assert str(errors[1]) == f"{path}:4: missing field 'x'"

    def test_overflow_is_located(self, tmp_path):
        path = tmp_path / "in.jsonl"
        path.write_text('{"x": 1e400}\n', encoding="utf-8")
        with pytest.raises(ParseError) as exc:
            list(read_records(path, lambda rec: int(rec["x"])))
        assert str(exc.value).startswith(f"{path}:1: cannot convert float infinity")

    @pytest.mark.parametrize("rec, error", [
        ({"text": 3}, "'text' is int, not a string"),
        ({"text": None}, "'text' is NoneType, not a string"),
        ({}, "'text'"),
    ])
    def test_text_of_requires_a_string(self, rec, error):
        with pytest.raises((KeyError, TypeError)) as exc:
            text_of(rec)
        assert str(exc.value) == error
        assert text_of({"text": "a like a b"}) == "a like a b"

    @pytest.mark.parametrize("phrase", [" like a ", "Like\tA", "like an", "LIKE  AN"])
    def test_is_comparator_folds(self, phrase):
        assert is_comparator(phrase)
        assert TriggerConfig((phrase,)).trigger_phrases == (fold(phrase),)

    @pytest.mark.parametrize("phrase", ["as a", "like", "like a a", ""])
    def test_is_comparator_refuses_other_phrases(self, phrase):
        assert not is_comparator(phrase)
        with pytest.raises(ValueError):
            TriggerConfig((phrase,))

    def test_one_parse_error_class(self):
        assert similekit.ParseError is ParseError
        assert not hasattr(knowledge, "ParseError")
        assert issubclass(ParseError, ValueError)


def records_then_crash():
    yield {"i": 0}
    yield {"i": 1}
    raise RuntimeError("input went bad")


class TestAtomicWrites:
    """An output is replaced only when its writer completes; no temporary file stays."""

    WRITERS = {
        "jsonl": lambda path: write_jsonl(records_then_crash(), path),
        "lines": lambda path: write_lines((f"{rec['i']}\n" for rec in records_then_crash()), path),
        # The bad value comes after the first key, whether it fails while writing or before.
        "json": lambda path: write_json({"a": 1, "b": object()}, path),
    }

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_write_leaves_the_old_file(self, tmp_path, name):
        path = tmp_path / "out"
        path.write_bytes(b"previous run\n")
        with pytest.raises((RuntimeError, TypeError)):
            self.WRITERS[name](path)
        assert path.read_bytes() == b"previous run\n"
        assert [p.name for p in tmp_path.iterdir()] == ["out"]

    @pytest.mark.parametrize("name", sorted(WRITERS))
    def test_failed_first_write_creates_nothing(self, tmp_path, name):
        with pytest.raises((RuntimeError, TypeError)):
            self.WRITERS[name](tmp_path / "out")
        assert list(tmp_path.iterdir()) == []

    def test_completed_write_replaces_the_file(self, tmp_path):
        path = tmp_path / "out.jsonl"
        path.write_bytes(b"previous run\n")
        write_jsonl([{"b": "é", "a": 1}], path)
        assert path.read_bytes() == '{"a": 1, "b": "é"}\n'.encode("utf-8")
        assert [p.name for p in tmp_path.iterdir()] == ["out.jsonl"]


class TestWriteJson:
    """write_json writes the bytes json.dump(obj, fh, indent=..., sort_keys=True) + "\n" wrote."""

    MODEL_STATE = {
        "drop_words": 1,
        "cue_suffixes": {"calme": {"roche </s>": 3}, "früh": {"a ß . </s>": 1}, "": {}},
        "bigram": {"<s>": {"Über": 2, "the": 5}, "日本": {"</s>": 1}},
        "floats": [0.1, 1e-300, 2.5e300, -0.0, 1 / 3, 123456789.125],
        "nested": [[], {}, [None, True, False, "tab\there", "quote\"", "\u2028"]],
    }
    MANIFEST = {"type": "template-ngram", "version": 1,
                "train_config": {"seed": 7, "epochs": 17, "batch_token_budget": 1024},
                "inputs": {"in/é.jsonl": "ab" * 32}, "outputs": ["out/a", "out/b"]}

    @pytest.mark.parametrize("obj, indent", [(MODEL_STATE, None), (MANIFEST, 2)],
                             ids=["model-state", "manifest"])
    def test_bytes_equal_json_dump(self, tmp_path, obj, indent):
        path, oracle = tmp_path / "written.json", tmp_path / "oracle.json"
        write_json(obj, path, indent=indent)
        with open(oracle, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=indent, sort_keys=True)
            fh.write("\n")
        assert path.read_bytes() == oracle.read_bytes()
        assert json.loads(path.read_text(encoding="utf-8")) == obj


class TestTagging:
    def test_lexicon_basics(self):
        t = LexiconTagger()
        assert t.tag("beautiful") == "ADJ"
        assert t.tag("warily") == "ADV"
        for other in ("dog", "was", ",", "3", ""):
            assert t.tag(other) == "X"

    def test_ly_exception_words_are_adjectives(self):
        t = LexiconTagger()
        assert t.tag("early") == "ADJ"
        assert t.tag("effortlessly") == "ADV"

    def test_suffix_adjectives(self):
        t = LexiconTagger()
        assert t.tag("catastrophic") == "ADJ"
        assert t.tag("luminous") == "ADJ"

    def test_case_folding(self):
        assert LexiconTagger().tag("Beautiful") == "ADJ"

    def test_extra_words(self):
        # The lexicon takes no extra words; a tagger of one's own supplies them.
        with pytest.raises(TypeError):
            LexiconTagger(extra_adjectives=["zorblike"])
        assert LexiconTagger().tag("zorblike") == "X"
        s = strip_terminal_modifier("It was zorblike.", WordTagger("zorblike"))
        assert (s.prefix, s.property, s.trailing) == ("It was", "zorblike", ".")
