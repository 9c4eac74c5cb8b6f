"""Normalization and alias-matching behavior."""

import unicodedata

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles.textnorm_ref import normalize_ref

from entrl import GoldEntitySet, match_entity, normalize
from entrl import textnorm


class TestNormalize:
    def test_lowercases(self):
        assert normalize("MUNICH") == "munich"

    def test_strips_diacritics(self):
        assert normalize("café") == "cafe"
        assert normalize("naïve") == "naive"
        assert normalize("Müller-Straße") == "muller-straße"

    def test_precomposed_and_combining_agree(self):
        # U+00E9 vs e + U+0301 must normalize identically.
        assert normalize("café") == normalize("café") == "cafe"

    def test_collapses_whitespace(self):
        assert normalize("  Los   Angeles \t City\n") == "los angeles city"

    def test_mark_between_spaces_leaves_single_space(self):
        assert normalize("a ́ b") == "a b"

    def test_caseless_scripts_pass_through(self):
        assert normalize("東京") == "東京"
        assert normalize("서울") == "서울"

    def test_cased_non_latin(self):
        assert normalize("МОСКВА") == "москва"
        assert normalize("ΑΘΗΝΑ") == "αθηνα"

    def test_nonzero_class_marks_strip_zero_class_stay(self):
        # Thai MAI THO (combining class 107) strips; SARA AM (class 0) stays.
        assert normalize("น้ำ") == "นำ"

    def test_empty_and_whitespace_only(self):
        assert normalize("") == ""
        assert normalize(" \t\n ") == ""

    # Any text, and ASCII-only text, which takes normalize's short path.
    @given(st.text(max_size=80) | st.text(alphabet=st.characters(max_codepoint=0x7F), max_size=80))
    @example("a\x0bb\x0cc\x1cd\x1de\x1ff\x1eg")   # ASCII control whitespace
    @example(" \x1c\x1d\x1e\x1f ")
    @example("A\x85B\u2028C")                      # non-ASCII whitespace
    @example("\u0130stanbul")                       # lowercases to i + U+0307
    @example("\u212aelvin")                         # Kelvin sign lowercases to ASCII k
    @example(unicodedata.normalize("NFD", "Đà Nẵng Île-de-France"))
    @example("MÜNCHEN")
    @settings(max_examples=500)
    def test_matches_reference(self, text):
        assert normalize(text) == normalize_ref(text)

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=80))
    @settings(max_examples=300)
    def test_output_shape(self, text):
        out = normalize(text)
        assert out == out.strip()
        assert "  " not in out
        assert all(unicodedata.combining(ch) == 0 for ch in out)

    @given(st.text(alphabet=st.characters(categories=["Lu", "Ll", "Nd"]), max_size=30))
    @settings(max_examples=200)
    def test_concatenation_with_space_separator(self, text):
        # A space separator keeps normalization compositional for scripts
        # whose characters do not compose across the boundary.
        joined = normalize(text + " " + text)
        part = normalize(text)
        assert joined == (part + " " + part if part else "")


class TestGoldEntitySet:
    def test_normalizes_aliases_on_construction(self):
        gold = GoldEntitySet("e0", ("Café du Monde", "CAFE"))
        assert gold.normalized_aliases == ("cafe du monde", "cafe")

    def test_accepts_list_input(self):
        gold = GoldEntitySet("e0", ["A", "B"])
        assert gold.aliases == ("A", "B")

    @pytest.mark.parametrize("aliases", ["Munich", ""])
    def test_rejects_a_bare_string(self, aliases):
        # Its characters would each become an alias: "Munich" would match any text with an "M".
        with pytest.raises(ValueError, match="^entity 'e0': aliases must be a sequence of strings, not a str$"):
            GoldEntitySet("e0", aliases)

    def test_rejects_empty_alias_list(self):
        with pytest.raises(ValueError, match="empty alias list"):
            GoldEntitySet("e0", ())

    def test_rejects_alias_normalizing_to_empty(self):
        with pytest.raises(ValueError, match="normalize to empty"):
            GoldEntitySet("e0", ("ok", " ́ "))

    def test_alias_memo_stays_bounded(self):
        memo, size, cap = textnorm._memo_normalize, textnorm.ALIAS_MEMO_SIZE, textnorm.ALIAS_MEMO_CHARS
        # Distinct aliases, a third of them non-ASCII, more than the memo holds.
        short = [f"Alias {i} " + ("Zürich" if i % 3 else "Zurich") for i in range(size + 500)]
        for i in range(0, len(short), 7):
            batch = tuple(short[i:i + 7])
            assert GoldEntitySet("e", batch).normalized_aliases == tuple(map(normalize_ref, batch))
            assert memo.cache_info().currsize <= size
        assert memo.cache_info().currsize == size
        # Aliases past the cap never enter the memo, not even on a repeat.
        before = memo.cache_info()
        long = ("x" * cap + "É", "Ő" * (cap + 1), " " + "a" * cap, "ß" * (1 << 16))
        for _ in range(2):
            gold = GoldEntitySet("e", long)
            assert gold.normalized_aliases == tuple(map(normalize_ref, long))
        assert memo.cache_info() == before
        # An alias of exactly the cap is memoized.
        GoldEntitySet("e", ("Ü" * cap,))
        assert memo.cache_info().misses == before.misses + 1


class TestMatchEntity:
    def test_exact_alias(self):
        gold = GoldEntitySet("e0", ("Munich",))
        assert match_entity("munich", gold) == 1

    def test_alias_inside_longer_text(self):
        gold = GoldEntitySet("e0", ("Munich",))
        assert match_entity("the city of MÜNICH is large", gold) == 1

    def test_any_alias_suffices(self):
        gold = GoldEntitySet("e0", ("München", "Munich"))
        assert match_entity("münchen", gold) == 1
        assert match_entity("munich", gold) == 1

    def test_no_match(self):
        gold = GoldEntitySet("e0", ("Munich",))
        assert match_entity("berlin", gold) == 0

    def test_diacritic_and_case_insensitive(self):
        gold = GoldEntitySet("e0", ("San José",))
        assert match_entity("SAN JOSE", gold) == 1

    def test_whitespace_layout_insensitive(self):
        gold = GoldEntitySet("e0", ("New  York"," City Hall "))
        assert match_entity("new york", gold) == 1
        assert match_entity("city\thall", gold) == 1

    def test_substring_semantics_cross_word(self):
        # Containment is by design: no word-boundary requirement.
        gold = GoldEntitySet("e0", ("cat",))
        assert match_entity("concatenate", gold) == 1

    def test_returns_int(self):
        gold = GoldEntitySet("e0", ("x",))
        assert match_entity("x", gold) is not True
        assert match_entity("x", gold) == 1

    @given(st.text(alphabet=st.characters(categories=["Ll", "Nd"]), min_size=1, max_size=10),
           st.text(alphabet=st.characters(categories=["Ll", "Nd"]), max_size=20))
    @settings(max_examples=200)
    def test_alias_embedded_always_matches(self, alias, suffix):
        gold = GoldEntitySet("e0", (alias,))
        assert match_entity(alias + " " + suffix, gold) == 1
