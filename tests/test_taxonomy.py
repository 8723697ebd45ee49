"""Class-code parsing, hierarchy navigation, and the code registry."""

import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from icevision_kit.taxonomy import (
    ClassCode,
    Taxonomy,
    parse_code,
)


class TestParseCode:
    def test_two_segments(self):
        assert parse_code("3.24").segments == (3, 24)

    def test_three_segments(self):
        assert parse_code("5.19.1").segments == (5, 19, 1)

    def test_single_segment(self):
        assert parse_code("7").segments == (7,)

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="^non-numeric segment '' in code '3..24'$"):
            parse_code("3..24")

    def test_empty_string_rejected(self):
        with pytest.raises(ValueError, match="^empty class code$"):
            parse_code("")

    # str.isdigit accepts "²" (which int() rejects), "٣" (read as 3) and
    # fullwidth digits; a segment is ASCII digits only
    @pytest.mark.parametrize("text", ["3.x", "3.\u00b2", "\u0663.1", "3.\uff12\uff14"])
    def test_non_numeric_rejected(self, text):
        with pytest.raises(ValueError, match=f"^non-numeric segment .* in code {re.escape(repr(text))}$"):
            parse_code(text)

    def test_four_segments_rejected(self):
        with pytest.raises(ValueError, match=re.escape("code must have 1..3 segments, got (1, 2, 3, 4)")):
            parse_code("1.2.3.4")

    def test_zero_segment_rejected(self):
        with pytest.raises(ValueError, match=re.escape("code segments must be >= 1, got (3, 0)")):
            parse_code("3.0")

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="^non-numeric segment '-3' in code '-3.24'$"):
            parse_code("-3.24")

    @given(
        st.lists(st.integers(min_value=1, max_value=99), min_size=1, max_size=3)
    )
    def test_round_trips_through_text(self, segments):
        code = ClassCode(segments=tuple(segments))
        assert parse_code(str(code)) == code


class TestHierarchy:
    def test_parent_chain(self):
        assert parse_code("5.19.1").parent == parse_code("5.19")
        assert parse_code("5.19").parent == parse_code("5")
        assert parse_code("5").parent is None

    def test_level(self):
        assert parse_code("3").level == 1
        assert parse_code("3.24").level == 2
        assert parse_code("5.19.1").level == 3

    def test_prefix(self):
        assert parse_code("5.19.1").prefix(2) == parse_code("5.19")
        assert parse_code("5.19.1").prefix(1) == parse_code("5")
        assert parse_code("5.19.1").prefix(3) == parse_code("5.19.1")

    @pytest.mark.parametrize("level", [0, -1, 4])
    def test_prefix_out_of_range(self, level):
        with pytest.raises(ValueError, match=f"^level {level} out of range for 5.19.1$"):
            parse_code("5.19.1").prefix(level)

    def test_repeated_codes_are_one_instance(self):
        code = parse_code("5.19.1")
        assert parse_code("5.19.1") == code and parse_code("5.19.1") is code
        assert code.parent is code.prefix(2) and code.parent.parent is code.prefix(1)
        assert code.prefix(2) == ClassCode((5, 19))
        for _ in range(2):
            with pytest.raises(ValueError, match="^non-numeric segment 'x' in code '5.x'$"):
                parse_code("5.x")

    def test_superclass_strict_prefix(self):
        assert parse_code("3.24").is_superclass_of(parse_code("3.24.1"))
        assert not parse_code("3.24").is_superclass_of(parse_code("3.24"))
        assert not parse_code("3.25").is_superclass_of(parse_code("3.24.1"))

    def test_superclass_of_ancestors_holds_for_level3(self):
        code = parse_code("5.19.1")
        assert code.parent.is_superclass_of(code)
        assert code.parent.parent.is_superclass_of(code)

    @given(
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
        st.lists(st.integers(min_value=1, max_value=20), min_size=1, max_size=3),
    )
    def test_superclass_irreflexive_and_transitive(self, a, b, c):
        ca, cb, cc = (ClassCode(segments=tuple(s)) for s in (a, b, c))
        assert not ca.is_superclass_of(ca)
        if ca.is_superclass_of(cb) and cb.is_superclass_of(cc):
            assert ca.is_superclass_of(cc)

    def test_canonical_ordering(self):
        codes = [parse_code(t) for t in ("3.24.1", "3.24", "3", "3.25", "10.1")]
        ordered = sorted(codes)
        assert [str(c) for c in ordered] == ["3", "3.24", "3.24.1", "3.25", "10.1"]


class TestTaxonomy:
    def test_from_text_and_contains(self):
        tax = Taxonomy.from_text("# comment\n3.24\n5.19.1\n5.19.2\n")
        assert parse_code("3.24") in tax.leaves
        assert parse_code("5.19.1") in tax.leaves
        assert parse_code("9.9.9") not in tax.leaves

    @pytest.mark.parametrize("sep", ["\f", "\v", "\x1c", "\x1d", "\x1e", "\x85", "\u2028",
                                     "\u2029"])
    def test_only_cr_and_lf_end_a_line(self, sep):
        # str.splitlines would also break at these, as a record file does not
        tax = Taxonomy.from_text(f"3.24  # speed{sep}5.19.1\n5.20\n")
        assert tax.leaves == (parse_code("3.24"), parse_code("5.20"))
        entry = f"3.24{sep}5.19.1"
        with pytest.raises(ValueError, match=re.escape(f"bad registry entry {entry!r}: ")):
            Taxonomy.from_text(entry)

    @pytest.mark.parametrize("end", ["\n", "\r", "\r\n"])
    def test_line_ends(self, end):
        tax = Taxonomy.from_text(f"3.24{end}{end}5.19.1  # note{end}5.20")
        assert tax.leaves == tuple(map(parse_code, ("3.24", "5.19.1", "5.20")))

    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="^duplicate registry entry 3.24$"):
            Taxonomy.from_text("3.24\n3.24\n")

    def test_siblings_same_parent_same_level(self):
        tax = Taxonomy.from_text("5.19.1\n5.19.2\n5.20\n3.24\n")
        sibs = tax.siblings(parse_code("5.19.1"))
        assert sibs == (parse_code("5.19.2"),)

    def test_siblings_exclude_self(self):
        tax = Taxonomy.from_text("5.19.1\n5.19.2\n")
        assert parse_code("5.19.1") not in tax.siblings(parse_code("5.19.1"))

    def test_siblings_match_full_scan(self):
        tax = Taxonomy.bundled()
        leaves = tax.leaves
        for code in leaves + (parse_code("5.19.9"), parse_code("99")):
            scan = tuple(
                c for c in leaves
                if c != code and c.level == code.level and c.parent == code.parent
            )
            assert tax.siblings(code) == scan

    def test_bundled_registry_loads(self):
        tax = Taxonomy.bundled()
        # the Russian code space holds close to 300 classes
        assert 250 <= len(tax.leaves) <= 350
        assert parse_code("3.24") in tax.leaves
        assert parse_code("5.19.1") in tax.leaves

    def test_bundled_every_leaf_round_trips(self):
        tax = Taxonomy.bundled()
        for leaf in tax.leaves:
            assert parse_code(str(leaf)) == leaf

    def test_bundled_is_parsed_once_and_shared(self):
        first, second = Taxonomy.bundled(), Taxonomy.bundled()
        assert first is second
        fresh = Taxonomy.from_text(
            resources.files("icevision_kit").joinpath("data", "ru_signs.txt").read_text("utf-8")
        )
        assert second.leaves == fresh.leaves
        for code in fresh.leaves:
            assert second.siblings(code) == fresh.siblings(code)
