"""Tests for the unicode folding table."""

from repro.normalize.unicode_map import FOLD_TABLE, fold


class TestFoldChar:
    def test_ascii_identity(self):
        for ch in "aZ0'\"; ":
            assert fold(ch) == ch

    def test_fullwidth_maps_to_ascii(self):
        assert fold("Ａ") == "A"
        assert fold("＇") == "'"
        assert fold("＝") == "="

    def test_smart_quote(self):
        assert fold("’") == "'"

    def test_unmapped_becomes_empty(self):
        assert fold("漢") == ""


class TestFoldTable:
    def test_covers_full_fullwidth_range(self):
        # U+FF01..U+FF5E maps onto U+0021..U+007E.
        for offset in range(0x5E):
            assert FOLD_TABLE[chr(0xFF01 + offset)] == chr(0x21 + offset)

    def test_all_values_ascii(self):
        for value in FOLD_TABLE.values():
            assert all(ord(ch) < 128 for ch in value)

    def test_ideographic_space(self):
        assert FOLD_TABLE["　"] == " "


class TestFold:
    def test_mixed_string(self):
        assert fold("ｓｅｌｅｃｔ ＊") == "select *"

    def test_dash_variants(self):
        assert fold("a–b—c−d") == "a-b-c-d"

    def test_empty(self):
        assert fold("") == ""
