"""Degree-22 catalog tests; determinants/signatures recomputed by the
lattice module act as the cross-check for the frozen Gram constants."""

import pytest

from kstab.k3cat import (
    BN_EXCLUDING_PAIRS,
    NODAL_PAIR,
    TYPE_PAIRS,
    cyclic_cover_volume,
    genus_volume,
    is_bn_excluding,
    k3_section_count,
    nl_gram,
    type_match,
)
from kstab.lattice import GramLattice, determinant, signature


class TestGrams:
    def test_type_one(self):
        assert nl_gram(22, 11, 4) == GramLattice([[22, 11], [11, 4]])

    def test_nodal(self):
        assert nl_gram(22, 0, -2) == GramLattice([[22, 0], [0, -2]])

    def test_degenerate_allowed(self):
        assert determinant(nl_gram(22, 0, 0)) == 0

    def test_odd_degree_rejected(self):
        with pytest.raises(ValueError):
            nl_gram(21, 0, 0)

    @pytest.mark.parametrize(
        "label,expected_det",
        [("I", -33), ("II", -37), ("III", -36), ("IV", -25)],
    )
    def test_type_determinants_and_signature(self, label, expected_det):
        h, m = TYPE_PAIRS[label]
        gram = nl_gram(22, h, m)
        assert determinant(gram) == expected_det
        assert signature(gram) == (1, 1, 0)


class TestMembership:
    def test_eleven_pairs(self):
        assert len(BN_EXCLUDING_PAIRS) == 11
        assert is_bn_excluding(1, 0)
        assert is_bn_excluding(11, 4)

    def test_nodal_not_excluding(self):
        assert not is_bn_excluding(0, -2)

    def test_type_matching(self):
        assert type_match(11, 4) == "I"
        assert type_match(5, 0) == "IV"
        assert type_match(0, -2) is None

    def test_double_tag_on_11_4(self):
        assert type_match(11, 4) == "I" and is_bn_excluding(11, 4)
        assert type_match(*NODAL_PAIR) is None and not is_bn_excluding(*NODAL_PAIR)

    def test_catalog_signatures(self):
        for h, m in {*TYPE_PAIRS.values(), *BN_EXCLUDING_PAIRS, NODAL_PAIR}:
            gram = nl_gram(22, h, m)
            assert determinant(gram) < 0
            assert signature(gram) == (1, 1, 0)


class TestNumerics:
    def test_section_count(self):
        assert k3_section_count(8) == 6
        assert k3_section_count(0) == 2
        assert k3_section_count(22) == 13

    def test_section_count_odd_rejected(self):
        with pytest.raises(ValueError):
            k3_section_count(7)

    def test_genus_volume(self):
        assert genus_volume(22, "volume->genus") == 12
        assert genus_volume(2, "genus->volume") == 2
        assert genus_volume(18, "volume->genus") == 10

    def test_round_trips(self):
        for g in range(2, 40):
            assert genus_volume(genus_volume(g, "genus->volume"), "volume->genus") == g
        for v in range(2, 80, 2):
            assert genus_volume(genus_volume(v, "volume->genus"), "genus->volume") == v

    def test_parity_violations(self):
        with pytest.raises(ValueError):
            genus_volume(21, "volume->genus")
        with pytest.raises(ValueError):
            genus_volume(1, "genus->volume")

    def test_cyclic_cover(self):
        assert cyclic_cover_volume(1) == 22
        assert cyclic_cover_volume(2) == 88
        assert cyclic_cover_volume(3) == 198
