"""Catalog of degree-22 polarized K3 lattice data.

The rank-2 lattices [[d, h], [h, m]] collected here classify the special
divisors in the moduli of degree-22 K3 surfaces that the engine's stability
computations refer back to: the four lattices attached to the one-nodal
degenerations (types I-IV), the eleven Brill-Noether-excluding pairs, and
the nodal pair (0, -2).  These are frozen input constants, not derived data;
reclassifying them from first principles is out of scope.

Classification helpers only apply to degree 22; nl_gram itself works for
any even degree.
"""

from __future__ import annotations

from .lattice import GramLattice

DEGREE = 22

# The eleven (h, m) pairs of degree-22 divisors excluded by Brill-Noether
# generality, in increasing h.
BN_EXCLUDING_PAIRS: tuple[tuple[int, int], ...] = (
    (1, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 0),
    (6, 0),
    (7, 2),
    (8, 2),
    (9, 2),
    (10, 4),
    (11, 4),
)

# (h, m) pairs of the lattices attached to one-nodal degenerations.
TYPE_PAIRS: dict[str, tuple[int, int]] = {
    "I": (11, 4),
    "II": (9, 2),
    "III": (6, 0),
    "IV": (5, 0),
}

NODAL_PAIR: tuple[int, int] = (0, -2)


def nl_gram(d: int, h: int, m: int) -> GramLattice:
    """Rank-2 Gram [[d, h], [h, m]] for a degree-d special-divisor lattice."""
    if d <= 0 or d % 2 != 0:
        raise ValueError("degree must be even and positive")
    return GramLattice([[d, h], [h, m]])


def is_bn_excluding(h: int, m: int) -> bool:
    """Membership of (h, m) in the eleven-pair degree-22 exclusion list."""
    return (h, m) in BN_EXCLUDING_PAIRS


def type_match(h: int, m: int) -> str | None:
    """Type label I..IV when (h, m) is one of the four one-nodal pairs."""
    for name, pair in TYPE_PAIRS.items():
        if pair == (h, m):
            return name
    return None


def k3_section_count(degree: int) -> int:
    """h^0 of a nef-and-big line bundle of the given degree on a K3: d/2 + 2."""
    if degree < 0 or degree % 2 != 0:
        raise ValueError("degree must be even and nonnegative")
    return degree // 2 + 2


def genus_volume(value: int, direction: str) -> int:
    """Bijection between genera g >= 2 and positive even volumes 2g - 2."""
    if direction == "genus->volume":
        if value < 2:
            raise ValueError("genus must be at least 2")
        return 2 * value - 2
    if direction == "volume->genus":
        if value <= 0 or value % 2 != 0:
            raise ValueError("volume must be even and positive")
        return value // 2 + 1
    raise ValueError("direction must be 'genus->volume' or 'volume->genus'")


def cyclic_cover_volume(m: int) -> int:
    """Anticanonical volume 22*m^2 of a degree-m cyclic cover of a genus-12 model."""
    if m < 1:
        raise ValueError("cover degree must be positive")
    return 22 * m * m
