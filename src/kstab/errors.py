"""Exception hierarchy for the exact computation engine.

Every error raised on a bad input or a failed certificate derives from
:class:`KstabError`, so callers (notably the command line front end) can map
computation failures to a single exit code while genuine bugs still surface
as ordinary Python exceptions.
"""


class KstabError(Exception):
    """Base class for all expected computation errors."""


class InvariantViolation(KstabError):
    """An exact computation broke one of its own invariants.

    Examples are a remainder in a division that must be exact, or a
    non-integer where only integers can arise.  This means an engine bug;
    it is raised rather than asserted so that ``python -O`` keeps the check.
    """


class DomainError(KstabError):
    """An evaluation or integration range leaves the domain of a function."""


class IrrationalWall(KstabError):
    """A real but irrational root of a degree-2 polynomial in the search interval.

    Raised by ``poly.rational_roots_in_interval``, which refuses to
    approximate such a root.  Chamber walls never raise it: each is the root
    of an affine certificate with rational coefficients.
    """


class DegenerateLattice(KstabError):
    """A lattice operation needs a nondegenerate Gram matrix (det != 0)."""


class OddLattice(KstabError):
    """A discriminant quadratic form is only defined for even lattices."""


class GroupTooLarge(KstabError):
    """An enumeration exceeds the configured bound."""


class DependentBasis(KstabError):
    """A sublattice basis is linearly dependent."""


class NotPseudoEffective(KstabError):
    """A divisor class lies outside the declared effective cone."""


class UnboundedDirection(KstabError):
    """A threshold search is unbounded (Z is anti-effective for the cone)."""


class IndefiniteSupport(KstabError):
    """An accumulated Zariski support Gram is not negative definite.

    This is the canary for an incomplete or incorrect negative-curve list on
    the surface model.
    """


class WallCrossingDegeneracy(KstabError):
    """Two chamber walls coincide along a whole chamber."""


class CertificateViolation(KstabError):
    """A claimed chamber decomposition fails its nefness/effectivity checks."""


class InvalidModel(KstabError):
    """Model data is structurally inconsistent (symmetry, sizes, signs)."""


class ModelFileError(KstabError):
    """A model file cannot be parsed."""


class UnknownLabel(KstabError, KeyError):
    """A model, class or divisor name that is not declared.

    It is also a ``KeyError``, which is what a lookup by an unknown name
    raised before, so ``except KeyError`` still catches it.
    """

    __str__ = KstabError.__str__


class NonpositiveVolume(KstabError):
    """An S-invariant normalization needs a positive anticanonical volume."""


class OriginNotInterior(KstabError):
    """Polar duality needs the origin strictly inside the polytope."""


class DegeneratePolytope(KstabError):
    """The point set does not span a full-dimensional polytope."""


class NotReflexive(KstabError):
    """A toric criterion is only defined for reflexive polytopes."""
