"""kstab: exact-rational K-stability computations on Fano threefold models.

Everything is exact: scalars are fractions, volume functions are piecewise
polynomials with rational chamber walls, cone tests are rational linear
programs, and lattice invariants come from integer normal forms.  The
package has five computational layers:

- poly: polynomials in one or two variables, piecewise functions, exact
  integration, rational root location;
- lattice / k3cat: even lattices, discriminant forms, overlattices,
  saturation, and the frozen degree-22 catalog;
- intersect: threefold and surface intersection rings with the blowup
  presets;
- zariski / invariants: Zariski decompositions, certified one- and
  two-parameter volume functions, expected-vanishing and flag invariants;
- toric: rank-3 lattice polytopes, polar duality, the barycenter criterion.

The command line front end (``kstab``) exposes the same operations plus a
golden verification suite (``kstab verify-paper``).

Names load on first use: ``import kstab`` imports no layer, and
``from kstab import X`` (or ``kstab.X``) imports only the module that
defines X.  ``polytope_volume`` is ``toric.volume``; ``volume`` is
``zariski.volume``.
"""

import importlib

__version__ = "0.1.0"

_EXPORTS = {
    "errors": (
        "CertificateViolation",
        "DegenerateLattice",
        "DegeneratePolytope",
        "DependentBasis",
        "DomainError",
        "GroupTooLarge",
        "IndefiniteSupport",
        "InvalidModel",
        "InvariantViolation",
        "IrrationalWall",
        "KstabError",
        "ModelFileError",
        "NonpositiveVolume",
        "NotPseudoEffective",
        "NotReflexive",
        "OddLattice",
        "OriginNotInterior",
        "UnboundedDirection",
        "UnknownLabel",
        "WallCrossingDegeneracy",
    ),
    "intersect": (
        "Chamber",
        "SurfaceModel",
        "ThreefoldModel",
        "anticanonical_volume",
        "bl_p3_quintic",
        "blowup_node",
        "blowup_p3_curve",
        "blowup_v4_conic",
        "dp4_surface",
        "quadric_surface",
        "restrict_to_surface",
        "sing_line_model",
        "triple_product",
    ),
    "invariants": (
        "DivisorialVerdict",
        "FlagReport",
        "beta",
        "refined_s_flag",
        "s_invariant",
        "sing_line_bound",
    ),
    "k3cat": (
        "BN_EXCLUDING_PAIRS",
        "TYPE_PAIRS",
        "cyclic_cover_volume",
        "genus_volume",
        "is_bn_excluding",
        "k3_section_count",
        "nl_gram",
        "type_match",
    ),
    "lattice": (
        "DiscriminantGroup",
        "GramLattice",
        "Overlattice",
        "determinant",
        "discriminant_group",
        "discriminant_quadratic",
        "even_overlattices",
        "integer_search_quadratic",
        "is_primitivity_forced",
        "is_saturated",
        "isotropic_elements",
        "signature",
        "smith_normal_form",
    ),
    "models": (
        "PRESET_NAMES",
        "format_class",
        "load_model",
        "parse_class_expr",
        "parse_model",
        "preset",
        "serialize_model",
    ),
    "poly": (
        "PiecewisePolynomial",
        "Polynomial",
        "check_c1",
        "format_polynomial",
        "integrate_piecewise",
        "parse_polynomial",
        "rational_roots_in_interval",
    ),
    "toric": (
        "LatticePolytope",
        "anticanonical_degree",
        "barycenter",
        "is_reflexive",
        "polar_dual",
        "toric_kps_check",
    ),
    "verify": ("verify_paper",),
    "zariski": (
        "FlagCell",
        "FlagChamber",
        "FlagDecomposition",
        "VolumeChamber",
        "VolumeFunction",
        "ZariskiResult",
        "one_param_volume",
        "pseff_threshold",
        "threefold_volume_certified",
        "two_param_flag_volume",
        "volume",
        "zariski_decompose",
    ),
}

# public name -> (module, attribute)
_WHERE = {name: (module, name) for module, names in _EXPORTS.items() for name in names}
_WHERE["polytope_volume"] = ("toric", "volume")

_MODULES = frozenset(_EXPORTS) | {"cli", "lp", "rationals"}

__all__ = sorted(_WHERE)


def __getattr__(name: str):
    if name in _MODULES:
        return importlib.import_module(f"{__name__}.{name}")
    try:
        module, attr = _WHERE[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f"{__name__}.{module}"), attr)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
