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
"""

from .errors import (
    CertificateViolation,
    DegenerateLattice,
    DegeneratePolytope,
    DependentBasis,
    DomainError,
    GroupTooLarge,
    IndefiniteSupport,
    InvalidModel,
    InvariantViolation,
    IrrationalWall,
    KstabError,
    ModelFileError,
    NonpositiveVolume,
    NotPseudoEffective,
    NotReflexive,
    OddLattice,
    OriginNotInterior,
    UnboundedDirection,
    WallCrossingDegeneracy,
)
from .intersect import (
    Chamber,
    SurfaceModel,
    ThreefoldModel,
    anticanonical_volume,
    bl_p3_quintic,
    blowup_node,
    blowup_p3_curve,
    blowup_v4_conic,
    dp4_surface,
    quadric_surface,
    restrict_to_surface,
    sing_line_model,
    triple_product,
)
from .invariants import (
    DivisorialVerdict,
    FlagReport,
    beta,
    refined_s_flag,
    s_invariant,
    sing_line_bound,
)
from .k3cat import (
    BN_EXCLUDING_PAIRS,
    TYPE_PAIRS,
    CatalogEntry,
    NLDivisorRecord,
    catalog,
    cyclic_cover_volume,
    genus_volume,
    is_bn_excluding,
    k3_section_count,
    nl_gram,
    type_match,
)
from .lattice import (
    DiscriminantGroup,
    GramLattice,
    Overlattice,
    determinant,
    discriminant_bilinear,
    discriminant_group,
    discriminant_quadratic,
    even_overlattices,
    integer_search_quadratic,
    is_primitivity_forced,
    is_saturated,
    isotropic_elements,
    signature,
    smith_normal_form,
)
from .models import (
    PRESET_NAMES,
    format_class,
    load_model,
    parse_class_expr,
    parse_model,
    preset,
    serialize_model,
)
from .poly import (
    PiecewisePolynomial,
    Polynomial,
    check_c1,
    format_polynomial,
    integrate_piecewise,
    parse_polynomial,
    rational_roots_in_interval,
)
from .toric import (
    LatticePolytope,
    anticanonical_degree,
    barycenter,
    is_reflexive,
    polar_dual,
    toric_kps_check,
)
from .toric import volume as polytope_volume
from .verify import verify_paper
from .zariski import (
    FlagCell,
    FlagChamber,
    FlagDecomposition,
    VolumeChamber,
    VolumeFunction,
    ZariskiResult,
    one_param_volume,
    pseff_threshold,
    threefold_volume_certified,
    two_param_flag_volume,
    volume,
    zariski_decompose,
)

__version__ = "0.1.0"
