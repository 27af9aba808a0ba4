"""Exact lattice arithmetic for the correspondence between cubic fourfolds and K3 surfaces.

Integral quadratic forms, discriminant groups, the canonical A2 embedding
into the extended K3 lattice, Noether-Lefschetz classification, the
special-discriminant conditions with independent oracles, and the Mukai
vector calculus on algebraic cohomology.  All arithmetic is exact.
"""

from .errors import (
    CubicK3Error,
    DegenerateLattice,
    DependentGenerators,
    InvalidBound,
    InvalidDegree,
    InvalidLattice,
    InvalidMatrix,
    InvalidNLVector,
    InvalidParity,
    InvalidVector,
    NotHyperbolicPair,
    NotSpecialDiscriminant,
    SearchExhausted,
    UnknownLattice,
    ZeroVector,
)
from .lattice import (
    DiscGroup,
    GramLattice,
    IntMatrix,
    Sublattice,
    direct_sum,
    disc_group,
    divisibility,
    is_primitive,
    orthogonal_complement,
    saturation,
    signature,
    span_sublattice,
)
from .standard import (
    EichlerInvariant,
    NLCase,
    NLVectorReport,
    boundary_witnesses,
    canonical_embedding_report,
    classify_nl_vector,
    eichler_invariants,
    find_hyperbolic_AT,
    genus_compare,
    hassett_triple,
    kdoo_index,
    nl_vector,
    polarization_vector,
    standard_lattice,
)
from .conditions import (
    ConditionFlags,
    PellSolution,
    a2_bruteforce,
    a2_represents,
    boundary_count,
    condition_flags,
    pell_brakkee,
    table,
    witness_ss,
    witness_sss,
)
from .mukai import (
    CohClass,
    MukaiSet,
    a2_mukai_gram,
    characteristic_classes,
    euler_line,
    mukai_pairing,
    mukai_set,
    mukai_vector_line,
    project_right,
    u_classes,
)

__version__ = "0.1.0"
