"""degenlab: exact verification of small-level anticommutative degenerations."""

from .exactnum import (
    DivisionByZero,
    ZPoly,
    parse_rational_function,
)
from .linalg import (
    Partition,
    Singular,
    invert,
    kernel_basis,
    rank,
)
from .algebra import (
    DimensionMismatch,
    StructureTensor,
    annihilator,
    change_basis,
    dim_square,
    engel_degree,
    identity_flags,
    is_nilpotent,
    left_mult_matrix,
    power_ideal,
    product,
)
from .contraction import (
    IncomparableMaxima,
    NotEngelAt,
    RankSequence,
    dominates,
    iw_max,
    rank_sequence,
)
from .degeneration import (
    AlgebraRef,
    ClosedSetSpec,
    DegenerationCertificate,
    NonDegenerationWitness,
    Records,
    SingularFamily,
    UnknownKind,
    Verdict,
    apply_parameterized_basis,
    closed_set_member,
    lower_triangular_invariance_probe,
    randomized_orbit_refute,
    verify_degeneration,
    verify_nondegeneration,
)
from .catalog import (
    CatalogName,
    DimensionOutOfRange,
    LevelAtLeast6,
    LevelValue,
    NeedsExtension,
    PreconditionViolated,
    classify_T22,
    expected_iw_max,
    instantiate,
    level_lookup,
    parse_name,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
