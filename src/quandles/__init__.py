"""Exact computation with finite quandles.

Validation, standard families, inner automorphism groups, rack and quandle
homology, adjoint groups of connected Alexander quandles, and coverings ---
all over exact integer arithmetic.
"""

from .core import (
    AxiomViolation,
    FiniteQuandle,
    NotSurjective,
    QuandleProfile,
    dump_table,
    find_isomorphism,
    is_covering,
    is_homomorphism,
    load_table,
    validate,
)
from .families import (
    AlexanderModuleSpec,
    EvenCharacteristic,
    NonInvertibleT,
    SeedNotInvolution,
    alexander,
    conjugation_reflections,
    coxeter_reflection_quandle,
    dihedral,
    spherical,
    symplectic,
    trivial,
)
from .fields import FiniteField, FiniteFieldSpec
from .groups import GroupTable, InvalidGroupTable, named_group
from .homology import (
    RackComplexSlice,
    SizeCap,
    adjoint_abelianization,
    homology,
    quandle_h2,
)
from .intlin import AbelianGroupInvariants, SparseIntMatrix, smith_normal_form
from .perms import PermGroup, closure_order
from .adjoint import (
    ClauwensGroup,
    IdentityFailed,
    NotConnected,
    action_kernel,
    clauwens_group,
    eisermann_h2,
    group_h2_bar,
    verify_homotopy_2,
    verify_homotopy_3,
)
from .coverings import universal_covering_alexander
from .grid import standard_grid

__all__ = [
    "AbelianGroupInvariants",
    "AlexanderModuleSpec",
    "AxiomViolation",
    "ClauwensGroup",
    "EvenCharacteristic",
    "FiniteField",
    "FiniteFieldSpec",
    "FiniteQuandle",
    "GroupTable",
    "IdentityFailed",
    "InvalidGroupTable",
    "NonInvertibleT",
    "NotConnected",
    "NotSurjective",
    "PermGroup",
    "SeedNotInvolution",
    "QuandleProfile",
    "RackComplexSlice",
    "SizeCap",
    "SparseIntMatrix",
    "action_kernel",
    "adjoint_abelianization",
    "alexander",
    "clauwens_group",
    "closure_order",
    "conjugation_reflections",
    "coxeter_reflection_quandle",
    "dihedral",
    "dump_table",
    "eisermann_h2",
    "find_isomorphism",
    "group_h2_bar",
    "homology",
    "is_covering",
    "is_homomorphism",
    "load_table",
    "named_group",
    "quandle_h2",
    "smith_normal_form",
    "spherical",
    "standard_grid",
    "symplectic",
    "trivial",
    "universal_covering_alexander",
    "validate",
    "verify_homotopy_2",
    "verify_homotopy_3",
]

__version__ = "0.1.0"
