"""Pseudospectra of dense matrices and diagonal block operator families.

The package is organised bottom-up:

* ``numkernel``      stacked complex LU, direct largest singular values, 2x2 closed forms
* ``operators``      operator descriptions: dense, scaled, diagonal block families,
                     truncations, operator sequences, the named example catalogue
* ``resolvent``      resolvent and resolvent-power norms with certified tail
                     handling for infinite block families
* ``pseudospectra``  norm fields on rectangular grids and level-set masks
* ``setgeom``        lattice mask geometry: Hausdorff distance, neighborhoods
* ``experiments``    reproducible studies backing the convergence and
                     counterexample claims, reported as StudyReport objects
* ``cli``            command-line front end
"""
from .errors import (
    ConfigurationError,
    DomainError,
    InapplicableConditionError,
    SingularityError,
)
from .numkernel import (
    SingularExtremes,
    largest_singular_value,
    smallest_singular_value,
    sv2x2,
)
from .operators import (
    AlphaRule,
    DenseOperator,
    DiagBlockFamily,
    NamedExample,
    OperatorSequence,
    ScaledOperator,
    SymbolSpec,
    TruncatedFamily,
    TruncationSequence,
    assemble_truncation,
    build_named_example,
    scale_operator,
)
from .pseudospectra import (
    AssumptionCheck,
    GridRegion,
    LevelSetMask,
    NormField,
    assumption_i_check,
    compute_norm_field,
    level_set,
    read_field_csv,
    read_mask_csv,
    region_with_step,
    write_field_csv,
    write_mask_csv,
)
from .resolvent import (
    PowerDiffBound,
    ResolventValue,
    ResolventValues,
    expansion_residual,
    gnr_defect,
    power_diff_bound_check,
    resolvent_norm,
    resolvent_power_norm,
)
from .setgeom import MaskSet, delta_neighborhood, hausdorff_distance
from .experiments import (
    StudyReport,
    constant_region_scan,
    convergence_study,
    counterexample_K_study,
    counterexample_const_study,
    decay_study,
    empty_resolvent_probe,
    global_min_scan,
    in_constant_region,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "DomainError",
    "InapplicableConditionError",
    "SingularityError",
    "SingularExtremes",
    "largest_singular_value",
    "smallest_singular_value",
    "sv2x2",
    "AlphaRule",
    "DenseOperator",
    "DiagBlockFamily",
    "NamedExample",
    "OperatorSequence",
    "ScaledOperator",
    "SymbolSpec",
    "TruncatedFamily",
    "TruncationSequence",
    "assemble_truncation",
    "build_named_example",
    "scale_operator",
    "PowerDiffBound",
    "ResolventValue",
    "ResolventValues",
    "expansion_residual",
    "gnr_defect",
    "power_diff_bound_check",
    "resolvent_norm",
    "resolvent_power_norm",
    "AssumptionCheck",
    "GridRegion",
    "LevelSetMask",
    "NormField",
    "assumption_i_check",
    "compute_norm_field",
    "level_set",
    "read_field_csv",
    "read_mask_csv",
    "region_with_step",
    "write_field_csv",
    "write_mask_csv",
    "MaskSet",
    "delta_neighborhood",
    "hausdorff_distance",
    "StudyReport",
    "constant_region_scan",
    "convergence_study",
    "counterexample_K_study",
    "counterexample_const_study",
    "decay_study",
    "empty_resolvent_probe",
    "global_min_scan",
    "in_constant_region",
    "__version__",
]
