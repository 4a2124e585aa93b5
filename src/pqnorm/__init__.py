"""Induced matrix Hölder norms, the norm-comparison bound, and the classes
of matrices attaining it.

The comparison bound states, for any n x m matrix A over the real or
complex field and any indices p, q, r, s in [1, inf]:

    ||A||_{r,s} <= m^{[(1/p)-(1/r)]_+} * n^{[(1/s)-(1/q)]_+} * ||A||_{p,q}.

This package computes induced norms (exactly where closed forms exist, by
certified enumeration or multistart ascent otherwise), evaluates the bound,
decides membership in the four equality classes E_1inf, E_11, E_infinf,
E_inf1 attached to the sign quadrants of (p-r, q-s), and constructs
matrices attaining the bound.
"""

from .core import (
    DEFAULT_TOL,
    ExtIndex,
    INF,
    KClassId,
    ONE,
    TWO,
    as_index,
    conjugate,
    index_str,
    k_class_test,
    sign_between,
    vector_comparison_factor,
    vector_equality_class,
    vector_norm,
)
from .induced_norms import (
    COMPLEX,
    Certainty,
    DimensionError,
    MatrixValue,
    NormResult,
    REAL,
    SvdConvergenceError,
    SvdFactors,
    as_matrix,
    best_norm,
    best_norms,
    maximizer_set_probe,
    norm_bruteforce,
    norm_closed_form,
    norm_estimate,
    norm_infty_one_exact,
    norm_ratio,
    svd,
)
from .bounds import (
    EXACT_EQ_TOL,
    BoundReport,
    NormBracket,
    bound_factor,
    bracket_norm,
    check_inequality,
    decide_equality,
    duality_check,
    inequality_grid_check,
    monotonicity_check,
    monotonicity_check_in_s,
    norm_upper_bound,
    transfer_equality,
)
from .equality_classes import (
    ClassId,
    ClassVerdict,
    Condition,
    DavReport,
    ExtremalStats,
    PreconditionError,
    check_E11,
    check_E1inf,
    check_Einf1,
    check_Einfinf,
    check_class,
    check_svd_equality,
    dav_normal_form,
    extremal_stats,
    maximizer_eigencheck,
    sufficient_e11,
    sufficient_e1inf,
    sufficient_einfinf,
)
from .generators import (
    GeneratorSpec,
    build_generator,
    extremal_pair_classes,
    gen_dft,
    gen_hadamard,
    gen_single_entry,
    gen_svd_extremal,
    gen_tensor_product,
    kclass_unit_vector,
    unitary_with_first_column,
)
from .matrixio import (
    MatrixFileError,
    dumps_matrix,
    format_float,
    load_matrix,
    loads_matrix,
    matrix_from_obj,
    matrix_to_obj,
    save_matrix,
)

__version__ = "1.0.0"
