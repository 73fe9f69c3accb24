"""Exact enumeration of generalized Gelfand-Tsetlin patterns, strict plane
partitions and semistandard tableaux, their q-analogs, and verification of
the closed-form counting identities they satisfy."""

from .exact import (
    LaurentPolyQ,
    NonExactDivision,
    QFraction,
    pochhammer,
    q_bracket,
    q_poch,
    qfrac_exact_div,
)
from .patterns import (
    DimensionMismatch,
    GenPattern,
    Partition,
    ShapeViolation,
    StrictPlanePartition,
    enumerate_spps,
    gt_to_spp,
    norm_of,
    sign_of,
    spp_to_gt,
    validate,
)
from .counting import (
    CountResult,
    TopRowKey,
    bruteforce_count,
    count_bounded_partitions,
    enumerate_patterns,
    f_bruteforce,
    f_recursive,
    fq_bruteforce,
    fq_recursive,
    spp_generating_function,
)
from .closedforms import (
    asm_product,
    bender_knuth_count,
    bender_knuth_gf,
    intro_binomial,
    refined_asm,
    ssyt_product,
    theorem_main_q,
    theorem_main_q_fraction,
    theorem_special,
    tsspp_product,
)
from .identities import (
    IntFunction,
    apply_D,
    apply_phi,
    apply_phi_q,
    verify_decomp,
    verify_decomp_q,
    verify_extra,
    verify_extra_q,
    verify_hyper,
    verify_lemma_2,
    verify_lemma_2q,
    verify_lemma_fund,
    verify_lemma_fund_all,
    verify_lemma_fund_q,
    verify_qpoch_sum,
    verify_qvand,
    verify_zeros,
)
from .tableaux import (
    f_ext,
    f_ext_recursive,
    ssyt_bruteforce,
    verify_part_formula,
    verify_sign_involution,
)
from .asm import (
    count_monotone_triangles,
    enumerate_monotone_triangles,
    verify_ratio_independence,
)

__version__ = "0.1.0"
