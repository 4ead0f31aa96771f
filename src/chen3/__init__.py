"""Sieve-weight and Fourier-transference toolkit for additive prime problems
at desk scale."""

__version__ = "0.1.0"

from .arith_core import (
    EULER_GAMMA,
    FactorTable,
    build_factor_table,
    chen_primes,
    classify_chen,
    is_prime_u64,
    mult_functions,
    primes_up_to,
    primorial,
    singular_series_S1,
)
from .circle_method import (
    ArcDissection,
    ExpSumResult,
    SieveContext,
    bv_delta,
    exp_sum,
    major_arc_model,
    minor_major_contrast,
    spm_comparison,
    tau_star,
)
from .errors import (
    Chen3Error,
    ConfigError,
    DomainError,
    InvariantError,
    PaperAssertionError,
    ResourceBudgetError,
)
from .goldbach_verify import Representation, find_representations, range_survey
from .rosser_sieve import (
    LinearSieveFns,
    RosserWeights,
    build_rosser,
    linear_sieve_F_f,
    sandwich_check,
    sieve_main_term,
)
from .selberg_sieve import (
    SelbergSystem,
    additive_energy,
    build_selberg,
    pair_count_bound,
    quadratic_form,
)
from .transference import (
    BohrSet,
    ParameterLedger,
    Spectrum,
    ZnWeight,
    bohr_set,
    build_weights,
    choose_parameters,
    convolve,
    pollard_check,
    run_transference,
    smooth_and_bound,
    spectrum,
    split_residues,
    triple_sum,
)
