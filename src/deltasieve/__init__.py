"""deltasieve: exact counts of square-free elliptic discriminants and the
complete-exponential-sum machinery behind their main-term constant."""

__version__ = "0.1.0"

from .arith import (
    Factorization,
    factorize,
    mobius,
    mod_inverse,
    rad_and_square_part,
    sqrt_mod_prime_power,
)
from .density import euler_product, paper_balance, per_prime_identity, sigma
from .expsum import (
    CongruenceFrame,
    DoubleSumSpec,
    E_sum,
    ExpSumValue,
    F_sum,
    PhasePolynomial,
    cal_E,
    evaluate_E_explicit,
    gauss_f,
    poisson_check,
    raw_phase_sum,
)
from .oscint import (
    G_eval,
    I1_G1_eval,
    I_eval,
    OscillatoryProblem,
    ParamContext,
    param_map,
)
from .sieve import CountConfig, CountResult, delta_value, exact_count, smoothed_count

__all__ = [
    "__version__",
    "Factorization",
    "factorize",
    "mobius",
    "mod_inverse",
    "rad_and_square_part",
    "sqrt_mod_prime_power",
    "euler_product",
    "paper_balance",
    "per_prime_identity",
    "sigma",
    "CongruenceFrame",
    "DoubleSumSpec",
    "E_sum",
    "ExpSumValue",
    "F_sum",
    "PhasePolynomial",
    "cal_E",
    "evaluate_E_explicit",
    "gauss_f",
    "poisson_check",
    "raw_phase_sum",
    "G_eval",
    "I1_G1_eval",
    "I_eval",
    "OscillatoryProblem",
    "ParamContext",
    "param_map",
    "CountConfig",
    "CountResult",
    "delta_value",
    "exact_count",
    "smoothed_count",
]
