"""Desk-scale numerical laboratory for primes in quadratic progressions n^2 + k."""

from .arith import PrimeTable, SieveWindow, euler_phi, mobius, primes_up_to, sieve_window
from .characters import (Character, CharacterTable, build_character_group,
                         primitive_characters)
from .dispersion import (DispersionSample, dispersion_profile, identity_check,
                         reference_error)
from .lemmas import (LemmaReport, large_sieve_avg_check, large_sieve_single_check,
                     legendre_sum_check, mean_square_check,
                     mean_square_twisted_check, phi_average_check,
                     polya_vinogradov_check, short_ap_check)
from .scan import (MomentReport, ScanColumns, ScanConfig, exceptional_set,
                   full_window_moment, scan_all_k, theorem2_moment)
from .singular import (batch_singular_values, class_numbers, main_term_constant,
                       singular_error_bound)

__version__ = "0.1.0"

__all__ = [
    "PrimeTable", "SieveWindow", "euler_phi", "mobius", "primes_up_to",
    "sieve_window",
    "Character", "CharacterTable", "build_character_group",
    "primitive_characters",
    "batch_singular_values", "class_numbers", "main_term_constant",
    "singular_error_bound",
    "MomentReport", "ScanColumns", "ScanConfig", "exceptional_set",
    "full_window_moment", "scan_all_k", "theorem2_moment",
    "DispersionSample", "dispersion_profile", "identity_check",
    "reference_error",
    "LemmaReport", "large_sieve_avg_check", "large_sieve_single_check",
    "legendre_sum_check", "mean_square_check", "mean_square_twisted_check",
    "phi_average_check", "polya_vinogradov_check", "short_ap_check",
    "__version__",
]
