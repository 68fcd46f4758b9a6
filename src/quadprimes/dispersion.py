"""Dispersion decomposition for the quadratic-progression second moment.

For a window (t, t+Delta] and shifts k <= K, with A_k the Lambda-sum and
c_k the integer count,

    U(t) = sum_k A_k^2            (the double Lambda sum factors per k)
    V(t) = sum_k S(k) c_k A_k
    W(t) = sum_k S(k)^2 c_k^2

and U - 2V + W equals sum_k (A_k - S(k) c_k)^2 identically; identity_check
verifies both sides.  All three terms share the main term
(Delta^2 K / 4t) * prod_{p>2}(1 + 1/(p(p-1))), reported with each sample.
The direct triple sum m_tilde that recomputes it is a test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scan import ScanColumns, ScanConfig, _t_integral, _window_scans, sample_points
from .singular import CONSTANT_TRUNCATION, DEFAULT_TRUNCATION, main_term_constant


def reference_error(config: ScanConfig) -> float:
    """Reference error size E = Delta^2 K / (z (log z)^B)."""
    return config.delta**2 * config.K / (config.z * config.log_power)


@dataclass(frozen=True)
class DispersionSample:
    t: int
    U: float
    V: float
    W: float
    combined: float       # U - 2V + W
    direct_square: float  # sum_k (A_k - S(k) c_k)^2
    main_term: float      # (Delta^2 K / 4t) * main-term constant


def identity_check(config: ScanConfig, t: int, scan: ScanColumns,
                   constant: float) -> DispersionSample:
    """U, V, W and both sides of the expansion identity from the columns of
    the window (t, t+delta]; constant is the run's main_term_constant."""
    lam, counts, sing = scan.lambda_sum, scan.count, scan.singular
    U = float((lam * lam).sum())
    V = float((sing * counts * lam).sum())
    W = float((sing * sing * counts * counts).sum())
    main = config.delta**2 * config.K / (4.0 * t) * constant
    return DispersionSample(t=t, U=U, V=V, W=W, combined=U - 2 * V + W,
                            direct_square=scan.residual_square_sum, main_term=main)


def dispersion_profile(config: ScanConfig, P: int = DEFAULT_TRUNCATION,
                       grid_points: int = 64, seed: int | None = None):
    """Sample U, V, W, the identity and the main term at the sorted
    sample_points(z, grid_points, seed).

    Returns (samples, summary): the three integrals and the combined one over
    [z, 2z], estimated as theorem2_moment estimates its lhs, plus each term's
    deviation from the shared main term measured in units of E.
    """
    if config.delta < 1:
        raise ValueError("the dispersion terms need delta >= 1")
    ts = sorted(sample_points(config.z, grid_points, seed))
    constant = main_term_constant(CONSTANT_TRUNCATION)
    samples = [identity_check(config, t, scan, constant)
               for t, scan in _window_scans(config, ts, P)]
    E = reference_error(config)
    summary: dict = {"E": E}
    for name in ("U", "V", "W", "combined"):
        summary[f"integral_{name}"] = _t_integral(
            config.z, [getattr(s, name) for s in samples])[0]
    mains = np.asarray([s.main_term for s in samples])
    for name in ("U", "V", "W"):
        vals = np.asarray([getattr(s, name) for s in samples])
        summary[f"mean_{name}_minus_main_over_E"] = float(((vals - mains) / E).mean())
    summary["combined_integral_over_bound"] = (summary["integral_combined"]
                                               / config.theorem2_bound)
    summary["max_identity_residual"] = max(
        abs(s.combined - s.direct_square) / max(1.0, s.direct_square) for s in samples)
    return samples, summary
