"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Heavy scans are shared through module-scoped fixtures; everything here is
deterministic (fixed seeds), so the regression pins are stable.

Run `pytest tests/test_acceptance.py -v -s` to watch the criterion lines.
"""

import math
import random
import time

import numpy as np
import pytest

from oracles import (MTildeParams, identity_at, m_tilde, von_mangoldt, window_count,
                     window_lambda_sum)
from quadprimes.cli import main as cli_main
from quadprimes.dispersion import reference_error
from quadprimes.lemmas import (large_sieve_single_check, legendre_sum_check,
                               mean_square_check, mean_square_twisted_check,
                               phi_average_check, polya_vinogradov_check)
from quadprimes.arith import mobius
from quadprimes.characters import build_character_group, primitive_characters
from quadprimes.scan import ScanConfig, progression_sums, theorem2_moment
from quadprimes.singular import (DEFAULT_TRUNCATION, batch_singular_values,
                                 main_term_constant)

SEED = 20260808

# first-run pins (regression bands asserted alongside the hard criteria)
PIN_EXCEPTIONAL_FRACTION = 0.0089      # criterion 7, z=1e8, K=1e5
PIN_MTILDE_OVER_E = 0.695              # criterion 9, t = z = 1e6


CRITERION_LINES: list[str] = []


def note(criterion: int, passed: bool, detail: str):
    line = f"[criterion {criterion:2d}] {'PASS' if passed else 'FAIL'}: {detail}"
    CRITERION_LINES.append(line)
    print(line)


@pytest.fixture(scope="module")
def scan_z1e8():
    """A_k, c_k, S(k) at z=1e8, K=1e5 (shared by criteria 6 and 7)."""
    lam, counts, _ = progression_sums(10**8, 10**8, 10**5)
    sing = batch_singular_values(10**5, DEFAULT_TRUNCATION)
    return lam, counts.astype(np.float64), sing


# ---------------------------------------------------------------------------
# 1. dispersion identity
# ---------------------------------------------------------------------------

def test_criterion_01_dispersion_identity():
    started = time.perf_counter()
    checked = 0
    singular = batch_singular_values(50, DEFAULT_TRUNCATION)     # K <= 50 below

    def check(z, delta, K, t):
        nonlocal checked
        s = identity_at(ScanConfig(z=z, K=K, delta=delta), t, singular)
        assert abs(s.direct_square - s.combined) <= 1e-9 * max(1.0, s.direct_square), \
            (z, delta, K, t)
        checked += 1

    for z in (3, 10, 50, 100, 500, 1000, 5000, 10**4):
        for delta in (0, 10, 100):
            for K in (1, 5, 20):
                for j in range(16):
                    check(z, delta, K, z + (j * z) // 16)
    rng = random.Random(SEED)
    for _ in range(1000):
        z = rng.randint(3, 10**4)
        check(z, rng.randint(0, 200), rng.randint(1, 50), rng.randint(z, 2 * z))
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    note(1, True, f"{checked} instances, identity residual <= 1e-9, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. Legendre-symbol double sum, exact
# ---------------------------------------------------------------------------

def test_criterion_02_legendre_sum_exact():
    started = time.perf_counter()
    count = 0
    for l in range(1, 1001, 2):
        mu = mobius(l)
        if mu == 0:
            continue
        report = legendre_sum_check(l)
        assert report.passed and report.observed == report.reference, l
        count += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 60.0
    note(2, True, f"exact equality for all {count} odd square-free l <= 1000, "
                  f"{elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 3. average of q/phi(4q)
# ---------------------------------------------------------------------------

def test_criterion_03_phi_average():
    def zeta3(N=20000):
        s = sum(1.0 / n**3 for n in range(N, 0, -1))
        return s + 1.0 / (2 * N**2) - 1.0 / (2 * N**3) + 1.0 / (4 * N**4)

    c0 = main_term_constant(10**6)
    oracle = (math.pi**2 / 6) * zeta3() / (math.pi**6 / 945) / 1.5
    assert abs(c0 - oracle) <= 1e-6
    worst = 0.0
    for x in (10**3, 10**4, 10**5, 10**6):
        report = phi_average_check(x)
        dev = abs(report.observed - report.reference) / math.log(x)
        worst = max(worst, dev)
        assert report.passed, x
    note(3, True, f"C0={c0:.6f} matches zeta oracle to 1e-6; "
                  f"max deviation/log x = {worst:.3f} <= 5")


# ---------------------------------------------------------------------------
# 4. Polya-Vinogradov, exhaustive
# ---------------------------------------------------------------------------

def test_criterion_04_polya_vinogradov():
    started = time.perf_counter()
    worst_ratio = 0.0
    for q in range(3, 201):
        report = polya_vinogradov_check(q)
        assert report.passed, q
        worst_ratio = max(worst_ratio, report.ratio)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    note(4, True, f"all 3 <= q <= 200 within 6 sqrt(q) log q "
                  f"(worst ratio {worst_ratio:.3f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. single-modulus large sieve, constant 1
# ---------------------------------------------------------------------------

def test_criterion_05_large_sieve_single():
    started = time.perf_counter()
    rng = np.random.default_rng(SEED)
    worst = 0.0
    for q in range(2, 51):
        prim = primitive_characters(build_character_group(q))
        rows = [chi.values() for chi in prim]
        for N in range(1, 51):
            M = int(rng.integers(0, 100))
            draws = rng.normal(size=(100, N)) + 1j * rng.normal(size=(100, N))
            refs = (q + N) * (np.abs(draws) ** 2).sum(axis=1)
            if prim:
                cols = np.arange(M + 1, M + N + 1, dtype=np.int64) % q
                V = np.stack([row[cols] for row in rows])
                obs = (np.abs(V @ draws.T) ** 2).sum(axis=0)
            else:
                obs = np.zeros(100)
            assert np.all(obs <= refs * (1 + 1e-9)), (q, N)
            worst = max(worst, float((obs / refs).max()))
            report = large_sieve_single_check(q, M, N, draws[0])
            assert report.passed, (q, N)
    elapsed = time.perf_counter() - started
    assert elapsed < 120.0
    note(5, True, f"hard inequality holds for q <= 50, N <= 50, 100 draws each "
                  f"(worst observed/reference = {worst:.3f}), {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 6. Hardy-Littlewood on average at desk scale
# ---------------------------------------------------------------------------

def test_criterion_06_hardy_littlewood_average(scan_z1e8):
    lam, counts, sing = scan_z1e8
    ratio = float((lam / (sing * counts)).mean())
    assert 0.95 <= ratio <= 1.05
    # spot cross-check of the interval-sieve scan against direct evaluation
    rng = random.Random(SEED)
    for k in rng.sample(range(1, 10**5 + 1), 10):
        direct = window_lambda_sum(k, 10**8, 10**8)
        assert lam[k - 1] == pytest.approx(direct, rel=1e-9), k
    # normalized moment trend over z with K = ceil(z^0.625)
    norms = []
    for z, K in ((10**6, 5624), (10**7, 23714), (10**8, 10**5)):
        if z == 10**8:
            resid = lam - sing * counts
        else:
            lz, cz, _ = progression_sums(z, z, K)
            resid = lz - sing[:K] * cz      # S(k) does not depend on the batch's K
        norms.append(float((resid * resid).sum()) / (K * z))
    assert norms[0] > norms[1] > norms[2]
    note(6, True, f"mean A_k/(S c_k) = {ratio:.5f} in [0.95, 1.05]; "
                  f"lhs/(Kz) = {norms[0]:.2e} > {norms[1]:.2e} > {norms[2]:.2e}")


# ---------------------------------------------------------------------------
# 7. exceptional-set fraction
# ---------------------------------------------------------------------------

def test_criterion_07_exceptional_fraction(scan_z1e8):
    lam, counts, sing = scan_z1e8
    resid = lam - sing * counts
    threshold = math.sqrt(10**8) / math.log(10**8)
    frac = float((np.abs(resid) > threshold).mean())
    assert frac < 0.10
    assert abs(frac - PIN_EXCEPTIONAL_FRACTION) <= 0.02
    note(7, True, f"fraction with |residual| > sqrt(z)/log z: {frac:.4f} "
                  f"(< 0.10; pinned {PIN_EXCEPTIONAL_FRACTION:.4f} +- 0.02)")


# ---------------------------------------------------------------------------
# 8. short-segment moment trend
# ---------------------------------------------------------------------------

def test_criterion_08_theorem2_trend():
    values = []
    for z in (10**6, 10**7, 10**8):
        delta = int(round(z**0.75))
        K = math.ceil(round(z**0.6, 6))
        report = theorem2_moment(ScanConfig(z=z, K=K, delta=delta, B=1.0),
                                 P=DEFAULT_TRUNCATION, t_samples=16)
        values.append(report.lhs / (delta**2 * K))
    assert values[0] > values[1] > values[2]
    note(8, True, "integral/(Delta^2 K) decreasing: "
                  + " > ".join(f"{v:.4f}" for v in values))


# ---------------------------------------------------------------------------
# 9. main-term agreement for V, W and m_tilde
# ---------------------------------------------------------------------------

def test_criterion_09_main_terms():
    z = 10**6
    delta = int(round(z**0.8))
    K = math.ceil(round(z**0.6, 6))
    params = MTildeParams(z=z, K=K, delta=delta, B=1.0)
    c0 = main_term_constant(10**6)
    singular = batch_singular_values(K, DEFAULT_TRUNCATION)
    ratios = []
    for t in (z, z + z // 3, 2 * z - delta):
        s = identity_at(params, t, singular)
        main = delta**2 * K / (4.0 * t) * c0
        ratios.append((t, s.V / main, s.W / main))
        assert abs(s.V / main - 1.0) <= 0.20, (t, s.V / main)
        assert abs(s.W / main - 1.0) <= 0.20, (t, s.W / main)
    mt = m_tilde(params, z)
    main_z = delta**2 * K / (4.0 * z) * c0
    mt_dev = abs(mt - main_z) / reference_error(params)
    assert mt_dev <= 10.0
    assert abs(mt_dev - PIN_MTILDE_OVER_E) <= 0.5
    note(9, True, "V/main, W/main at sampled t: "
                  + ", ".join(f"({v:.3f}, {w:.3f})" for _, v, w in ratios)
                  + f"; |m_tilde - main|/E = {mt_dev:.3f} <= 10")


# ---------------------------------------------------------------------------
# 10. mean-square Monte Carlo (lemmas 4/5 calibration)
# ---------------------------------------------------------------------------

def test_criterion_10_mean_square_monte_carlo():
    results = {}
    for z in (10**6, 10**8):
        plain = mean_square_check(z=z, delta_exp=0.4, M_frac=1.0,
                                  samples=200, seed=SEED)
        twisted = mean_square_twisted_check(z=z, delta_exp=0.4, M_frac=1.0,
                                            q=3, chi_index=1,
                                            samples=200, seed=SEED)
        delta = plain.params["delta"]
        results[z] = (plain.observed / delta**2, twisted.observed / delta**2,
                      1.0 / math.log(z) ** 2)
    trend_ok = (results[10**8][0] < results[10**6][0]
                and results[10**8][1] < results[10**6][1])
    assert trend_ok
    plain8, twist8, thresh8 = results[10**8]
    passed = plain8 <= thresh8 and twist8 <= thresh8
    note(10, passed,
         f"estimates/delta^2 at z=1e8: plain {plain8:.5f}, twisted {twist8:.5f} "
         f"vs 1/(log z)^2 = {thresh8:.5f}; trend 1e6 -> 1e8 decreasing "
         f"({results[10**6][0]:.5f} -> {plain8:.5f})")
    # The threshold below is unattainable at desk scale: the true variance of
    # psi increments at M = delta = z^0.4 sits ~2x above delta^2/(log z)^2 at
    # z = 1e8 (it matches the Montgomery-Soundararajan size delta*log(z/delta)).
    # The check is asserted as stated rather than loosened; see the README.
    assert plain8 <= thresh8, (
        f"plain estimate/delta^2 = {plain8:.5f} exceeds 1/(log z)^2 = {thresh8:.5f} "
        f"(factor {plain8 / thresh8:.2f}); the log-power calibration does not hold "
        f"at this scale although the decreasing trend does")
    assert twist8 <= thresh8


# ---------------------------------------------------------------------------
# 11. oracle equivalence of the scanner
# ---------------------------------------------------------------------------

def test_criterion_11_oracle_equivalence():
    for z in (10, 31, 100, 316, 1000, 3162, 10**4):
        for K in (1, 10, 100):
            lam, counts, _ = progression_sums(z, z, K)
            for k in range(1, K + 1):
                c, s = 0, 0.0
                n = 1
                while n * n + k <= 2 * z:
                    if n * n + k > z:
                        c += 1
                        s += von_mangoldt(n * n + k)
                    n += 1
                assert counts[k - 1] == c, (z, K, k)
                assert abs(lam[k - 1] - s) <= 1e-9 * max(1.0, s), (z, K, k)
    rng = random.Random(SEED)
    for _ in range(10**4):
        k = rng.randint(1, 500)
        t = rng.randint(0, 10**6)
        delta = rng.randint(0, 5000)
        c, n = 0, 1
        while n * n + k <= t + delta:
            if n * n + k > t:
                c += 1
            n += 1
        assert window_count(k, t, delta) == c, (k, t, delta)
    note(11, True, "scan == per-candidate evaluation on the (z, K) grid; "
                   "window_count == enumeration on 1e4 random instances")


# ---------------------------------------------------------------------------
# 12. determinism across runs
# ---------------------------------------------------------------------------

def test_criterion_12_determinism(tmp_path):
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        code = cli_main(["moment1", "--z=1000000", "--K=1000", f"--out={out}"])
        assert code == 0
        outputs.append((out / "results.csv").read_bytes())
    assert outputs[0] == outputs[1]
    note(12, True, "moment1 results.csv byte-identical across reruns")
