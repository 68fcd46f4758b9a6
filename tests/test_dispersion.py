"""Tests for the dispersion terms, the expansion identity, and m_tilde."""

import math
import random

import numpy as np
import pytest

from oracles import (MTildeParams, identity_at, m_tilde, von_mangoldt,
                     window_count, window_lambda_sum)
from quadprimes import dispersion, scan
from quadprimes.arith import euler_phi
from quadprimes.cli import main
from quadprimes.dispersion import dispersion_profile, reference_error
from quadprimes.scan import ScanConfig, theorem2_moment
from quadprimes.singular import DEFAULT_TRUNCATION, batch_singular_values


@pytest.fixture(scope="module")
def singular():
    """S(k) for every k <= 60, the largest K these tests scan."""
    return batch_singular_values(60, DEFAULT_TRUNCATION)


def u_double_loop(t, delta, K):
    """Literal double sum over n1, n2 from the definition."""
    total = 0.0
    for k in range(1, K + 1):
        terms = []
        n = 1
        while n * n + k <= t + delta:
            if n * n + k > t:
                terms.append(von_mangoldt(n * n + k))
            n += 1
        for x in terms:
            for y in terms:
                total += x * y
    return total


def m_tilde_brute(params, t):
    """Scan m2 and test the exact integer form of 0 < m1 - (q+r)^2 <= K."""
    q_lo = max(1, math.ceil(params.D1))
    q_hi = math.floor(params.D2)
    total = 0.0
    m2 = np.arange(t + 1, t + params.delta + 1, dtype=np.int64)
    for q in range(q_lo, q_hi + 1):
        cnt = 0
        for m1 in range(t + 1, t + params.delta + 1):
            y = m1 - m2
            val = 16 * q * q * m1 - (4 * q * q + y) ** 2
            cnt += int(((y > 0) & (val > 0) & (val <= 16 * q * q * params.K)).sum())
        total += 2.0 * cnt / euler_phi(4 * q)
    return total


def test_params_derived_quantities():
    p = MTildeParams(z=10**6, K=1000, delta=10**4, B=1.0, C=2.0)
    lz = math.log(10**6)
    assert p.L == pytest.approx(lz**2)
    assert reference_error(p) == pytest.approx(10**8 * 1000 / (10**6 * lz))
    assert p.D1 == pytest.approx(10**4 / (8 * lz**2 * 1000))
    assert p.D2 == pytest.approx(10**4 / 2000)
    assert p.D1 < p.D2
    assert p.L >= 1.0
    assert MTildeParams(z=10**6, K=10, delta=100, C=3.0).L == pytest.approx(lz**3)
    with pytest.raises(ValueError):
        ScanConfig(z=2, K=1, delta=1)


def test_terms_vanish_for_empty_window(singular):
    p = ScanConfig(z=100, K=5, delta=0)
    s = identity_at(p, 150, singular)
    assert s.U == s.V == s.W == s.combined == s.direct_square == 0.0


def test_dispersion_refuses_a_config_without_delta(tmp_path, capsys):
    """The dispersion command refuses a run without --delta and writes
    nothing; the library runs an unset delta as delta = z (below)."""
    assert main(["dispersion", "--z=100", "--K=5", "--grid=2", f"--out={tmp_path}"]) == 1
    assert not any(tmp_path.iterdir())
    assert capsys.readouterr().err == "error: missing required key: delta\n"


def test_unset_delta_runs_as_delta_z():
    unset, explicit = ScanConfig(z=1000, K=30), ScanConfig(z=1000, K=30, delta=1000)
    assert unset.delta == 1000
    assert reference_error(unset) == reference_error(explicit)
    assert (theorem2_moment(unset, t_samples=3, seed=1)
            == theorem2_moment(explicit, t_samples=3, seed=1))
    assert (dispersion_profile(unset, grid_points=4, seed=2)
            == dispersion_profile(explicit, grid_points=4, seed=2))


def test_dispersion_refuses_an_empty_window():
    p = ScanConfig(z=100, K=5, delta=0)
    with pytest.raises(ValueError, match="^the dispersion terms need delta >= 1$"):
        dispersion_profile(p, grid_points=2)


def test_u_term_single_contribution(singular):
    p = ScanConfig(z=100, K=1, delta=50)
    assert identity_at(p, 100, singular).U == pytest.approx(math.log(101) ** 2, rel=1e-12)


def test_u_term_factored_equals_double_loop(singular):
    rng = random.Random(30)
    for _ in range(15):
        t = rng.randint(50, 1000)
        delta = rng.randint(0, 200)
        K = rng.randint(1, 20)
        p = ScanConfig(z=max(t, 3), K=K, delta=delta)
        assert identity_at(p, t, singular).U == pytest.approx(
            u_double_loop(t, delta, K), rel=1e-9, abs=1e-9)


def test_v_term_pinned_components(singular):
    p = ScanConfig(z=100, K=1, delta=50)
    s1 = float(singular[0])
    assert identity_at(p, 100, singular).V == pytest.approx(
        s1 * 3 * math.log(101), rel=1e-12)


def test_w_term_pinned_components(singular):
    p = ScanConfig(z=100, K=2, delta=50)
    sing = singular[:2]
    expect = sing[0] ** 2 * 9 + sing[1] ** 2 * 9  # counts are 3 and 3
    assert window_count(1, 100, 50) == window_count(2, 100, 50) == 3
    assert identity_at(p, 100, singular).W == pytest.approx(
        float(expect), rel=1e-12)
    assert identity_at(p, 100, singular).W >= 0.0


def test_identity_assembled_from_components(singular):
    p = ScanConfig(z=100, K=2, delta=50)
    s = identity_at(p, 100, singular)
    sing = singular[:2]
    direct = U = V = W = 0.0
    for k in (1, 2):
        a = window_lambda_sum(k, 100, 50)
        c = window_count(k, 100, 50)
        sk = float(sing[k - 1])
        direct += (a - sk * c) ** 2
        U += a * a
        V += sk * c * a
        W += (sk * c) ** 2
    assert s.direct_square == pytest.approx(direct, rel=1e-12)
    assert s.combined == pytest.approx(direct, rel=1e-9)
    assert s.U == pytest.approx(U, rel=1e-12)
    assert s.V == pytest.approx(V, rel=1e-12)
    assert s.W == pytest.approx(W, rel=1e-12)


def test_identity_random_instances(singular):
    rng = random.Random(31)
    for _ in range(150):
        z = rng.randint(3, 10**4)
        t = rng.randint(z, 2 * z)
        delta = rng.choice([0, 1, rng.randint(2, 400)])
        K = rng.randint(1, 60)
        p = ScanConfig(z=z, K=K, delta=delta)
        s = identity_at(p, t, singular)
        assert abs(s.combined - s.direct_square) <= 1e-9 * max(1.0, s.direct_square)
        assert s.combined >= -1e-9 * max(1.0, s.direct_square)


def test_terms_monotone_in_delta(singular):
    seen = {"U": [], "V": [], "W": []}
    for delta in (0, 10, 50, 100, 400):
        p = ScanConfig(z=2000, K=25, delta=delta)
        s = identity_at(p, 2100, singular)
        for key in seen:
            seen[key].append(getattr(s, key))
    for key, vals in seen.items():
        assert all(a <= b + 1e-12 for a, b in zip(vals, vals[1:])), key


# ---------------------------------------------------------------------------
# m_tilde
# ---------------------------------------------------------------------------

def test_m_tilde_empty_q_range():
    # D2 = delta / (2 sqrt(z)) < 1 leaves no admissible q
    p = MTildeParams(z=10**4, K=50, delta=100)
    assert p.D2 < 1
    assert m_tilde(p, 10**4) == 0.0


def test_m_tilde_tiny_K_empty_intervals():
    # interval lengths ~ 2qK/sqrt(m) < 1, so no m2 survives
    p = MTildeParams(z=10**6, K=1, delta=4000)
    assert math.floor(p.D2) >= 1
    assert m_tilde(p, 10**6) == 0.0


def test_m_tilde_rejects_small_window():
    p = MTildeParams(z=100, K=150, delta=50)
    with pytest.raises(ValueError):
        m_tilde(p, 100)


def test_m_tilde_matches_brute_force():
    rng = random.Random(32)
    for _ in range(200):
        z = rng.randint(300, 4000)
        delta = rng.randint(2 * math.isqrt(z) + 1, min(6 * math.isqrt(z), z))
        K = rng.randint(1, min(60, z // 2))
        p = MTildeParams(z=z, K=K, delta=delta)
        t = rng.randint(z, 2 * z - 1)
        assert m_tilde(p, t) == pytest.approx(m_tilde_brute(p, t), rel=1e-12), \
            (z, K, delta, t)


# ---------------------------------------------------------------------------
# profiles
# ---------------------------------------------------------------------------

def test_profile_single_point_reduces_to_identity_check(singular):
    p = ScanConfig(z=1000, K=10, delta=200)
    samples, _ = dispersion_profile(p, grid_points=1)    # the one point t = z
    s = identity_at(p, 1000, singular)
    got = samples[0]
    assert (got.U, got.V, got.W, got.combined) == (s.U, s.V, s.W, s.combined)
    assert len(samples) == 1


def test_profile_refuses_an_empty_grid(monkeypatch):
    def no_scan(*args, **kwargs):
        raise AssertionError("scanned with an empty t grid")

    monkeypatch.setattr(dispersion, "identity_check", no_scan)
    p = ScanConfig(z=1000, K=10, delta=200)
    with pytest.raises(ValueError, match="^need at least one sample point$"):
        dispersion_profile(p, grid_points=0)


def test_profile_grid_and_summary():
    p = ScanConfig(z=2000, K=20, delta=400)
    samples, summary = dispersion_profile(p, grid_points=8)
    assert len(samples) == 8
    assert samples[0].t == 2000
    for key in ("integral_U", "integral_V", "integral_W", "integral_combined",
                "combined_integral_over_bound", "mean_V_minus_main_over_E"):
        assert key in summary
    assert summary["max_identity_residual"] <= 1e-9
    assert summary["integral_combined"] >= 0.0


@pytest.mark.parametrize("seed", [None, 3])
def test_profile_integral_is_the_theorem2_estimate(seed):
    """The combined integral and its ratio to the bound are moment2's lhs and
    ratio at the same points, sorted or not."""
    p = ScanConfig(z=3000, K=25, delta=600, B=1.5)
    _, summary = dispersion_profile(p, grid_points=12, seed=seed)
    report = theorem2_moment(p, t_samples=12, seed=seed)
    assert summary["integral_combined"] == pytest.approx(report.lhs, rel=1e-9)
    assert summary["combined_integral_over_bound"] == pytest.approx(report.ratio, rel=1e-9)


def test_profile_seeded_grid_reproducible():
    p = ScanConfig(z=2000, K=10, delta=300)
    _, s1 = dispersion_profile(p, grid_points=6, seed=5)
    _, s2 = dispersion_profile(p, grid_points=6, seed=5)
    assert s1["integral_combined"] == s2["integral_combined"]



def test_runs_compute_singular_values_and_constant_once(monkeypatch):
    # S(k) and the main-term constant belong to the run: every t-window
    # shares the one value its run computed
    calls = {"batch": 0, "constant": 0}

    def counted(key, fn):
        def wrapper(*args):
            calls[key] += 1
            return fn(*args)
        return wrapper

    monkeypatch.setattr(scan, "batch_singular_values",
                        counted("batch", scan.batch_singular_values))
    monkeypatch.setattr(dispersion, "main_term_constant",
                        counted("constant", dispersion.main_term_constant))
    p = ScanConfig(z=2000, K=20, delta=400)
    dispersion_profile(p, grid_points=8)
    assert calls == {"batch": 1, "constant": 1}
    theorem2_moment(p, t_samples=4)
    assert calls == {"batch": 2, "constant": 1}
