"""Angular-overlap cost model: kernel, envelope template, cost tables."""

import numpy as np
import pytest

from cellpilot import (
    AoAInterval,
    cosine_support,
    covariance,
    dirichlet_magnitude,
    extended_user_costs,
    interference_integral,
    pair_cost,
    pairwise_cost_matrix,
    steering,
    total_costs,
)
from cellpilot.assignment import random_assignment
from cellpilot.contamination import _envelope, _first_nulls
from conftest import (
    make_world,
    random_interval,
    random_world,
    ref_kernel_zeros,
    small_config,
)


def _direct_sum(x, M, spacing=0.5):
    """|sum_m exp(2j pi m s x)| by brute force, the closed form's oracle."""
    m = np.arange(M)
    return np.abs(np.exp(2j * np.pi * m * spacing * np.asarray(x)).sum())


# ----------------------------------------------------------- overlap kernel

def test_dirichlet_peak_value():
    for M in (1, 4, 100):
        assert dirichlet_magnitude(0.0, M) == pytest.approx(float(M))


def test_dirichlet_matches_direct_summation():
    rng = np.random.default_rng(0)
    for _ in range(10000):
        M = int(rng.integers(2, 129))
        s = rng.uniform(0.1, 1.0)
        x = np.cos(rng.uniform(-np.pi, np.pi)) - np.cos(rng.uniform(-np.pi, np.pi))
        closed = dirichlet_magnitude(x, M, s)
        direct = _direct_sum(x, M, s)
        assert abs(closed - direct) <= 2e-12 * M
        if direct >= 1e-3 * M:  # relative agreement away from the kernel nulls
            assert abs(closed - direct) / direct <= 1e-10


def test_dirichlet_first_zero():
    # M=4, spacing 0.5: first zero at cosine offset 1/(M*s) = 0.5
    assert dirichlet_magnitude(0.5, 4, 0.5) == pytest.approx(0.0, abs=1e-12)
    assert _direct_sum(0.5, 4, 0.5) == pytest.approx(0.0, abs=1e-12)


# ------------------------------------------------------ interference integral

def test_interference_integral_dual_route(rng):
    # quadrature route vs quadratic form through the covariance matrix
    for _ in range(40):
        iv = random_interval(rng)
        D = rng.uniform(0.1, 30.0)
        M = int(rng.integers(4, 65))
        phi = rng.uniform(-np.pi, np.pi)
        via_quad = interference_integral(phi, iv, D, M)
        a = steering(phi, M)
        R = covariance(iv, D, M)
        via_form = float((a.conj() @ R @ a).real) / M
        assert via_quad == pytest.approx(via_form, rel=1e-3)


def test_interference_integral_sidelobe_regime():
    # looking several null spacings past the support only catches sidelobe
    # leakage: a small and shrinking fraction of the on-support response
    iv = AoAInterval(center=np.pi / 3, half_width=0.05)
    D, M = 5.0, 64
    lo, hi = cosine_support(iv)
    on = interference_integral(iv.center, iv, D, M)
    off3 = interference_integral(
        float(np.arccos(min(hi + 3.0 / (M * 0.5), 1.0))), iv, D, M)
    off6 = interference_integral(
        float(np.arccos(min(hi + 6.0 / (M * 0.5), 1.0))), iv, D, M)
    assert off3 < 0.02 * on
    assert off6 < off3


def test_interference_integral_point_mass():
    iv = AoAInterval(center=0.9, half_width=0.0)
    D, M = 2.0, 16
    assert interference_integral(0.9, iv, D, M) == pytest.approx(D * M, rel=1e-12)


# ------------------------------------------------------------ cosine support

def test_cosine_support_plain_interval():
    iv = AoAInterval(center=np.pi / 3, half_width=0.1)
    lo, hi = cosine_support(iv)
    assert lo == pytest.approx(np.cos(np.pi / 3 + 0.1))
    assert hi == pytest.approx(np.cos(np.pi / 3 - 0.1))


def test_cosine_support_through_peak_and_trough():
    lo, hi = cosine_support(AoAInterval(center=0.0, half_width=0.2))
    assert hi == 1.0 and lo == pytest.approx(np.cos(0.2))
    lo, hi = cosine_support(AoAInterval(center=np.pi, half_width=0.2))
    assert lo == -1.0 and hi == pytest.approx(np.cos(np.pi - 0.2))


# ------------------------------------------------------------- kernel zeros

def test_kernel_zeros_worked_example():
    # the null formula that test_cost_kernel's saturation oracle rests on
    zeros = ref_kernel_zeros(np.pi / 2, M=4, spacing=0.5)
    assert np.allclose(zeros, [0.0, np.pi / 3, 2 * np.pi / 3, np.pi], atol=1e-12)
    for z in zeros:
        assert _direct_sum(np.cos(z) - np.cos(np.pi / 2), 4, 0.5) < 1e-9


def test_kernel_zeros_match_sign_change_scan():
    # the signed Dirichlet ratio flips sign at every interior zero
    omega, M, s = 1.1, 8, 0.5
    zeros = ref_kernel_zeros(omega, M, s)

    def signed(phi):
        x = s * (np.cos(phi) - np.cos(omega))
        return np.sin(M * np.pi * x) / np.sin(np.pi * x)

    grid = np.linspace(1e-6, np.pi - 1e-6, 10000)
    vals = signed(grid)
    flips = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    found = []
    for i in flips:
        a, b = grid[i], grid[i + 1]
        for _ in range(60):
            mid = 0.5 * (a + b)
            if signed(a) * signed(mid) <= 0:
                b = mid
            else:
                a = mid
        found.append(0.5 * (a + b))
    interior = zeros[(zeros > 1e-5) & (zeros < np.pi - 1e-5)]
    # drop scan hits where the kernel peaks instead of vanishing (the
    # signed ratio also changes sign through its poles at the main lobes)
    found = [f for f in found
             if dirichlet_magnitude(np.cos(f) - np.cos(omega), M, s) < 1e-6]
    assert np.allclose(sorted(found), interior, atol=1e-8)


def test_kernel_zero_spacing_halves_when_m_doubles():
    omega = 0.8
    for M in (8, 16, 32):
        zeros = ref_kernel_zeros(omega, M, 0.5)
        gap = np.min(np.abs(np.cos(zeros) - np.cos(omega)))
        assert gap == pytest.approx(1.0 / (M * 0.5), rel=1e-9)


# -------------------------------------------------------------- null bounds

def test_first_null_bounds_relation():
    iv = AoAInterval(center=np.pi / 3, half_width=0.1)
    M, s = 16, 0.5
    lo, hi = cosine_support(iv)
    low, high, saturated = _first_nulls(lo, hi, M, s)
    step = 1.0 / (M * s)
    assert not saturated
    assert np.cos(low) == pytest.approx(hi + step, rel=1e-12)
    assert np.cos(high) == pytest.approx(lo - step, rel=1e-12)
    assert low < np.pi / 3 - 0.1 and high > np.pi / 3 + 0.1


def test_first_null_bounds_clamp_at_endfire():
    # support reaching cos=1: the east foot clamps to the physical edge
    iv = AoAInterval(center=0.0, half_width=0.2)
    low, _, saturated = _first_nulls(*cosine_support(iv), 16, 0.5)
    assert not saturated
    assert low == pytest.approx(0.0, abs=1e-12)  # cos = 1


def test_first_null_bounds_errors():
    iv = AoAInterval(center=1.0, half_width=0.1)
    assert _first_nulls(*cosine_support(iv), 1, 0.5)[2]
    # M*spacing too small for any kernel null
    assert _first_nulls(*cosine_support(iv), 2, 0.2)[2]


def test_pair_cost_saturates_without_nulls():
    target = AoAInterval(center=1.0, half_width=0.1)
    interferer = AoAInterval(center=-2.0, half_width=0.1)
    D = 9.0
    assert pair_cost(target, interferer, D, M=2, spacing=0.2) == \
        pytest.approx(2.0 * np.sqrt(D))


# --------------------------------------------------------- envelope template

_TARGET = AoAInterval(center=np.pi / 3, half_width=0.1)
_M, _S = 16, 0.5


def _gain(phi, target, D):
    """The envelope at one angle: a zero-width interferer scores it twice."""
    return pair_cost(target, AoAInterval(center=phi, half_width=0.0), D, _M, _S) / 2


def _envelope_at(phis, target, D, M):
    """The envelope over an array of angles, on pair_cost's knots."""
    lo, hi = cosine_support(target)
    low, high, saturated = _first_nulls(lo, hi, M, 0.5)
    assert not saturated
    gain = np.sqrt(D) * _envelope(np.cos(phis), lo, hi, np.cos(high), np.cos(low))
    return gain, np.cos(low), np.cos(high)


def test_envelope_on_support():
    D = 4.0
    assert _gain(np.pi / 3, _TARGET, D) == pytest.approx(np.sqrt(D))
    lo, hi = cosine_support(_TARGET)
    assert _gain(float(np.arccos(lo)), _TARGET, D) == pytest.approx(np.sqrt(D))


def test_envelope_dead_zone():
    assert _gain(float(np.arccos(0.9)), _TARGET, 4.0) == 0.0
    assert _gain(np.pi, _TARGET, 4.0) == 0.0


def test_envelope_ramp_midpoint():
    D = 4.0
    lo, hi = cosine_support(_TARGET)
    east = np.cos(_first_nulls(lo, hi, _M, _S)[0])
    mid = float(np.arccos(0.5 * (hi + east)))
    assert _gain(mid, _TARGET, D) == pytest.approx(0.5 * np.sqrt(D))


def test_envelope_mirror_lobe():
    # the template is symmetric in the cosine: -support is also plateau
    lo, hi = cosine_support(_TARGET)
    phi = float(np.arccos(-0.5 * (lo + hi)))
    assert _gain(phi, _TARGET, 1.0) == pytest.approx(1.0)


def test_envelope_range_and_continuity(rng):
    for _ in range(20):
        iv = random_interval(rng)
        D = rng.uniform(0.1, 25.0)
        phis = np.linspace(0.0, np.pi, 4001)
        vals, east, west = _envelope_at(phis, iv, D, 32)
        assert (vals >= 0.0).all() and (vals <= np.sqrt(D) + 1e-12).all()
        # continuous in the cosine: jumps bounded by slope * step, with
        # the slope set by the narrower ramp (feet clamped at u = +-1
        # compress a ramp below the nominal null spacing)
        lo, hi = cosine_support(iv)
        widths = [w for w in (east - hi, lo - west) if w > 1e-9]
        slope = np.sqrt(D) / min(widths) if widths else 0.0
        du = np.abs(np.diff(np.cos(phis)))
        assert (np.abs(np.diff(vals)) <= slope * du + 1e-9).all()


def test_envelope_monotone_outside_support():
    # separation monotonicity: moving away from the support in the cosine
    # never increases the envelope
    iv = AoAInterval(center=np.pi / 3, half_width=0.08)
    lo, hi = cosine_support(iv)
    vals, _, west = _envelope_at(np.arccos(np.linspace(hi, 1.0, 200)), iv, 1.0, 24)
    assert (np.diff(vals) <= 1e-12).all()
    vals, _, _ = _envelope_at(np.arccos(np.linspace(lo, west, 200)), iv, 1.0, 24)
    assert (np.diff(vals) <= 1e-12).all()


# ---------------------------------------------------------------- pair cost

def test_pair_cost_identical_intervals():
    iv = AoAInterval(center=np.pi / 3, half_width=0.1)
    D = 7.0
    assert pair_cost(iv, iv, D, M=16) == pytest.approx(2.0 * np.sqrt(D))


def test_pair_cost_dead_zone():
    target = AoAInterval(center=np.pi / 3, half_width=0.05)
    interferer = AoAInterval(center=2.6, half_width=0.05)
    assert pair_cost(target, interferer, 7.0, M=64) == 0.0


def test_pair_cost_bounds(rng):
    for _ in range(200):
        target = random_interval(rng)
        interferer = random_interval(rng)
        D = rng.uniform(0.1, 40.0)
        c = pair_cost(target, interferer, D, M=int(rng.integers(2, 129)))
        assert 0.0 <= c <= 2.0 * np.sqrt(D) + 1e-12


def test_pair_cost_tracks_integral_ordering(rng):
    # the envelope must rank interferer placements like the exact integral
    # where its branches are exercised (plateau, ramps, first nulls); far
    # outside the support it is exactly zero by design while the integral
    # keeps sidelobe leakage, so placements are drawn around the target
    from scipy.stats import spearmanr

    target = AoAInterval(center=np.pi / 2.5, half_width=0.06)
    D, M = 4.0, 32
    approx, exact = [], []
    for _ in range(200):
        interferer = AoAInterval(
            center=target.center + rng.uniform(-0.25, 0.25),
            half_width=rng.uniform(0.025, 0.1))
        approx.append(pair_cost(target, interferer, D, M))
        exact.append(interference_integral(interferer.low, target, D, M)
                     + interference_integral(interferer.high, target, D, M))
    assert spearmanr(approx, exact).statistic > 0.9


# --------------------------------------------------------------- cost tables

def test_pairwise_matrix_matches_pair_cost_loop():
    # one kernel serves both, so every entry is pair_cost's value exactly,
    # on saturated targets, nulls clamped at endfire and supports crossing
    # cos = +-1 too
    rng = np.random.default_rng(7)
    worlds = [make_world(small_config(L=3, K=2, M=16), seed=2)]
    worlds += [random_world(rng, seed, L=3, K=3, **case) for seed, case in enumerate([
        dict(M=2, spacing=0.2), dict(M=1, spacing=0.5),
        dict(M=4, spacing=0.5, edges=True), dict(M=100, spacing=0.5, edges=True)])]
    worlds += [random_world(rng, seed, edges=seed % 2 == 0) for seed in range(20)]
    assert pairwise_cost_matrix(worlds[0]).shape == (3, 2, 3, 2)
    for world in worlds:
        cfg = world.config
        L, K = world.drop.shape
        C = pairwise_cost_matrix(world)
        for j, a, l, b in np.ndindex(L, K, L, K):
            want = 0.0 if l == j else pair_cost(
                world.interval(j, j, a), world.interval(j, l, b),
                world.gains[j, j, a], cfg.M, cfg.spacing)
            assert C[j, a, l, b] == want


def test_total_costs_single_cell_zero():
    cfg = small_config(L=1, K=3, M=16)
    world = make_world(cfg, seed=0)
    table = total_costs(world, np.array([[0, 1, 2]]))
    assert np.array_equal(table.user_costs, np.zeros((1, 3)))
    assert table.global_max == 0.0
    assert (table.worst_cell, table.worst_pilot) == (0, 0)  # lowest-index tie


def test_total_costs_matches_hand_rolled_loop(rng):
    cfg = small_config(L=3, K=2, M=16)
    world = make_world(cfg, seed=4)
    for trial in range(5):
        assign = random_assignment(3, 2, rng)
        table = total_costs(world, assign.pilot_to_user)
        p2u = assign.pilot_to_user
        for j in range(3):
            for k in range(2):
                u = p2u[j, k]
                want = 0.0
                for l in range(3):
                    if l == j:
                        continue
                    v = p2u[l, k]
                    want += pair_cost(world.interval(j, j, u),
                                      world.interval(j, l, v),
                                      world.gains[j, j, u], cfg.M, cfg.spacing)
                assert table.user_costs[j, k] == pytest.approx(want, abs=1e-10)


def test_cost_table_internal_consistency(rng):
    cfg = small_config(L=3, K=3, M=32)
    world = make_world(cfg, seed=6)
    for trial in range(10):
        assign = random_assignment(3, 3, rng)
        t = total_costs(world, assign.pilot_to_user)
        assert np.allclose(t.cell_max, t.user_costs.max(axis=1))
        assert t.global_max == t.user_costs.max()
        assert t.user_costs[t.worst_cell, t.worst_pilot] == t.global_max
        flat = np.flatnonzero(t.user_costs.ravel() == t.global_max)[0]
        assert divmod(int(flat), 3) == (t.worst_cell, t.worst_pilot)


def test_extended_costs_agree_with_total_costs(rng):
    cfg = small_config(L=3, K=3, M=32)
    world = make_world(cfg, seed=8)
    assign = random_assignment(3, 3, rng)
    table = total_costs(world, assign.pilot_to_user)
    u2p = assign.user_to_pilot()
    costs, worst = extended_user_costs(world, u2p)
    for j in range(3):
        for u in range(3):
            assert costs[j, u] == pytest.approx(
                table.user_costs[j, u2p[j, u]], abs=1e-12)
    assert worst == pytest.approx(table.global_max)


def test_extended_costs_orthogonal_pilots_are_free():
    cfg = small_config(L=3, K=2, M=16)
    world = make_world(cfg, seed=1)
    u2p = np.arange(6).reshape(3, 2)  # every user its own pilot
    costs, worst = extended_user_costs(world, u2p)
    assert np.array_equal(costs, np.zeros((3, 2)))
    assert worst == 0.0
