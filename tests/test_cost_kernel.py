"""The vectorised cost kernels against straightforward per-target loops.

The references below are the loop implementations the kernels replaced:
one np.interp trapezoid and one null search per target user, and explicit
loops over cells and users for the co-pilot sums. The kernels do the same
arithmetic in the same order, so every comparison is exact.
"""

import warnings

import numpy as np
import pytest

from cellpilot import (
    AoAInterval,
    EnvOptions,
    NullBounds,
    NullBoundsError,
    ScenarioBundle,
    SystemConfig,
    approx_gain,
    build_layout,
    calibrate_thresholds,
    drop_users,
    extended_user_costs,
    first_null_bounds,
    pairwise_cost_matrix,
    random_assignment,
    spr_like_assignment,
    total_costs,
)
from cellpilot.contamination import _copilot_costs, _envelope
from conftest import make_world

# ---------------------------------------------------------------- references


def _ref_cosine_support(interval):
    low, high = interval.low, interval.high
    c_low, c_high = np.cos(low), np.cos(high)
    lo, hi = float(min(c_low, c_high)), float(max(c_low, c_high))
    if np.ceil(low / (2 * np.pi)) * 2 * np.pi <= high:
        hi = 1.0
    if np.ceil((low - np.pi) / (2 * np.pi)) * 2 * np.pi + np.pi <= high:
        lo = -1.0
    return lo, hi


def _ref_kernel_zeros(omega, M, spacing):
    step = 1.0 / (M * spacing)
    base = np.cos(omega)
    n_lo = int(np.ceil((-1.0 - base) / step - 1e-12))
    n_hi = int(np.floor((1.0 - base) / step + 1e-12))
    ns = np.array([n for n in range(n_lo, n_hi + 1) if n % M != 0], dtype=float)
    if ns.size == 0:
        return np.empty(0)
    return np.sort(np.arccos(np.clip(base + ns * step, -1.0, 1.0)))


def _ref_first_null_bounds(interval, M, spacing):
    if M < 2:
        raise NullBoundsError("a single-antenna kernel has no nulls")
    lo, hi = _ref_cosine_support(interval)
    for edge in (lo, hi):
        if _ref_kernel_zeros(float(np.arccos(edge)), M, spacing).size == 0:
            raise NullBoundsError("an edge-seeded kernel has no zeros")
    step = 1.0 / (M * spacing)
    east = min(hi + step, 1.0)
    west = max(lo - step, -1.0)
    return NullBounds(low=float(np.arccos(east)), high=float(np.arccos(west)))


def _ref_trapezoid(u, lo, hi, west, east):
    return np.interp(u, np.array([west, lo, hi, east]),
                     np.array([0.0, 1.0, 1.0, 0.0]), left=0.0, right=0.0)


def _ref_envelope(u, lo, hi, west, east):
    return np.maximum(_ref_trapezoid(u, lo, hi, west, east),
                      _ref_trapezoid(-u, lo, hi, west, east))


def _ref_approx_gain(phi, target, target_gain, nulls):
    u = np.cos(np.asarray(phi, dtype=float))
    root = np.sqrt(target_gain)
    if nulls is None:
        return np.broadcast_to(root, u.shape).copy() if u.ndim else root
    lo, hi = _ref_cosine_support(target)
    out = root * _ref_envelope(u, lo, hi, np.cos(nulls.high), np.cos(nulls.low))
    return out if out.ndim else float(out)


def _ref_pairwise(bundle):
    L, K = bundle.drop.shape
    cfg = bundle.config
    cos_lo = np.cos(bundle.centers - bundle.half_widths)
    cos_hi = np.cos(bundle.centers + bundle.half_widths)
    C = np.zeros((L, K, L, K))
    for j in range(L):
        for a in range(K):
            target = bundle.interval(j, j, a)
            root = np.sqrt(bundle.gains[j, j, a])
            try:
                nulls = _ref_first_null_bounds(target, cfg.M, cfg.spacing)
            except NullBoundsError:
                C[j, a] = 2.0 * root
                C[j, a, j, :] = 0.0
                continue
            lo, hi = _ref_cosine_support(target)
            east, west = np.cos(nulls.low), np.cos(nulls.high)
            total = np.zeros((L, K))
            for u in (cos_lo[j], cos_hi[j]):
                total += _ref_envelope(u, lo, hi, west, east)
            C[j, a] = root * total
            C[j, a, j, :] = 0.0
    return C


def _ref_total_costs(C, pilot_to_user):
    L, K = pilot_to_user.shape
    pair = np.zeros((L, K, L))
    ks = np.arange(K)
    for j in range(L):
        rows = C[j, pilot_to_user[j]]
        for l in range(L):
            if l != j:
                pair[j, :, l] = rows[ks, l, pilot_to_user[l]]
    user_costs = pair.sum(axis=2)
    worst_cell, worst_pilot = divmod(int(np.argmax(user_costs)), K)
    return dict(user_costs=user_costs, pair_costs=pair,
                cell_max=user_costs.max(axis=1),
                global_max=float(user_costs[worst_cell, worst_pilot]),
                worst_cell=worst_cell, worst_pilot=worst_pilot)


def _ref_extended(C, user_to_pilot):
    L, K = user_to_pilot.shape
    costs = np.zeros((L, K))
    for j in range(L):
        for a in range(K):
            p = user_to_pilot[j, a]
            for l in range(L):
                if l != j:
                    costs[j, a] += C[j, a, l, user_to_pilot[l] == p].sum()
    return costs, float(costs.max())


# ------------------------------------------------------------------- worlds

_MS = (1, 2, 3, 4, 8, 16, 64, 100)
_SPACINGS = (0.1, 0.2, 0.5)
# own-BS bearings that put a support on cos = +-1 or across +-pi
_EDGE_CENTERS = (0.0, np.pi, 0.05, -0.05, np.pi - 0.01, -np.pi + 0.01)


def _random_world(rng, seed, L=None, K=None, M=None, spacing=None, edges=False):
    cfg = SystemConfig(
        L=L or int(rng.integers(1, 8)), K=K or int(rng.integers(1, 6)),
        M=M or int(rng.choice(_MS)),
        spacing=spacing or float(rng.choice(_SPACINGS)),
        scatter_radius=float(rng.choice([30.0, 80.0])), exclusion_radius=100.0)
    world = make_world(cfg, seed)
    if edges:
        cells = np.arange(cfg.L)
        world.centers[cells, cells] = rng.choice(_EDGE_CENTERS, size=(cfg.L, cfg.K))
    return world


def _world_stats(world):
    """Counts of the target kinds a world exercises."""
    cfg = world.config
    L, K = world.drop.shape
    stats = dict(targets=0, saturated=0, clamped=0, crossing=0)
    for j in range(L):
        for a in range(K):
            iv = world.interval(j, j, a)
            stats["targets"] += 1
            lo, hi = _ref_cosine_support(iv)
            stats["crossing"] += lo == -1.0 or hi == 1.0
            try:
                nulls = _ref_first_null_bounds(iv, cfg.M, cfg.spacing)
            except NullBoundsError:
                stats["saturated"] += 1
                continue
            stats["clamped"] += nulls.low == 0.0 or nulls.high == np.pi
    return stats


def _assert_costs_match(world, rng):
    C = pairwise_cost_matrix(world)
    assert np.array_equal(C, _ref_pairwise(world))
    L, K = world.drop.shape
    for _ in range(3):
        p2u = random_assignment(L, K, rng).pilot_to_user
        table, ref = total_costs(world, p2u, pairwise=C), _ref_total_costs(C, p2u)
        for field, want in ref.items():
            got = getattr(table, field)
            assert np.array_equal(got, want) and type(got) is type(want), field
        # unrestricted ids: several co-pilot users per cell, or none
        u2p = rng.integers(0, max(1, K + int(rng.integers(-1, 3))), size=(L, K))
        costs, worst = extended_user_costs(world, u2p, pairwise=C)
        want_costs, want_worst = _ref_extended(C, u2p)
        assert np.array_equal(costs, want_costs) and worst == want_worst
    ext, _ = spr_like_assignment(world)
    costs, worst = extended_user_costs(world, ext.user_to_pilot, pairwise=C)
    want_costs, want_worst = _ref_extended(C, ext.user_to_pilot)
    assert np.array_equal(costs, want_costs) and worst == want_worst


def test_costs_match_loop_references_on_random_worlds():
    rng = np.random.default_rng(2024)
    totals = dict(targets=0, saturated=0, clamped=0, crossing=0)
    for seed in range(240):
        world = _random_world(rng, seed, edges=seed % 3 == 0)
        _assert_costs_match(world, rng)
        for k, v in _world_stats(world).items():
            totals[k] += v
    # every branch of the per-target reference was exercised
    assert min(totals.values()) > 20, totals


@pytest.mark.parametrize("case", [
    dict(M=2, spacing=0.2),            # no kernel null: saturated targets
    dict(M=1, spacing=0.5),            # single antenna: saturated targets
    dict(M=4, spacing=0.5, edges=True),  # nulls clamped at endfire
    dict(M=100, spacing=0.5, edges=True),
    dict(L=1, K=3, M=16, spacing=0.5),
    dict(L=7, K=1, M=8, spacing=0.5),
    dict(L=7, K=4, M=100, spacing=0.5),
])
def test_costs_match_loop_references_on_edge_cases(case):
    rng = np.random.default_rng(7)
    for seed in range(5):
        _assert_costs_match(_random_world(rng, seed, **case), rng)


def test_saturated_and_clamped_cases_occur():
    rng = np.random.default_rng(7)
    sat = _world_stats(_random_world(rng, 0, L=3, K=3, M=2, spacing=0.2))
    assert sat["saturated"] == sat["targets"]
    clamped = _world_stats(_random_world(rng, 0, L=3, K=3, M=4, spacing=0.5,
                                         edges=True))
    assert clamped["clamped"] > 0 and clamped["crossing"] > 0


def test_first_null_bounds_match_kernel_zeros_search():
    # the closed-form saturation test against the scan over kernel zeros
    rng = np.random.default_rng(19)
    raised = 0
    for _ in range(3000):
        iv = AoAInterval(center=float(rng.uniform(-np.pi, np.pi)),
                         half_width=float(rng.uniform(0.0, 0.5)))
        M = int(rng.integers(1, 9))
        spacing = float(rng.choice([0.05, 0.1, 0.2, 0.25, 0.3, 0.5]))
        try:
            want = _ref_first_null_bounds(iv, M, spacing)
        except NullBoundsError:
            raised += 1
            with pytest.raises(NullBoundsError):
                first_null_bounds(iv, M, spacing)
            continue
        assert first_null_bounds(iv, M, spacing) == want
    assert 300 < raised < 2700


# ------------------------------------------------------------------ envelope

def test_envelope_matches_interp_at_and_between_knots():
    rng = np.random.default_rng(3)
    knot_sets = [(-0.3, -0.1, 0.2, 0.4), (-1.0, -1.0, -0.6, -0.5),
                 (0.5, 0.6, 1.0, 1.0), (-1.0, -1.0, 1.0, 1.0),
                 (0.1, 0.1, 0.1, 0.1)]
    for _ in range(50):
        knot_sets.append(tuple(np.sort(rng.uniform(-1.0, 1.0, 4))))
    for west, lo, hi, east in knot_sets:
        knots = np.array([west, lo, hi, east])
        u = np.concatenate([rng.uniform(-1.0, 1.0, 200), knots, -knots,
                            np.nextafter(knots, 2.0), np.nextafter(knots, -2.0),
                            [-1.0, 1.0, 0.0]])
        got = _envelope(u, lo, hi, west, east)
        assert np.array_equal(got, _ref_envelope(u, lo, hi, west, east))


def test_approx_gain_matches_interp_reference():
    rng = np.random.default_rng(5)
    phis = np.linspace(-np.pi, np.pi, 2001)
    for _ in range(100):
        target = AoAInterval(center=float(rng.choice([rng.uniform(-np.pi, np.pi),
                                                      *_EDGE_CENTERS])),
                             half_width=float(rng.uniform(0.01, 0.3)))
        M = int(rng.choice(_MS[1:]))
        try:
            nulls = _ref_first_null_bounds(target, M, 0.5)
        except NullBoundsError:
            nulls = None
        D = float(rng.uniform(0.1, 30.0))
        assert np.array_equal(approx_gain(phis, target, D, nulls),
                              _ref_approx_gain(phis, target, D, nulls))
        for phi in phis[::97]:
            assert approx_gain(float(phi), target, D, nulls) == \
                _ref_approx_gain(float(phi), target, D, nulls)


def test_envelope_raises_no_warnings():
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, case in enumerate([dict(M=4, spacing=0.5, edges=True),
                                     dict(M=2, spacing=0.2, edges=True),
                                     dict(M=1, spacing=0.5)]):
            pairwise_cost_matrix(_random_world(rng, seed, **case))
        # zero-width ramps: both feet clamped at endfire
        _envelope(np.linspace(-1.0, 1.0, 101), -1.0, 1.0, -1.0, 1.0)
        target = AoAInterval(center=0.0, half_width=0.2)
        approx_gain(np.linspace(0.0, np.pi, 101), target, 1.0,
                    _ref_first_null_bounds(target, 16, 0.5))


# --------------------------------------------------------- co-pilot kernel

def test_batched_copilot_costs_match_single_calls():
    rng = np.random.default_rng(13)
    cfg = SystemConfig(L=4, K=3, M=32, scatter_radius=30.0, exclusion_radius=100.0)
    Cs = np.stack([pairwise_cost_matrix(make_world(cfg, s)) for s in range(6)])
    maps = rng.integers(0, 4, size=(6, 5, 4, 3))
    # one world against many maps, and many worlds against their maps
    split, costs = _copilot_costs(Cs[0], maps[0])
    split_w, costs_w = _copilot_costs(Cs[:, None], maps)
    for i in range(5):
        one_split, one_costs = _copilot_costs(Cs[0], maps[0, i])
        assert np.array_equal(split[i], one_split)
        assert np.array_equal(costs[i], one_costs)
    for w in range(6):
        for i in range(5):
            one_split, one_costs = _copilot_costs(Cs[w], maps[w, i])
            assert np.array_equal(split_w[w, i], one_split)
            assert np.array_equal(costs_w[w, i], one_costs)


def test_copilot_costs_ignore_own_cell_entries():
    # a cost matrix with non-zero diagonal blocks: the own cell never counts
    rng = np.random.default_rng(17)
    C = rng.uniform(0.0, 1.0, size=(3, 2, 3, 2))
    u2p = np.array([[0, 1], [1, 0], [0, 0]])
    costs, _ = _ref_extended(C, u2p)
    assert np.array_equal(_copilot_costs(C, u2p)[1], costs)


# ------------------------------------------------------------- calibration

@pytest.mark.parametrize("redraw", ["none", "positions"])
def test_calibration_matches_per_sample_loop(redraw):
    cfg = SystemConfig(L=3, K=3, M=32, scatter_radius=30.0, exclusion_radius=100.0)
    opts = EnvOptions(redraw=redraw, threshold_samples=60, q_low=0.2, q_high=0.7)
    th = calibrate_thresholds(cfg, opts, np.random.default_rng(21))

    rng = np.random.default_rng(21)
    layout = build_layout(cfg.L, cfg.R)

    def world():
        return ScenarioBundle.build(
            cfg, layout, drop_users(layout, cfg.K, cfg.exclusion_radius, rng))

    fixed = None if redraw == "positions" else world()
    samples = []
    for _ in range(opts.threshold_samples):
        C = _ref_pairwise(fixed or world())
        p2u = random_assignment(cfg.L, cfg.K, rng).pilot_to_user
        samples.append(_ref_total_costs(C, p2u)["global_max"])
    g1 = float(np.quantile(samples, opts.q_low))
    g2 = float(np.quantile(samples, opts.q_high))
    assert min(samples) < g1 < g2  # no tie adjustment on these draws
    assert (th.g1, th.g2) == (g1, g2)
