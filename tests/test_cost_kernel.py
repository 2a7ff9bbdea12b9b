"""The vectorised cost kernels against straightforward per-target loops.

The references below are the loop implementations the kernels replaced:
one np.interp trapezoid and one null search per target user, and explicit
loops over cells and users for the co-pilot sums. The kernels do the same
arithmetic in the same order, so every comparison is exact.
"""

import dataclasses
import warnings
from dataclasses import dataclass

import numpy as np
import pytest

from cellpilot import (
    AoAInterval,
    EnvOptions,
    ScenarioBundle,
    SystemConfig,
    build_layout,
    calibrate_thresholds,
    cosine_support,
    drop_users,
    extended_user_costs,
    fresh_world,
    pair_cost,
    pairwise_cost_matrix,
    presets,
    random_assignment,
    spr_like_assignment,
    total_costs,
)
from cellpilot.assignment import _pilot_to_user, _spr_like_maps
from cellpilot.contamination import (
    _copilot_costs,
    _copilot_pair_costs,
    _envelope,
    _first_nulls,
    _pair_costs,
    _pairwise_costs,
)
from cellpilot.env import _band_thresholds, _calibration_samples
from cellpilot.scenario import UserDrop, _draw_drops, _links
from conftest import EDGE_CENTERS, MS, make_world, random_world, ref_kernel_zeros

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


@dataclass
class _RefNulls:
    low: float   # the null beyond the high-cosine edge, a smaller angle
    high: float  # the null beyond the low-cosine edge


class _RefSaturated(Exception):
    """No kernel null brackets the support: the cost takes its wide-band value."""


def _ref_first_null_bounds(interval, M, spacing):
    if M < 2:
        raise _RefSaturated("a single-antenna kernel has no nulls")
    lo, hi = _ref_cosine_support(interval)
    for edge in (lo, hi):
        if ref_kernel_zeros(float(np.arccos(edge)), M, spacing).size == 0:
            raise _RefSaturated("an edge-seeded kernel has no zeros")
    step = 1.0 / (M * spacing)
    east = min(hi + step, 1.0)
    west = max(lo - step, -1.0)
    return _RefNulls(low=float(np.arccos(east)), high=float(np.arccos(west)))


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
            except _RefSaturated:
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
    return dict(user_costs=user_costs,
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
            except _RefSaturated:
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
    split_map, _ = spr_like_assignment(world)
    costs, worst = extended_user_costs(world, split_map, pairwise=C)
    want_costs, want_worst = _ref_extended(C, split_map)
    assert np.array_equal(costs, want_costs) and worst == want_worst


def test_costs_match_loop_references_on_random_worlds():
    rng = np.random.default_rng(2024)
    totals = dict(targets=0, saturated=0, clamped=0, crossing=0)
    for seed in range(240):
        world = random_world(rng, seed, edges=seed % 3 == 0)
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
        _assert_costs_match(random_world(rng, seed, **case), rng)


def test_saturated_and_clamped_cases_occur():
    rng = np.random.default_rng(7)
    sat = _world_stats(random_world(rng, 0, L=3, K=3, M=2, spacing=0.2))
    assert sat["saturated"] == sat["targets"]
    clamped = _world_stats(random_world(rng, 0, L=3, K=3, M=4, spacing=0.5,
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
        low, high, saturated = _first_nulls(*cosine_support(iv), M, spacing)
        try:
            want = _ref_first_null_bounds(iv, M, spacing)
        except _RefSaturated:
            raised += 1
            assert saturated
            continue
        assert not saturated
        assert (float(low), float(high)) == (want.low, want.high)
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
                                                      *EDGE_CENTERS])),
                             half_width=float(rng.uniform(0.01, 0.3)))
        M = int(rng.choice(MS[1:]))
        try:
            nulls = _ref_first_null_bounds(target, M, 0.5)
        except _RefSaturated:
            nulls = None
        D = float(rng.uniform(0.1, 30.0))
        # a zero-width interferer scores the envelope twice at one angle
        got = _pair_costs(*cosine_support(target), np.sqrt(D), (phis, phis),
                          M, 0.5) / 2
        assert np.array_equal(got, _ref_approx_gain(phis, target, D, nulls))
        for phi in phis[::97]:
            point = AoAInterval(center=float(phi), half_width=0.0)
            assert pair_cost(target, point, D, M, 0.5) / 2 == \
                _ref_approx_gain(float(phi), target, D, nulls)


def test_envelope_raises_no_warnings():
    rng = np.random.default_rng(11)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for seed, case in enumerate([dict(M=4, spacing=0.5, edges=True),
                                     dict(M=2, spacing=0.2, edges=True),
                                     dict(M=1, spacing=0.5)]):
            pairwise_cost_matrix(random_world(rng, seed, **case))
        # zero-width ramps: both feet clamped at endfire
        _envelope(np.linspace(-1.0, 1.0, 101), -1.0, 1.0, -1.0, 1.0)
        target = AoAInterval(center=0.0, half_width=0.2)
        for phi in np.linspace(0.0, np.pi, 101):
            pair_cost(target, AoAInterval(center=phi, half_width=0.0), 1.0, 16)


# ------------------------------------------------------------ block kernel

@pytest.mark.parametrize("preset, change", [
    ("desk", {}),
    ("full", {}),
    ("full", dict(edges=True)),  # own-BS supports at endfire
    ("desk", dict(M=1)),         # single antenna: saturated targets
    ("desk", dict(M=2)),
    ("desk", dict(spacing=1.0)),
    ("desk", dict(L=1)),
], ids=["desk", "full", "full-endfire", "M=1", "M=2", "spacing=1.0", "L=1"])
def test_block_kernel_matches_per_world_and_loop_references(preset, change):
    # each drop of a block gets the bytes of its own pairwise_cost_matrix
    # call and of the per-target loop, whatever the block's size
    change = dict(change)
    edges = change.pop("edges", False)
    cfg = dataclasses.replace(presets()[preset].config, **change)
    layout = build_layout(cfg.L, cfg.R)
    rng = np.random.default_rng(31)
    positions = _draw_drops(layout, cfg.K, cfg.exclusion_radius, rng, 16)
    links = _links(cfg, layout.bs_positions, positions)
    if edges:
        cells = np.arange(cfg.L)
        links[1][:, cells, cells] = rng.choice(EDGE_CENTERS, size=(16, cfg.L, cfg.K))
    worlds = [ScenarioBundle(cfg, layout, UserDrop(positions[i]), *(a[i] for a in links))
              for i in range(16)]
    want = [pairwise_cost_matrix(w) for w in worlds]
    for i, world in enumerate(worlds):
        assert want[i].tobytes() == _ref_pairwise(world).tobytes(), i
    for count in (1, 3, 8, 16):
        block = _pairwise_costs(cfg, *(a[:count] for a in links))
        assert block.shape == (count, cfg.L, cfg.K, cfg.L, cfg.K)
        for i in range(count):
            assert block[i].tobytes() == want[i].tobytes(), (count, i)


# --------------------------------------------------------- co-pilot kernel

def test_batched_copilot_costs_match_single_calls():
    rng = np.random.default_rng(13)
    cfg = SystemConfig(L=4, K=3, M=32, scatter_radius=30.0, exclusion_radius=100.0)
    Cs = np.stack([pairwise_cost_matrix(make_world(cfg, s)) for s in range(6)])
    maps = rng.integers(0, 4, size=(6, 5, 4, 3))
    # one world against many maps, and many worlds against their maps
    costs = _copilot_costs(Cs[0], maps[0])
    costs_w = _copilot_costs(Cs[:, None], maps)
    for i in range(5):
        assert np.array_equal(costs[i], _copilot_costs(Cs[0], maps[0, i]))
    for w in range(6):
        for i in range(5):
            assert np.array_equal(costs_w[w, i], _copilot_costs(Cs[w], maps[w, i]))


@pytest.mark.parametrize("preset, changes", [
    ("full", {}), ("desk", {}), ("desk", {"L": 1}), ("desk", {"L": 2, "K": 5, "M": 8}),
    ("desk", {"L": 4, "K": 2, "M": 1}),  # M < 2: every pair saturated
])
def test_copilot_pair_costs_match_the_pair_cost_matrix(preset, changes):
    # blocks of 1 to 11 drops, each with its own permutation map, and one
    # drop without a leading axis: the co-pilot pairs alone give the masked
    # sums of the whole matrix, bit for bit
    cfg = dataclasses.replace(presets()[preset].config, **changes)
    layout = build_layout(cfg.L, cfg.R)
    rng = np.random.default_rng(cfg.L * 10 + cfg.K)
    for count in range(1, 12):
        links = _links(cfg, layout.bs_positions,
                       _draw_drops(layout, cfg.K, cfg.exclusion_radius, rng, count))
        p2u = np.stack([random_assignment(cfg.L, cfg.K, rng).pilot_to_user
                        for _ in range(count)])
        u2p = np.argsort(p2u, axis=-1)
        want = _copilot_costs(_pairwise_costs(cfg, *links), u2p)
        got = _copilot_pair_costs(cfg, links, u2p, p2u)
        assert got.shape == want.shape == (count, cfg.L, cfg.K)
        assert got.tobytes() == want.tobytes(), count
    one = tuple(a[0] for a in links)
    assert _copilot_pair_costs(cfg, one, u2p[0], p2u[0]).tobytes() == \
        _copilot_costs(_pairwise_costs(cfg, *one), u2p[0]).tobytes()


@pytest.mark.parametrize("edge_ratio", [0.0, 1.0 / 3.0, 1.0, 1e9])
@pytest.mark.parametrize("preset, changes", [
    ("full", {}), ("desk", {}), ("desk", {"L": 1}), ("desk", {"L": 2, "K": 5, "M": 8}),
])
def test_copilot_pair_costs_match_on_spr_like_maps(preset, changes, edge_ratio):
    # spr_like's maps leave each dedicated edge pilot unheld in every other
    # cell (-1 in pilot_to_user; at edge_ratio 1e9 every user is an edge
    # user): blocks of 1, 7, 8 and 11 drops, each map the one its drop gets
    # alone, and one drop without a leading axis still give the masked sums
    # of the whole matrix, bit for bit
    cfg = dataclasses.replace(presets()[preset].config, **changes)
    layout = build_layout(cfg.L, cfg.R)
    rng = np.random.default_rng(cfg.L * 10 + cfg.K)
    for count in (1, 7, 8, 11):
        positions = _draw_drops(layout, cfg.K, cfg.exclusion_radius, rng, count)
        links = _links(cfg, layout.bs_positions, positions)
        u2p, report = _spr_like_maps(positions, layout.bs_positions, edge_ratio)
        for i in range(count):
            world = ScenarioBundle(cfg, layout, UserDrop(positions[i]), *(a[i] for a in links))
            alone, alone_report = spr_like_assignment(world, edge_ratio)
            assert u2p[i].tobytes() == alone.tobytes() and report == alone_report, (count, i)
        p2u = _pilot_to_user(u2p, report.required_pilots)
        assert p2u.shape == (count, cfg.L, report.required_pilots)
        want = _copilot_costs(_pairwise_costs(cfg, *links), u2p)
        got = _copilot_pair_costs(cfg, links, u2p, p2u)
        assert got.shape == want.shape == (count, cfg.L, cfg.K)
        assert got.tobytes() == want.tobytes(), count
    one = tuple(a[0] for a in links)
    assert _copilot_pair_costs(cfg, one, u2p[0], p2u[0]).tobytes() == \
        _copilot_costs(_pairwise_costs(cfg, *one), u2p[0]).tobytes()


def test_copilot_costs_ignore_own_cell_entries():
    # a cost matrix with non-zero diagonal blocks: the own cell never counts
    rng = np.random.default_rng(17)
    C = rng.uniform(0.0, 1.0, size=(3, 2, 3, 2))
    u2p = np.array([[0, 1], [1, 0], [0, 0]])
    costs, _ = _ref_extended(C, u2p)
    assert np.array_equal(_copilot_costs(C, u2p), costs)


# ------------------------------------------------------------- calibration

@pytest.mark.parametrize("redraw", ["smallscale", "positions"])
def test_calibration_matches_per_sample_loop(redraw):
    cfg = SystemConfig(L=3, K=3, M=32, scatter_radius=30.0, exclusion_radius=100.0)
    opts = EnvOptions(redraw=redraw, threshold_samples=60, q_low=0.2, q_high=0.7)
    gen = np.random.default_rng(21)
    th = calibrate_thresholds(cfg, opts, gen)

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
    # "positions" scores its drops in blocks, yet draws drop i, then map i
    assert gen.bit_generator.state == rng.bit_generator.state
    g1 = float(np.quantile(samples, opts.q_low))
    g2 = float(np.quantile(samples, opts.q_high))
    assert min(samples) < g1 < g2  # no tie adjustment on these draws
    assert (th.g1, th.g2) == (g1, g2)


@pytest.mark.parametrize("redraw", ["smallscale", "positions"])
@pytest.mark.parametrize("preset", ["desk", "full"])
def test_calibration_samples_match_total_costs_loop(preset, redraw):
    # 150 samples, scored in blocks of 8 drops or 64 maps and a last,
    # smaller block, against one total_costs per sample on the same draws
    # (drop i, then map i, when positions are redrawn), bit for bit; the
    # thresholds are those of the loop's samples
    cfg = presets()[preset].config
    opts = EnvOptions(redraw=redraw, threshold_samples=150)
    gen, rng = np.random.default_rng(7), np.random.default_rng(7)
    samples = _calibration_samples(cfg, opts, gen)

    layout = build_layout(cfg.L, cfg.R)
    world = fresh_world(cfg, rng, layout)
    ref = []
    for i in range(opts.threshold_samples):
        if redraw == "positions" and i > 0:
            world = fresh_world(cfg, rng, layout)
        p2u = random_assignment(cfg.L, cfg.K, rng).pilot_to_user
        ref.append(total_costs(world, p2u).global_max)
    ref = np.array(ref)
    assert samples.tobytes() == ref.tobytes()
    assert gen.bit_generator.state == rng.bit_generator.state
    assert calibrate_thresholds(cfg, opts, np.random.default_rng(7)) == \
        _band_thresholds(ref, opts)


@pytest.mark.parametrize("K, n", [(3, 7), (3, 500), (4, 60), (5, 200)])
def test_batched_calibration_matches_per_sample_permutations(K, n):
    # the reference draws each sample's map with one rng.permutation(K) per
    # cell, as n separate random assignments would, bypassing random_assignment
    cfg = SystemConfig(L=3, K=K, M=32, scatter_radius=30.0, exclusion_radius=100.0)
    opts = EnvOptions(redraw="smallscale", threshold_samples=n, q_low=0.2, q_high=0.7)
    world = make_world(cfg, seed=K)
    gen = np.random.default_rng(K + n)
    th = calibrate_thresholds(cfg, opts, gen, pairwise=pairwise_cost_matrix(world))

    rng = np.random.default_rng(K + n)
    C = _ref_pairwise(world)
    samples = [_ref_total_costs(C, np.stack([rng.permutation(K) for _ in range(cfg.L)]))
               ["global_max"] for _ in range(n)]
    assert gen.bit_generator.state == rng.bit_generator.state
    g1 = float(np.quantile(samples, opts.q_low))
    g2 = float(np.quantile(samples, opts.q_high))
    assert min(samples) < g1 < g2  # no tie adjustment on these draws
    assert (th.g1, th.g2) == (g1, g2)
