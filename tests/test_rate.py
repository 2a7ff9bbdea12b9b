"""Uplink rate benchmark: moving average, SINR scaling, contamination effects."""

import math

import numpy as np
import pytest

from cellpilot import (
    BudgetError,
    RateOptions,
    covariance,
    extended_user_costs,
    min_rate,
    moving_average,
    random_assignment,
    rate,
    spr_like_assignment,
    steering,
)
from cellpilot.channel import QUAD_POINTS, _midpoints
from cellpilot.rate import _check_realization, _draw_channels, _expi, _table_rows
from conftest import make_world, outputs_per_blas_threads, small_config, traced_peak


# ----------------------------------------------------------- moving average

def test_moving_average_window_one_is_identity(rng):
    x = rng.random(20)
    # identity up to cumulative-sum round-off
    assert np.allclose(moving_average(x, 1), x, rtol=1e-12, atol=1e-13)


def test_moving_average_worked_example():
    out = moving_average(np.array([1.0, 2.0, 3.0, 4.0]), 2)
    assert np.allclose(out, [1.0, 1.5, 2.5, 3.5], atol=1e-15)


def test_moving_average_truncated_head():
    # window wider than the series: trailing mean becomes the running mean
    x = np.array([2.0, 4.0, 6.0])
    out = moving_average(x, 10)
    assert np.allclose(out, [2.0, 3.0, 4.0], atol=1e-15)


def test_moving_average_constant_series():
    out = moving_average(np.full(30, 7.5), 6)
    assert np.allclose(out, 7.5, atol=1e-15)


def test_moving_average_rejects_bad_window():
    with pytest.raises(ValueError):
        moving_average(np.arange(4.0), 0)


# ---------------------------------------------------------- channel draws

def test_draws_match_covariance():
    # every link's sample covariance over 2e4 benchmark draws against the
    # quadrature covariance; on the same draws, each entry's mean is zero
    # within 3 sigma and the mean power is gain * M
    cfg = small_config(L=2, K=1, M=8)
    world = make_world(cfg, seed=3)
    gains = np.array([1.0, 0.5, 2.0, 4.0]).reshape(2, 2, 1)
    rng = np.random.default_rng(11)
    acc = np.zeros((2, 2, 1, 8, 8), dtype=complex)
    total = np.zeros((2, 2, 1, 8), dtype=complex)
    n = 0
    for _ in range(10):
        g = _draw_channels(world, 50, rng, 2000, gains)
        acc += np.einsum("njlkm,njlkq->jlkmq", g, g.conj())
        total += g.sum(axis=0)
        n += len(g)
    for j in range(2):
        for l in range(2):
            D = gains[j, l, 0]
            R = covariance(world.interval(j, l, 0), D, cfg.M, cfg.spacing)
            C = acc[j, l, 0] / n
            assert np.linalg.norm(C - R) / np.linalg.norm(R) < 0.02
            assert (np.abs(total[j, l, 0] / n) < 3.0 * np.sqrt(D / n)).all()
            assert np.trace(C).real == pytest.approx(D * cfg.M, rel=0.05)


def test_single_path_draw_order():
    # P=1: replaying the draws (every angle, then every phase) rebuilds each
    # link as sqrt(gain) * alpha * steering(omega), and leaves the generator
    # where _draw_channels leaves it; the power tables round within a few
    # ulps of |g| = 2 of the direct exponential
    cfg = small_config(L=2, K=2, M=8)
    world = make_world(cfg, seed=5)
    rng, replay = np.random.default_rng(42), np.random.default_rng(42)
    g = _draw_channels(world, 1, rng, 1, np.full((2, 2, 2), 4.0))
    u = replay.random((1, 2, 2, 2, 1))
    alphas = np.exp(2j * np.pi * replay.random((1, 2, 2, 2, 1)))
    for j, l, k in np.ndindex(2, 2, 2):
        iv = world.interval(j, l, k)
        omega = iv.low + 2.0 * iv.half_width * u[0, j, l, k, 0]
        a = steering(omega, cfg.M, cfg.spacing)
        assert np.abs(g[0, j, l, k] - 2.0 * alphas[0, j, l, k, 0] * a).max() <= 1e-14
    assert rng.random() == replay.random()


def _reference_draw_channels(bundle, P, rng, n_mc, gains):
    """_draw_channels as one exp per (path, antenna) and an einsum over paths.

    The same draws in the same order; the phase tensor is built one
    realization at a time only to bound its memory.
    """
    cfg = bundle.config
    L, K = bundle.drop.shape
    M = cfg.M
    lows = (bundle.centers - bundle.half_widths)[..., None]
    widths = (2.0 * bundle.half_widths)[..., None]
    omegas = lows + widths * rng.random((n_mc, L, L, K, P))
    alphas = np.exp(2j * np.pi * rng.random((n_mc, L, L, K, P)))
    g = np.stack([
        np.einsum("jlkp,jlkpm->jlkm", a, np.exp(
            -2j * np.pi * cfg.spacing * np.cos(o)[..., None] * np.arange(M)))
        for o, a in zip(omegas, alphas)])
    scale = np.sqrt(gains / P)[None, ..., None]
    return scale * g


@pytest.mark.parametrize("M", [1, 2, 3, 7, 16, 64, 100, 128])
def test_draws_match_direct_exponential(M):
    # power tables against one exp per (path, antenna), non-square M
    # included (Q*R > M), with the generator left where the reference
    # leaves it
    for spacing in (0.1, 0.5, 1.0):
        cfg = small_config(L=2, K=2, M=M, spacing=spacing)
        world = make_world(cfg, seed=M)
        gains = np.random.default_rng(M).uniform(0.1, 2.0, (2, 2, 2))
        for P in (1, 25, 50):
            rng_new, rng_ref = (np.random.default_rng(P + M) for _ in range(2))
            g = _draw_channels(world, P, rng_new, 3, gains)
            ref = _reference_draw_channels(world, P, rng_ref, 3, gains)
            assert g.shape == ref.shape == (3, 2, 2, 2, M)
            assert np.abs(g - ref).max() <= 1e-12 * np.abs(ref).max()
            assert rng_new.random() == rng_ref.random()


def _whole_chunk_draw_channels(bundle, P, rng, n_mc, gains):
    """_draw_channels with every realization of the chunk in one power sum."""
    cfg = bundle.config
    L, K = bundle.drop.shape
    omegas = ((bundle.centers - bundle.half_widths)[..., None]
              + (2.0 * bundle.half_widths)[..., None] * rng.random((n_mc, L, L, K, P)))
    alphas = np.exp(2j * np.pi * rng.random((n_mc, L, L, K, P)))
    z = np.exp(-2j * np.pi * cfg.spacing * np.cos(omegas))
    return np.sqrt(gains / P)[None, ..., None] * rate._power_sum(z, alphas, cfg.M)


@pytest.mark.parametrize("per_block", [None, 1, 2, 3, 0.5, "half-link"])
@pytest.mark.parametrize("L, K, M, P", [(2, 3, 8, 5), (3, 3, 64, 25), (7, 4, 100, 50)])
def test_draw_blocks_match_whole_chunk(monkeypatch, L, K, M, P, per_block):
    # blocks of per_block realizations' power tables (None: the default
    # budget; 0.5: half a realization; half-link: less than one link's, so
    # one link per block) give the whole chunk's bytes and leave the
    # generator where it leaves it
    R = math.ceil(math.sqrt(M))
    link_bytes = (R + -(-M // R)) * P * 16  # one link's tables
    if per_block == "half-link":
        monkeypatch.setattr(rate, "_BLOCK_BYTES", link_bytes // 2)
    elif per_block is not None:
        monkeypatch.setattr(rate, "_BLOCK_BYTES", int(per_block * L * L * K * link_bytes))
    world = make_world(small_config(L=L, K=K, M=M), seed=L)
    gains = np.random.default_rng(K).uniform(0.1, 2.0, (L, L, K))
    rng_new, rng_ref = np.random.default_rng(M), np.random.default_rng(M)
    g = _draw_channels(world, P, rng_new, 7, gains)
    ref = _whole_chunk_draw_channels(world, P, rng_ref, 7, gains)
    assert g.shape == ref.shape == (7, L, L, K, M)
    assert g.tobytes() == ref.tobytes()
    assert rng_new.random() == rng_ref.random()


def test_min_rate_matches_direct_exponential_over_chunks(monkeypatch):
    # full scale, 110 realizations: draws in chunks of 51, 51 and 8
    cfg = small_config(L=7, K=4, M=100)
    world = make_world(cfg, seed=5)
    u2p = np.array([[0, 1, 2, 3]] * 7)
    opts = RateOptions(n_mc=110, paths=50)
    new = min_rate(world, [(u2p, 4)], np.random.default_rng(9), opts)[0].rates
    monkeypatch.setattr(rate, "_draw_channels", _reference_draw_channels)
    ref = min_rate(world, [(u2p, 4)], np.random.default_rng(9), opts)[0].rates
    assert np.abs(new - ref).max() <= 1e-12 * np.abs(ref).max()


_RATES_SCRIPT = """
import sys
import numpy as np
sys.path[:0] = sys.argv[1:]
from cellpilot import RateOptions, min_rate
from conftest import make_world, outputs_per_blas_threads, small_config
world = make_world(small_config(L={L}, K={K}, M={M}), seed=2)
rep, = min_rate(world, [(np.array([list(range({K}))] * {L}), {K})],
                np.random.default_rng(4), RateOptions(n_mc=20, paths=50))
print(rep.rates.tobytes().hex())
"""


def test_rates_independent_of_blas_threads():
    # the stacked matmuls, the strided filter operand and the combining must
    # not depend on how many threads OpenBLAS splits them over, at desk and
    # at full scale, whose zgemm shapes take other BLAS paths
    for L, K, M in ((3, 3, 64), (7, 4, 100)):
        default, single = outputs_per_blas_threads(_RATES_SCRIPT.format(L=L, K=K, M=M))
        assert default and default == single


def test_expi_matches_complex_exponential():
    # bit for bit, on the angles the rate pass builds (path phases, steering
    # factors of drawn angles, quadrature nodes) and on multiples of pi/2
    rng = np.random.default_rng(0)
    world = make_world(small_config(L=3, K=3, M=64), seed=1)
    own = np.arange(3)
    nodes = _midpoints(world.interval(own, own, slice(None)), QUAD_POINTS)
    angles = [2.0 * np.pi * rng.random((50, 3, 3, 3, 50)),
              np.array([0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi, 2.0 * np.pi])]
    for spacing in (0.1, 0.5, 1.0):
        angles += [-2.0 * np.pi * spacing * np.cos(rng.uniform(-np.pi, np.pi, 10 ** 5)),
                   -2.0 * np.pi * spacing * np.cos(nodes)]
    for theta in angles:
        assert _expi(theta).tobytes() == np.exp(1j * theta).tobytes()


def test_single_path_has_constant_power():
    # unit-modulus phases: one path's power does not vary between draws
    world = make_world(small_config(L=2, K=1, M=8), seed=3)
    g = _draw_channels(world, 1, np.random.default_rng(0), 2000, np.ones((2, 2, 1)))
    assert ((np.abs(g) ** 2).mean(axis=-1)).var() < 1e-20


# ---------------------------------------------------------- rate: filters

@pytest.mark.parametrize("M", [1, 8, 64, 100])
@pytest.mark.parametrize("K", [1, 3, 4])
@pytest.mark.parametrize("L", [1, 2, 3, 7])
def test_filters_match_covariance(L, K, M):
    # each Toeplitz filter against the transposed covariance oracle, on the
    # drawn supports and again with own links cycling through a zero-width
    # support, a half-width clamped near pi/2 and the drawn one
    bundle = make_world(small_config(L=L, K=K, M=M), seed=L * 100 + K * 10 + M)
    own = np.arange(L)
    drawn = bundle.half_widths[own, own].copy()
    cycled = np.resize([0.0, np.pi / 2 - 1e-9, np.nan], L * K).reshape(L, K)
    for widths in (drawn, np.where(np.isnan(cycled), drawn, cycled)):
        bundle.half_widths[own, own] = widths
        filt = rate._filters(bundle)
        assert filt.shape == (L, K, M, M)
        for j in range(L):
            for k in range(K):
                R = covariance(bundle.interval(j, j, k), 1.0, M, bundle.config.spacing)
                assert np.abs(filt[j, k] - R.T).max() <= 1e-12 * np.abs(R).max()
        assert np.array_equal(filt, filt.conj().swapaxes(-1, -2))
        assert np.all(filt[..., np.arange(M), np.arange(M)] == 1.0)


def _gathered_filters(bundle):
    """_filters as one np.exp per quadrature node and an (M, M) index gather
    of the lag vectors into a contiguous (L, K, M, M) copy."""
    cfg = bundle.config
    own = np.arange(bundle.drop.shape[0])
    nodes = _midpoints(bundle.interval(own, own, slice(None)), QUAD_POINTS)
    z = np.exp(-2j * np.pi * cfg.spacing * np.cos(nodes))
    lag = rate._power_sum(z, 1.0 / QUAD_POINTS, cfg.M)
    both = np.concatenate([lag[..., :0:-1].conj(), lag], axis=-1)
    d = np.arange(cfg.M)
    return both[..., d[None, :] - d[:, None] + cfg.M - 1]


@pytest.mark.parametrize("L, K, M", [(3, 3, 64), (7, 4, 100)])
def test_filter_view_matches_gather(L, K, M):
    # the strided view holds the gathered filters bit for bit and cannot be
    # written through. It filters a chunk's estimates to the bytes that a
    # contiguous copy gives (a numpy that routes the reversed-stride operand
    # around BLAS fails here), and to the bytes of the gathered layout, whose
    # core strides are not BLAS-able either, down to a one-realization chunk
    # (a one-row operand takes numpy's own loop through both)
    bundle = make_world(small_config(L=L, K=K, M=M), seed=L)
    filt, gathered = rate._filters(bundle), _gathered_filters(bundle)
    assert filt.shape == (L, K, M, M)
    assert filt.tobytes() == gathered.tobytes()
    assert not filt.flags.writeable
    rng = np.random.default_rng(M)
    for n in (51, 2, 1):
        est = rng.standard_normal((L, K, n, M)) + 1j * rng.standard_normal((L, K, n, M))
        assert (est @ filt).tobytes() == (est @ gathered).tobytes()
    est = rng.standard_normal((L, K, 51, M)) + 1j * rng.standard_normal((L, K, 51, M))
    assert (est @ filt).tobytes() == (est @ np.ascontiguousarray(filt)).tobytes()


@pytest.mark.parametrize("links", [1, 2, 5])
@pytest.mark.parametrize("L, K, M", [(1, 1, 8), (3, 3, 64), (7, 4, 100)])
def test_filter_blocks_keep_their_bytes(monkeypatch, L, K, M, links):
    # the lag power sums over blocks of `links` links' tables (one link:
    # less than one link's bytes) give the filters of one pass over all
    R = math.ceil(math.sqrt(M))
    link_bytes = (R + -(-M // R)) * QUAD_POINTS * 16
    monkeypatch.setattr(rate, "_BLOCK_BYTES", links * link_bytes - (links == 1))
    bundle = make_world(small_config(L=L, K=K, M=M), seed=L + K)
    assert rate._filters(bundle).tobytes() == _gathered_filters(bundle).tobytes()


def test_filters_working_set():
    # full scale: the lag tables of 6 links at a time hold about 1.4 MiB at
    # the peak, 5.0 MiB when one pass took all 28 links' tables
    world = make_world(small_config(L=7, K=4, M=100), seed=5)
    assert traced_peak(lambda: rate._filters(world)) < 1.5 * 2 ** 20


# --------------------------------------------------------------- rate: API

def _identity_pilots(L, K):
    return np.tile(np.arange(K), (L, 1))


def test_no_maps_draw_nothing():
    bundle = make_world(small_config(L=2, K=2, M=16), seed=0)
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    assert min_rate(bundle, [], rng, RateOptions(n_mc=5, paths=10)) == []
    assert rng.bit_generator.state == state


def test_realization_cap():
    # checked from the shapes alone, before anything is allocated: the
    # M = 100000 scenario fits, 10^8 paths or 10^7 antennas do not, and the
    # error names the key that drives the size
    assert _check_realization(7, 4, 100, 50) == 20
    _check_realization(7, 4, 100000, 200)
    with pytest.raises(BudgetError, match=r"lower \[rate\] paths"):
        _check_realization(7, 4, 100, 10 ** 8)
    with pytest.raises(BudgetError, match=r"lower \[scenario\] M"):
        _check_realization(7, 4, 10 ** 7, 200)


def test_the_cap_counts_the_power_tables_power_sum_makes(monkeypatch):
    # _check_realization sizes the rows that _power_sum allocates, R + Q
    # with R*Q the fewest rows of R = ceil(sqrt(M)) that cover M antennas
    made = []
    real_empty = np.empty

    def empty(shape, *args, **kwargs):
        made.append(shape[0])
        return real_empty(shape, *args, **kwargs)

    monkeypatch.setattr(rate.np, "empty", empty)
    for M in (1, 2, 8, 64, 99, 100, 101):
        R, Q = _table_rows(M)
        assert R * Q >= M > R * (Q - 1)
        made.clear()
        rate._power_sum(np.full(3, 0.5 + 0.5j), 1.0, M)
        assert made == [R, Q]
        assert _check_realization(1, 1, M, 1) == R + Q


def test_rate_pass_working_set():
    # one full-scale call (K pilots and spr_like's map, n_mc=20, 50 paths)
    # holds about 10.0 MiB of arrays at its peak; 14.2 MiB before the
    # draws, the noise and the co-user terms were bounded
    world = make_world(small_config(L=7, K=4, M=100), seed=5)
    split_map, split = spr_like_assignment(world)
    maps = [(_identity_pilots(7, 4), 4), (split_map, split.required_pilots)]
    opts = RateOptions(n_mc=20, paths=50)
    assert traced_peak(lambda: min_rate(world, maps, np.random.default_rng(1), opts)) \
        < 12 * 2 ** 20


def test_report_invariants():
    bundle = make_world(small_config(L=2, K=2, M=16), seed=0)
    rep, = min_rate(bundle, [(_identity_pilots(2, 2), 2)],
                    np.random.default_rng(0),
                    RateOptions(n_mc=5, paths=10))
    assert rep.rates.shape == (2, 2)
    assert np.all(np.isfinite(rep.rates)) and np.all(rep.rates > 0)
    assert rep.min_rate == rep.rates.min()
    assert rep.n_mc == 5


@pytest.mark.parametrize("u2p", [
    [[0, 1], [0, -1]],   # negative pilot
    [[0, 1], [0, 2]],    # pilot >= n_pilots
    [[0, 1]],            # one cell short
    [[0, 1, 0], [1, 0, 1]],  # three users per cell
])
def test_min_rate_rejects_bad_pilot_maps(u2p):
    # alone, and after a good map
    bundle = make_world(small_config(L=2, K=2, M=8), seed=0)
    for maps in ([(np.array(u2p), 2)], [(_identity_pilots(2, 2), 2), (np.array(u2p), 2)]):
        with pytest.raises(ValueError):
            min_rate(bundle, maps, np.random.default_rng(0), RateOptions(n_mc=2, paths=5))


def test_rate_determinism():
    bundle = make_world(small_config(L=2, K=2, M=16), seed=3)
    reports = [min_rate(bundle, [(_identity_pilots(2, 2), 2)],
                        np.random.default_rng(42), RateOptions(n_mc=8, paths=10))[0]
               for _ in range(2)]
    assert np.array_equal(reports[0].rates, reports[1].rates)


# -------------------------------------- rate: stacked pass against the loop

def _reference_min_rate(bundle, user_to_pilot, n_pilots, rng, options,
                        first_pilots=None):
    """min_rate's rates as a per-user loop over filters, estimates and SINRs.

    The same draws in the same chunks, from rate._draw_channels, and the
    same filters, from rate._filters (test_filters_match_covariance checks
    those against covariance); each (cell, user) filters and scores on its
    own, and its co-users come from a list of (cell, first user of that
    cell on the same pilot). In a call whose first map has first_pilots
    pilots, each chunk's noise comes from the state right after its
    channels, and the next chunk's channels follow the first map's noise.
    """
    cfg = bundle.config
    L, K = bundle.drop.shape
    pilot_snr = (10.0 ** (options.pilot_snr_db / 10.0)
                 if options.pilot_snr_db is not None else cfg.cell_edge_snr)
    P = options.paths
    noise_var = 1.0 / pilot_snr
    serving = np.einsum("llu->lu", bundle.gains)
    geff = bundle.gains / serving[None, :, :]
    filt = rate._filters(bundle)
    pilot_of = np.asarray(user_to_pilot)
    cousers = [[[(l, int(np.flatnonzero(pilot_of[l] == pilot_of[j, k])[0]))
                 for l in range(L)
                 if l != j and np.any(pilot_of[l] == pilot_of[j, k])]
                for k in range(K)] for j in range(L)]
    rates = np.zeros((L, K))
    sinr_acc = np.zeros((L, K))
    chunk = max(1, min(options.n_mc,
                       int(rate._DRAW_BUDGET // (L * L * K * P * cfg.M))))
    done = 0
    while done < options.n_mc:
        n = min(chunk, options.n_mc - done)
        g = rate._draw_channels(bundle, P, rng, n, geff)
        state = rng.bit_generator.state
        noise = (rng.standard_normal((n, L, n_pilots, cfg.M))
                 + 1j * rng.standard_normal((n, L, n_pilots, cfg.M))) / np.sqrt(2.0)
        # the first map's real and imaginary noise, drawn last, moves the stream on
        rng.bit_generator.state = state
        rng.standard_normal((2, n, L, first_pilots or n_pilots, cfg.M))
        est = np.sqrt(noise_var) * noise
        for l in range(L):
            for k in range(K):
                est[:, :, pilot_of[l, k]] += g[:, :, l, k]
        for j in range(L):
            for k in range(K):
                v = est[:, j, pilot_of[j, k]] @ filt[j, k]
                num = np.abs(np.einsum("nm,nm->n", v.conj(), g[:, j, j, k])) ** 2
                den = noise_var * (np.abs(v) ** 2).sum(axis=1)
                for l, u in cousers[j][k]:
                    den = den + np.abs(
                        np.einsum("nm,nm->n", v.conj(), g[:, j, l, u])) ** 2
                sinr = num / den
                if options.ergodic:
                    rates[j, k] += np.log2(1.0 + sinr).sum()
                else:
                    sinr_acc[j, k] += sinr.sum()
        done += n
    if options.ergodic:
        return rates / options.n_mc
    return np.log2(1.0 + sinr_acc / options.n_mc)


def _assert_matches_loop(monkeypatch, bundle, u2p, n_pilots, opts, chunk=3):
    # a budget of `chunk` realizations per draw, so n_mc spans several
    L, K = bundle.drop.shape
    monkeypatch.setattr(rate, "_DRAW_BUDGET",
                        chunk * L * L * K * opts.paths * bundle.config.M)
    new = min_rate(bundle, [(u2p, n_pilots)], np.random.default_rng(3), opts)[0].rates
    ref = _reference_min_rate(bundle, u2p, n_pilots, np.random.default_rng(3), opts)
    assert np.array_equal(new, ref)


@pytest.mark.parametrize("M", [1, 8, 64, 100])
@pytest.mark.parametrize("K", [1, 3, 4])
@pytest.mark.parametrize("L", [1, 2, 3, 7])
def test_stacked_pass_matches_per_user_loop(monkeypatch, L, K, M):
    # bit for bit, over 7 realizations in chunks of 3, 3 and 1, for the
    # identity, a random and the spr_like pilot map
    bundle = make_world(small_config(L=L, K=K, M=M), seed=L * 100 + K * 10 + M)
    opts = RateOptions(n_mc=7, paths=10)
    split_map, split = spr_like_assignment(bundle)
    random_map = random_assignment(L, K, np.random.default_rng(M)).user_to_pilot()
    for u2p, n_pilots in ((_identity_pilots(L, K), K), (random_map, K),
                          (split_map, split.required_pilots)):
        _assert_matches_loop(monkeypatch, bundle, u2p, n_pilots, opts)


@pytest.mark.parametrize("ergodic", [True, False])
@pytest.mark.parametrize("u2p, n_pilots", [
    # pilot 3 only in cell 1, pilot 2 unused there
    ([[0, 1, 2], [0, 1, 3], [0, 1, 2]], 4),
    # pilot 0 twice in cell 0 and pilot 2 twice in cell 1
    ([[0, 0, 1], [1, 2, 2], [0, 1, 2]], 3),
    # every user on one pilot
    ([[0, 0, 0], [0, 0, 0], [0, 0, 0]], 1),
])
def test_stacked_pass_matches_loop_on_irregular_maps(monkeypatch, u2p, n_pilots,
                                                     ergodic):
    bundle = make_world(small_config(L=3, K=3, M=16), seed=8)
    opts = RateOptions(n_mc=7, paths=10, ergodic=ergodic)
    _assert_matches_loop(monkeypatch, bundle, np.array(u2p), n_pilots, opts)


@pytest.mark.parametrize("ergodic", [True, False])
@pytest.mark.parametrize("chunk", [3, 7])
def test_shared_pass_matches_lone_per_user_loops(monkeypatch, ergodic, chunk):
    # one call scores every map as the per-user loop scores it on the
    # call's channel draws: K pilots, spr_like's 5 = 1 + 3 * 2, the
    # all-on-one-pilot map and a repeated map, over one chunk of 7 and over
    # chunks of 3, 3 and 1; the first map's report, and the caller's
    # generator afterwards, are those of a lone call of the first map
    bundle = make_world(small_config(L=3, K=3, M=16), seed=8)
    monkeypatch.setattr(rate, "_DRAW_BUDGET", chunk * 3 * 3 * 3 * 10 * 16)
    split_map, split = spr_like_assignment(bundle)
    random_map = random_assignment(3, 3, np.random.default_rng(1)).user_to_pilot()
    maps = [(split_map, split.required_pilots), (random_map, 3),
            (np.zeros((3, 3), dtype=int), 1), (_identity_pilots(3, 3), 3),
            (random_map, 3)]
    assert split.required_pilots == 5
    opts = RateOptions(n_mc=7, paths=10, ergodic=ergodic)
    rng = np.random.default_rng(3)
    reports = min_rate(bundle, maps, rng, opts)
    assert len(reports) == len(maps)
    for report, (u2p, n_pilots) in zip(reports, maps):
        ref = _reference_min_rate(bundle, u2p, n_pilots, np.random.default_rng(3), opts,
                                  split.required_pilots)
        assert np.array_equal(report.rates, ref)
        assert report.min_rate == ref.min() and report.n_mc == 7
    lone = np.random.default_rng(3)
    assert np.array_equal(min_rate(bundle, maps[:1], lone, opts)[0].rates, reports[0].rates)
    assert rng.random() == lone.random()


def test_every_chunk_draws_its_channels_once(monkeypatch):
    # two pilot counts over chunks of 3, 3 and 1: one channel draw per
    # chunk, which both maps read
    bundle = make_world(small_config(L=3, K=3, M=16), seed=8)
    monkeypatch.setattr(rate, "_DRAW_BUDGET", 3 * 3 * 3 * 3 * 10 * 16)
    real, draws = rate._draw_channels, []

    def spy(bundle, P, rng, n_mc, gains):
        draws.append(n_mc)
        return real(bundle, P, rng, n_mc, gains)

    monkeypatch.setattr(rate, "_draw_channels", spy)
    maps = [(_identity_pilots(3, 3), 3), (np.zeros((3, 3), dtype=int), 1)]
    min_rate(bundle, maps, np.random.default_rng(3), RateOptions(n_mc=7, paths=10))
    assert draws == [3, 3, 1]


# ------------------------------------------------------------ rate: physics

def _mean_sinr_db(report):
    sinr = 2.0 ** report.rates - 1.0
    return 10.0 * np.log10(sinr)


def test_array_gain_doubling_antennas():
    # orthogonal pilots, single cell: doubling M doubles the post-combining
    # SNR, i.e. +3 dB on the mean SINR
    gains = []
    for seed in (0, 1, 2):
        per_m = {}
        for M in (32, 64):
            bundle = make_world(small_config(L=1, K=2, M=M), seed=seed)
            rep, = min_rate(bundle, [(_identity_pilots(1, 2), 2)],
                            np.random.default_rng(seed),
                            RateOptions(n_mc=100, paths=20, ergodic=False))
            per_m[M] = _mean_sinr_db(rep)
        gains.append(np.mean(per_m[64] - per_m[32]))
    assert abs(np.mean(gains) - 3.0) < 0.5


def test_symmetric_pair_sinr_near_unity():
    # two users statistically identical to both base stations sharing one
    # pilot: contamination as strong as the signal, so SINR sits near 1
    bundle = make_world(small_config(L=2, K=1, M=128), seed=0)
    bundle.gains = np.full_like(bundle.gains, 2.0)
    bundle.centers = np.full_like(bundle.centers, np.pi / 3)
    bundle.half_widths = np.full_like(bundle.half_widths, 0.1)
    rep, = min_rate(bundle, [(np.zeros((2, 1), dtype=int), 1)],
                    np.random.default_rng(7),
                    RateOptions(n_mc=300, paths=20, pilot_snr_db=30.0,
                                ergodic=False))
    sinr = 2.0 ** rep.rates - 1.0
    assert np.all(sinr > 0.5) and np.all(sinr < 2.0)


def test_low_cost_assignment_earns_higher_min_rate():
    # the two assignment classes of an L=2, K=2 cluster, on a drop where
    # their contamination costs differ sharply
    cfg = small_config(L=2, K=2, M=64, scatter_radius=30.0,
                       exclusion_radius=150.0)
    bundle = make_world(cfg, seed=1)
    classes = [np.array([[0, 1], [0, 1]]), np.array([[0, 1], [1, 0]])]
    costs = [extended_user_costs(bundle, u2p)[1] for u2p in classes]
    rates = [rep.min_rate for rep in min_rate(
        bundle, [(u2p, 2) for u2p in classes], np.random.default_rng(11),
        RateOptions(n_mc=60, paths=20))]
    lo, hi = int(np.argmin(costs)), int(np.argmax(costs))
    assert costs[hi] > 3.0 * costs[lo]  # the drop separates the classes
    assert rates[lo] > rates[hi]


def test_rate_increases_with_pilot_snr():
    mins = {snr: [] for snr in (0.0, 10.0, 20.0)}
    for seed in range(6):
        bundle = make_world(small_config(L=2, K=2, M=16), seed=seed)
        for snr in mins:
            rep, = min_rate(bundle, [(_identity_pilots(2, 2), 2)],
                            np.random.default_rng(seed),
                            RateOptions(n_mc=20, paths=10, pilot_snr_db=snr))
            mins[snr].append(rep.min_rate)
    med = {snr: np.median(v) for snr, v in mins.items()}
    assert med[0.0] < med[10.0] < med[20.0]


def test_moving_interferer_to_private_pilot_helps_victim():
    # identical draws (same seed, same pilot count): releasing the co-pilot
    # interferer onto an unused pilot must raise the victim's rate
    improved = 0
    for seed in range(20):
        bundle = make_world(small_config(L=2, K=2, M=32), seed=seed)
        shared = np.array([[0, 1], [0, 1]])
        private = np.array([[0, 1], [2, 1]])
        opts = RateOptions(n_mc=30, paths=15)
        r_shared, r_private = (rep.rates[0, 0] for rep in min_rate(
            bundle, [(shared, 3), (private, 3)], np.random.default_rng(seed), opts))
        improved += r_private > r_shared
    assert improved == 20


def test_ergodic_rate_below_mean_sinr_rate():
    # log2(1 + .) is concave: averaging inside the log can only raise the
    # figure when both are computed from the same SINR samples
    bundle = make_world(small_config(L=2, K=2, M=16), seed=4)
    u2p = np.array([[0, 1], [0, 1]])
    erg, = min_rate(bundle, [(u2p, 2)], np.random.default_rng(5),
                    RateOptions(n_mc=40, paths=10, ergodic=True))
    non, = min_rate(bundle, [(u2p, 2)], np.random.default_rng(5),
                    RateOptions(n_mc=40, paths=10, ergodic=False))
    assert np.all(erg.rates <= non.rates + 1e-12)
