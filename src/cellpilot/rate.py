"""Uplink rate benchmark: pilot estimation, matched combining, min user rate."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .channel import QUAD_POINTS, _midpoints
from .config import RateOptions, _check_bytes
from .contamination import _copilot_mask
from .scenario import ScenarioBundle


@dataclass
class RateReport:
    """Monte-Carlo uplink rates for one assignment on one drop."""

    rates: np.ndarray       # (L, K) per-user ergodic rate, bits/s/Hz
    min_rate: float
    n_mc: int


# path-antenna products per _draw_channels call in min_rate. Each chunk draws
# its angles, amplitudes and noise in turn, so this budget fixes which draws
# land in which realization: changing it changes every rate.
_DRAW_BUDGET = 5e7

# bytes of _draw_channels' two power tables per block of link draws: the
# blocks bound its working memory (one full-scale link of 50 paths takes
# 16 kB, so a block holds 65 links, about a third of a realization), and
# they never change a draw
_BLOCK_BYTES = 2 ** 20


def moving_average(x: np.ndarray, window: int) -> np.ndarray:
    """Trailing mean with truncated windows at the head.

    out[i] = mean(x[max(0, i-window+1) : i+1]); same length as x.
    """
    x = np.asarray(x, dtype=float)
    if window < 1:
        raise ValueError("window must be >= 1")
    csum = np.concatenate([[0.0], np.cumsum(x)])
    idx = np.arange(1, x.size + 1)
    start = np.maximum(0, idx - window)
    return (csum[idx] - csum[start]) / (idx - start)


def _power_sum(z: np.ndarray, weights, M: int) -> np.ndarray:
    """sum_p weights_p * z_p^m, m < M, over the last axis of z, as one (Q, P) @ (P, R)
    matmul of power tables F[q] = weights * z^(qR), E[r] = z^r, R = ceil(sqrt(M)).
    """
    R, Q = _table_rows(M)
    E = np.empty((R,) + z.shape, dtype=complex)
    E[0] = 1.0
    for r in range(1, R):
        np.multiply(E[r - 1], z, out=E[r])
    F = np.empty((Q,) + z.shape, dtype=complex)
    F[0] = weights
    zR = E[-1] * z
    for q in range(1, Q):
        np.multiply(F[q - 1], zR, out=F[q])
    g = np.matmul(np.moveaxis(F, 0, -2), np.moveaxis(E, 0, -1))  # (..., Q, R)
    return g.reshape(g.shape[:-2] + (Q * R,))[..., :M]


def _table_rows(M: int) -> tuple:
    """(R, Q): the rows of _power_sum's E and F tables at M antennas."""
    R = math.ceil(math.sqrt(M))
    return R, -(-M // R)


def _links_per_block(rows: int, P: int) -> int:
    """Links whose power tables of `rows` rows and P paths fit _BLOCK_BYTES
    (at least one)."""
    return max(1, int(_BLOCK_BYTES // (rows * P * 16)))


def _expi(theta: np.ndarray) -> np.ndarray:
    """exp(1j * theta) for real theta, as cos and sin written into one complex
    array: the same bytes as np.exp(1j * theta) without its complex exponential."""
    out = np.empty(np.shape(theta), dtype=complex)
    np.cos(theta, out=out.real)
    np.sin(theta, out=out.imag)
    return out


def _filters(bundle: ScenarioBundle) -> np.ndarray:
    """(L, K, M, M) filters: covariance(bundle.interval(j, j, k), 1.0, M, spacing).T.

    On its grid that covariance is Hermitian Toeplitz, R[m, n] = r[m - n] with
    r[d] = mean_i z_i^d: _power_sum gives the lag vectors, in blocks of
    links whose power tables fit _BLOCK_BYTES (each link's lags are those of
    one pass over all), and the filters are a read-only strided view of the
    2M-1 lags (about 1e-14 from covariance at M=100). numpy's matmul copies
    one (M, M) filter of the view at a time into BLAS layout, never all L*K
    of them; a one-row operand takes numpy's own loop over the view instead.
    """
    cfg, n = bundle.config, QUAD_POINTS
    L, K = bundle.drop.shape
    own = np.arange(L)
    nodes = _midpoints(bundle.interval(own, own, slice(None)), n).reshape(L * K, n)
    lag = np.empty((L * K, cfg.M), dtype=complex)
    block = _links_per_block(sum(_table_rows(cfg.M)), n)
    # all links' steering factors at once: made per block, they traced less
    # but left a full-scale rate pass 0.3 MB more resident memory
    z = _expi(-2.0 * np.pi * cfg.spacing * np.cos(nodes))
    for b in range(0, L * K, block):
        lag[b:b + block] = _power_sum(z[b:b + block], 1.0 / n, cfg.M)
    lag = lag.reshape(L, K, cfg.M)
    # lags -(M-1)..M-1: conj(r[M-1]), ..., conj(r[1]), r[0], ..., r[M-1]
    both = np.concatenate([lag[..., :0:-1].conj(), lag], axis=-1)
    # row m of the reversed windows holds lags -m..M-1-m: entry n is r[n - m]
    return sliding_window_view(both, cfg.M, axis=-1)[..., ::-1, :]


def _check_realization(L: int, K: int, M: int, P: int) -> int:
    """Rows of _power_sum's two tables at M antennas. Raises BudgetError,
    naming the key that drives the size, if one realization of
    _draw_channels needs over config._BYTES_CAP bytes: 16 per path and per
    antenna of its L*L*K links, and one link's power tables (M = 100000
    with 200 paths takes 316 MB)."""
    rows = sum(_table_rows(M))
    links = L * L * K
    path_bytes, channel_bytes = 16 * P * (links + rows), 16 * links * M
    _check_bytes(path_bytes + channel_bytes, "one channel realization",
                 "[rate] paths" if path_bytes > channel_bytes else "[scenario] M")
    return rows


def _draw_channels(
    bundle: ScenarioBundle,
    P: int,
    rng: np.random.Generator,
    n_mc: int,
    gains: np.ndarray,
) -> np.ndarray:
    """(n_mc, L, L, K, M) channel draws for every (BS, user) link: the one
    channel generator, g = sqrt(gain/P) * sum_p alpha_p * steering(w_p).

    Path angles are uniform on each link's angular support and amplitudes
    are unit-modulus random phases, so each link is zero-mean with
    covariance channel.covariance(interval, gain, M, spacing) for the
    supplied (possibly power-controlled) link gains. Draw order: all
    angles, then all phases. The phases alpha and steering factors z are
    rotations exp(1j * theta) of real angles, which _expi writes as cos and
    sin. _power_sum adds the paths' alpha * z^m, which rounds about 1e-14
    of max|g| (M=100) from a direct exponential.

    The angle draws become path angles in place. The links of all
    realizations, in draw order, then pass in blocks of as many links as
    _BLOCK_BYTES of power tables hold (at least one), so a block is some
    realizations or part of one: each block draws and rotates its own
    phases, and the blocks give the bytes of the whole chunk. A realization
    above _check_realization's cap raises BudgetError before anything is
    drawn.
    """
    cfg = bundle.config
    L, K = bundle.drop.shape
    rows = _check_realization(L, K, cfg.M, P)
    links = L * L * K
    omegas = rng.random((n_mc, L, L, K, P))
    omegas *= (2.0 * bundle.half_widths)[..., None]
    omegas += (bundle.centers - bundle.half_widths)[..., None]
    omegas = omegas.reshape(n_mc * links, P)
    scale = np.tile(np.sqrt(gains / P).reshape(links, 1), (n_mc, 1))
    g = np.empty((n_mc, L, L, K, cfg.M), dtype=complex)
    flat = g.reshape(n_mc * links, cfg.M)
    block = _links_per_block(rows, P)
    for b in range(0, n_mc * links, block):
        e = min(b + block, n_mc * links)
        alphas = _expi(2.0 * np.pi * rng.random((e - b, P)))
        z = _expi(-2.0 * np.pi * cfg.spacing * np.cos(omegas[b:e]))
        np.multiply(scale[b:e], _power_sum(z, alphas, cfg.M), out=flat[b:e])
    return g


def min_rate(
    bundle: ScenarioBundle,
    maps,
    rng: np.random.Generator,
    options: RateOptions,
) -> list:
    """Worst ergodic uplink rate of each pilot map under pilot-contaminated
    channel estimation: one RateReport per (user_to_pilot, n_pilots) pair
    of `maps`, in order.

    The benchmark applies channel-inversion power control: every user's
    transmit power is scaled so its average received power at the serving
    BS equals pilot_snr times the noise floor (cross-cell links keep their
    gain ratios). Each BS de-spreads the pilot block (the received sum of
    all co-pilot channels plus noise), passes it through the spatial
    filter given by its own user's angular covariance, and combines with
    that filtered estimate. The SINR counts the co-pilot users of the
    other cells (the contamination sources; orthogonal pilots keep the
    remaining streams separated) plus noise. Rates are log2(1+SINR)
    averaged over realizations (or log of the mean SINR with
    ergodic=False); a report carries the minimum over all users.

    Realizations are drawn in chunks of at most _DRAW_BUDGET path-antenna
    products. Each chunk draws its channels once, on `rng`, and every map
    reads that draw; each distinct n_pilots then draws its noise from the
    generator state right after it, the first map's n_pilots last. So the
    first map's report, and the generator's state afterwards, are those of
    a call with that map alone, and maps with the same n_pilots share every
    draw. No maps: [] comes back and nothing is drawn.

    Working set: the chunk's path angles (while it draws), its channels,
    the noise of one n_pilots at a time, which every map with that n_pilots
    reads and none copies, and one map's (n, L, K, M) estimates. Phases
    and power tables come in blocks of _BLOCK_BYTES of tables (see
    _draw_channels), and a realization above _check_realization's cap
    raises BudgetError before anything is drawn.

    One stacked pass, laid out (L, K, n, M), serves all users: one matmul
    applies the _filters, one einsum gives the numerators. A denominator is
    the noise term plus, per interfering cell in increasing order, the term
    of that cell's first user on the same pilot (masked where it has none),
    so every sum rounds as a per-user loop over the co-users would. A pilot
    map that is not (L, K) with pilots in [0, n_pilots) raises ValueError.
    """
    cfg = bundle.config
    L, K = bundle.drop.shape
    maps = [(_check_map(pilot_of, n_pilots, L, K), n_pilots) for pilot_of, n_pilots in maps]
    if not maps:
        return []
    noise_var = 1.0 / (10.0 ** (options.pilot_snr_db / 10.0)
                       if options.pilot_snr_db is not None else cfg.cell_edge_snr)

    # power control: normalize each user by its serving-BS gain
    geff = bundle.gains / np.einsum("llu->lu", bundle.gains)  # (L, L, K)
    filt = _filters(bundle)
    acc = np.zeros((len(maps), L, K))
    chunk = max(1, min(options.n_mc, int(_DRAW_BUDGET // (L * L * K * options.paths * cfg.M))))
    for done in range(0, options.n_mc, chunk):
        n = min(chunk, options.n_mc - done)
        g = _draw_channels(bundle, options.paths, rng, n, geff)
        state = rng.bit_generator.state
        for n_pilots in reversed(dict.fromkeys(p for _, p in maps)):
            rng.bit_generator.state = state
            # the bytes of (re + 1j * im) / sqrt(2) * sqrt(noise_var)
            noise = np.empty((n, L, n_pilots, cfg.M), dtype=complex)
            noise.real = rng.standard_normal(noise.shape)
            noise.imag = rng.standard_normal(noise.shape)
            noise /= np.sqrt(2.0)
            noise *= np.sqrt(noise_var)
            for i, (pilot_of, p) in enumerate(maps):
                if p == n_pilots:
                    acc[i] += _chunk_sum(g, noise, pilot_of, filt, noise_var,
                                         options.ergodic)
    rates = acc / options.n_mc if options.ergodic else np.log2(1.0 + acc / options.n_mc)
    return [RateReport(rates=r, min_rate=float(r.min()), n_mc=options.n_mc) for r in rates]


def _check_map(pilot_of, n_pilots: int, L: int, K: int) -> np.ndarray:
    """pilot_of as an array; ValueError unless it is (L, K) with pilots in [0, n_pilots)."""
    pilot_of = np.asarray(pilot_of)
    if pilot_of.shape != (L, K) or not np.all((pilot_of >= 0) & (pilot_of < n_pilots)):
        raise ValueError(f"user_to_pilot must be {L}x{K} with pilots in [0, {n_pilots})")
    return pilot_of


def _chunk_sum(g, noise, pilot_of, filt, noise_var, ergodic) -> np.ndarray:
    """(L, K) sum over one chunk's realizations of log2(1+SINR) (of the SINR
    with ergodic=False) for one pilot map; noise is the scaled noise of the
    pilot block, (n, L, n_pilots, M), which the maps of a chunk share and
    none writes."""
    L, K = pilot_of.shape
    cells = np.arange(L)
    # co-user of (j, k) in cell l: the first user of l on its pilot, if any
    shared = _copilot_mask(pilot_of)                          # (L, K, L, K)
    has_couser, couser = shared.any(axis=-1), shared.argmax(axis=-1)
    # the pilot block of pilot p at every BS j: the noise plus g[:, j, l, k]
    # of each user (l, k) on p, in (l, k) order, so users sharing a pilot
    # add up as in a per-user loop; est[:, j, k] holds it for user (j, k)
    est = np.empty(g.shape[:2] + (K, g.shape[-1]), dtype=complex)  # (n, L, K, M)
    for p in np.unique(pilot_of):
        users = np.argwhere(pilot_of == p)  # in (l, k) order
        block = noise[:, :, p] + g[:, :, users[0, 0], users[0, 1]]
        for l, k in users[1:]:
            block += g[:, :, l, k]
        cell, user = users.T
        est[:, cell, user] = block[:, cell]
    del block
    v = np.moveaxis(est, 0, 2) @ filt  # (L, K, n, M)
    del est
    den = noise_var * (np.abs(v) ** 2).sum(axis=-1)
    vc = np.conjugate(v, out=v)
    num = np.abs(np.einsum("...m,...m->...", vc,
                           np.moveaxis(g[:, cells, cells], 0, 2))) ** 2
    for l in range(L):
        # one co-user gather at a time: it is freed before the next is made
        cross = np.abs(np.einsum("...m,...m->...", vc, np.moveaxis(
            g[:, cells[:, None], l, couser[:, :, l]], 0, 2))) ** 2
        den = den + np.where(has_couser[:, :, l, None], cross, 0.0)
    sinr = num / den
    return (np.log2(1.0 + sinr) if ergodic else sinr).sum(axis=-1)
