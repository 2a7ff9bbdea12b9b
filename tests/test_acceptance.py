"""End-to-end acceptance suite.

Ten numbered criteria, each printing one `ACCEPTANCE n PASS/FAIL: ...`
line with its measured figures. Criteria 5 and 6 share three full
training runs of the desk preset (seeds 0, 1, 2); criterion 10 performs
one more seed-0 run through the command-line interface and compares it
with theirs. The whole suite is seeded and deterministic.
"""

import contextlib
import io
import json
import time

import numpy as np
import pytest

from cellpilot import (
    AoAInterval,
    ReplayBuffer,
    RewardThresholds,
    SystemConfig,
    TrainingSchedule,
    backward,
    covariance,
    dirichlet_magnitude,
    epsilon,
    exhaustive_search,
    forward,
    fresh_world,
    init_params,
    interference_integral,
    pair_cost,
    pairwise_cost_matrix,
    presets,
    random_assignment,
    reward_components,
    run_experiment,
    spr_like_assignment,
    steering,
    substream,
    sync_target,
    td_targets,
    total_costs,
)
from cellpilot.cli import main as cli_main
from cellpilot.scenario import large_scale


def _report(n: int, ok: bool, detail: str):
    print(f"ACCEPTANCE {n} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {n}: {detail}"


# --------------------------------------------------------------- criterion 1

def test_criterion_1_cost_model_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(1001)

    # quadrature route vs quadratic-form route, 100 cases
    worst_quad = 0.0
    for _ in range(100):
        M = int(rng.choice([16, 64, 128]))
        iv = AoAInterval(center=rng.uniform(0.15, np.pi - 0.15),
                         half_width=rng.uniform(0.02, 0.25))
        D = rng.uniform(0.1, 50.0)
        phi = rng.uniform(0.05, np.pi - 0.05)
        via_quad = interference_integral(phi, iv, D, M)
        a = steering(phi, M)
        R = covariance(iv, D, M)
        via_form = float((a.conj() @ R @ a).real) / M
        worst_quad = max(worst_quad,
                         abs(via_quad - via_form) / max(abs(via_form), 1e-300))

    # closed-form kernel vs direct summation, 1e4 cases. Near the kernel
    # nulls both routes cancel to eps-scale values, so the 1e-10 relative
    # bound applies away from the nulls (magnitude >= 0.1% of the peak M)
    # and an absolute eps-scale bound covers everything else.
    worst_abs, worst_rel = 0.0, 0.0
    for _ in range(10000):
        M = int(rng.integers(2, 129))
        s = rng.uniform(0.1, 1.0)
        x = rng.uniform(-2.0, 2.0)
        closed = dirichlet_magnitude(x, M, s)
        direct = abs(np.exp(-2j * np.pi * np.arange(M) * s * x).sum())
        err = abs(closed - direct)
        worst_abs = max(worst_abs, err / M)
        if direct >= 1e-3 * M:
            worst_rel = max(worst_rel, err / direct)

    elapsed = time.perf_counter() - t0
    ok = worst_quad <= 1e-3 and worst_abs <= 2e-12 and worst_rel <= 1e-10 \
        and elapsed < 60.0
    _report(1, ok,
            f"integral routes rel {worst_quad:.2e} (<=1e-3), kernel abs/M "
            f"{worst_abs:.2e} (<=2e-12), kernel rel {worst_rel:.2e} "
            f"(<=1e-10), {elapsed:.1f}s (<60s)")


# --------------------------------------------------------------- criterion 2

def test_criterion_2_envelope_converges_to_kernel_max():
    t0 = time.perf_counter()
    rng = np.random.default_rng(2002)
    Ms = (16, 64, 128)
    gaps = {M: [] for M in Ms}
    omega_grid = 513
    for _ in range(200):
        target = AoAInterval(center=rng.uniform(0.3, np.pi - 0.3),
                             half_width=rng.uniform(0.02, 0.2))
        interferer = AoAInterval(center=rng.uniform(0.3, np.pi - 0.3),
                                 half_width=rng.uniform(0.02, 0.2))
        D = rng.uniform(0.5, 20.0)
        omegas = np.linspace(target.low, target.high, omega_grid)
        cos_w = np.cos(omegas)
        for M in Ms:
            grid_max = 0.0
            for phi in (interferer.low, interferer.high):
                vals = np.array([dirichlet_magnitude(np.cos(phi) - u, M, 0.5)
                                 for u in cos_w])
                grid_max += np.sqrt(D) * vals.max() / M
            approx = pair_cost(target, interferer, D, M)
            gaps[M].append(abs(approx - grid_max) / (2.0 * np.sqrt(D)))
    med = {M: float(np.median(gaps[M])) for M in Ms}
    elapsed = time.perf_counter() - t0
    ok = med[16] > med[64] > med[128] and elapsed < 300.0
    _report(2, ok,
            f"median normalized gap {med[16]:.4f} -> {med[64]:.4f} -> "
            f"{med[128]:.4f} for M=16/64/128 (strictly decreasing), "
            f"{elapsed:.1f}s (<300s)")


# --------------------------------------------------------------- criterion 3

def test_criterion_3_exhaustive_optimality():
    t0 = time.perf_counter()
    cfg = presets()["desk"].config
    violations = 0
    for seed in range(20):
        world = fresh_world(cfg, substream(3003, "world", seed))
        pairwise = pairwise_cost_matrix(world)
        _, table = exhaustive_search(world, pairwise=pairwise)
        opt = table.global_max
        rng = substream(3003, "probe", seed)
        for _ in range(10000):
            probe = random_assignment(cfg.L, cfg.K, rng)
            g = total_costs(world, probe.pilot_to_user,
                            pairwise=pairwise).global_max
            violations += g < opt - 1e-9
    elapsed = time.perf_counter() - t0
    ok = violations == 0 and elapsed < 120.0
    _report(3, ok,
            f"{violations} of 20x10000 random assignments beat the "
            f"exhaustive optimum (need 0), {elapsed:.1f}s (<120s)")


# --------------------------------------------------------------- criterion 4

def test_criterion_4_gradients_match_finite_differences():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4004)
    params = init_params(20, 9, rng, hidden=16, n_blocks=2)
    x = rng.random((8, 20)) + 0.1
    actions = rng.integers(0, 9, size=8)
    targets = rng.random(8) * 2.0 - 1.0

    def loss_of(p):
        q = forward(p, x)
        picked = q[np.arange(8), actions]
        return float(np.mean((targets - picked) ** 2))

    grads, _ = backward(params, x, actions, targets)
    h = 1e-6
    n_checked, worst = 0, 0.0
    for name, arr in params.items():
        g = grads[name].reshape(-1)
        flat = arr.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = loss_of(params)
            flat[idx] = orig - h
            dn = loss_of(params)
            flat[idx] = orig
            fd = (up - dn) / (2.0 * h)
            err = abs(g[idx] - fd) / max(abs(g[idx]), abs(fd), 1e-4)
            worst = max(worst, err)
            n_checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-4 and elapsed < 60.0
    _report(4, ok,
            f"all {n_checked} partials within {worst:.2e} of central "
            f"differences (<=1e-4 relative), {elapsed:.1f}s (<60s)")


# ------------------------------------------------- criteria 5 and 6 fixture

def _read_csv(path):
    lines = path.read_text().strip().splitlines()
    header = lines[0].split(",")
    rows = [dict(zip(header, ln.split(","))) for ln in lines[1:]]
    return rows


@pytest.fixture(scope="module")
def desk_runs(tmp_path_factory):
    base = tmp_path_factory.mktemp("desk_runs")
    runs = {}
    for seed in (0, 1, 2):
        t0 = time.perf_counter()
        run = run_experiment(presets()["desk"], seed, out_dir=base / f"seed{seed}")
        runs[seed] = (run, time.perf_counter() - t0)
    return runs


# --------------------------------------------------------------- criterion 5

def test_criterion_5_learning_matches_optimum_and_rate_ordering(desk_runs):
    details, ok = [], True
    for seed, (run, elapsed) in desk_runs.items():
        manifest = json.loads((run / "manifest.json").read_text())
        opt = manifest["methods"]["exhaustive"]["final_cost"]

        costs = _read_csv(run / "costs.csv")
        drl = [(int(r["step"]), float(r["global_max"])) for r in costs
               if r["method"] == "drl"]
        last50 = np.mean([g for t, g in drl if t >= 4950])
        cost_ok = abs(last50 - opt) <= 0.1 * opt + 1e-9

        rates = _read_csv(run / "results.csv")
        mean_rate = {}
        for m in ("random", "drl", "exhaustive"):
            vals = [float(r["min_rate"]) for r in rates
                    if r["method"] == m and int(r["step"]) >= 4500]
            mean_rate[m] = np.mean(vals)
        order_ok = mean_rate["random"] <= mean_rate["drl"] <= mean_rate["exhaustive"]

        time_ok = elapsed < 900.0
        ok = ok and cost_ok and order_ok and time_ok
        details.append(
            f"seed {seed}: last-50 cost {last50:.4g} vs optimum {opt:.4g} "
            f"({'ok' if cost_ok else 'off'}), last-500 min-rate "
            f"random {mean_rate['random']:.3f} <= drl {mean_rate['drl']:.3f} "
            f"<= exhaustive {mean_rate['exhaustive']:.3f} "
            f"({'ok' if order_ok else 'violated'}), {elapsed:.0f}s (<900s)")
    _report(5, ok, "; ".join(details))


# --------------------------------------------------------------- criterion 6

def test_criterion_6_negative_reward_ratio_decreases(desk_runs):
    details, passing = [], 0
    for seed, (run, _) in desk_runs.items():
        log = _read_csv(run / "drl_training_log.csv")
        rewards = np.array([float(r["reward"]) for r in log])
        neg_first = float(np.mean(rewards[:500] < 0))
        neg_last = float(np.mean(rewards[-500:] < 0))
        long_term = float(rewards.mean())
        seed_ok = neg_last < neg_first and long_term > 0
        passing += seed_ok
        details.append(
            f"seed {seed}: negative ratio {neg_first:.3f} -> {neg_last:.3f}, "
            f"long-term avg reward {long_term:+.4f} "
            f"({'ok' if seed_ok else 'fail'})")
    ok = passing >= 2
    _report(6, ok, f"{passing}/3 seeds pass (need >=2); " + "; ".join(details))


# --------------------------------------------------------------- criterion 7

def test_criterion_7_mechanics_exactness():
    sched = TrainingSchedule()
    eps_ok = all(epsilon(t, sched) == max(1e-4, 0.5 * 0.9975 ** t)
                 for t in range(10001))

    rng = np.random.default_rng(7007)
    buf = ReplayBuffer(capacity=500)
    oracle = []
    fifo_ok = True
    for i in range(100000):
        payload = int(rng.integers(1 << 30))
        buf.push(payload, 0, 0.0, payload + 1)
        oracle.append(payload)
        if len(oracle) > 500:
            oracle.pop(0)
    fifo_ok = [item[0] for item in buf.snapshot()] == oracle

    params = init_params(6, 4, rng, hidden=8, n_blocks=1)
    frozen = sync_target(params)
    xn = rng.random((5, 6))
    r = rng.random(5)
    before = td_targets(frozen, r, xn, 0.9)
    for _, arr in params.items():
        arr += rng.random(arr.shape)  # the live network drifts
    frozen_ok = np.array_equal(td_targets(frozen, r, xn, 0.9), before)
    resync_differs = not np.array_equal(
        td_targets(sync_target(params), r, xn, 0.9), before)

    th = RewardThresholds(g1=1.0, g2=2.0)
    triples_ok = (
        reward_components(2.5, 0.5, True, th) == (1, -1, 2)
        and reward_components(1.5, 1.5, False, th) == (0, 0, 0)
        and reward_components(0.5, 2.5, True, th) == (-1, -1, -2)
    )

    ok = eps_ok and fifo_ok and frozen_ok and resync_differs and triples_ok
    _report(7, ok,
            f"epsilon bit-exact t<=1e4 ({eps_ok}), FIFO after 1e5 pushes "
            f"({fifo_ok}), target frozen between syncs ({frozen_ok and resync_differs}), "
            f"reward triples (+1,-1,+2)/(0,0,0)/(-1,-1,-2) ({triples_ok})")


# --------------------------------------------------------------- criterion 8

def test_criterion_8_physical_layer_identities():
    rng = np.random.default_rng(8008)
    worst_snr, worst_norm, worst_trace, worst_herm, min_eig = 0.0, 0.0, 0.0, 0.0, 0.0
    for _ in range(100):
        cfg = SystemConfig(
            L=1, K=1, M=8,
            gamma_snr_db=rng.uniform(0.0, 30.0),
            eta=rng.uniform(2.0, 4.0),
            R=rng.uniform(100.0, 1000.0),
        )
        snr = large_scale(cfg.R, cfg)
        worst_snr = max(worst_snr,
                        abs(snr - cfg.cell_edge_snr) / cfg.cell_edge_snr)

        M = int(rng.integers(2, 129))
        a = steering(rng.uniform(0.0, np.pi), M)
        worst_norm = max(worst_norm,
                         abs(np.linalg.norm(a) ** 2 - M) / M)

        iv = AoAInterval(center=rng.uniform(0.1, np.pi - 0.1),
                         half_width=rng.uniform(0.01, 0.3))
        D = rng.uniform(0.1, 50.0)
        R = covariance(iv, D, M)
        worst_herm = max(worst_herm,
                         float(np.abs(R - R.conj().T).max()) / D)
        worst_trace = max(worst_trace,
                          abs(float(np.trace(R).real) - D * M) / (D * M))
        min_eig = min(min_eig,
                      float(np.linalg.eigvalsh(R).min()) / (D * M))
    ok = (worst_snr <= 1e-9 and worst_norm <= 1e-12
          and worst_herm <= 1e-12 and worst_trace <= 1e-6
          and min_eig >= -1e-9)
    _report(8, ok,
            f"cell-edge SNR rel {worst_snr:.2e} (<=1e-9), steering norm rel "
            f"{worst_norm:.2e}, covariance Hermitian {worst_herm:.2e}, trace "
            f"rel {worst_trace:.2e} (<=1e-6), min eigenvalue {min_eig:.2e} "
            f"(>=-1e-9), 100 cases")


# --------------------------------------------------------------- criterion 9

def test_criterion_9_overhead_accounting():
    cfg = SystemConfig(L=7, K=4, M=16)
    world = fresh_world(cfg, substream(9009, "world"))
    _, report = spr_like_assignment(world, edge_ratio=1.0 / 3.0)
    ok = (report.base_pilots == 4 and report.required_pilots == 10
          and report.total_pct == 250.0 and report.extra_pct == 150.0)
    _report(9, ok,
            f"reuse split at L=7, K=4, edge ratio 1/3 needs "
            f"{report.required_pilots} pilots vs baseline {report.base_pilots}"
            f" -> {report.total_pct:.0f}% (convention: total pilot cost as a "
            f"percentage of the baseline; extra-over-baseline reads "
            f"{report.extra_pct:.0f}%)")


# -------------------------------------------------------------- criterion 10

def test_criterion_10_experiment_determinism(tmp_path, desk_runs):
    # a CLI run against the in-process seed-0 run of the shared fixture: a
    # rerun reproduces every byte, and the CLI writes what the API writes
    files = ("results.csv", "costs.csv", "drl_training_log.csv",
             "drl_trajectory.csv", "plot_min_rate.csv", "plot_reward.csv",
             "manifest.json")
    api_run = desk_runs[0][0]
    out = tmp_path / "cli_run"
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli_main(["experiment", "--preset", "desk", "--seed", "0",
                         "--out", str(out)])
    assert code == 0
    same = {f: (api_run / f).read_bytes() == (out / f).read_bytes()
            for f in files}
    ok = all(same.values())
    detail = ("a CLI desk run at seed 0 byte-identical to the API run across "
              + ", ".join(files) if ok else
              f"mismatching files: {[f for f, s in same.items() if not s]}")
    _report(10, ok, detail)
