"""Acceptance suite: one test per criterion, each at its stated tolerance.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS line per
criterion (a failed assertion surfaces as the usual pytest failure).
"""

import json
import time

import numpy as np
import pytest

import oracle
from conftest import small_doc
from hetfed import data, harness, metrics, nn, protocol, reweight
from hetfed.config import ExperimentConfig, parse_config
from hetfed.harness import _S_INIT, _S_TRAIN
from test_metrics import pairwise_auc_oracle, step_curve_ap_oracle
from test_protocol import centralized_sgd


def ok(line):
    print(f"ACCEPTANCE {line}: PASS")


def desk_doc(strategy, seed, rounds=20, **noise):
    """The desk-scale reference configuration used by criteria 8 and 9."""
    return {
        "seed": seed, "strategy": strategy, "rounds": rounds, "local_epochs": 2,
        "collab_epochs": 1, "batch_size": 32,
        "hyperparams": {"lr": 0.05},
        "data": {
            "classes": 3, "dims": 2, "per_class": 800, "spread": 0.55,
            "clients": 4, "shard_size": 400, "n_public": 150, "test_size": 600,
            "noise": {"kind": noise.get("kind", "pairflip"),
                      "rate": noise.get("rate", 0.2)},
        },
        "archs": {"hidden_layers": [[16], [24], [32], [8]]},
    }


def test_c01_gradient_correctness():
    started = time.perf_counter()
    rng = np.random.default_rng(101)
    worst = 0.0
    checked = 0
    while checked < 100:
        depth = int(rng.integers(1, 4))
        widths = [int(rng.integers(2, 7)) for _ in range(depth + 1)]
        dims = tuple(zip(widths[:-1], widths[1:]))
        params = nn.init_params(dims, int(rng.integers(1 << 30)))
        n = int(rng.integers(2, 8))
        x = rng.normal(size=(n, dims[0][0]))
        # central differences are invalid within eps of a ReLU kink;
        # resample instances whose hidden pre-activations sit on one
        _, pre = oracle.forward(params, x)
        if any(np.abs(p).min() < 1e-3 for p in pre[:-1]):
            continue
        c = dims[-1][1]
        kind = checked % 3
        if kind == 0:
            loss = oracle.CrossEntropy(oracle.one_hot(rng.integers(0, c, size=n), c))
        elif kind == 1:
            loss = oracle.Symmetric(rng.dirichlet(np.ones(c), size=n), 0.4, 0.9, -4.0)
        else:
            peers = rng.normal(size=(2, n, c))
            loss = oracle.MixtureKl(nn.softmax_t(peers, 4.0), rng.dirichlet(np.ones(2)), 4.0)
        grad = oracle.backward(params, x, loss)
        eps = 1e-5
        size = params.values.size
        for idx in rng.choice(size, size=min(20, size), replace=False):
            up = params.values.copy(); up[idx] += eps
            dn = params.values.copy(); dn[idx] -= eps
            lu = loss.value(oracle.logits(nn.ModelParams(dims, up), x))
            ld = loss.value(oracle.logits(nn.ModelParams(dims, dn), x))
            fd = (lu - ld) / (2 * eps)
            rel = abs(grad[idx] - fd) / max(abs(fd), abs(grad[idx]), 1e-6)
            worst = max(worst, rel)
            assert rel < 1e-4
        checked += 1
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    ok(f"1 gradient-vs-finite-differences (max rel err {worst:.2e}, {elapsed:.1f}s)")


def test_c02_loss_formula_oracle():
    h = nn.Hyperparams(lam=0.4, gamma=0.9, rce_log_floor=-4.0)

    def direct_sum(pred, target, lam, gamma, floor):
        # Independent scalar-loop evaluation of the two summed terms.
        ce = 0.0
        rce = 0.0
        for p, t in zip(pred, target):
            ce -= t * np.log(max(p, 1e-12))
            log_t = floor if t <= 0 else max(np.log(t), floor)
            rce -= p * log_t
        return lam * ce + gamma * rce

    rng = np.random.default_rng(202)
    for _ in range(1000):
        c = int(rng.integers(2, 12))
        pred = rng.dirichlet(np.ones(c))
        if rng.random() < 0.5:
            target = oracle.one_hot(np.array([int(rng.integers(c))]), c)[0]
        else:
            target = rng.dirichlet(np.ones(c))
        expected = direct_sum(pred, target, 0.4, 0.9, -4.0)
        assert nn.sl_loss(pred, target, h) == pytest.approx(expected, abs=1e-12)
    uniform_case = nn.sl_loss(np.full(10, 0.1), oracle.one_hot(np.array([0]), 10)[0], h)
    assert uniform_case == pytest.approx(4.161034, abs=1e-6)
    ok("2 symmetric-loss oracle (1000 pairs, 1e-12)")


def test_c03_noise_statistics():
    started = time.perf_counter()
    ds = data.gen_blobs(10, 2, 10_000, 0.3, seed=5)  # N = 100000
    sym, sym_flipped = data.apply_noise(ds.labels, 10, "symmetric", 0.2, seed=6)
    assert 0.195 <= sym_flipped.mean() <= 0.205
    offsets = (sym[sym_flipped] - ds.labels[sym_flipped]) % 10
    shares = np.bincount(offsets, minlength=10)[1:] / sym_flipped.sum()
    assert np.all(np.abs(shares - 1 / 9) <= 0.1 / 9)

    pf, pf_flipped = data.apply_noise(ds.labels, 10, "pairflip", 0.2, seed=7)
    assert 0.195 <= pf_flipped.mean() <= 0.205
    assert np.array_equal(pf[pf_flipped], (ds.labels[pf_flipped] + 1) % 10)
    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    ok(f"3 noise statistics at N=1e5 ({elapsed:.2f}s)")


def test_c04_aggregation_oracle():
    rng = np.random.default_rng(404)
    for _ in range(100):
        k = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 3))
        widths = [int(rng.integers(1, 5)) for _ in range(depth + 1)]
        dims = tuple(zip(widths[:-1], widths[1:]))
        plist = [nn.ModelParams(dims, rng.normal(size=nn.param_count(dims)))
                 for _ in range(k)]
        sizes = rng.integers(1, 100, size=k)
        manual = sum(p.values * s for p, s in zip(plist, sizes)) / sizes.sum()
        agg = oracle.fedavg_aggregate(np.stack([p.values for p in plist]), sizes.tolist())
        assert np.allclose(agg, manual, atol=1e-12, rtol=0)

    doc = small_doc(strategy="fedavg", rounds=10, local_epochs=1,
                    data={"clients": 1, "shard_size": 60})
    cfg = ExperimentConfig.from_dict(parse_config([], doc.items()))
    _, world = harness.run_experiment(cfg)
    central = centralized_sgd(cfg, world.features[0], world.labels[0], world.clients[0].arch, 10, 1)
    assert world.clients[0].params.values.tobytes() == central.values.tobytes()
    ok("4 aggregation oracle + K=1 bitwise-centralized equivalence")


def test_c05_reweighting_invariants():
    rng = np.random.default_rng(505)
    for _ in range(10_000):
        k = int(rng.integers(2, 11))
        f = rng.normal(scale=float(rng.uniform(0.01, 5.0)), size=k)
        result = oracle.confidence_weights(f, 1.2)
        assert abs(result.weights.sum() - 1.0) < 1e-9
        assert np.all(result.weights >= 0)

    for k in (2, 3, 4, 7, 10):
        result = oracle.confidence_weights(np.full(k, 0.37), 1.2)
        assert np.allclose(result.weights, 1.0 / k, atol=1e-12)

    for _ in range(200):
        k = int(rng.integers(2, 9))
        q_norm = rng.dirichlet(np.ones(k))
        delta = rng.normal(size=k)
        f_ccr = np.array([oracle.client_confidence_ccr(q, d)
                          for q, d in zip(q_norm, delta)])
        f_eccr = np.array([
            oracle.client_confidence_eccr(q, oracle.learning_efficiency(d, 0.0))
            for q, d in zip(q_norm, delta)
        ])
        assert np.max(np.abs(f_ccr - f_eccr)) <= 1e-12
        w_ccr = oracle.confidence_weights(f_ccr, 1.2).weights
        w_eccr = oracle.confidence_weights(f_eccr, 1.2).weights
        assert np.max(np.abs(w_ccr - w_eccr)) <= 1e-12
    ok("5 reweighting invariants (1e4 weight vectors; CCR==ECCR at zero update)")


def test_c06_dlr_schedule():
    sched = dict(zeta=10.0, total_epochs=40)
    assert reweight.dlr_weight(0, **sched) == 0.0
    values = [reweight.dlr_weight(t, **sched) for t in range(41)]
    assert all(b > a for a, b in zip(values, values[1:]))
    assert values[40] == pytest.approx(40 / 440, abs=1e-15)

    rng = np.random.default_rng(606)
    for _ in range(10_000):
        c = int(rng.integers(2, 10))
        noisy = oracle.one_hot(np.array([int(rng.integers(c))]), c)[0]
        pred = rng.dirichlet(np.ones(c))
        out = reweight.dlr_refine(noisy, pred, float(rng.random() * 0.999))
        assert np.all(out >= 0.0) and np.all(out <= 1.0)
        assert abs(out.sum() - 1.0) < 1e-9
    ok("6 refinement schedule (monotone, 40/440 endpoint, 1e4 valid mixes)")


def test_c07_auc_oracles():
    rng = np.random.default_rng(707)
    binary_checked = 0
    while binary_checked < 200:
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        expected = pairwise_auc_oracle(scores.tolist(), labels.tolist())
        if expected is None:
            assert metrics.roc_auc(scores, labels) is None
            continue
        assert metrics.roc_auc(scores, labels) == pytest.approx(expected, abs=1e-9)
        binary_checked += 1

    multi_checked = 0
    while multi_checked < 200:
        n = int(rng.integers(6, 51))
        c = int(rng.integers(3, 6))
        probs = rng.dirichlet(np.ones(c), size=n)
        labels = rng.integers(0, c, size=n)
        if len(np.unique(labels)) < c:
            assert metrics.multiclass_roc_auc(probs, labels) is None
            continue
        expected = np.mean([
            pairwise_auc_oracle(probs[:, k].tolist(), (labels == k).astype(int).tolist())
            for k in range(c)
        ])
        assert metrics.multiclass_roc_auc(probs, labels) == pytest.approx(expected, abs=1e-9)
        multi_checked += 1

    pr_checked = 0
    while pr_checked < 200:
        n = int(rng.integers(2, 51))
        scores = np.round(rng.normal(size=n), 2)
        labels = rng.integers(0, 2, size=n)
        expected = step_curve_ap_oracle(scores.tolist(), labels.tolist())
        if expected is None:
            assert metrics.pr_auc(scores, labels) is None
            continue
        assert metrics.pr_auc(scores, labels) == pytest.approx(expected, abs=1e-9)
        pr_checked += 1
    ok("7 AUC estimators match brute-force oracles (600 instances)")


def test_c08_desk_scale_ordering():
    started = time.perf_counter()

    def mean_final(strategy):
        finals = []
        for seed in range(5):
            cfg = ExperimentConfig.from_dict(parse_config([], desk_doc(strategy, seed).items()))
            result, _ = harness.run_experiment(cfg)
            finals.append(np.mean([s.accuracy for s in result.records[-1].clients]))
        return float(np.mean(finals))

    baseline = mean_final("local_only")
    ccr = mean_final("rhfl_plus_ccr")
    eccr = mean_final("rhfl_plus_eccr")
    elapsed = time.perf_counter() - started
    assert ccr >= baseline
    assert eccr >= baseline
    assert elapsed < 300.0
    ok(f"8 desk-scale ordering (local {baseline:.4f} <= ccr {ccr:.4f}, "
       f"eccr {eccr:.4f}; {elapsed:.0f}s)")


def test_c09_ablation_grid(tmp_path):
    started = time.perf_counter()
    base = parse_config([], desk_doc("rhfl_plus_eccr", seed=0, rounds=8).items())
    grid = {
        "flags": harness.ablation_rows(),
        "noise_type": ["pairflip", "symmetric"],
        "mu": [0.1],
    }
    outcome = harness.run_sweep(base, grid, tmp_path / "ablation")
    assert not outcome.failures
    assert len(outcome.run_dirs) == 12
    rows = harness.summarize(outcome.run_dirs, tmp_path / "ablation" / "summary.csv")
    assert len(rows) == 12
    with open(tmp_path / "ablation" / "summary.csv") as fh:
        header = fh.readline().strip().split(",")
    for col in ("hfl", "sl", "dlr", "reweight", "noise_kind",
                "theta_1", "theta_2", "theta_3", "theta_4", "avg"):
        assert col in header
    elapsed = time.perf_counter() - started
    assert elapsed < 1800.0
    ok(f"9 ablation grid: 6 rows x 2 noise types + Table-layout CSV ({elapsed:.0f}s)")


def test_c10_scaling_determinism(tmp_path, monkeypatch):
    started = time.perf_counter()
    doc = {
        "seed": 3, "strategy": "rhfl_plus_eccr", "rounds": 5, "local_epochs": 1,
        "collab_epochs": 1, "batch_size": 32,
        "hyperparams": {"lr": 0.05},
        "data": {"classes": 3, "dims": 2, "per_class": 2500, "spread": 0.55,
                  "clients": 100, "shard_size": 60, "n_public": 100,
                  "test_size": 500, "noise": {"kind": "symmetric", "rate": 0.2}},
        "archs": {"hidden_layers": [[12]]},
    }
    cfg = ExperimentConfig.from_dict(parse_config([], doc.items()))
    dir_a = harness.execute_run(cfg, tmp_path / "grouped")
    monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one client per chunk
    dir_b = harness.execute_run(cfg, tmp_path / "one_per_chunk")
    bytes_a = (dir_a / harness.ROUNDS_FILE).read_bytes()
    bytes_b = (dir_b / harness.ROUNDS_FILE).read_bytes()
    assert bytes_a == bytes_b
    lines = bytes_a.decode().splitlines()
    assert len(lines) == 6 * 100  # pre-train eval + 5 rounds, 100 clients
    elapsed = time.perf_counter() - started
    assert elapsed < 600.0
    ok(f"10 scaling: K=100 bitwise-identical logs across chunk sizes ({elapsed:.0f}s)")


def test_c11_random_noise_rate_harness(tmp_path):
    for seed in range(1000):
        draws = harness.random_noise_assignment(10, 0.0, 0.5, seed=seed)
        assert np.all((draws >= 0.0) & (draws <= 0.5))

    doc = small_doc(rounds=1,
                    data={"clients": 4, "shard_size": 25,
                          "noise": {"kind": "symmetric", "rate": 0.0,
                                    "random_range": [0.0, 0.5]}})
    cfg = ExperimentConfig.from_dict(parse_config([], doc.items()))
    run_dir = harness.execute_run(cfg, tmp_path / "rand")
    meta = json.loads((run_dir / harness.META_FILE).read_text())
    rates = meta["noise_rates"]
    assert len(rates) == 4
    assert all(0.0 <= r <= 0.5 for r in rates)
    assert len(set(rates)) > 1
    ok("11 random per-client noise rates: in range over 1000 seeds, logged")
