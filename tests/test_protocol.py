import json
import warnings
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracle
from conftest import record_dicts, small_cfg
from hetfed import data, harness, metrics, nn, protocol, reweight
from hetfed.config import load_config
from hetfed.errors import ConfigError, NumericError, ProtocolError
from hetfed.harness import _S_INIT, _S_SAMPLER, _S_TRAIN

BASE_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "base.json"


class TestFedavgAggregate:
    def test_midpoint(self):
        rows = np.array([[0.0, 2.0], [2.0, 4.0]])
        agg = oracle.fedavg_aggregate(rows, [10, 10])
        assert np.allclose(agg, [1.0, 3.0], atol=0)

    def test_single_client_identity(self):
        params = nn.init_params(((3, 2),), 0)
        agg = oracle.fedavg_aggregate(params.values[np.newaxis], [17])
        assert np.array_equal(agg, params.values)

    def test_size_weighted(self):
        rows = np.array([[0.0], [4.0]])  # one bias parameter each
        agg = oracle.fedavg_aggregate(rows, [1, 3])
        assert np.allclose(agg, [3.0], atol=0)

    def test_random_instances_match_manual_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(25):
            k = int(rng.integers(1, 6))
            dims = ((int(rng.integers(1, 4)), int(rng.integers(1, 4))),)
            plist = [
                nn.ModelParams(dims, rng.normal(size=nn.param_count(dims)))
                for _ in range(k)
            ]
            sizes = rng.integers(1, 50, size=k)
            manual = sum(p.values * s for p, s in zip(plist, sizes)) / sizes.sum()
            agg = oracle.fedavg_aggregate(np.stack([p.values for p in plist]), sizes.tolist())
            assert np.allclose(agg, manual, atol=1e-12, rtol=0)

    def test_equal_sizes_match_the_oracle_bitwise(self):
        """A run gives every client one shard size, so the unweighted fold
        has the bytes of the size-weighted one."""
        rng = np.random.default_rng(21)
        for n in range(1, 9):
            for _ in range(10):
                rows = rng.normal(size=(n, int(rng.integers(1, 40))))
                rows[rng.random(rows.shape) < 0.1] = -0.0
                expected = oracle.fedavg_aggregate(rows, [400] * n)
                assert protocol.fedavg_aggregate(rows).tobytes() == expected.tobytes()


def centralized_sgd(cfg, x, labels, layer_dims, rounds, epochs):
    """Standalone minibatch SGD oracle mirroring the documented client loop,
    on the shard of features x and noisy labels."""
    params = nn.init_params(layer_dims, (cfg.seed, _S_INIT))
    rng = np.random.default_rng((cfg.seed, _S_TRAIN, 0))
    batch_size = cfg.federation.batch_size
    targets = oracle.one_hot(labels, cfg.data["classes"])
    for _ in range(rounds * epochs):
        perm = rng.permutation(labels.size)
        for start in range(0, labels.size, batch_size):
            idx = perm[start : start + batch_size]
            grad = oracle.backward(params, x[idx], oracle.CrossEntropy(targets[idx]))
            params = oracle.sgd_step(params, grad, cfg.federation.hyperparams.lr)
    return params


class TestFedavgRounds:
    def test_single_client_equals_centralized(self):
        cfg = small_cfg(strategy="fedavg", rounds=4, local_epochs=2,
                        data={"clients": 1, "shard_size": 50})
        result, world = harness.run_experiment(cfg)
        oracle = centralized_sgd(cfg, world.features[0], world.labels[0],
                                 world.clients[0].arch, 4, 2)
        assert world.clients[0].params.values.tobytes() == oracle.values.tobytes()

    def test_zero_local_epochs_keeps_params(self):
        cfg = small_cfg(strategy="fedavg", rounds=3, local_epochs=0)
        _, world = harness.run_experiment(cfg)
        fresh = nn.init_params(world.clients[0].arch, (cfg.seed, _S_INIT))
        for client in world.clients:
            assert client.params.values.tobytes() == fresh.values.tobytes()

    def test_identical_clients_aggregate_to_their_params(self):
        base = data.gen_blobs(2, 2, 60, 0.4, seed=0)
        test, rest = data.random_split(base, 30, seed=1)
        x = rest.features[:40]
        labels, _ = data.apply_noise(rest.labels[:40], 2, "pairflip", 0.2, seed=2)
        dims = ((2, 6), (6, 2))
        init = nn.init_params(dims, 3)
        clients = [
            protocol.ClientState(i, init, np.random.default_rng(42))
            for i in range(2)
        ]
        cfg = protocol.StrategyConfig(
            "fedavg", rounds=2, local_epochs=1, collab_epochs=0, batch_size=16,
            hyperparams=nn.Hyperparams(lr=0.05), flags=protocol.AblationFlags(),
        )
        protocol.run_federation(clients, np.stack([x, x]), np.stack([labels, labels]), cfg, test)
        solo = [
            protocol.ClientState(0, init, np.random.default_rng(42))
        ]
        protocol.run_federation(solo, x[np.newaxis], labels[np.newaxis], cfg, test)
        assert clients[0].params.values.tobytes() == solo[0].params.values.tobytes()
        assert clients[1].params.values.tobytes() == solo[0].params.values.tobytes()

    def test_heterogeneous_archs_rejected(self):
        cfg = small_cfg(strategy="fedavg", archs={"hidden_layers": [[8], [12]]},
                        data={"clients": 2})
        with pytest.raises(ConfigError, match="homogeneous"):
            harness.run_experiment(cfg)


class TestHeteroRounds:
    def test_round_matches_manual_oracle(self):
        """Replay one distillation round by hand and compare bitwise."""
        cfg = small_cfg(strategy="hetero_distill", rounds=1, local_epochs=1,
                        collab_epochs=2, data={"clients": 2})
        result, world = harness.run_experiment(cfg)

        # independent replay from the same deterministic world
        replay_cfg = small_cfg(strategy="hetero_distill", rounds=0, local_epochs=1,
                               collab_epochs=2, data={"clients": 2})
        _, fresh = harness.run_experiment(replay_cfg)  # rounds=0: untouched fleet
        logits = [oracle.logits(c.params, fresh.public.features) for c in fresh.clients]
        consensus = (logits[0] + logits[1]) / 2.0
        hp = cfg.federation.hyperparams
        batch_size = cfg.federation.batch_size
        peer = nn.softmax_t(consensus[np.newaxis], hp.temperature)
        distill = oracle.MixtureKl(peer, np.ones(1), hp.temperature)
        for client, x, labels in zip(fresh.clients, fresh.features, fresh.labels):
            params = oracle.descend(client.params, fresh.public.features, distill, hp.lr, 2)
            targets = oracle.one_hot(labels, 3)
            perm = client.rng.permutation(labels.size)
            for start in range(0, labels.size, batch_size):
                idx = perm[start : start + batch_size]
                grad = oracle.backward(params, x[idx], oracle.CrossEntropy(targets[idx]))
                params = oracle.sgd_step(params, grad, hp.lr)
            client.params = params
        for engine, manual in zip(world.clients, fresh.clients):
            assert engine.params.values.tobytes() == manual.params.values.tobytes()

    def test_identical_clients_have_zero_collab_gradient(self):
        base = data.gen_blobs(3, 2, 60, 0.4, seed=0)
        test, rest = data.random_split(base, 30, seed=1)
        public, rest = data.random_split(rest, 20, seed=2)
        x = rest.features[:40]
        labels, _ = data.apply_noise(rest.labels[:40], 3, "pairflip", 0.2, seed=3)
        dims = ((2, 5), (5, 3))
        init = nn.init_params(dims, 7)
        # two clients: the consensus mean of two equal matrices is exact
        clients = [
            protocol.ClientState(i, init, np.random.default_rng(5))
            for i in range(2)
        ]
        cfg = protocol.StrategyConfig(
            "hetero_distill", rounds=1, local_epochs=0, collab_epochs=3,
            batch_size=16, hyperparams=nn.Hyperparams(lr=0.1),
            flags=protocol.AblationFlags(hfl=True),
        )
        protocol.run_federation(clients, np.stack([x, x]), np.stack([labels, labels]), cfg,
                                test, public)
        for client in clients:
            assert client.params.values.tobytes() == init.values.tobytes()

    def test_zero_collab_epochs_reduces_to_local_only(self):
        # same world both times: only the round procedure differs
        hetero = small_cfg(strategy="hetero_distill", collab_epochs=0, rounds=3,
                           data={"clients": 2})
        world_h = harness.build_world(hetero)
        world_l = harness.build_world(hetero)
        [res_h] = protocol.run_federation(
            world_h.clients, world_h.features, world_h.labels, hetero.federation,
            world_h.test, world_h.public,
        )
        local_cfg = protocol.StrategyConfig(
            "local_only", rounds=3, local_epochs=hetero.federation.local_epochs,
            collab_epochs=0, batch_size=hetero.federation.batch_size,
            hyperparams=hetero.federation.hyperparams, flags=protocol.AblationFlags(),
        )
        [res_l] = protocol.run_federation(
            world_l.clients, world_l.features, world_l.labels, local_cfg,
            world_l.test, world_l.public,
        )
        for ch, cl in zip(world_h.clients, world_l.clients):
            assert ch.params.values.tobytes() == cl.params.values.tobytes()
        assert record_dicts(res_h) == record_dicts(res_l)

    def test_missing_public_dataset_rejected(self):
        cfg = small_cfg(strategy="hetero_distill", data={"n_public": 0})
        with pytest.raises(ConfigError, match="public"):
            harness.run_experiment(cfg)


class TestLatticeRounds:
    def test_all_flags_off_equals_local_only(self):
        flags_off = {"hfl": False, "sl": False, "dlr": False, "reweight": "none"}
        full = small_cfg(strategy="rhfl_plus_eccr", flags=flags_off, rounds=3)
        local = small_cfg(strategy="local_only", rounds=3)
        res_f, world_f = harness.run_experiment(full)
        res_l, world_l = harness.run_experiment(local)
        assert record_dicts(res_f) == record_dicts(res_l)
        for cf, cl in zip(world_f.clients, world_l.clients):
            assert cf.params.values.tobytes() == cl.params.values.tobytes()

    def test_equal_confidence_eccr_matches_uniform_weights(self):
        base = data.gen_blobs(3, 2, 80, 0.4, seed=0)
        test, rest = data.random_split(base, 40, seed=1)
        public, rest = data.random_split(rest, 20, seed=2)
        x = rest.features[:50]
        labels, _ = data.apply_noise(rest.labels[:50], 3, "pairflip", 0.2, seed=3)
        dims = ((2, 6), (6, 3))
        init = nn.init_params(dims, 11)

        def fleet():
            return [
                protocol.ClientState(i, init, np.random.default_rng(9))
                for i in range(4)
            ]

        def run(reweight_mode):
            cfg = protocol.StrategyConfig(
                "rhfl_plus_eccr", rounds=3, local_epochs=1, collab_epochs=1,
                batch_size=16, hyperparams=nn.Hyperparams(lr=0.05),
                flags=protocol.AblationFlags(True, True, True, reweight_mode),
            )
            clients = fleet()
            [result] = protocol.run_federation(
                clients, np.stack([x] * 4), np.stack([labels] * 4), cfg, test, public
            )
            return clients, result

        eccr_clients, eccr_res = run("eccr")
        none_clients, none_res = run("none")
        for a, b in zip(eccr_clients, none_clients):
            assert a.params.values.tobytes() == b.params.values.tobytes()
        for rec in eccr_res.records[1:]:
            for stats in rec.clients:
                assert stats.weight == pytest.approx(0.25, abs=1e-15)

    def test_hfl_without_public_set_rejected(self):
        cfg = small_cfg(strategy="local_only", flags={"hfl": True})
        world = harness.build_world(cfg)
        with pytest.raises(ConfigError, match="requires a public dataset"):
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test
            )

    def test_fixed_flag_strategies_reject_other_flags(self):
        def strategy_config(strategy, flags):
            return protocol.StrategyConfig(strategy, 1, 1, 1, 16, nn.Hyperparams(), flags)

        with pytest.raises(ConfigError, match=r"^strategy 'fedavg' ignores flags: flags.hfl=true"):
            strategy_config("fedavg", protocol.AblationFlags(hfl=True))
        with pytest.raises(ConfigError, match=r"'hetero_distill' ignores flags: flags.hfl=false"):
            strategy_config("hetero_distill", protocol.AblationFlags())
        with pytest.raises(ConfigError, match=r"'fedavg' ignores flags: flags.reweight=\"ccr\""):
            small_cfg(strategy="fedavg", flags={"reweight": "ccr"})
        strategy_config("hetero_distill", protocol.AblationFlags(hfl=True))
        small_cfg(strategy="fedavg", flags={"hfl": False, "sl": False, "dlr": False, "reweight": "none"})

    def test_update_ratio_matches_per_client_norms(self, monkeypatch):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=1, data={"clients": 3})
        world = harness.build_world(cfg)
        controller = protocol.Controller(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        )
        controller._eval_round(0)
        group = controller.group
        mean_sl, snapshot = group.evaluated
        cur = snapshot.stacks[0]
        history = snapshot.copy()
        prev = history.stacks[0]
        prev += np.random.default_rng(0).normal(scale=0.1, size=cur.shape)
        prev[1] = 0.0  # client 1's previous model is all zeros
        prev[2] = cur[2]  # client 2 did not move
        group.history = mean_sl, history
        ratios = []
        step = reweight.confidence_step

        def spy(mode, prev_sl, cur_sl, ratio, eta):
            ratios.append(ratio)
            return step(mode, prev_sl, cur_sl, ratio, eta)

        monkeypatch.setattr(reweight, "confidence_step", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            controller._round(1)
        first = float(np.linalg.norm(cur[0] - prev[0])) / float(np.linalg.norm(prev[0]))
        assert ratios[0].tolist() == [first, 0.0, 0.0]

    def test_dlr_epoch_numbering_matches_schedule(self):
        """Replicate the refinement trajectory by hand, epoch indices 1..T*E."""
        cfg = small_cfg(strategy="rhfl_plus_eccr",
                        flags={"hfl": False, "sl": True, "dlr": True, "reweight": "none"},
                        rounds=2, local_epochs=2, data={"clients": 1})
        result, world = harness.run_experiment(cfg)

        setup = small_cfg(strategy="rhfl_plus_eccr",
                          flags={"hfl": False, "sl": True, "dlr": True, "reweight": "none"},
                          rounds=0, local_epochs=2, data={"clients": 1})
        _, fresh = harness.run_experiment(setup)
        client = fresh.clients[0]
        x, labels = fresh.features[0], fresh.labels[0]
        hp = cfg.federation.hyperparams
        batch_size = cfg.federation.batch_size
        sched = dict(zeta=hp.zeta, total_epochs=4)
        onehot = oracle.one_hot(labels, 3)
        params = client.params
        for t in (1, 2, 3, 4):
            s = reweight.dlr_weight(t, **sched)
            preds = nn.softmax_t(oracle.logits(params, x), 1.0)
            targets = reweight.dlr_refine(onehot, preds, s)
            perm = client.rng.permutation(labels.size)
            for start in range(0, labels.size, batch_size):
                idx = perm[start : start + batch_size]
                loss = oracle.Symmetric(targets[idx], hp.lam, hp.gamma, hp.rce_log_floor)
                grad = oracle.backward(params, x[idx], loss)
                params = oracle.sgd_step(params, grad, hp.lr)
        assert world.clients[0].params.values.tobytes() == params.values.tobytes()
        assert reweight.dlr_weight(4, **sched) == pytest.approx(4 / (hp.zeta * 4 + 4), abs=0)

    def test_weights_sum_to_one_each_round(self):
        cfg = small_cfg(strategy="rhfl_plus_ccr", rounds=4,
                        data={"clients": 3, "shard_size": 30})
        result, _ = harness.run_experiment(cfg)
        for rec in result.records[1:]:
            total = sum(s.weight for s in rec.clients)
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_round_zero_is_uniform(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=2, data={"clients": 4})
        result, _ = harness.run_experiment(cfg)
        first_train_round = result.records[1]
        for stats in first_train_round.clients:
            assert stats.weight == pytest.approx(0.25, abs=1e-12)

    def test_four_distinct_architectures_complete(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=2,
                        archs={"hidden_layers": [[6], [10], [14, 6], [4]]},
                        data={"clients": 4, "shard_size": 30})
        result, world = harness.run_experiment(cfg)
        assert len({c.arch for c in world.clients}) == 4
        assert len(result.records) == 3

    def test_rhfl_vs_rhfl_plus_differ_only_by_flags(self):
        cfg_a = small_cfg(strategy="rhfl")
        cfg_b = small_cfg(strategy="rhfl_plus_eccr")
        assert cfg_a.federation.flags == protocol.AblationFlags(True, True, False, "ccr")
        assert cfg_b.federation.flags == protocol.AblationFlags(True, True, True, "eccr")

    def test_strategy_names_are_pure_flag_presets(self):
        # toggling rhfl_plus_eccr down to the rhfl flags reproduces rhfl
        plain = small_cfg(strategy="rhfl", rounds=3)
        toggled = small_cfg(strategy="rhfl_plus_eccr", rounds=3,
                            flags={"dlr": False, "reweight": "ccr"})
        res_a, world_a = harness.run_experiment(plain)
        res_b, world_b = harness.run_experiment(toggled)
        assert record_dicts(res_a) == record_dicts(res_b)
        for ca, cb in zip(world_a.clients, world_b.clients):
            assert ca.params.values.tobytes() == cb.params.values.tobytes()

    def test_fedavg_partial_participation(self):
        cfg = small_cfg(strategy="fedavg", rounds=3, participation=0.5,
                        data={"clients": 4, "shard_size": 25})
        res_a, world_a = harness.run_experiment(cfg)
        res_b, world_b = harness.run_experiment(cfg)
        assert record_dicts(res_a) == record_dicts(res_b)
        final = {c.params.values.tobytes() for c in world_a.clients}
        assert len(final) == 1  # everyone holds the aggregated model


class TestPeerPath:
    """The once-per-round peer softmax must reproduce the per-client spec."""

    def _fleet(self, strategy):
        cfg = small_cfg(strategy=strategy, collab_epochs=3,
                        archs={"hidden_layers": [[6], [10], [14, 6], [4]]},
                        data={"clients": 5, "shard_size": 30})
        world = harness.build_world(cfg)
        logits = np.stack([oracle.logits(c.params, world.public.features)
                           for c in world.clients])
        return cfg, world, logits

    def _spec_descent(self, cfg, params, x, peer_logits, weights):
        """collab_epochs descent steps on the KL to the tempered peer logits."""
        fed = cfg.federation
        tau = fed.hyperparams.temperature
        loss = oracle.MixtureKl(nn.softmax_t(peer_logits, tau), weights, tau)
        return oracle.descend(params, x, loss, fed.hyperparams.lr, fed.collab_epochs)

    def test_weighted_peers_match_consensus_spec(self):
        cfg, world, logits = self._fleet("rhfl_plus_eccr")
        tau = cfg.federation.hyperparams.temperature
        probs = nn.softmax_t(logits, tau)
        w = np.random.default_rng(0).dirichlet(np.ones(5))
        group = protocol.ClientGroup.stack(world.clients, world.features, world.labels, 3)
        for idx, client in enumerate(world.clients):
            mask = np.arange(5) != idx
            expected = self._spec_descent(
                cfg, client.params, world.public.features, logits[mask], w[mask]
            )
            assert expected.values.tobytes() != client.params.values.tobytes()
            # The client's row alone, with a copy of its model; the target
            # stack is read at its position, idx.
            part = group.gather(np.flatnonzero(group.shard == idx))
            target = nn.mixture_spec(probs, w, tau, np.arange(5))
            protocol.collaborative_training(part, world.public, target, cfg.federation)
            assert part.cohort.values.tobytes() == expected.values.tobytes()

    def test_lattice_round_matches_consensus_spec(self):
        cfg, world, logits = self._fleet("rhfl_plus_eccr")
        cfg = replace(cfg, federation=replace(cfg.federation, rounds=1, local_epochs=0))
        initial = [c.params for c in world.clients]
        [result] = protocol.run_federation(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        )
        w = np.array([s.weight for s in result.records[1].clients])
        for idx, (client, params) in enumerate(zip(world.clients, initial)):
            mask = np.arange(5) != idx
            expected = self._spec_descent(cfg, params, world.public.features, logits[mask], w[mask])
            assert client.params.values.tobytes() == expected.values.tobytes()

    def test_single_consensus_peer_matches_consensus_spec(self):
        cfg, world, logits = self._fleet("hetero_distill")
        tau = cfg.federation.hyperparams.temperature
        consensus = logits.mean(axis=0)[np.newaxis]
        peer = nn.softmax_t(consensus, tau)
        for k, client in enumerate(world.clients):
            expected = self._spec_descent(
                cfg, client.params, world.public.features, consensus, np.ones(1)
            )
            group = protocol.ClientGroup.stack(
                [client], world.features[[k]], world.labels[[k]], 3
            )
            target = nn.mixture_spec(peer, np.ones(1), tau)
            protocol.collaborative_training(group, world.public, target, cfg.federation)
            assert group.cohort.values.tobytes() == expected.values.tobytes()


class TestClientGroups:
    """All clients form one group, processed in chunks."""

    def test_stacks_that_do_not_match_the_clients_are_a_config_error(self):
        cfg = small_cfg(strategy="local_only", data={"clients": 3})
        world = harness.build_world(cfg)
        mismatched = [
            (world.features[:2], world.labels[:2]),  # two shards for three clients
            (world.features, world.labels[:2]),  # labels short of a client
            (world.features[:, :30], world.labels),  # labels longer than the shards
            (world.features[0], world.labels[0]),  # no client axis
        ]
        for features, labels in mismatched:
            with pytest.raises(ConfigError, match=r"^shard stacks must be \(K, S, d\) features "
                               r"and \(K, S\) labels for K = 3 clients, got"):
                protocol.Controller(world.clients, features, labels, cfg.federation, world.test)
            with pytest.raises(ConfigError, match="shard stacks must be"):
                protocol.run_federation(world.clients, features, labels, cfg.federation, world.test)
        with pytest.raises(ConfigError, match=r"shard labels must lie in \[0, 3\)"):
            protocol.Controller(world.clients, world.features, world.labels + 1,
                                cfg.federation, world.test)
        with pytest.raises(ConfigError, match=r"ascending \(cell, id\) order"):
            protocol.Controller(world.clients[::-1], world.features[::-1], world.labels[::-1],
                                cfg.federation, world.test)

    @pytest.mark.parametrize("strategy", ["rhfl_plus_eccr", "hetero_distill", "fedavg"])
    def test_chunking_does_not_change_results(self, strategy, monkeypatch):
        cfg = small_cfg(strategy=strategy, rounds=2, participation=0.75,
                        data={"clients": 4, "shard_size": 30})
        whole, world_w = harness.run_experiment(cfg)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one client per chunk
        chunked, world_c = harness.run_experiment(cfg)
        assert record_dicts(whole) == record_dicts(chunked)
        for a, b in zip(world_w.clients, world_c.clients):
            assert a.params.values.tobytes() == b.params.values.tobytes()

    def test_single_client_robust_strategy(self):
        solo = small_cfg(strategy="rhfl_plus_eccr", rounds=3, data={"clients": 1})
        world, world_n = harness.build_world(solo), harness.build_world(solo)
        full = solo.federation
        [result] = protocol.run_federation(
            world.clients, world.features, world.labels, full, world.test, world.public
        )
        assert [s.weight for r in result.records[1:] for s in r.clients] == [1.0] * 3
        assert all(s.f is None for r in result.records[1:] for s in r.clients)
        # No peers to distill from: training is the same as with hfl off.
        no_hfl = replace(full, flags=protocol.AblationFlags(False, True, True, "none"))
        protocol.run_federation(
            world_n.clients, world_n.features, world_n.labels, no_hfl, world_n.test, world_n.public
        )
        assert world.clients[0].params.values.tobytes() == world_n.clients[0].params.values.tobytes()

    def test_test_split_missing_a_class(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=2, data={"clients": 3})
        world = harness.build_world(cfg)
        keep = world.test.labels != 2
        test = data.Dataset(world.test.features[keep], world.test.labels[keep], 3)
        [result] = protocol.run_federation(
            world.clients, world.features, world.labels, cfg.federation, test, world.public
        )
        stats = [s for r in result.records for s in r.clients]
        assert len(stats) == 9
        assert all(s.roc_auc is None and s.accuracy is not None for s in stats)


class TestCohorts:
    """Clients of one shard size share a group, one block per architecture."""

    ARCHS = {"hidden_layers": [[6], [10], [14, 6], [4]]}

    def _cfg(self, strategy, **overrides):
        # Eight clients over four architectures: blocks {0, 4}, {1, 5}, ...
        return small_cfg(strategy=strategy, rounds=2, local_epochs=2, archs=self.ARCHS,
                         data={"clients": 8, "shard_size": 30}, **overrides)

    def test_repeating_architectures_form_blocks(self):
        cfg = self._cfg("rhfl_plus_eccr")
        world = harness.build_world(cfg)
        group = protocol.Controller(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        ).group
        assert group.shard.tolist() == [0, 4, 1, 5, 2, 6, 3, 7]
        assert group.cohort.counts == (2, 2, 2, 2)

    def test_base_config_is_one_group_of_four_blocks(self):
        cfg = load_config([BASE_CONFIG])
        world = harness.build_world(cfg)
        group = protocol.Controller(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        ).group
        assert list(group.cohort.dims) == [c.arch for c in world.clients]

    @pytest.mark.parametrize("strategy", ["rhfl_plus_eccr", "hetero_distill", "local_only"])
    def test_chunking_does_not_change_results(self, strategy, monkeypatch):
        cfg = self._cfg(strategy)
        whole, world_w = harness.run_experiment(cfg)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one client per chunk
        chunked, world_c = harness.run_experiment(cfg)
        assert record_dicts(whole) == record_dicts(chunked)
        for a, b in zip(world_w.clients, world_c.clients):
            assert a.params.values.tobytes() == b.params.values.tobytes()

    @pytest.mark.parametrize("flags", [
        {"hfl": False, "sl": False, "dlr": False, "reweight": "none"},
        {"hfl": False, "sl": True, "dlr": True, "reweight": "none"},
    ])
    def test_every_client_trains_as_if_alone(self, flags):
        cfg = self._cfg("rhfl_plus_eccr", flags=flags)
        result, world = harness.run_experiment(cfg)
        fresh = harness.build_world(cfg)
        for k, (client, stats) in enumerate(zip(fresh.clients, result.records[-1].clients)):
            [alone] = protocol.run_federation(
                [client], fresh.features[[k]], fresh.labels[[k]], cfg.federation, fresh.test
            )
            trained = world.clients[client.client_id].params.values
            assert client.params.values.tobytes() == trained.tobytes()
            assert alone.records[-1].clients[0] == stats

    @pytest.mark.parametrize("strategy", ["rhfl_plus_eccr", "hetero_distill"])
    def test_chunks_may_cut_blocks(self, strategy, monkeypatch):
        cfg = self._cfg(strategy)
        whole, world_w = harness.run_experiment(cfg)
        world = harness.build_world(cfg)
        controller = protocol.Controller(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public,
            sampler_seed=(cfg.seed, _S_SAMPLER),
        )
        group = controller.group
        width = max(protocol._working_width(dims) for dims in group.cohort.dims)
        # Distillation on the 20 public rows, at a budget of three of the
        # widest clients: the blocks of 2 cost 26, 38, 68 and 20 values a
        # row per client, so the chunks run rows [0, 5) and [5, 8).
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 3 * 8 * 20 * width)
        distill = nn.cohort_distill
        parts = []

        def spy(cohort, *args):
            parts.append(cohort.counts)
            return distill(cohort, *args)

        monkeypatch.setattr(nn, "cohort_distill", spy)
        [chunked] = controller.run()
        assert parts[:4] == [(2, 2, 1), (1, 2)] * 2  # two rounds
        assert record_dicts(whole) == record_dicts(chunked)
        for a, b in zip(world_w.clients, world.clients):
            assert a.params.values.tobytes() == b.params.values.tobytes()
            assert not np.shares_memory(b.params.values, group.cohort.values)

    def test_lowest_diverged_client_is_named(self):
        cfg = self._cfg("local_only")
        world = harness.build_world(cfg)
        for client in (world.clients[1], world.clients[4]):  # rows 2 and 1
            client.params = nn.ModelParams(client.arch, np.full(client.params.values.size, 1e200))
        with pytest.raises(NumericError, match=r"^round 0, client 1, phase eval: softmax"):
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test
            )

    def test_block_errors_name_the_block_clients(self):
        cfg = self._cfg("local_only")
        world = harness.build_world(cfg)
        for client in (world.clients[1], world.clients[5]):
            client.params = nn.init_params(((3, 10), (10, 3)), client.client_id)
        with pytest.raises(
            ConfigError, match=r"^round 0, clients \[1, 5\], phase eval: batch has 2 features"
        ):
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test
            )


def cohort_of(widths_and_counts):
    """A cohort of blocks of one-hidden-layer models (2 -> hidden -> 3)."""
    models = [nn.init_params(((2, hidden), (hidden, 3)), 0)
              for hidden, count in widths_and_counts for _ in range(count)]
    return nn.Cohort.of(models)


class TestChunkBounds:
    """Chunks are sized by their own clients' working widths."""

    def test_one_block_splits_evenly_within_the_budget(self, monkeypatch):
        cohort = cohort_of([(12, 100)])  # a working width of 44 values a row
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 47 * 8 * 500 * 44)
        assert protocol._chunk_bounds(cohort, 500) == [(0, 34), (34, 68), (68, 100)]
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)
        assert protocol._chunk_bounds(cohort, 500) == [(k, k + 1) for k in range(100)]
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1 << 40)
        assert protocol._chunk_bounds(cohort, 500) == [(0, 100)]

    def test_narrow_blocks_take_more_clients(self, monkeypatch):
        # Working widths of 20 and 104 values a row: 1,600 and 8,320 bytes
        # a client at 10 rows, on a budget of two wide clients.
        cohort = cohort_of([(4, 6), (32, 6)])
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 2 * 8320)
        assert protocol._chunk_bounds(cohort, 10) == [(0, 6), (6, 8), (8, 10), (10, 12)]

    @pytest.mark.parametrize("seed", range(20))
    def test_chunks_cover_the_rows_within_the_budget(self, monkeypatch, seed):
        rng = np.random.default_rng(seed)
        blocks = [(int(h), int(k)) for h, k in zip(rng.integers(1, 40, size=4),
                                                   rng.integers(1, 9, size=4))]
        cohort = cohort_of(blocks)
        budget = int(rng.integers(1, 60_000))
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", budget)
        bounds = protocol._chunk_bounds(cohort, 10)
        costs = np.repeat([8 * 10 * protocol._working_width(d) for d in cohort.dims],
                          cohort.counts)
        assert [lo for lo, _ in bounds] == [0] + [hi for _, hi in bounds[:-1]]
        assert bounds[-1][1] == len(cohort)
        for lo, hi in bounds:
            assert hi == lo + 1 or costs[lo:hi].sum() <= budget


class TestShardLossReuse:
    def test_phase1_makes_no_shard_forward(self, monkeypatch):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=3, local_epochs=2,
                        data={"clients": 3, "shard_size": 30})
        world = harness.build_world(cfg)
        controller = protocol.Controller(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        )
        forward = nn.Cohort.forward
        calls = []

        def counted(cohort, batch, **kwargs):
            calls.append(np.ndim(batch) == 3)  # a stack of shards, not a shared set
            return forward(cohort, batch, **kwargs)

        monkeypatch.setattr(nn.Cohort, "forward", counted)
        controller.run()
        # Shard forwards: one per evaluation (rounds 0..3) and one per
        # refinement epoch; neither history seeding nor phase 1 adds any.
        rounds, epochs = 3, 2
        assert sum(calls) == (rounds + 1) + rounds * epochs

    @pytest.mark.parametrize("strategy", ["hetero_distill", "rhfl_plus_eccr"])
    @pytest.mark.parametrize("collab_epochs", [1, 2])
    def test_one_public_forward_per_round_and_step(self, monkeypatch, strategy, collab_epochs):
        cfg = small_cfg(strategy=strategy, rounds=3, collab_epochs=collab_epochs,
                        data={"clients": 3})
        world = harness.build_world(cfg)
        forward = nn._forward
        calls = []

        def counted(layers, x, *args):
            calls.append(x is world.public.features)
            return forward(layers, x, *args)

        monkeypatch.setattr(nn, "_forward", counted)
        protocol.run_federation(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        )
        # One block in one chunk: phase 1's forward serves the first
        # distillation step, and each later step makes its own.
        assert sum(calls) == 3 * collab_epochs

    def test_history_and_quality_come_from_the_evaluation(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=3, data={"clients": 3})
        seeded = harness.build_world(cfg)
        initial = np.stack([c.params.values for c in seeded.clients])
        controller = protocol.Controller(
            seeded.clients, seeded.features, seeded.labels, replace(cfg.federation, rounds=0),
            seeded.test, seeded.public,
        )
        [result0] = controller.run()
        group = controller.group
        assert group.history is group.evaluated
        sl, snapshot = group.history
        assert not np.shares_memory(snapshot.values, group.cohort.values)
        assert snapshot.values.tobytes() == group.cohort.values.tobytes()
        assert group.cohort.values.tobytes() == initial[group.shard].tobytes()
        for client, mean_sl in zip(group.clients, sl):
            stats = result0.records[0].clients[client.client_id]
            k = client.client_id
            probs = nn.softmax_t(oracle.logits(client.params, seeded.features[k]), 1.0)
            onehot = oracle.one_hot(seeded.labels[k], cfg.data["classes"])
            alone = float(nn.sl_loss(probs, onehot, cfg.federation.hyperparams).mean())
            assert stats.mean_sl_loss == mean_sl == alone

        result, _ = harness.run_experiment(cfg)
        for prev, rec in zip(result.records, result.records[1:]):
            for before, now in zip(prev.clients, rec.clients):
                assert now.q == oracle.label_quality(before.mean_sl_loss)


def scaled_identity_clients(scales, classes):
    """Clients of one linear layer, the identity times scales[k], and no
    bias: client k's logits are the features times scales[k]."""
    return [
        protocol.ClientState(k, nn.ModelParams(
            ((classes, classes),), np.r_[scale * np.eye(classes).ravel(), np.zeros(classes)]
        ), np.random.default_rng(k))
        for k, scale in enumerate(scales)
    ]


class TestClassMajorEvaluation:
    """Evaluation works on class-major (k, C, N) chunks. Every column keeps
    the bits of the row-major path: softmax_t over (k, N, C) logits,
    argmax, then roc_auc and the per-row pr_auc, or multiclass_roc_auc."""

    SCALES = [1.0, 2.0, 0.5, 0.0, -1.0]  # 0.0: every score of every row ties

    @staticmethod
    def clean_split(rng, classes, n=60):
        z = 3 * rng.normal(size=(n, classes))
        z[0::5, :2] = np.abs(z[0::5, :1]) + 10  # two classes tie at the top
        z[1::5] = 0.0  # every class ties
        z[2::5] = -800.0  # saturated: probabilities of exactly 0.0 and 1.0
        z[2::5, -1] = 800.0
        z[3::5] = z[3]  # rows equal to each other
        labels = np.r_[np.arange(classes), rng.integers(0, classes, size=n - classes)]
        return data.Dataset(z, labels, classes)

    @pytest.mark.parametrize("chunk_bytes", [1, protocol._CHUNK_BYTES])
    @pytest.mark.parametrize("classes", [2, 3, 7, 9])  # 9: _class_sum's reduction branch
    def test_columns_match_the_row_major_path(self, monkeypatch, classes, chunk_bytes):
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", chunk_bytes)
        rng = np.random.default_rng(classes)
        test = self.clean_split(rng, classes)
        k = len(self.SCALES)
        group = protocol.ClientGroup.stack(
            scaled_identity_clients(self.SCALES, classes), rng.normal(size=(k, 20, classes)),
            rng.integers(0, classes, size=(k, 20)), classes,
        )
        split = metrics.OneVsRest.of(test.labels, classes)
        acc, roc, pr, _ = protocol.evaluate_client(group, test, split, nn.Hyperparams())

        probs = nn.softmax_t(group.cohort.forward(test.features), 1.0)
        assert acc.tobytes() == metrics.accuracy(probs.argmax(axis=-1), test.labels).tobytes()
        if classes == 2:
            expected_roc = metrics.roc_auc(probs[..., 1], test.labels)
            expected_pr = [oracle.pr_auc(row, test.labels == 1) for row in probs[..., 1]]
            assert pr.tobytes() == np.array(expected_pr).tobytes()
        else:
            expected_roc = metrics.multiclass_roc_auc(probs, test.labels)
            assert pr is None
        assert roc.tobytes() == np.asarray(expected_roc).tobytes()

    def test_non_finite_logit_names_the_lowest_client(self):
        rng = np.random.default_rng(0)
        test = self.clean_split(rng, 3)
        # 1e308 times a feature beyond 1 overflows: clients 1 and 3 diverge.
        clients = scaled_identity_clients([1.0, 1e308, 1.0, 1e308], 3)
        cfg = small_cfg(strategy="local_only").federation
        with pytest.raises(NumericError, match=r"^round 0, client 1, phase eval: "
                           r"softmax input contains non-finite values$"):
            protocol.run_federation(
                clients, rng.normal(size=(4, 20, 3)), rng.integers(0, 3, size=(4, 20)), cfg, test
            )


class TestFailureContext:
    def test_client_errors_name_round_client_and_phase(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", hyperparams={"lr": 1e100})
        with warnings.catch_warnings(record=True) as caught, pytest.raises(
            NumericError, match=r"^round 1, client 0, phase private: softmax input"
        ):
            warnings.simplefilter("always")
            harness.run_experiment(cfg)
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]

    def test_failed_run_leaves_client_states_alone(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", hyperparams={"lr": 1e100})
        world = harness.build_world(cfg)
        before = [(c.params, c.params.values.tobytes()) for c in world.clients]
        with warnings.catch_warnings(), pytest.raises(NumericError, match="phase private"):
            warnings.simplefilter("ignore")
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test, world.public
            )
        # Distillation had stepped the cohort before private training failed.
        for client, (params, values) in zip(world.clients, before):
            assert client.params is params and params.values.tobytes() == values

    @pytest.mark.parametrize("strategy", ["hetero_distill", "rhfl_plus_eccr"])
    def test_non_finite_public_logits_name_the_client(self, monkeypatch, strategy):
        cfg = load_config([BASE_CONFIG], ["rounds=2", f"strategy={strategy}"])
        share = protocol.Controller._share

        def diverged(controller, round_idx):
            # Client 1's parameters blow up after the round-0 evaluation;
            # the snapshot it took moves with them.
            group = controller.group
            row = [c.client_id for c in group.clients].index(1)
            for cohort in (group.cohort, group.evaluated[1]):
                cohort.take(row, row + 1).values[:] = 1e300
            return share(controller, round_idx)

        monkeypatch.setattr(protocol.Controller, "_share", diverged)
        with warnings.catch_warnings(), pytest.raises(
            NumericError, match=r"^round 1, client 1, phase distill: softmax input contains "
                                r"non-finite values$"
        ):
            warnings.simplefilter("ignore")
            harness.run_experiment(cfg)

    def test_error_type_is_kept(self):
        world = harness.build_world(small_cfg())
        cfg = small_cfg().federation
        controller = protocol.Controller(
            world.clients, world.features, world.labels, cfg, world.test
        )
        group = controller.group

        def fail(group):
            raise ConfigError("bad shape")

        with pytest.raises(ConfigError, match=r"^round 4, client 1, phase distill: bad shape$"):
            controller._in_phase("distill", 4, fail, group.take(1, len(group.clients)))

    def test_lowest_diverged_client_is_named(self):
        cfg = small_cfg(strategy="local_only", data={"clients": 4})
        world = harness.build_world(cfg)
        for client in world.clients[2:]:
            client.params = nn.ModelParams(client.arch, np.full(client.params.values.size, 1e200))
        with pytest.raises(NumericError, match=r"^round 0, client 2, phase eval: softmax"):
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test
            )

    def test_chunk_errors_are_rebased_to_the_group(self):
        world = harness.build_world(small_cfg(data={"clients": 4}))
        group = protocol.Controller(
            world.clients, world.features, world.labels, small_cfg().federation, world.test
        ).group

        def fail_third(part):
            if part.shard[0] == 2:
                raise NumericError("boom", rows=[0])

        # So many rows that every chunk holds one client.
        with pytest.raises(NumericError) as caught:
            protocol._by_chunk(group, 1 << 30, fail_third)
        assert caught.value.rows == [2]


class TestDeterminismAndMessages:
    def test_same_seed_bitwise_identical_records(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=3)
        res_a, _ = harness.run_experiment(cfg)
        res_b, _ = harness.run_experiment(cfg)
        assert record_dicts(res_a) == record_dicts(res_b)

    def test_chunk_size_does_not_change_records(self, monkeypatch):
        cfg = small_cfg(strategy="rhfl_plus_ccr", rounds=3, data={"clients": 4})
        res_a, _ = harness.run_experiment(cfg)
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one client per chunk
        res_b, _ = harness.run_experiment(cfg)
        assert record_dicts(res_a) == record_dicts(res_b)

    # configs/base.json at 3 rounds: K = 4 clients, R = 3 rounds. Every run
    # sends (R + 1) K evaluation reports; a round adds K model broadcasts
    # plus one upload per chosen client (fedavg), K logit shares plus K
    # consensus shares (hetero_distill), K confidence reports, K logit
    # shares and K weight broadcasts (hfl on), or nothing (hfl off).
    @pytest.mark.parametrize("strategy, overrides, expected", [
        ("local_only", [], 4 * 4),
        ("fedavg", ["participation=0.5", "archs.hidden_layers=[[16]]"], 4 * 4 + 3 * (4 + 2)),
        ("rhfl", [], 4 * 4 + 3 * 3 * 4),
        ("rhfl", ["flags.hfl=false"], 4 * 4),
        ("hetero_distill", [], 4 * 4 + 3 * 2 * 4),
    ])
    def test_run_meta_counts_messages(self, tmp_path, strategy, overrides, expected):
        cfg = load_config([BASE_CONFIG], [f"strategy={strategy}", "rounds=3", *overrides])
        run_dir = harness.execute_run(cfg, tmp_path)
        meta = json.loads((run_dir / harness.META_FILE).read_text())
        assert meta["messages"] == expected

    def test_simulated_dropout_aborts_round(self, monkeypatch):
        cfg = small_cfg(strategy="fedavg", rounds=4)
        world = harness.build_world(cfg)
        train = protocol.private_training
        calls = []

        def drop_out(part, *args, **kwargs):
            calls.append(part.shard.tolist())
            if len(calls) == 2:  # the second round's local training
                raise ProtocolError("client 1 dropped out")
            return train(part, *args, **kwargs)

        monkeypatch.setattr(protocol, "private_training", drop_out)
        # The error carries no client index, so the whole group is named.
        with pytest.raises(ProtocolError, match=r"^round 2, clients \[0, 1\], phase fedavg: client 1 dropped"):
            protocol.run_federation(
                world.clients, world.features, world.labels, cfg.federation, world.test, world.public
            )
        assert calls == [[0, 1], [0, 1]]

    @pytest.mark.parametrize("strategy, phases", [
        ("local_only", {"private", "eval"}),
        ("fedavg", {"fedavg", "eval"}),
        ("hetero_distill", {"phase1", "distill", "private", "eval"}),
        ("rhfl_plus_eccr", {"phase1", "distill", "private", "eval"}),
    ])
    def test_timing_records_phase_seconds(self, tmp_path, strategy, phases):
        run_dir = harness.execute_run(small_cfg(strategy=strategy, rounds=2), tmp_path)
        timing = json.loads((run_dir / harness.TIMING_FILE).read_text())
        assert [set(r) for r in timing["phase_seconds"]] == [{"eval"}, phases, phases]
        for per_phase, total in zip(timing["phase_seconds"], timing["round_seconds"]):
            assert sum(per_phase.values()) <= total

    # One piece of a round's work each, and the phase it belongs to.
    @pytest.mark.parametrize("strategy, piece, phase", [
        ("rhfl_plus_eccr", "peer softmax", "distill"),
        ("hetero_distill", "peer softmax", "distill"),
        ("rhfl_plus_eccr", "confidence step", "phase1"),
        ("rhfl_plus_eccr", "round record", "eval"),
        ("local_only", "round record", "eval"),
    ])
    def test_round_seconds_fall_in_phases(self, monkeypatch, strategy, piece, phase):
        """A clock that moves only inside one piece of work: its seconds
        land in that piece's phase, and every round's seconds are the sum
        of its phase seconds."""
        cfg = small_cfg(strategy=strategy, rounds=2)
        world = harness.build_world(cfg)
        now = [0.0]
        monkeypatch.setattr(protocol, "time", SimpleNamespace(perf_counter=lambda: now[0]))

        def ticking(fn, when=lambda *args: True):
            def call(*args, **kwargs):
                if when(*args):
                    now[0] += 1.0
                return fn(*args, **kwargs)
            return call

        if piece == "peer softmax":
            # Tempered softmaxes: the peers' and, inside distillation, the models'.
            temperature = cfg.federation.hyperparams.temperature
            tempered = ticking(nn.softmax_t, lambda z, tau: tau == temperature)
            monkeypatch.setattr(nn, "softmax_t", tempered)
        elif piece == "confidence step":
            monkeypatch.setattr(reweight, "confidence_step", ticking(reweight.confidence_step))
        else:
            monkeypatch.setattr(protocol, "RoundRecord", ticking(protocol.RoundRecord))
        [result] = protocol.run_federation(
            world.clients, world.features, world.labels, cfg.federation, world.test, world.public
        )
        assert now[0] > 0
        assert sum(per_phase.get(phase, 0.0) for per_phase in result.phase_seconds) == now[0]
        for per_phase, total in zip(result.phase_seconds, result.round_seconds):
            assert sum(per_phase.values()) == total

    def test_t_zero_gives_only_pretraining_eval(self):
        cfg = small_cfg(strategy="local_only", rounds=0)
        result, _ = harness.run_experiment(cfg)
        assert len(result.records) == 1
        assert result.records[0].round_idx == 0


class TestTestSplit:
    def test_one_vs_rest_split_is_built_once_per_run(self, monkeypatch):
        cfg = small_cfg(strategy="rhfl_plus_eccr", rounds=2, data={"clients": 4})
        whole, _ = harness.run_experiment(cfg)
        built, scored = [], []
        split, score = metrics.OneVsRest.of, metrics.multiclass_roc_auc
        monkeypatch.setattr(metrics.OneVsRest, "of", lambda *a: built.append(a) or split(*a))
        monkeypatch.setattr(metrics, "multiclass_roc_auc", lambda *a: scored.append(a) or score(*a))
        monkeypatch.setattr(protocol, "_CHUNK_BYTES", 1)  # one client per chunk
        chunked, _ = harness.run_experiment(cfg)
        assert len(built) == 1
        assert len(scored) == 4 * 3  # every chunk of every evaluation
        assert all(isinstance(labels, metrics.OneVsRest) for _, labels in scored)
        assert record_dicts(chunked) == record_dicts(whole)


class NumpyWithoutArgsort:
    """numpy as a module sees it, but with argsort raising."""

    def __getattr__(self, name):
        return getattr(np, name)

    @staticmethod
    def argsort(*args, **kwargs):
        raise AssertionError("argsort on the run path")


class TestRankingPath:
    @pytest.mark.parametrize("overrides", [[], ["data.classes=2", "data.per_class=1200"]])
    def test_runs_rank_without_argsort(self, monkeypatch, overrides):
        """Probabilities are never negative, so every AUC of a run ranks
        by one sort of packed keys; argsort is the slower path."""
        monkeypatch.setattr(metrics, "np", NumpyWithoutArgsort())
        cfg = load_config([BASE_CONFIG], ["rounds=2", *overrides])
        result, _ = harness.run_experiment(cfg)
        stats = [s for record in result.records for s in record.clients]
        assert all(s.roc_auc is not None for s in stats)
        assert all((s.pr_auc is not None) == (cfg.data["classes"] == 2) for s in stats)


class TestWorldBuilding:
    def test_public_test_and_shards_are_disjoint(self):
        cfg = small_cfg(strategy="rhfl_plus_eccr", data={"clients": 3, "shard_size": 30})
        world = harness.build_world(cfg)
        pools = [set(map(tuple, world.test.features)),
                 set(map(tuple, world.public.features))]
        pools += [set(map(tuple, x)) for x in world.features]
        for i in range(len(pools)):
            for j in range(i + 1, len(pools)):
                assert not pools[i] & pools[j]

    def test_per_client_noise_streams_are_independent(self):
        cfg = small_cfg(data={"clients": 2, "noise": {"kind": "symmetric", "rate": 0.5}})
        world = harness.build_world(cfg)
        masks = world.flipped
        assert not np.array_equal(masks[0], masks[1])

    def test_architectures_cycle_over_clients(self):
        cfg = small_cfg(archs={"hidden_layers": [[4], [6]]},
                        data={"clients": 4, "shard_size": 20})
        world = harness.build_world(cfg)
        hidden = [c.arch[0][1] for c in world.clients]
        assert hidden == [4, 6, 4, 6]

    def test_run_meta_flip_fractions_are_the_flipped_row_means(self, tmp_path):
        cfg = small_cfg(data={"clients": 3, "shard_size": 40, "noise": {
            "kind": "symmetric", "rate": 0.0, "random_range": [0.1, 0.6]}})
        world = harness.build_world(cfg)
        meta = json.loads((harness.execute_run(cfg, tmp_path) / harness.META_FILE).read_text())
        assert meta["flip_fractions"] == world.flipped.mean(axis=1).tolist()
        assert meta["flip_fractions"] == [count / 40 for count in world.flipped.sum(axis=1)]
        assert len(set(meta["flip_fractions"])) == 3
