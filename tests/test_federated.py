"""Tests for the federated-training substrate."""

import numpy as np
import pytest

from repro import nn
from repro.data import ArrayDataset
from repro.federated import (
    CommunicationLedger,
    DistributedSelectiveSGD,
    FedAvg,
    FedSGD,
    FederatedClient,
    ParameterServer,
    SelectiveSGDParticipant,
    sparse_update_bytes,
    state_bytes,
)
from repro.privacy import DPFedAvg
from repro.synth import make_digits, shard_partition


def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(nn.Linear(64, 16, rng=rng), nn.ReLU(),
                         nn.Linear(16, 10, rng=rng))


@pytest.fixture(scope="module")
def digit_clients():
    x, y = make_digits(600, seed=1)
    parts = shard_partition(y, 6, shards_per_client=3,
                            rng=np.random.default_rng(0))
    clients = [
        FederatedClient(i, ArrayDataset(x[p], y[p]), model_fn, seed=i)
        for i, p in enumerate(parts)
    ]
    eval_data = make_digits(200, seed=2)
    return clients, eval_data


class TestCommunicationAccounting:
    def test_state_bytes(self):
        state = model_fn().state_dict()
        expected = (64 * 16 + 16 + 16 * 10 + 10) * 4
        assert state_bytes(state) == expected

    def test_sparse_update_bytes(self):
        assert sparse_update_bytes(100) == 100 * 8

    def test_ledger_accumulates(self):
        ledger = CommunicationLedger()
        ledger.record_round(100, 50)
        ledger.record_round(10, 20)
        assert ledger.uplink_bytes == 110
        assert ledger.downlink_bytes == 70
        assert ledger.total_bytes == 180
        assert len(ledger.rounds) == 2


class TestParameterServer:
    def test_broadcast_is_a_copy(self):
        server = ParameterServer(model_fn)
        state = server.broadcast()
        key = next(iter(state))
        state[key][:] = 0.0
        assert not np.allclose(server.state[key], 0.0)

    def test_apply_gradients_weighted(self):
        server = ParameterServer(model_fn)
        before = server.broadcast()
        zeros = {k: np.zeros_like(v) for k, v in before.items()}
        ones = {k: np.ones_like(v) for k, v in before.items()}
        server.apply_gradients([zeros, ones], weights=[3, 1], lr=0.4)
        key = next(iter(before))
        # update = -0.4 * (0*3/4 + 1*1/4) = -0.1
        assert np.allclose(server.state[key], before[key] - 0.1)

    def test_average_states_weighted(self):
        server = ParameterServer(model_fn)
        template = server.broadcast()
        a = {k: np.zeros_like(v) for k, v in template.items()}
        b = {k: np.full_like(v, 4.0) for k, v in template.items()}
        server.average_states([a, b], weights=[1, 3])
        key = next(iter(template))
        assert np.allclose(server.state[key], 3.0)

    def test_zero_weight_raises(self):
        server = ParameterServer(model_fn)
        with pytest.raises(ValueError):
            server.average_states([server.broadcast()], weights=[0])


class TestFederatedClient:
    def test_gradient_matches_manual(self, digit_clients):
        clients, _ = digit_clients
        client = clients[0]
        state = model_fn().state_dict()
        gradient, count = client.compute_gradient(state)
        assert count == client.num_samples
        assert set(gradient) == set(state)
        # Gradient must be nonzero somewhere.
        assert sum(np.abs(g).sum() for g in gradient.values()) > 0

    def test_local_train_changes_weights(self, digit_clients):
        clients, _ = digit_clients
        state = model_fn().state_dict()
        new_state, count = clients[0].local_train(state, epochs=1, lr=0.1)
        assert count == clients[0].num_samples
        changed = any(
            not np.allclose(new_state[k], state[k]) for k in state
        )
        assert changed

    def test_local_train_does_not_mutate_input_state(self, digit_clients):
        clients, _ = digit_clients
        state = model_fn().state_dict()
        copies = {k: v.copy() for k, v in state.items()}
        clients[0].local_train(state, epochs=1, lr=0.5)
        for k in state:
            assert np.allclose(state[k], copies[k])


class TestFedAlgorithms:
    def test_fedavg_learns(self, digit_clients):
        clients, eval_data = digit_clients
        trainer = FedAvg(clients, model_fn, local_epochs=3, lr=0.1,
                         client_fraction=1.0, seed=0)
        history = trainer.run(12, eval_data)
        assert history.final_accuracy() > 0.35
        assert history.ledger.total_bytes > 0

    def test_fedavg_beats_fedsgd_per_round(self, digit_clients):
        """The core Sec. II-B observation at equal communication."""
        clients, eval_data = digit_clients
        avg = FedAvg(clients, model_fn, local_epochs=3, lr=0.2,
                     client_fraction=1.0, seed=0).run(6, eval_data)
        sgd = FedSGD(clients, model_fn, lr=0.2,
                     client_fraction=1.0, seed=0).run(6, eval_data)
        assert avg.ledger.total_bytes == sgd.ledger.total_bytes
        assert avg.final_accuracy() > sgd.final_accuracy()

    def test_target_accuracy_stops_early(self, digit_clients):
        clients, eval_data = digit_clients
        trainer = FedAvg(clients, model_fn, local_epochs=3, lr=0.2,
                         client_fraction=1.0, seed=0)
        history = trainer.run(50, eval_data, target_accuracy=0.4)
        assert history.records[-1].round_index < 50
        assert history.rounds_to_accuracy(0.4) is not None

    def test_client_fraction_limits_participants(self, digit_clients):
        clients, eval_data = digit_clients
        trainer = FedAvg(clients, model_fn, local_epochs=1,
                         client_fraction=0.34, seed=0)
        history = trainer.run(2, eval_data)
        assert history.records[-1].participants == 2

    def test_history_helpers(self):
        from repro.federated import FederatedHistory, RoundRecord

        history = FederatedHistory()
        history.records = [
            RoundRecord(1, 0.3, 2, 0.5), RoundRecord(2, 0.7, 2, 1.0),
        ]
        assert history.rounds_to_accuracy(0.6) == 2
        assert history.megabytes_to_accuracy(0.6) == 1.0
        assert history.rounds_to_accuracy(0.99) is None

    def test_validation(self, digit_clients):
        clients, _ = digit_clients
        with pytest.raises(ValueError):
            FedAvg([], model_fn)
        with pytest.raises(ValueError):
            FedAvg(clients, model_fn, client_fraction=0.0)
        with pytest.raises(ValueError):
            FedAvg(clients, model_fn, local_epochs=0)


@pytest.mark.parametrize("kind", ["dpfedavg", "selective"])
def test_eval_every_below_one_is_refused_before_any_round(kind):
    """No round trains, and DP-FedAvg spends no privacy budget, before
    the refusal."""
    x, y = make_digits(200, seed=5)
    shards = [ArrayDataset(x[p], y[p])
              for p in np.array_split(np.arange(len(y)), 4)]
    if kind == "dpfedavg":
        loop = DPFedAvg(
            [FederatedClient(i, shard, model_fn, seed=i)
             for i, shard in enumerate(shards)],
            model_fn, sample_prob=1.0, noise_multiplier=1.0, seed=0)

        def arrays():
            return [value.copy() for value in loop.server.state.values()]
    else:
        loop = DistributedSelectiveSGD(
            [SelectiveSGDParticipant(i, shard, model_fn, seed=i)
             for i, shard in enumerate(shards)],
            model_fn, seed=0)

        def arrays():
            return [value for p in loop.participants
                    for value in p.model.state_dict().values()]
    before = arrays()
    with pytest.raises(ValueError, match="eval_every"):
        loop.run(2, (x, y), eval_every=0)
    after = arrays()
    assert len(after) == len(before)
    for moved, held in zip(after, before):
        np.testing.assert_array_equal(moved, held)
    if kind == "dpfedavg":
        assert loop.accountant.steps == 0


class TestSelectiveSGD:
    @pytest.fixture
    def participants(self):
        x, y = make_digits(300, seed=3)
        parts = shard_partition(y, 3, shards_per_client=4,
                                rng=np.random.default_rng(0))
        return [
            SelectiveSGDParticipant(i, ArrayDataset(x[p], y[p]), model_fn,
                                    lr=0.2, seed=i)
            for i, p in enumerate(parts)
        ]

    def test_upload_selects_largest_magnitude(self, participants):
        delta = np.array([0.1, -5.0, 0.2, 3.0, -0.05])
        indices, values = participants[0].select_upload(delta, 0.4)
        assert set(indices) == {1, 3}
        assert set(np.abs(values)) == {5.0, 3.0}

    def test_download_respects_fraction(self):
        server_model = model_fn()
        from repro.federated.selective import SelectiveSSGDServer

        server = SelectiveSSGDServer(model_fn)
        rng = np.random.default_rng(0)
        indices, values = server.download(0.1, rng)
        expected = int(round(0.1 * server.flat.size))
        assert len(indices) == expected
        assert np.allclose(values, server.flat[indices])

    def test_refresh_overwrites_parameters(self, participants):
        participant = participants[0]
        indices = np.array([0, 1, 2])
        participant.refresh(indices, np.array([9.0, 8.0, 7.0]))
        from repro.federated.selective import _flatten_params

        flat = _flatten_params(participant.model)
        assert np.allclose(flat[:3], [9.0, 8.0, 7.0])

    def test_protocol_improves_over_rounds(self, participants):
        eval_data = make_digits(150, seed=4)
        driver = DistributedSelectiveSGD(
            participants, model_fn, upload_fraction=0.5,
            download_fraction=0.5, seed=0,
        )
        history = driver.run(8, eval_data)
        assert history.records[-1].accuracy > history.records[0].accuracy
        assert history.records[-1].accuracy > 0.25

    def test_sparse_communication_cheaper_than_dense(self, participants):
        eval_data = make_digits(100, seed=4)
        sparse = DistributedSelectiveSGD(
            participants, model_fn, upload_fraction=0.05,
            download_fraction=0.05, seed=0,
        )
        history = sparse.run(1, eval_data)
        dense_round = state_bytes(model_fn().state_dict()) * len(participants)
        assert history.ledger.uplink_bytes < dense_round

    def test_fraction_validation(self, participants):
        with pytest.raises(ValueError):
            DistributedSelectiveSGD(participants, model_fn, upload_fraction=0.0)
