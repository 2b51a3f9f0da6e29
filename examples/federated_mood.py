#!/usr/bin/env python
"""Federated training over a simulated phone fleet (paper Sec. II).

Each simulated participant keeps their typing data on their own device.
A shared mood model is trained with FedAvg under Google's eligibility
policy (only idle, charging, on-WiFi devices participate), then re-run
with user-level differential privacy (DP-FedAvg) to show the accuracy /
epsilon trade-off.  The FedAvg-vs-FedSGD communication comparison (the
10-100x claim) lives in benchmarks/test_fed_communication.py, where the
non-IID image workload matches the original paper's setup.

Run:  python examples/federated_mood.py
"""

import numpy as np

from repro import nn
from repro.core.features import sessions_to_flat
from repro.data import ArrayDataset, StandardScaler
from repro.federated import FedAvg, FederatedClient
from repro.federated.fleet import FleetState, sample_clients
from repro.privacy import DPFedAvg
from repro.synth import TypingDynamicsGenerator


def model_fn():
    rng = np.random.default_rng(42)
    return nn.Sequential(
        nn.Linear(26, 32, rng=rng), nn.ReLU(), nn.Linear(32, 2, rng=rng)
    )


def main():
    # Every participant's sessions stay on their own phone.
    generator = TypingDynamicsGenerator(seed=3)
    cohort = generator.generate_cohort(num_users=20, sessions_per_user=80)

    scaler = StandardScaler()
    all_x, _ = sessions_to_flat(cohort.all_sessions(), label="mood")
    scaler.fit(all_x)

    clients = []
    eval_x, eval_y = [], []
    for uid in cohort.user_ids():
        sessions = cohort.sessions[uid]
        features, labels = sessions_to_flat(sessions, label="mood")
        features = scaler.transform(features)
        cut = int(len(sessions) * 0.8)
        clients.append(FederatedClient(
            uid, ArrayDataset(features[:cut], labels[:cut]), model_fn, seed=uid
        ))
        eval_x.append(features[cut:])
        eval_y.append(labels[cut:])
    eval_data = (np.concatenate(eval_x), np.concatenate(eval_y))

    # FedAvg's round r samples at hour r: the sampler draws each round's
    # device conditions from (seed, round), so this curve is what those
    # rounds see.
    devices = FleetState.build(len(clients), seed=0)
    hours = np.arange(2, 25, 2)
    availability = [
        sample_clients(devices, hour, 1.0, seed=0, min_battery=0.0,
                       hour=hour).size / len(clients)
        for hour in hours]
    print("== fleet eligibility over a day (idle & charging & WiFi) ==")
    print("  ".join("{:02d}h:{:.0%}".format(h % 24, a)
                    for h, a in zip(hours, availability)))

    print()
    print("== FedAvg over the eligible fleet (round r at hour r) ==")
    fedavg = FedAvg(clients, model_fn, local_epochs=4, lr=0.1,
                    client_fraction=0.5, hours_per_round=1.0, seed=0)
    history_avg = fedavg.run(20, eval_data)
    print("FedAvg : acc={:.3f} after {:.2f} MB".format(
        history_avg.final_accuracy(), history_avg.ledger.total_megabytes()))
    print("participants per round:",
          [record.participants for record in history_avg.records])

    print()
    print("== user-level DP-FedAvg (Sec. II-C) ==")
    for noise in (0.5, 1.0):
        dp = DPFedAvg(clients, model_fn, sample_prob=0.5, clip_norm=1.0,
                      noise_multiplier=noise, local_epochs=4, lr=0.1, seed=0)
        history = dp.run(15, eval_data, delta=1e-3)
        print("z={:.1f}: acc={:.3f}  epsilon={:.2f} (delta=1e-3)".format(
            noise, history.final_accuracy(), dp.epsilon_spent(delta=1e-3)))


if __name__ == "__main__":
    main()
