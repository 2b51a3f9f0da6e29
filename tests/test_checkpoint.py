"""The snapshot container behind both checkpoint formats.

FedAvg round checkpoints (``fedavg-checkpoint-v2``) and fleet snapshots
(``fleet-checkpoint-v4``) share one stored ZIP container.  The
invariants:

* a damaged file (truncated anywhere, or any single bit flipped) either
  raises :class:`CheckpointError` or restores exactly the saved state;
* a snapshot that does not fit the loop or fleet it is loaded into, or
  whose ``meta.json`` lacks a field or holds a malformed one, is
  rejected before anything is overwritten, and a file of an older
  version of either format is refused with an error naming both
  versions;
* a failed save leaves the previous checkpoint loadable and no temp
  file behind;
* every member is stored, not deflated, and FedAvg's metadata is UTF-8
  JSON carrying its format tag;
* a fleet snapshot holds the fleet's build key and its ``battery``
  column, nothing more.
"""

import io
import json
import os
import zipfile

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import nn
from repro.data import ArrayDataset
from repro.faults import FaultInjector, FaultSpec
from repro.federated import (
    CheckpointError,
    FedAvg,
    FederatedClient,
    FederatedHistory,
    RobustnessPolicy,
    load_checkpoint,
    save_checkpoint,
)
from repro.federated.fleet import (
    EdgeTopology,
    FleetSimulator,
    FleetState,
    load_fleet_checkpoint,
    save_fleet_checkpoint,
)
from repro.synth import iid_partition, make_digits

FAULTS = FaultSpec(dropout_rate=0.2, straggler_rate=0.3, straggler_scale=3.0,
                   upload_loss_rate=0.1, corruption_rate=0.05, stale_rate=0.2,
                   max_injected_staleness=2)


# ----------------------------------------------------------------------
# The two loops and what "the saved state" means for each
# ----------------------------------------------------------------------
def mlp(hidden):
    def model_fn():
        rng = np.random.default_rng(42)
        return nn.Sequential(nn.Linear(64, hidden, rng=rng), nn.Tanh(),
                             nn.Linear(hidden, 10, rng=rng))
    return model_fn


def fedavg_loop(hidden=8):
    features, labels = make_digits(90, seed=1)
    parts = iid_partition(len(labels), 3, rng=np.random.default_rng(0))
    clients = [FederatedClient(i, ArrayDataset(features[p], labels[p]),
                               mlp(hidden), seed=i)
               for i, p in enumerate(parts)]
    return FedAvg(clients, mlp(hidden), local_epochs=1, lr=0.3, seed=3,
                  injector=FaultInjector(FAULTS, seed=5),
                  policy=RobustnessPolicy(min_quorum=1, max_retries=1,
                                          max_staleness=1, timeout_s=200.0))


def arrays_of(state):
    return {name: (value.dtype.str, value.shape, value.tobytes())
            for name, value in state.items()}


def fedavg_state(loop, history):
    """Everything a FedAvg checkpoint restores, in comparable form."""
    return {
        "server": arrays_of(loop.server.state),
        "version": loop.server.version,
        "clients": [client.rng_state() for client in loop.clients],
        "clock": loop.clock.now,
        "history": [(version, arrays_of(state))
                    for version, state in loop._state_history],
        "ledger": history.ledger.to_dict(),
        "records": list(history.records),
    }


def fleet_sim(num_clients=1000):
    # Float columns of 8 KB outgrow zipfile's 4 KiB read-ahead, so a
    # damaged .npy header is parsed before the member's CRC-32 is checked.
    return FleetSimulator(
        FleetState.build(num_clients, seed=5, num_edges=4),
        injector=FaultInjector(FAULTS, seed=2),
        policy=RobustnessPolicy(max_retries=1),
        topology=EdgeTopology(num_edges=4, edge_quorum=1),
        client_fraction=0.2, seed=4)


def fleet_state(sim):
    """Everything a fleet snapshot restores, in comparable form."""
    return {"columns": arrays_of(sim.state.columns()),
            "round": sim.round_index, "clock": sim.clock.now,
            "ledger": sim.ledger.to_dict(),
            "history": json.loads(json.dumps(sim.history))}


class FedAvgFormat:
    """Save, restore and compare through the FedAvg checkpoint."""

    def save(self, path):
        loop = fedavg_loop()
        history = loop.run(2, make_digits(30, seed=2), checkpoint_path=path)
        return fedavg_state(loop, history)

    def fresh(self):
        return fedavg_loop(), FederatedHistory()

    def load(self, path, target):
        load_checkpoint(path, *target)

    def state(self, target):
        return fedavg_state(*target)


class FleetFormat:
    """Save, restore and compare through the fleet snapshot."""

    def save(self, path):
        sim = fleet_sim()
        sim.run(2, checkpoint_path=path)
        return fleet_state(sim)

    def fresh(self):
        return fleet_sim()

    def load(self, path, target):
        load_fleet_checkpoint(path, target)

    def state(self, target):
        return fleet_state(target)


FORMATS = {"fedavg": FedAvgFormat(), "fleet": FleetFormat()}


@pytest.fixture(scope="module")
def saved(tmp_path_factory):
    """Per format: the saved file's bytes and the state it holds."""
    root = tmp_path_factory.mktemp("saved")
    snapshots = {}
    for kind, fmt in FORMATS.items():
        path = str(root / "{}.ckpt".format(kind))
        state = fmt.save(path)
        with open(path, "rb") as handle:
            snapshots[kind] = (handle.read(), state)
    return snapshots


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("workdir")


def write(path, blob):
    with open(path, "wb") as handle:
        handle.write(blob)
    return str(path)


def rebuild(blob, drop=(), replace=None):
    """The snapshot ``blob`` with members dropped, replaced or added."""
    with zipfile.ZipFile(io.BytesIO(blob)) as src:
        members = {name: src.read(name) for name in src.namelist()
                   if name not in drop}
    members.update(replace or {})
    out = io.BytesIO()
    with zipfile.ZipFile(out, "w", zipfile.ZIP_STORED) as dst:
        for name, content in members.items():
            dst.writestr(name, content)
    return out.getvalue()


def npy_bytes(array):
    out = io.BytesIO()
    np.save(out, array)
    return out.getvalue()


def raw_npy(header):
    """An ``.npy`` member holding nothing but the given header text."""
    header = header.encode("latin1") + b"\n"
    return b"\x93NUMPY\x01\x00" + len(header).to_bytes(2, "little") + header


# ----------------------------------------------------------------------
# Damage: truncation and single-bit flips
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(FORMATS))
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_damaged_file_raises_or_restores_exactly(saved, workdir, kind, data):
    blob, expected = saved[kind]
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        damaged = blob[:offset]
    else:
        bit = data.draw(st.integers(0, 7), label="bit")
        damaged = bytearray(blob)
        damaged[offset] ^= 1 << bit
    path = write(workdir / "damaged-{}.ckpt".format(kind), bytes(damaged))
    fmt = FORMATS[kind]
    target = fmt.fresh()
    before = fmt.state(target)
    try:
        fmt.load(path, target)
    except CheckpointError as error:
        assert path in str(error)
        if kind == "fedavg":  # FedAvg stages every array before adopting
            assert fmt.state(target) == before
    else:
        assert fmt.state(target) == expected


# ----------------------------------------------------------------------
# Typed errors for files that are not snapshots of the right kind
# ----------------------------------------------------------------------
@pytest.mark.parametrize("kind", sorted(FORMATS))
def test_typed_errors_name_the_path_and_member(saved, workdir, kind):
    blob, _ = saved[kind]
    fmt = FORMATS[kind]
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        meta = json.loads(archive.read("meta.json"))
        member = archive.namelist()[1]  # the first array after meta.json
        good = np.load(io.BytesIO(archive.read(member)))
    untagged = dict(meta)
    del untagged["format"]
    other = "fleet-checkpoint-v4" if kind == "fedavg" else "fedavg-checkpoint-v2"
    cases = {
        "missing": (None, None),
        "empty": (b"", None),
        "absent format": (rebuild(blob, replace={
            "meta.json": json.dumps(untagged)}), "meta.json"),
        "wrong format": (rebuild(blob, replace={
            "meta.json": json.dumps(dict(meta, format=other))}), "meta.json"),
        "missing member": (rebuild(blob, drop=(member,)), member),
        "unbalanced header": (rebuild(blob, replace={
            member: raw_npy("{'descr': <f8")}), member),
        "unhashable header": (rebuild(blob, replace={
            member: raw_npy("{[1]: 2}")}), member),
        "wrong shape": (rebuild(blob, replace={
            member: npy_bytes(good[:-1])}), member),
        "short data": (rebuild(blob, replace={
            member: npy_bytes(good)[:-8]}), member),
        "trailing data": (rebuild(blob, replace={
            member: npy_bytes(good) + b"\0" * 8}), member),
    }
    if kind == "fleet":  # FedAvg adopts the saved dtype; only shapes must fit
        cases["wrong dtype"] = (rebuild(blob, replace={
            member: npy_bytes(good.astype(np.float32))}), member)
    for case, (content, named) in cases.items():
        path = str(workdir / "{}-{}.ckpt".format(kind, case.replace(" ", "_")))
        if content is not None:
            write(path, content)
        with pytest.raises(CheckpointError) as caught:
            fmt.load(path, fmt.fresh())
        assert path in str(caught.value), case
        if named is not None:
            assert named in str(caught.value), case


def test_legacy_fedavg_file_names_both_formats(workdir):
    # The layout of the deflated .npz the v1 format wrote.
    loop = fedavg_loop()
    path = str(workdir / "legacy.npz")
    with open(path, "wb") as handle:
        np.savez_compressed(handle, __checkpoint_meta__=np.array("{}"),
                            **{"state/" + name: value for name, value
                               in loop.server.state.items()})
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path, loop, FederatedHistory())
    message = str(caught.value)
    assert "fedavg-checkpoint-v1" in message
    assert "fedavg-checkpoint-v2" in message


# The columns fleet-checkpoint-v2 stored after ``edge``, at its widths.
V2_COUNTERS = (("num_samples", "i4"), ("staleness", "i4"),
               ("bytes_up", "i8"), ("bytes_down", "i8"),
               ("bytes_wasted", "i8"), ("rounds_selected", "i4"),
               ("rounds_completed", "i4"))


def test_fleet_v1_snapshot_names_both_formats(saved, workdir):
    # What the older formats wrote: v3 stored every column as
    # ``col_<name>.npy`` under a ``columns`` manifest, v2 seven counter
    # columns after ``edge`` too, and v1 every integer column as int64.
    blob, _ = saved["fleet"]
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        meta = json.loads(archive.read("meta.json"))
        battery = np.load(io.BytesIO(archive.read("battery.npy")))
    del meta["seed"]
    columns = dict(fleet_sim().state.columns(), battery=battery)
    v3_columns = list(columns)
    columns.update((name, np.zeros(battery.shape, dtype))
                   for name, dtype in V2_COUNTERS)
    sim = fleet_sim()
    sim.run(1)
    before = fleet_state(sim)
    for version in (1, 2, 3):
        tag = "fleet-checkpoint-v{}".format(version)
        names = v3_columns if version == 3 else list(columns)
        members = {"col_{}.npy".format(name): npy_bytes(
            columns[name].astype(np.int64)
            if version == 1 and columns[name].dtype.kind in "iu"
            else columns[name]) for name in names}
        members["meta.json"] = json.dumps(dict(meta, format=tag,
                                               columns=names))
        path = write(workdir / "fleet-v{}.ckpt".format(version),
                     rebuild(blob, drop=("battery.npy",), replace=members))
        with pytest.raises(CheckpointError) as caught:
            load_fleet_checkpoint(path, sim)
        message = str(caught.value)
        assert tag in message
        assert "fleet-checkpoint-v4" in message
    assert fleet_state(sim) == before


# ----------------------------------------------------------------------
# Validate before mutating
# ----------------------------------------------------------------------
def test_fedavg_rejects_a_wider_model_before_touching_the_loop(tmp_path):
    path = str(tmp_path / "wide.ckpt")
    wide = fedavg_loop(hidden=16)
    wide.run(2, make_digits(30, seed=2), checkpoint_path=path)
    narrow = fedavg_loop(hidden=8)
    history = narrow.run(1, make_digits(30, seed=2))
    before = fedavg_state(narrow, history)
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path, narrow, history)
    assert "state/layer0.weight.npy" in str(caught.value)
    assert fedavg_state(narrow, history) == before


def test_fedavg_rejects_a_model_with_extra_parameters(saved, workdir):
    blob, _ = saved["fedavg"]
    path = write(workdir / "extra.ckpt", rebuild(blob, replace={
        "state/layer4.weight.npy": npy_bytes(np.zeros((2, 2)))}))
    loop, history = fedavg_loop(), FederatedHistory()
    before = fedavg_state(loop, history)
    with pytest.raises(CheckpointError) as caught:
        load_checkpoint(path, loop, history)
    assert "state/layer4.weight.npy" in str(caught.value)
    assert fedavg_state(loop, history) == before


def test_fleet_rejects_a_missing_column_before_overwriting_any(saved,
                                                               workdir):
    blob, _ = saved["fleet"]
    # The column's member is gone; meta.json is intact.
    path = write(workdir / "old.ckpt",
                 rebuild(blob, drop=("battery.npy",)))
    sim = fleet_sim()
    sim.run(1)
    before = fleet_state(sim)
    with pytest.raises(CheckpointError) as caught:
        load_fleet_checkpoint(path, sim)
    assert "battery.npy" in str(caught.value)
    assert fleet_state(sim) == before


# meta.json fields each loader must refuse: (format, field, what becomes
# of its value; None deletes the field).  The container checks the tag
# and the CRC-32s, so each of these files is intact; only the field is
# wrong.
BAD_FIELDS = {
    "fleet-no-round_index": ("fleet", "round_index", None),
    "fleet-clock_now-str": ("fleet", "clock_now", lambda now: "soon"),
    "fleet-no-num_clients": ("fleet", "num_clients", None),
    "fleet-no-seed": ("fleet", "seed", None),
    "fleet-no-ledger": ("fleet", "ledger", None),
    "fleet-ledger-round-str": ("fleet", "ledger",
                               lambda ledger: dict(ledger, rounds=[["x"]])),
    "fleet-history-int": ("fleet", "history", lambda history: 5),
    "fleet-history-record-int": ("fleet", "history",
                                 lambda history: history + [7]),
    "fleet-history-record-no-round": (
        "fleet", "history",
        lambda history: [{key: value for key, value in history[0].items()
                          if key != "round"}] + history[1:]),
    "fedavg-no-round_index": ("fedavg", "round_index", None),
    "fedavg-no-server_version": ("fedavg", "server_version", None),
    "fedavg-no-client_rngs": ("fedavg", "client_rngs", None),
    "fedavg-client_rng-stateless": (
        "fedavg", "client_rngs",
        lambda rngs: dict(rngs, **{"0": {"bit_generator": "PCG64"}})),
    "fedavg-no-ledger": ("fedavg", "ledger", None),
    "fedavg-record-partial": ("fedavg", "records",
                              lambda records: [{"round_index": 1}]),
    "fedavg-record-accuracy-str": (
        "fedavg", "records",
        lambda records: [dict(records[0], accuracy="high")] + records[1:]),
    "fedavg-clock_now-str": ("fedavg", "clock_now", lambda now: "soon"),
    "fedavg-history_versions-str": (
        "fedavg", "history_versions",
        lambda versions: ["x"] * len(versions)),
}


@pytest.mark.parametrize("kind, key, damage", list(BAD_FIELDS.values()),
                         ids=list(BAD_FIELDS))
def test_a_bad_meta_field_is_refused_before_anything_is_written(
        saved, tmp_path, kind, key, damage):
    blob, _ = saved[kind]
    with zipfile.ZipFile(io.BytesIO(blob)) as archive:
        meta = json.loads(archive.read("meta.json"))
    value = meta.pop(key)
    if damage is not None:
        meta[key] = damage(value)
    path = write(tmp_path / "bad.ckpt", rebuild(blob, replace={
        "meta.json": json.dumps(meta)}))
    fmt = FORMATS[kind]
    target = fmt.fresh()
    before = fmt.state(target)
    with pytest.raises(CheckpointError) as caught:
        fmt.load(path, target)
    assert path in str(caught.value)
    assert "meta.json" in str(caught.value)
    assert fmt.state(target) == before


# ----------------------------------------------------------------------
# Failed saves and the stored layout
# ----------------------------------------------------------------------
def test_failed_save_keeps_the_previous_checkpoint(tmp_path, monkeypatch):
    fedavg_path = str(tmp_path / "round.ckpt")
    loop = fedavg_loop()
    history = loop.run(1, make_digits(30, seed=2), checkpoint_path=fedavg_path)
    first_round = fedavg_state(loop, history)
    fleet_path = str(tmp_path / "fleet.ckpt")
    sim = fleet_sim()
    sim.run(1, checkpoint_path=fleet_path)
    first_fleet = fleet_state(sim)
    sim.run(2)

    def refuse(src, dst):
        raise OSError("disk full")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError):
        save_checkpoint(fedavg_path, loop, history, 2)
    with pytest.raises(OSError):
        save_fleet_checkpoint(fleet_path, sim)
    monkeypatch.undo()

    assert sorted(os.listdir(tmp_path)) == ["fleet.ckpt", "round.ckpt"]
    restored, restored_history = fedavg_loop(), FederatedHistory()
    load_checkpoint(fedavg_path, restored, restored_history)
    assert fedavg_state(restored, restored_history) == first_round
    fresh = fleet_sim()
    load_fleet_checkpoint(fleet_path, fresh)
    assert fleet_state(fresh) == first_fleet


def test_members_are_stored_and_fedavg_meta_is_tagged_json(saved):
    for kind, (blob, expected) in saved.items():
        with zipfile.ZipFile(io.BytesIO(blob)) as archive:
            infos = archive.infolist()
            assert {info.compress_type for info in infos} \
                == {zipfile.ZIP_STORED}, kind
            meta = json.loads(archive.read("meta.json").decode("utf-8"))
            names = {info.filename for info in infos}
        if kind == "fedavg":
            assert meta["format"] == "fedavg-checkpoint-v2"
            assert {"state/" + name + ".npy" for name in expected["server"]} \
                <= names
            assert "hist0/layer0.weight.npy" in names
            server = np.load(io.BytesIO(blob))
            dtype, shape, raw = expected["server"]["layer0.weight"]
            assert server["state/layer0.weight"].tobytes() == raw
        else:
            assert meta["format"] == "fleet-checkpoint-v4"
            assert names == {"meta.json", "battery.npy"}
            assert (meta["seed"], meta["num_clients"], meta["num_edges"]) \
                == (5, 1000, 4)
