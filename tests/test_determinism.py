"""Determinism auditor: lint rules, stream proofs, replay bisection, CLI.

Covers the three layers of ``python -m repro.analysis.determinism``:

* the four det-* lint rules fire on fixtures, respect waivers, and are
  scoped to library paths only;
* keyed-RNG derivation properties (hypothesis): distinct keys never
  share a stream, identical keys always do, across the FaultInjector
  oracle tuples and ``repro.rng`` namespaced derivations;
* the stream-collision checker proves the live registry disjoint and
  detects a deliberately colliding synthetic registry;
* ``first_divergence`` bisects hand-built logs (including length
  mismatches) and the CLI exits 0 clean / 1 on violations or detected
  mutants / 2 when an injected mutant slips through.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.determinism import audit as det_audit
from repro.analysis.determinism import replay, rules, streams
from repro.analysis.determinism.provenance import collect_file
from repro.analysis.lint import lint_file
from repro.faults import FaultInjector
from repro.rng import ID_BOUND, NAMESPACES, derive_key, derive_rng, require_rng

# ----------------------------------------------------------------------
# det-* lint rules: fixtures, waivers, scope
# ----------------------------------------------------------------------
DET_FIXTURES = {
    "det-unseeded-rng": (
        "import numpy as np\n"
        "rng = np.random.default_rng()\n"
    ),
    "det-shared-stream": (
        "import numpy as np\n"
        "def build(n):\n"
        "    rng = np.random.default_rng(0)\n"
        "    units = []\n"
        "    for i in range(n):\n"
        "        units.append(Worker(i, rng))\n"
        "    return units\n"
    ),
    "det-wall-clock": (
        "import time\n"
        "from repro.faults import SimulatedClock\n"
        "def stamp():\n"
        "    return time.monotonic()\n"
    ),
    "det-unordered-iter": (
        "def total(values):\n"
        "    seen = set(values)\n"
        "    acc = 0.0\n"
        "    for v in seen:\n"
        "        acc += v\n"
        "    return acc\n"
    ),
}


def _library_fixture(tmp_path, name, text):
    """det rules only run on library paths: fixtures live under repro/."""
    package = tmp_path / "repro" / "fixture"
    package.mkdir(parents=True, exist_ok=True)
    path = package / "{}.py".format(name.replace("-", "_"))
    path.write_text(text)
    return path


@pytest.mark.parametrize("rule", sorted(DET_FIXTURES))
def test_each_det_rule_fires_on_its_fixture(tmp_path, rule):
    path = _library_fixture(tmp_path, rule, DET_FIXTURES[rule])
    violations = lint_file(path)
    assert violations, rule
    assert {v.rule for v in violations} == {rule}


@pytest.mark.parametrize("rule", sorted(DET_FIXTURES))
def test_det_rules_scoped_to_library_paths(tmp_path, rule):
    # The same source outside a repro/ tree is not det-linted (tests and
    # scripts are allowed wall clocks and throwaway sets).
    path = tmp_path / "scratch.py"
    path.write_text(DET_FIXTURES[rule])
    assert not any(v.rule.startswith("det-") for v in lint_file(path))


def test_det_waiver_suppresses(tmp_path):
    path = _library_fixture(
        tmp_path, "waived",
        "import numpy as np\n"
        "rng = np.random.default_rng()"
        "  # repro-lint: allow[det-unseeded-rng] fixture\n")
    assert lint_file(path) == []


def test_shared_stream_allows_plain_functions_and_per_unit_keys(tmp_path):
    # The two sanctioned shapes: consuming the generator through plain
    # function calls in a loop, and deriving a per-unit key inside it.
    path = _library_fixture(
        tmp_path, "clean_loop",
        "import numpy as np\n"
        "from repro.rng import derive_rng\n"
        "def build(n, seed):\n"
        "    rng = np.random.default_rng(seed)\n"
        "    units = []\n"
        "    for i in range(n):\n"
        "        mutate(i, rng)\n"
        "        units.append(Worker(i, derive_rng(seed, 'fed-client', i)))\n"
        "    return units\n")
    assert not any(v.rule == "det-shared-stream" for v in lint_file(path))


def test_unordered_iter_allows_sorted_and_order_free(tmp_path):
    path = _library_fixture(
        tmp_path, "sorted_iter",
        "def total(values):\n"
        "    seen = set(values)\n"
        "    acc = 0.0\n"
        "    for v in sorted(seen):\n"
        "        acc += v\n"
        "    return acc, len(seen), max(seen)\n")
    assert not any(v.rule == "det-unordered-iter" for v in lint_file(path))


def test_unordered_iter_parameter_shadows_outer_set(tmp_path):
    # A parameter named like a module-level set is a fresh binding; the
    # function body must not inherit the set-valued classification.
    path = _library_fixture(
        tmp_path, "shadowed",
        "classes = {1, 2, 3}\n"
        "def count(classes):\n"
        "    return [c for c in classes]\n")
    assert not any(v.rule == "det-unordered-iter" for v in lint_file(path))


def test_library_and_tests_are_det_clean():
    # The repo's own gate: the static layer finds nothing to flag.
    found, _census = det_audit._static_violations()
    assert found == [], [str(v) for v in found]


def test_rules_tuple_matches_registered_names():
    assert set(rules.DET_RULES) == {
        "det-unseeded-rng", "det-shared-stream", "det-wall-clock",
        "det-unordered-iter"}


# ----------------------------------------------------------------------
# Provenance pass
# ----------------------------------------------------------------------
def test_provenance_classifies_origins(tmp_path):
    path = tmp_path / "repro" / "origins.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "import numpy as np\n"
        "from repro.rng import derive_key, derive_rng\n"
        "a = np.random.default_rng((seed, 3, idx))\n"
        "b = derive_rng(seed, 'fed-client', 0)\n"
        "c = np.random.default_rng(derive_key(seed, 'dpsgd'))\n"
        "d = np.random.default_rng(7)\n"
        "e = np.random.default_rng()\n"
        "root = np.random.SeedSequence(seed)\n")
    sites = collect_file(path)
    origins = {site.origin for site in sites}
    assert origins == {"keyed", "derived", "scalar", "unseeded",
                       "scalar-spawn-root"}
    keyed = [s for s in sites if s.origin == "keyed"]
    assert keyed[0].arity == 3
    derived = [s for s in sites if s.origin == "derived"]
    assert {s.namespace for s in derived} == {"fed-client", "dpsgd"}


def test_provenance_key_helper_requires_seed(tmp_path):
    # *_key helpers are keyed-derivation sites only when the first tuple
    # element carries a seed; bucketing keys must not register.
    path = tmp_path / "repro" / "helpers.py"
    path.parent.mkdir(parents=True)
    path.write_text(
        "class A:\n"
        "    def _user_key(self, uid):\n"
        "        return (self.seed, 1000 + uid)\n"
        "    def bucket_key(self, payload):\n"
        "        return (payload.shape[0], payload.dtype.str)\n")
    keyed = [s for s in collect_file(path) if s.origin == "keyed"]
    assert len(keyed) == 1
    assert "_user_key" in keyed[0].detail


# ----------------------------------------------------------------------
# Keyed-RNG derivation properties (hypothesis)
# ----------------------------------------------------------------------
_coord = st.integers(min_value=0, max_value=200)
_fault_key = st.tuples(
    st.sampled_from(["dropout", "straggler", "upload", "corrupt", "stale",
                     "corrupt_values"]),
    _coord, _coord, st.integers(min_value=0, max_value=3))


def _injector_rng(injector, key):
    tag, round_index, client_id, attempt = key
    return injector._rng(tag, round_index, client_id, attempt)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), key_a=_fault_key,
       key_b=_fault_key)
def test_fault_injector_distinct_keys_distinct_streams(seed, key_a, key_b):
    injector = FaultInjector(seed=seed)
    draws_a = _injector_rng(injector, key_a).random(4)
    draws_b = _injector_rng(injector, key_b).random(4)
    if key_a == key_b:
        assert np.array_equal(draws_a, draws_b)
    else:
        assert not np.array_equal(draws_a, draws_b)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31), key=_fault_key)
def test_fault_injector_same_key_same_stream(seed, key):
    # Two independently constructed injectors with one seed agree on
    # every oracle — the replay contract chaos tests rely on.
    first = _injector_rng(FaultInjector(seed=seed), key).random(8)
    second = _injector_rng(FaultInjector(seed=seed), key).random(8)
    assert np.array_equal(first, second)


_namespace = st.sampled_from(sorted(NAMESPACES))
_coords = st.lists(_coord, max_size=2)


def _pool_padded(key):
    # SeedSequence zero-pads entropy below its 4-word pool; two keys
    # alias one stream exactly when their padded forms match.
    return key + (0,) * (4 - len(key)) if len(key) < 4 else key


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       ns_a=_namespace, coords_a=_coords, ns_b=_namespace, coords_b=_coords)
def test_derive_rng_streams_collide_iff_padded_keys_equal(seed, ns_a,
                                                          coords_a, ns_b,
                                                          coords_b):
    key_a = derive_key(seed, ns_a, *coords_a)
    key_b = derive_key(seed, ns_b, *coords_b)
    draws_a = derive_rng(seed, ns_a, *coords_a).random(4)
    draws_b = derive_rng(seed, ns_b, *coords_b).random(4)
    assert np.array_equal(draws_a, draws_b) == \
        (_pool_padded(key_a) == _pool_padded(key_b))


def test_seed_sequence_pool_padding_aliases_short_keys():
    # The numpy fact the collision checker models: below the 4-word
    # pool, trailing zeros are absorbed; at or above it, they count.
    short = np.random.default_rng((7, 65539)).random(4)
    assert np.array_equal(short,
                          np.random.default_rng((7, 65539, 0)).random(4))
    assert np.array_equal(short,
                          np.random.default_rng((7, 65539, 0, 0)).random(4))
    full = np.random.default_rng((7, 65539, 0, 0)).random(4)
    extended = np.random.default_rng((7, 65539, 0, 0, 0)).random(4)
    assert not np.array_equal(full, extended)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**31),
       client=st.integers(min_value=0, max_value=ID_BOUND - 1))
def test_derived_never_collides_with_legacy_pairmask(seed, client):
    # A derived 3-tuple and the secure-agg pair-mask 3-tuple share arity,
    # but the namespace constant (>= 2**16) can never equal a bounded id.
    derived = derive_rng(seed, "fed-client", client).random(4)
    legacy = np.random.default_rng((seed, client, client)).random(4)
    assert not np.array_equal(derived, legacy)


def test_namespaces_respect_structural_floor():
    assert all(value >= 2 ** 16 for value in NAMESPACES.values())
    assert len(set(NAMESPACES.values())) == len(NAMESPACES)
    assert ID_BOUND <= 2 ** 16


def test_require_rng_refuses_silent_fallback():
    rng = np.random.default_rng(5)
    assert require_rng(rng, None, "test") is rng
    assert require_rng(None, 5, "test").random() == \
        np.random.default_rng(5).random()
    with pytest.raises(ValueError, match="explicit randomness source"):
        require_rng(None, None, "test")


def test_namespaced_spawn_roots_diverged():
    # The bug the spawn-root namespacing fixed: DP-SGD and DP-FedAvg both
    # spawn (sample, noise) children from one user seed and must not get
    # identical streams.
    for seed in (0, 13, 999):
        dpsgd = np.random.SeedSequence(derive_key(seed, "dpsgd")).spawn(2)
        dpfed = np.random.SeedSequence(derive_key(seed, "dpfedavg")).spawn(2)
        for child_a, child_b in zip(dpsgd, dpfed):
            assert not np.array_equal(
                np.random.default_rng(child_a).random(4),
                np.random.default_rng(child_b).random(4))


# ----------------------------------------------------------------------
# Stream-collision checker
# ----------------------------------------------------------------------
def test_live_registry_is_collision_free():
    assert streams.check_collisions() == []


def test_live_registry_matches_source():
    assert streams.verify_registry_against_source() == []


def test_checker_detects_synthetic_collision():
    colliding = (
        streams.StreamFamily("a", "x.py", [streams.seed(),
                                           streams.bounded(0, 16)]),
        streams.StreamFamily("b", "y.py", [streams.seed(),
                                           streams.bounded(8, 32)]),
    )
    problems = streams.check_collisions(colliding)
    assert len(problems) == 1
    # The witness names a concrete colliding key (overlap at 8), padded
    # to the SeedSequence pool.
    assert "(0, 8, 0, 0)" in problems[0]


def test_checker_accepts_disjoint_bounds_and_arity():
    disjoint = (
        streams.StreamFamily("a", "x.py", [streams.seed(),
                                           streams.bounded(0, 16)]),
        streams.StreamFamily("b", "y.py", [streams.seed(),
                                           streams.bounded(16, 32)]),
        streams.StreamFamily("c", "z.py", [streams.seed(),
                                           streams.tag([40, 41]),
                                           streams.coord("i")]),
    )
    assert streams.check_collisions(disjoint) == []


def test_checker_detects_cross_arity_padding_collision():
    # (seed, k) and (seed, k, 0) alias one stream via pool padding; a
    # checker that only compares equal arities would miss this pair.
    families = (
        streams.StreamFamily("short", "x.py", [streams.seed(),
                                               streams.bounded(0, 16)]),
        streams.StreamFamily("long", "y.py", [streams.seed(),
                                              streams.bounded(0, 16),
                                              streams.coord("i")]),
    )
    problems = streams.check_collisions(families)
    assert len(problems) == 1
    assert "zero-pad" in problems[0]


def test_checker_enforces_namespace_floor():
    low = (streams.StreamFamily("low", "x.py",
                                [streams.seed(), streams.const(100)],
                                namespace="low"),)
    problems = streams.check_collisions(low)
    assert any("below" in p for p in problems)


def test_registry_flags_unregistered_keyed_site(tmp_path):
    rogue = tmp_path / "repro" / "rogue.py"
    rogue.parent.mkdir(parents=True)
    rogue.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng((seed, tag, idx, extra, more, most))\n")
    problems = streams.verify_registry_against_source(tmp_path)
    assert any("matches no registered stream family" in p for p in problems)


def test_registry_flags_unnamespaced_spawn_root(tmp_path):
    rogue = tmp_path / "repro" / "spawner.py"
    rogue.parent.mkdir(parents=True)
    rogue.write_text(
        "import numpy as np\n"
        "a, b = np.random.SeedSequence(seed).spawn(2)\n")
    problems = streams.verify_registry_against_source(tmp_path)
    assert any("un-namespaced entropy" in p for p in problems)


# ----------------------------------------------------------------------
# Replay harness and bisection
# ----------------------------------------------------------------------
def _log_from(digest_values):
    log = replay.EventLog()
    for index, value in enumerate(digest_values):
        log.record("test", "event-{}".format(index), value)
    return log


def test_fingerprint_is_deterministic_and_order_sensitive():
    array = np.arange(6.0).reshape(2, 3)
    assert replay.fingerprint(array, 1.5, "x") == \
        replay.fingerprint(array.copy(), 1.5, "x")
    assert replay.fingerprint(1, 2) != replay.fingerprint(2, 1)
    # Dicts fingerprint by sorted key, so insertion order is erased.
    assert replay.fingerprint({"a": 1, "b": 2}) == \
        replay.fingerprint({"b": 2, "a": 1})


def test_first_divergence_none_on_identical_logs():
    values = list(range(20))
    assert replay.first_divergence(_log_from(values),
                                   _log_from(values)) is None


@pytest.mark.parametrize("diverge_at", [0, 1, 7, 18, 63])
def test_first_divergence_bisects_to_exact_index(diverge_at):
    base = list(range(64))
    mutated = list(base)
    mutated[diverge_at] += 1000
    report = replay.first_divergence(_log_from(base), _log_from(mutated))
    assert report is not None
    assert report.index == diverge_at
    assert report.event_a.digest != report.event_b.digest
    assert "event-{}".format(diverge_at) in report.describe()


def test_first_divergence_tail_divergence_after_common_prefix():
    base = list(range(10))
    report = replay.first_divergence(_log_from(base),
                                     _log_from(base + [99]))
    assert report.index == 10
    assert report.event_a is None
    assert "different event counts" in report.describe()


def test_divergence_report_carries_provenance():
    log_a, log_b = replay.EventLog(), replay.EventLog()
    log_a.record("fed", "agg", 1.0, provenance=("fed-client", "faults"))
    log_b.record("fed", "agg", 2.0, provenance=("fed-client", "faults"))
    report = replay.first_divergence(log_a, log_b)
    assert report.provenance == ("fed-client", "faults")
    assert "fed-client -> faults" in report.describe()


def test_perturbation_axes_differ_between_runs():
    import time as time_module

    real_clock = time_module.monotonic
    readings = {}
    for run in (0, 1):
        with replay.Perturbation(run).applied():
            readings[run] = (time_module.monotonic(),
                             np.random.random())  # repro-lint: allow[np-random] asserting the perturbed global stream differs per run
    assert readings[0] != readings[1]
    # Outside the context the real clock is restored.
    assert time_module.monotonic is real_clock


def test_perturbation_order_is_canonical_on_run0_only():
    items = ["a", "b", "c"]
    assert replay.Perturbation(0).order(items) == items
    assert replay.Perturbation(1).order(items) == items[::-1]


def test_dual_replay_certifies_invariant_scenario():
    def scenario(log, perturbation):
        for name in perturbation.order(["a", "b", "c"]):
            log.record("unit", name, name)

    logs, report = replay.dual_replay(scenario)
    # Scenario records in execution order on purpose: run 1 reverses, so
    # the harness must catch the order-dependence.
    assert report is not None and report.index == 0

    def canonical(log, perturbation):
        results = {name: len(name) for name
                   in perturbation.order(["a", "b", "c"])}
        for name in sorted(results):
            log.record("unit", name, results[name])

    logs, report = replay.dual_replay(canonical)
    assert report is None
    assert logs[0].final_digest == logs[1].final_digest


# ----------------------------------------------------------------------
# CLI and audit exit codes
# ----------------------------------------------------------------------
def test_cli_audit_clean_exits_zero(tmp_path, capsys):
    # static+streams layers over the live library; the dynamic layer is
    # exercised separately (scenario-level tests) to keep this fast.
    code = det_audit.main(["audit", "--skip", "dynamic",
                           "--json", str(tmp_path / "cert.json")])
    out = capsys.readouterr().out
    assert code == 0
    assert "determinism audit clean" in out
    cert = (tmp_path / "cert.json").read_text()
    assert "stream_families" in cert and "provenance" in cert


def test_cli_audit_violation_exits_one(tmp_path, capsys, monkeypatch):
    dirty = tmp_path / "repro" / "dirty.py"
    dirty.parent.mkdir(parents=True)
    dirty.write_text("import numpy as np\nrng = np.random.default_rng()\n")
    violations, _cert = det_audit.audit_all(
        root=tmp_path / "repro", skip=("streams", "dynamic"))
    assert [v.kind for v in violations] == ["det-unseeded-rng"]

    monkeypatch.setattr(det_audit, "_static_violations",
                        lambda root=None: (violations, {}))
    code = det_audit.main(["audit", "--skip", "streams",
                           "--skip", "dynamic"])
    assert code == 1
    assert "determinism violation" in capsys.readouterr().out


@pytest.mark.parametrize("mutant", sorted(det_audit.MUTANTS))
def test_cli_inject_detected_exits_one(mutant, capsys):
    code = det_audit.main(["audit", "--inject", mutant])
    out = capsys.readouterr().out
    assert code == 1
    assert "mutant detected" in out
    assert "divergent event" in out or "different event counts" in out


def test_cli_inject_missed_exits_two(capsys, monkeypatch):
    # If the bisector were blind the gate must fail loudly, not pass.
    monkeypatch.setattr(det_audit, "dual_replay",
                        lambda scenario: ([], None))
    code = det_audit.main(["audit", "--inject", "wall-clock"])
    assert code == 2
    assert "was not detected" in capsys.readouterr().out


def test_injected_divergence_rejects_unknown_mutant():
    with pytest.raises(ValueError, match="unknown mutant"):
        det_audit.injected_divergence("cosmic-rays")


def test_dynamic_layer_certifies_dpsgd_scenario():
    found, certified = det_audit._dynamic_violations(["dpsgd-run"])
    assert found == []
    assert certified["dpsgd-run"]["events"] > 0
    assert certified["dpsgd-run"]["final_digest"].startswith("0x")


# ----------------------------------------------------------------------
# S1 regression: plan-IR extraction iterates ref sets in sorted order
# ----------------------------------------------------------------------
def test_plan_extract_checksums_are_sorted_by_buffer():
    from repro.analysis.plans import extract

    source = Path(extract.__file__).read_text()
    assert "sorted(record.refs)" in source
    assert not any(v.rule == "det-unordered-iter"
                   for v in lint_file(Path(extract.__file__)))


# ----------------------------------------------------------------------
# Fleet simulator: forced det-wall-clock scope and stream families
# ----------------------------------------------------------------------
def test_wall_clock_forced_under_fleet_scope(tmp_path):
    # The fleet package lives on the simulated timeline, so a wall-time
    # read there is flagged even without a SimulatedClock mention or an
    # injectable ``clock`` argument.
    path = tmp_path / "repro" / "federated" / "fleet" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text("import time\ndef stamp():\n    return time.time()\n")
    assert {v.rule for v in lint_file(path)} == {"det-wall-clock"}


def test_wall_clock_not_forced_outside_fleet_scope(tmp_path):
    path = tmp_path / "repro" / "federated" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text("import time\ndef stamp():\n    return time.time()\n")
    assert not any(v.rule == "det-wall-clock" for v in lint_file(path))


def test_fleet_stream_families_registered():
    families = {family.name: family for family in streams.REGISTRY}
    for name, source in (("fleet-init", "repro/federated/fleet/state.py"),
                         ("fleet-sample",
                          "repro/federated/fleet/sampling.py")):
        assert name in NAMESPACES
        family = families[name]
        assert family.source == source
        assert (Path(__file__).resolve().parent.parent
                / "src" / source).exists()
    sample = families["fleet-sample"].components
    assert [c.kind for c in sample] == ["free", "const", "free"]
    assert sample[1].value == NAMESPACES["fleet-sample"]
    assert sample[2].name == "round_index"
