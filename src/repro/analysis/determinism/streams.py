"""Stream-collision checker: no two keyed RNG families can ever unify.

Every keyed stream in the library is ``default_rng(K)`` for some entropy
tuple ``K``.  Two subsystems collide exactly when they can produce the
*same* tuple — then, for some user seed, they draw from one PCG64 stream
while the experiment treats them as independent sources.

The registry below describes each family's tuple **symbolically**, one
component spec per position:

* ``const(v)`` — a fixed integer (namespace constants from
  :data:`repro.rng.NAMESPACES`);
* ``seed()`` — the user seed: can take any value;
* ``coord(name)`` — an unbounded coordinate (round index, client id in
  a derived family, attempt number): can take any value;
* ``bounded(lo, hi)`` — a coordinate the code *enforces* to lie in
  ``[lo, hi)`` (secure aggregation ids, typing-dynamics user keys);
* ``tag(values)`` — a coordinate drawn from a small fixed set (the
  fault-injector oracle tags).

One numpy subtlety the checker must model: ``SeedSequence`` assimilates
entropy into a **4-word pool**, and tuples shorter than 4 words are
zero-padded — ``default_rng((s, k))``, ``default_rng((s, k, 0))`` and
``default_rng((s, k, 0, 0))`` all draw the *same* stream.  Tuples longer
than 4 words cycle the pool instead, so there trailing zeros do matter.
:func:`check_collisions` therefore compares families after padding every
tuple of fewer than 4 components with ``const(0)``: two families collide
iff their *padded* tuples have the same arity and every position can
unify.  Spawned families (``SeedSequence(root).spawn``)
register their *root* tuple; spawn children carry a non-empty
``spawn_key`` and therefore can never equal any flat tuple, but the
checker still compares roots across all families — a flat key equal to
a spawn root would alias the root's own generator.

:func:`verify_registry_against_source` closes the loop the other way:
the static provenance pass (:mod:`.provenance`) re-derives every keyed
site from the AST and fails if the code contains a keyed derivation the
registry does not know about (or the registry lists a family the code
no longer contains).  The registry cannot silently rot.
"""

from __future__ import annotations

from pathlib import Path

from ...rng import ID_BOUND, NAMESPACES
from . import provenance

__all__ = ["Component", "StreamFamily", "REGISTRY", "const", "seed",
           "coord", "bounded", "tag", "check_collisions",
           "verify_registry_against_source"]


class Component:
    """One symbolic position of a family's entropy tuple."""

    __slots__ = ("kind", "value", "lo", "hi", "values", "name")

    def __init__(self, kind, value=None, lo=None, hi=None, values=None,
                 name=""):
        self.kind = kind
        self.value = value
        self.lo = lo
        self.hi = hi
        self.values = frozenset(values) if values is not None else None
        self.name = name

    def __repr__(self):
        if self.kind == "const":
            return "const({:#x})".format(self.value)
        if self.kind == "bounded":
            return "bounded[{},{})".format(self.lo, self.hi)
        if self.kind == "tag":
            return "tag{}".format(sorted(self.values))
        return "{}({})".format(self.kind, self.name)


def const(value):
    return Component("const", value=int(value))


def seed(name="seed"):
    return Component("free", name=name)


def coord(name):
    return Component("free", name=name)


def bounded(lo, hi, name=""):
    return Component("bounded", lo=int(lo), hi=int(hi), name=name)


def tag(values, name="tag"):
    return Component("tag", values=[int(v) for v in values], name=name)


def _witness(a, b):
    """An integer both components can take, or None if they cannot unify."""
    if a.kind == "free":
        return _any_value(b)
    if b.kind == "free":
        return _any_value(a)
    if a.kind == "const" and b.kind == "const":
        return a.value if a.value == b.value else None
    if a.kind == "const":
        return a.value if _contains(b, a.value) else None
    if b.kind == "const":
        return b.value if _contains(a, b.value) else None
    if a.kind == "bounded" and b.kind == "bounded":
        lo, hi = max(a.lo, b.lo), min(a.hi, b.hi)
        return lo if lo < hi else None
    if a.kind == "tag" and b.kind == "tag":
        common = a.values & b.values
        return min(common) if common else None
    if a.kind == "tag":
        for value in sorted(a.values):
            if _contains(b, value):
                return value
        return None
    if b.kind == "tag":
        return _witness(b, a)
    raise AssertionError("unhandled component pair")


def _contains(comp, value):
    if comp.kind == "free":
        return True
    if comp.kind == "const":
        return comp.value == value
    if comp.kind == "bounded":
        return comp.lo <= value < comp.hi
    if comp.kind == "tag":
        return value in comp.values
    return False


def _any_value(comp):
    if comp.kind == "const":
        return comp.value
    if comp.kind == "bounded":
        return comp.lo
    if comp.kind == "tag":
        return min(comp.values)
    return 0  # free


class StreamFamily:
    """One keyed-RNG family: who derives it and what its tuple looks like."""

    __slots__ = ("name", "source", "components", "spawned", "namespace")

    def __init__(self, name, source, components, spawned=False,
                 namespace=None):
        self.name = name
        self.source = source          # posix path fragment of the deriver
        self.components = tuple(components)
        self.spawned = spawned        # components describe the spawn root
        self.namespace = namespace    # repro.rng.NAMESPACES key, if derived

    @property
    def arity(self):
        return len(self.components)

    def __repr__(self):
        return "StreamFamily({!r}, arity={}, spawned={})".format(
            self.name, self.arity, self.spawned)


def _derived(name, source, *extra_coords):
    comps = [seed(), const(NAMESPACES[name])]
    comps.extend(coord(c) for c in extra_coords)
    return StreamFamily(name, source, comps, namespace=name)


def _spawn_root(name, source):
    return StreamFamily(name, source, [seed(), const(NAMESPACES[name])],
                        spawned=True, namespace=name)


REGISTRY = (
    # Legacy tuple families.  Their non-seed coordinates are enforced
    # small (tags < 16, ids < ID_BOUND = 2**14, typing keys < 4000),
    # so they can never unify with a namespace constant (>= 2**16).
    StreamFamily(
        "faults-oracle", "repro/faults/injector.py",
        [seed(), tag(range(1, 7)), coord("round"), coord("client"),
         coord("attempt")]),
    # The pair ids are strictly ordered (low < high over distinct
    # clients), so high >= 1 — which is what keeps the zero-padded
    # typing keys (seed, k, 0, 0) from aliasing a pair mask.
    StreamFamily(
        "secure-agg-pairmask", "repro/federated/secure_agg.py",
        [seed(), bounded(0, ID_BOUND - 1, "low_id"),
         bounded(1, ID_BOUND, "high_id")]),
    StreamFamily(
        "typing-profile", "repro/synth/typing_dynamics.py",
        [seed(), bounded(1000, 2000, "profile_key")]),
    StreamFamily(
        "typing-mood", "repro/synth/typing_dynamics.py",
        [seed(), bounded(2000, 3000, "mood_key")]),
    StreamFamily(
        "typing-session", "repro/synth/typing_dynamics.py",
        [seed(), bounded(3000, 4000, "session_key")]),
    # Families derived through repro.rng (namespace constant at
    # position 1 makes every cross-namespace pair trivially disjoint).
    _derived("fed-client", "repro/federated/client.py", "client_id"),
    _derived("selective-participant", "repro/federated/selective.py",
             "participant_id"),
    _derived("chaos-spec", "repro/faults/chaos.py"),
    _derived("serve-traffic", "repro/serve/traffic.py"),
    _derived("mobile-device", "repro/mobile/fleet.py", "device_id"),
    _derived("fleet-init", "repro/federated/fleet/state.py"),
    _derived("fleet-sample", "repro/federated/fleet/sampling.py",
             "round_index"),
    # Spawn roots: SeedSequence(derive_key(seed, ns)).spawn(...).
    _spawn_root("dpsgd", "repro/privacy/dpsgd.py"),
    _spawn_root("dpfedavg", "repro/privacy/dpfedavg.py"),
    _spawn_root("pate", "repro/privacy/pate.py"),
)


# SeedSequence's entropy pool: tuples shorter than this zero-pad up to
# it (so (s, k) == (s, k, 0) == (s, k, 0, 0)); longer tuples cycle the
# pool and trailing zeros become significant again.
_POOL_WORDS = 4


def _pool_padded(components):
    comps = list(components)
    while len(comps) < _POOL_WORDS:
        comps.append(const(0))
    return comps


def check_collisions(families=REGISTRY):
    """Messages describing every unifiable family pair (empty = proven)."""
    problems = []
    for i, fam_a in enumerate(families):
        for fam_b in families[i + 1:]:
            padded_a = _pool_padded(fam_a.components)
            padded_b = _pool_padded(fam_b.components)
            if len(padded_a) != len(padded_b):
                continue
            witness = []
            for comp_a, comp_b in zip(padded_a, padded_b):
                value = _witness(comp_a, comp_b)
                if value is None:
                    witness = None
                    break
                witness.append(value)
            if witness is not None:
                problems.append(
                    "families {!r} ({}) and {!r} ({}) can both derive the "
                    "entropy tuple {} (keys zero-pad to the 4-word "
                    "SeedSequence pool) — two subsystems would share one "
                    "PCG64 stream".format(
                        fam_a.name, fam_a.source, fam_b.name, fam_b.source,
                        tuple(witness)))
    # Structural sanity: namespace constants must sit above every
    # bounded/tag coordinate range, or the disjointness argument breaks.
    floor = 2 ** 16
    for fam in families:
        for comp in fam.components[1:]:
            if comp.kind == "const" and comp.value < floor:
                problems.append(
                    "family {!r} uses namespace constant {:#x} below "
                    "2**16; bounded legacy coordinates could alias "
                    "it".format(fam.name, comp.value))
            if comp.kind == "bounded" and comp.hi > floor:
                problems.append(
                    "family {!r} allows coordinates up to {} (>= 2**16); "
                    "they could alias a namespace constant".format(
                        fam.name, comp.hi))
            if comp.kind == "tag" and max(comp.values) >= floor:
                problems.append(
                    "family {!r} tag values reach 2**16; they could "
                    "alias a namespace constant".format(fam.name))
    return problems


def verify_registry_against_source(root=None, families=REGISTRY):
    """Cross-check the registry against the AST of the live library.

    Returns a list of problem messages:

    * a keyed ``default_rng((...))``/``*_key`` helper site whose file and
      arity match no registered family — an unregistered derivation;
    * a ``derive_rng``/``derive_key`` site naming a namespace no family
      registers;
    * a bare ``SeedSequence(seed).spawn`` root (unnamespaced spawning);
    * a registered family whose source file has no matching site — a
      stale registry entry;
    * a :data:`repro.rng.NAMESPACES` entry no family covers.
    """
    sites = provenance.collect(root)
    problems = []
    matched = set()
    by_namespace = {fam.namespace: fam for fam in families
                    if fam.namespace is not None}
    flat_legacy = [fam for fam in families
                   if fam.namespace is None and not fam.spawned]
    for site in sites:
        posix = Path(site.path).as_posix()
        if site.origin == "keyed":
            hits = [fam for fam in flat_legacy
                    if fam.source in posix and fam.arity == site.arity]
            if not hits:
                problems.append(
                    "{}:{}: keyed derivation {} matches no registered "
                    "stream family; register it in "
                    "analysis.determinism.streams.REGISTRY".format(
                        site.path, site.line, site.detail))
            matched.update(fam.name for fam in hits)
        elif site.origin == "derived":
            fam = by_namespace.get(site.namespace)
            if site.namespace is None:
                problems.append(
                    "{}:{}: derive call {} does not use a literal "
                    "namespace string; the checker cannot prove its "
                    "family".format(site.path, site.line, site.detail))
            elif fam is None:
                problems.append(
                    "{}:{}: namespace {!r} has no registered stream "
                    "family".format(site.path, site.line, site.namespace))
            else:
                matched.add(fam.name)
        elif site.origin == "scalar-spawn-root":
            problems.append(
                "{}:{}: {} spawns from un-namespaced entropy; two "
                "subsystems spawning from the same bare seed get "
                "identical children — root it at "
                "SeedSequence(derive_key(seed, ns))".format(
                    site.path, site.line, site.detail))
    for fam in families:
        if fam.name not in matched:
            problems.append(
                "registered family {!r} has no matching derivation site "
                "under {}; the registry is stale".format(
                    fam.name, fam.source))
    for namespace in NAMESPACES:
        if namespace not in by_namespace:
            problems.append(
                "repro.rng.NAMESPACES entry {!r} has no registered "
                "stream family".format(namespace))
    return problems
