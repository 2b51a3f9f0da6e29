"""Helpers the workloads share: seeded inputs, input digests, statistics."""

import hashlib
import time
import zlib

import numpy as np

clock = time.perf_counter

# The reference probe is a fixed computation that calls no repository
# code: small matrix products like the models' and a pure-Python loop
# like the eager engine's bookkeeping.  On a shared host the speed of a
# whole run swings by up to 1.8x with the neighbours' load.  The
# workloads made of that kind of work (train-ondevice, fedavg-chaos) run
# the probe between their operations, and their end-to-end timings are
# scaled to a host on which its median run takes REFERENCE_S.  It does
# not track the memory-bound fleet-1m, nor serve-openloop, whose
# latencies include fixed batching waits, so those two do not run it and
# are reported as measured.
REFERENCE_S = 0.002
_PROBE_X = np.random.default_rng(0).standard_normal((8, 32))
_PROBE_W = np.random.default_rng(1).standard_normal((32, 32))


def probe(times, count=1):
    """Run the reference probe ``count`` times, appending each duration."""
    for _ in range(count):
        started = clock()
        hidden = _PROBE_X
        for _ in range(200):
            hidden = np.tanh(hidden @ _PROBE_W) * 0.5
        sum(i * i for i in range(20_000))
        times.append(clock() - started)


def input_rng(seed, family):
    """Generator for one named family of generated inputs of one seed."""
    return np.random.default_rng([int(seed), zlib.crc32(family.encode())])


def digest(value):
    """sha256 hex digest of nested dicts, lists, arrays and scalars."""
    hasher = hashlib.sha256()
    _feed(hasher, value)
    return hasher.hexdigest()


def _feed(hasher, value):
    if isinstance(value, dict):
        hasher.update(b"{")
        for key in sorted(value):
            hasher.update(str(key).encode())
            _feed(hasher, value[key])
        hasher.update(b"}")
    elif isinstance(value, (list, tuple)):
        hasher.update(b"[")
        for item in value:
            _feed(hasher, item)
        hasher.update(b"]")
    elif isinstance(value, np.ndarray):
        array = np.ascontiguousarray(value)
        hasher.update("{}{}".format(array.dtype.str, array.shape).encode())
        hasher.update(array.tobytes())
    else:
        hasher.update(repr(value).encode())


def percentile_ms(seconds, q):
    """The ``q``-th percentile of durations in seconds, in milliseconds."""
    return 1000.0 * float(np.percentile(seconds, q)) if len(seconds) else 0.0


def mean(values):
    return float(np.mean(values)) if len(values) else 0.0


def median(values):
    return float(np.median(values)) if len(values) else 0.0


def span_mean_ms(tracer, name):
    """Mean duration of the spans called ``name``, in milliseconds."""
    return 1000.0 * mean([end - start for _, start, end, _, _, _
                          in tracer.named(name)])
