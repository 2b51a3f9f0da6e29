"""Round checkpoints for the federated loops, and the container they share.

Every checkpoint in :mod:`repro.federated` is one *snapshot*: a stored
(uncompressed, zip64) ZIP holding

* ``meta.json`` — UTF-8 JSON whose ``format`` tag names the schema, and
* one real ``.npy`` member per array, readable by ``np.load`` on its own.

:func:`write_snapshot` streams each array into its member from a
``memoryview`` of the array, with no staging copy, and replaces the
target atomically through a pid-suffixed temp file and ``os.replace``:
a failed save leaves the previous snapshot in place and no temp file.
:func:`read_snapshot` checks the tag, checks that each array member
holds exactly the array its ``.npy`` header announces, and ``readinto``s
the data in bounded chunks.  Reading a member to its end makes zipfile
verify its CRC-32, which is the integrity check.  A snapshot that cannot
be restored as saved raises :class:`CheckpointError`.

Members are stored, not deflated: a FedAvg round checkpoint is about
100 KB, and zlib cost several times the rest of the save.

Two schemas share the container, each holding its loop's mutable state
and the key its loader checks the loop against: the fleet simulator's
snapshot (``fleet-checkpoint-v4``, :mod:`repro.federated.fleet.checkpoint`)
and the FedAvg round checkpoint below (``fedavg-checkpoint-v2``).  The
latter captures everything a loop needs to continue *bit-for-bit* as if
it had never stopped:

* the global model state (``state/<name>.npy``) and its aggregation
  version,
* every client's local RNG,
* the simulated clock and broadcast-state history
  (``hist<i>/<name>.npy``) of the fault-tolerant path, and
* the communication ledger and accuracy records accumulated so far.

Client sampling and fault schedules need no state here: the sampler
keys each round off ``(seed, round)`` and :mod:`repro.faults` every
decision off ``(seed, round, client, attempt)``, so they replay for
free.  Nothing is pickled.
"""

from __future__ import annotations

import contextlib
import copy
import json
import os
import tokenize
import zipfile
from collections import OrderedDict
from dataclasses import asdict

import numpy as np
from numpy.lib import format as npy_format

from .comm import CommunicationLedger

__all__ = ["save_checkpoint", "load_checkpoint", "CheckpointError",
           "write_snapshot", "read_snapshot"]

FORMAT = "fedavg-checkpoint-v2"
META = "meta.json"

# Bytes per streamed write and per ``readinto``; the second bounds the
# reader's staging memory.
CHUNK_BYTES = 1 << 19

# The member that held a fedavg-checkpoint-v1 file's metadata: that
# format was a deflated .npz, from before the container existed.
_V1_META = "__checkpoint_meta__.npy"

# What zipfile, numpy's .npy header parser (its tokenizer fallback adds
# SyntaxError and TokenError) and parsing a malformed meta.json raise.
_DAMAGE = (zipfile.BadZipFile, EOFError, OSError, ValueError, TypeError,
           SyntaxError, tokenize.TokenError, NotImplementedError,
           RuntimeError, LookupError, AttributeError, OverflowError)


class CheckpointError(ValueError):
    """A checkpoint that cannot be restored as it was saved.

    Raised for a missing, empty or truncated file, a CRC-32 mismatch, a
    missing member, a wrong or absent ``format`` tag, a missing or
    malformed ``meta.json`` field, an ``.npy`` header that cannot be
    parsed, and an array whose shape or dtype does not fit what it is
    restored into.  The message names the file and, when one is at
    fault, the member.
    """


def _is(value, kind):
    """Whether ``value`` is a ``kind``; a bool is a value of no other kind."""
    return isinstance(value, kind) and (kind is bool
                                        or not isinstance(value, bool))


def check_record(record, fields):
    """``record``, which must be a dict holding exactly the keys of
    ``fields``, each value of the type ``fields`` maps it to.

    A ``float`` field takes an int too.  Raises ``ValueError`` if not,
    which :meth:`Snapshot.parse` reports as a :class:`CheckpointError`.
    """
    if not isinstance(record, dict) or set(record) != set(fields):
        raise ValueError("record {!r}, expected the fields {}".format(
            record, sorted(fields)))
    for key, kind in fields.items():
        if not _is(record[key], (int, float) if kind is float else kind):
            raise ValueError("{!r} is {!r}, expected {}".format(
                key, record[key], kind.__name__))
    return record


def _error(path, member, reason):
    where = path if member is None else "{} [{}]".format(path, member)
    return CheckpointError("{}: {}".format(where, reason))


@contextlib.contextmanager
def _damage(path, member):
    """Re-raise what a damaged file makes zipfile or numpy raise."""
    try:
        yield
    except CheckpointError:
        raise
    except _DAMAGE as exc:
        raise _error(path, member, exc) from exc


def write_snapshot(path, meta, arrays):
    """Atomically replace ``path`` with a snapshot of ``meta`` and ``arrays``.

    ``meta`` is a JSON-serialisable dict carrying the ``format`` tag;
    ``arrays`` yields ``(member, array)`` pairs, each written as a
    C-order ``.npy`` member.
    """
    tmp = "{}.tmp.{}".format(path, os.getpid())
    try:
        with zipfile.ZipFile(tmp, "w", zipfile.ZIP_STORED,
                             allowZip64=True) as archive:
            with archive.open(META, "w", force_zip64=True) as member:
                member.write(json.dumps(meta).encode("utf-8"))
            for name, array in arrays:
                _write_npy(archive, name, array)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_npy(archive, name, array):
    header = {"descr": npy_format.dtype_to_descr(array.dtype),
              "fortran_order": False, "shape": array.shape}
    data = memoryview(np.ascontiguousarray(array).reshape(-1)).cast("B")
    with archive.open(name, "w", force_zip64=True) as member:
        npy_format.write_array_header_1_0(member, header)
        for start in range(0, len(data), CHUNK_BYTES):
            member.write(data[start:start + CHUNK_BYTES])


@contextlib.contextmanager
def read_snapshot(path, fmt):
    """Open the snapshot at ``path``, which must be of format ``fmt``.

    Yields a :class:`Snapshot` whose ``meta`` has been read and checked.
    """
    with _damage(path, None):
        archive = zipfile.ZipFile(path)
    with archive:
        yield Snapshot(path, archive, fmt)


class Snapshot:
    """Checked access to the members of an open snapshot.

    Made by :func:`read_snapshot`; ``meta`` is the parsed ``meta.json``
    and ``members`` the names of the array members.
    """

    def __init__(self, path, archive, fmt):
        self.path = path
        self._archive = archive
        self.members = set(archive.namelist())
        if META not in self.members:
            raise self.error(META, "missing: not a {} snapshot{}".format(
                fmt, "; the file is a fedavg-checkpoint-v1 .npz"
                if _V1_META in self.members else ""))
        self.members.discard(META)
        with _damage(path, META):
            meta = json.loads(archive.read(self._info(META)))
        found = meta.get("format") if isinstance(meta, dict) else None
        if found != fmt:
            raise self.error(META, "format {!r}, expected {!r}".format(
                found, fmt))
        self.meta = meta

    def error(self, member, reason):
        """A :class:`CheckpointError` naming this file and ``member``."""
        return _error(self.path, member, reason)

    def field(self, key, kind):
        """``meta[key]``, which must be a ``kind`` (a bool is no int);
        raises a :class:`CheckpointError` naming ``meta.json`` if not."""
        if key not in self.meta:
            raise self.error(META, "no {!r} field".format(key))
        value = self.meta[key]
        if not _is(value, kind):
            raise self.error(META, "{!r} is {!r}, expected {}".format(
                key, value, kind.__name__))
        return value

    def parse(self, key, kind, parse):
        """``parse`` applied to :meth:`field`; a value it cannot parse
        raises a :class:`CheckpointError` naming ``meta.json`` too."""
        value = self.field(key, kind)
        try:
            return parse(value)
        except _DAMAGE as exc:
            raise self.error(META, "{!r}: {!r}".format(key, exc)) from exc

    def check(self, member, shape, dtype=None):
        """Check ``member`` holds exactly a ``shape`` array; returns its dtype.

        With ``dtype`` given, the member must hold that dtype too.  No
        data is read, so the CRC-32 is not yet verified.
        """
        with _damage(self.path, member):
            handle, found = self._open(member, shape, dtype)
            handle.close()
        return found

    def read(self, member, shape):
        """A new array read from ``member``, which must hold a ``shape`` array.

        The array keeps the dtype it was saved with.
        """
        out = np.empty(shape, self.check(member, shape))
        self.read_into(member, out)
        return out

    def read_into(self, member, out):
        """Fill the C-contiguous array ``out`` from ``member``.

        The member must match ``out``'s shape and dtype.  Its CRC-32 is
        verified as the last byte arrives, so a damaged member raises
        only after ``out`` was (partly) overwritten.
        """
        view = memoryview(out).cast("B")  # TypeError unless C-contiguous
        with _damage(self.path, member):
            handle, _ = self._open(member, out.shape, out.dtype)
            with handle:
                offset = 0
                while offset < len(view):
                    read = handle.readinto(
                        view[offset:offset + CHUNK_BYTES])
                    if not read:
                        raise self.error(member, "truncated at byte {}".format(
                            offset))
                    offset += read

    def _info(self, member):
        info = self._archive.getinfo(member)
        if (info.compress_type != zipfile.ZIP_STORED
                or info.compress_size != info.file_size):
            raise self.error(member, "not a stored member")
        return info

    def _open(self, member, shape, dtype):
        """Open ``member`` past its ``.npy`` header, checking its layout."""
        if member not in self.members:
            raise self.error(member, "missing")
        info = self._info(member)
        handle = self._archive.open(info)
        try:
            version = npy_format.read_magic(handle)
            if version != (1, 0):
                raise self.error(member, "npy format {}, expected (1, 0)".format(
                    version))
            found_shape, fortran, found = npy_format.read_array_header_1_0(
                handle)
            if (fortran or found_shape != tuple(shape)
                    or (dtype is not None and found != dtype)):
                raise self.error(member, "holds {}{} {}, expected {} {}".format(
                    "Fortran-order " if fortran else "", found_shape, found,
                    tuple(shape), "any dtype" if dtype is None else dtype))
            # Header plus data must fill the member exactly: reading a
            # member to its end is what makes zipfile check the CRC.
            size = handle.tell() + found.itemsize * int(np.prod(found_shape))
            if size != info.file_size:
                raise self.error(member, "{} bytes, but its header announces "
                                         "{}".format(info.file_size, size))
        except BaseException:
            handle.close()
            raise
        return handle, found


# The fields of a RoundRecord, which are those of each saved record.
_RECORD_FIELDS = {"round_index": int, "accuracy": float, "participants": int,
                  "cumulative_megabytes": float}


def save_checkpoint(path, loop, history, round_index):
    """Write the loop's full resumable state after ``round_index``."""
    meta = {
        "format": FORMAT,
        "round_index": int(round_index),
        "server_version": int(loop.server.version),
        "client_rngs": {str(client.client_id): client.rng_state()
                        for client in loop.clients},
        "ledger": history.ledger.to_dict(),
        "records": [asdict(record) for record in history.records],
    }
    if loop.clock is not None:
        meta["clock_now"] = float(loop.clock.now)

    arrays = [("state/{}.npy".format(name), value)
              for name, value in loop.server.state.items()]
    hist = loop._state_history
    if hist:
        meta["history_versions"] = [int(version) for version, _ in hist]
        for index, (_, state) in enumerate(hist):
            arrays.extend(("hist{}/{}.npy".format(index, name), value)
                          for name, value in state.items())
    write_snapshot(path, meta, arrays)
    return path


def load_checkpoint(path, loop, history):
    """Restore ``loop``/``history`` in place; returns the completed round.

    ``loop`` must be configured identically to the run that wrote the
    checkpoint (same clients, model factory, policies, and seeds) — the
    checkpoint restores mutable state, not configuration.  Every
    ``meta.json`` field is parsed and checked, and every array member
    read and checked against the names and shapes of
    ``loop.server.state``, before the loop is touched, so a
    :class:`CheckpointError` leaves it as it was.
    """
    from .algorithms import RoundRecord

    model = loop.server.state
    with read_snapshot(path, FORMAT) as snapshot:
        round_index = snapshot.field("round_index", int)
        version = snapshot.field("server_version", int)
        rng_states = snapshot.parse("client_rngs", dict, lambda states: [
            _rng_state(client, states[str(client.client_id)])
            for client in loop.clients])
        ledger = snapshot.parse("ledger", dict, CommunicationLedger.from_dict)
        records = snapshot.parse("records", list, lambda records: [
            RoundRecord(**check_record(record, _RECORD_FIELDS))
            for record in records])
        clock_now = (None if loop.clock is None
                     else snapshot.field("clock_now", float))
        versions = (snapshot.parse("history_versions", list, lambda values: [
            int(value) for value in values])
            if "history_versions" in snapshot.meta else [])
        prefixes = ["state/"] + ["hist{}/".format(index)
                                 for index in range(len(versions))]
        expected = {prefix + name + ".npy"
                    for prefix in prefixes for name in model}
        unexpected = sorted(snapshot.members - expected)
        if unexpected:
            raise snapshot.error(unexpected[0], "not in the loop's model")
        states = [OrderedDict((name, snapshot.read(prefix + name + ".npy",
                                                   value.shape))
                              for name, value in model.items())
                  for prefix in prefixes]

    loop.server.state = states[0]
    loop.server.version = version
    for client, state in zip(loop.clients, rng_states):
        client.set_rng_state(state)
    if clock_now is not None:
        loop.clock.now = clock_now
    loop._state_history = list(zip(versions, states[1:]))
    history.ledger = ledger
    history.records = records
    return round_index


def _rng_state(client, state):
    """``state``, once a copy of ``client``'s bit generator has taken it."""
    copy.copy(client.rng.bit_generator).state = state
    return state
