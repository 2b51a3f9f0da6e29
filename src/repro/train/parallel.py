"""Multi-process data-parallel training over shared-memory gradients.

:class:`ParallelTrainer` shards each batch across forked workers.  Every
worker owns a full copy of the model (inherited through ``fork``) and a
:class:`~repro.train.plan.TrainPlan` compiled for its shard size; per
step it pulls the current parameters from a shared-memory slab, runs one
compiled forward+backward, and writes its flat shard gradient into its
own row of a shared gradient slab.  The parent then reduces the rows in
**fixed worker order** (weighted by shard size, so the result equals the
full-batch mean gradient), applies the update through the compiled
optimizer closures, and publishes the new parameters back to the slab.

Determinism: worker processes are forked once at construction; each
worker reseeds every :class:`~repro.nn.Dropout` generator it inherited
from a ``SeedSequence(seed).spawn()`` child, so two runs with the same
seed produce bit-identical parameter trajectories.  The fixed reduction
order keeps floating-point summation stable across runs.

When only one worker is requested (or ``fork`` is unavailable, e.g. on
Windows), the trainer degrades to the single-process compiled plan with
identical semantics — callers never need to special-case machine size.
"""

from __future__ import annotations

import multiprocessing
import os

import numpy as np

from .plan import TrainPlan, _grad_dtype
from ..rng import derive_key

__all__ = ["ParallelTrainer", "PerExampleGradientPool", "shared_slab_layout"]


def _default_workers():
    count = os.cpu_count() or 1
    return max(1, min(4, count))


def _split_batch(value, parts):
    """Split a (possibly nested) batch structure along axis 0."""
    if value is None:
        return [None] * parts
    if isinstance(value, np.ndarray):
        return np.array_split(value, parts, axis=0)
    if isinstance(value, tuple):
        split = [_split_batch(item, parts) for item in value]
        return [tuple(items) for items in zip(*split)]
    if isinstance(value, list):
        split = [_split_batch(item, parts) for item in value]
        return [list(items) for items in zip(*split)]
    return _split_batch(np.asarray(value), parts)


def _batch_size(value):
    if isinstance(value, np.ndarray):
        return value.shape[0]
    if isinstance(value, (tuple, list)):
        for item in value:
            if item is not None:
                return _batch_size(item)
    return len(np.asarray(value))


def _reseed_dropouts(module, seed_seq):
    """Give every Dropout its own child generator (deterministic fork)."""
    from .. import nn

    dropouts = [m for _, m in module.named_modules()
                if isinstance(m, nn.Dropout)]
    if not dropouts:
        return
    children = seed_seq.spawn(len(dropouts))
    for drop, child in zip(dropouts, children):
        drop.rng = np.random.default_rng(child)


def shared_slab_layout(workers, flat_size, itemsize):
    """Byte-range layout of the shared-memory slabs, for the HB auditor.

    Returns the parameter-slab segment and the per-worker gradient row
    segments as ``(name, start_byte, end_byte)`` triples within their
    slab.  :class:`ParallelTrainer` materialises exactly this layout —
    one flat parameter vector, and a ``(workers, flat_size)`` gradient
    matrix whose row *i* is worker *i*'s private output segment.  The
    happens-before auditor in :mod:`repro.analysis.plans.concurrency`
    builds its event model from here and cross-checks the ranges
    against a live ndarray template, so the audited model cannot drift
    from the trainer's real memory map.
    """
    row = int(flat_size) * int(itemsize)
    params = ("params", 0, row)
    grad_rows = [("grads[{}]".format(i), i * row, (i + 1) * row)
                 for i in range(int(workers))]
    return params, grad_rows


def _worker_loop(conn, module, params_view, grad_row, seed_seq,
                 loss, optimizer, optimizer_args):
    """Child process body: serve compiled gradient requests until EOF."""
    _reseed_dropouts(module, seed_seq)
    plan = TrainPlan(module, loss=loss, optimizer=optimizer,
                     optimizer_args=optimizer_args)
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            inputs, target = message
            try:
                plan.write_flat_params(params_view)
                shard_loss = plan.grad_step(inputs, target)
                plan.flat_grad(out=grad_row)
                conn.send(("ok", shard_loss))
            except Exception as exc:  # pragma: no cover - forwarded to parent
                conn.send(("err", "{}: {}".format(type(exc).__name__, exc)))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class ParallelTrainer:
    """Data-parallel wrapper around a compiled :class:`TrainPlan`.

    Parameters mirror :func:`~repro.train.plan.compile_train_plan`; the
    example input/target are used both to compile (and verify) the
    parent plan and to size the shared parameter/gradient slabs.

    ``step(inputs, target)`` returns the batch-mean loss, exactly like
    ``TrainPlan.step``; gradients are the batch-mean gradient assembled
    from per-shard means weighted ``n_shard / n_batch``.
    """

    def __init__(self, module, example_input, example_target,
                 loss="cross_entropy", optimizer="sgd", optimizer_args=None,
                 workers=None, seed=0):
        self.module = module
        if workers is None:
            workers = _default_workers()
        self.plan = TrainPlan(module, loss=loss, optimizer=optimizer,
                              optimizer_args=optimizer_args)
        # Compile (and gradcheck-verify) the parent trace up front.
        self.plan._trace_for(
            *_example_signature(self.plan, example_input, example_target))
        self._flat_dtype = _grad_dtype(self.plan._bound_params[0][2])
        self._flat_size = self.plan.flat_size()
        batch = _batch_size(example_input)
        workers = max(1, min(int(workers), batch))
        self.workers = workers
        self._shm = []
        self._procs = []
        self._conns = []
        self.parallel = workers > 1 and _fork_available()
        if not self.parallel:
            self.workers = 1
            self._params = None
            self._grads = None
            self._total = None
            self._scaled = None
            return

        from multiprocessing import shared_memory

        itemsize = np.dtype(self._flat_dtype).itemsize
        param_shm = shared_memory.SharedMemory(
            create=True, size=max(1, self._flat_size * itemsize))
        grad_shm = shared_memory.SharedMemory(
            create=True, size=max(1, workers * self._flat_size * itemsize))
        self._shm = [param_shm, grad_shm]
        self._params = np.ndarray(
            (self._flat_size,), dtype=self._flat_dtype, buffer=param_shm.buf)
        self._grads = np.ndarray(
            (workers, self._flat_size), dtype=self._flat_dtype,
            buffer=grad_shm.buf)
        self._total = np.empty(self._flat_size, dtype=self._flat_dtype)
        self._scaled = np.empty(self._flat_size, dtype=self._flat_dtype)
        self.plan.read_flat_params(out=self._params)  # repro-lint: allow[shm-write-protocol] protocol publish-params step

        context = multiprocessing.get_context("fork")
        seed_children = np.random.SeedSequence(
            derive_key(seed, "train-parallel")).spawn(workers)
        for index in range(workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_worker_loop,
                args=(child_conn, module, self._params, self._grads[index],
                      seed_children[index], loss, optimizer,
                      optimizer_args),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    # -- training -------------------------------------------------------
    def step(self, inputs, target):
        """One data-parallel training step; returns the batch-mean loss."""
        if not self.parallel:
            return self.plan.step(inputs, target)
        shards = _split_batch(inputs, self.workers)
        targets = _split_batch(np.asarray(target), self.workers)
        sizes = [_batch_size(t) for t in targets]
        total_rows = float(sum(sizes))
        self.plan.read_flat_params(out=self._params)  # repro-lint: allow[shm-write-protocol] protocol publish-params step
        for conn, shard, shard_target in zip(self._conns, shards, targets):
            conn.send((shard, shard_target))
        losses = []
        for conn in self._conns:
            status, payload = conn.recv()
            if status != "ok":
                raise RuntimeError("parallel worker failed: " + payload)
            losses.append(payload)
        # Fixed-order weighted reduction: worker 0 first, always.
        self._total[...] = 0.0
        for index, size in enumerate(sizes):
            np.multiply(self._grads[index], size / total_rows,
                        out=self._scaled)
            np.add(self._total, self._scaled, out=self._total)
        self.plan.apply_flat_grad(self._total)
        return float(sum(l * s for l, s in zip(losses, sizes)) / total_rows)

    def set_lr(self, lr):
        self.plan.set_lr(lr)

    # -- lifecycle ------------------------------------------------------
    def close(self):
        """Stop workers and release the shared-memory slabs."""
        for conn in self._conns:
            try:
                conn.send(None)
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = []
        self._procs = []
        for shm in self._shm:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._shm = []
        self.parallel = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def _per_example_worker(conn, module, params_view, grad_row, transform,
                        loss):
    """Child body for :class:`PerExampleGradientPool`.

    Each request carries a (features, labels) shard; the worker runs the
    compiled plan once per example, applies ``transform`` (e.g. DP-SGD's
    L2 clipping) to each flat per-example gradient, and leaves the shard
    *sum* in its shared row.
    """
    plan = TrainPlan(module, loss=loss, optimizer=None)
    flat = np.empty_like(grad_row)
    try:
        while True:
            message = conn.recv()
            if message is None:
                break
            features, labels = message
            try:
                plan.write_flat_params(params_view)
                grad_row[...] = 0.0
                for i in range(len(features)):
                    plan.grad_step(features[i:i + 1], labels[i:i + 1])
                    plan.flat_grad(out=flat)
                    piece = flat if transform is None else transform(flat)
                    np.add(grad_row, piece, out=grad_row)
                conn.send(("ok", len(features)))
            except Exception as exc:  # pragma: no cover - forwarded
                conn.send(("err", "{}: {}".format(type(exc).__name__, exc)))
    except (EOFError, KeyboardInterrupt):  # pragma: no cover
        pass
    finally:
        conn.close()


class PerExampleGradientPool:
    """Fork pool that computes sums of transformed per-example gradients.

    DP-SGD's inner loop — one backward pass per example, clip, sum — is
    embarrassingly parallel across the lot.  Workers inherit the model
    through ``fork`` and compile a batch-of-one plan each; the parent
    publishes current parameters to a shared slab before every call and
    reduces the per-worker partial sums in fixed order, so the result is
    deterministic for a fixed worker count.

    ``transform`` runs worker-side on each per-example flat gradient
    (it must be pure — e.g. ``lambda g: clip_by_l2(g, C)``).
    """

    def __init__(self, module, example_input, example_target, transform=None,
                 loss="cross_entropy", workers=2):
        self.module = module
        self.plan = TrainPlan(module, loss=loss, optimizer=None)
        values, target = _example_signature(
            self.plan, example_input, example_target)
        one = _split_batch(values, _batch_size(values))[0]
        self.plan._trace_for(one, target[:1])
        self._flat_dtype = _grad_dtype(self.plan._bound_params[0][2])
        self._flat_size = self.plan.flat_size()
        workers = max(1, int(workers))
        self.parallel = workers > 1 and _fork_available()
        self.workers = workers if self.parallel else 1
        self.transform = transform
        self._shm = []
        self._procs = []
        self._conns = []
        if not self.parallel:
            self._flat = np.empty(self._flat_size, dtype=self._flat_dtype)
            return

        from multiprocessing import shared_memory

        itemsize = np.dtype(self._flat_dtype).itemsize
        param_shm = shared_memory.SharedMemory(
            create=True, size=max(1, self._flat_size * itemsize))
        grad_shm = shared_memory.SharedMemory(
            create=True, size=max(1, self.workers * self._flat_size * itemsize))
        self._shm = [param_shm, grad_shm]
        self._params = np.ndarray(
            (self._flat_size,), dtype=self._flat_dtype, buffer=param_shm.buf)
        self._grads = np.ndarray(
            (self.workers, self._flat_size), dtype=self._flat_dtype,
            buffer=grad_shm.buf)
        self.plan.read_flat_params(out=self._params)  # repro-lint: allow[shm-write-protocol] protocol publish-params step
        context = multiprocessing.get_context("fork")
        for index in range(self.workers):
            parent_conn, child_conn = context.Pipe()
            proc = context.Process(
                target=_per_example_worker,
                args=(child_conn, module, self._params, self._grads[index],
                      transform, loss),
                daemon=True,
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)

    def grad_sum(self, features, labels, out=None):
        """Sum of transformed per-example gradients over (features, labels)."""
        features = np.asarray(features)
        labels = np.asarray(labels)
        if out is None:
            out = np.zeros(self._flat_size, dtype=self._flat_dtype)
        else:
            out[...] = 0.0
        if len(features) == 0:
            return out
        if not self.parallel:
            for i in range(len(features)):
                self.plan.grad_step(features[i:i + 1], labels[i:i + 1])
                self.plan.flat_grad(out=self._flat)
                piece = self._flat if self.transform is None else \
                    self.transform(self._flat)
                np.add(out, piece, out=out)
            return out
        parts = min(self.workers, len(features))
        shards = _split_batch(features, parts)
        label_shards = _split_batch(labels, parts)
        self.plan.read_flat_params(out=self._params)  # repro-lint: allow[shm-write-protocol] protocol publish-params step
        for conn, shard, shard_labels in zip(self._conns, shards,
                                             label_shards):
            conn.send((shard, shard_labels))
        for conn in self._conns[:parts]:
            status, payload = conn.recv()
            if status != "ok":
                raise RuntimeError("per-example worker failed: " + payload)
        # Fixed-order reduction over worker rows.
        for index in range(parts):
            np.add(out, self._grads[index], out=out)
        return out

    def close(self):
        """Stop workers and release the shared-memory slabs."""
        for conn in self._conns:
            try:
                conn.send(None)
                conn.close()
            except (BrokenPipeError, OSError):  # pragma: no cover
                pass
        for proc in self._procs:
            proc.join(timeout=5)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
        self._conns = []
        self._procs = []
        for shm in self._shm:
            try:
                shm.close()
                shm.unlink()
            except FileNotFoundError:  # pragma: no cover
                pass
        self._shm = []
        self.parallel = False

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        self.close()

    def __del__(self):  # pragma: no cover - best-effort cleanup
        try:
            self.close()
        except Exception:
            pass


def _fork_available():
    try:
        multiprocessing.get_context("fork")
    except ValueError:  # pragma: no cover - non-POSIX platforms
        return False
    return True


def _example_signature(plan, example_input, example_target):
    from .plan import _to_arrays

    return _to_arrays(example_input), plan._coerce_target(example_target)
