"""Federated participants: local data plus local optimization."""

from __future__ import annotations

import weakref

import numpy as np

from ..data import DataLoader
from ..nn import Dropout, losses
from ..optim import SGD
from ..rng import derive_rng
from ..tensor import Tensor, get_default_dtype

__all__ = ["FederatedClient"]

# The losses the compiled trainer fuses, by their TrainPlan name.
_PLAN_LOSSES = {losses.cross_entropy: "cross_entropy", losses.mse_loss: "mse"}

# model factory -> {(loss, momentum, batch size, default dtype): trainer,
# or None for a model with a layer the compiler has no rule for}.  One
# trainer per factory, not per client: a FedAvg run builds many
# short-lived clients, and a model and plan each would repeat the
# compile and multiply resident memory.  The default dtype is in the
# key because the factory builds its parameters in it.
_TRAINERS = weakref.WeakKeyDictionary()


class _SharedTrainer:
    """One model and its compiled TrainPlan, shared by a factory's clients.

    Compiled on one batch of the first client's shard.  :meth:`begin`
    resets it to the fresh model the eager path would build: the
    factory's buffers and dropout generator states, then the broadcast
    ``state`` and a zeroed optimizer.
    """

    def __init__(self, model_fn, loss, momentum, batch_size, features, labels):
        from ..train import compile_train_plan

        self.model = model_fn()
        self.model.train()
        params = dict(self.model.named_parameters())
        self.buffers = {name: value
                        for name, value in self.model.state_dict().items()
                        if name not in params}
        self.streams = [(module.rng, module.rng.bit_generator.state)
                        for _, module in self.model.named_modules()
                        if isinstance(module, Dropout)]
        # A shard yields full batches plus one shorter remainder, so
        # across clients the plan sees at most ``batch_size`` shapes.
        self.plan = compile_train_plan(
            self.model, features, labels, loss=loss, optimizer="sgd",
            optimizer_args={"momentum": momentum}, cache_limit=batch_size)

    def begin(self, state, lr):
        """Reset to a fresh model holding ``state``; returns the step."""
        for rng, fresh in self.streams:
            rng.bit_generator.state = fresh
        self.plan.load_state({**self.buffers, **state})
        self.plan.reset_optimizer_state()
        self.plan.set_lr(lr)
        return self.plan.step


class FederatedClient:
    """One participant holding a private shard of data.

    Parameters
    ----------
    client_id:
        Identifier used by samplers and the fleet simulator.
    dataset:
        An :class:`repro.data.ArrayDataset` private to this client.
    model_fn:
        Zero-argument factory producing the shared model architecture;
        every client and the server must use the same factory, and each
        call must return an identically initialised model (buffers and
        dropout generators included).  Clients of one factory share one
        compiled local trainer.
    loss_fn:
        Maps (logits, labels) to a scalar loss (default cross-entropy).
        ``losses.cross_entropy`` and ``losses.mse_loss`` train through
        the compiled plan; any other loss trains eagerly.
    """

    def __init__(self, client_id, dataset, model_fn, loss_fn=None, seed=0):
        self.client_id = client_id
        self.dataset = dataset
        self.model_fn = model_fn
        self.loss_fn = loss_fn or losses.cross_entropy
        self.rng = derive_rng(seed, "fed-client", client_id)

    @property
    def num_samples(self):
        return len(self.dataset)

    # ------------------------------------------------------------------
    # Checkpoint support: the local generator advances every round, so
    # bit-exact resume must capture and restore it.
    # ------------------------------------------------------------------
    def rng_state(self):
        """JSON-serialisable snapshot of the local batch-sampling RNG."""
        return self.rng.bit_generator.state

    def set_rng_state(self, state):
        """Restore a snapshot taken by :meth:`rng_state`."""
        self.rng.bit_generator.state = state

    def compute_gradient(self, state, batch_size=None):
        """One full gradient at ``state`` (the FedSGD client step).

        Returns (gradient dict, num_samples).  ``batch_size=None`` uses the
        whole local shard, matching g_k = grad L_k(w_t) in the paper.
        """
        model = self.model_fn()
        model.load_state_dict(state)
        model.train()
        if batch_size is None or batch_size >= len(self.dataset):
            features, labels = self.dataset.features, self.dataset.labels
        else:
            picks = self.rng.choice(len(self.dataset), size=batch_size, replace=False)
            features, labels = self.dataset.features[picks], self.dataset.labels[picks]
        model.zero_grad()
        loss = self.loss_fn(model(Tensor(features)), labels)
        loss.backward()
        gradient = {
            name: param.grad.copy() if param.grad is not None else np.zeros_like(param.data)
            for name, param in model.named_parameters()
        }
        return gradient, len(features)

    def local_train(self, state, epochs=1, batch_size=32, lr=0.1, momentum=0.0):
        """Run ``epochs`` of local SGD from ``state`` (the FedAvg client step).

        Returns (new local state, num_samples).  The epochs replay the
        compiled :class:`repro.train.TrainPlan` this client shares with
        every client of its factory, in the batch order of a fresh eager
        model and optimizer.  Models of Linear, ReLU, Tanh and Dropout
        layers get bit-identical updates; other layer rules agree with
        eager to the plan's compile-time verification tolerance.  Losses
        and layers the compiler has no rule for train eagerly.
        """
        trainer = self._shared_trainer(batch_size, momentum)
        if trainer is None:
            model = self.model_fn()
            model.load_state_dict(state)
            model.train()
            optimizer = SGD(model.parameters(), lr=lr, momentum=momentum)

            def step(features, labels):
                optimizer.zero_grad()
                self.loss_fn(model(Tensor(features)), labels).backward()
                optimizer.step()
        else:
            model, step = trainer.model, trainer.begin(state, lr)
        loader = DataLoader(self.dataset, batch_size=batch_size, shuffle=True,
                            rng=self.rng)
        for _ in range(epochs):
            for features, labels in loader:
                step(features, labels)
        return model.state_dict(), self.num_samples

    def _shared_trainer(self, batch_size, momentum):
        """The compiled trainer for this call, or None to train eagerly.

        Decided before the loader draws its permutation, so the client
        RNG advances alike on both paths.  None for a loss the compiler
        does not fuse, for a model with a layer it has no rule for, and
        for an empty shard, which has no batch to compile from.
        """
        loss = _PLAN_LOSSES.get(self.loss_fn)
        if loss is None or not len(self.dataset):
            return None
        trainers = _TRAINERS.setdefault(self.model_fn, {})
        key = (loss, float(momentum), batch_size, get_default_dtype())
        if key not in trainers:
            from ..serve import UnsupportedModuleError

            try:
                trainers[key] = _SharedTrainer(
                    self.model_fn, loss, momentum, batch_size,
                    self.dataset.features[:batch_size],
                    self.dataset.labels[:batch_size])
            except UnsupportedModuleError:
                trainers[key] = None
        return trainers[key]
