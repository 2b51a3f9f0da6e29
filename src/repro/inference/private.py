"""Private cloud-based inference (Sec. III-A; Wang et al., KDD'18).

The authors' framework (Fig. 3) divides a DNN between the mobile device
and the cloud:

* the **local network** — the shallow early layers of a pretrained model,
  structure and weights *frozen* — extracts a compact representation on
  the device;
* the representation is perturbed by **nullification** (randomly zeroing a
  fraction of components) and **random Gaussian noise**, which together
  satisfy differential privacy for bounded-norm representations;
* the perturbed representation is sent to the cloud, where the
  fine-tuned **cloud network** finishes the inference;
* **noisy training** — feeding the cloud network both raw and generated
  noisy representations during training — restores the accuracy the noise
  would otherwise cost.

Because the representation is smaller than the raw input, the scheme also
*reduces* communication relative to shipping raw data (a property the
benchmark checks).
"""

# repro-lint: privacy-critical

from __future__ import annotations

import numpy as np

from .. import nn
from .. import profiler
from ..nn import losses
from ..optim import Adam
from ..privacy import flow
from ..privacy.mechanisms import gaussian_sigma_for
from ..tensor import Tensor, get_default_dtype, no_grad

__all__ = ["split_sequential", "PrivateLocalTransformer", "NoisyTrainer",
           "PrivateInferencePipeline"]


def split_sequential(model, split_index):
    """Split a Sequential into (local part, cloud part) at ``split_index``."""
    if not isinstance(model, nn.Sequential):
        raise TypeError("split_sequential expects a Sequential model")
    layers = list(model)
    if not 0 < split_index < len(layers):
        raise ValueError("split_index must be strictly inside the model")
    return nn.Sequential(*layers[:split_index]), nn.Sequential(*layers[split_index:])


class PrivateLocalTransformer:
    """The device-side transformation: frozen features + DP perturbation.

    Parameters
    ----------
    local_net:
        Frozen feature extractor (weights never updated).
    nullification_rate:
        Fraction mu of representation components zeroed at random per query.
    noise_sigma:
        Gaussian noise multiplier relative to the norm ``bound``.
    bound:
        L2 bound the representation is clipped to before perturbation —
        this is what gives the Gaussian mechanism a finite sensitivity.
    """

    def __init__(self, local_net, nullification_rate=0.1, noise_sigma=1.0,
                 bound=10.0, seed=0):
        if not 0.0 <= nullification_rate < 1.0:
            raise ValueError("nullification_rate must be in [0, 1)")
        if noise_sigma < 0:
            raise ValueError("noise_sigma must be non-negative")
        if bound <= 0:
            raise ValueError("bound must be positive")
        self.local_net = local_net
        self.local_net.eval()
        self.nullification_rate = nullification_rate
        self.noise_sigma = noise_sigma
        self.bound = bound
        self.rng = np.random.default_rng(seed)
        # The local net is frozen by construction, which is exactly the
        # contract the serving plan executor needs: compile the forward
        # once, replay it per query with no graph or allocations.  A
        # local net with a layer the compiler has no rule for still
        # works; it just pays the eager path, decided once.
        self._plan = None
        self._eager = False

    def _forward(self, array):
        """Frozen forward through the compiled plan (eager fallback)."""
        if not self._eager:
            from ..serve import UnsupportedModuleError, compile_plan

            try:
                if self._plan is None:
                    self._plan = compile_plan(self.local_net, array)
                representation = self._plan.run(array)
            except UnsupportedModuleError:
                self._eager = True
            else:
                # The plan bypasses the autodiff engine, so re-attach the
                # taint label the engine's hook would have propagated.
                flow.mark_derived(representation, (array,))
                return representation
        with no_grad():
            inputs = Tensor(array)
            # Tensor() casts non-float inputs; re-mark the actual array
            # the graph will see so the taint label is not lost.
            flow.mark_private(inputs.data)
            return self.local_net(inputs).numpy()

    def extract(self, features):
        """Frozen forward pass producing the clipped raw representation.

        Runs at whatever float dtype ``features`` carries (float32 inputs
        stay float32 end to end, halving device-side memory traffic).
        Served from a compiled :class:`repro.serve.Plan` when the
        compiler has a rule for every layer of the local net, eagerly
        otherwise.
        """
        array = np.asarray(features)
        # Raw device data is the private source; the taint tracker (when
        # active) propagates the label through every local-net op.
        flow.mark_private(array)
        with profiler.timer("private_inference.extract"):
            representation = self._forward(array)
        norms = np.linalg.norm(representation, axis=1, keepdims=True)
        scale = np.minimum(1.0, self.bound / np.maximum(norms, 1e-12))
        clipped = (representation * scale).astype(representation.dtype,
                                                  copy=False)
        flow.mark_clipped(representation, clipped, self.bound)
        return clipped

    def perturb(self, representation, rng=None):
        """Apply nullification then Gaussian noise (the transmitted data)."""
        rng = rng or self.rng
        source = representation = np.asarray(representation)
        if representation.dtype.kind != "f":
            representation = representation.astype(get_default_dtype())
        if self.nullification_rate > 0:
            keep = rng.random(representation.shape) >= self.nullification_rate
            representation = representation * keep
        if self.noise_sigma > 0:
            stddev = (self.noise_sigma * self.bound
                      / np.sqrt(representation.shape[1]))
            representation = representation + rng.normal(
                0.0, stddev, size=representation.shape,
            )
            flow.mark_noised(source, representation, stddev)
        else:
            # ARDEN's guarantee needs the Gaussian noise, not just the
            # nullification mask: without it the representation keeps its
            # pre-perturbation taint label and any transmission is
            # flagged as an egress violation.
            flow.mark_derived(representation, (source,))
        return representation

    def __call__(self, features):
        """Full device-side pipeline: extract, clip, nullify, add noise."""
        transmitted = self.perturb(self.extract(features))
        flow.release(transmitted, "private_inference.uplink")
        return transmitted

    def epsilon_per_query(self, delta=1e-5):
        """(epsilon, delta)-DP of one transmitted representation.

        The clipped representation has L2 sensitivity at most 2*bound under
        input replacement; per-coordinate noise sigma*bound/sqrt(d) gives a
        total noise norm of sigma*bound, so the effective multiplier is
        sigma/2 and epsilon follows from the classic Gaussian calibration.
        """
        if self.noise_sigma <= 0:
            return float("inf")
        effective = self.noise_sigma / 2.0
        # Invert sigma = sqrt(2 ln(1.25/delta)) / epsilon.
        return float(gaussian_sigma_for(1.0, delta) / effective)

    def transmitted_bytes(self, representation_dim):
        """Uplink bytes per query for the transformed representation."""
        return int(representation_dim * 4)


class NoisyTrainer:
    """Noisy training of the cloud network (the paper's key recovery trick).

    Mixes raw representations with freshly *generated* noisy samples each
    epoch — the generative component of the paper's noisy-training method
    is emulated by sampling new nullification masks and noise draws per
    epoch, optionally at jittered noise magnitudes for robustness.
    """

    def __init__(self, cloud_net, transformer, lr=0.01, noisy_fraction=0.5,
                 sigma_jitter=0.25, seed=0):
        if not 0.0 <= noisy_fraction <= 1.0:
            raise ValueError("noisy_fraction must be in [0, 1]")
        self.cloud_net = cloud_net
        self.transformer = transformer
        self.noisy_fraction = noisy_fraction
        self.sigma_jitter = sigma_jitter
        self.optimizer = Adam(cloud_net.parameters(), lr=lr)
        self.rng = np.random.default_rng(seed)

    def _training_batch(self, representations, labels, picks):
        batch = representations[picks].copy()
        batch_labels = labels[picks]
        noisy_count = int(round(self.noisy_fraction * len(picks)))
        if noisy_count:
            which = self.rng.choice(len(picks), size=noisy_count, replace=False)
            base_sigma = self.transformer.noise_sigma
            jitter = 1.0 + self.rng.uniform(
                -self.sigma_jitter, self.sigma_jitter)
            self.transformer.noise_sigma = base_sigma * jitter
            batch[which] = self.transformer.perturb(batch[which], rng=self.rng)
            self.transformer.noise_sigma = base_sigma
        return batch, batch_labels

    def train(self, features, labels, epochs=5, batch_size=32):
        """Train the cloud net on (public) data under the current perturbation."""
        representations = self.transformer.extract(features)
        labels = np.asarray(labels)
        n = len(representations)
        self.cloud_net.train()
        last = float("nan")
        for _ in range(epochs):
            order = self.rng.permutation(n)
            for start in range(0, n, batch_size):
                picks = order[start:start + batch_size]
                batch, batch_labels = self._training_batch(
                    representations, labels, picks)
                self.optimizer.zero_grad()
                loss = losses.cross_entropy(
                    self.cloud_net(Tensor(batch)), batch_labels)
                loss.backward()
                self.optimizer.step()
                last = loss.item()
        return last


class PrivateInferencePipeline:
    """End-to-end private inference: device transform + cloud classification."""

    def __init__(self, transformer, cloud_net):
        self.transformer = transformer
        self.cloud_net = cloud_net

    def predict(self, features, rng=None):
        """Classify through the full private path (perturbation included)."""
        transmitted = self.transformer.perturb(
            self.transformer.extract(features), rng=rng)
        flow.release(transmitted, "private_inference.uplink")
        profiler.record_bytes(
            "private_inference.uplink",
            self.transformer.transmitted_bytes(transmitted.shape[1])
            * transmitted.shape[0],
        )
        self.cloud_net.eval()
        with no_grad(), profiler.timer("private_inference.cloud"):
            logits = self.cloud_net(Tensor(transmitted))
        return logits.numpy().argmax(axis=1)

    def accuracy(self, features, labels, repeats=1, rng=None):
        """Mean accuracy over ``repeats`` independent perturbation draws."""
        rng = rng or np.random.default_rng(0)  # repro-lint: allow[dp-fixed-seed] evaluation harness; the deployed path draws from self.rng
        labels = np.asarray(labels)
        scores = [
            float((self.predict(features, rng=rng) == labels).mean())
            for _ in range(repeats)
        ]
        return float(np.mean(scores))

    def communication_reduction(self, input_dim, representation_dim):
        """Raw-input bytes divided by transmitted-representation bytes."""
        return (input_dim * 4) / self.transformer.transmitted_bytes(
            representation_dim)
