"""The moments accountant (Abadi et al., CCS'16) via Renyi DP.

Sec. II-C credits the moments accountant with "reducing the privacy
budget" of DP-SGD; Mironov later showed the moment bound is exactly Renyi
differential privacy of the subsampled Gaussian mechanism.  We implement:

* the per-step RDP of the Poisson-subsampled Gaussian at integer orders
  (the closed-form binomial expansion, computed in log space),
* linear composition across steps,
* conversion to (epsilon, delta),
* the older strong-composition bound, so the benchmark can show how much
  tighter the accountant is (the comparison the paper alludes to).
"""

# repro-lint: privacy-critical

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

from . import flow

__all__ = [
    "rdp_subsampled_gaussian",
    "rdp_to_epsilon",
    "LedgerEntry",
    "MomentsAccountant",
    "strong_composition_epsilon",
]

#: One accountant charge: ``num_steps`` sampled-Gaussian releases at
#: sampling probability ``q`` and noise multiplier ``sigma``.  The ledger
#: of these entries is what the independent budget auditor
#: (:mod:`repro.analysis.privacy.audit`) replays to cross-check a
#: trainer's :class:`~repro.analysis.privacy.certificate.PrivacyCertificate`.
LedgerEntry = namedtuple("LedgerEntry", ["q", "sigma", "num_steps"])

DEFAULT_ORDERS = tuple(range(2, 65))


def _log_add(a, b):
    """log(exp(a) + exp(b)) without overflow."""
    if a == -math.inf:
        return b
    if b == -math.inf:
        return a
    high, low = max(a, b), min(a, b)
    return high + math.log1p(math.exp(low - high))


def rdp_subsampled_gaussian(q, sigma, order):
    """RDP epsilon of one step of the sampled Gaussian mechanism.

    For integer order ``alpha`` and sampling probability ``q``:

        eps(alpha) = 1/(alpha-1) * log( sum_{k=0}^{alpha}
            C(alpha, k) (1-q)^(alpha-k) q^k exp(k(k-1) / (2 sigma^2)) )

    which is Mironov et al.'s closed form for Poisson subsampling.
    """
    if not 0.0 <= q <= 1.0:
        raise ValueError("sampling probability must be in [0, 1]")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    if order < 2 or int(order) != order:
        raise ValueError("order must be an integer >= 2")
    if q == 0.0:
        return 0.0
    if q == 1.0:
        # No subsampling: plain Gaussian RDP.
        return order / (2.0 * sigma ** 2)
    # scipy loads lazily: ``import repro`` stays ~45 MB lighter.
    from scipy import special

    order = int(order)
    log_total = -math.inf
    for k in range(order + 1):
        log_term = (
            float(special.gammaln(order + 1)
                  - special.gammaln(k + 1)
                  - special.gammaln(order - k + 1))
            + (order - k) * math.log1p(-q)
            + k * math.log(q)
            + (k * (k - 1)) / (2.0 * sigma ** 2)
        )
        log_total = _log_add(log_total, log_term)
    return log_total / (order - 1)


def rdp_to_epsilon(rdp_values, orders, delta):
    """Convert composed RDP to (epsilon, delta)-DP, minimizing over orders.

    Uses the standard conversion eps = rdp + log(1/delta) / (alpha - 1).
    Returns (epsilon, best_order).
    """
    if not 0 < delta < 1:
        raise ValueError("delta must be in (0, 1)")
    best = (math.inf, None)
    for rdp, order in zip(rdp_values, orders):
        eps = rdp + math.log(1.0 / delta) / (order - 1)
        if eps < best[0]:
            best = (eps, order)
    return best


class MomentsAccountant:
    """Tracks cumulative RDP over the course of a training run."""

    def __init__(self, orders=DEFAULT_ORDERS):
        self.orders = tuple(orders)
        self._rdp = np.zeros(len(self.orders))
        self.steps = 0
        self.ledger = []

    def step(self, q, sigma, num_steps=1):
        """Account for ``num_steps`` sampled-Gaussian releases."""
        increments = np.array([
            rdp_subsampled_gaussian(q, sigma, order) for order in self.orders
        ])
        self._rdp = self._rdp + num_steps * increments
        self.steps += num_steps
        self.ledger.append(LedgerEntry(float(q), float(sigma), int(num_steps)))
        flow.accounted(q, sigma, num_steps)
        return self

    def get_epsilon(self, delta):
        """Current (epsilon, best_order) at the given delta."""
        return rdp_to_epsilon(self._rdp, self.orders, delta)

    def spent(self, delta):
        """Convenience: just the epsilon value."""
        return self.get_epsilon(delta)[0]


def strong_composition_epsilon(step_epsilon, step_delta, num_steps, delta_prime):
    """Advanced composition (Dwork et al.) for comparison with the accountant.

    Composing ``num_steps`` mechanisms that are each (eps0, delta0)-DP is
    (eps', T*delta0 + delta')-DP with

        eps' = eps0 sqrt(2 T ln(1/delta')) + T eps0 (e^eps0 - 1).
    """
    if step_epsilon <= 0 or num_steps <= 0:
        raise ValueError("need positive step_epsilon and num_steps")
    if not 0 < delta_prime < 1:
        raise ValueError("delta_prime must be in (0, 1)")
    return (
        step_epsilon * math.sqrt(2.0 * num_steps * math.log(1.0 / delta_prime))
        + num_steps * step_epsilon * (math.exp(step_epsilon) - 1.0)
    )
