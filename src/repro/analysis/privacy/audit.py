"""Independent budget auditor for privacy certificates.

The moments accountant inside a trainer is the *claimant*: it both
spends the budget and reports what was spent, so a bug (or a tampered
ledger) goes unnoticed by construction.  This module re-derives epsilon
from a :class:`~repro.analysis.privacy.certificate.PrivacyCertificate`
using a separate implementation of the subsampled-Gaussian RDP bound —
vectorized log-domain binomial expansion via ``scipy.special.logsumexp``
rather than the accountant's scalar ``_log_add`` recursion — and
cross-checks three things:

1. the certificate's claimed epsilon matches the independent
   recomputation from (q, sigma, steps, delta);
2. the embedded (or externally supplied) accountant ledger is internally
   consistent with the certificate and reproduces the same epsilon;
3. for multi-step schedules, the claim respects the classical
   strong-composition upper bound (Dwork et al.): a "moments
   accountant" that reports *more* than strong composition is broken,
   because the moment bound's whole advantage is composition.  A
   single amplified release has no composition to bound — there the
   RDP conversion and the classical (eps, delta) conversion are just
   two incomparable upper bounds on the same mechanism, so the
   reference value is reported but not enforced.

Any mismatch is a hard failure: ``python -m repro.analysis.privacy
audit`` exits non-zero.
"""

from __future__ import annotations

import math

import numpy as np

from ...privacy.accountant import (
    DEFAULT_ORDERS,
    strong_composition_epsilon,
)
from .certificate import CertificateError, PrivacyCertificate

__all__ = [
    "AuditResult",
    "AuditError",
    "audit_certificate",
    "independent_rdp",
    "independent_epsilon",
    "strong_composition_bound",
]


class AuditError(RuntimeError):
    """A certificate failed the independent audit."""


def independent_rdp(q, sigma, orders):
    """RDP of one subsampled-Gaussian release, recomputed from scratch.

    Same closed form as
    :func:`repro.privacy.accountant.rdp_subsampled_gaussian`, but a
    deliberately different implementation: all binomial terms for one
    order are assembled as a vector and reduced with ``logsumexp``,
    instead of the accountant's scalar log-add loop.  Agreement between
    the two is evidence neither has a numeric bug.
    """
    if not 0.0 <= q <= 1.0:
        raise AuditError("sampling probability must be in [0, 1]")
    if sigma <= 0:
        raise AuditError("sigma must be positive")
    # scipy loads lazily: ``import repro`` stays ~45 MB lighter.
    from scipy import special

    values = []
    for order in orders:
        order = int(order)
        if order < 2:
            raise AuditError("orders must be integers >= 2")
        if q == 0.0:
            values.append(0.0)
            continue
        if q == 1.0:
            values.append(order / (2.0 * sigma ** 2))
            continue
        ks = np.arange(order + 1)
        log_binom = (special.gammaln(order + 1)
                     - special.gammaln(ks + 1)
                     - special.gammaln(order - ks + 1))
        log_terms = (log_binom
                     + (order - ks) * math.log1p(-q)
                     + ks * math.log(q)
                     + ks * (ks - 1) / (2.0 * sigma ** 2))
        values.append(float(special.logsumexp(log_terms)) / (order - 1))
    return np.asarray(values)


def independent_epsilon(entries, delta, orders=DEFAULT_ORDERS):
    """(epsilon, best_order) for a composed schedule of ledger entries.

    ``entries`` is an iterable of ``(q, sigma, num_steps)`` triples.
    """
    if not 0.0 < delta < 1.0:
        raise AuditError("delta must be in (0, 1)")
    total = np.zeros(len(orders))
    for q, sigma, num_steps in entries:
        total = total + int(num_steps) * independent_rdp(q, sigma, orders)
    candidates = total + np.log(1.0 / delta) / (np.asarray(orders) - 1.0)
    best = int(np.argmin(candidates))
    return float(candidates[best]), int(orders[best])


def strong_composition_bound(q, sigma, steps, delta):
    """Classical upper bound on the composed subsampled-Gaussian epsilon.

    Splits ``delta`` evenly between the per-step Gaussian deltas and the
    advanced-composition slack: each Gaussian release is
    (eps_g, delta0)-DP with eps_g = sqrt(2 ln(1.25/delta0)) / sigma,
    Poisson subsampling amplifies it to
    (log(1 + q (e^eps_g - 1)), q delta0), and Dwork et al.'s advanced
    composition stitches ``steps`` of those together.

    For ``steps == 1`` the returned value is just the amplified
    classical Gaussian epsilon — a reference point, not a bound on the
    RDP conversion: with nothing composed, the two conversions are
    incomparable and the RDP one can land above it (e.g. q=0.4,
    sigma=1.1, delta=1e-5).
    """
    if steps <= 0 or q == 0.0:
        return 0.0
    delta0 = delta / (2.0 * steps * q)
    if delta0 >= 1.0:
        delta0 = delta / 2.0
    eps_gaussian = math.sqrt(2.0 * math.log(1.25 / delta0)) / sigma
    eps_step = math.log1p(q * math.expm1(eps_gaussian))
    if steps == 1:
        return eps_step
    return strong_composition_epsilon(eps_step, q * delta0, steps,
                                      delta / 2.0)


class AuditResult:
    """Verdict of one certificate audit."""

    def __init__(self, certificate):
        self.certificate = certificate
        self.failures = []
        self.epsilon_claimed = certificate.claimed_epsilon
        self.epsilon_recomputed = None
        self.epsilon_strong_bound = None
        self.best_order = None

    @property
    def ok(self):
        return not self.failures

    def fail(self, message):
        self.failures.append(message)

    def __str__(self):
        head = "audit[{}] q={} sigma={} steps={} delta={}".format(
            self.certificate.mechanism, self.certificate.q,
            self.certificate.sigma, self.certificate.steps,
            self.certificate.delta)
        body = "claimed={:.6g} recomputed={} strong-bound={}".format(
            self.epsilon_claimed,
            "n/a" if self.epsilon_recomputed is None
            else "{:.6g}".format(self.epsilon_recomputed),
            "n/a" if self.epsilon_strong_bound is None
            else "{:.6g}".format(self.epsilon_strong_bound))
        if self.ok:
            return "{}: OK ({})".format(head, body)
        return "{}: FAILED ({})\n  {}".format(
            head, body, "\n  ".join(self.failures))


def _audit_sampled_gaussian(cert, result, rtol):
    entries = cert.ledger or [(cert.q, cert.sigma, cert.steps)]
    ledger_steps = sum(int(e[2]) for e in entries)
    if ledger_steps != cert.steps:
        result.fail(
            "ledger records {} step(s) but the certificate claims {}".format(
                ledger_steps, cert.steps))
    if cert.ledger:
        for entry in cert.ledger:
            if not math.isclose(entry.q, cert.q, rel_tol=rtol, abs_tol=rtol):
                result.fail(
                    "ledger entry q={} disagrees with certificate q={}".format(
                        entry.q, cert.q))
                break
        for entry in cert.ledger:
            if not math.isclose(entry.sigma, cert.sigma, rel_tol=rtol,
                                abs_tol=rtol):
                result.fail(
                    "ledger entry sigma={} disagrees with certificate "
                    "sigma={}".format(entry.sigma, cert.sigma))
                break
    if cert.steps == 0:
        if cert.claimed_epsilon != 0.0:
            result.fail("zero steps cannot spend epsilon > 0")
        result.epsilon_recomputed = 0.0
        return
    epsilon, order = independent_epsilon(entries, cert.delta)
    result.epsilon_recomputed = epsilon
    result.best_order = order
    if not math.isclose(epsilon, cert.claimed_epsilon, rel_tol=max(rtol, 1e-9),
                        abs_tol=1e-12):
        result.fail(
            "claimed epsilon {:.9g} does not match independent "
            "recomputation {:.9g}".format(cert.claimed_epsilon, epsilon))
    bound = strong_composition_bound(cert.q, cert.sigma, cert.steps,
                                     cert.delta)
    result.epsilon_strong_bound = bound
    if cert.steps > 1 and epsilon > bound * (1.0 + rtol) + 1e-12:
        result.fail(
            "recomputed epsilon {:.6g} exceeds the strong-composition "
            "upper bound {:.6g}: the moment bound must be tighter".format(
                epsilon, bound))


def _audit_laplace(cert, result, rtol):
    expected = cert.steps * cert.epsilon_per_query
    result.epsilon_recomputed = expected
    if not math.isclose(expected, cert.claimed_epsilon, rel_tol=max(rtol, 1e-9),
                        abs_tol=1e-12):
        result.fail(
            "claimed epsilon {:.9g} does not match basic composition "
            "{} * {} = {:.9g}".format(
                cert.claimed_epsilon, cert.steps, cert.epsilon_per_query,
                expected))


def audit_certificate(cert, accountant=None, rtol=1e-6, strict=False):
    """Independently verify ``cert``; returns an :class:`AuditResult`.

    Parameters
    ----------
    cert:
        A :class:`PrivacyCertificate` (or a dict in its schema).
    accountant:
        Optional live :class:`~repro.privacy.accountant.MomentsAccountant`
        whose ledger is cross-checked against the certificate.
    rtol:
        Relative tolerance for epsilon comparisons.
    strict:
        When True, raise :class:`AuditError` on failure instead of
        returning a failed result.
    """
    if isinstance(cert, dict):
        cert = PrivacyCertificate.from_dict(cert)
    result = AuditResult(cert)
    if accountant is not None:
        if accountant.steps != cert.steps:
            result.fail(
                "live accountant has {} step(s); certificate claims "
                "{}".format(accountant.steps, cert.steps))
        if cert.ledger is not None and cert.mechanism == "sampled-gaussian":
            if [tuple(e) for e in accountant.ledger] != \
                    [tuple(e) for e in cert.ledger]:
                result.fail("live accountant ledger differs from the "
                            "certificate's embedded ledger")
    try:
        if cert.mechanism == "sampled-gaussian":
            _audit_sampled_gaussian(cert, result, rtol)
        else:
            _audit_laplace(cert, result, rtol)
    except (AuditError, CertificateError) as error:
        result.fail(str(error))
    if strict and not result.ok:
        raise AuditError(str(result))
    return result
