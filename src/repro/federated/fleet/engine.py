"""The fleet round decision engine: one chaos round as array ops.

This is the vectorized counterpart of
:meth:`repro.federated.FedAvg._robust_client_round` — the same attempt
loop (backoff, link windows, straggler cutoff, timeout, dropout,
staleness rejection, corruption, upload loss), the same decision
*order*, and the same keyed fault oracles, evaluated for all
participants at once.  The only Python loop is over attempts
(``policy.max_retries + 1`` iterations); nothing iterates over clients.

Two implementations share the entry point:

* :func:`decide_round` with ``vectorized=True`` (default) — whole-round
  arrays through the batch oracles of
  :class:`repro.faults.FaultInjector`.  Each attempt compresses to the
  rows it runs (pending, link open, feasible) and asks every oracle
  only about the rows whose fate still depends on it — exactly the
  queries the scalar twin makes — so a device that succeeded, or that
  an earlier stage of the cascade already decided, costs no keyed
  stream;
* ``vectorized=False`` — a per-client scalar reference twin driving the
  scalar oracles, bit-identical to the vectorized path in every output
  (outcome codes, byte tallies, per-client timelines, staleness lags).
  The identity is a tested invariant on fleets up to 256; the scalar
  twin also serves as the "object path" baseline the fleet benchmark
  measures its speedup against.

Byte accounting is *disjoint*: every byte an attempt puts on the wire
is booked as either delivered (``up``/``down``, success only) or
``wasted`` (everything else), never both, and ``sent`` tallies the wire
total independently so ``sent == up + down + wasted`` is a checkable
conservation law rather than a definition.  Timelines are per-device:
each participant advances its own local clock from ``clock_start``
(devices retry in parallel), unlike the object loop's single sequential
server clock — the round's duration is the slowest participant's finish
time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["RoundDecisions", "decide_round", "OUTCOME_NAMES",
           "OUT_SUCCESS", "OUT_BLOCKED", "OUT_INFEASIBLE", "OUT_CUT",
           "OUT_TIMEOUT", "OUT_DROPOUT", "OUT_STALE", "OUT_CORRUPT",
           "OUT_LOST"]

# Final per-participant outcome codes (index = code).
OUT_SUCCESS = 0     # update delivered and accepted
OUT_BLOCKED = 1     # link window closed on every attempt
OUT_INFEASIBLE = 2  # link cannot carry the model at all
OUT_CUT = 3         # straggler cut off after the download
OUT_TIMEOUT = 4     # download+compute+upload exceeded the budget
OUT_DROPOUT = 5     # device went dark after the download
OUT_STALE = 6       # delivered but rejected: trained on too-old state
OUT_CORRUPT = 7     # delivered but rejected: corrupted values
OUT_LOST = 8        # upload lost mid-transfer

OUTCOME_NAMES = ("success", "blocked", "infeasible", "straggler_cut",
                 "timeout", "dropout", "stale_rejected",
                 "corrupt_rejected", "upload_lost")

# Per outcome code of an attempt that ran: model transfers it put on the
# wire (the download, plus the upload unless it failed before sending
# one), and how many of those bought nothing.
_SENT_TRANSFERS = np.asarray([2, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)
_WASTED_TRANSFERS = np.asarray([0, 0, 0, 1, 1, 1, 2, 2, 2], dtype=np.int64)


@dataclass
class RoundDecisions:
    """Everything one round decided, as arrays aligned with ``rows``."""

    rows: np.ndarray        # fleet row index of each participant
    client_ids: np.ndarray  # oracle coordinate of each participant
    outcome: np.ndarray     # final OUT_* code
    survived: np.ndarray    # outcome == OUT_SUCCESS
    lag: np.ndarray         # injected staleness of the last real attempt
    attempts: np.ndarray    # attempts consumed (including blocked probes)
    retries: np.ndarray     # retry count (attempts after the first)
    up: np.ndarray          # delivered uplink bytes
    down: np.ndarray        # delivered downlink bytes
    wasted: np.ndarray      # bytes that bought nothing
    sent: np.ndarray        # every byte on the wire (== up+down+wasted)
    finish_s: np.ndarray    # device-local completion time offset
    duration: float         # slowest participant's finish_s

    @property
    def num_selected(self):
        return int(self.rows.shape[0])

    @property
    def num_survived(self):
        return int(np.count_nonzero(self.survived))


def decide_round(state, injector, policy, round_index, rows,
                 client_ids=None, model_bytes=40_000, clock_start=0.0,
                 vectorized=True):
    """Decide one round for the participants in ``rows``.

    ``client_ids`` are the coordinates fed to the keyed fault oracles
    (defaults to ``rows``) — the adapter passes its object clients' ids
    here so a 64-client fleet replays the exact schedule the object
    stack would have drawn.
    """
    rows = np.asarray(rows, dtype=np.int64)
    if client_ids is None:
        client_ids = rows
    client_ids = np.asarray(client_ids, dtype=np.int64)
    if client_ids.shape != rows.shape:
        raise ValueError("client_ids must align with rows")
    decide = _decide_vectorized if vectorized else _decide_scalar
    return decide(state, injector, policy, int(round_index), rows,
                  client_ids, int(model_bytes), float(clock_start))


def _empty_decisions(rows, client_ids):
    zeros = np.zeros(0, dtype=np.int64)
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=zeros.copy(),
        survived=np.zeros(0, dtype=bool), lag=zeros.copy(),
        attempts=zeros.copy(), retries=zeros.copy(), up=zeros.copy(),
        down=zeros.copy(), wasted=zeros.copy(), sent=zeros.copy(),
        finish_s=np.zeros(0), duration=0.0)


def _decide_vectorized(state, injector, policy, round_index, rows,
                       client_ids, model_bytes, clock_start):
    if rows.shape[0] == 0:
        return _empty_decisions(rows, client_ids)
    bandwidth = state.link_bw[rows]
    latency = state.link_latency[rows]
    slowdown = state.slowdown[rows]
    with np.errstate(divide="ignore"):
        down_s = latency + model_bytes / bandwidth
    up_s = down_s
    feasible = (bandwidth > 0.0) & np.isfinite(down_s)
    outcome = np.where(feasible, OUT_BLOCKED, OUT_INFEASIBLE)
    count = rows.shape[0]
    t = np.zeros(count)
    lag = np.zeros(count, dtype=np.int64)
    attempts = np.zeros(count, dtype=np.int64)
    retries = np.zeros(count, dtype=np.int64)
    up = np.zeros(count, dtype=np.int64)
    down = np.zeros(count, dtype=np.int64)
    wasted = np.zeros(count, dtype=np.int64)
    sent = np.zeros(count, dtype=np.int64)
    pending = np.ones(count, dtype=bool)
    probe_wait = max(policy.backoff_base_s, 1.0)
    for attempt in range(policy.max_retries + 1):
        attempts += pending
        if attempt > 0:
            retries += pending
            t = t + np.where(pending, policy.backoff_s(attempt), 0.0)
        available = injector.link_available_array(clock_start + t)
        blocked = pending & ~available
        t = t + np.where(blocked, probe_wait, 0.0)
        active = pending & available & feasible
        if not active.any():
            continue
        # Compress to the rows this attempt runs, then ask each oracle
        # only about the rows whose fate still depends on it: the scalar
        # twin's decision order as shrinking index arrays into ``run``.
        # Straggler and staleness answer for every running row (the twin
        # reads both before the cut check, and ``lag`` records the draw).
        run = np.flatnonzero(active)
        ids = client_ids[run]
        factor = injector.straggler_factor_array(round_index, ids, attempt)
        lag_now = injector.staleness_array(round_index, ids, attempt)
        compute_s = policy.base_compute_s * slowdown[run] * factor
        attempt_s = down_s[run] + compute_s + up_s[run]
        cut = compute_s > policy.straggler_cutoff_s
        timed_out = attempt_s > policy.timeout_s
        code = np.where(cut, OUT_CUT, OUT_TIMEOUT)
        elapsed = np.where(cut, down_s[run], policy.timeout_s)
        # Dropout: asked of the rows neither cut nor timed out.  The rows
        # that upload stay marked stale until the staleness check clears
        # them.
        asked = np.flatnonzero(~(cut | timed_out))
        dropped = injector.drops_out_array(round_index, ids[asked], attempt)
        code[asked] = np.where(dropped, OUT_DROPOUT, OUT_STALE)
        uploaded = asked[~dropped]
        elapsed[uploaded] = attempt_s[uploaded]
        # Corruption: asked of the uploads that were not stale.
        fresh = uploaded[lag_now[uploaded] <= policy.max_staleness]
        corrupt = injector.corrupts_array(round_index, ids[fresh], attempt)
        code[fresh] = OUT_CORRUPT
        # Upload loss: asked of the uploads that were not corrupted.
        clean = fresh[~corrupt]
        lost = injector.upload_lost_array(round_index, ids[clean], attempt)
        code[clean] = np.where(lost, OUT_LOST, OUT_SUCCESS)
        won = run[clean[~lost]]
        t[run] += elapsed
        sent[run] += model_bytes * _SENT_TRANSFERS[code]
        wasted[run] += model_bytes * _WASTED_TRANSFERS[code]
        up[won] += model_bytes
        down[won] += model_bytes
        outcome[run] = code
        lag[run] = lag_now
        pending[won] = False
    survived = outcome == OUT_SUCCESS
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=outcome,
        survived=survived, lag=lag, attempts=attempts, retries=retries,
        up=up, down=down, wasted=wasted, sent=sent, finish_s=t,
        duration=float(t.max()))


def _decide_scalar(state, injector, policy, round_index, rows, client_ids,
                   model_bytes, clock_start):
    """Per-client reference twin: the object path's decision loop.

    Spelled out with the exact same float expressions, element by
    element, as :func:`_decide_vectorized`, so the two paths agree
    bit-for-bit (the scalar oracles are bit-identical to the batch
    oracles by the keystream property tests).
    """
    if rows.shape[0] == 0:
        return _empty_decisions(rows, client_ids)
    probe_wait = max(policy.backoff_base_s, 1.0)
    outcomes, lags, attempts_out, retries_out = [], [], [], []
    ups, downs, wasteds, sents, finishes = [], [], [], [], []
    with np.errstate(divide="ignore"):
        # Deliberate per-client loop: this is the reference twin, not
        # the hot path.
        for row, cid in zip(rows.tolist(), client_ids.tolist()):
            bandwidth = state.link_bw[row]
            down_s = state.link_latency[row] + model_bytes / bandwidth
            up_s = down_s
            feasible = bool(bandwidth > 0.0) and bool(np.isfinite(down_s))
            outcome = OUT_BLOCKED if feasible else OUT_INFEASIBLE
            t = 0.0
            lag = 0
            attempts = retries = up = down = wasted = sent = 0
            for attempt in range(policy.max_retries + 1):
                attempts += 1
                if attempt > 0:
                    retries += 1
                    t = t + policy.backoff_s(attempt)
                if not injector.link_available(clock_start + t):
                    t = t + probe_wait
                    continue
                if not feasible:
                    continue
                factor = injector.straggler_factor(round_index, cid, attempt)
                compute_s = policy.base_compute_s * state.slowdown[row] \
                    * factor
                attempt_s = down_s + compute_s + up_s
                lag = injector.staleness(round_index, cid, attempt)
                if compute_s > policy.straggler_cutoff_s:
                    outcome = OUT_CUT
                    t = t + down_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if attempt_s > policy.timeout_s:
                    outcome = OUT_TIMEOUT
                    t = t + policy.timeout_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if injector.drops_out(round_index, cid, attempt):
                    outcome = OUT_DROPOUT
                    t = t + policy.timeout_s
                    wasted += model_bytes
                    sent += model_bytes
                    continue
                if lag > policy.max_staleness:
                    outcome = OUT_STALE
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                if injector.corrupts(round_index, cid, attempt):
                    outcome = OUT_CORRUPT
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                if injector.upload_lost(round_index, cid, attempt):
                    outcome = OUT_LOST
                    t = t + attempt_s
                    wasted += 2 * model_bytes
                    sent += 2 * model_bytes
                    continue
                outcome = OUT_SUCCESS
                t = t + attempt_s
                up += model_bytes
                down += model_bytes
                sent += 2 * model_bytes
                break
            outcomes.append(outcome)
            lags.append(lag)
            attempts_out.append(attempts)
            retries_out.append(retries)
            ups.append(up)
            downs.append(down)
            wasteds.append(wasted)
            sents.append(sent)
            finishes.append(t)
    outcome = np.asarray(outcomes, dtype=np.int64)
    finish_s = np.asarray(finishes)
    return RoundDecisions(
        rows=rows, client_ids=client_ids, outcome=outcome,
        survived=outcome == OUT_SUCCESS,
        lag=np.asarray(lags, dtype=np.int64),
        attempts=np.asarray(attempts_out, dtype=np.int64),
        retries=np.asarray(retries_out, dtype=np.int64),
        up=np.asarray(ups, dtype=np.int64),
        down=np.asarray(downs, dtype=np.int64),
        wasted=np.asarray(wasteds, dtype=np.int64),
        sent=np.asarray(sents, dtype=np.int64),
        finish_s=finish_s, duration=float(finish_s.max()))
