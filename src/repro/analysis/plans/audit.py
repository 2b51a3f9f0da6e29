"""The plan audit driver and CLI.

``python -m repro.analysis.plans audit`` runs, for every architecture
in the audit registry at every requested dtype:

* serve-plan extraction + two-fill definedness proof, dead-buffer and
  aliasing checks, then slot coloring with its semantics-preservation
  verification;
* the same over the compiled training step (forward, gradient zeroing,
  backward, optimizer updates);
* the dynamic batching-server isolation audit
  (:func:`audit_server_isolation`);
* the layer-rule coverage cross-check against the shapes registry.

Exit status is non-zero iff any violation is found.  ``--inject``
plants one synthetic violation of a chosen class and expects the audit
to report it — the self-test the Makefile target and the negative test
suite both rely on.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

from .analyses import (
    check_aliasing,
    check_defined_before_read,
    find_dead_buffers,
    find_dead_stores,
)
from .ir import PlanIR, Violation

__all__ = ["audit_case", "audit_all", "audit_server_isolation",
           "injected_violations", "main"]

_DTYPES = {"float32": np.float32, "float64": np.float64}
_INJECT_KINDS = ("read-before-write", "aliased-write", "dead-store",
                 "missing-rule")


def audit_case(name, dtype=np.float64, kinds=("serve", "train"),
               color=True):
    """Audit one registry case; returns ``(violations, reports)``.

    ``reports`` maps ``"serve"``/``"train"`` to the coloring
    :class:`~repro.analysis.plans.color.SlotReport` (when ``color``).
    """
    from ...serve.plan import Plan
    from ...train.plan import TrainPlan
    from .color import color_plan, color_train_plan
    from .extract import extract_plan_ir, extract_train_ir
    from .registry import AUDIT_CASES, build_case

    case = AUDIT_CASES[name]
    violations = []
    reports = {}

    if "serve" in kinds:
        module, inputs, _ = build_case(name, dtype)
        module.train(False)
        plan = Plan(module)
        tag = "{}/serve/{}".format(name, np.dtype(dtype).name)
        ir, vios = extract_plan_ir(plan, inputs, label=tag)
        violations += vios
        violations += find_dead_buffers(ir)
        violations += check_aliasing(ir)
        if color:
            report = color_plan(plan, inputs, ir)
            # The coloring must itself be alias-free under the checker.
            from .color import build_slot_plan

            violations += check_aliasing(ir, build_slot_plan(ir).assignments)
            reports["serve"] = report

    if "train" in kinds:
        module, inputs, target = build_case(name, dtype)
        plan = TrainPlan(module, loss="mse", optimizer=case.optimizer,
                         optimizer_args=case.optimizer_args)
        plan.step(inputs, target)
        tag = "{}/train/{}".format(name, np.dtype(dtype).name)
        ir, vios = extract_train_ir(plan, inputs, target, label=tag)
        violations += vios
        violations += find_dead_buffers(ir)
        violations += check_aliasing(ir)
        if color:
            from .color import build_slot_plan

            report = color_train_plan(plan, inputs, target, ir)
            violations += check_aliasing(ir, build_slot_plan(ir).assignments)
            reports["train"] = report

    return violations, reports


def audit_all(cases=None, dtypes=(np.float64,), kinds=("serve", "train"),
              color=True, emit=None):
    """Audit the registry plus the server-isolation and coverage checks."""
    from .coverage import audit_rule_coverage
    from .registry import AUDIT_CASES

    emit = emit or (lambda line: None)
    violations = []
    reports = {}
    for name in (cases if cases is not None else sorted(AUDIT_CASES)):
        for dtype in dtypes:
            vios, case_reports = audit_case(name, dtype, kinds, color)
            violations += vios
            for kind, report in case_reports.items():
                reports[(name, np.dtype(dtype).name, kind)] = report
                emit("  {:<24} {:>9} -> {:>9} bytes  (-{:>5.1f}%)".format(
                    report.label, report.before_bytes, report.after_bytes,
                    100.0 * report.reduction))
            if vios:
                emit("  {}/{}: {} violation(s)".format(
                    name, np.dtype(dtype).name, len(vios)))
    violations += audit_server_isolation()
    violations += audit_rule_coverage()
    return violations, reports


def audit_server_isolation(case=None):
    """Drive the serving fleet; check per-ticket memory isolation.

    A one-model, one-tenant registry is frozen, so its traces are
    audited and slot-colored over the shared arena pool.  More vectors
    than one batch holds are then submitted (so both the batch-full and
    the deadline flush run, at two batch sizes), and every ticket's
    result row must be numerically correct and share no memory with any
    other ticket's result or with the output buffer of any warm trace:
    the fleet reads each replay via ``run(copy=False)``, and pooled
    traces lease the same arena slabs.
    """
    from ... import nn
    from ...faults import SimulatedClock
    from ...serve.fleet import FleetServer, ModelRegistry, TenantConfig
    from ...serve.plan import _call_eager, _strip_output
    from ...serve.server import VectorCollator

    case = case or "server-isolation"
    rng = np.random.default_rng(7)
    model = nn.Sequential(nn.Linear(6, 4, rng=rng), nn.Tanh())
    model.train(False)
    registry = ModelRegistry()
    entry = registry.register("model", model, VectorCollator(),
                              [np.zeros(6)], max_batch=4)
    registry.freeze()
    clock = SimulatedClock()
    fleet = FleetServer(registry, [TenantConfig("tenant")], clock=clock,
                        max_wait_ms=1.0)

    payloads = [rng.standard_normal(6) for _ in range(9)]
    tickets = [fleet.submit("tenant", p, model="model") for p in payloads]
    clock.advance(0.01)
    fleet.poll()
    fleet.flush()

    violations = []
    results = []
    for index, ticket in enumerate(tickets):
        if not ticket.done:
            violations.append(Violation(
                "isolation",
                "ticket {} never resolved".format(index), case=case))
            continue
        results.append((index, ticket.result()))

    outputs = [trace.output for trace in entry.plan._traces.values()]
    for index, row in results:
        expected = _strip_output(
            _call_eager(model, payloads[index][None, :]))[0]
        if not np.allclose(row, expected, rtol=1e-10, atol=1e-12):
            violations.append(Violation(
                "isolation",
                "ticket {} result differs from the eager model".format(
                    index),
                case=case,
            ))
        if any(np.shares_memory(row, output) for output in outputs):
            violations.append(Violation(
                "isolation",
                "ticket {} result aliases a warm trace's reused output "
                "buffer".format(index),
                case=case,
            ))
    for pos, (index_a, row_a) in enumerate(results):
        for index_b, row_b in results[pos + 1:]:
            if np.shares_memory(row_a, row_b):
                violations.append(Violation(
                    "isolation",
                    "tickets {} and {} share result memory".format(
                        index_a, index_b),
                    case=case,
                ))
    return violations


def injected_violations(kind):
    """Plant one synthetic violation of ``kind``; return what the audit
    reports for it.  An empty list means the auditor failed its
    self-test."""
    if kind == "read-before-write":
        ir = PlanIR("inject:read-before-write")
        ir.buffer("x", (4,), is_input=True)
        ir.buffer("acc", (4,))
        ir.buffer("y", (4,), is_output=True)
        ir.step("accumulate", reads=["x", "acc"], writes=["acc"])
        ir.step("emit", reads=["acc"], writes=["y"])
        return check_defined_before_read(ir)
    if kind == "aliased-write":
        ir = PlanIR("inject:aliased-write")
        ir.buffer("x", (4,), is_input=True)
        a = ir.buffer("a", (4,))
        ir.buffer("b", (4,), lo=a.lo + 8)  # overlaps a's tail
        ir.buffer("y", (4,), is_output=True)
        ir.step("fill_a", reads=["x"], writes=["a"])
        ir.step("fill_b", reads=["x"], writes=["b"])
        ir.step("emit", reads=["a", "b"], writes=["y"])
        return check_aliasing(ir)
    if kind == "dead-store":
        ir = PlanIR("inject:dead-store")
        ir.buffer("x", (4,), is_input=True)
        ir.buffer("tmp", (4,))
        ir.buffer("y", (4,), is_output=True)
        ir.step("store", reads=["x"], writes=["tmp"])
        ir.step("clobber", reads=["x"], writes=["tmp"])
        ir.step("emit", reads=["tmp"], writes=["y"])
        return find_dead_stores(ir)
    if kind == "missing-rule":
        from ... import nn
        from .coverage import audit_rule_coverage

        class _InjectedLayer(nn.Module):
            pass

        return audit_rule_coverage(extra_classes=[_InjectedLayer])
    raise ValueError(
        "unknown injection {!r}; pick from {}".format(kind, _INJECT_KINDS))


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.plans",
        description="Audit compiled serve/train plans.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    audit = sub.add_parser("audit", help="run the full plan audit")
    audit.add_argument("--case", action="append", default=None,
                       help="registry case name (repeatable; default all)")
    audit.add_argument("--dtype", action="append", choices=sorted(_DTYPES),
                       default=None, help="dtype (repeatable; default "
                       "float64; pass twice for both)")
    audit.add_argument("--kind", action="append", choices=["serve", "train"],
                       default=None, help="plan kind (repeatable)")
    audit.add_argument("--no-color", action="store_true",
                       help="skip the arena slot-coloring stage")
    audit.add_argument("--inject", choices=_INJECT_KINDS,
                       help="plant one synthetic violation; exits 1 when "
                       "the audit reports it, 2 if it slips through")
    args = parser.parse_args(argv)

    if args.inject:
        vios = injected_violations(args.inject)
        for vio in vios:
            print(vio)
        if not vios:
            print("FAIL: injected {} violation was not detected".format(
                args.inject))
            return 2
        print("injected {} violation detected ({} finding(s))".format(
            args.inject, len(vios)))
        return 1

    dtypes = [_DTYPES[d] for d in (args.dtype or ["float64"])]
    kinds = tuple(args.kind or ("serve", "train"))
    violations, reports = audit_all(
        cases=args.case, dtypes=dtypes, kinds=kinds,
        color=not args.no_color, emit=print)
    total_before = sum(r.before_bytes for r in reports.values())
    total_after = sum(r.after_bytes for r in reports.values())
    if reports:
        print("arena bytes: {} -> {} (-{:.1f}%) across {} plans".format(
            total_before, total_after,
            100.0 * (total_before - total_after) / max(total_before, 1),
            len(reports)))
    if violations:
        print("{} violation(s):".format(len(violations)))
        for vio in violations:
            print("  {}".format(vio))
        return 1
    print("plan audit clean: {} plan(s), 0 violations".format(
        max(len(reports), 1)))
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
