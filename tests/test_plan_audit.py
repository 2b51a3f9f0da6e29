"""Plan IR auditor: clean over the registry, loud on planted defects.

Three layers of assurance:

* the full audit (every registry case, serve + train, float32 and
  float64, serve-plan coloring enabled) reports zero violations
  through the real CLI entry point;
* every analysis pass flags its hand-built negative IR, and every CLI
  injection class exits non-zero;
* slot coloring meets the arena-reduction bar on the multi-view
  serving plan and is semantics-preserving (bit-identical replays)
  after being applied.
"""

import numpy as np
import pytest

from repro import nn
from repro.analysis.plans import (
    PlanIR,
    audit_all,
    audit_case,
    audit_rule_coverage,
    audit_server_isolation,
    build_slot_plan,
    check_aliasing,
    check_defined_before_read,
    color_plan,
    extract_plan_ir,
    find_dead_buffers,
    find_dead_stores,
    liveness,
)
from repro.analysis.plans.audit import injected_violations, main
from repro.analysis.plans.registry import AUDIT_CASES, build_case
from repro.serve import BufferArena
from repro.serve.arena import SlotPlan
from repro.serve.plan import Plan

# ----------------------------------------------------------------------
# IR + static passes on hand-built programs
# ----------------------------------------------------------------------


def _linear_ir():
    ir = PlanIR("fixture")
    ir.buffer("x", (4,), is_input=True)
    ir.buffer("tmp", (4,))
    ir.buffer("y", (4,), is_output=True)
    ir.step("square", reads=["x"], writes=["tmp"])
    ir.step("emit", reads=["tmp"], writes=["y"])
    return ir


def test_clean_ir_passes_every_static_check():
    ir = _linear_ir()
    assert check_defined_before_read(ir) == []
    assert find_dead_buffers(ir) == []
    assert find_dead_stores(ir) == []
    assert check_aliasing(ir) == []


def test_liveness_intervals_span_first_to_last_use():
    ir = _linear_ir()
    intervals = liveness(ir)
    assert intervals[ir["x"].index] == (0, 0)
    assert intervals[ir["tmp"].index] == (0, 1)
    assert intervals[ir["y"].index] == (1, 1)


def test_read_before_write_is_flagged():
    ir = PlanIR("neg")
    ir.buffer("x", (4,), is_input=True)
    ir.buffer("acc", (4,))
    ir.step("accumulate", reads=["x", "acc"], writes=["acc"])
    vios = check_defined_before_read(ir)
    assert [v.kind for v in vios] == ["read-before-write"]
    assert "acc" in vios[0].message


def test_persistent_buffer_is_defined_at_entry():
    ir = PlanIR("persistent")
    ir.buffer("x", (4,), is_input=True)
    ir.buffer("state", (4,), persistent=True)
    ir.step("accumulate", reads=["x", "state"], writes=["state"])
    assert check_defined_before_read(ir) == []


def test_aliased_write_is_flagged():
    ir = PlanIR("neg")
    ir.buffer("x", (4,), is_input=True)
    a = ir.buffer("a", (4,))
    ir.buffer("b", (4,), lo=a.lo + 8)
    ir.step("fill_a", reads=["x"], writes=["a"])
    ir.step("fill_b", reads=["x"], writes=["b"])
    ir.step("emit", reads=["a", "b"], writes=[])
    vios = check_aliasing(ir)
    assert [v.kind for v in vios] == ["aliased-write"]


def test_disjoint_lifetimes_may_overlap_physically():
    # The whole point of slot reuse: overlap is fine once liveness says
    # the two values never coexist.
    ir = PlanIR("reuse")
    ir.buffer("x", (4,), is_input=True)
    a = ir.buffer("a", (4,))
    ir.buffer("b", (4,), lo=a.lo)
    ir.buffer("y", (4,), is_output=True)
    ir.step("fill_a", reads=["x"], writes=["a"])
    ir.step("drain_a", reads=["a"], writes=["y"])
    ir.step("fill_b", reads=["x"], writes=["b"])
    assert check_aliasing(ir) == []


def test_dead_store_is_flagged():
    ir = PlanIR("neg")
    ir.buffer("x", (4,), is_input=True)
    ir.buffer("tmp", (4,))
    ir.step("store", reads=["x"], writes=["tmp"])
    ir.step("clobber", reads=["x"], writes=["tmp"])
    ir.step("read", reads=["tmp"], writes=[])
    vios = find_dead_stores(ir)
    assert [v.kind for v in vios] == ["dead-store"]
    assert "overwrites" in vios[0].message


def test_dead_buffer_is_flagged():
    ir = _linear_ir()
    ir.buffer("unused", (16,))
    vios = find_dead_buffers(ir)
    assert [v.kind for v in vios] == ["dead-buffer"]
    assert "unused" in vios[0].message


def test_extracted_ir_rejects_static_only_passes():
    ir = PlanIR("conservative", precise=False)
    with pytest.raises(ValueError):
        check_defined_before_read(ir)
    with pytest.raises(ValueError):
        find_dead_stores(ir)


# ----------------------------------------------------------------------
# Serving isolation
# ----------------------------------------------------------------------


def test_server_isolation_audit_is_clean():
    assert audit_server_isolation() == []


# ----------------------------------------------------------------------
# Rule coverage
# ----------------------------------------------------------------------


def test_rule_coverage_is_complete():
    assert audit_rule_coverage() == []


def test_missing_rule_is_flagged_for_injected_layer():
    class Orphan(nn.Module):
        pass

    vios = audit_rule_coverage(extra_classes=[Orphan])
    assert {v.kind for v in vios} == {"missing-rule"}
    assert len(vios) == 1  # one layer-rule registry serves both compilers


# ----------------------------------------------------------------------
# SlotPlan arena mechanics
# ----------------------------------------------------------------------


def test_slot_plan_arena_shares_backing_between_members():
    plan = SlotPlan({0: 0, 2: 0}, {0: 64})
    arena = BufferArena(slot_plan=plan)
    a = arena.alloc((8,), np.float64)
    b = arena.alloc((4,), np.float64)
    c = arena.alloc((4,), np.float32)
    assert np.shares_memory(a, c)
    assert not np.shares_memory(a, b)
    # The shared backing is counted once, at slot capacity.
    assert arena.nbytes == 64 + b.nbytes


def test_slot_plan_rejects_member_over_capacity():
    arena = BufferArena(slot_plan=SlotPlan({0: 0}, {0: 16}))
    with pytest.raises(ValueError):
        arena.alloc((8,), np.float64)


def test_slot_plan_rejects_persistent_member():
    arena = BufferArena(slot_plan=SlotPlan({0: 0, 1: 0}, {0: 64}))
    with pytest.raises(ValueError):
        arena.alloc((4,), np.float64, persistent=True)


# ----------------------------------------------------------------------
# Extraction + coloring on real plans
# ----------------------------------------------------------------------


def _mvm_case():
    return build_case("deepmood_mvm", np.float64)


def test_serve_extraction_is_side_effect_free():
    module, inputs, _ = _mvm_case()
    module.train(False)
    plan = Plan(module)
    before = np.array(plan.run(inputs), copy=True)
    ir, vios = extract_plan_ir(plan, inputs)
    assert vios == []
    after = np.asarray(plan.run(inputs))
    np.testing.assert_array_equal(before, after)


def test_multiview_serve_plan_meets_reduction_bar():
    # The acceptance bar: >= 25% frozen-arena shrink on the DeepMood
    # multi-view serving plan, with the coloring's own verification
    # (structural match + two-fill bit-equality) having passed.
    module, inputs, _ = _mvm_case()
    module.train(False)
    plan = Plan(module)
    before = np.array(plan.run(inputs), copy=True)
    ir, vios = extract_plan_ir(plan, inputs)
    assert vios == []
    report = color_plan(plan, inputs, ir)
    assert report.reduction >= 0.25, report
    after = np.asarray(plan.run(inputs))
    np.testing.assert_array_equal(before, after)


def test_colored_slot_plan_is_alias_free_under_checker():
    module, inputs, _ = _mvm_case()
    module.train(False)
    plan = Plan(module)
    ir, _ = extract_plan_ir(plan, inputs)
    slot_plan = build_slot_plan(ir)
    assert slot_plan.assignments
    assert check_aliasing(ir, slot_plan.assignments) == []


# ----------------------------------------------------------------------
# Full-registry audit + CLI
# ----------------------------------------------------------------------


@pytest.mark.parametrize("dtype", [np.float32, np.float64],
                         ids=["float32", "float64"])
def test_full_registry_audit_is_clean(dtype):
    violations, reports = audit_all(dtypes=[dtype])
    assert violations == []
    # Every case produced both a serve and a train coloring report.
    assert len(reports) == 2 * len(AUDIT_CASES)


def test_audit_case_covers_both_kinds():
    vios, reports = audit_case("fusion_fm", np.float32)
    assert vios == []
    assert set(reports) == {"serve", "train"}


def test_cli_audit_exits_zero_on_clean_cases(capsys):
    assert main(["audit", "--case", "identity", "--case", "grouped_conv",
                 "--dtype", "float32", "--dtype", "float64"]) == 0
    out = capsys.readouterr().out
    assert "plan audit clean" in out
    assert "arena bytes" in out


@pytest.mark.parametrize("kind", ["read-before-write", "aliased-write",
                                  "dead-store", "missing-rule"])
def test_cli_injections_exit_nonzero(kind, capsys):
    assert main(["audit", "--inject", kind]) == 1
    out = capsys.readouterr().out
    assert "detected" in out


@pytest.mark.parametrize("kind", ["read-before-write", "aliased-write",
                                  "dead-store", "missing-rule"])
def test_each_injection_produces_its_kind(kind):
    vios = injected_violations(kind)
    assert vios
    assert {v.kind for v in vios} == {kind}
