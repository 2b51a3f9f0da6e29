"""Layer-rule coverage audit: every shaped layer must compile.

The shapes registry (:mod:`repro.analysis.shapes`) defines which
``repro.nn`` layers the static analyses understand; the plan compilers
share one layer-rule registry, ``repro.train.plan._TRAIN_RULES``
(serving plans build through its forward-only mode).  A layer that
gains a shape rule but not a layer rule silently falls back to an
error at the first trace — this audit turns that gap into a
``make check`` failure: every class in ``shapes.covered_layers()``
must resolve a rule through its MRO.
"""

from __future__ import annotations

from .ir import Violation

__all__ = ["audit_rule_coverage"]


def audit_rule_coverage(extra_classes=()):
    """Cross-check the layer-rule registry against the shapes registry.

    ``extra_classes`` adds module classes beyond the shapes registry
    (the missing-rule injection hook used by the negative tests).
    """
    from ...train.plan import _TRAIN_RULES
    from .. import shapes

    classes = sorted(set(shapes.covered_layers()) | set(extra_classes),
                     key=lambda cls: cls.__name__)
    return [
        Violation(
            "missing-rule",
            "layer {!r} has a shapes rule but no layer rule — register "
            "one with repro.train.plan.register_train_rule".format(
                cls.__name__),
            case="rule-coverage",
        )
        for cls in classes
        if not any(base in _TRAIN_RULES for base in cls.__mro__)
    ]
