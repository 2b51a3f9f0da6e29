"""Determinism lint rules, run by :mod:`repro.analysis.lint` on library code.

Four rules, each targeting one way replay determinism quietly dies:

* ``det-unseeded-rng`` — ``np.random.default_rng()`` with no arguments
  draws OS entropy; the run can never be replayed.  Pass a seed or a
  derived key (:func:`repro.rng.derive_rng`).
* ``det-shared-stream`` — a generator bound *outside* a loop handed to
  a **constructor** *inside* the loop: every constructed unit retains
  the same stream, so adding/removing/reordering units silently changes
  every other unit's draws.  Derive a per-unit key instead.  Two shapes
  are deliberately not flagged: calling plain functions with the
  generator in a loop (the owner consuming its own stream in program
  order), and ``repro.nn`` module constructors (layers of one composite
  model sharing the init stream is the repo's documented idiom — the
  layers are not logically independent units).
* ``det-wall-clock`` — a wall-time read (``time.time``,
  ``perf_counter``, ``monotonic``, ``datetime.now``) in a module that
  participates in the simulated-clock story (mentions
  ``SimulatedClock``, takes an injectable ``clock``, or lives under a
  force-scoped directory such as ``repro/federated/fleet/``): real time
  leaking into a simulated timeline is the classic replay-divergence
  source.  Deliberate fallbacks carry inline waivers.
* ``det-unordered-iter`` — iterating a ``set``/``frozenset`` (or
  summing/joining one) feeds nondeterministic order into whatever
  consumes the elements; float accumulation and RNG consumption are
  order-sensitive even when the element *set* is identical.  Wrap in
  ``sorted(...)``.  Membership tests and ``len``/``min``/``max`` are
  order-free and not flagged.

Suppression: the standard ``# repro-lint: allow[rule] reason`` inline
waiver (handled by the caller, :func:`repro.analysis.lint.lint_file`).
"""

from __future__ import annotations

import ast

from ..lint import Violation, _attribute_chain

__all__ = ["DET_RULES", "det_lint"]

DET_RULES = ("det-unseeded-rng", "det-shared-stream", "det-wall-clock",
             "det-unordered-iter")

_WALL_CLOCK_CALLS = {
    ("time", "time"), ("time", "time_ns"),
    ("time", "monotonic"), ("time", "monotonic_ns"),
    ("time", "perf_counter"), ("time", "perf_counter_ns"),
    ("time", "process_time"),
}
_WALL_CLOCK_TAILS = {("datetime", "now"), ("datetime", "utcnow"),
                     ("date", "today")}

# Consumers of an iterable whose result does not depend on element
# order: safe on sets.
_ORDER_FREE_CONSUMERS = {"len", "min", "max", "set", "frozenset",
                         "sorted", "any", "all", "id", "bool"}

# Consumers that materialize or fold the iterable in iteration order.
_ORDER_SENSITIVE_CONSUMERS = {"sum", "list", "tuple", "join", "enumerate",
                              "iter", "next", "map", "filter", "zip"}


# ----------------------------------------------------------------------
# det-unseeded-rng
# ----------------------------------------------------------------------
def _unseeded_rng(path, tree):
    violations = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if chain and chain[-1] == "default_rng" and not node.args \
                and not node.keywords:
            violations.append(Violation(
                path, node.lineno, "det-unseeded-rng",
                "default_rng() with no seed draws OS entropy and can "
                "never be replayed; pass a seed or derive a key via "
                "repro.rng.derive_rng",
            ))
    return violations


# ----------------------------------------------------------------------
# det-shared-stream
# ----------------------------------------------------------------------
def _rng_factory_call(node):
    if not isinstance(node, ast.Call):
        return False
    chain = _attribute_chain(node.func)
    return bool(chain) and chain[-1] in ("default_rng", "derive_rng",
                                         "require_rng")


_NN_MODULE_NAMES = None


def _nn_module_names():
    """Class names exported by repro.nn (sanctioned init-rng sharers)."""
    global _NN_MODULE_NAMES
    if _NN_MODULE_NAMES is None:
        try:
            from ... import nn
        except Exception:  # pragma: no cover - partial installs
            _NN_MODULE_NAMES = frozenset()
        else:
            _NN_MODULE_NAMES = frozenset(
                name for name in dir(nn)
                if isinstance(getattr(nn, name), type))
    return _NN_MODULE_NAMES


class _SharedStreamVisitor(ast.NodeVisitor):
    """Flags rng names bound outside a loop but handed off inside one."""

    def __init__(self, path):
        self.path = path
        self.violations = []
        # name -> line of the most recent binding, per function scope.
        self.scopes = [{}]
        self.loops = []  # (lineno, end_lineno) stack

    def _bind(self, name, line):
        self.scopes[-1][name] = line

    def _binding_line(self, name):
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None

    def _enter_function(self, node):
        self.scopes.append({})
        for arg in (list(node.args.posonlyargs) + list(node.args.args)
                    + list(node.args.kwonlyargs)):
            if arg.arg == "rng" or arg.arg.endswith("_rng"):
                self._bind(arg.arg, node.lineno)
        self.generic_visit(node)
        self.scopes.pop()

    visit_FunctionDef = _enter_function
    visit_AsyncFunctionDef = _enter_function

    def visit_Assign(self, node):
        if _rng_factory_call(node.value):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    self._bind(target.id, node.lineno)
        self.generic_visit(node)

    def _enter_loop(self, node):
        self.loops.append((node.lineno, getattr(node, "end_lineno",
                                                node.lineno)))
        self.generic_visit(node)
        self.loops.pop()

    visit_For = _enter_loop
    visit_While = _enter_loop
    visit_AsyncFor = _enter_loop

    def visit_Call(self, node):
        chain = _attribute_chain(node.func)
        # Only constructors retain the generator past the call; plain
        # functions consume draws in program order, which stays
        # deterministic.  nn layer classes are the sanctioned exception
        # (one composite model's init stream).
        is_constructor = (chain
                          and chain[-1].lstrip("_")[:1].isupper()
                          and chain[-1] not in _nn_module_names())
        if self.loops and is_constructor:
            loop_start, loop_end = self.loops[-1]
            for arg in list(node.args) + [kw.value for kw in node.keywords]:
                if not isinstance(arg, ast.Name):
                    continue
                bound = self._binding_line(arg.id)
                if bound is None or loop_start <= bound <= loop_end:
                    continue
                self.violations.append(Violation(
                    self.path, node.lineno, "det-shared-stream",
                    "generator {!r} bound outside this loop is retained "
                    "by {} constructed per iteration; every unit shares "
                    "one stream, so reordering units perturbs all their "
                    "draws — derive a per-unit key "
                    "(repro.rng.derive_rng)".format(arg.id, chain[-1]),
                ))
        self.generic_visit(node)


# ----------------------------------------------------------------------
# det-wall-clock
# ----------------------------------------------------------------------
def _mentions_simulated_clock(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id == "SimulatedClock":
            return True
        if isinstance(node, ast.Attribute) and node.attr == "SimulatedClock":
            return True
        if isinstance(node, ast.ClassDef) and node.name == "SimulatedClock":
            return True
        if isinstance(node, (ast.ImportFrom, ast.Import)):
            for item in node.names:
                if item.name.endswith("SimulatedClock"):
                    return True
    return False


def _takes_injectable_clock(tree):
    """Whether the module's components accept a ``clock`` to drive time."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for arg in (list(node.args.posonlyargs) + list(node.args.args)
                        + list(node.args.kwonlyargs)):
                if arg.arg == "clock":
                    return True
        elif isinstance(node, ast.Assign):
            for target in node.targets:
                if isinstance(target, ast.Attribute) \
                        and target.attr == "clock":
                    return True
    return False


# Directories where det-wall-clock applies unconditionally (posix
# substring match): every fleet-simulator module lives on the simulated
# timeline whether or not it names SimulatedClock, so a wall-time read
# there is always a replay hazard.
_WALL_CLOCK_FORCED_SCOPE = ("repro/federated/fleet/",)


def _wall_clock(path, tree):
    posix = path.replace("\\", "/")
    forced = any(part in posix for part in _WALL_CLOCK_FORCED_SCOPE)
    if not (forced or _mentions_simulated_clock(tree)
            or _takes_injectable_clock(tree)):
        return []
    violations = []
    for node in ast.walk(tree):
        # References, not just calls: ``self.clock = time.monotonic``
        # binds the wall clock as the component's timeline.
        if not isinstance(node, ast.Attribute):
            continue
        chain = _attribute_chain(node)
        if not chain or len(chain) < 2:
            continue
        hit = (chain[-2:] in _WALL_CLOCK_CALLS and chain[0] == "time") \
            or chain[-2:] in _WALL_CLOCK_TAILS
        if hit:
            violations.append(Violation(
                path, node.lineno, "det-wall-clock",
                "{} in a module that participates in the "
                "simulated-clock story; real time leaking into a "
                "simulated timeline breaks replay — take the clock as a "
                "parameter, or waive a deliberate real-time "
                "fallback".format(".".join(chain)),
            ))
    return violations


# ----------------------------------------------------------------------
# det-unordered-iter
# ----------------------------------------------------------------------
_SET_METHODS = ("union", "difference", "intersection",
                "symmetric_difference", "copy")
_SET_OPS = (ast.BitOr, ast.Sub, ast.BitAnd, ast.BitXor)
_FUNCTION_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _collect_attr_sets(tree):
    """Attribute names assigned set-valued anywhere in the file.

    Attributes live on objects shared across methods, so they are
    tracked file-globally (self._seen in __init__, iterated in close).
    """
    attrs = set()
    for node in ast.walk(tree):
        targets = []
        if isinstance(node, ast.Assign):
            value, targets = node.value, node.targets
        elif isinstance(node, ast.AugAssign) \
                and isinstance(node.op, _SET_OPS):
            value, targets = node.value, [node.target]
        else:
            continue
        if isinstance(value, (ast.Set, ast.SetComp)) or (
                isinstance(value, ast.Call)
                and (chain := _attribute_chain(value.func))
                and chain[-1] in ("set", "frozenset")):
            for target in targets:
                if isinstance(target, ast.Attribute):
                    attrs.add(target.attr)
    return attrs


def _scope_body(scope):
    return scope.body if isinstance(scope.body, list) else [scope.body]


def _scope_statements(scope):
    """Statements of one scope, excluding nested function bodies."""
    result = []
    stack = list(_scope_body(scope))
    while stack:
        node = stack.pop()
        if isinstance(node, _FUNCTION_NODES + (ast.ClassDef,)):
            continue
        result.append(node)
        for child in ast.iter_child_nodes(node):
            if not isinstance(child, _FUNCTION_NODES + (ast.ClassDef,)):
                stack.append(child)
    return result


class _UnorderedIterChecker:
    """Scope-aware tracking of set-valued names and their iterations."""

    def __init__(self, path, tree):
        self.path = path
        self.attrs = _collect_attr_sets(tree)
        self.violations = []

    def is_set_valued(self, expr, names):
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call):
            chain = _attribute_chain(expr.func)
            if chain and chain[-1] in ("set", "frozenset"):
                return True
            if isinstance(expr.func, ast.Attribute) \
                    and expr.func.attr in _SET_METHODS:
                return self.is_set_valued(expr.func.value, names)
        if isinstance(expr, ast.BinOp) and isinstance(expr.op, _SET_OPS):
            return (self.is_set_valued(expr.left, names)
                    or self.is_set_valued(expr.right, names))
        if isinstance(expr, ast.Name):
            return expr.id in names
        if isinstance(expr, ast.Attribute):
            return expr.attr in self.attrs
        return False

    def _local_set_names(self, scope, inherited):
        names = set(inherited)
        if isinstance(scope, _FUNCTION_NODES):
            args = scope.args
            params = {a.arg for a in (list(args.posonlyargs)
                                      + list(args.args)
                                      + list(args.kwonlyargs))}
            if args.vararg:
                params.add(args.vararg.arg)
            if args.kwarg:
                params.add(args.kwarg.arg)
            names -= params  # parameters shadow outer bindings
        statements = _scope_statements(scope)
        # Two passes so forward references through union/copy resolve.
        for _ in range(2):
            for node in statements:
                if isinstance(node, ast.Assign) \
                        and self.is_set_valued(node.value, names):
                    for target in node.targets:
                        if isinstance(target, ast.Name):
                            names.add(target.id)
                elif isinstance(node, ast.AugAssign) \
                        and isinstance(node.op, _SET_OPS) \
                        and self.is_set_valued(node.value, names) \
                        and isinstance(node.target, ast.Name):
                    names.add(node.target.id)
        return names

    def _check_iter(self, node, expr, context, names):
        if isinstance(expr, ast.Call):
            chain = _attribute_chain(expr.func)
            if chain and chain[-1] in _ORDER_FREE_CONSUMERS:
                return
            if chain and chain[-1] in _ORDER_SENSITIVE_CONSUMERS:
                for arg in expr.args:
                    self._check_iter(node, arg, context, names)
                return
        if self.is_set_valued(expr, names):
            self.violations.append(Violation(
                self.path, node.lineno, "det-unordered-iter",
                "{} over a set iterates in hash order, which varies "
                "across processes; wrap in sorted(...) before feeding "
                "aggregation, scheduling, or output".format(context),
            ))

    def check_scope(self, scope, inherited=frozenset()):
        names = self._local_set_names(scope, inherited)
        statements = _scope_statements(scope)
        # A comprehension fed straight into an order-free consumer
        # (sorted(x for x in someset), frozenset(...)) is fine: the
        # consumer erases iteration order.
        exempt = set()
        for node in statements:
            if isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain and chain[-1] in _ORDER_FREE_CONSUMERS:
                    for arg in node.args:
                        if isinstance(arg, (ast.GeneratorExp, ast.ListComp,
                                            ast.SetComp)):
                            exempt.add(id(arg))
        for node in statements:
            if id(node) in exempt:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                self._check_iter(node, node.iter, "for-loop", names)
            elif isinstance(node, (ast.ListComp, ast.DictComp,
                                   ast.GeneratorExp)):
                # Set comprehensions *produce* a set; iterating a set
                # to build another is order-free.  List/dict/generator
                # results preserve iteration order, so those count.
                for gen in node.generators:
                    self._check_iter(node, gen.iter, "comprehension",
                                     names)
            elif isinstance(node, ast.Call):
                chain = _attribute_chain(node.func)
                if chain and chain[-1] in ("sum", "join"):
                    for arg in node.args:
                        if self.is_set_valued(arg, names):
                            self._check_iter(node, arg,
                                             chain[-1] + "()", names)
        # Recurse into nested scopes with the outer set names visible.
        stack = list(_scope_body(scope))
        while stack:
            node = stack.pop()
            if isinstance(node, _FUNCTION_NODES):
                self.check_scope(node, names)
            elif isinstance(node, ast.ClassDef):
                stack.extend(node.body)
            else:
                stack.extend(ast.iter_child_nodes(node))
        return self.violations


def _unordered_iter(path, tree):
    return _UnorderedIterChecker(path, tree).check_scope(tree)


def det_lint(path, tree, text=None):
    """All determinism-rule violations for one parsed module."""
    del text  # scope decisions are AST-based
    violations = []
    violations.extend(_unseeded_rng(path, tree))
    shared = _SharedStreamVisitor(path)
    shared.visit(tree)
    violations.extend(shared.violations)
    violations.extend(_wall_clock(path, tree))
    violations.extend(_unordered_iter(path, tree))
    return violations
