"""AST-based repo lint for numeric-hygiene rules.

Run as a module::

    python -m repro.analysis.lint src tests

Exit status is non-zero when any violation is found.  Four rules, each
born from a bug class the hand-written-numpy stack cannot afford:

* ``np-random`` — no global ``np.random.*``: the legacy global state
  makes federated/DP experiments irreproducible across call orders.
  Use ``np.random.default_rng(seed)`` and pass the generator down.
* ``dtype-literal`` — no bare ``np.float32``/``np.float64``: hard-coded
  float dtypes silently upcast float32 deployments (or downcast float64
  gradcheck paths).  Route through ``repro.tensor.get_default_dtype()``
  / ``as_float_array`` so the PR-1 dtype machinery stays in control.
* ``param-data`` — no ``.data`` assignment/mutation outside
  ``repro/optim/``: rebinding or writing a Parameter's array from
  arbitrary code bypasses the autograd contract (backward closures may
  hold the old array).  Weight surgery that genuinely needs it
  (compression, serialization) carries an inline waiver.
* ``hot-loop`` — no Python ``for``/``while`` in files tagged with a
  ``repro-lint: hot-kernel`` marker: loops over ndarrays in the im2col /
  engine hot path are exactly what PR 1 removed; deliberate reference
  loops carry inline waivers.
* ``alloc-in-loop`` — no allocating numpy calls (``np.zeros``,
  ``np.concatenate``, ``np.stack``, ...) inside ``for``/``while`` loops
  under ``repro/serve/``, ``repro/train/``, or
  ``repro/federated/fleet/``: the serving runtime's contract is zero
  allocation per replay, the fleet simulator's is no per-client work in
  a round, and an alloc in a loop is how those contracts quietly erode.
  Compile-time allocation loops (weight pinning, per-view buffer setup)
  and request-collation loops carry inline waivers.

Three concurrency rules run only under ``repro/train/`` and
``repro/serve/``.  Neither starts a worker or shares memory; the rules
guard the two runtimes a worker pool would join:

* ``shm-write-protocol`` — no write (``x[...] = ...``, ``out=x``,
  ``np.copyto(x, ...)``) into an ndarray backed by
  ``multiprocessing.shared_memory`` outside the reduction protocol.
  Every shared-slab write must be one of the protocol's ordered steps
  (e.g. publish params / worker grad row / fixed-order reduce) and
  carries an inline waiver saying which step it is.
* ``fork-after-thread`` — no ``get_context("fork")`` in a module that
  also uses ``threading``: forking after threads exist can deadlock the
  child on locks held by threads that do not survive the fork.
* ``unjoined-worker`` — a module that ``.start()``s a ``Process`` or
  ``Thread`` must also ``.join()`` it somewhere; daemonic fire-and-
  forget workers leak shared-memory slabs on interpreter teardown.

Files tagged with a ``repro-lint: privacy-critical`` marker additionally
run the five differential-privacy rules from
:mod:`repro.analysis.privacy.rules` (``dp-fixed-seed``,
``dp-shared-rng``, ``dp-noise-scale``, ``dp-unaccounted-release``,
``dp-epsilon-no-delta``).

Library files (any path containing ``repro/``) additionally run the
four determinism rules from :mod:`repro.analysis.determinism.rules`
(``det-unseeded-rng``, ``det-shared-stream``, ``det-wall-clock``,
``det-unordered-iter``) — the static layer of
``python -m repro.analysis.determinism audit``.

Suppression: end the offending line with ``# repro-lint: allow[rule]
<reason>``.  Per-path allowlists for whole directories live in
``PATH_ALLOW`` below.
"""

from __future__ import annotations

import argparse
import ast
import re
import sys
from pathlib import Path

__all__ = ["Violation", "lint_file", "lint_paths", "main", "RULES"]

RULES = ("np-random", "dtype-literal", "param-data", "hot-loop",
         "alloc-in-loop",
         "shm-write-protocol", "fork-after-thread", "unjoined-worker",
         "dp-fixed-seed", "dp-shared-rng", "dp-noise-scale",
         "dp-unaccounted-release", "dp-epsilon-no-delta",
         "det-unseeded-rng", "det-shared-stream", "det-wall-clock",
         "det-unordered-iter")

# np.random members that are fine: the Generator API and seeding plumbing.
NP_RANDOM_ALLOWED = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
}

FLOAT_DTYPE_LITERALS = {"float32", "float64"}

# numpy calls that allocate a fresh array every time they run.  Inside a
# loop in the serving runtime these defeat the buffer-arena contract.
NP_ALLOCATORS = {
    "empty", "zeros", "ones", "full", "array", "copy",
    "empty_like", "zeros_like", "ones_like", "full_like",
    "concatenate", "stack", "vstack", "hstack", "dstack",
    "column_stack", "pad", "tile", "repeat",
}

# The alloc-in-loop rule is scoped to the serving and compiled-training
# runtimes plus the vectorized fleet simulator (posix substring match):
# those are where the array-ops-only hot-path contracts live.
_ALLOC_SCOPE = ("repro/serve/", "repro/train/", "repro/federated/fleet/")

# The concurrency rules are scoped to the serving and training runtimes.
# Nothing in the library spawns workers or shares process memory; these
# are where such code would go, so the rules stand guard there.
_CONCURRENCY_SCOPE = ("repro/serve/", "repro/train/")

# The marker must sit in a comment line; string literals mentioning it
# (like the ones in this file) do not tag a file as hot.
_HOT_MARKER_RE = re.compile(r"^\s*#.*repro-lint:\s*hot-kernel", re.MULTILINE)

# Same convention for the DP rules: the marker tags a file as part of a
# privacy mechanism's trusted computing base.
_PRIVACY_MARKER_RE = re.compile(r"^\s*#.*repro-lint:\s*privacy-critical",
                                re.MULTILINE)

_ALLOW_RE = re.compile(r"repro-lint:\s*allow\[([a-z\-, ]+)\]")

# Whole directories where a rule does not apply (posix substring match).
PATH_ALLOW = {
    # Explicit float32/float64 is the *point* of dtype tests, of the
    # pure-numpy classical baselines (they never share arrays with the
    # autodiff engine, so the default-dtype machinery does not apply),
    # and of the analysis tooling that reasons *about* dtypes.
    "dtype-literal": (
        "tests/", "benchmarks/", "repro/baselines/", "repro/analysis/",
    ),
    # Optimizers are the sanctioned owner of parameter updates.
    "param-data": ("repro/optim/",),
}


class Violation:
    """One lint finding at ``path:line``."""

    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path, line, rule, message):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self):
        return "{}:{}: [{}] {}".format(self.path, self.line, self.rule,
                                       self.message)

    def __repr__(self):
        return "Violation({!r}, {}, {!r})".format(self.path, self.line,
                                                  self.rule)


def _numpy_aliases(tree):
    """Names bound to the numpy module ('np', 'numpy', ...)."""
    aliases = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for item in node.names:
                if item.name == "numpy":
                    aliases.add(item.asname or "numpy")
    return aliases


def _inline_allows(lines):
    """Map line number -> set of rule names waived on that line."""
    allows = {}
    for number, line in enumerate(lines, start=1):
        for match in _ALLOW_RE.finditer(line):
            rules = {r.strip() for r in match.group(1).split(",")}
            allows.setdefault(number, set()).update(rules)
    return allows


def _attribute_chain(node):
    """Dotted-name parts of an Attribute chain, or None if not plain names."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return tuple(reversed(parts))
    return None


def _data_mutation_target(node):
    """Return the base expression if ``node`` writes through ``<base>.data``."""
    # Strip subscripts: x.data[i] = ..., x.data[i][j] = ...
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute) and node.attr == "data":
        return node.value
    return None


class _Visitor(ast.NodeVisitor):
    def __init__(self, path, np_aliases, hot_file, alloc_scoped=False):
        self.path = path
        self.np_aliases = np_aliases
        self.hot_file = hot_file
        self.alloc_scoped = alloc_scoped
        self.loop_depth = 0
        self.violations = []

    def _report(self, node, rule, message):
        self.violations.append(Violation(self.path, node.lineno, rule, message))

    # -- np-random and dtype-literal ------------------------------------
    def visit_Attribute(self, node):
        chain = _attribute_chain(node)
        if chain and len(chain) >= 2 and chain[0] in self.np_aliases:
            if len(chain) >= 3 and chain[1] == "random" \
                    and chain[2] not in NP_RANDOM_ALLOWED:
                self._report(
                    node, "np-random",
                    "global np.random.{} is irreproducible across call "
                    "orders; use np.random.default_rng(seed)".format(chain[2]),
                )
            elif chain[1] in FLOAT_DTYPE_LITERALS:
                self._report(
                    node, "dtype-literal",
                    "bare np.{} pins the float dtype; route through "
                    "repro.tensor.get_default_dtype() or "
                    "as_float_array()".format(chain[1]),
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node):
        if node.module == "numpy.random":
            for item in node.names:
                if item.name not in NP_RANDOM_ALLOWED:
                    self._report(
                        node, "np-random",
                        "importing numpy.random.{} bypasses the Generator "
                        "API".format(item.name),
                    )
        elif node.module == "numpy":
            for item in node.names:
                if item.name in FLOAT_DTYPE_LITERALS:
                    self._report(
                        node, "dtype-literal",
                        "importing numpy.{} pins the float dtype".format(
                            item.name),
                    )
        self.generic_visit(node)

    # -- param-data ------------------------------------------------------
    def _check_data_write(self, target):
        base = _data_mutation_target(target)
        if base is None:
            return
        if isinstance(base, ast.Name) and base.id == "self":
            # Tensor/Module internals legitimately own their storage.
            return
        self._report(
            target, "param-data",
            "mutating .data outside repro/optim/ bypasses the autograd "
            "contract; use an optimizer step or add a waiver comment",
        )

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_data_write(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_data_write(node.target)
        self.generic_visit(node)

    # -- hot-loop and alloc-in-loop --------------------------------------
    def _check_loop(self, node):
        if self.hot_file:
            self._report(
                node, "hot-loop",
                "Python loop in a hot-kernel file; vectorize or add a "
                "waiver comment naming why the loop must stay",
            )
        self.loop_depth += 1
        try:
            self.generic_visit(node)
        finally:
            self.loop_depth -= 1

    visit_For = _check_loop
    visit_While = _check_loop
    visit_AsyncFor = _check_loop

    def visit_Call(self, node):
        if self.alloc_scoped and self.loop_depth > 0:
            chain = _attribute_chain(node.func)
            if (chain and len(chain) == 2 and chain[0] in self.np_aliases
                    and chain[1] in NP_ALLOCATORS):
                self._report(
                    node, "alloc-in-loop",
                    "np.{} inside a loop allocates per iteration and "
                    "breaks the serving arena's zero-alloc replay "
                    "contract; hoist into a preallocated buffer or add "
                    "a waiver naming why this runs at compile "
                    "time".format(chain[1]),
                )
        self.generic_visit(node)


# ----------------------------------------------------------------------
# Concurrency rules (scoped to repro/serve/ and repro/train/)
# ----------------------------------------------------------------------
def _shm_view_names(tree):
    """Names (attr or local) bound to ``np.ndarray(..., buffer=...)``."""
    names = set()
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Assign)
                and isinstance(node.value, ast.Call)):
            continue
        chain = _attribute_chain(node.value.func)
        if not (chain and chain[-1] == "ndarray"):
            continue
        if not any(kw.arg == "buffer" for kw in node.value.keywords):
            continue
        for target in node.targets:
            if isinstance(target, ast.Attribute):
                names.add(target.attr)
            elif isinstance(target, ast.Name):
                names.add(target.id)
    return names


def _base_name(node):
    """The attr/name a (possibly subscripted) expression writes through."""
    while isinstance(node, ast.Subscript):
        node = node.value
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class _ConcurrencyVisitor(ast.NodeVisitor):
    """shm-write-protocol, fork-after-thread, unjoined-worker."""

    def __init__(self, path, tree, np_aliases):
        self.path = path
        self.np_aliases = np_aliases
        self.shm_names = _shm_view_names(tree)
        self.violations = []
        self.uses_threading = False
        self.spawns_worker = False
        self.joins_worker = False
        self.starts = []  # (node, name) of .start() calls
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                if any(item.name == "threading" for item in node.names):
                    self.uses_threading = True
            elif isinstance(node, ast.ImportFrom):
                if node.module == "threading":
                    self.uses_threading = True

    def _report(self, node, rule, message):
        self.violations.append(
            Violation(self.path, node.lineno, rule, message))

    def _check_shm_write(self, node, target):
        name = _base_name(target)
        # Bare rebinding (``self._params = None``) releases the view;
        # only subscripted stores write through the shared mapping.
        if name in self.shm_names and isinstance(target, ast.Subscript):
            self._report(
                node, "shm-write-protocol",
                "write into shared-memory view {!r} outside the reduction "
                "protocol; make it a protocol step and waive it by "
                "name".format(name),
            )

    def visit_Assign(self, node):
        for target in node.targets:
            self._check_shm_write(node, target)
        self.generic_visit(node)

    def visit_AugAssign(self, node):
        self._check_shm_write(node, node.target)
        self.generic_visit(node)

    def visit_Call(self, node):
        chain = _attribute_chain(node.func)
        # out=<shm view> hands a shared slab to an arbitrary kernel.
        for kw in node.keywords:
            if kw.arg == "out" and _base_name(kw.value) in self.shm_names:
                self._report(
                    node, "shm-write-protocol",
                    "kernel writes into shared-memory view {!r}; only the "
                    "protocol's ordered steps may write the slab — waive "
                    "with the step name".format(_base_name(kw.value)),
                )
        if (chain and chain[0] in self.np_aliases and len(chain) == 2
                and chain[1] == "copyto" and node.args
                and _base_name(node.args[0]) in self.shm_names):
            self._report(
                node, "shm-write-protocol",
                "np.copyto into shared-memory view {!r} outside the "
                "reduction protocol".format(_base_name(node.args[0])),
            )
        if chain and chain[-1] == "get_context" and node.args:
            first = node.args[0]
            if (isinstance(first, ast.Constant) and first.value == "fork"
                    and self.uses_threading):
                self._report(
                    node, "fork-after-thread",
                    "get_context(\"fork\") in a module that uses "
                    "threading: a child forked after threads exist can "
                    "deadlock on locks the fork froze",
                )
        if chain and chain[-1] in ("Process", "Thread"):
            self.spawns_worker = True
        if isinstance(node.func, ast.Attribute):
            if node.func.attr == "start" and not node.args:
                self.starts.append(node)
            elif node.func.attr == "join" \
                    and not isinstance(node.func.value, ast.Constant):
                self.joins_worker = True
        self.generic_visit(node)

    def finish(self):
        if self.spawns_worker and not self.joins_worker:
            for node in self.starts:
                self._report(
                    node, "unjoined-worker",
                    "worker started here but this module never joins any "
                    "worker; join (or document teardown with a waiver) so "
                    "shared resources are released deterministically",
                )
        return self.violations


def _path_allowed(rule, posix_path):
    return any(part in posix_path for part in PATH_ALLOW.get(rule, ()))


def lint_file(path, text=None):
    """Lint one file; returns a list of :class:`Violation`."""
    path = Path(path)
    if text is None:
        text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError as error:
        return [Violation(str(path), error.lineno or 1, "syntax",
                          "file does not parse: {}".format(error.msg))]
    lines = text.splitlines()
    allows = _inline_allows(lines)
    posix = path.as_posix()
    visitor = _Visitor(str(path), _numpy_aliases(tree),
                       bool(_HOT_MARKER_RE.search(text)),
                       alloc_scoped=any(part in posix
                                        for part in _ALLOC_SCOPE))
    visitor.visit(tree)
    found = list(visitor.violations)
    if any(part in posix for part in _CONCURRENCY_SCOPE):
        concurrency = _ConcurrencyVisitor(str(path), tree,
                                          visitor.np_aliases)
        concurrency.visit(tree)
        found.extend(concurrency.finish())
    if _PRIVACY_MARKER_RE.search(text):
        # Imported lazily: the DP rules live in the analysis.privacy
        # package, which the base linter must not pay for on every file.
        from .privacy.rules import dp_lint
        found.extend(dp_lint(str(path), tree))
    if "repro/" in posix:
        # The determinism rules apply to library code only (tests and
        # benchmarks legitimately use scalar seeds and real clocks).
        from .determinism.rules import det_lint
        found.extend(det_lint(str(path), tree, text))
    kept = []
    for violation in found:
        if _path_allowed(violation.rule, posix):
            continue
        if violation.rule in allows.get(violation.line, ()):
            continue
        kept.append(violation)
    return kept


def lint_paths(paths):
    """Lint every ``.py`` file under the given files/directories."""
    violations = []
    for root in paths:
        root = Path(root)
        if root.is_dir():
            files = sorted(root.rglob("*.py"))
        else:
            files = [root]
        for file in files:
            violations.extend(lint_file(file))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.lint",
        description="Repo-specific numeric-hygiene lint.",
    )
    parser.add_argument("paths", nargs="+", help="files or directories")
    parser.add_argument(
        "--rule", action="append", choices=RULES,
        help="restrict to specific rule(s)",
    )
    args = parser.parse_args(argv)
    violations = lint_paths(args.paths)
    if args.rule:
        violations = [v for v in violations if v.rule in args.rule]
    for violation in violations:
        print(violation)
    if violations:
        print("repro-lint: {} violation(s)".format(len(violations)))
        return 1
    print("repro-lint: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
