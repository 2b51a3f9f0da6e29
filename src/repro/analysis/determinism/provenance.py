"""Static RNG-provenance pass: where does every random stream come from?

The replay-determinism story rests on a simple discipline — every
generator in the library is derived from an explicit seed, and every
*keyed* derivation goes through a registered family (either
``repro.rng.derive_rng`` with a namespace, or one of the legacy tuple
families the stream registry pins down).  This pass walks the library's
AST and assigns each RNG construction site an **origin**:

``derived``
    ``derive_rng(seed, "namespace", ...)`` or a ``SeedSequence`` rooted
    at ``derive_key(...)`` — the namespaced scheme; collision-free by
    construction (:mod:`repro.rng`).
``keyed``
    ``default_rng((a, b, ...))`` on a literal tuple, or the return
    tuple of a ``*_key`` helper — a legacy family; must match an entry
    in :data:`repro.analysis.determinism.streams.REGISTRY`.
``spawned``
    a generator built from a ``SeedSequence.spawn`` child.
``scalar``
    ``default_rng(seed)`` on a single non-tuple expression — fine for
    top-level experiment seeds, outside the keyed-collision analysis.
``unseeded``
    ``default_rng()`` with no arguments: OS entropy, unreplayable.
    Flagged by the ``det-unseeded-rng`` lint rule.
``global``
    legacy ``np.random.*`` module-level calls (already outlawed by the
    ``np-random`` lint rule; recorded here so the provenance report is
    complete).

Sites also record enough structure (tuple arity, namespace literal,
spawn-root shape) for :func:`streams.verify_registry_against_source` to
cross-check the hand-maintained registry against what the code actually
derives.
"""

from __future__ import annotations

import ast
from pathlib import Path

from ..lint import _attribute_chain, _numpy_aliases

__all__ = ["RngSite", "collect", "collect_file", "collect_tree",
           "library_root", "summarize"]

# Sites inside the derivation authority itself are not derivation users.
_EXCLUDE_POSIX = ("repro/rng.py",)

_NP_RANDOM_LEGACY_OK = {
    "default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64",
}


class RngSite:
    """One RNG construction site at ``path:line``."""

    __slots__ = ("path", "line", "origin", "detail", "arity", "namespace")

    def __init__(self, path, line, origin, detail, arity=None,
                 namespace=None):
        self.path = path
        self.line = line
        self.origin = origin
        self.detail = detail
        self.arity = arity          # keyed sites: tuple length
        self.namespace = namespace  # derived sites: namespace literal

    def __repr__(self):
        return "RngSite({!r}:{} {} {})".format(
            self.path, self.line, self.origin, self.detail)


def _is_seed_expr(node):
    """Whether an expression plausibly carries a user seed.

    Distinguishes RNG-key helpers (``_user_key`` returning
    ``(self.seed, ...)``) from unrelated ``*_key`` helpers (batch
    bucketing, cache keys) whose tuples carry no entropy.
    """
    if isinstance(node, ast.Name):
        return "seed" in node.id
    if isinstance(node, ast.Attribute):
        return "seed" in node.attr
    if isinstance(node, ast.Call) and node.args:
        return _is_seed_expr(node.args[0])
    return False


def _is_derive_key_call(node):
    if not isinstance(node, ast.Call):
        return False
    chain = _attribute_chain(node.func)
    return bool(chain) and chain[-1] == "derive_key"


def _namespace_literal(call):
    """The namespace string of a derive_rng/derive_key call, if literal."""
    if len(call.args) >= 2 and isinstance(call.args[1], ast.Constant) \
            and isinstance(call.args[1].value, str):
        return call.args[1].value
    return None


def _classify_default_rng(path, node):
    """Origin of one ``default_rng(...)`` call."""
    if not node.args:
        return RngSite(path, node.lineno, "unseeded", "default_rng()")
    arg = node.args[0]
    if isinstance(arg, ast.Tuple):
        return RngSite(path, node.lineno, "keyed",
                       ast.unparse(arg), arity=len(arg.elts))
    if isinstance(arg, ast.Call):
        chain = _attribute_chain(arg.func)
        if chain and chain[-1] == "derive_key":
            return RngSite(path, node.lineno, "derived", ast.unparse(arg),
                           namespace=_namespace_literal(arg))
        if chain and chain[-1].endswith("_key"):
            # Keyed via a helper; the helper's return tuple is the site
            # that carries the arity (collected separately below).
            return RngSite(path, node.lineno, "keyed-helper",
                           ast.unparse(arg))
    # default_rng(seq.spawn(...)[i]) or default_rng(child)
    text = ast.unparse(arg)
    if ".spawn(" in text:
        return RngSite(path, node.lineno, "spawned", text)
    return RngSite(path, node.lineno, "scalar", text)


def collect_tree(path, tree):
    """All :class:`RngSite` records in one parsed module."""
    posix = Path(path).as_posix()
    if any(part in posix for part in _EXCLUDE_POSIX):
        return []
    np_aliases = _numpy_aliases(tree)
    sites = []
    # Functions whose name ends in _key: their return tuples are keyed
    # derivations (the typing-dynamics _user_key convention).
    key_helpers = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name.endswith("_key"):
            key_helpers.append(node)
    for helper in key_helpers:
        for node in ast.walk(helper):
            if isinstance(node, ast.Return) \
                    and isinstance(node.value, ast.Tuple) \
                    and node.value.elts \
                    and _is_seed_expr(node.value.elts[0]):
                sites.append(RngSite(
                    str(path), node.lineno, "keyed",
                    "{} -> {}".format(helper.name, ast.unparse(node.value)),
                    arity=len(node.value.elts)))
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        chain = _attribute_chain(node.func)
        if not chain:
            continue
        tail = chain[-1]
        if tail == "default_rng":
            sites.append(_classify_default_rng(str(path), node))
        elif tail == "derive_rng":
            sites.append(RngSite(str(path), node.lineno, "derived",
                                 ast.unparse(node),
                                 namespace=_namespace_literal(node)))
        elif tail == "SeedSequence":
            if node.args and _is_derive_key_call(node.args[0]):
                sites.append(RngSite(
                    str(path), node.lineno, "derived", ast.unparse(node),
                    namespace=_namespace_literal(node.args[0])))
            elif node.args and isinstance(node.args[0], ast.Tuple):
                sites.append(RngSite(str(path), node.lineno, "keyed",
                                     ast.unparse(node.args[0]),
                                     arity=len(node.args[0].elts)))
            elif node.args:
                sites.append(RngSite(str(path), node.lineno,
                                     "scalar-spawn-root",
                                     ast.unparse(node)))
        elif (len(chain) >= 3 and chain[0] in np_aliases
                and chain[1] == "random"
                and tail not in _NP_RANDOM_LEGACY_OK):
            sites.append(RngSite(str(path), node.lineno, "global",
                                 "np.random.{}".format(tail)))
    return sites


def collect_file(path, text=None):
    """Collect provenance sites from one file (skips unparseable files)."""
    path = Path(path)
    if text is None:
        text = path.read_text(encoding="utf-8")
    try:
        tree = ast.parse(text, filename=str(path))
    except SyntaxError:
        return []
    return collect_tree(path, tree)


def library_root():
    """The ``src/repro`` directory this installation runs from."""
    import repro

    return Path(repro.__file__).resolve().parent


def collect(root=None):
    """Provenance sites for every module under ``root`` (default: repro)."""
    root = Path(root) if root is not None else library_root()
    sites = []
    for file in sorted(root.rglob("*.py")):
        sites.extend(collect_file(file))
    return sites


def summarize(sites):
    """Origin -> count, for the audit report."""
    counts = {}
    for site in sites:
        counts[site.origin] = counts.get(site.origin, 0) + 1
    return dict(sorted(counts.items()))
