"""Tests for the op-level profiler subsystem."""

import ast
import pathlib

import numpy as np
import pytest

import repro
import repro.profiler as profiler
import repro.tensor as T
from repro import nn
from repro.tensor import Tensor


@pytest.fixture(autouse=True)
def clean_profiler():
    profiler.disable()
    profiler.reset()
    yield
    profiler.disable()
    profiler.reset()


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestOpCounters:
    def test_disabled_records_nothing(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        T.relu(x + 1.0)
        assert profiler.get_stats()["ops"] == {}

    def test_counts_calls_and_bytes(self, rng):
        x = Tensor(rng.normal(size=(4, 8)))
        with profiler.profile():
            T.sigmoid(x)
            T.sigmoid(x)
            T.tanh(x)
        ops = profiler.get_stats()["ops"]
        assert ops["sigmoid"]["calls"] == 2
        assert ops["tanh"]["calls"] == 1
        assert ops["sigmoid"]["bytes"] == 2 * 4 * 8 * 8  # two float64 outputs

    def test_operator_overloads_use_dunder_names(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with profiler.profile():
            _ = x + x
            _ = x @ x
        ops = profiler.get_stats()["ops"]
        assert ops["__add__"]["calls"] == 1
        assert ops["__matmul__"]["calls"] == 1

    def test_conv_counted(self, rng):
        x = Tensor(rng.normal(size=(1, 1, 4, 4)))
        w = Tensor(rng.normal(size=(1, 1, 3, 3)))
        with profiler.profile():
            T.conv2d(x, w)
        assert profiler.get_stats()["ops"]["conv2d"]["calls"] == 1

    def test_disable_restores_untracked_path(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        with profiler.profile():
            T.relu(x)
        T.relu(x)  # outside the context: must not be recorded
        assert profiler.get_stats()["ops"]["relu"]["calls"] == 1


class TestModuleTimers:
    def test_forward_times_attributed_per_class(self, rng):
        model = nn.Sequential(nn.Linear(8, 8), nn.ReLU())
        x = Tensor(rng.normal(size=(4, 8)))
        with profiler.profile():
            model(x)
            model(x)
        modules = profiler.get_stats()["modules"]
        assert modules["Sequential"]["calls"] == 2
        assert modules["Linear"]["calls"] == 2
        assert modules["ReLU"]["calls"] == 2
        assert modules["Sequential"]["seconds"] >= modules["Linear"]["seconds"] >= 0

    def test_hook_removed_after_disable(self, rng):
        from repro.nn import module as module_mod

        with profiler.profile():
            pass
        assert module_mod._forward_hook is None

    def test_forward_result_unchanged_under_profiling(self, rng):
        model = nn.Linear(4, 3)
        x = Tensor(rng.normal(size=(2, 4)))
        plain = model(x).numpy()
        with profiler.profile():
            profiled = model(x).numpy()
        np.testing.assert_array_equal(plain, profiled)


class TestReport:
    def test_empty_report(self):
        assert "nothing recorded" in profiler.report()

    def test_report_contains_sections(self, rng):
        model = nn.Linear(4, 4)
        x = Tensor(rng.normal(size=(2, 4)))
        with profiler.profile():
            model(x).sum()
        text = profiler.report()
        assert "ops (autograd engine)" in text
        assert "__matmul__" in text
        assert "modules (forward wall-clock" in text
        assert "Linear" in text

    def test_reset_clears(self, rng):
        with profiler.profile():
            T.relu(Tensor(rng.normal(size=(2, 2))))
        profiler.reset()
        assert profiler.get_stats()["ops"] == {}


def _profiler_imports(path, root):
    """Line numbers of the imports of ``repro.profiler`` in ``path``."""
    package = list(path.relative_to(root).parent.parts)
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] \
                if node.level else []
            module = ".".join(base + ([node.module] if node.module else []))
            names = [module] + [module + "." + alias.name
                                for alias in node.names]
        else:
            continue
        if any(name == "repro.profiler" or name.startswith("repro.profiler.")
               for name in names):
            yield node.lineno


def test_only_the_package_root_imports_the_profiler():
    # Runtime counts live on the objects that own them (compile_count,
    # arena_nbytes, metrics()); the profiler keeps only its engine hooks.
    src = pathlib.Path(repro.__file__).resolve().parent
    root = src.parent
    found = [
        "{}:{}".format(path.relative_to(root), line)
        for path in sorted(src.rglob("*.py"))
        if path.parent.relative_to(src).parts[:1] != ("profiler",)
        and path != src / "__init__.py"
        for line in _profiler_imports(path, root)
    ]
    assert found == []
    assert list(_profiler_imports(src / "__init__.py", root))


def test_public_surface_is_the_engine_hooks():
    assert sorted(profiler.__all__) == [
        "disable", "enable", "get_stats", "profile", "report", "reset"]
    assert sorted(profiler.get_stats()) == ["modules", "ops"]
