"""Repo lint: each rule fires on a fixture, waivers work, the repo is clean."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.analysis import lint
from repro.analysis.lint import lint_file, lint_paths, main

REPO_ROOT = Path(__file__).resolve().parent.parent

FIXTURES = {
    "np-random": (
        "import numpy as np\n"
        "x = np.random.rand(3)\n"
    ),
    "dtype-literal": (
        "import numpy as np\n"
        "x = np.zeros(3, dtype=np.float64)\n"
    ),
    "param-data": (
        "def clobber(param, value):\n"
        "    param.data = value\n"
    ),
    "hot-loop": (
        "# repro-lint: hot-kernel\n"
        "def slow(values):\n"
        "    total = 0\n"
        "    for v in values:\n"
        "        total += v\n"
        "    return total\n"
    ),
}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_each_rule_fires_on_its_fixture(tmp_path, rule):
    path = tmp_path / "fixture_{}.py".format(rule.replace("-", "_"))
    path.write_text(FIXTURES[rule])
    violations = lint_file(path)
    assert violations, rule
    assert {v.rule for v in violations} == {rule}


@pytest.mark.parametrize("rule", sorted(FIXTURES))
def test_cli_exits_nonzero_on_each_fixture(tmp_path, rule):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURES[rule])
    assert main([str(path)]) == 1
    assert main([str(path), "--rule", rule]) == 1


def test_inline_waiver_suppresses(tmp_path):
    path = tmp_path / "waived.py"
    path.write_text(
        "import numpy as np\n"
        "x = np.zeros(3, dtype=np.float64)"
        "  # repro-lint: allow[dtype-literal] fixture\n"
    )
    assert lint_file(path) == []


def test_waiver_for_other_rule_does_not_suppress(tmp_path):
    path = tmp_path / "wrong_waiver.py"
    path.write_text(
        "import numpy as np\n"
        "x = np.zeros(3, dtype=np.float64)  # repro-lint: allow[np-random] nope\n"
    )
    assert [v.rule for v in lint_file(path)] == ["dtype-literal"]


def test_np_random_generator_api_is_allowed(tmp_path):
    path = tmp_path / "generator.py"
    path.write_text(
        "import numpy as np\n"
        "rng = np.random.default_rng(0)\n"
        "x = rng.normal(size=3)\n"
    )
    assert lint_file(path) == []


def test_loops_fine_outside_hot_files(tmp_path):
    path = tmp_path / "cold.py"
    path.write_text("for i in range(3):\n    pass\n")
    assert lint_file(path) == []


def test_hot_marker_in_string_does_not_tag_file(tmp_path):
    path = tmp_path / "mentions.py"
    path.write_text(
        "MARKER = 'repro-lint: hot-kernel'\n"
        "for i in range(3):\n    pass\n"
    )
    assert lint_file(path) == []


def test_self_data_writes_are_exempt(tmp_path):
    path = tmp_path / "own_storage.py"
    path.write_text(
        "class T:\n"
        "    def set(self, value):\n"
        "        self.data = value\n"
    )
    assert lint_file(path) == []


def test_syntax_error_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def nope(:\n")
    violations = lint_file(path)
    assert [v.rule for v in violations] == ["syntax"]


def test_lint_paths_walks_directories(tmp_path):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "a.py").write_text(
        "import numpy as np\nx = np.random.rand(2)\n")
    (tmp_path / "pkg" / "b.py").write_text("y = 1\n")
    violations = lint_paths([tmp_path / "pkg"])
    assert len(violations) == 1 and violations[0].rule == "np-random"


def test_repo_is_clean_via_cli():
    # The acceptance bar: the shipped tree passes its own lint, through
    # the real CLI entry point.
    result = subprocess.run(
        [sys.executable, "-m", "repro.analysis.lint", "src", "tests"],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(REPO_ROOT / "src"), "PATH": "/usr/bin:/bin",
             "PYTHONDONTWRITEBYTECODE": "1"},
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert "clean" in result.stdout


def test_cli_reports_violation_locations(tmp_path, capsys):
    path = tmp_path / "fixture.py"
    path.write_text(FIXTURES["np-random"])
    assert main([str(path)]) == 1
    out = capsys.readouterr().out
    assert "fixture.py:2" in out and "[np-random]" in out


def test_rules_tuple_is_exhaustive():
    assert set(lint.RULES) == {
        "np-random", "dtype-literal", "param-data", "hot-loop",
        "alloc-in-loop",
        "shm-write-protocol", "fork-after-thread", "unjoined-worker",
        "dp-fixed-seed", "dp-shared-rng", "dp-noise-scale",
        "dp-unaccounted-release", "dp-epsilon-no-delta",
        "det-unseeded-rng", "det-shared-stream", "det-wall-clock",
        "det-unordered-iter",
    }


ALLOC_IN_LOOP_SOURCE = (
    "import numpy as np\n"
    "def replay(steps):\n"
    "    for _ in range(3):\n"
    "        buf = np.zeros(4)\n"
    "        cat = np.concatenate([buf, buf])\n"
)


def _serve_file(tmp_path, text):
    serve_dir = tmp_path / "repro" / "serve"
    serve_dir.mkdir(parents=True)
    path = serve_dir / "fixture.py"
    path.write_text(text)
    return path


def test_alloc_in_loop_fires_under_serve(tmp_path):
    violations = lint_file(_serve_file(tmp_path, ALLOC_IN_LOOP_SOURCE))
    assert [v.rule for v in violations] == ["alloc-in-loop"] * 2
    assert "np.zeros" in violations[0].message
    assert "np.concatenate" in violations[1].message


def test_alloc_in_loop_scoped_to_serve_paths(tmp_path):
    path = tmp_path / "elsewhere.py"
    path.write_text(ALLOC_IN_LOOP_SOURCE)
    assert lint_file(path) == []


def test_alloc_outside_loop_is_fine_under_serve(tmp_path):
    path = _serve_file(
        tmp_path,
        "import numpy as np\n"
        "buf = np.zeros(4)\n"
        "def replay():\n"
        "    out = np.empty(4)\n"
        "    return out\n",
    )
    assert lint_file(path) == []


def test_alloc_in_loop_waiver_suppresses(tmp_path):
    path = _serve_file(
        tmp_path,
        "import numpy as np\n"
        "for _ in range(2):\n"
        "    w = np.zeros(4)"
        "  # repro-lint: allow[alloc-in-loop] compile-time pinning\n",
    )
    assert lint_file(path) == []


def test_alloc_in_while_loop_fires_under_serve(tmp_path):
    path = _serve_file(
        tmp_path,
        "import numpy as np\n"
        "while True:\n"
        "    chunk = np.empty(8)\n",
    )
    assert [v.rule for v in lint_file(path)] == ["alloc-in-loop"]


# ----------------------------------------------------------------------
# Concurrency rules (scoped to repro/serve/ and repro/train/)
# ----------------------------------------------------------------------
def _train_file(tmp_path, text):
    train_dir = tmp_path / "repro" / "train"
    train_dir.mkdir(parents=True)
    path = train_dir / "fixture.py"
    path.write_text(text)
    return path


SHM_WRITE_SOURCE = (
    "import numpy as np\n"
    "def attach(shm, grads_shm):\n"
    "    params = np.ndarray((4,), dtype='f8', buffer=shm.buf)\n"
    "    grads = np.ndarray((2, 4), dtype='f8', buffer=grads_shm.buf)\n"
    "    params[:] = 0.0\n"
    "    np.add(grads[0], 1.0, out=grads[0])\n"
    "    np.copyto(params, np.ones(4))\n"
)


def test_shm_write_fires_under_train(tmp_path):
    violations = lint_file(_train_file(tmp_path, SHM_WRITE_SOURCE))
    assert [v.rule for v in violations] == ["shm-write-protocol"] * 3


def test_shm_write_scoped_to_runtime_paths(tmp_path):
    path = tmp_path / "elsewhere.py"
    path.write_text(SHM_WRITE_SOURCE)
    assert lint_file(path) == []


def test_shm_rebind_and_private_writes_are_fine(tmp_path):
    path = _train_file(
        tmp_path,
        "import numpy as np\n"
        "def attach(shm):\n"
        "    params = np.ndarray((4,), dtype='f8', buffer=shm.buf)\n"
        "    params = None\n"       # releasing the view, not writing
        "    local = np.zeros(4)"
        "  # repro-lint: allow[alloc-in-loop] not in a loop anyway\n"
        "    local[:] = 1.0\n"
        "    return params\n",
    )
    assert lint_file(path) == []


def test_shm_write_waiver_suppresses(tmp_path):
    path = _train_file(
        tmp_path,
        "import numpy as np\n"
        "def publish(shm, plan):\n"
        "    params = np.ndarray((4,), dtype='f8', buffer=shm.buf)\n"
        "    plan.read_flat_params(out=params)"
        "  # repro-lint: allow[shm-write-protocol] publish-params step\n",
    )
    assert lint_file(path) == []


def test_fork_after_thread_fires_under_train(tmp_path):
    path = _train_file(
        tmp_path,
        "import threading\n"
        "import multiprocessing\n"
        "ctx = multiprocessing.get_context('fork')\n",
    )
    assert [v.rule for v in lint_file(path)] == ["fork-after-thread"]


def test_fork_without_threading_is_fine(tmp_path):
    path = _train_file(
        tmp_path,
        "import multiprocessing\n"
        "ctx = multiprocessing.get_context('fork')\n"
        "ctx2 = multiprocessing.get_context('spawn')\n",
    )
    assert lint_file(path) == []


def test_unjoined_worker_fires_under_train(tmp_path):
    path = _train_file(
        tmp_path,
        "import multiprocessing\n"
        "def launch(ctx):\n"
        "    proc = ctx.Process(target=print, daemon=True)\n"
        "    proc.start()\n",
    )
    assert [v.rule for v in lint_file(path)] == ["unjoined-worker"]


def test_joined_worker_is_fine(tmp_path):
    path = _train_file(
        tmp_path,
        "import multiprocessing\n"
        "def launch(ctx):\n"
        "    proc = ctx.Process(target=print, daemon=True)\n"
        "    proc.start()\n"
        "    proc.join()\n",
    )
    assert lint_file(path) == []


def test_string_join_does_not_count_as_worker_join(tmp_path):
    path = _train_file(
        tmp_path,
        "import multiprocessing\n"
        "def launch(ctx):\n"
        "    proc = ctx.Process(target=print)\n"
        "    proc.start()\n"
        "    return ', '.join(['a', 'b'])\n",
    )
    assert [v.rule for v in lint_file(path)] == ["unjoined-worker"]


# ----------------------------------------------------------------------
# Scope coverage for the serving-fleet modules (fleet.py / traffic.py)
# ----------------------------------------------------------------------
def _serve_module(tmp_path, name, text):
    serve_dir = tmp_path / "repro" / "serve"
    serve_dir.mkdir(parents=True, exist_ok=True)
    path = serve_dir / name
    path.write_text(text)
    return path


@pytest.mark.parametrize("module", ["fleet.py", "traffic.py"])
def test_alloc_in_loop_scope_covers_fleet_modules(tmp_path, module):
    # The scope match is by path, so a file with these exact names under
    # repro/serve/ must be policed like any other serving module.
    path = _serve_module(tmp_path, module, ALLOC_IN_LOOP_SOURCE)
    assert [v.rule for v in lint_file(path)] == ["alloc-in-loop"] * 2


@pytest.mark.parametrize("module", ["fleet.py", "traffic.py"])
def test_unjoined_worker_scope_covers_fleet_modules(tmp_path, module):
    path = _serve_module(
        tmp_path, module,
        "import threading\n"
        "def launch():\n"
        "    worker = threading.Thread(target=print, daemon=True)\n"
        "    worker.start()\n",
    )
    assert [v.rule for v in lint_file(path)] == ["unjoined-worker"]


def test_shipped_fleet_modules_are_in_scope_and_clean():
    # The real sources, not fixtures: both new modules sit inside the
    # alloc and concurrency scopes and pass their own lint.
    for name in ("fleet.py", "traffic.py"):
        path = REPO_ROOT / "src" / "repro" / "serve" / name
        assert path.exists(), path
        posix = path.resolve().as_posix()
        assert any(part in posix for part in lint._ALLOC_SCOPE)
        assert any(part in posix for part in lint._CONCURRENCY_SCOPE)
        assert lint_file(path) == []


# ----------------------------------------------------------------------
# Scope coverage for the federated fleet simulator (repro/federated/fleet/)
# ----------------------------------------------------------------------
def _federated_fleet_file(tmp_path, text):
    fleet_dir = tmp_path / "repro" / "federated" / "fleet"
    fleet_dir.mkdir(parents=True, exist_ok=True)
    path = fleet_dir / "fixture.py"
    path.write_text(text)
    return path


def test_alloc_in_loop_fires_under_federated_fleet(tmp_path):
    path = _federated_fleet_file(tmp_path, ALLOC_IN_LOOP_SOURCE)
    assert [v.rule for v in lint_file(path)] == ["alloc-in-loop"] * 2


def test_federated_outside_fleet_not_in_alloc_scope(tmp_path):
    # The object-based federated stack is not a hot loop; only the fleet
    # subpackage joins the allocation scope.
    path = tmp_path / "repro" / "federated" / "fixture.py"
    path.parent.mkdir(parents=True)
    path.write_text(ALLOC_IN_LOOP_SOURCE)
    assert not any(v.rule == "alloc-in-loop" for v in lint_file(path))


def test_alloc_scope_includes_federated_fleet():
    assert "repro/federated/fleet/" in lint._ALLOC_SCOPE


def test_shipped_federated_fleet_modules_are_in_scope_and_clean():
    fleet_dir = REPO_ROOT / "src" / "repro" / "federated" / "fleet"
    modules = sorted(fleet_dir.glob("*.py"))
    assert len(modules) >= 7, modules
    for path in modules:
        posix = path.resolve().as_posix()
        assert any(part in posix for part in lint._ALLOC_SCOPE), path
        assert lint_file(path) == [], path
