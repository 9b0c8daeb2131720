import os
import subprocess
import sys

import pytest

import purefx


def test_every_public_name_resolves():
    assert len(set(purefx.__all__)) == len(purefx.__all__)
    for name in purefx.__all__:
        assert hasattr(purefx, name), name
    namespace = {}
    exec("from purefx import *", namespace)
    assert set(purefx.__all__) <= namespace.keys()


def fresh_python(*argv, **env):
    """Run a new interpreter with OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *argv], env={**base, **env},
                          capture_output=True, text=True)


def test_import_purefx_leaves_numpy_unloaded():
    res = fresh_python("-c", "import sys, purefx; print('numpy' in sys.modules)")
    assert res.stdout == "False\n", res.stderr


@pytest.mark.parametrize("preset, seen", [({}, "1"),
                                          ({"OPENBLAS_NUM_THREADS": "2"}, "2")])
def test_cli_pins_blas_threads_unless_preset(preset, seen):
    res = fresh_python("-c", "import os, purefx.cli; "
                       "print(os.environ['OPENBLAS_NUM_THREADS'])", **preset)
    assert res.stdout == f"{seen}\n", res.stderr


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="needs /proc/self/task to count threads")
def test_cli_process_runs_one_thread():
    res = fresh_python("-c", "import os, purefx.cli; "
                       "print(len(os.listdir('/proc/self/task')))")
    assert res.stdout == "1\n", res.stderr


def test_cli_module_runs_without_warnings():
    res = fresh_python("-W", "error", "-m", "purefx.cli", "--help")
    assert (res.returncode, res.stderr) == (0, "")
