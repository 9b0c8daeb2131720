import argparse
import ast
import importlib
import importlib.util
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import purefx
import purefx.density
from purefx import cli

from helpers import ensemble_to_json


def test_every_public_name_resolves():
    assert len(set(purefx.__all__)) == len(purefx.__all__)
    for name in purefx.__all__:
        assert hasattr(purefx, name), name
    namespace = {}
    exec("from purefx import *", namespace)
    assert set(purefx.__all__) <= namespace.keys()


def test_readme_library_examples_run_as_commented():
    # README's Library blocks run in order in one namespace, as a reader
    # would paste them; each bare expression must show what its comment says.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    library = readme.split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    blocks = re.findall(r"```python\n(.*?)```", library, re.S)
    assert len(blocks) == 2
    namespace, shown = {}, []
    for block in blocks:
        lines = block.splitlines()
        for stmt in ast.parse(block).body:
            if isinstance(stmt, ast.Expr):
                code = compile(ast.Expression(stmt.value), "README.md", "eval")
                comment = lines[stmt.end_lineno - 1].partition("#")[2].strip()
                shown.append((comment, eval(code, namespace)))
            else:
                exec(compile(ast.Module([stmt], []), "README.md", "exec"),
                     namespace)
    (c_pass, passed), (c_pred, pred), (c_preds, preds) = shown
    assert repr(passed) == c_pass == "True"
    assert c_pred == "array([-1.]), as the input model"
    assert repr(pred) == repr(purefx.predict(
        namespace["model"], {"x1": [1], "x2": [1]})) == "array([-1.])"
    assert repr(preds) == c_preds == "array([ 0., -1.,  0.,  0.])"


def test_readme_cli_commands_parse():
    # Every `purefx` command of README's CLI block, continuation lines joined
    # and pipelines split, must parse: a flag renamed or removed fails here.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
    commands = [part.strip()
                for line in block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.lstrip().startswith("#")
                for part in line.split("|")]
    assert len(commands) == 8
    for command in commands:
        prog, *argv = shlex.split(command)
        assert prog == "purefx", command
        cli.build_parser().parse_args(argv)


def test_readme_cli_documents_every_flag():
    # Every long option of every subcommand is named in README's CLI section.
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    subparsers = next(a for a in cli.build_parser()._actions
                      if isinstance(a, argparse._SubParsersAction))
    missing = [(command, flag)
               for command, parser in subparsers.choices.items()
               for action in parser._actions
               for flag in action.option_strings
               if flag.startswith("--") and flag != "--help"
               and not re.search(re.escape(flag) + r"(?![\w-])", section)]
    assert not missing, missing


def test_every_open_in_the_package_names_utf8():
    # Files are UTF-8 under any locale; only piped stdin follows it.  The CSV
    # reader's "utf-8-sig" also drops the byte-order mark spreadsheets write.
    def encoding(call):
        return next((k.value.value for k in call.keywords if k.arg == "encoding"
                     and isinstance(k.value, ast.Constant)), None)

    lines, start = inspect.getsourcelines(purefx.density.dataset_from_csv)
    reader_file = Path(purefx.density.__file__)
    reader_lines = range(start, start + len(lines))
    opens = [(path, call.lineno, encoding(call))
             for path in sorted(Path(purefx.__file__).parent.rglob("*.py"))
             for call in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(call, ast.Call)
             and getattr(call.func, "id", getattr(call.func, "attr", None)) == "open"]
    want = ["utf-8-sig" if path == reader_file and line in reader_lines
            else "utf-8" for path, line, _ in opens]
    assert len(opens) >= 3 and want.count("utf-8-sig") == 1
    assert [enc for *_, enc in opens] == want, opens


def fresh_python(*argv, **env):
    """Run a new interpreter with OPENBLAS_NUM_THREADS unset unless given."""
    base = {k: v for k, v in os.environ.items() if k != "OPENBLAS_NUM_THREADS"}
    return subprocess.run([sys.executable, *argv], env={**base, **env},
                          capture_output=True, text=True)


def test_import_purefx_leaves_numpy_unloaded():
    res = fresh_python("-c", "import sys, purefx; print('numpy' in sys.modules)")
    assert res.stdout == "False\n", res.stderr


def test_import_cli_leaves_generators_unloaded():
    # Only `gen` and `bench` import them; other commands skip compiling them.
    res = fresh_python("-c", "import sys, purefx.cli; "
                       "print('purefx.generators' in sys.modules)")
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


def test_bench_patch_targets_resolve(monkeypatch):
    # The benchmark's traced run wraps these names; a rename breaks it there.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for module, attr, _ in spans.PATCHES:
        assert hasattr(importlib.import_module(module), attr), f"{module}.{attr}"

    calls = []
    bin_dataset = purefx.density.bin_dataset

    def counting(*args):
        calls.append(args)
        return bin_dataset(*args)

    monkeypatch.setattr(purefx.density, "bin_dataset", counting)
    purefx.estimate_density(purefx.gen_boolean_fig1("a"), "empirical",
                            {"x1": [0, 1], "x2": [1, 1]})
    assert len(calls) == 1


def test_bench_traced_run_counts_from_returned_fields(tmp_path, monkeypatch):
    # The traced run also reads fields of what the wrapped calls return
    # (reports, tree nodes, tensors, bins); a renamed field breaks it there.
    path = Path(__file__).resolve().parents[1] / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)

    node = purefx.TreeNode
    tree = node(feature="x1", threshold=0.5, left=node(value=1.0),
                right=node(feature="x2", threshold=0.5, left=node(value=2.0),
                           right=node(value=-1.0)))
    ens = tmp_path / "ens.json"
    ens.write_text(ensemble_to_json(purefx.TreeEnsemble((tree,))))
    data = tmp_path / "data.csv"
    data.write_text("x1,x2\n0.2,0.2\n0.7,0.3\n0.9,0.8\n")
    pure = str(tmp_path / "pure.json")
    cli = importlib.import_module("purefx.cli")
    with spans.instrumented(spans.Tracer()) as tr:
        assert cli.main([
            "purify", "--ensemble", str(ens), "--weights", "empirical",
            "--data", str(data), "--out", pure,
            "--report", str(tmp_path / "report.json"),
            "--trace", str(tmp_path / "trace.csv")]) == 0
        assert cli.main([
            "predict", "--model", pure, "--data", str(data),
            "--out", str(tmp_path / "pred.csv")]) == 0
    assert set(spans.SPAN_METRICS) <= {s.name for s in tr.spans}
    for name in ("engine.passes", "trees.cells_tabulated",
                 "density.rows_binned", "model.json_bytes"):
        assert tr.counts[name] > 0, name
