"""Every malformed input exits 0, 2, 3 or 4, never with a traceback, and
every document that parses means what it says.

One sweep of mutations over each input format: a model document, an
ensemble document (a threshold split and label-set splits) and a data CSV.
A document mutates by replacing one value, by adding an unknown key to one
object or by reversing one list of labels.  Each mutated input goes through
``cli.main`` for ``purify`` under uniform and empirical weights and for
``predict``.  A nonzero return must write exactly one JSON line to stderr.
Each mutated document that parses must write back to itself.  Documents
nested around the JSON parser's depth limit keep the same exit rule, and so
does a table of malformed command lines, each of which must exit 2.  The
sweep is deterministic.
"""

import contextlib
import copy
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

from purefx import (DomainError, cli, ensemble_from_json, model_from_json,
                    model_to_json)

from helpers import ensemble_to_json

MODEL = {
    "features": [
        {"name": "c", "kind": "categorical", "labels": ["a", "b"]},
        {"name": "x", "kind": "continuous", "edges": [0.5, 1.5]},
    ],
    "effects": [
        {"vars": [], "values": 0.5},
        {"vars": ["c"], "values": [1.0, -1.0]},
        {"vars": ["c", "x"], "values": [[0.0, 1.0, 2.0], [3.0, 4.0, 5.0]]},
    ],
}

ENSEMBLE = {
    "base_score": 0.5,
    "trees": [
        {"split": "x", "threshold": 0.5, "left": {"leaf": 1.0},
         "right": {"split": "c", "threshold": {"labels": ["a"]},
                   "left": {"leaf": 2.0}, "right": {"leaf": 3.0}}},
        {"split": "c", "threshold": {"labels": ["b", "c"]},
         "left": {"leaf": -1.0}, "right": {"leaf": 1.0}},
    ],
}

# Written as JSON with NaN and Infinity tokens, which json.loads accepts.
BAD_VALUES = [None, 5, -1, 0.5, "s", "", [], {}, [1], ["a"], {"a": 1}, True,
              math.nan, math.inf, [[1]], "x"]

CSV_ROWS = [["x", "c"], ["0.1", "a"], ["1.0", "b"], ["2.0", "a"]]

BAD_CELLS = ["", " ", "s", "nan", "inf", "-inf", "1e400", "-1", "0.5", "1_000",
             "a", "b", "x", "c", '"', "#"]

EXIT_CODES = {0, 2, 3, 4}


def _paths(doc, path=()):
    """Every path into ``doc``, the root's ``()`` first."""
    yield path
    items = (doc.items() if isinstance(doc, dict)
             else enumerate(doc) if isinstance(doc, list) else ())
    for key, value in items:
        yield from _paths(value, path + (key,))


def _replaced(doc, path, value):
    if not path:
        return value
    out = copy.deepcopy(doc)
    node = out
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = value
    return out


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _doc_mutations(doc):
    """(path, change, mutated doc): each value replaced by each of
    ``BAD_VALUES``, then each object given one unknown key and each list of
    labels reversed."""
    for path in _paths(doc):
        for bad in BAD_VALUES:
            yield path, bad, _replaced(doc, path, bad)
    for path in _paths(doc):
        node = _at(doc, path)
        if isinstance(node, dict):
            yield path, "extra key", _replaced(doc, path, {**node, "extra": 1})
        if path[-1:] == ("labels",):
            yield path, "reversed", _replaced(doc, path, node[::-1])


def _csv_mutations():
    """(name, rows) of each mutated CSV: a header field, one cell, a field count."""
    for r, row in enumerate(CSV_ROWS):
        for c in range(len(row)):
            for bad in BAD_CELLS:
                rows = [list(x) for x in CSV_ROWS]
                rows[r][c] = bad
                yield f"row {r} field {c} = {bad!r}", rows
        if r:
            yield f"row {r} short", CSV_ROWS[:r] + [row[:-1]] + CSV_ROWS[r + 1:]
            yield f"row {r} long", CSV_ROWS[:r] + [row + ["1"]] + CSV_ROWS[r + 1:]


def _run(argv, stdin):
    """``cli.main(argv)`` on ``stdin``; returns (code, stderr) or the exception."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            return cli.main(argv), err.getvalue()
    except Exception as exc:  # any escape is a finding
        return exc, err.getvalue()
    finally:
        sys.stdin = saved


def _violation(code, stderr):
    """Why a run breaks the exit rule, or None if it keeps it."""
    if isinstance(code, BaseException):
        return f"raised {type(code).__name__}: {code}"
    if code not in EXIT_CODES:
        return f"exit {code}"
    if code == 0:
        return None
    lines = stderr.splitlines()
    if len(lines) != 1 or not stderr.endswith("\n"):
        return f"exit {code} with {len(lines)} stderr lines"
    try:
        doc = json.loads(lines[0])
    except ValueError:
        return f"exit {code} with a non-JSON stderr line {lines[0]!r}"
    if not isinstance(doc, dict) or set(doc) != {"error", "message"}:
        return f"exit {code} with stderr {lines[0]!r}"
    return None


def test_every_malformed_input_exits_with_one_json_error_line(tmp_path):
    csv_path = tmp_path / "data.csv"
    csv_path.write_text("\n".join(map(",".join, CSV_ROWS)) + "\n")
    commands = [["purify"],
                ["purify", "--weights", "empirical", "--data", str(csv_path)],
                ["predict", "--data", str(csv_path)]]
    failures, runs = [], 0

    for flag, doc in (("--model", MODEL), ("--ensemble", ENSEMBLE)):
        for path, bad, mutated in _doc_mutations(doc):
            text = json.dumps(mutated)
            for command in commands:
                code, stderr = _run([*command, flag, "-"], text)
                runs += 1
                why = _violation(code, stderr)
                if why:
                    failures.append((flag, path, bad, command[0], why))

    for i, (name, rows) in enumerate(_csv_mutations()):
        mutated = tmp_path / f"mutated{i}.csv"
        mutated.write_text("\n".join(map(",".join, rows)) + "\n")
        for flag, doc in (("--model", MODEL), ("--ensemble", ENSEMBLE)):
            for command in (["purify", "--weights", "empirical"], ["predict"]):
                code, stderr = _run(
                    [*command, "--data", str(mutated), flag, "-"], json.dumps(doc))
                runs += 1
                why = _violation(code, stderr)
                if why:
                    failures.append((flag, name, command[0], why))

    assert runs > 3000
    assert not failures, f"{len(failures)} of {runs} runs: {failures[:20]}"


def _nested(depth):
    """A model whose tensor and an ensemble whose tree nest ``depth`` deep."""
    model = ('{"features": [{"name": "x", "kind": "continuous", "edges": [0.5]}],'
             ' "effects": [{"vars": ["x"], "values": %s}]}'
             % ("[" * depth + "1.0" + "]" * depth))
    tree = ('{"split": "x", "threshold": 0.5, "left": ' * depth + '{"leaf": 1.0}'
            + ', "right": {"leaf": 2.0}}' * depth)
    return model, '{"trees": [%s]}' % tree


def _nesting_runs():
    """(flag, depth, code, stderr) of ``check`` on each deep model and
    ``purify`` on each deep ensemble, at depths around the parser's limit."""
    runs = []
    for depth in [*range(950, 1001), 3000]:
        model, ensemble = _nested(depth)
        for flag, command, text in (("--model", "check", model),
                                    ("--ensemble", "purify", ensemble)):
            code, stderr = _run([command, flag, "-"], text)
            runs.append((flag, depth, repr(code) if isinstance(
                code, BaseException) else code, stderr))
    return runs


def test_deep_nesting_exits_with_one_json_error_line():
    # A fresh interpreter calls cli.main with about a CLI process's stack
    # below it, so each depth fails, or not, where it would in the CLI.
    child = ("import json, sys; sys.path.insert(0, %r); import test_malformed; "
             "print(json.dumps(test_malformed._nesting_runs()))"
             % str(Path(__file__).parent))
    res = subprocess.run([sys.executable, "-c", child],
                         capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    runs = json.loads(res.stdout)
    failures = [(flag, depth, why) for flag, depth, code, stderr in runs
                if (why := _violation(code, stderr)) or code not in (0, 2)]
    assert len(runs) == 104 and not failures, failures
    too_deep = {"error": "DomainError",
                "message": "the JSON is nested too deeply to read"}
    for flag, depth, code, stderr in runs:
        if depth >= 1000:
            assert code == 2 and json.loads(stderr) == too_deep, (flag, depth)


CONFLICT = "argument --ensemble: not allowed with argument --model"

# (argv, the message if pinned): usage errors, then generator values.
BAD_ARGV = [
    (["purify", "--bogus"], None),
    (["purify", "--tol", "abc"], None),
    (["check", "--tol", "abc"], None),
    (["purify", "--max-passes", "1.5"], None),
    (["bench", "--dims", "x"], None),
    (["bench", "--tol", "1e-9"], None),
    (["bench", "--max-passes", "5"], None),
    (["purify", "--weights", "kernel"], None),
    (["predict", "--model", "-"], None),
    ([], None),
    (["frobnicate"], None),
    *(([command, "--model", "-", "--ensemble", "-"], CONFLICT)
      for command in ("purify", "check", "density", "predict")),
    (["gen"], "one of the arguments --fig1-row --wright --lambda --mult is required"),
    (["gen", "--fig1-row", "a", "--wright", "Redundant"],
     "argument --wright: not allowed with argument --fig1-row"),
    *((["gen", "--mult", mult], "argument --mult: expected six finite numbers "
       f"a,b,c,d,alpha,beta, not {mult!r}")
      for mult in ("1,2,3,4,5", "0,1,1,x,0,0", "nan,1,1,1,0,0")),
    (["gen", "--grid", "-1", "--fig1-row", "a"],
     "--grid applies only to --lambda and --mult"),
    (["bench", "--seed", "-1"], "seed must be >= 0, not -1"),
    (["bench", "--dims", "1"], "grid size must be >= 2"),
    *((["bench", "--sigma", sigma], f"sigma must be finite and positive, not {sigma}")
      for sigma in ("nan", "inf")),
]


def test_every_malformed_argv_exits_with_one_json_error_line():
    failures = []
    for argv, message in BAD_ARGV:
        code, stderr = _run(argv, "")
        why = _violation(code, stderr) or (code != 2 and f"exit {code}")
        if not why and message and json.loads(stderr) != {
                "error": "DomainError", "message": message}:
            why = f"stderr {stderr!r}"
        if why:
            failures.append((argv, why))
    assert not failures, failures


@pytest.mark.parametrize("argv, usage", [(["--help"], "usage: purefx ["),
                                         (["gen", "--help"], "usage: purefx gen [")])
def test_help_still_exits_0_with_its_usage(argv, usage):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == 0 and out.getvalue().startswith(usage)


def _floats(doc):
    """``doc`` with every int read as a float; a bool stays a bool."""
    if isinstance(doc, dict):
        return {k: _floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floats(v) for v in doc]
    return float(doc) if type(doc) is int else doc


def _model_written(doc):
    """What ``model_to_json`` writes for a model document that parses:
    features by name, each one's labels sorted, effects by (order, vars), a
    zero intercept added."""
    doc = _floats(doc)
    effects = doc["effects"]
    if [] not in (e["vars"] for e in effects):
        effects = effects + [{"vars": [], "values": 0.0}]
    features = [{**f, "labels": sorted(f["labels"])} if "labels" in f else f
                for f in doc["features"]]
    return {**doc, "features": sorted(features, key=lambda f: f["name"]),
            "effects": sorted(effects, key=lambda e: (len(e["vars"]), e["vars"]))}


def _ensemble_written(doc):
    """What ``ensemble_to_json`` writes for an ensemble document that parses:
    an absent ``base_score`` as 0.0, each label set sorted."""

    def node(n):
        if "leaf" in n:
            return n
        thr = n["threshold"]
        if isinstance(thr, dict):
            thr = {**thr, "labels": sorted(set(thr["labels"]))}
        return {**n, "threshold": thr, "left": node(n["left"]),
                "right": node(n["right"])}

    doc = _floats(doc)
    return {"base_score": 0.0, **doc, "trees": [node(t) for t in doc["trees"]]}


def _same(a, b):
    """Equality that tells ``true`` from 1.0, and a NaN from everything."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    return a == b


def test_every_document_that_parses_writes_back_to_itself():
    formats = ((MODEL, model_from_json, model_to_json, _model_written),
               (ENSEMBLE, ensemble_from_json, ensemble_to_json, _ensemble_written))
    parsed, failures = 0, []
    for doc, read, write, written in formats:
        for path, bad, mutated in _doc_mutations(doc):
            try:
                back = read(json.dumps(mutated))
            except DomainError:
                continue
            parsed += 1
            if not _same(json.loads(write(back)), written(mutated)):
                failures.append((read.__name__, path, bad))
    assert parsed >= 80
    assert not failures, f"{len(failures)} of {parsed} documents: {failures[:20]}"
