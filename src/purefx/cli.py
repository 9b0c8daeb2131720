"""Command-line surface: purify, check, gen, bench, density, predict.

Each command returns its document, which ``main`` writes to --out or, if that
is omitted or '-', to stdout so subcommands pipe; diagnostics and errors go to
stderr.  Outputs are byte-deterministic for fixed inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import csv
import errno
import io
import json
import math
import os
import sys

# Before numpy loads: no BLAS call here gains from OpenBLAS's spinning pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .density import MODES, dataset_from_csv, density_to_json, estimate_density
from .engine import CHECK_TOL, MAX_PASSES, PURIFY_TOL, check_purity, purify_model
from .errors import DegenerateSliceError, DomainError, NonConvergenceError
from .model import dumps_canonical, model_from_json, model_to_json, predict
from .trees import ensemble_from_json, ingest_ensemble

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_PARSE = 2
EXIT_NONCONVERGENCE = 3
EXIT_DEGENERATE = 4


def _fail(exc, code):
    sys.stderr.write(json.dumps(
        {"error": type(exc).__name__, "message": str(exc)}) + "\n")
    return code


def _std(name):
    stream = getattr(sys, name)
    if stream is None:  # its descriptor was closed at start
        raise OSError(errno.EBADF, f"{name} is closed")
    return stream


def _write(text: str, path):
    if path is None or path == "-":
        _std("stdout").write(text)
    else:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)


def _read_text(path):
    if path is None or path == "-":
        return _std("stdin").read()
    with open(path, encoding="utf-8") as fh:
        return fh.read()


def _load_model(args):
    if args.ensemble:
        return ingest_ensemble(ensemble_from_json(_read_text(args.ensemble)))
    return model_from_json(_read_text(args.model))


def _build_density(model, args):
    data = dataset_from_csv(args.data, model) if args.data else None
    return estimate_density(model, args.weights, data)


def _csv(header, rows) -> str:
    buf = io.StringIO()
    csv.writer(buf).writerows([header, *rows])
    return buf.getvalue()


def _trace_csv(reports) -> str:
    return _csv(["tensor_vars", "iteration", "mass"],
                ([";".join(u), it, repr(mass)]
                 for u in reports for it, mass in reports[u].trace))


def _cmd_purify(args):
    model = _load_model(args)
    w = _build_density(model, args)
    purified, reports = purify_model(
        model, w, tol=args.tol, max_passes=args.max_passes, strict=args.strict)
    text = model_to_json(purified)
    if args.trace is not None:
        _write(_trace_csv(reports), args.trace)
    if args.report is not None:
        _write(dumps_canonical(check_purity(purified, w)), args.report)
    return text


def _cmd_check(args):
    model = _load_model(args)
    w = _build_density(model, args)
    return dumps_canonical(check_purity(model, w, tol=args.tol))


def _cmd_gen(args):
    # Imported here: no other command needs the generators.
    from .generators import (gen_boolean_fig1, gen_log_lambda,
                             gen_multiplicative, gen_wright)
    grid = 64 if args.grid is None else args.grid
    if args.lam is not None:
        model = gen_log_lambda(args.lam, grid)
    elif args.mult is not None:
        model = gen_multiplicative(*args.mult, n=grid)
    elif args.grid is not None:  # the Boolean generators' grids are fixed
        raise DomainError("--grid applies only to --lambda and --mult")
    elif args.fig1_row is not None:
        model = gen_boolean_fig1(args.fig1_row)
    else:
        model = gen_wright(args.wright)
    return model_to_json(model)


def _cmd_bench(args):
    from .generators import gen_random_bench
    model, w = gen_random_bench(args.sigma, args.dims, args.weights, args.seed)
    _, reports = purify_model(model, w)
    return _trace_csv({("x1", "x2"): reports[("x1", "x2")]})


def _cmd_density(args):
    model = _load_model(args)
    return density_to_json(_build_density(model, args))


def _cmd_predict(args):
    model = _load_model(args)
    values = predict(model, dataset_from_csv(args.data, model))
    return _csv(["prediction"], zip(values.tolist()))


def _model_flags(p):
    g = p.add_mutually_exclusive_group()
    g.add_argument("--model", help="model JSON path ('-' or omitted reads stdin)")
    g.add_argument("--ensemble", help="tree-ensemble JSON path (ingested first)")


def _weight_flags(p):
    p.add_argument("--weights", default="uniform", choices=MODES)
    p.add_argument("--data", help="training CSV whose rows the weights count")


def _mult(text):
    """``--mult``'s value: six finite numbers a,b,c,d,alpha,beta."""
    try:
        parts = [float(x) for x in text.split(",")]
        if len(parts) == 6 and all(map(math.isfinite, parts)):
            return parts
    except ValueError:
        pass
    raise argparse.ArgumentTypeError(
        f"expected six finite numbers a,b,c,d,alpha,beta, not {text!r}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as a ``DomainError``; subparsers share the class."""

    def error(self, message):
        raise DomainError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="purefx",
        description="Canonicalize additive models with interactions by mass-moving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purify", help="purify a model and write its canonical form")
    _model_flags(p)
    _weight_flags(p)
    p.add_argument("--tol", type=float, default=PURIFY_TOL)
    p.add_argument("--max-passes", type=int, default=MAX_PASSES)
    p.add_argument("--strict", action="store_true",
                   help="fail on zero-weight slices instead of skipping them")
    p.add_argument("--report", help="purity report JSON path")
    p.add_argument("--trace", help="convergence trace CSV path")
    p.set_defaults(func=_cmd_purify)

    p = sub.add_parser("check", help="report the worst weighted slice mean")
    _model_flags(p)
    _weight_flags(p)
    p.add_argument("--tol", type=float, default=CHECK_TOL)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="emit a synthetic model as JSON")
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--fig1-row", choices=["a", "b", "c", "d"])
    g.add_argument("--wright", help='generator name, e.g. "Interaction Only"')
    g.add_argument("--lambda", dest="lam", type=float,
                   help="log/product blend weight in [0, 1]")
    g.add_argument("--mult", type=_mult,
                   help="a,b,c,d,alpha,beta for the product model")
    p.add_argument("--grid", type=int,
                   help="cells per axis of --lambda and --mult (default 64)")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="random-matrix convergence benchmark")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dims", type=int, default=100)
    p.add_argument("--weights", default="uniform", choices=["uniform", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("density", help="estimate and export cell weights")
    _model_flags(p)
    _weight_flags(p)
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("predict", help="evaluate a model on CSV rows")
    _model_flags(p)
    p.add_argument("--data", required=True, help="input CSV of feature values")
    p.set_defaults(func=_cmd_predict)

    for p in sub.choices.values():
        p.add_argument("--out", help="output path (stdout if omitted or '-')")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _write(args.func(args), args.out)
        return EXIT_OK
    except NonConvergenceError as exc:
        return _fail(exc, EXIT_NONCONVERGENCE)
    except DegenerateSliceError as exc:
        return _fail(exc, EXIT_DEGENERATE)
    except (KeyError, ValueError) as exc:
        return _fail(exc, EXIT_PARSE)
    except OSError as exc:
        return _fail(exc, EXIT_ERROR)


def run() -> None:
    """Console entry point: run ``main()`` and exit once its output is flushed.

    An exception from ``main()`` (``--help``'s ``SystemExit`` included) or
    from a flush takes the interpreter's normal exit, which reports it as before.
    """
    code = main()
    try:
        # A standard stream is None when its descriptor was closed at start.
        for stream in filter(None, (sys.stdout, sys.stderr)):
            stream.flush()
    except OSError:
        sys.exit(code)
    # Skip finalization (~35 ms): every file is closed by `with`, and purefx
    # registers no atexit handler.
    os._exit(code)


if __name__ == "__main__":
    run()
