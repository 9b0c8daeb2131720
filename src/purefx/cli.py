"""Command-line surface: purify, check, gen, bench, density, predict.

Model JSON goes to stdout when --out is omitted so subcommands can be piped;
diagnostics and machine-readable errors go to stderr.  Outputs are
byte-deterministic for fixed inputs, flags, and seeds.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import sys

# Before numpy loads: no BLAS call here gains from OpenBLAS's spinning pool.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .density import (DensitySpec, dataset_from_csv, density_to_json,
                      estimate_density)
from .engine import MAX_PASSES, check_purity, purify_model
from .errors import (DegenerateSliceError, DomainError, NonConvergenceError,
                     UnsupportedTreeError)
from .generators import (bench_model, gen_boolean_fig1, gen_log_lambda,
                         gen_multiplicative, gen_random_bench, gen_wright)
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


def _write(text: str, out_path):
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _read_text(path):
    if path is None or path == "-":
        return sys.stdin.read()
    with open(path) as fh:
        return fh.read()


def _load_model(args):
    if args.ensemble:
        return ingest_ensemble(ensemble_from_json(_read_text(args.ensemble)))
    return model_from_json(_read_text(args.model))


def _build_density(model, args):
    data = None
    if args.weights in ("empirical", "laplace"):
        if not args.data:
            raise DomainError(f"--weights {args.weights} requires --data")
        data = dataset_from_csv(args.data)
    return estimate_density(model, DensitySpec(args.weights, data))


def _trace_csv(reports) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["tensor_vars", "iteration", "mass"])
    for u in reports:
        name = ";".join(u)
        for it, mass in reports[u].trace:
            writer.writerow([name, it, repr(mass)])
    return buf.getvalue()


def _cmd_purify(args):
    model = _load_model(args)
    w = _build_density(model, args)
    purified, reports = purify_model(
        model, w, tol=args.tol, max_passes=args.max_passes, strict=args.strict)
    _write(model_to_json(purified), args.out)
    if args.trace:
        _write(_trace_csv(reports), args.trace)
    if args.report:
        _write(dumps_canonical(check_purity(purified, w).to_dict()), args.report)
    return EXIT_OK


def _cmd_check(args):
    model = _load_model(args)
    w = _build_density(model, args)
    report = check_purity(model, w, tol=args.tol)
    _write(dumps_canonical(report.to_dict()), args.out)
    return EXIT_OK


def _cmd_gen(args):
    chosen = [x for x in (args.fig1_row, args.wright, args.lam, args.mult)
              if x is not None]
    if len(chosen) != 1:
        raise DomainError(
            "gen needs exactly one of --fig1-row, --wright, --lambda, --mult")
    if args.fig1_row is not None:
        model = gen_boolean_fig1(args.fig1_row)
    elif args.wright is not None:
        model = gen_wright(args.wright)
    elif args.lam is not None:
        model = gen_log_lambda(args.lam, args.grid)
    else:
        parts = [float(x) for x in args.mult.split(",")]
        if len(parts) != 6:
            raise DomainError("--mult expects a,b,c,d,alpha,beta")
        model = gen_multiplicative(*parts, n=args.grid)
    _write(model_to_json(model), args.out)
    return EXIT_OK


def _cmd_bench(args):
    tensor, w = gen_random_bench(args.sigma, args.dims, args.weights, args.seed)
    _, reports = purify_model(bench_model(tensor), w,
                              tol=args.tol, max_passes=args.max_passes)
    _write(_trace_csv({("x1", "x2"): reports[("x1", "x2")]}), args.out)
    return EXIT_OK


def _cmd_density(args):
    model = _load_model(args)
    w = _build_density(model, args)
    _write(density_to_json(w), args.out)
    return EXIT_OK


def _cmd_predict(args):
    model = _load_model(args)
    values = predict(model, dataset_from_csv(args.data).columns)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["prediction"])
    writer.writerows([repr(v)] for v in values.tolist())
    _write(buf.getvalue(), args.out)
    return EXIT_OK


def _model_flags(p):
    p.add_argument("--model", help="model JSON path ('-' or omitted reads stdin)")
    p.add_argument("--ensemble", help="tree-ensemble JSON path (ingested first)")


def _weight_flags(p):
    p.add_argument("--weights", default="uniform",
                   choices=["uniform", "empirical", "laplace"])
    p.add_argument("--data", help="training CSV for empirical/laplace weights")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="purefx",
        description="Canonicalize additive models with interactions by mass-moving.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("purify", help="purify a model and write its canonical form")
    _model_flags(p)
    _weight_flags(p)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-passes", type=int, default=MAX_PASSES)
    p.add_argument("--strict", action="store_true",
                   help="fail on zero-weight slices instead of skipping them")
    p.add_argument("--out", help="purified model JSON (stdout if omitted)")
    p.add_argument("--report", help="purity report JSON path")
    p.add_argument("--trace", help="convergence trace CSV path")
    p.set_defaults(func=_cmd_purify)

    p = sub.add_parser("check", help="report the worst weighted slice mean")
    _model_flags(p)
    _weight_flags(p)
    p.add_argument("--tol", type=float, default=1e-10)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("gen", help="emit a synthetic model as JSON")
    p.add_argument("--fig1-row", choices=["a", "b", "c", "d"])
    p.add_argument("--wright", help='generator name, e.g. "Interaction Only"')
    p.add_argument("--lambda", dest="lam", type=float,
                   help="log/product blend weight in [0, 1]")
    p.add_argument("--mult", help="a,b,c,d,alpha,beta for the product model")
    p.add_argument("--grid", type=int, default=64, help="cells per axis")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("bench", help="random-matrix convergence benchmark")
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dims", type=int, default=100)
    p.add_argument("--weights", default="uniform", choices=["uniform", "random"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-12)
    p.add_argument("--max-passes", type=int, default=MAX_PASSES)
    p.add_argument("--out", help="mass trace CSV (stdout if omitted)")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("density", help="estimate and export cell weights")
    _model_flags(p)
    _weight_flags(p)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_density)

    p = sub.add_parser("predict", help="evaluate a model on CSV rows")
    _model_flags(p)
    p.add_argument("--data", required=True, help="input CSV of feature values")
    p.add_argument("--out", help="predictions CSV (stdout if omitted)")
    p.set_defaults(func=_cmd_predict)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        return _fail(exc, EXIT_NONCONVERGENCE)
    except DegenerateSliceError as exc:
        return _fail(exc, EXIT_DEGENERATE)
    except (DomainError, UnsupportedTreeError, json.JSONDecodeError,
            KeyError, ValueError) as exc:
        return _fail(exc, EXIT_PARSE)
    except OSError as exc:
        return _fail(exc, EXIT_ERROR)


if __name__ == "__main__":
    sys.exit(main())
