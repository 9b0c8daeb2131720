"""Acceptance suite: one test per shipped guarantee, one printed line each.

Each test records ``ACCEPTANCE <n>: PASS|FAIL — <summary>``; the scorecard is
printed in the terminal summary of every pytest run (and inline with ``-s``).
"""

import itertools
import subprocess
import sys

import numpy as np

from purefx import (AdditiveModel, EffectTensor, FeatureBins, check_purity,
                    estimate_density, gen_boolean_fig1, gen_log_lambda,
                    gen_multiplicative, gen_random_bench, gen_wright,
                    effect_variance, ingest_ensemble, model_from_json,
                    model_to_json, predict, purify_model)
from purefx.generators import unit_grid_midpoints

from conftest import SCORECARD
from helpers import (columns, ensemble_eval, grid_predictions,
                     random_ensemble, random_model, random_points,
                     representative, uniform_density)

SIGMAS = (1.0, 10.0, 100.0)
DIMS = (2, 25, 100)
SEEDS = 100


def report(n, ok, summary):
    line = f"ACCEPTANCE {n}: {'PASS' if ok else 'FAIL'} — {summary}"
    SCORECARD.append(line)
    print(line)
    assert ok, line


def test_acceptance_01_fig1_canonicalization():
    target = gen_boolean_fig1("d")
    w = uniform_density(target)
    worst = 0.0
    for row in "abc":
        out, _ = purify_model(gen_boolean_fig1(row), w)
        for u in target.effects:
            worst = max(worst, float(np.max(np.abs(
                out.effects[u].values - target.effects[u].values))))
    points = [{"x1": a, "x2": b} for a in (0, 1) for b in (0, 1)]
    agree = len({tuple(predict(gen_boolean_fig1(r), columns(points)).tolist())
                 for r in "abcd"}) == 1
    report(1, worst <= 1e-12 and agree,
           f"rows a/b/c purify to row d (max dev {worst:.2e}); "
           f"all rows agree at the 4 Boolean points")


def test_acceptance_02_wright_tables():
    expected = {
        "Interaction Only": (0.5, 0.5, 0.25),
        "Modifier SNP": (0.5, 1.5, 0.25),
        "No Interaction": (1.0, 1.0, 0.0),
        "Redundant": (0.5, 0.5, -0.25),
        "Synergistic": (1.5, 1.5, 0.25),
    }
    worst = 0.0
    for name, (m1, m2, i11) in expected.items():
        model = gen_wright(name)
        out, _ = purify_model(model, uniform_density(model))
        f1 = out.effects[("snp1",)].values
        f2 = out.effects[("snp2",)].values
        f12 = out.effects[("snp1", "snp2")].values
        worst = max(worst,
                    abs(f1[1] - f1[0] - m1),
                    abs(f2[1] - f2[0] - m2),
                    abs(f12[1, 1] - i11))
    report(2, worst <= 1e-12,
           f"five generators purify to the published coefficients "
           f"(max dev {worst:.2e})")


def test_acceptance_03_uniform_one_pass_convergence():
    worst = 0.0
    for sigma, p in itertools.product(SIGMAS, DIMS):
        for seed in range(SEEDS):
            model, w = gen_random_bench(sigma, p, "uniform", seed)
            _, reps = purify_model(model, w, max_passes=1)
            rep = reps[("x1", "x2")]
            worst = max(worst, rep.trace[-1][1] / rep.trace[0][1])
    report(3, worst <= 1e-10,
           f"uniform weights converge in one row+column pass over "
           f"{len(SIGMAS) * len(DIMS) * SEEDS} instances "
           f"(worst residual ratio {worst:.2e})")


def test_acceptance_04_two_step_halving_and_pass_cap():
    violations = 0
    capped = True
    checked = 0
    for sigma, p in itertools.product(SIGMAS, DIMS):
        for seed in range(SEEDS):
            model, w = gen_random_bench(sigma, p, "random", seed)
            try:
                _, reps = purify_model(model, w)
                rep = reps[("x1", "x2")]
            except Exception:
                capped = False
                continue
            checked += 1
            tr = [m for _, m in rep.trace]
            m0 = tr[0]
            for t in range(1, len(tr) - 1):
                if tr[t + 1] > 0.5 * tr[t - 1] + 1e-10 * m0:
                    violations += 1
    report(4, violations == 0 and capped,
           f"M[t+1] <= 0.5*M[t-1] + 1e-10*M[0] on every recorded trace "
           f"({checked} instances, {violations} violations); all terminated "
           f"within the pass budget")


def test_acceptance_05_permutation_and_linearity():
    rng = np.random.default_rng(2024)
    worst_perm = 0.0
    worst_lin = 0.0
    for _ in range(200):
        shape = (int(rng.integers(2, 7)), int(rng.integers(2, 7)))
        bins = {
            "a": FeatureBins("a", "continuous",
                             edges=tuple(np.arange(1.0, shape[0]))),
            "b": FeatureBins("b", "continuous",
                             edges=tuple(np.arange(1.0, shape[1]))),
        }
        joint = np.abs(rng.normal(size=shape)) + 0.05
        joint /= joint.sum()
        w = {("a", "b"): joint, ("a",): joint.sum(axis=1),
             ("b",): joint.sum(axis=0), (): np.asarray(1.0)}
        wT = {("a", "b"): joint.T, ("a",): joint.sum(axis=0),
              ("b",): joint.sum(axis=1), (): np.asarray(1.0)}
        binsT = {
            "a": FeatureBins("a", "continuous",
                             edges=tuple(np.arange(1.0, shape[1]))),
            "b": FeatureBins("b", "continuous",
                             edges=tuple(np.arange(1.0, shape[0]))),
        }

        def build(vals, bn):
            return AdditiveModel(bn.values(), [EffectTensor(("a", "b"), vals)])

        A = rng.normal(size=shape)
        B = rng.normal(size=shape)
        alpha = float(rng.uniform(-1.0, 2.0))

        # relabeling the two variables commutes with purification
        out, _ = purify_model(build(A, bins), w)
        outT, _ = purify_model(build(A.T, binsT), wT)
        worst_perm = max(worst_perm, float(np.max(np.abs(
            out.effects[("a", "b")].values - outT.effects[("a", "b")].values.T))))

        # purification is linear in the input tensor
        pure = {}
        for key, vals in (("A", A), ("B", B),
                          ("mix", alpha * A + (1.0 - alpha) * B)):
            m, _ = purify_model(build(vals, bins), w)
            pure[key] = m
        for u in pure["mix"].effects:
            blend = (alpha * pure["A"].effects[u].values
                     + (1.0 - alpha) * pure["B"].effects[u].values)
            worst_lin = max(worst_lin, float(np.max(np.abs(
                pure["mix"].effects[u].values - blend))))
    ok = worst_perm <= 1e-10 and worst_lin <= 1e-10
    report(5, ok,
           f"200 instances each: permutation equivariance (max dev "
           f"{worst_perm:.2e}) and linearity (max dev {worst_lin:.2e})")


def _sampled_dataset(rng, model, n_rows):
    cols = {name: [] for name in sorted(model.bins)}
    for _ in range(n_rows):
        for name, col in cols.items():
            b = model.bins[name]
            col.append(representative(b, int(rng.integers(0, b.n_cells))))
    return cols


def test_acceptance_06_purity_and_preservation():
    rng = np.random.default_rng(99)
    modes = itertools.cycle(("uniform", "empirical", "laplace"))
    worst_purity = 0.0
    worst_drift = 0.0
    for _ in range(500):
        model = random_model(rng)
        mode = next(modes)
        if mode == "uniform":
            w = estimate_density(model, "uniform")
        else:
            data = _sampled_dataset(rng, model, 150)
            w = estimate_density(model, mode, data)
        before = grid_predictions(model)
        out, _ = purify_model(model, w)
        after = grid_predictions(out)
        drift = float(np.max(np.abs(after - before) / (1.0 + np.abs(before))))
        purity = check_purity(out, w)["max_abs_slice_mean"]
        worst_purity = max(worst_purity, purity)
        worst_drift = max(worst_drift, drift)
    ok = worst_purity <= 1e-10 and worst_drift <= 1e-10
    report(6, ok,
           f"500 random models, three density modes: worst slice mean "
           f"{worst_purity:.2e}, worst relative prediction drift "
           f"{worst_drift:.2e}")


def test_acceptance_07_log_lambda_demo():
    n = 64
    joint = np.full((n, n), 1.0 / (n * n))
    w = {("x1", "x2"): joint, ("x1",): np.full(n, 1.0 / n),
         ("x2",): np.full(n, 1.0 / n), (): np.asarray(1.0)}

    def share(model):
        per = {u: effect_variance(model.effects[u], w)
               for u in model.effects if u}
        total = sum(per.values())
        return per[("x1", "x2")] / total if total else 0.0

    shares = []
    purified = {}
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        out, _ = purify_model(gen_log_lambda(lam, n), w)
        purified[lam] = out
        shares.append(share(out))
    monotone = all(a <= b for a, b in zip(shares, shares[1:]))

    # independent grid oracle: double-center the tabulated surface
    mid = unit_grid_midpoints(n)
    for lam, surface in ((0.0, np.log(np.outer(mid, mid))),
                         (1.0, np.outer(mid, mid))):
        overall = surface.mean()
        rows = surface.mean(axis=1) - overall
        cols = surface.mean(axis=0) - overall
        inter = surface - overall - rows[:, None] - cols[None, :]
        dev = float(np.max(np.abs(
            purified[lam].effects[("x1", "x2")].values - inter)))
        if lam == 0.0:
            lam0_inter_dev = dev
        else:
            lam1_dev = dev
    ok = shares[0] <= 1e-6 and monotone and lam1_dev <= 1e-6 \
        and lam0_inter_dev <= 1e-6
    report(7, ok,
           f"lambda=0 interaction share {shares[0]:.2e}; shares "
           f"{[f'{s:.3f}' for s in shares]} monotone={monotone}; lambda=1 "
           f"matches the centered-product oracle (dev {lam1_dev:.2e})")


def test_acceptance_08_multiplicative_identifiability():
    n = 32
    joint = np.full((n, n), 1.0 / (n * n))
    w = {("x1", "x2"): joint, ("x1",): np.full(n, 1.0 / n),
         ("x2",): np.full(n, 1.0 / n), (): np.asarray(1.0)}
    outs = []
    for alpha, beta in ((0.0, 0.0), (-1.0, -1.0), (1.0, -1.0)):
        out, _ = purify_model(
            gen_multiplicative(0.5, 1.0, 2.0, 4.0, alpha, beta, n), w)
        outs.append(out)
    worst = 0.0
    for other in outs[1:]:
        for u in outs[0].effects:
            worst = max(worst, float(np.max(np.abs(
                outs[0].effects[u].values - other.effects[u].values))))
    report(8, worst <= 1e-10,
           f"purified product model identical across three (alpha, beta) "
           f"splits (max dev {worst:.2e})")


def test_acceptance_09_tree_ingestion_exactness():
    rng = np.random.default_rng(7)
    worst_before = 0.0
    worst_after = 0.0
    for _ in range(100):
        ens = random_ensemble(rng)
        model = ingest_ensemble(ens)
        feats = sorted(model.bins) or ["f1"]
        points = random_points(rng, feats, 1000)
        truth = np.array([ensemble_eval(ens, p) for p in points])
        scale = 1.0 + np.abs(truth)
        cols = columns(points)
        got = predict(model, cols)
        worst_before = max(worst_before,
                           float(np.max(np.abs(got - truth) / scale)))
        if model.bins:
            out, _ = purify_model(model, uniform_density(model))
            got2 = predict(out, cols)
            worst_after = max(worst_after,
                              float(np.max(np.abs(got2 - truth) / scale)))
    ok = worst_before <= 1e-12 and worst_after <= 1e-12
    report(9, ok,
           f"100 ensembles x 1000 points: ingestion exact (dev "
           f"{worst_before:.2e}); still exact after purification (dev "
           f"{worst_after:.2e})")


def test_acceptance_10_cli_end_to_end(tmp_path):
    def run(args, stdin=""):
        return subprocess.run([sys.executable, "-m", "purefx.cli", *args],
                              input=stdin, capture_output=True, text=True)

    fig1a = tmp_path / "fig1a.json"
    fig1a.write_text(model_to_json(gen_boolean_fig1("a")))
    ok = True
    notes = []

    first = run(["purify", "--model", str(fig1a), "--weights", "uniform"])
    second = run(["purify", "--model", str(fig1a), "--weights", "uniform"])
    pure = model_from_json(first.stdout)
    target = gen_boolean_fig1("d")
    dev = max(float(np.max(np.abs(pure.effects[u].values
                                  - target.effects[u].values)))
              for u in target.effects)
    ok &= first.returncode == 0 and first.stdout == second.stdout \
        and dev <= 1e-12
    notes.append(f"purify fig1a=row d (dev {dev:.2e})")

    b1 = run(["bench", "--sigma", "1", "--dims", "100", "--weights", "uniform"])
    b2 = run(["bench", "--sigma", "1", "--dims", "100", "--weights", "uniform"])
    rows = [line.split(",") for line in b1.stdout.strip().splitlines()[1:]]
    masses = {int(it): float(mass) for _, it, mass in rows}
    ok &= b1.returncode == 0 and b1.stdout == b2.stdout \
        and masses[2] <= 1e-10 * masses[0]
    notes.append("bench uniform one-pass")

    g1 = run(["gen", "--wright", "No Interaction"])
    g2 = run(["gen", "--wright", "No Interaction"])
    p1 = run(["purify", "--weights", "uniform"], stdin=g1.stdout)
    p2 = run(["purify", "--weights", "uniform"], stdin=g2.stdout)
    inter = model_from_json(p1.stdout).effects[("snp1", "snp2")].values
    ok &= g1.returncode == p1.returncode == 0 and g1.stdout == g2.stdout \
        and p1.stdout == p2.stdout and float(np.max(np.abs(inter))) <= 1e-12
    notes.append("gen|purify zero interaction")

    report(10, ok, "; ".join(notes) + "; byte-identical across repeat runs")
