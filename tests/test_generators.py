import itertools

import numpy as np
import pytest

from purefx import (AdditiveModel, DomainError, WeightDensity, check_purity,
                    effect_variance, gen_boolean_fig1, gen_log_lambda,
                    gen_multiplicative, gen_random_bench, gen_wright, predict,
                    purify_model, unpurified_mass)
from purefx.generators import (bench_model, unit_grid_bins,
                               unit_grid_midpoints)

from helpers import uniform_density


def boolean_points(names):
    return [dict(zip(names, vals))
            for vals in itertools.product((0, 1), repeat=len(names))]


def grid_density(n):
    joint = np.full((n, n), 1.0 / (n * n))
    return WeightDensity({
        ("x1", "x2"): joint,
        ("x1",): np.full(n, 1.0 / n),
        ("x2",): np.full(n, 1.0 / n),
        (): np.asarray(1.0),
    })


# --------------------------------------------------------------------------
# Boolean truth-table variants
# --------------------------------------------------------------------------

def test_fig1_row_values_are_frozen():
    d = gen_boolean_fig1("d")
    assert float(d.effects[()].values) == 0.0
    assert np.array_equal(d.effects[("x1",)].values, np.zeros(2))
    assert np.array_equal(d.effects[("x2",)].values, np.zeros(2))
    assert np.array_equal(d.effects[("x1", "x2")].values,
                          np.array([[-0.25, 0.25], [0.25, -0.25]]))


def test_fig1_unknown_row_rejected():
    with pytest.raises(DomainError):
        gen_boolean_fig1("e")


def test_all_fig1_rows_purify_to_row_d():
    target = gen_boolean_fig1("d")
    w = uniform_density(target)
    for row in "abc":
        out, _ = purify_model(gen_boolean_fig1(row), w)
        for u in target.effects:
            assert np.allclose(out.effects[u].values, target.effects[u].values,
                               atol=1e-12)


def test_fig1_row_d_is_already_pure():
    d = gen_boolean_fig1("d")
    w = uniform_density(d)
    assert unpurified_mass(d.effects[("x1", "x2")], w) == 0.0
    assert check_purity(d, w).passed


# --------------------------------------------------------------------------
# Two-SNP generators
# --------------------------------------------------------------------------

WRIGHT_TABLE = {
    # name -> (main1, main2, pure interaction strength at (1, 1))
    "Interaction Only": (0.5, 0.5, 0.25),
    "Modifier SNP": (0.5, 1.5, 0.25),
    "No Interaction": (1.0, 1.0, 0.0),
    "Redundant": (0.5, 0.5, -0.25),
    "Synergistic": (1.5, 1.5, 0.25),
}


def test_wright_purified_read_offs_match_table():
    for name, (m1, m2, i11) in WRIGHT_TABLE.items():
        model = gen_wright(name)
        out, _ = purify_model(model, uniform_density(model))
        f1 = out.effects[("snp1",)].values
        f2 = out.effects[("snp2",)].values
        f12 = out.effects[("snp1", "snp2")].values
        assert f1[1] - f1[0] == pytest.approx(m1, abs=1e-12)
        assert f2[1] - f2[0] == pytest.approx(m2, abs=1e-12)
        assert f12[1, 1] == pytest.approx(i11, abs=1e-12)


def test_wright_purification_preserves_truth_table():
    for name in WRIGHT_TABLE:
        model = gen_wright(name)
        out, _ = purify_model(model, uniform_density(model))
        for p in boolean_points(("snp1", "snp2")):
            assert predict(out, p) == pytest.approx(predict(model, p), abs=1e-12)


def test_no_interaction_generator_has_zero_pure_interaction():
    model = gen_wright("No Interaction")
    out, _ = purify_model(model, uniform_density(model))
    assert np.allclose(out.effects[("snp1", "snp2")].values, 0.0, atol=1e-12)
    assert effect_variance(out.effects[("snp1", "snp2")],
                           uniform_density(model)) <= 1e-24


def test_wright_unknown_name_rejected():
    with pytest.raises(DomainError):
        gen_wright("Epistatic")


# --------------------------------------------------------------------------
# Multiplicative split
# --------------------------------------------------------------------------

def test_multiplicative_predicts_the_product_formula():
    n = 8
    m = gen_multiplicative(0.0, 1.0, 1.0, 1.0, alpha=0.3, beta=-0.7, n=n)
    mid = unit_grid_midpoints(n)
    for i in range(n):
        for j in range(n):
            p = {"x1": mid[i], "x2": mid[j]}
            assert predict(m, p) == pytest.approx(
                mid[i] + mid[j] + mid[i] * mid[j], abs=1e-12)


def test_multiplicative_purified_form_is_shift_invariant():
    n = 16
    w = grid_density(n)
    base, _ = purify_model(gen_multiplicative(0.5, 1.0, -2.0, 3.0, 0.0, 0.0, n), w)
    for alpha, beta in ((-1.0, -1.0), (1.0, -1.0), (0.25, 0.75)):
        out, _ = purify_model(
            gen_multiplicative(0.5, 1.0, -2.0, 3.0, alpha, beta, n), w)
        for u in base.effects:
            assert np.allclose(out.effects[u].values, base.effects[u].values,
                               atol=1e-10)


def test_pure_product_decomposition_on_unit_grid():
    n = 32
    w = grid_density(n)
    out, _ = purify_model(gen_multiplicative(0.0, 0.0, 0.0, 1.0, 0.0, 0.0, n), w)
    mid = unit_grid_midpoints(n)
    mean = mid.mean()
    assert mean == pytest.approx(0.5)
    # x1*x2 splits into 0.25 + 0.5*(x-0.5) mains + centered product
    assert float(out.effects[()].values) == pytest.approx(0.25, abs=1e-10)
    assert np.allclose(out.effects[("x1",)].values, 0.5 * (mid - 0.5), atol=1e-10)
    assert np.allclose(out.effects[("x2",)].values, 0.5 * (mid - 0.5), atol=1e-10)
    assert np.allclose(out.effects[("x1", "x2")].values,
                       np.outer(mid - 0.5, mid - 0.5), atol=1e-10)


def test_multiplicative_rejects_tiny_grid():
    with pytest.raises(DomainError):
        gen_multiplicative(0.0, 1.0, 1.0, 1.0, 0.0, 0.0, n=1)


# --------------------------------------------------------------------------
# log-lambda blend
# --------------------------------------------------------------------------

def interaction_share(model, w):
    total = sum(effect_variance(model.effects[u], w)
                for u in model.effects if u)
    if total == 0.0:
        return 0.0
    return effect_variance(model.effects[("x1", "x2")], w) / total


def test_log_lambda_zero_is_purely_additive():
    n = 64
    w = grid_density(n)
    out, _ = purify_model(gen_log_lambda(0.0, n), w)
    assert interaction_share(out, w) <= 1e-6
    mid = unit_grid_midpoints(n)
    expected = np.log(mid) - np.log(mid).mean()
    assert np.allclose(out.effects[("x1",)].values, expected, atol=1e-6)
    assert np.allclose(out.effects[("x2",)].values, expected, atol=1e-6)


def test_log_lambda_interaction_share_increases():
    n = 64
    w = grid_density(n)
    shares = []
    for lam in (0.0, 0.25, 0.5, 0.75, 1.0):
        out, _ = purify_model(gen_log_lambda(lam, n), w)
        shares.append(interaction_share(out, w))
    assert all(a < b for a, b in zip(shares, shares[1:]))


def test_log_lambda_one_matches_pure_product():
    n = 32
    w = grid_density(n)
    out, _ = purify_model(gen_log_lambda(1.0, n), w)
    mid = unit_grid_midpoints(n)
    assert np.allclose(out.effects[("x1", "x2")].values,
                       np.outer(mid - 0.5, mid - 0.5), atol=1e-10)


def test_log_lambda_domain_checked():
    with pytest.raises(DomainError):
        gen_log_lambda(-0.1, 8)
    with pytest.raises(DomainError):
        gen_log_lambda(1.1, 8)


# --------------------------------------------------------------------------
# Random benchmark instances
# --------------------------------------------------------------------------

def test_bench_is_deterministic_per_seed():
    a, wa = gen_random_bench(10.0, 25, "random", seed=7)
    b, wb = gen_random_bench(10.0, 25, "random", seed=7)
    assert np.array_equal(a.values, b.values)
    assert np.array_equal(wa.table(("x1", "x2")), wb.table(("x1", "x2")))
    c, _ = gen_random_bench(10.0, 25, "random", seed=8)
    assert not np.array_equal(a.values, c.values)


def test_bench_uniform_mode_converges_in_one_pass():
    for sigma in (1.0, 100.0):
        for p in (2, 100):
            tensor, w = gen_random_bench(sigma, p, "uniform", seed=0)
            m0 = unpurified_mass(tensor, w)
            model = bench_model(tensor)
            _, reports = purify_model(model, w, max_passes=1)
            report = reports[("x1", "x2")]
            assert report.final_mass <= 1e-10 * m0
            assert report.passes == 1


def test_bench_random_mode_trace_decreases():
    tensor, w = gen_random_bench(10.0, 25, "random", seed=3)
    model = bench_model(tensor)
    _, reports = purify_model(model, w)
    masses = [m for _, m in reports[("x1", "x2")].trace]
    assert masses[0] > 0
    # most mass moves in the first full pass
    assert masses[2] <= 0.5 * masses[0]
    assert masses[-1] <= 1e-10 * masses[0]


def test_bench_argument_validation():
    with pytest.raises(DomainError):
        gen_random_bench(0.0, 10, "uniform", seed=0)
    with pytest.raises(DomainError):
        gen_random_bench(1.0, 1, "uniform", seed=0)
    with pytest.raises(DomainError):
        gen_random_bench(1.0, 10, "laplace", seed=0)


def test_unit_grid_bins_partition():
    b = unit_grid_bins("x", 4)
    assert b.edges == (0.25, 0.5, 0.75)
    assert b.n_cells == 4
