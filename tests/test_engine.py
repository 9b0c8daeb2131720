import itertools
import re

import numpy as np
import pytest

from purefx import (AdditiveModel, DegenerateSliceError, DensitySpec,
                    DomainError, EffectTensor, FeatureBins, GridDataset,
                    NonConvergenceError, WeightDensity, check_purity,
                    estimate_density, gen_boolean_fig1, gen_random_bench,
                    purify_model, unpurified_mass)
from purefx.engine import _Anderson, _purify_subset
from purefx.generators import bench_model

from helpers import (grid_predictions, oracle_matrix_mass, oracle_purify_model,
                     oracle_purify_subset, oracle_slice_means, random_density,
                     random_model, uniform_density, with_categorical)


def boolean_uniform_density():
    return WeightDensity({
        ("x1", "x2"): np.full((2, 2), 0.25),
        ("x1",): np.array([0.5, 0.5]),
        ("x2",): np.array([0.5, 0.5]),
        (): np.asarray(1.0),
    })


# --------------------------------------------------------------------------
# purify_model on a single interaction
# --------------------------------------------------------------------------

def test_purify_fig1a_interaction_moves_expected_mass():
    m = gen_boolean_fig1("a")
    w = boolean_uniform_density()
    out, reports = purify_model(m, w)
    expect = np.array([[-0.25, 0.25], [0.25, -0.25]])
    assert np.allclose(out.effects[("x1", "x2")].values, expect, atol=1e-15)
    # the cascade ends at row d: zero mains and intercept
    assert np.allclose(out.effects[("x1",)].values, [0.0, 0.0], atol=1e-15)
    assert np.allclose(out.effects[("x2",)].values, [0.0, 0.0], atol=1e-15)
    assert abs(out.intercept) <= 1e-15
    assert reports[("x1", "x2")].final_mass <= 1e-15


def test_purify_already_pure_tensor_is_fixed_point():
    vals = np.array([[-0.25, 0.25], [0.25, -0.25]])
    m = AdditiveModel(
        {"x1": FeatureBins("x1", "continuous", edges=(0.5,)),
         "x2": FeatureBins("x2", "continuous", edges=(0.5,))},
        {("x1", "x2"): EffectTensor(("x1", "x2"), vals)},
    )
    w = boolean_uniform_density()
    out, reports = purify_model(m, w)
    assert np.array_equal(out.effects[("x1", "x2")].values, vals)
    assert reports[("x1", "x2")].passes == 1


def test_purify_random_3x3_against_loop_oracle():
    rng = np.random.default_rng(42)
    for _ in range(25):
        vals = rng.normal(size=(3, 3))
        joint = np.abs(rng.normal(size=(3, 3))) + 0.05
        joint /= joint.sum()
        bins = {n: FeatureBins(n, "continuous", edges=(0.0, 1.0)) for n in ("a", "b")}
        m = AdditiveModel(bins, {("a", "b"): EffectTensor(("a", "b"), vals)})
        w = WeightDensity({
            ("a", "b"): joint,
            ("a",): joint.sum(axis=1),
            ("b",): joint.sum(axis=0),
            (): np.asarray(1.0),
        })
        out, _ = purify_model(m, w)
        means = oracle_slice_means(out.effects[("a", "b")].values, joint)
        assert max(abs(x) for x in means) <= 1e-10


def test_purify_preserves_predictions():
    rng = np.random.default_rng(5)
    m = gen_boolean_fig1("b")
    w = boolean_uniform_density()
    out, _ = purify_model(m, w)
    assert np.allclose(grid_predictions(out), grid_predictions(m), atol=1e-14)


def test_purify_missing_subset_errors():
    m = gen_boolean_fig1("a")
    w = WeightDensity({("x1", "x2"): np.full((2, 2), 0.25)})
    with pytest.raises(DomainError):
        purify_model(m, w)


def test_bad_tol_or_pass_budget_raises_and_zero_tol_is_legal():
    m = gen_boolean_fig1("a")
    w = boolean_uniform_density()
    out, _ = purify_model(m, w, tol=0.0)
    assert check_purity(out, w, tol=0.0).passed
    for bad in (-1e-12, float("nan"), float("inf")):
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            purify_model(m, w, tol=bad)
        with pytest.raises(DomainError, match="tol must be finite and >= 0"):
            check_purity(m, w, tol=bad)
    with pytest.raises(DomainError, match="max_passes must be at least 1"):
        purify_model(m, w, max_passes=0)


def test_nonconvergence_carries_report():
    tensor, w = gen_random_bench(1.0, 25, "random", seed=3)
    m = bench_model(tensor)
    with pytest.raises(NonConvergenceError) as exc:
        purify_model(m, w, tol=1e-15, max_passes=1)
    assert exc.value.report is not None
    assert exc.value.report.passes == 1
    assert len(exc.value.report.trace) == 3


def _cube_model(rng, cells=(4, 5, 3)):
    names = ("a", "b", "c")
    bins = {n: FeatureBins(n, "continuous",
                           edges=tuple(np.arange(1, k, dtype=float)))
            for n, k in zip(names, cells)}
    return AdditiveModel(bins, {
        (): EffectTensor((), np.asarray(float(rng.normal()))),
        names: EffectTensor(names, rng.normal(size=cells)),
    })


def test_returned_cube_is_pure_by_its_own_values():
    rng = np.random.default_rng(43)
    for _ in range(10):
        m = _cube_model(rng)
        w = random_density(rng, m)
        scale = float(np.max(np.abs(m.effects[("a", "b", "c")].values)))
        out, reports = purify_model(m, w)
        assert reports[("a", "b", "c")].passes > 1
        means = oracle_slice_means(out.effects[("a", "b", "c")].values,
                                   w.table(("a", "b", "c")))
        assert max(abs(x) for x in means) <= 1e-12 * scale


def test_cube_nonconvergence_reports_the_recomputed_worst_mean():
    rng = np.random.default_rng(47)
    m = _cube_model(rng)
    w = random_density(rng, m)
    u = ("a", "b", "c")
    with pytest.raises(NonConvergenceError) as exc:
        purify_model(m, w, max_passes=1)
    assert exc.value.report.passes == 1
    assert len(exc.value.report.trace) == 4
    # The oracle leaves the tensor after its one pass in place.
    tensors = {k: np.array(e.values) for k, e in m.effects.items()}
    scale = float(np.max(np.abs(tensors[u])))
    with pytest.raises(NonConvergenceError):
        oracle_purify_subset(tensors, w, u, 1e-12, scale, 1, False)
    worst = max(abs(x) for x in oracle_slice_means(tensors[u], w.table(u)))
    assert f"worst slice mean {worst:.3e} above limit" in str(exc.value)


def _sparse_empirical_density(rng, model, n_rows):
    """Counts of a few skewed rows: many zero-weight cells and whole slices.

    Continuous rows pile up at the low end of the [-2, 2] edge range, and
    categorical rows never take the label ``L2``.
    """
    cols = {}
    for name, b in model.bins.items():
        if b.kind == "categorical":
            cols[name] = [str(x) for x in rng.choice(b.labels[:2], n_rows)]
        else:
            cols[name] = rng.beta(0.5, 3.0, n_rows) * 4.0 - 2.0
    return estimate_density(model, DensitySpec("empirical", GridDataset(cols)))


def _four_way_hierarchy(rng):
    """Every subset of four features with 2, 3, 4 and 5 cells, N(0, 1) values.

    The edges split [-2, 2] evenly, where ``_sparse_empirical_density`` puts
    its rows.
    """
    names = ("x0", "x1", "x2", "x3")
    bins = {n: FeatureBins(n, "continuous",
                           edges=tuple(np.linspace(-2.0, 2.0, cells + 1)[1:-1]))
            for n, cells in zip(names, (2, 3, 4, 5))}
    effects = {}
    for order in range(5):
        for u in itertools.combinations(names, order):
            shape = tuple(bins[f].n_cells for f in u)
            effects[u] = EffectTensor(u, rng.normal(size=shape))
    return AdditiveModel(bins, effects)


def _mixing_starts(report):
    """The pass after which the sweep mixes, from a plain sweep's ``report``.

    That is the first pass that does not halve the mass over its axis steps;
    None when every pass before the last halves it, so no pass is mixed.
    """
    k = len(report.vars)
    masses = [mass for _, mass in report.trace]
    for p in range(1, report.passes):
        if masses[p * k] > 0.5 * masses[(p - 1) * k]:
            return p
    return None


def _matches_oracle(m, w, strict=False):
    """``purify_model`` against the full-tensor oracle; None if both raise.

    The engine's cascade is stepped one tensor at a time, and each step is
    held to the oracle's sweep of a copy of that same input.  A tensor whose
    oracle sweep never reaches the pass that starts the mixing
    (``_mixing_starts``) takes the same passes, with trace masses within
    1e-11 x its initial mass plus 1e-14 x scale, and leaves every tensor
    within 1e-12 x scale of the oracle's, zero-weight cells too.  A mixed
    tensor takes fewer passes, keeps one trace row per axis step, matches
    the oracle's trace up to that pass and leaves every tensor within
    1e-10 x scale.  End to end, tensors swept before the first mixed one
    are within 1e-12 x scale of the whole oracle cascade, the rest within
    1e-10 x scale.  Returns ``purify_model``'s reports and the oracle's.
    """
    try:
        want, want_reports = oracle_purify_model(m, w, strict=strict)
    except DegenerateSliceError:
        with pytest.raises(DegenerateSliceError):
            purify_model(m, w, strict=strict)
        return None
    out, reports = purify_model(m, w, strict=strict)
    scale = max((float(np.max(np.abs(e.values)))
                 for u, e in m.effects.items() if u), default=0.0)
    assert reports.keys() == want_reports.keys()
    tensors = {u: np.array(e.values, dtype=float) for u, e in m.effects.items()}
    swept, early = [], None
    for u, report in reports.items():
        given = {k: v.copy() for k, v in tensors.items()}
        ref = oracle_purify_subset(given, w, u, 1e-12, scale, 10_000, strict)
        assert _purify_subset(tensors, w, u, 1e-12, scale, 10_000,
                              strict) == report, u
        assert len(report.trace) == 1 + len(u) * report.passes, u
        start = _mixing_starts(ref)
        mixes = start is not None
        if mixes:
            assert report.passes < ref.passes, u
            if early is None:
                early = set(swept)
        else:
            assert report.passes == ref.passes, u
            start = ref.passes
        swept.append(u)
        # A target whose deposits arrive already centred starts at a
        # rounding-level mass, hence the floor relative to scale.
        bound = 1e-11 * ref.trace[0][1] + 1e-14 * scale
        for (it, mass), (ref_it, ref_mass) in zip(report.trace[:1 + len(u) * start],
                                                  ref.trace):
            assert it == ref_it
            assert abs(mass - ref_mass) <= bound, (u, it)
        assert tensors.keys() == given.keys()
        bound = (1e-10 if mixes else 1e-12) * scale
        for k, values in given.items():
            assert np.max(np.abs(tensors[k] - values), initial=0.0) <= bound, (u, k)
    assert out.effects.keys() == want.keys()
    for u, values in want.items():
        bound = (1e-12 if early is None or u in early else 1e-10) * scale
        assert np.max(np.abs(out.effects[u].values - values)) <= bound, u
    return reports, want_reports


def test_running_sums_match_the_full_tensor_oracle():
    rng = np.random.default_rng(59)
    seen = {"zero cells": 0, "zero slices": 0, "strict raised": 0,
            "strict passed": 0, "categorical": 0, "cube": 0}
    mixed = 0
    for case in range(60):
        m = random_model(rng)
        if case % 3 == 0:
            m = with_categorical(rng, m)
            seen["categorical"] += 1
        if case % 2:
            w = random_density(rng, m)
        else:
            w = _sparse_empirical_density(rng, m, int(rng.integers(8, 60)))
        strict = case % 4 >= 2
        matched = _matches_oracle(m, w, strict)
        if matched is None:
            seen["strict raised"] += 1
            continue
        seen["strict passed"] += strict
        reports, want_reports = matched
        mixed += any(map(_mixing_starts, want_reports.values()))
        tables = [w.table(u) for u in reports]
        seen["zero cells"] += any(np.any(t == 0.0) for t in tables)
        seen["zero slices"] += any(np.any(t.sum(axis=a) == 0.0)
                                   for t in tables for a in range(t.ndim))
        seen["cube"] += any(len(u) == 3 for u in reports)
    assert min(seen.values()) >= 3, seen
    # A 2x3x4x5 tensor: its contractions have two batch axes, and its
    # unequal axes tell each layout's axes apart.
    m = _four_way_hierarchy(rng)
    for w in (random_density(rng, m), _sparse_empirical_density(rng, m, 200)):
        reports, want_reports = _matches_oracle(m, w)
        mixed += any(map(_mixing_starts, want_reports.values()))
        assert reports[("x0", "x1", "x2", "x3")].passes > 10
    assert mixed >= 3


def _beta_cubes():
    """Three 16^3 hierarchies, each on 5000 sparse Beta(3, 3) rows."""
    for seed in range(3):
        rng = np.random.default_rng(seed)
        m = _full_cube_hierarchy(rng, 16)
        rows = rng.beta(3.0, 3.0, (5000, 3))
        data = GridDataset(dict(zip(sorted(m.bins), rows.T)))
        yield m, estimate_density(m, DensitySpec("empirical", data))


def test_running_sums_match_the_oracle_over_many_passes():
    # Sparse Beta(3, 3) rows leave thousands of zero-weight cells in a
    # 16^3 tensor, which the plain sweep then takes 70-230 passes over.
    # The mixed sweep must still land on the plain sweep's values, zero-
    # weight cells included, where a Krylov solver would not.
    for m, w in _beta_cubes():
        _, want_reports = _matches_oracle(m, w)
        assert want_reports[("x0", "x1", "x2")].passes > 50


def test_mixing_cuts_the_passes_on_sparse_cubes():
    # From the pass that stops halving the mass, the mixed sweep takes at
    # most a third of the passes the plain sweep still takes.
    u = ("x0", "x1", "x2")
    for m, w in _beta_cubes():
        out, reports = purify_model(m, w)
        tensors = {k: np.array(e.values) for k, e in m.effects.items()}
        scale = max(float(np.max(np.abs(v))) for k, v in tensors.items() if k)
        plain = oracle_purify_subset(tensors, w, u, 1e-12, scale, 10_000, False)
        start = _mixing_starts(plain)
        assert reports[u].passes - start <= (plain.passes - start) / 3
        # A mixed pass's last trace row is the mass after the mixing, so the
        # final mass is the returned tensor's, up to the running sums' drift.
        mass = unpurified_mass(out.effects[u], w)
        assert abs(reports[u].final_mass - mass) <= 0.05 * mass


def test_mixing_on_rounding_noise_runs_out_the_budget_cleanly():
    # tol 0 asks for exact zeros, so the mixed sweep goes on over rounding
    # noise, where the mixing's small system is nearly singular, until the
    # pass budget ends.
    m, w = next(_beta_cubes())
    with pytest.raises(NonConvergenceError) as exc:
        purify_model(m, w, tol=0.0, max_passes=300)
    assert exc.value.report.passes == 300
    assert np.isfinite(exc.value.report.final_mass)


def test_mixing_a_repeated_step_changes_nothing():
    # Equal steps make every stored difference zero, hence a zero system.
    mixer = _Anderson(np.array([0.25, 0.75, 1.0]))
    deposits, sums = np.zeros(3), np.ones(3)
    for _ in range(3):
        mixer.mix(deposits, sums, np.array([1.0, -1.0, 0.0]))
    assert np.array_equal(deposits, np.zeros(3))
    assert np.array_equal(sums, np.ones(3))


def test_degenerate_slice_skipped_by_default_and_fatal_in_strict():
    joint = np.array([[0.5, 0.5], [0.0, 0.0]])
    bins = {n: FeatureBins(n, "continuous", edges=(0.5,)) for n in ("a", "b")}
    m = AdditiveModel(bins,
                      {("a", "b"): EffectTensor(("a", "b"), np.ones((2, 2)))})
    w = WeightDensity({
        ("a", "b"): joint,
        ("a",): np.array([1.0, 0.0]),
        ("b",): np.array([0.5, 0.5]),
    })
    w = WeightDensity({**w.tables, (): np.asarray(1.0)})
    out, _ = purify_model(m, w)
    # the zero-weight row cannot hold mass; the cascade still ends pure
    report = check_purity(out, w)
    assert report.passed
    with pytest.raises(DegenerateSliceError):
        purify_model(m, w, strict=True)


# --------------------------------------------------------------------------
# unpurified_mass
# --------------------------------------------------------------------------

def test_mass_fig1a_interaction_matches_loop_oracle():
    m = gen_boolean_fig1("a")
    w = boolean_uniform_density()
    t = m.effects[("x1", "x2")]
    expected = oracle_matrix_mass(t.values, np.full((2, 2), 0.25))
    assert expected == pytest.approx(0.25)
    assert unpurified_mass(t, w) == pytest.approx(expected)


def test_trace_starts_at_the_unpurified_mass():
    # The sweep's iteration-0 mass and unpurified_mass share one definition,
    # so they agree exactly on every effect that receives no deposits.
    rng = np.random.default_rng(67)
    checked = 0
    for case in range(20):
        m = random_model(rng)
        if case % 2:
            w = random_density(rng, m)
        else:
            w = _sparse_empirical_density(rng, m, int(rng.integers(8, 60)))
        _, reports = purify_model(m, w)
        top = max(map(len, m.effects))
        for u, e in m.effects.items():
            if u and len(u) == top:
                assert reports[u].initial_mass == unpurified_mass(e, w), u
                checked += 1
    assert checked >= 10


def test_mass_of_purified_tensor_is_zero():
    m = gen_boolean_fig1("a")
    w = boolean_uniform_density()
    out, _ = purify_model(m, w)
    assert unpurified_mass(out.effects[("x1", "x2")], w) <= 1e-12


def test_mass_of_zero_tensor_is_zero():
    t = EffectTensor(("x1", "x2"), np.zeros((2, 2)))
    w = boolean_uniform_density()
    assert unpurified_mass(t, w) == 0.0


def test_mass_random_matches_loop_oracle():
    rng = np.random.default_rng(9)
    for _ in range(20):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        vals = rng.normal(size=shape)
        joint = np.abs(rng.normal(size=shape)) + 0.01
        joint /= joint.sum()
        t = EffectTensor(("a", "b"), vals)
        w = WeightDensity({("a", "b"): joint})
        assert unpurified_mass(t, w) == pytest.approx(
            oracle_matrix_mass(vals, joint), rel=1e-12)


# --------------------------------------------------------------------------
# purify_model and check_purity
# --------------------------------------------------------------------------

def test_check_purity_flags_fig1a():
    m = gen_boolean_fig1("a")
    w = boolean_uniform_density()
    report = check_purity(m, w, tol=1e-10)
    assert not report.passed
    assert report.max_abs_slice_mean == pytest.approx(0.5)


def test_check_purity_intercept_only_is_vacuous_pass():
    m = AdditiveModel({}, {(): EffectTensor((), np.asarray(2.0))})
    report = check_purity(m, WeightDensity({(): np.asarray(1.0)}))
    assert report.passed
    assert report.max_abs_slice_mean == 0.0


def test_purify_model_intercept_only_unchanged():
    m = AdditiveModel({}, {(): EffectTensor((), np.asarray(2.0))})
    out, reports = purify_model(m, WeightDensity({(): np.asarray(1.0)}))
    assert out.intercept == 2.0
    assert reports == {}


def test_purify_model_missing_weight_subset_errors_before_mutation():
    m = gen_boolean_fig1("a")
    w = WeightDensity({
        ("x1", "x2"): np.full((2, 2), 0.25),
        ("x1",): np.array([0.5, 0.5]),
        ("x2",): np.array([0.5, 0.5]),
        # intercept table missing
    })
    with pytest.raises(DomainError, match="missing subsets"):
        purify_model(m, w)


def test_purify_model_random_instances_pure_and_prediction_preserving():
    rng = np.random.default_rng(17)
    for _ in range(40):
        m = random_model(rng)
        w = random_density(rng, m)
        before = grid_predictions(m)
        out, _ = purify_model(m, w)
        after = grid_predictions(out)
        assert np.all(np.abs(after - before) <= 1e-10 * (1.0 + np.abs(before)))
        assert check_purity(out, w, tol=1e-10).passed
        # verify purity with the loop oracle too
        for u, eff in out.effects.items():
            if u:
                means = oracle_slice_means(eff.values, w.table(u))
                assert max((abs(x) for x in means), default=0.0) <= 1e-10


def test_purify_model_idempotent():
    rng = np.random.default_rng(23)
    for _ in range(10):
        m = random_model(rng)
        w = random_density(rng, m)
        once, _ = purify_model(m, w)
        twice, _ = purify_model(once, w)
        for u in once.effects:
            assert np.allclose(twice.effects[u].values, once.effects[u].values,
                               atol=1e-12)


# --------------------------------------------------------------------------
# Convergence-rate and structural properties
# --------------------------------------------------------------------------

def test_uniform_weights_converge_in_one_pass_any_shape():
    rng = np.random.default_rng(31)
    for _ in range(30):
        shape = (int(rng.integers(2, 30)), int(rng.integers(2, 30)))
        vals = rng.normal(scale=float(rng.choice([1, 10, 100])), size=shape)
        joint = np.full(shape, 1.0 / (shape[0] * shape[1]))
        bins = {
            "a": FeatureBins("a", "continuous",
                             edges=tuple(np.arange(1, shape[0], dtype=float))),
            "b": FeatureBins("b", "continuous",
                             edges=tuple(np.arange(1, shape[1], dtype=float))),
        }
        m = AdditiveModel(bins, {("a", "b"): EffectTensor(("a", "b"), vals)})
        w = WeightDensity({
            ("a", "b"): joint,
            ("a",): joint.sum(axis=1),
            ("b",): joint.sum(axis=0),
            (): np.asarray(1.0),
        })
        _, reports = purify_model(m, w, max_passes=1)
        report = reports[("a", "b")]
        assert report.final_mass <= 1e-10 * report.initial_mass


def test_two_step_halving_bound_random_weights():
    # M^{t+1} <= 0.5 M^{t-1} + slack once the tensor is overall-centered
    # (true from t >= 1, so the comparison starts at t = 2).
    for seed in range(30):
        tensor, w = gen_random_bench(10.0, 25, "random", seed)
        m = bench_model(tensor)
        _, reports = purify_model(m, w)
        masses = [mass for _, mass in reports[("x1", "x2")].trace]
        m0 = masses[0]
        for t in range(2, len(masses) - 1):
            assert masses[t + 1] <= 0.5 * masses[t - 1] + 1e-10 * m0


def test_permutation_equivariance():
    rng = np.random.default_rng(37)
    for _ in range(30):
        m = random_model(rng, max_features=2, max_order=2)
        w = random_density(rng, m)
        perms = {n: rng.permutation(m.bins[n].n_cells) for n in m.bins}

        def apply(effects_or_tables, inverse=False):
            out = {}
            for u, arr in effects_or_tables.items():
                a = np.array(arr)
                for axis, name in enumerate(u):
                    p = perms[name]
                    if inverse:
                        p = np.argsort(p)
                    a = np.take(a, p, axis=axis)
                out[u] = a
            return out

        pm = AdditiveModel(m.bins, {
            u: EffectTensor(u, v)
            for u, v in apply({u: e.values for u, e in m.effects.items()}).items()
        })
        pw = WeightDensity(apply(dict(w.tables)))
        direct, _ = purify_model(m, w)
        permuted, _ = purify_model(pm, pw)
        unpermuted = apply({u: e.values for u, e in permuted.effects.items()},
                           inverse=True)
        for u in direct.effects:
            assert np.allclose(direct.effects[u].values, unpermuted[u], atol=1e-10)


def test_purification_is_linear_in_the_interaction():
    rng = np.random.default_rng(41)
    for _ in range(30):
        shape = (int(rng.integers(2, 6)), int(rng.integers(2, 6)))
        bins = {
            "a": FeatureBins("a", "continuous",
                             edges=tuple(np.arange(1, shape[0], dtype=float))),
            "b": FeatureBins("b", "continuous",
                             edges=tuple(np.arange(1, shape[1], dtype=float))),
        }
        mains = {
            (): EffectTensor((), np.asarray(float(rng.normal()))),
            ("a",): EffectTensor(("a",), rng.normal(size=shape[0])),
            ("b",): EffectTensor(("b",), rng.normal(size=shape[1])),
        }
        A = rng.normal(size=shape)
        B = rng.normal(size=shape)
        alpha = float(rng.uniform(-1.0, 2.0))
        beta = 1.0 - alpha
        joint = np.abs(rng.normal(size=shape)) + 0.05
        joint /= joint.sum()
        w = WeightDensity({
            ("a", "b"): joint,
            ("a",): joint.sum(axis=1),
            ("b",): joint.sum(axis=0),
            (): np.asarray(1.0),
        })

        def purified(inter):
            m = AdditiveModel(bins, {
                **mains, ("a", "b"): EffectTensor(("a", "b"), inter)})
            out, _ = purify_model(m, w)
            return out

        mixed = purified(alpha * A + beta * B)
        pa = purified(A)
        pb = purified(B)
        for u in mixed.effects:
            combo = alpha * pa.effects[u].values + beta * pb.effects[u].values
            assert np.allclose(mixed.effects[u].values, combo, atol=1e-10)


# --------------------------------------------------------------------------
# The scale-relative purity rule
# --------------------------------------------------------------------------

def _scaled(model, c):
    return AdditiveModel(model.bins, {u: EffectTensor(u, c * e.values)
                                      for u, e in model.effects.items()})


def test_purification_is_scale_equivariant():
    rng = np.random.default_rng(53)
    for _ in range(24):
        m = random_model(rng)
        w = random_density(rng, m)
        base, base_reports = purify_model(m, w)
        scale = max(float(np.max(np.abs(e.values))) for e in m.effects.values())
        for c in (1e-6, 1e3, 1e6):
            out, reports = purify_model(_scaled(m, c), w)
            assert {u: r.passes for u, r in reports.items()} == \
                {u: r.passes for u, r in base_reports.items()}
            for u, e in base.effects.items():
                assert np.max(np.abs(out.effects[u].values / c - e.values)) \
                    <= 1e-12 * scale
            for raw, ref in ((out, base), (_scaled(m, c), m)):
                assert check_purity(raw, w).passed == check_purity(ref, w).passed


def test_mixing_is_scale_free_at_extreme_scales():
    # The mixing's small system is built from differences divided by their
    # largest entry, so it neither overflows nor underflows.
    m, w = next(_beta_cubes())
    base, base_reports = purify_model(m, w)
    scale = max(float(np.max(np.abs(e.values))) for e in m.effects.values())
    for c in (1e-200, 1e250):
        out, reports = purify_model(_scaled(m, c), w)
        assert {u: r.passes for u, r in reports.items()} == \
            {u: r.passes for u, r in base_reports.items()}
        for u, e in base.effects.items():
            assert np.max(np.abs(out.effects[u].values / c - e.values)) \
                <= 1e-12 * scale


def _full_cube_hierarchy(rng, cells):
    """3 features x ``cells`` unit cells, every subset up to order 3, N(0, 1)."""
    names = ("x0", "x1", "x2")
    edges = tuple(k / cells for k in range(1, cells))
    bins = {n: FeatureBins(n, "continuous", edges=edges) for n in names}
    effects = {(): EffectTensor((), np.asarray(float(rng.normal())))}
    for order in range(1, 4):
        for u in itertools.combinations(names, order):
            effects[u] = EffectTensor(u, rng.normal(size=(cells,) * order))
    return AdditiveModel(bins, effects)


def test_sparse_cubed_rows_converge():
    # 3 features x 50 unit cells, every subset up to order 3 with N(0, 1)
    # values, empirical weights from 20k rows of U**3 drawn after the model.
    # The rows' heavy skew leaves many near-empty cells, so the 3-D tensor
    # contracts slowly and its worst slice mean must still reach the limit.
    names = ("x0", "x1", "x2")
    rng = np.random.default_rng(3)
    m = _full_cube_hierarchy(rng, 50)
    rows = np.round(rng.random((20_000, 3)) ** 3, 6)
    data = GridDataset(dict(zip(names, rows.T)))
    w = estimate_density(m, DensitySpec("empirical", data))
    # The plain sweep does not converge in 100 passes (it takes 1011).
    tensors = {u: np.array(e.values) for u, e in m.effects.items()}
    scale = max(float(np.max(np.abs(v))) for u, v in tensors.items() if u)
    with pytest.raises(NonConvergenceError):
        oracle_purify_subset(tensors, w, names, 1e-12, scale, 100, False)
    out, reports = purify_model(m, w)
    assert reports[names].passes <= 250
    assert check_purity(out, w).passed
