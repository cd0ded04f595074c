"""Temporal mollification: kernel normalization, convex-combination
properties and quadrature accuracy of the compiled kernel average, its
agreement with the numpy reference, and the global fixed-point sweeps."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfphase as cf
from cfphase.mollifier import MollifierError, _mollify_arrays

from conftest import composite_simpson, small_runs, std_params
from oracles import (adaptive_simpson, bump_profile, kernel_support, kernel_weight,
                     mollified_table, mollify_time, zero_field)


def _dense_trajectory(f_of_t, n_times=2001, t_end=1.0, grid=None):
    grid = grid or cf.Grid(0.0, 1.0, 8)
    times = np.linspace(0.0, t_end, n_times)
    values = np.tile(np.asarray([f_of_t(t) for t in times], dtype=float)[:, None],
                     (1, grid.n_nodes))
    return cf.Trajectory(grid, times, values)


def _average(traj, kernel, t, samples=2049):
    """The compiled kernel average of the trajectory at time t, over its
    coverage."""
    return _mollify_arrays(traj.times, traj.values, kernel, [t], traj.t_end, samples)[0]


# ---------------------------------------------------------------------------
# kernel basics
# ---------------------------------------------------------------------------

def _bump_scalar(tau: float) -> float:
    if abs(tau) >= 1.0:
        return 0.0
    return float(np.exp(-1.0 / (1.0 - tau * tau)))


def test_bump_mass_is_the_adaptive_quadrature():
    # the package keeps the mass as a literal; it must be this quadrature's
    # double, so meta.json's kernel_normalization keeps its bytes
    assert cf.BUMP_MASS == adaptive_simpson(_bump_scalar, -1.0, 1.0, tol=1e-14)
    assert json.dumps(cf.BUMP_MASS) == "0.4439938161680794"


def test_bump_mass_matches_independent_oracle():
    oracle = composite_simpson(bump_profile, -1.0, 1.0, 1_000_000)
    assert cf.BUMP_MASS == pytest.approx(oracle, abs=1e-12)
    assert cf.BUMP_MASS == pytest.approx(0.443994, abs=1e-6)


@pytest.mark.parametrize("centered", [True, False])
def test_kernel_unit_mass_and_nonnegative(centered):
    kernel = cf.MollifierKernel(0.37, centered=centered)
    lo, hi = kernel_support(kernel)
    u = np.linspace(lo, hi, 400_001)
    w = kernel_weight(kernel, u)
    assert np.all(w >= 0.0)
    mass = np.trapezoid(w, u) if hasattr(np, "trapezoid") else np.trapz(w, u)
    assert abs(mass - 1.0) < 1e-10
    assert hi - lo == pytest.approx(kernel.kappa if not centered else 2 * kernel.kappa)


def test_kernel_rejects_nonpositive_width():
    with pytest.raises(ValueError):
        cf.MollifierKernel(0.0)


def test_kernel_vanishes_outside_support():
    kernel = cf.MollifierKernel(0.2)
    assert kernel_weight(kernel, 0.25) == 0.0
    assert kernel_weight(kernel, -0.25) == 0.0
    causal = cf.MollifierKernel(0.2, centered=False)
    assert kernel_weight(causal, -0.01) == 0.0
    assert kernel_weight(causal, 0.21) == 0.0


# ---------------------------------------------------------------------------
# the compiled kernel average
# ---------------------------------------------------------------------------

def test_mollify_reproduces_constants():
    traj = _dense_trajectory(lambda t: 0.7, n_times=301)
    for centered in (True, False):
        kernel = cf.MollifierKernel(0.2, centered=centered)
        for t in (0.0, 0.05, 0.5, 0.95, 1.0):
            out = _average(traj, kernel, t)
            assert np.max(np.abs(out - 0.7)) < 1e-12


def test_mollify_linear_in_time_interior():
    traj = _dense_trajectory(lambda t: t, n_times=2001)
    kernel = cf.MollifierKernel(0.2, centered=True)
    for t in (0.3, 0.5, 0.62):
        out = _average(traj, kernel, t)
        assert np.max(np.abs(out - t)) < 1e-10


def test_mollify_quadratic_vs_dense_riemann_oracle():
    t_end, kap, t = 1.0, 0.2, 0.5
    traj = _dense_trajectory(lambda s: s * s, n_times=2001, t_end=t_end)
    kernel = cf.MollifierKernel(kap, centered=True)
    out = _average(traj, kernel, t)

    s = np.linspace(t - kap, t + kap, 100_001)
    interp = np.interp(s, traj.times, traj.values[:, 0])
    w = kernel_weight(kernel, t - s)
    oracle = np.sum(0.5 * (w[1:] * interp[1:] + w[:-1] * interp[:-1])
                    * np.diff(s))
    assert out[0] == pytest.approx(oracle, abs=1e-8)


def test_mollify_convex_combination_bounds(rng):
    grid = cf.Grid(0.0, 1.0, 16)
    times = np.sort(np.concatenate([[0.0, 1.0], rng.uniform(0, 1, 200)]))
    values = rng.standard_normal((times.size, grid.n_nodes))
    traj = cf.Trajectory(grid, times, values)
    kernel = cf.MollifierKernel(0.15)
    out = _average(traj, kernel, 0.4)
    assert np.all(out <= values.max(axis=0) + 1e-12)
    assert np.all(out >= values.min(axis=0) - 1e-12)


def test_mollify_monotone(rng):
    grid = cf.Grid(0.0, 1.0, 16)
    times = np.linspace(0.0, 1.0, 101)
    v1 = rng.standard_normal((101, grid.n_nodes))
    v2 = v1 + rng.uniform(0.0, 1.0, (101, grid.n_nodes))
    kernel = cf.MollifierKernel(0.2)
    out1 = _average(cf.Trajectory(grid, times, v1), kernel, 0.5)
    out2 = _average(cf.Trajectory(grid, times, v2), kernel, 0.5)
    assert np.all(out1 <= out2 + 1e-14)


def test_mollify_commutes_with_spatial_reflection(rng):
    grid = cf.Grid(0.0, 1.0, 32)
    times = np.linspace(0.0, 1.0, 101)
    values = rng.standard_normal((101, grid.n_nodes))
    kernel = cf.MollifierKernel(0.2)
    out = _average(cf.Trajectory(grid, times, values), kernel, 0.5)
    out_reflected = _average(cf.Trajectory(grid, times, values[:, ::-1]), kernel, 0.5)
    assert np.max(np.abs(out[::-1] - out_reflected)) < 1e-14


def test_mollify_insufficient_history_names_interval():
    # the compiled average takes windows its caller has checked; the numpy
    # reference checks coverage as the chunk loop's status 3 does, with the
    # message that the run raises (see test_solver's uncovered-window test)
    grid = cf.Grid(0.0, 1.0, 8)
    times = np.linspace(0.0, 0.4, 41)
    traj = cf.Trajectory(grid, times, np.zeros((41, grid.n_nodes)))
    kernel = cf.MollifierKernel(0.2)
    with pytest.raises(MollifierError, match=r"needs \[0\.3, 0\.7\] \(missing \(0\.4, 0\.7\]\)"):
        mollify_time(traj, kernel, 0.5, t_end=1.0)


def test_mollify_convergence_to_identity_under_kappa_halving():
    # interior-smooth trajectory; the centered even kernel gives order >= 1
    grid = cf.Grid(0.0, 1.0, 8)
    traj = _dense_trajectory(lambda t: np.sin(2.0 * np.pi * t), n_times=4001,
                             grid=grid)
    eval_times = np.linspace(0.0, 1.0, 257)
    errs = []
    for kap in (0.2, 0.1, 0.05):
        kernel = cf.MollifierKernel(kap)
        sq = []
        for t in eval_times:
            diff = _average(traj, kernel, float(t))[0] - np.sin(2 * np.pi * t)
            sq.append(diff * diff)
        errs.append(np.sqrt(np.sum(0.5 * (np.asarray(sq)[1:] + np.asarray(sq)[:-1])
                                   * np.diff(eval_times))))
    orders = [np.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 1.0


# ---------------------------------------------------------------------------
# fixed-point sweeps
# ---------------------------------------------------------------------------

def _small_setup(kappa=0.2):
    params = std_params(kappa=kappa, t_end=0.25)
    grid = cf.Grid(0.0, 1.0, 48)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    config = cf.SolverConfig(snapshot_interval=0.25 / 64)
    return params, s0, config


def test_picard_zero_state_is_fixed_point():
    params, _, config = _small_setup()
    grid = cf.Grid(0.0, 1.0, 48)
    traj1, monitors = cf.run(zero_field(grid), params,
                             replace(config, coupling="picard", picard_sweeps=1))
    assert monitors.picard_distances == [0.0]
    assert np.allclose(traj1.values, 0.0, atol=0.0)


def test_picard_distances_reported_and_contracting():
    params, s0, config = _small_setup()
    traj, monitors = cf.run(s0, params,
                            cf.SolverConfig(coupling="picard", picard_sweeps=3,
                                            snapshot_interval=0.25 / 64))
    dists = monitors.picard_distances
    print("picard sweep distances:", dists)
    assert len(dists) == 3
    assert all(np.isfinite(d) and d >= 0.0 for d in dists)
    # observed contraction is strong; only the aggregate trend is asserted
    assert dists[-1] < dists[0]


def test_picard_first_sweep_change_scales_with_kappa():
    dists = {}
    for kap in (0.2, 0.1):
        params, s0, config = _small_setup(kappa=kap)
        _, monitors = cf.run(s0, params,
                             replace(config, coupling="picard", picard_sweeps=1))
        [dists[kap]] = monitors.picard_distances
    ratio = dists[0.1] / dists[0.2]
    print("one-sweep distance ratio under kappa halving:", ratio)
    assert 0.3 < ratio < 0.7


def test_build_mollified_table_shape():
    params, s0, config = _small_setup()
    traj, _ = cf.run(s0, params, config)
    kernel = cf.MollifierKernel(params.kappa)
    ref_times, table = cf.build_mollified_table(traj, kernel, n_times=65, samples=257)
    assert ref_times.shape == (65,) and table.shape == (65, traj.grid.n_nodes)
    assert np.all(np.isfinite(table))


# ---------------------------------------------------------------------------
# the compiled table against the numpy reference
# ---------------------------------------------------------------------------

# Tolerance of the compiled table against the numpy reference, relative to
# the largest value of the trajectory.  The two differ in the last bit of
# the kernel weights (C exp against numpy's vectorized exp) and in the order
# of the row-weight x rows product (a loop against BLAS), as the mollified
# engine agreement does; the worst of 1000 random trajectories (kappa
# 0.025-0.4, t_end 0.01-1, 2-80 rows, 1-2049 samples) read 5.3e-16.
TABLE_RTOL = 1e-14


@settings(max_examples=60)
@given(n=st.integers(4, 40), rows=st.integers(1, 60), seed=st.integers(0, 2 ** 32 - 1),
       t_end=st.floats(0.01, 1.0), kappa=st.floats(0.025, 0.4), centered=st.booleans(),
       n_times=st.integers(2, 40), samples=st.sampled_from([1, 2, 9, 257]),
       uniform=st.booleans())
def test_table_matches_the_numpy_reference(n, rows, seed, t_end, kappa, centered,
                                           n_times, samples, uniform):
    rng = np.random.default_rng(seed)
    if uniform:
        times = np.linspace(0.0, t_end, rows + 1)
    else:
        times = np.sort(np.concatenate([[0.0, t_end], rng.uniform(0.0, t_end, rows - 1)]))
    grid = cf.Grid(0.0, 1.0, n)
    traj = cf.Trajectory(grid, times, rng.standard_normal((times.size, grid.n_nodes)))
    kernel = cf.MollifierKernel(kappa, centered=centered)
    ref_times, table = cf.build_mollified_table(traj, kernel, n_times, samples)
    want_times, want = mollified_table(traj, kernel, n_times, samples)
    assert np.array_equal(ref_times, want_times)
    assert np.max(np.abs(table - want)) <= TABLE_RTOL * np.max(np.abs(traj.values))


def test_table_of_a_run_matches_the_numpy_reference():
    # the table of the first Picard sweep: a run's snapshots, its window
    # clipped at t = 0 and at t_end
    params, s0, config = _small_setup()
    traj, _ = cf.run(s0, params, config)
    kernel = cf.MollifierKernel(params.kappa)
    _, table = cf.build_mollified_table(traj, kernel, 513, 257)
    _, want = mollified_table(traj, kernel, 513, 257)
    assert np.max(np.abs(table - want)) <= TABLE_RTOL * np.max(np.abs(traj.values))


def test_table_rejects_fewer_than_one_sample():
    params, s0, config = _small_setup()
    traj, _ = cf.run(s0, params, config)
    with pytest.raises(ValueError, match="samples >= 1"):
        cf.build_mollified_table(traj, cf.MollifierKernel(params.kappa), 9, 0)


# the ratio that ROADMAP item 13 bounds: each sweep's distance over the
# last, on every draw, wherever the last is positive
PICARD_Q = 0.5


@settings(max_examples=30)
@given(case=small_runs())
def test_picard_sweeps_contract_on_generated_runs(case):
    s0, params, cfg, b = case
    _, monitors = cf.run(s0, params, replace(cfg, coupling="picard", picard_sweeps=3), b=b)
    d = monitors.picard_distances
    assert len(d) == 3
    q = [d[k] / d[k - 1] for k in (1, 2) if d[k - 1] > 0.0]
    assert all(r < PICARD_Q for r in q), (d, q)
