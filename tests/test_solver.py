"""Time integration: right-hand side structure, step-size budget, stepping,
boundary handling, and the structural run invariants."""

import ctypes
import functools
import os
import re
import shutil
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import cfphase as cf
from cfphase import _native, cli, solver
from cfphase import mollifier as _mollifier
from cfphase.convergence import kappa_sweep, manufactured_source
from cfphase.estimates import RUNNING_INTEGRALS, MonitorSeries
from cfphase.model import _sample_rows, trapezoid
from cfphase.solver import SolverAbort, _table_at

from conftest import (coupled_runs, engines, off_default_params, on_both_engines,
                      run_case, sextic_well, small_runs, std_params)
import oracles
from oracles import (_CausalHistory, cfl_dt, kernel_weight, numpy_engine, sym_diag,
                     zero_field)


def _grid(n=100):
    return cf.Grid(0.0, 1.0, n)


# ---------------------------------------------------------------------------
# initial profiles
# ---------------------------------------------------------------------------

def test_profile_sine():
    grid = _grid()
    f = cf.make_initial_profile("sine", 1.0, grid)
    assert np.allclose(f.values, np.sin(np.pi * grid.x), atol=1e-15)
    assert f.values[0] == 0.0 and f.values[-1] == 0.0


def test_profile_smoothed_step():
    grid = _grid(200)
    f = cf.make_initial_profile("smoothed-step", 1.0, grid)
    v = f.values
    assert v[0] == 0.0 and v[-1] == 0.0
    assert np.min(v) >= 0.0 and np.max(v) == pytest.approx(1.0, abs=1e-12)
    peak = int(np.argmax(v))
    rising = np.diff(v[:peak + 1])
    assert np.all(rising >= -1e-15)  # monotone along the rise
    # compatible data: slope and curvature bounded and vanishing at the ends
    d2 = (v[2:] - 2 * v[1:-1] + v[:-2]) / grid.dx ** 2
    assert abs(v[1] - v[0]) / grid.dx < 1e-10
    assert abs(d2[0]) < 1e-6
    assert np.max(np.abs(d2)) < 1e3


def test_profile_polynomial_bump():
    grid = _grid()
    f = cf.make_initial_profile("polynomial-bump", 2.0, grid)
    v = f.values
    assert v[0] == 0.0 and v[-1] == 0.0
    assert np.max(v) == pytest.approx(2.0, rel=1e-12)
    # slope vanishes at both endpoints: the one-sided difference is O(dx)
    assert abs(v[1] - v[0]) / grid.dx < 20.0 * 2.0 * grid.dx
    assert abs(v[-1] - v[-2]) / grid.dx < 20.0 * 2.0 * grid.dx


def test_profile_unknown_kind():
    with pytest.raises(ValueError, match="sine"):
        cf.make_initial_profile("triangle", 1.0, _grid())


# ---------------------------------------------------------------------------
# discrete right-hand side
# ---------------------------------------------------------------------------

def test_rhs_zero_state_is_equilibrium():
    grid = _grid()
    params = std_params(kappa=0.1)
    zero = zero_field(grid)
    rhs = cf.discrete_rhs(zero, np.zeros(grid.n_nodes), params)
    assert np.allclose(rhs.values, 0.0, atol=0.0)


def test_rhs_zero_state_with_constant_stress_still_vanishes():
    grid = _grid()
    params = std_params(kappa=0.1)
    zero = zero_field(grid)
    rhs = cf.discrete_rhs(zero, np.full(grid.n_nodes, 3.7), params)
    # the reaction factor |0|_kappa - kappa vanishes identically
    assert np.allclose(rhs.values, 0.0, atol=0.0)


def test_rhs_constant_gradient_stretch_hand_value():
    grid = _grid(100)
    params = std_params(kappa=0.25)
    g = 0.8
    v = np.minimum(g * grid.x, g * 0.4)       # slope g then plateau
    v = np.minimum(v, g * 0.4 * (1 - grid.x) / 0.6 * 4)  # taper to 0 at d
    v[0] = v[-1] = 0.0
    s = cf.ScalarField(grid, v)
    rhs = cf.discrete_rhs(s, np.zeros(grid.n_nodes), params)
    # nodes strictly inside the constant-gradient stretch
    inside = (grid.x > 0.05) & (grid.x < 0.35)
    idx = np.where(inside)[0]
    psi_p = params.potential.psi_prime(v[idx])
    expected = -psi_p * (np.hypot(g, params.kappa) - params.kappa)
    assert np.max(np.abs(rhs.values[idx] - expected)) < 1e-10


def test_rhs_reaction_vanishes_on_plateau():
    grid = _grid(100)
    params = std_params(kappa=0.1)
    v = np.zeros(grid.n_nodes)
    plateau = (grid.x >= 0.3) & (grid.x <= 0.7)
    v[plateau] = 0.6                      # psi'(0.6) != 0 there
    ramp = (grid.x > 0.2) & (grid.x < 0.3)
    v[ramp] = 0.6 * (grid.x[ramp] - 0.2) / 0.1
    ramp2 = (grid.x > 0.7) & (grid.x < 0.8)
    v[ramp2] = 0.6 * (0.8 - grid.x[ramp2]) / 0.1
    s = cf.ScalarField(grid, v)
    rhs = cf.discrete_rhs(s, np.full(grid.n_nodes, 5.0), params)
    interior_plateau = (grid.x > 0.32) & (grid.x < 0.68)
    # flat stretch: central gradient is exactly zero, so the reaction factor
    # is exactly zero and the flux differences vanish as well
    assert np.max(np.abs(rhs.values[interior_plateau])) == 0.0


def test_rhs_flux_telescoping(rng):
    grid = _grid(200)
    params = std_params(kappa=0.07)
    modes = rng.standard_normal(8) * 0.2
    v = sum(a * np.sin((k + 1) * np.pi * grid.x) for k, a in enumerate(modes))
    v[0] = v[-1] = 0.0
    dplus = np.diff(v) / grid.dx
    flux = cf.flux_primitive(dplus, params.kappa)
    flux_div = np.diff(flux) / grid.dx
    telescoped = grid.dx * np.sum(flux_div)
    assert abs(telescoped - (flux[-1] - flux[0])) < 1e-12


@settings(max_examples=60)
@given(n=st.integers(min_value=4, max_value=400),
       kappa=st.floats(0.02, 1.0),
       modes=st.lists(st.floats(-0.5, 0.5), min_size=1, max_size=8))
def test_rhs_flux_telescoping_on_generated_profiles(n, kappa, modes):
    grid = _grid(n)
    v = sum(a * np.sin((k + 1) * np.pi * grid.x) for k, a in enumerate(modes))
    v[0] = v[-1] = 0.0
    flux = cf.flux_primitive(np.diff(v) / grid.dx, kappa)
    flux_div = np.diff(flux) / grid.dx
    scale = max(float(np.max(np.abs(flux))), np.finfo(float).tiny)
    assert abs(grid.dx * np.sum(flux_div) - (flux[-1] - flux[0])) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# step-size budget
# ---------------------------------------------------------------------------

def test_cfl_dt_zero_state():
    grid = _grid(100)
    params = std_params(kappa=0.2)
    dt = cfl_dt(zero_field(grid), params, 0.4)
    expected = 0.4 * grid.dx ** 2 / (2.0 * params.c * params.nu * params.kappa)
    assert dt == pytest.approx(expected, rel=1e-14)


def test_cfl_dt_quarters_under_doubling():
    params = std_params(kappa=0.1)
    dts = []
    for n in (100, 200):
        grid = _grid(n)
        s = cf.make_initial_profile("sine", 0.5, grid)
        dts.append(cfl_dt(s, params, 0.4))
    ratio = dts[0] / dts[1]
    assert ratio == pytest.approx(4.0, rel=5e-3)


def test_cfl_dt_reaction_cap_engages_on_coarse_grid():
    # big domain makes dx^2 large, so the reaction cap is the binding limit
    params = cf.ModelParams(c=50.0, nu=1e-4, kappa=0.05,
                            epsbar=sym_diag(1, 0, 0),
                            elastic=cf.ElasticTensor.isotropic(1.0, 1.0),
                            a=0.0, d=1.0, t_end=1.0,
                            potential=cf.DoubleWell.quartic())
    grid = _grid(10)
    s = cf.make_initial_profile("sine", 1.0, grid)
    dt = cfl_dt(s, params, 0.4)
    wmax = np.max(np.hypot(np.diff(s.values) / grid.dx, params.kappa))
    dt_diff = 0.4 * grid.dx ** 2 / (2 * params.c * params.nu * wmax)
    assert dt < dt_diff


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_zero_state_stationary():
    grid = _grid()
    params = std_params()
    s1, report = cf.step(zero_field(grid), 0.0, cf.SolverConfig(), params)
    assert np.allclose(s1.values, 0.0, atol=0.0)
    assert report.dt > 0.0
    assert report.reaction_max == 0.0


def test_step_preserves_endpoint_zeros():
    grid = _grid()
    params = std_params()
    s = cf.make_initial_profile("smoothed-step", 1.0, grid)
    s1, _ = cf.step(s, 0.0, cf.SolverConfig(), params)
    assert s1.values[0] == 0.0 and s1.values[-1] == 0.0


def test_step_local_order_via_richardson():
    grid = _grid(100)
    params = std_params(kappa=0.2, t_end=1.0)
    s = cf.make_initial_profile("sine", 0.5, grid)
    gaps = []
    for dt in (4e-6, 2e-6):
        full, _ = cf.step(s, 0.0, cf.SolverConfig(dt_override=dt), params)
        half1, _ = cf.step(s, 0.0, cf.SolverConfig(dt_override=dt / 2), params)
        half2, _ = cf.step(half1, dt / 2, cf.SolverConfig(dt_override=dt / 2), params)
        gaps.append(np.max(np.abs(full.values - half2.values)))
    ratio = gaps[0] / gaps[1]
    assert 3.0 < ratio < 5.0  # one-step defect scales like dt^2


def test_step_report_validation():
    with pytest.raises(ValueError):
        cf.StepReport(t=0.0, dt=0.0, max_abs_s=0.0, max_grad_weight=0.0,
                      reaction_max=0.0, elasticity_residual=0.0)


def test_step_aborts_on_a_non_finite_right_hand_side():
    grid = _grid(16)
    cfg = cf.SolverConfig(source=lambda t, g, params, op: np.full(g.n_nodes, np.nan))
    s = cf.make_initial_profile("sine", 1.0, grid)
    with pytest.raises(SolverAbort, match="non-finite right-hand side"):
        cf.step(s, 0.0, cfg, std_params())


def test_step_aborts_on_a_non_finite_state_after_the_update():
    # the product dt * rhs overflows; the check, not numpy's warning, stops
    # the step
    grid = _grid(16)
    s = cf.make_initial_profile("sine", 1.0, grid)
    with np.errstate(over="ignore"), pytest.raises(
            SolverAbort, match="non-finite state after update") as abort:
        cf.step(s, 0.25, cf.SolverConfig(dt_override=1e308), std_params())
    assert abort.value.t == 0.25


# ---------------------------------------------------------------------------
# the local-range clamp
# ---------------------------------------------------------------------------

def _sine_run(n, amplitude, kappa, c, nu, well, coupling, horizon):
    """A stride-1 run from a sine of ``amplitude`` on n cells, over
    ``horizon`` initial step sizes, as ``small_runs`` draws one."""
    grid = _grid(n)
    params = replace(std_params(kappa=kappa, c=c, nu=nu), potential=well)
    s0 = cf.make_initial_profile("sine", amplitude, grid)
    params = replace(params, t_end=horizon * cfl_dt(s0, params, 0.4))
    return s0, params, cf.SolverConfig(coupling=coupling, snapshot_stride=1), None


# mesh Peclet number far above 1: the central update leaves the neighbours'
# range at two nodes on the first step
CLAMPED_ON_STEP_ONE = _sine_run(5, 1 / 32, 1 / 32, 1.0, 1 / 32,
                                sextic_well(0.1, 1.0, 1.6), "direct", 150)


def test_step_matches_the_first_step_of_run_where_the_clamp_fires():
    s0, params, cfg, _ = CLAMPED_ON_STEP_ONE
    s1, report = cf.step(s0, 0.0, cf.SolverConfig(), params)
    raw, _ = cf.step(s0, 0.0, cf.SolverConfig(dt_override=report.dt), params)
    assert np.sum(s1.values != raw.values) == 2
    for traj, mon in on_both_engines(lambda: cf.run(s0, params, cfg)):
        assert traj.times[1] == pytest.approx(report.dt, rel=1e-12)
        assert np.max(np.abs(traj.values[1] - s1.values)) < 1e-12
        assert mon.max_principle_ok


def test_dt_override_steps_are_not_clamped():
    # the forced step size exists to show instability, so it takes the
    # central update as it stands
    s0, params, _, _ = CLAMPED_ON_STEP_ONE
    clamped, report = cf.step(s0, 0.0, cf.SolverConfig(), params)
    cfg = cf.SolverConfig(dt_override=report.dt, snapshot_stride=1)
    raw, _ = cf.step(s0, 0.0, cfg, params)
    assert np.max(np.abs(raw.values - clamped.values)) > 1e-4
    for traj, _ in on_both_engines(lambda: cf.run(s0, params, cfg)):
        assert np.max(np.abs(traj.values[1] - raw.values)) < 1e-12


def test_a_step_cut_to_its_stop_is_clamped_too():
    # a step shortened to t_end is still a convex combination of the
    # neighbours' old values
    s0, params, cfg, _ = CLAMPED_ON_STEP_ONE
    _, report = cf.step(s0, 0.0, cf.SolverConfig(), params)
    short = replace(params, t_end=0.5 * report.dt)
    raw, _ = cf.step(s0, 0.0, cf.SolverConfig(dt_override=short.t_end), params)
    for traj, mon in on_both_engines(lambda: cf.run(s0, short, cfg)):
        assert mon.n_steps == 1 and mon.max_principle_ok
        assert not np.array_equal(traj.values[1], raw.values)


def test_the_clamp_leaves_a_non_finite_update_to_the_abort(monkeypatch):
    old = np.array([0.0, 0.5, 0.25, 0.5, 0.0])
    assert np.array_equal(solver._update(old, 1.0, np.array([1.0, -1.0, 0.0]), True),
                          [0.5, 0.25, 0.5])
    np.testing.assert_array_equal(
        solver._update(old, 1.0, np.array([np.inf, -np.inf, np.nan]), True),
        [np.inf, -np.inf, np.nan])
    # nu = 1e307 overflows the diffusion term to +-inf at every interior
    # node under a positive step; pulled back into range, the state would
    # pass the check and the run go on.  run()'s check of the initial
    # right-hand side is bypassed so that the loop meets the overflow.
    monkeypatch.setattr(solver, "_initial_st_l2", lambda *args: 0.0)
    params = std_params(kappa=0.1, t_end=0.01, nu=1e307)
    s0 = cf.make_initial_profile("sine", 10.0, _grid(32))
    for engine in engines():
        with engine, pytest.raises(SolverAbort, match="non-finite state") as abort:
            cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.01))
        assert abort.value.step == 1


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_state_identically_zero():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.05)
    traj, mon = cf.run(zero_field(grid), params,
                       cf.SolverConfig(snapshot_interval=0.05 / 16))
    assert np.allclose(traj.values, 0.0, atol=0.0)
    assert mon.sup_abs_run == 0.0
    assert mon.dissipation_cum[-1] == 0.0
    assert mon.reciprocal_cum[-1] == 0.0
    assert mon.st_l2_sq_max == 0.0
    assert mon.max_principle_ok


@settings(max_examples=40)
@given(case=small_runs())
def test_run_zero_state_identically_zero_on_generated_runs(case):
    # the reaction factor |D0 S|_kappa - kappa vanishes on the zero state,
    # so no body force moves it
    s0, params, cfg, b = case
    zero = zero_field(s0.grid)
    runs = on_both_engines(lambda: cf.run(zero, params, cfg, b=b))
    for engine, (traj, mon) in zip(("compiled", "numpy"), runs):
        assert not np.any(traj.values), engine
        assert traj.s_eff is None or not np.any(traj.s_eff), engine
        assert mon.sup_abs_run == 0.0 and mon.st_l2_sq_max == 0.0, engine
        # every running integral of the gradient vanishes; the weight |S_x|_k
        # is kappa at every interior node, so its square integrates to
        # kappa^2 times the interior length
        for name in MonitorSeries.COLUMNS:
            if name.endswith("_cum") and name != "grad_weight_sq_cum":
                assert not np.any(getattr(mon, name)), (engine, name)
        interior = (s0.grid.n_nodes - 2) * s0.grid.dx
        np.testing.assert_allclose(mon.grad_weight_sq_cum,
                                   params.kappa ** 2 * interior * mon.t,
                                   rtol=1e-12, atol=0.0)


def test_run_reflection_equivariance():
    grid = _grid(100)
    params = std_params(kappa=0.1, t_end=0.2)
    vals = np.sin(np.pi * grid.x) ** 2 * (0.4 + 0.6 * grid.x)
    vals[0] = vals[-1] = 0.0
    cfg = cf.SolverConfig(snapshot_interval=0.2 / 64)
    t1, _ = cf.run(cf.ScalarField(grid, vals), params, cfg)
    t2, _ = cf.run(cf.ScalarField(grid, vals[::-1].copy()), params, cfg)
    assert np.array_equal(t1.times, t2.times)
    assert np.max(np.abs(t1.values - t2.values[:, ::-1])) < 1e-10


def test_run_max_principle_short():
    grid = _grid(100)
    params = std_params(kappa=0.05, t_end=0.1)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.1 / 64))
    assert mon.sup_abs_run <= mon.max_abs_s0 + 1e-10
    assert mon.max_principle_ok


def test_run_times_cover_horizon():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.05)
    s0 = cf.make_initial_profile("sine", 0.5, grid)
    traj, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.05 / 32))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05, abs=1e-13)
    assert np.all(np.diff(traj.times) > 0.0)
    # a run that records every step has a row after each of its steps, the
    # last at t_end
    every, every_mon = cf.run(s0, params, cf.SolverConfig(snapshot_stride=1))
    assert every_mon.n_steps == every.times.size - 1
    assert every.times[-1] == pytest.approx(0.05, rel=1e-12)


def test_run_stride_emission():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.02)
    s0 = cf.make_initial_profile("sine", 0.5, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_stride=50))
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-13)
    assert traj.times.size >= 3


def test_run_nonzero_boundary_warns_and_pins():
    grid = _grid(16)
    params = std_params(kappa=0.2, t_end=0.001)
    vals = np.full(grid.n_nodes, 0.3)
    s0 = cf.ScalarField(grid, vals)
    with pytest.warns(UserWarning, match="pinning"):
        traj, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.001))
    assert traj.values[0][0] == 0.0 and traj.values[0][-1] == 0.0


def test_run_grid_domain_mismatch():
    grid = cf.Grid(0.0, 2.0, 16)
    params = std_params(kappa=0.2, t_end=0.01)
    with pytest.raises(ValueError, match="domain"):
        cf.run(zero_field(grid), params, cf.SolverConfig())


def test_run_abort_on_forced_large_step(compiled_loop):
    # the compiled loop and the numpy reference stop at the same step, by
    # the same rule
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.5)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    with pytest.raises(SolverAbort, match="non-finite") as abort:
        cf.run(s0, params, cf.SolverConfig(dt_override=1e-3,
                                           snapshot_interval=0.25))
    assert abort.value.step == 7
    assert abort.value.t == pytest.approx(0.007, rel=1e-12)


def test_run_step_budget_exhaustion():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=1.0)
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    with pytest.raises(SolverAbort, match="budget"):
        cf.run(s0, params, cf.SolverConfig(max_steps=10, snapshot_interval=0.5))


@settings(max_examples=60)
@given(case=small_runs())
def test_chunk_boundaries_do_not_change_a_run(case):
    # a run split into kernel calls of 1, 3 or 7 steps, below the emission
    # cadence, or under the stride plan into calls that record at most 1 or
    # 2 rows, gives the same bits as one call per _CHUNK steps, on the
    # compiled loop and on the numpy reference; and each records its rows
    # where the plan puts them
    s0, params, cfg, b = case
    patches = [("_CHUNK", chunk) for chunk in (1, 3, 7)]
    if cfg.snapshot_interval == 0.0:
        patches += [("_stride_rows", lambda budget, stride, rows=rows: rows)
                    for rows in (1, 2)]
    runs = []
    for engine in engines():
        with engine:
            want = cf.run(s0, params, cfg, b=b)
            _assert_rows_follow_plan(want, s0, params, cfg, b)
            for name, value in patches:
                with pytest.MonkeyPatch.context() as m:
                    m.setattr(solver, name, value)
                    got = cf.run(s0, params, cfg, b=b)
                _assert_same_run(got, want)
        runs.append(want[1].st_l2_sq)
    # each row's ||S_t||^2 is that of the step that ended at the row, on
    # either side
    compiled, reference = runs
    assert np.all(np.abs(compiled - reference)
                  <= MONITOR_RTOL * np.max(np.abs(reference)))


def _assert_rows_follow_plan(run, s0, params, cfg, b):
    """The rows of a run sit where its emission plan puts them: at each
    stop of the interval plan in turn, or after every stride-th step, and
    the last at t_end."""
    traj, mon = run
    assert traj.times[-1] >= params.t_end - 1e-14 * (params.t_end + 1.0)
    if cfg.snapshot_interval > 0.0:
        stops = solver._emission_plan(cfg, params.t_end)[0][:traj.times.size - 1]
        assert np.all(np.abs(traj.times[1:] - stops) <= 2e-14 * (stops + 1.0))
    else:
        # the steps under the stride plan do not depend on the stride, so
        # the run at stride 1 has the time after each step in its rows
        every, every_mon = cf.run(s0, params, replace(cfg, snapshot_stride=1), b=b)
        assert every_mon.n_steps == mon.n_steps
        steps = list(range(cfg.snapshot_stride, mon.n_steps, cfg.snapshot_stride))
        rows = np.array(steps + [mon.n_steps])
        assert np.array_equal(traj.times[1:], every.times[rows])


def _assert_same_run(got, want):
    (t1, m1), (t2, m2) = got, want
    assert m1.n_steps == m2.n_steps
    for name in ("times", "values", "tdot_eps"):
        assert np.array_equal(getattr(t1, name), getattr(t2, name)), name
    assert (t1.s_eff is None) == (t2.s_eff is None)
    if t1.s_eff is not None:
        assert np.array_equal(t1.s_eff, t2.s_eff)
    for name in MonitorSeries.COLUMNS:
        assert np.array_equal(getattr(m1, name), getattr(m2, name)), name


def _count_compiled_calls(monkeypatch):
    """Route the solver through a wrapper of the compiled loop that records
    each call."""
    loop = _native.chunk_loop()
    calls = []

    def counting(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(_native, "chunk_loop", lambda: counting)
    return calls


def _mms_source(params):
    return manufactured_source(cf.ManufacturedSolution(params.a, params.d))


def _engine_case(mode, params=None):
    grid = _grid(64)
    if params is None:
        params = std_params(kappa=0.1, t_end=0.02)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    if mode == "direct":
        return lambda cfg: cf.run(s0, params, cfg)
    if mode == "mollified":
        return lambda cfg: cf.run(s0, params, replace(cfg, coupling="mollified"))
    if mode == "mms":
        # the manufactured sine mode with its source, as manufactured_run
        # sets it up
        s0 = cf.make_initial_profile("sine", 1.0, grid)
        source = _mms_source(params)
        return lambda cfg: cf.run(s0, params, replace(cfg, source=source))
    # table mode (the global fixed-point sweeps): couple to a direct run's
    # trajectory, interpolated in time between its snapshots
    with numpy_engine():
        ref, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.02 / 8))
    return lambda cfg: cf.run_with_coupling_table(s0, params, cfg,
                                                  ref.times, ref.values)


# Tolerances of the compiled loop against the numpy reference.  Direct, table
# and MMS runs differ only in the association of a few sums.  Mollified runs
# also differ in the last bit of the kernel weights (C exp against numpy's
# vectorized exp) and in the order of the row-weight x rows product (a loop
# against BLAS), so no engine comparison can be bit-exact.
STATE_TOL = 1e-10     # absolute, states and s_eff
MONITOR_RTOL = 1e-10  # relative, cumulative monitors and step sizes


def _assert_engines_agree(t1, m1, t2, m2, exact_times=True, sourced=False):
    assert m1.n_steps == m2.n_steps
    assert t1.times.size == t2.times.size
    if exact_times:
        assert np.array_equal(t1.times, t2.times)
    else:
        assert t1.times == pytest.approx(t2.times, rel=MONITOR_RTOL, abs=0.0)
        # the steps between rows; at stride 1, each step size
        assert np.diff(t1.times) == pytest.approx(np.diff(t2.times),
                                                  rel=MONITOR_RTOL, abs=0.0)
    assert np.max(np.abs(t1.values - t2.values)) < STATE_TOL
    assert (t1.s_eff is None) == (t2.s_eff is None)
    if t1.s_eff is not None:
        assert np.max(np.abs(t1.s_eff - t2.s_eff)) < STATE_TOL
    for name in RUNNING_INTEGRALS:
        got, want = getattr(m1, name), getattr(m2, name)
        if sourced:  # a run with a source skips these integrals
            assert np.all(np.isnan(got)) and np.all(np.isnan(want)), name
        else:
            assert got[-1] == pytest.approx(want[-1], rel=MONITOR_RTOL, abs=0.0), name
    if sourced:
        for name in ("st_l2_sq_max", "sup_abs_run"):
            got, want = getattr(m1, name), getattr(m2, name)
            assert got == pytest.approx(want, rel=MONITOR_RTOL, abs=0.0), name


@pytest.mark.parametrize("mode", ["direct", "table", "mms", "mollified"])
def test_engines_agree(mode, monkeypatch):
    go = _engine_case(mode)
    calls = _count_compiled_calls(monkeypatch)
    cfg = cf.SolverConfig(snapshot_interval=0.02 / 16)
    t1, m1 = go(cfg)
    # one call per _CHUNK steps, whatever the number of snapshots
    assert len(calls) == -(-m1.n_steps // solver._CHUNK), \
        "the run bypassed the compiled loop"
    n_calls = len(calls)
    with numpy_engine():
        t2, m2 = go(cfg)
    assert len(calls) == n_calls
    _assert_engines_agree(t1, m1, t2, m2, sourced=mode == "mms")
    if mode == "mms":
        assert np.max(np.abs(t1.values - t2.values)) < 1e-12
        params = std_params(kappa=0.1, t_end=0.02)
        r1 = cf.manufactured_run(params, grid_sizes=(32, 64))
        # one call for each grid's run
        assert len(calls) == n_calls + 2, "manufactured_run bypassed the compiled loop"
        n_calls = len(calls)
        with numpy_engine():
            r2 = cf.manufactured_run(params, grid_sizes=(32, 64))
        assert len(calls) == n_calls
        assert r1.errors == pytest.approx(r2.errors, rel=1e-12, abs=0.0)
        # the C residual and the numpy source, both reading constants that
        # are not the defaults from the run
        go_off = _engine_case("mms", off_default_params(t_end=0.02))
        compiled, reference = on_both_engines(lambda: go_off(cfg))
        assert len(calls) > n_calls, "the run bypassed the compiled loop"
        _assert_engines_agree(*compiled, *reference, sourced=True)
        assert np.max(np.abs(compiled[0].values - reference[0].values)) < 1e-12
    # each step: the same case at stride 1 records a row after every step
    compiled, reference = on_both_engines(lambda: go(cf.SolverConfig(snapshot_stride=1)))
    _assert_engines_agree(*compiled, *reference, exact_times=False,
                          sourced=mode == "mms")


def _recorded_kernels(monkeypatch):
    """The compiled kernels that the runs from now on build, in order."""
    kernels = []

    class Recording(solver._CompiledKernel):
        def __init__(self, *args):
            super().__init__(*args)
            kernels.append(self)

    monkeypatch.setattr(solver, "_CompiledKernel", Recording)
    return kernels


def test_engines_agree_through_history_trimming_and_compaction(monkeypatch):
    # kappa small against the horizon: the history drops its stale front
    # every step and fills its buffer, so the live block moves to the front;
    # the runs record every step, so their rows hold the time after each,
    # and the numpy history fed the compiled run's times ends where the
    # compiled loop's history ended
    kernels = _recorded_kernels(monkeypatch)
    grid = _grid(32)
    params = std_params(kappa=0.02, t_end=0.3)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_stride=1)
    (t1, m1), (t2, m2) = on_both_engines(lambda: cf.run(s0, params, cfg))
    _assert_engines_agree(t1, m1, t2, m2, exact_times=False)
    history = _CausalHistory(params.kappa, grid.n_nodes)
    compacted = False
    for t in t1.times:
        hi = history.hi
        history.append(t, s0.values)
        compacted = compacted or history.hi < hi
    assert compacted and history.lo > 0
    (kernel,) = kernels
    ctx = kernel.ctx
    assert (ctx.hist_lo, ctx.hist_hi, ctx.hist_last) == (
        history.lo, history.hi, history.last_kept)
    assert np.array_equal(kernel.hist_times[ctx.hist_lo:ctx.hist_hi],
                          history.times[history.lo:history.hi])


# the recorded runs on which the central update broke max|S| <= max|S0|
# (sup 0.0495 and 0.123) before the local-range clamp: a 4-cell direct run
# with psi'(0) = -0.352, and a sextic mollified one with wells 0.14 and 1.59;
# and a 12-cell run whose clamp decides nodes at the edge of the compiled
# update's blocks of eight, which reads wrong values (1e-5 off) if a block
# goes back into S before the next block has read its left neighbour
@settings(max_examples=100)
@given(case=small_runs())
@example(case=_sine_run(4, 1 / 32, 1 / 32, 1.0, 1 / 32, sextic_well(0.1, 1.0, 1.6),
                        "direct", 150))
@example(case=_sine_run(4, 9.77e-4, 0.02, 4.1, 0.02, sextic_well(0.14, 1.59, 4.35),
                        "mollified", 20))
@example(case=_sine_run(12, 1 / 32, 1 / 32, 1.0, 1 / 32, sextic_well(0.1, 1.0, 5.0),
                        "direct", 50))
def test_engines_agree_on_generated_runs(case):
    s0, params, cfg, b = case
    (t1, m1), (t2, m2) = on_both_engines(lambda: cf.run(s0, params, cfg, b=b))
    _assert_engines_agree(t1, m1, t2, m2,
                          exact_times=cfg.snapshot_interval > 0.0)
    assert m1.max_principle_ok and m2.max_principle_ok


# the branches of the compiled loop that small_runs does not reach: a
# coupling table, and the manufactured source on every coupling
@pytest.mark.parametrize("coupling, source", [("direct", True), ("mollified", True),
                                              ("table", False), ("table", True)])
@settings(max_examples=20)
@given(data=st.data())
def test_engines_agree_on_generated_coupled_runs(coupling, source, data):
    case = data.draw(coupled_runs(coupling, source))
    (t1, m1), (t2, m2) = on_both_engines(lambda: run_case(case))
    _assert_engines_agree(t1, m1, t2, m2,
                          exact_times=case[2].snapshot_interval > 0.0, sourced=source)
    # a source is a forcing that the maximum principle does not cover
    if not source:
        assert m1.max_principle_ok and m2.max_principle_ok


# every run with a source takes the expansion of the chunk loop that skips
# the running integrals; the numpy reference folds its integrands into the
# NaN slots.  The slots that drive or stop the run are kept.
def test_sourced_picard_run_leaves_the_running_integrals_nan():
    grid = _grid(32)
    params = std_params(kappa=0.1, t_end=0.01)
    cfg = cf.SolverConfig(coupling="picard", picard_sweeps=1, snapshot_interval=0.01 / 8,
                          source=_mms_source(params))
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    (t1, m1), (t2, m2) = on_both_engines(lambda: cf.run(s0, params, cfg))
    _assert_engines_agree(t1, m1, t2, m2, sourced=True)
    assert len(m1.picard_distances) == len(m2.picard_distances) == 1
    assert m1.picard_distances == pytest.approx(m2.picard_distances,
                                                rel=MONITOR_RTOL, abs=0.0)


def test_sourced_run_aborts_on_forced_large_step():
    # without the running integrals the loop keeps the check of the state
    # and of ||S_t||^2, and both engines stop at the same step
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.5)
    cfg = cf.SolverConfig(dt_override=1e-3, snapshot_interval=0.25,
                          source=_mms_source(params))
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    aborts = []
    for engine in engines():
        with engine, pytest.raises(SolverAbort) as abort:
            cf.run(s0, params, cfg)
        aborts.append((abort.value.reason, abort.value.step))
    assert aborts[0] == aborts[1]
    assert aborts[0][0] == "non-finite state"


@settings(max_examples=60)
@given(case=small_runs())
def test_first_step_of_run_matches_step_on_generated_runs(case):
    s0, params, cfg, b = case
    assume(cfg.coupling == "direct")
    s1, report = cf.step(s0, 0.0, cf.SolverConfig(), params, b=b)
    for traj, _ in on_both_engines(
            lambda: cf.run(s0, params, cf.SolverConfig(snapshot_stride=1), b=b)):
        assert report.dt == pytest.approx(traj.times[1], rel=1e-12)
        assert np.max(np.abs(traj.values[1] - s1.values)) < 1e-12


@settings(max_examples=60)
@given(case=small_runs())
def test_run_reflection_equivariance_on_generated_runs(case):
    # the mirrored run takes the body force -b(a + d - x), whose correction
    # stress is the mirror of b's
    s0, params, cfg, b = case
    mirrored = cf.ScalarField(s0.grid, s0.values[::-1].copy())
    t1, m1 = cf.run(s0, params, cfg, b=b)
    t2, m2 = cf.run(mirrored, params, cfg, b=None if b is None else -b[::-1])
    # the mirrored sums round differently, so the step sizes agree to
    # rounding; snapshot times are exact only when emission is by interval
    assert m1.n_steps == m2.n_steps
    if cfg.snapshot_interval > 0.0:
        assert np.array_equal(t1.times, t2.times)
    else:
        np.testing.assert_allclose(t1.times, t2.times, rtol=1e-12, atol=0.0)
    assert np.max(np.abs(t1.values - t2.values[:, ::-1])) < 1e-10


def test_wrapped_manufactured_source_stays_compiled(monkeypatch):
    # a wrapper that copies __dict__, as a tracing or timing hook does,
    # keeps the compiled form, and the run takes the compiled loop
    grid = _grid(32)
    params = std_params(kappa=0.1, t_end=0.01)
    source = _mms_source(params)
    wrapped = functools.update_wrapper(lambda *a: source(*a), source)
    assert wrapped is not source and wrapped.compiled_form is source.compiled_form
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    calls = _count_compiled_calls(monkeypatch)
    cfg = cf.SolverConfig(snapshot_interval=0.01 / 4, source=wrapped)
    t1, _ = cf.run(s0, params, cfg)
    assert calls, "the wrapped source bypassed the compiled loop"
    t2, _ = cf.run(s0, params, replace(cfg, source=source))
    assert np.array_equal(t1.values, t2.values)


REJECTED = {
    "a time-dependent body force": "b: a body force that varies in time",
    "a source with no compiled form": "source: the source hook has no compiled_form",
}


@pytest.mark.parametrize("blocker", REJECTED)
def test_run_rejects_what_the_compiled_loop_cannot_run(blocker, monkeypatch):
    # each entry point names the input with a ValueError before it builds
    # the kernel, so no step is taken; Picard coupling rejects it in its
    # direct pass
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(snapshot_interval=0.002)
    b = None
    if blocker == "a time-dependent body force":
        b = lambda t: np.zeros((grid.n_nodes, 3))  # noqa: E731
    else:
        cfg = replace(cfg, source=lambda t, g, params, op: np.zeros(g.n_nodes))
    kernels = []
    monkeypatch.setattr(solver, "_CompiledKernel", lambda *args: kernels.append(args))
    table = (np.array([0.0, params.t_end]), np.vstack([s0.values, s0.values]))
    for go in (lambda: cf.run(s0, params, cfg, b=b),
               lambda: cf.run(s0, params, replace(cfg, coupling="picard"), b=b),
               lambda: cf.run_with_coupling_table(s0, params, cfg, *table, b=b)):
        with pytest.raises(ValueError, match=REJECTED[blocker]):
            go()
    assert kernels == []


@pytest.mark.parametrize("jit", ["on", "auto"])
def test_mollified_run_takes_the_compiled_loop(jit, monkeypatch):
    # every step runs in C, which averages after each step; Python takes
    # only the average at t=0. on: a SolverConfig built in Python; auto: the
    # one a config document builds, whose jit key takes only auto
    averages = []
    average = _mollifier._mollify_arrays

    def counting(*args, **kwargs):
        averages.append(list(args[3]))
        return average(*args, **kwargs)

    monkeypatch.setattr(_mollifier, "_mollify_arrays", counting)
    calls = _count_compiled_calls(monkeypatch)
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_interval=0.002)
    if jit == "auto":
        doc = cf.parse_config("coupling = mollified\nsnapshot_interval = 0.002\n"
                              "jit = auto\n")
        assert doc.solver_config() == cfg
        cfg = doc.solver_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, mon = cf.run(s0, params, cfg)
    assert len(calls) == 1  # both snapshot intervals in one call
    assert averages == [[0.0]]
    assert mon.n_steps > 0
    assert traj.s_eff.shape == traj.values.shape


def test_compiled_mollified_run_reports_an_uncovered_window(monkeypatch):
    # a history that keeps no state after t=0 falls short of the kernel
    # window after a few steps; the compiled loop raises the error that the
    # numpy reference raises there
    class StuckKernel(solver._CompiledKernel):
        def __init__(self, *args):
            super().__init__(*args)
            self.ctx.hist_last = np.inf

    append = _CausalHistory.append

    def stuck_append(self, t, values):
        if self.hi == 0:
            append(self, t, values)

    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_interval=0.005)
    with monkeypatch.context() as m:
        m.setattr(solver, "_CompiledKernel", StuckKernel)
        with pytest.raises(cf.MollifierError) as compiled:
            cf.run(s0, params, cfg)
    with monkeypatch.context() as m, numpy_engine():
        m.setattr(_CausalHistory, "append", stuck_append)
        with pytest.raises(cf.MollifierError) as reference:
            cf.run(s0, params, cfg)
    pattern = r"kernel at t=(\S+) needs \[0\.0, (\S+)\] \(missing \(0\.0, (\S+)\]\)"
    got = re.search(pattern, str(compiled.value))
    want = re.search(pattern, str(reference.value))
    assert got and want, (str(compiled.value), str(reference.value))
    assert str(compiled.value).startswith("history covers [0, 0.0] but")
    assert [float(v) for v in got.groups()] == pytest.approx(
        [float(v) for v in want.groups()], rel=MONITOR_RTOL)


def test_context_checks_arrays_once(monkeypatch):
    # the kernel fills the loop's context once, from the run's own arrays:
    # every array it points C at went through _native._ptr, which the kernel
    # holds, and _ptr refuses any array the loop cannot take
    kernels = _recorded_kernels(monkeypatch)
    grid = _grid(8)
    params = std_params(kappa=0.2, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cf.run(s0, params, cf.SolverConfig(coupling="mollified", snapshot_interval=0.002))
    (kernel,) = kernels
    ctx = kernel.ctx
    assert ctx.n == grid.n_nodes and ctx.mode == 2 and ctx.n_stops == 2
    held = {a.ctypes.data for a in kernel.arrays + kernel.rows}
    for name, kind in ctx._fields_:
        if kind is _native._P:
            address = ctypes.cast(getattr(ctx, name), ctypes.c_void_p).value
            assert address is None or address in held, name
    assert {a.ctypes.data for a in kernel.rows} == {
        kernel.emitter.scalars.ctypes.data, kernel.emitter.states.ctypes.data,
        kernel.emitter.seffs.ctypes.data}
    n = 8
    frozen = np.zeros(n)
    frozen.flags.writeable = False
    for bad in (np.zeros(2 * n)[::2],              # not contiguous
                np.zeros(n, dtype=np.float32),
                np.zeros(n + 1),                   # wrong shape
                [0.0] * n,                         # not an ndarray
                frozen):                           # read-only, and written
        with pytest.raises(ValueError):
            _native._ptr([], bad, (n,), writable=True)
    keep = []
    _native._ptr(keep, frozen, (n,))
    assert len(keep) == 1 and keep[0] is frozen


def test_context_fields_match_the_c_struct():
    # name, order and kind (double, long or pointer) of every field of
    # struct cf_ctx, parsed from the source: the size check at load time
    # passes two swapped fields of the same size
    text = _native.SOURCES[0].read_text()
    body = re.search(r"struct cf_ctx \{(.*?)\};", text, re.S).group(1)
    fields = []
    for decl in re.sub(r"/\*.*?\*/", "", body, flags=re.S).split(";")[:-1]:
        base, names = re.fullmatch(r"\s*(?:const\s+)?(double|long)\s+(.*?)\s*",
                                   decl, re.S).groups()
        for name in names.split(","):
            name = name.strip()
            fields.append((name.lstrip("*").strip(),
                           "pointer" if name.startswith("*") else base))
    kinds = {_native._D: "double", _native._L: "long", _native._P: "pointer"}
    assert [(name, kinds[kind]) for name, kind in _native.Context._fields_] == fields
    assert len(fields) == 54


@pytest.mark.parametrize("times, rows", [
    ([0.0, 0.009, 0.01], 3),  # uneven: was read as spaced 0.009 apart
    ([0.0, 0.01], 3),         # one time short of the rows
    ([0.0], 1),               # one row: was an IndexError
    ([0.0, 0.001, 0.002], 3),  # ends before t_end: held its last row
    ([0.05, 0.06, 0.07], 3),   # starts after 0: held its first row
])
def test_coupling_table_rejects_bad_reference_times(times, rows, monkeypatch):
    # a ValueError before the kernel is built, so before the first step
    grid = _grid(16)
    params = std_params(kappa=0.1, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    kernels = []
    monkeypatch.setattr(solver, "_CompiledKernel", lambda *args: kernels.append(args))
    with pytest.raises(ValueError, match="coupling table"):
        cf.run_with_coupling_table(s0, params, cf.SolverConfig(snapshot_interval=0.005),
                                   np.array(times), np.vstack([s0.values] * rows))
    assert kernels == []


@pytest.fixture(scope="session")
def copying_compiler(tmp_path_factory):
    """A stand-in C compiler that writes the library this session loads
    (built at most once) to its ``-o`` path, so the cache tests run every
    step of ``_native._compile`` without compiling the sources again."""
    _native.chunk_loop()
    home = tmp_path_factory.mktemp("copying_cc")
    library = home / "chunk_loop.so"
    shutil.copyfile(_native._library_path(_native.find_compiler()), library)
    cc = home / "cc"
    cc.write_text("#!/bin/sh\n"
                  "while [ $# -gt 1 ]; do\n"
                  f'  if [ "$1" = -o ]; then exec cp "{library}" "$2"; fi\n'
                  "  shift\n"
                  "done\n"
                  "exit 1\n")
    cc.chmod(0o755)
    return str(cc)


def test_compiled_loop_builds_once_into_the_cache(monkeypatch, tmp_path,
                                                  copying_compiler):
    monkeypatch.setenv("CC", copying_compiler)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_record", _native._Record())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=4) as pool:
            loops = list(pool.map(lambda _: _native.chunk_loop(), range(8),
                                  timeout=120))
    finally:
        sys.setswitchinterval(interval)
    assert all(loop is loops[0] for loop in loops)
    built = sorted(p.name for p in (tmp_path / "cfphase").iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built


def test_build_removes_superseded_libraries(monkeypatch, tmp_path,
                                            copying_compiler):
    # a build keeps the newest libraries, itself included, and removes the
    # older ones that other sources or compilers left
    monkeypatch.setenv("CC", copying_compiler)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_record", _native._Record())
    cache = tmp_path / "cfphase"
    cache.mkdir()
    stale = [cache / f"chunk_loop-{age:016x}.so" for age in range(5)]
    for age, path in enumerate(stale):
        path.write_bytes(b"a library built from an older source")
        os.utime(path, (1e9 - age, 1e9 - age))
    in_flight = cache / "chunk_loop-fedcba9876543210.ab12cd.tmp"
    in_flight.write_bytes(b"")
    unrelated = cache / "notes.txt"
    unrelated.write_text("not a library")
    _native.chunk_loop()
    names = sorted(p.name for p in cache.iterdir())
    libraries = [name for name in names if name.endswith(".so")]
    kept = [p.name for p in stale[:_native.KEEP - 1]]
    assert len(libraries) == _native.KEEP and set(kept) < set(libraries), names
    assert in_flight.name in names and unrelated.name in names
    # loading the cached library builds nothing, so it removes nothing
    stale[-1].write_bytes(b"a library built from an older source")
    os.utime(stale[-1], (1.0, 1.0))
    monkeypatch.setattr(_native, "_record", _native._Record())
    _native.chunk_loop()
    assert stale[-1].exists()


def test_switching_between_two_sources_loads_from_the_cache(monkeypatch, tmp_path,
                                                            copying_compiler):
    # two checkouts whose sources differ share one cache: going back to the
    # first after building the second loads its library again
    monkeypatch.setenv("CC", copying_compiler)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    other = tmp_path / "other"
    other.mkdir()
    for path in (*_native.SOURCES, *_native.HEADERS):
        (other / path.name).write_bytes(path.read_bytes())
    with open(other / _native.SOURCES[0].name, "a") as fh:
        fh.write("/* another checkout */\n")
    sources = {"A": _native.SOURCES,
               "B": tuple(other / p.name for p in _native.SOURCES)}
    compile_ = _native._compile
    built = []
    monkeypatch.setattr(_native, "_compile",
                        lambda *args: (built.append(args[1]), compile_(*args)))
    for side in ("A", "B", "A"):
        monkeypatch.setattr(_native, "SOURCES", sources[side])
        monkeypatch.setattr(_native, "_record", _native._Record())
        _native.chunk_loop()
    assert len(built) == 2 and built[0] != built[1], built
    assert sorted(built) == sorted((tmp_path / "cache" / "cfphase").glob("*.so"))


def _hide_compiler(how, monkeypatch, tmp_path):
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("PATH", str(tmp_path))
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
    if how != "no compiler":
        failing = tmp_path / "cc"
        failing.write_text("#!/bin/sh\necho 'cc: error: broken' >&2\nexit 1\n")
        failing.chmod(0o755)
    if how == "cache unwritable":
        (tmp_path / "cache").write_text("a file where the cache directory goes")
    monkeypatch.setattr(_native, "_record", _native._Record())


@pytest.mark.parametrize("how, reason", [
    ("no compiler", "no C compiler"),
    ("compile fails", "compiling with .* failed .*broken"),
    ("cache unwritable", "cannot write the cache directory"),
])
def test_unavailable_compiler_stops_every_command_with_exit_6(
        how, reason, monkeypatch, tmp_path, capsys):
    # sim prints the reason and exits 6 before any command runs, with no
    # traceback and no output; in the library, a run raises it, and a sweep
    # ends with it instead of recording it as each kappa's failure
    _hide_compiler(how, monkeypatch, tmp_path)
    config = tmp_path / "run.cfg"
    config.write_text("n = 16\nt_end = 0.001\nmms_grids = 8, 16\nmms_t_end = 0.001\n")
    for command in ("run", "sweep", "mms"):
        out = tmp_path / command
        assert cli.main([command, str(config), "--output", str(out)]) == 6, command
        captured = capsys.readouterr()
        assert re.fullmatch(f"compiled library unavailable: .*{reason}.*\n",
                            captured.err), captured.err
        assert captured.out == "" and not out.exists(), command
    with pytest.raises(_native.Unavailable, match=reason):
        _native.format_rows(np.zeros((1, 1)))  # the same build attempt
    grid = _grid(16)
    params = std_params(kappa=0.1, t_end=0.001)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    with pytest.raises(_native.Unavailable, match=reason):
        cf.run(s0, params, cf.SolverConfig())
    with pytest.raises(_native.Unavailable, match=reason):
        kappa_sweep(s0, params, [0.2, 0.1], cf.SolverConfig())


def test_run_first_step_matches_public_step():
    # a smooth case under the diffusion limit, and a 4-cell grid with a
    # strong reaction and weak diffusion, on which the reaction cap sets dt
    stiff = cf.ModelParams(c=50.0, nu=1e-4, kappa=0.05,
                           epsbar=sym_diag(1, 0, 0),
                           elastic=cf.ElasticTensor.isotropic(1.0, 1.0),
                           a=0.0, d=1.0, t_end=0.01,
                           potential=cf.DoubleWell.quartic())
    cases = [(_grid(64), std_params(kappa=0.15, t_end=0.01), "smoothed-step", 0.8),
             (_grid(4), stiff, "sine", 1.0)]
    for grid, params, kind, amplitude in cases:
        s0 = cf.make_initial_profile(kind, amplitude, grid)
        s1, report = cf.step(s0, 0.0, cf.SolverConfig(), params)
        for traj, _ in on_both_engines(
                lambda: cf.run(s0, params, cf.SolverConfig(snapshot_stride=1))):
            assert report.dt == pytest.approx(traj.times[1], rel=1e-12)
            assert np.max(np.abs(traj.values[1] - s1.values)) < 1e-12
    # the last case is reaction-limited
    wmax = np.max(np.hypot(np.diff(s0.values) / grid.dx, stiff.kappa))
    assert report.dt < 0.4 * grid.dx ** 2 / (2 * stiff.c * stiff.nu * wmax)


def test_run_rejects_bad_config():
    with pytest.raises(ValueError):
        cf.SolverConfig(coupling="magic")
    with pytest.raises(ValueError):
        cf.SolverConfig(cfl_safety=1.5)
    with pytest.raises(ValueError):
        cf.SolverConfig(snapshot_stride=0)
    with pytest.raises(TypeError):  # one engine: nothing to choose
        cf.SolverConfig(jit="auto")
    # values a run would otherwise ignore or misread: a negative or NaN
    # interval or forced step size, a negative sweep count, no step budget
    for bad in (dict(snapshot_interval=-0.1), dict(snapshot_interval=float("nan")),
                dict(dt_override=-1e-4), dict(dt_override=float("nan")),
                dict(picard_sweeps=-1), dict(max_steps=0)):
        with pytest.raises(ValueError, match=next(iter(bad))):
            cf.SolverConfig(**bad)


def test_run_rejects_too_few_mollifier_points_on_both_engines(compiled_loop):
    # the sizes are checked when the config is built, so the compiled loop,
    # the numpy reference and the Picard table reject them alike, before
    # any run
    grid = _grid(16)
    params = std_params(kappa=0.2, t_end=0.002)
    s0 = cf.make_initial_profile("sine", 0.5, grid)
    base = dict(snapshot_interval=0.001)
    for coupling, sizes in (("mollified", dict(mollify_samples=0)),
                            ("picard", dict(mollify_samples=0)),
                            ("picard", dict(mollify_table=1)),
                            ("picard", dict(mollify_table=0))):
        with pytest.raises(ValueError, match="mollify_"):
            cf.run(s0, params, cf.SolverConfig(coupling=coupling, **sizes, **base))
    # the smallest sizes allowed run
    for coupling in ("mollified", "picard"):
        traj, _ = cf.run(s0, params, cf.SolverConfig(
            coupling=coupling, mollify_samples=1, mollify_table=2, **base))
        assert np.all(np.isfinite(traj.values))


def test_picard_table_means_match_the_per_row_trapezoid(monkeypatch):
    # the coupling table's means, one trapezoid over all its rows, are the
    # same bits as the trapezoid of each row alone
    tables = []
    coupling = solver._coupling

    def recording(*args):
        table, seff, seff_mean = coupling(*args)
        tables.extend([] if table is None else [table])
        return table, seff, seff_mean

    monkeypatch.setattr(solver, "_coupling", recording)
    grid = _grid(50)
    params = std_params(kappa=0.1, t_end=0.02)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cf.run(s0, params, cf.SolverConfig(coupling="picard", snapshot_interval=0.005))
    assert len(tables) == cf.SolverConfig().picard_sweeps
    length = cf.ElasticityOperator.from_params(grid, params).length
    for _, _, vals, means in tables:
        assert vals.shape[0] > 2
        want = np.array([trapezoid(row, grid.dx) / length for row in vals])
        assert np.array_equal(means, want)


def _picard_case(**kw):
    grid = _grid(32)
    params = std_params(kappa=0.1, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    return s0, params, cf.SolverConfig(coupling="picard", snapshot_interval=0.01 / 8, **kw)


def test_zero_picard_sweeps_return_the_direct_pass():
    s0, params, cfg = _picard_case(picard_sweeps=0)
    traj, monitors = cf.run(s0, params, cfg)
    _assert_same_run((traj, monitors), cf.run(s0, params, replace(cfg, coupling="direct")))
    assert traj.s_eff is None
    assert monitors.picard_distances == []
    assert monitors.mollifier_truncated is False


@pytest.mark.parametrize("sweeps", [1, 3])
def test_each_picard_sweep_goes_through_the_module_level_names(sweeps, monkeypatch):
    # a tracer patches the solver's module-level names, so it sees the
    # direct pass and every sweep's table run and distance
    calls = {"run": 0, "run_with_coupling_table": 0, "trajectory_l2_distance": 0}
    for name in calls:
        def counting(*args, _fn=getattr(solver, name), _name=name, **kwargs):
            calls[_name] += 1
            return _fn(*args, **kwargs)
        monkeypatch.setattr(solver, name, counting)
    s0, params, cfg = _picard_case(picard_sweeps=sweeps)
    _, monitors = cf.run(s0, params, cfg)
    assert len(monitors.picard_distances) == sweeps
    assert calls == {"run": 1, "run_with_coupling_table": sweeps,
                     "trajectory_l2_distance": sweeps}


def _patched_distances(monkeypatch, distances):
    """Make the solver's Picard sweeps measure ``distances`` in turn."""
    it = iter(distances)
    monkeypatch.setattr(solver, "trajectory_l2_distance", lambda new, old: next(it))


@pytest.mark.parametrize("distances, sweep", [
    ([1e-3, 2e-3], 2), ([1e-3, 1e-3], 2), ([1e-3, 5e-4, 6e-4], 3)],
    ids=["rising", "equal", "third-sweep"])
def test_picard_aborts_on_a_sweep_that_does_not_contract(distances, sweep, monkeypatch):
    _patched_distances(monkeypatch, distances)
    s0, params, cfg = _picard_case(picard_sweeps=len(distances))
    with pytest.raises(SolverAbort) as abort:
        cf.run(s0, params, cfg)
    message = str(abort.value)
    assert message.startswith("Picard sweeps do not contract")
    assert (f"sweep {sweep} distance {distances[-1]!r} >= "
            f"sweep {sweep - 1} distance {distances[-2]!r}") in message
    assert abort.value.t == params.t_end


def test_picard_keeps_going_on_distances_that_fall_or_stay_zero(monkeypatch):
    for distances in ([1e-3, 5e-4, 1e-4], [0.0, 0.0, 0.0], [1e-3, 0.0, 0.0]):
        _patched_distances(monkeypatch, distances)
        s0, params, cfg = _picard_case(picard_sweeps=3)
        assert cf.run(s0, params, cfg)[1].picard_distances == distances


@pytest.mark.parametrize("plan", [dict(snapshot_interval=0.02 / 16),
                                  dict(snapshot_interval=0.0, snapshot_stride=7)])
def test_table_run_rows_hold_the_table_at_their_times(plan):
    # the compiled loop refreshes the coupling field after every step, and a
    # row copies it: each row's s_eff is the table interpolated at the row's
    # time, bit for bit, under either emission plan
    grid = _grid(50)
    params = std_params(kappa=0.1, t_end=0.02)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    ref, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.02 / 8))
    cfg = cf.SolverConfig(**plan)
    op = cf.ElasticityOperator.from_params(grid, params)
    tab = solver._coupling(s0.values, params, cfg, op, (ref.times, ref.values))[0]
    traj, _ = cf.run_with_coupling_table(s0, params, cfg, ref.times, ref.values)
    assert traj.times.size > 8 and traj.times[-1] == params.t_end
    for t, row in zip(traj.times, traj.s_eff):
        assert np.array_equal(row, _table_at(tab, t)[0])


def test_mollified_run_stays_bounded():
    grid = _grid(48)
    params = std_params(kappa=0.2, t_end=0.1)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(coupling="mollified",
                                                   snapshot_interval=0.1 / 16))
    assert mon.max_principle_ok
    assert traj.s_eff is not None
    assert np.all(np.isfinite(traj.s_eff))


def test_mollified_run_mollifies_once_per_step(monkeypatch):
    # one causal average at t = 0 (compiled) and one per step (the numpy
    # reference's); an emission's average is reused by the step that
    # follows it, and the last emission adds one
    calls = []
    first, average = _mollifier._mollify_arrays, oracles.mollify_arrays

    def counting_first(*args, **kwargs):
        calls.extend(args[3])
        return first(*args, **kwargs)

    def counting(*args, **kwargs):
        calls.append(args[3])
        return average(*args, **kwargs)

    monkeypatch.setattr(_mollifier, "_mollify_arrays", counting_first)
    monkeypatch.setattr(oracles, "mollify_arrays", counting)
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.02)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    # the numpy reference's averaging (the compiled loop averages in C)
    for cfg in (cf.SolverConfig(coupling="mollified", snapshot_interval=0.02 / 8),
                cf.SolverConfig(coupling="mollified", snapshot_stride=5)):
        calls.clear()
        with numpy_engine():
            traj, mon = cf.run(s0, params, cfg)
        assert traj.times.size > 2
        assert len(calls) == mon.n_steps + 1
        assert len(set(calls)) == len(calls)


# ---------------------------------------------------------------------------
# causal history of the in-stepping mollification
# ---------------------------------------------------------------------------

def _stacked_oracle(times, rows, kernel, t, samples):
    """The causal average as computed from a list history: the rows stacked,
    every quadrature point's row interpolated, then weighted."""
    times = np.asarray(times)
    values = np.vstack(rows)
    s0, s1 = max(0.0, t - kernel.kappa), t
    if s1 - s0 <= 1e-15 * max(1.0, t):
        return _sample_rows(times, values, np.array([s0]))[0]
    s = np.linspace(s0, s1, samples)
    w = kernel_weight(kernel, t - s)
    w[0] *= 0.5
    w[-1] *= 0.5
    total = w.sum()
    if not (total > 0.0 and np.isfinite(total)):
        return _sample_rows(times, values, s[np.argmax(w):np.argmax(w) + 1])[0]
    return (w / total) @ _sample_rows(times, values, s)


def _drive_history(kappa, keep, steps, seed, samples):
    """Append rows at times advanced by ``steps`` (in units of the history's
    spacing) to both the buffer and a list history with the same thinning
    and trimming rules; after every append compare the kept times, and the
    causal averages half a step later.  Returns which of the single-row, trimming and
    compaction cases the sequence reached."""
    rng = np.random.default_rng(seed)
    kernel = cf.MollifierKernel(kappa, centered=False)
    hist = _CausalHistory(kappa, 5, keep=keep)
    spacing = kappa / keep
    times, rows, last = [], [], -np.inf
    seen = set()
    t = 0.0
    for i in range(len(steps) + 1):
        if i:
            t += steps[i - 1] * spacing
        row = rng.standard_normal(5)
        hi_before = hist.hi
        hist.append(t, row)
        if t - last >= spacing or not times:
            times.append(t)
            rows.append(row)
            last = t
            while len(times) > 2 and times[1] < t - kappa - 4.0 * spacing:
                times.pop(0)
                rows.pop(0)
                seen.add("trim")
        if hist.hi < hi_before:
            seen.add("compact")
        assert np.array_equal(hist.times[hist.lo:hist.hi], times)
        assert hist.hi - hist.lo <= keep + 6
        if i < len(steps):
            t_next = t + 0.5 * steps[i] * spacing
            if len(times) == 1 and t_next > 0.0:
                seen.add("single")
            got = hist.mollify(kernel, t_next, samples)
            want = _stacked_oracle(times, rows, kernel, t_next, samples)
            assert np.max(np.abs(got - want)) <= 1e-13
    return seen


@settings(max_examples=60)
@given(kappa=st.sampled_from([0.05, 0.1, 0.2]),
       keep=st.integers(min_value=2, max_value=24),
       steps=st.lists(st.floats(min_value=0.05, max_value=3.0), max_size=150),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       samples=st.sampled_from([9, 257]))
def test_causal_history_matches_stacked_oracle(kappa, keep, steps, seed, samples):
    _drive_history(kappa, keep, steps, seed, samples)


def test_causal_history_oracle_reaches_every_case():
    # a first step under one spacing leaves a single stored row; a long run
    # trims the front and fills the buffer to the point of compaction
    steps = [0.3] + [0.2, 1.7, 0.9, 2.5, 0.6] * 30
    seen = _drive_history(0.1, 4, steps, seed=7, samples=257)
    assert seen == {"single", "trim", "compact"}
