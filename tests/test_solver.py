"""Time integration: right-hand side structure, step-size budget, stepping,
boundary handling, and the structural run invariants."""

import functools
import re
import sys
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfphase as cf
from cfphase import _native
from cfphase import mollifier as _mollifier
from cfphase.convergence import manufactured_source
from cfphase.mollifier import _sample_rows
from cfphase.solver import SolverAbort, _CausalHistory

from conftest import std_params


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
    zero = cf.ScalarField.zeros(grid)
    rhs = cf.discrete_rhs(zero, np.zeros(grid.n_nodes), params)
    assert np.allclose(rhs.values, 0.0, atol=0.0)


def test_rhs_zero_state_with_constant_stress_still_vanishes():
    grid = _grid()
    params = std_params(kappa=0.1)
    zero = cf.ScalarField.zeros(grid)
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


# ---------------------------------------------------------------------------
# step-size budget
# ---------------------------------------------------------------------------

def test_cfl_dt_zero_state():
    grid = _grid(100)
    params = std_params(kappa=0.2)
    dt = cf.cfl_dt(cf.ScalarField.zeros(grid), params, 0.4)
    expected = 0.4 * grid.dx ** 2 / (2.0 * params.c * params.nu * params.kappa)
    assert dt == pytest.approx(expected, rel=1e-14)


def test_cfl_dt_quarters_under_doubling():
    params = std_params(kappa=0.1)
    dts = []
    for n in (100, 200):
        grid = _grid(n)
        s = cf.make_initial_profile("sine", 0.5, grid)
        dts.append(cf.cfl_dt(s, params, 0.4))
    ratio = dts[0] / dts[1]
    assert ratio == pytest.approx(4.0, rel=5e-3)


def test_cfl_dt_reaction_cap_engages_on_coarse_grid():
    # big domain makes dx^2 large, so the reaction cap is the binding limit
    params = cf.ModelParams(c=50.0, nu=1e-4, kappa=0.05,
                            epsbar=cf.SymMatrix3.diag(1, 0, 0),
                            elastic=cf.ElasticTensor.isotropic(1.0, 1.0),
                            a=0.0, d=1.0, t_end=1.0,
                            potential=cf.DoubleWell.quartic())
    grid = _grid(10)
    s = cf.make_initial_profile("sine", 1.0, grid)
    dt = cf.cfl_dt(s, params, 0.4)
    wmax = np.max(np.hypot(np.diff(s.values) / grid.dx, params.kappa))
    dt_diff = 0.4 * grid.dx ** 2 / (2 * params.c * params.nu * wmax)
    assert dt < dt_diff


# ---------------------------------------------------------------------------
# stepping
# ---------------------------------------------------------------------------

def test_step_zero_state_stationary():
    grid = _grid()
    params = std_params()
    s1, report = cf.step(cf.ScalarField.zeros(grid), 0.0, cf.SolverConfig(), params)
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


# ---------------------------------------------------------------------------
# full runs
# ---------------------------------------------------------------------------

def test_run_zero_state_identically_zero():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.05)
    traj, mon = cf.run(cf.ScalarField.zeros(grid), params,
                       cf.SolverConfig(snapshot_interval=0.05 / 16))
    assert np.allclose(traj.values, 0.0, atol=0.0)
    assert mon.sup_abs_run == 0.0
    assert mon.dissipation_cum[-1] == 0.0
    assert mon.reciprocal_cum[-1] == 0.0
    assert mon.st_l2_sq_max == 0.0
    assert mon.max_principle_ok


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
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.05 / 32))
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(0.05, abs=1e-13)
    assert np.all(np.diff(traj.times) > 0.0)
    assert mon.n_steps == traj.dts.size
    assert np.sum(traj.dts) == pytest.approx(0.05, rel=1e-12)


def test_run_stride_emission():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.02)
    s0 = cf.make_initial_profile("sine", 0.5, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_stride=50))
    assert traj.times[-1] == pytest.approx(0.02, abs=1e-13)
    assert traj.n_snapshots >= 3


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
        cf.run(cf.ScalarField.zeros(grid), params, cf.SolverConfig())


def test_run_abort_on_forced_large_step():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.5)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    with pytest.raises(SolverAbort, match="non-finite"):
        cf.run(s0, params, cf.SolverConfig(dt_override=1e-3,
                                           snapshot_interval=0.25))


def test_run_step_budget_exhaustion():
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=1.0)
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    with pytest.raises(SolverAbort, match="budget"):
        cf.run(s0, params, cf.SolverConfig(max_steps=10, snapshot_interval=0.5))


needs_cc = pytest.mark.skipif(_native.find_compiler() is None,
                              reason="no C compiler ($CC or cc) on PATH")


def _count_compiled_calls(monkeypatch):
    """Route the solver through a wrapper of the compiled loop that records
    each call."""
    loop = _native.chunk_loop()
    assert loop is not None, _native.reason()
    calls = []

    def counting(*args):
        calls.append(args)
        return loop(*args)

    monkeypatch.setattr(_native, "chunk_loop", lambda: counting)
    return calls


def _mms_source(params, grid):
    exact = cf.ManufacturedSolution(params.a, params.d)
    op = cf.ElasticityOperator.from_params(grid, params)
    return manufactured_source(exact, params, op)


def _engine_case(mode):
    grid = _grid(64)
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
        source = _mms_source(params, grid)
        return lambda cfg: cf.run(s0, params, replace(cfg, source=source))
    # table mode (the global fixed-point sweeps): couple to a direct run's
    # trajectory, interpolated in time between its snapshots
    ref, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.02 / 8,
                                                jit="off"))
    return lambda cfg: cf.run_with_coupling_table(s0, params, cfg,
                                                  ref.times, ref.values)


# Tolerances of the compiled loop against the numpy engine.  Direct, table
# and MMS runs differ only in the association of a few sums.  Mollified runs
# also differ in the last bit of the kernel weights (C exp against numpy's
# vectorized exp) and in the order of the row-weight x rows product (a loop
# against BLAS), so no engine comparison can be bit-exact.
STATE_TOL = 1e-10     # absolute, states and s_eff
MONITOR_RTOL = 1e-10  # relative, cumulative monitors and step sizes


def _assert_engines_agree(t1, m1, t2, m2, exact_times=True):
    assert m1.n_steps == m2.n_steps
    assert t1.n_snapshots == t2.n_snapshots
    if exact_times:
        assert np.array_equal(t1.times, t2.times)
    else:
        assert t1.times == pytest.approx(t2.times, rel=MONITOR_RTOL, abs=0.0)
    assert np.max(np.abs(t1.values - t2.values)) < STATE_TOL
    assert (t1.s_eff is None) == (t2.s_eff is None)
    if t1.s_eff is not None:
        assert np.max(np.abs(t1.s_eff - t2.s_eff)) < STATE_TOL
    for name in ("dissipation_cum", "reciprocal_cum", "p43_cum",
                 "grad_linf83_cum", "grad_weight_sq_cum"):
        got, want = getattr(m1, name)[-1], getattr(m2, name)[-1]
        assert got == pytest.approx(want, rel=MONITOR_RTOL, abs=0.0), name
    assert t1.dts == pytest.approx(t2.dts, rel=MONITOR_RTOL, abs=0.0)


@needs_cc
@pytest.mark.parametrize("mode", ["direct", "table", "mms", "mollified"])
def test_engines_agree(mode, monkeypatch):
    go = _engine_case(mode)
    calls = _count_compiled_calls(monkeypatch)
    t1, m1 = go(cf.SolverConfig(snapshot_interval=0.02 / 16, jit="auto"))
    assert len(calls) >= 16, "the jit='auto' run bypassed the compiled loop"
    n_calls = len(calls)
    t2, m2 = go(cf.SolverConfig(snapshot_interval=0.02 / 16, jit="off"))
    assert len(calls) == n_calls
    _assert_engines_agree(t1, m1, t2, m2)
    if mode == "mms":
        assert np.max(np.abs(t1.values - t2.values)) < 1e-12
        params = std_params(kappa=0.1, t_end=0.02)
        r1 = cf.manufactured_run(params, grid_sizes=(32, 64),
                                 config=cf.SolverConfig(jit="auto"))
        assert len(calls) > n_calls, "manufactured_run bypassed the compiled loop"
        n_calls = len(calls)
        r2 = cf.manufactured_run(params, grid_sizes=(32, 64),
                                 config=cf.SolverConfig(jit="off"))
        assert len(calls) == n_calls
        assert r1.errors == pytest.approx(r2.errors, rel=1e-12, abs=0.0)


@needs_cc
def test_engines_agree_through_history_trimming_and_compaction():
    # kappa small against the horizon: the history drops its stale front
    # every step and fills its buffer, so the live block moves to the front
    grid = _grid(32)
    params = std_params(kappa=0.02, t_end=0.3)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_interval=0.3 / 16)
    t1, m1 = cf.run(s0, params, replace(cfg, jit="on"))
    t2, m2 = cf.run(s0, params, replace(cfg, jit="off"))
    _assert_engines_agree(t1, m1, t2, m2)
    history = _CausalHistory(params.kappa, grid.n_nodes)
    compacted = False
    for t in np.cumsum(t2.dts):
        hi = history.hi
        history.append(t, s0.values)
        compacted = compacted or history.hi < hi
    assert compacted and history.lo > 0


@st.composite
def small_runs(draw):
    """A small run and its config: grid, model constants, initial profile,
    coupling and emission, with a horizon of a few dozen to a hundred and
    fifty initial step sizes so that a run on either engine stays short."""
    grid = _grid(draw(st.integers(min_value=4, max_value=48)))
    params = std_params(kappa=draw(st.floats(0.02, 1.0)),
                        c=draw(st.floats(0.1, 10.0)),
                        nu=draw(st.floats(0.01, 1.0)))
    s0 = cf.make_initial_profile(
        draw(st.sampled_from(["sine", "smoothed-step", "polynomial-bump"])),
        draw(st.floats(-1.5, 1.5)), grid)
    t_end = draw(st.integers(min_value=5, max_value=150)) * cf.cfl_dt(s0, params, 0.4)
    params = replace(params, t_end=t_end)
    if draw(st.booleans()):
        emission = dict(snapshot_stride=draw(st.integers(min_value=1, max_value=20)))
    else:
        emission = dict(snapshot_interval=t_end / draw(st.integers(min_value=1, max_value=16)))
    cfg = cf.SolverConfig(coupling=draw(st.sampled_from(["direct", "mollified"])),
                          **emission)
    return s0, params, cfg


@needs_cc
@settings(max_examples=100)
@given(case=small_runs())
def test_engines_agree_on_generated_runs(case):
    s0, params, cfg = case
    t1, m1 = cf.run(s0, params, replace(cfg, jit="on"))
    t2, m2 = cf.run(s0, params, replace(cfg, jit="off"))
    _assert_engines_agree(t1, m1, t2, m2,
                          exact_times=cfg.snapshot_interval > 0.0)
    assert m1.max_principle_ok and m2.max_principle_ok


@needs_cc
def test_wrapped_manufactured_source_stays_compiled(monkeypatch):
    # a wrapper that copies __dict__, as a tracing or timing hook does,
    # keeps the compiled form, and the run takes the compiled loop
    grid = _grid(32)
    params = std_params(kappa=0.1, t_end=0.01)
    source = _mms_source(params, grid)
    wrapped = functools.update_wrapper(lambda t, g: source(t, g), source)
    assert wrapped is not source and wrapped.compiled_form is source.compiled_form
    s0 = cf.make_initial_profile("sine", 1.0, grid)
    calls = _count_compiled_calls(monkeypatch)
    cfg = cf.SolverConfig(snapshot_interval=0.01 / 4, source=wrapped)
    t1, _ = cf.run(s0, params, cfg)
    assert calls, "the wrapped source sent the run to the numpy engine"
    t2, _ = cf.run(s0, params, replace(cfg, source=source))
    assert np.array_equal(t1.values, t2.values)


def _blocked_run(blocker):
    """A run config that the compiled loop cannot take, and its runner."""
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(snapshot_interval=0.002, jit="on")
    b = None
    if blocker == "a time-dependent body force":
        b = lambda t: np.zeros((grid.n_nodes, 3))  # noqa: E731
    elif blocker == "a source with no compiled form":
        cfg = replace(cfg, source=lambda t, g: np.zeros(g.n_nodes))
    else:  # a manufactured source built with another kappa
        cfg = replace(cfg, source=_mms_source(params.with_kappa(0.1), grid))
    return lambda config: cf.run(s0, params, config, b=b), cfg


@pytest.mark.parametrize("blocker", [
    "a time-dependent body force",
    "a source with no compiled form",
    "a source built for other model constants",
])
def test_jit_on_warns_when_the_run_needs_numpy(blocker):
    go, cfg = _blocked_run(blocker)
    with pytest.warns(UserWarning, match=f"cannot run {blocker}; using the numpy"):
        t_on, _ = go(cfg)
    t_off, _ = go(replace(cfg, jit="off"))
    assert np.array_equal(t_on.values, t_off.values)


@needs_cc
@pytest.mark.parametrize("jit", ["on", "auto"])
def test_mollified_run_takes_the_compiled_loop(jit, monkeypatch):
    # every step runs in C, which averages after each step; Python takes
    # only the average at t=0
    averages = []
    average = _mollifier._mollify_arrays

    def counting(*args, **kwargs):
        averages.append(args[3])
        return average(*args, **kwargs)

    monkeypatch.setattr(_mollifier, "_mollify_arrays", counting)
    calls = _count_compiled_calls(monkeypatch)
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_interval=0.002, jit=jit)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj, mon = cf.run(s0, params, cfg)
    assert len(calls) == 2
    assert averages == [0.0]
    assert mon.n_steps == traj.dts.size > 0
    assert traj.s_eff.shape == traj.values.shape


@needs_cc
def test_compiled_mollified_run_reports_an_uncovered_window(monkeypatch):
    # a history that keeps no state after t=0 falls short of the kernel
    # window after a few steps; both engines raise the same error there
    fill = _native.context

    def stuck_context(*args, **kwargs):
        ctx = fill(*args, **kwargs)
        ctx.hist_last = np.inf
        return ctx

    append = _CausalHistory.append

    def stuck_append(self, t, values):
        if self.hi == 0:
            append(self, t, values)

    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    cfg = cf.SolverConfig(coupling="mollified", snapshot_interval=0.005)
    with monkeypatch.context() as m:
        m.setattr(_native, "context", stuck_context)
        with pytest.raises(cf.MollifierError) as compiled:
            cf.run(s0, params, replace(cfg, jit="on"))
    with monkeypatch.context() as m:
        m.setattr(_CausalHistory, "append", stuck_append)
        with pytest.raises(cf.MollifierError) as reference:
            cf.run(s0, params, replace(cfg, jit="off"))
    pattern = r"kernel at t=(\S+) needs \[0\.0, (\S+)\] \(missing \(0\.0, (\S+)\]\)"
    got = re.search(pattern, str(compiled.value))
    want = re.search(pattern, str(reference.value))
    assert got and want, (str(compiled.value), str(reference.value))
    assert str(compiled.value).startswith("history covers [0, 0.0] but")
    assert [float(v) for v in got.groups()] == pytest.approx(
        [float(v) for v in want.groups()], rel=MONITOR_RTOL)


def test_context_checks_arrays_once():
    n = 8
    arrays = dict(S=np.zeros(n), rhs_prev=np.zeros(n), dts_buf=np.empty(16),
                  acc=np.zeros(10), sig_eps=np.zeros(n), dcoeffs=np.ones(2))
    scalars = dict(dx=0.1, kappa=0.1, c=1.0, nu=1.0, alpha=1.0, beta=1.0,
                   inv_len=1.0, react_coef=1.0, safety=0.4, dt_override=0.0)
    ctx = _native.context(**arrays, **scalars)
    assert ctx.n == n and ctx.mode == 0 and ctx.dts_cap == 16
    assert all(any(a is b for b in ctx.arrays) for a in arrays.values())
    for name, bad in (("S", np.zeros(2 * n)[::2]),           # not contiguous
                      ("rhs_prev", np.zeros(n, dtype=np.float32)),
                      ("sig_eps", np.zeros(n + 1)),           # wrong shape
                      ("acc", np.zeros(9))):
        with pytest.raises(ValueError):
            _native.context(**{**arrays, name: bad}, **scalars)
    frozen = np.zeros(n)
    frozen.flags.writeable = False
    with pytest.raises(ValueError):
        _native.context(**{**arrays, "S": frozen}, **scalars)


@needs_cc
def test_compiled_loop_builds_once_into_the_cache(monkeypatch, tmp_path):
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
    assert loops[0] is not None, _native.reason()
    assert all(loop is loops[0] for loop in loops)
    built = sorted(p.name for p in (tmp_path / "cfphase").iterdir())
    assert len(built) == 1 and built[0].endswith(".so"), built


@needs_cc
def test_build_removes_superseded_libraries(monkeypatch, tmp_path):
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_native, "_record", _native._Record())
    cache = tmp_path / "cfphase"
    cache.mkdir()
    stale = cache / "chunk_loop-0123456789abcdef.so"
    stale.write_bytes(b"a library built from an older source")
    in_flight = cache / "chunk_loop-fedcba9876543210.ab12cd.tmp"
    in_flight.write_bytes(b"")
    unrelated = cache / "notes.txt"
    unrelated.write_text("not a library")
    assert _native.chunk_loop() is not None, _native.reason()
    names = sorted(p.name for p in cache.iterdir())
    libraries = [name for name in names if name.endswith(".so")]
    assert len(libraries) == 1 and libraries[0] != stale.name, names
    assert in_flight.name in names and unrelated.name in names
    # loading the cached library builds nothing, so it removes nothing
    stale.write_bytes(b"a library built from an older source")
    monkeypatch.setattr(_native, "_record", _native._Record())
    assert _native.chunk_loop() is not None, _native.reason()
    assert stale.exists()


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
def test_unavailable_compiler_falls_back_to_numpy(how, reason, monkeypatch, tmp_path):
    _hide_compiler(how, monkeypatch, tmp_path)
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    t1, m1 = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.01 / 8))
    assert _native.chunk_loop() is None
    assert re.search(reason, _native.reason())
    t2, m2 = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.01 / 8, jit="off"))
    assert np.array_equal(t1.values, t2.values)
    assert m1.n_steps == m2.n_steps
    with pytest.warns(UserWarning, match=reason):
        t3, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.01 / 8, jit="on"))
    assert np.array_equal(t3.values, t2.values)


def test_run_first_step_matches_public_step():
    # a smooth case under the diffusion limit, and a 4-cell grid with a
    # strong reaction and weak diffusion, on which the reaction cap sets dt
    stiff = cf.ModelParams(c=50.0, nu=1e-4, kappa=0.05,
                           epsbar=cf.SymMatrix3.diag(1, 0, 0),
                           elastic=cf.ElasticTensor.isotropic(1.0, 1.0),
                           a=0.0, d=1.0, t_end=0.01,
                           potential=cf.DoubleWell.quartic())
    cases = [(_grid(64), std_params(kappa=0.15, t_end=0.01), "smoothed-step", 0.8),
             (_grid(4), stiff, "sine", 1.0)]
    for grid, params, kind, amplitude in cases:
        s0 = cf.make_initial_profile(kind, amplitude, grid)
        s1, report = cf.step(s0, 0.0, cf.SolverConfig(), params)
        for jit in ("auto", "off"):
            traj, _ = cf.run(s0, params, cf.SolverConfig(snapshot_stride=1, jit=jit))
            assert report.dt == pytest.approx(traj.dts[0], rel=1e-12)
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
    with pytest.raises(ValueError):
        cf.SolverConfig(jit="sometimes")


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
    # one causal average per step; an emission's average is reused by the
    # step that follows it, and the last emission adds one
    calls = []
    average = _mollifier._mollify_arrays

    def counting(*args, **kwargs):
        calls.append(args[3])
        return average(*args, **kwargs)

    monkeypatch.setattr(_mollifier, "_mollify_arrays", counting)
    grid = _grid(32)
    params = std_params(kappa=0.2, t_end=0.02)
    s0 = cf.make_initial_profile("smoothed-step", 0.8, grid)
    # the numpy engine's averaging (the compiled loop averages in C)
    for cfg in (cf.SolverConfig(coupling="mollified", snapshot_interval=0.02 / 8,
                                jit="off"),
                cf.SolverConfig(coupling="mollified", snapshot_stride=5,
                                jit="off")):
        calls.clear()
        traj, mon = cf.run(s0, params, cfg)
        assert traj.n_snapshots > 2
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
    w = kernel.weight(t - s)
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
