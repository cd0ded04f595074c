"""Monitor functionals: the discrete dissipation/energy quantities and the
structural properties of the series a run produces."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import cfphase as cf
from cfphase import model, solver
from cfphase.elasticity import coupling_stress_rows
from cfphase.estimates import _row_dots, energy_rows, grad_sq_rows
from cfphase.model import smoothed_abs, trapezoid

from conftest import engines, on_both_engines, small_runs, std_params
from oracles import discrete_rhs, second_differences, zero_field


def _grid(n=200):
    return cf.Grid(0.0, 1.0, n)


def _grad_l2_sq(f):
    """||S_x||^2 of one field, by the monitors' row form."""
    return float(grad_sq_rows(f.values[None, :], f.grid.dx)[0])


def _energy(f, params):
    """nu/2 ||S_x||^2 + integral of psi(S) of one field, by the monitors'
    row form."""
    v, dx = f.values[None, :], f.grid.dx
    return float(energy_rows(v, dx, params, grad_sq_rows(v, dx))[0])


def _sine(grid):
    return cf.ScalarField(grid, np.sin(np.pi * grid.x))


# ---------------------------------------------------------------------------
# gradient norm
# ---------------------------------------------------------------------------

def test_grad_l2_sq_zero():
    assert _grad_l2_sq(zero_field(_grid())) == 0.0


def test_grad_l2_sq_unit_slope():
    grid = _grid()
    f = cf.ScalarField(grid, grid.x.copy())  # boundary values ignored here
    assert _grad_l2_sq(f) == pytest.approx(1.0, rel=1e-12)


def test_grad_l2_sq_sine():
    grid = _grid(200)
    assert _grad_l2_sq(_sine(grid)) == pytest.approx(np.pi ** 2 / 2.0, rel=1e-3)


# ---------------------------------------------------------------------------
# the weighted dissipation of one run step
# ---------------------------------------------------------------------------

def _one_step_dissipation(s0, params, dt):
    """The dissipation_cum that a run records after one forced step of size
    dt, on the compiled loop and on the numpy reference."""
    cfg = cf.SolverConfig(dt_override=dt, snapshot_stride=1)
    got = []
    for traj, mon in on_both_engines(lambda: cf.run(s0, replace(params, t_end=dt), cfg)):
        assert mon.n_steps == 1 and traj.times[1] == dt
        got.append(mon.dissipation_cum[1])
    return got


def test_weighted_dissipation_zero_state():
    params = std_params(kappa=0.1)
    assert _one_step_dissipation(zero_field(_grid()), params,
                                 0.25) == [0.0, 0.0]


def test_weighted_dissipation_quadratic_stencil():
    grid = _grid(100)
    params = std_params(kappa=0.3)
    q = 2.5
    g = -0.5 * q  # S = g x + q x^2 / 2 vanishes at both ends of [0, 1]
    values = g * grid.x + 0.5 * q * grid.x ** 2
    values[0] = values[-1] = 0.0
    f = cf.ScalarField(grid, values)
    # central differences are exact for quadratics: the integrand at node i
    # is |g + q x_i|_kappa * q^2
    x_int = grid.x[1:-1]
    expected = grid.dx * np.sum(np.hypot(g + q * x_int, params.kappa) * q * q)
    for dt in (1.0, 0.25):
        got = _one_step_dissipation(f, params, dt)
        assert got == pytest.approx([dt * expected] * 2, rel=1e-10), dt


# ---------------------------------------------------------------------------
# energy
# ---------------------------------------------------------------------------

def test_lyapunov_values():
    grid = _grid()
    params = std_params()
    assert _energy(zero_field(grid), params) == 0.0
    ones = cf.ScalarField(grid, np.ones(grid.n_nodes))
    assert _energy(ones, params) == pytest.approx(0.0, abs=1e-14)
    half = cf.ScalarField(grid, np.full(grid.n_nodes, 0.5))
    assert _energy(half, params) == pytest.approx(1.0 / 16.0, rel=1e-12)


def test_lyapunov_gradient_part_scales_with_nu():
    grid = _grid()
    f = _sine(grid)
    e1 = _energy(f, std_params(nu=1.0))
    e2 = _energy(f, std_params(nu=2.0))
    grad_part = _grad_l2_sq(f)
    assert e2 - e1 == pytest.approx(0.5 * grad_part, rel=1e-12)


# ---------------------------------------------------------------------------
# initial time-derivative bound (the a priori pattern at t = 0)
# ---------------------------------------------------------------------------

def test_initial_rate_bounded_by_curvature_pattern():
    grid = _grid(200)
    params = std_params(kappa=0.1)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    op = cf.ElasticityOperator.from_params(grid, params)
    corr = cf.solve_correction(cf.zero_body_force(grid), op)
    sbar = trapezoid(s0.values, grid.dx) / op.length
    tdot = op.alpha * s0.values - op.beta * sbar + corr.sig_dot_eps
    rhs = discrete_rhs(s0, tdot, params)[1:-1]

    v = s0.values
    dx = grid.dx
    wplus = np.hypot(np.diff(v) / dx, params.kappa)
    wcell = np.maximum(wplus[1:], wplus[:-1])
    d2 = second_differences(v, dx)
    w0 = np.hypot((v[2:] - v[:-2]) / (2 * dx), params.kappa)
    psi_p = np.asarray(params.potential.psi_prime(v[1:-1]))
    bound = (params.c * params.nu * wcell * np.abs(d2)
             + params.c * np.abs(tdot[1:-1] - psi_p) * (w0 - params.kappa))
    assert np.all(np.abs(rhs) <= bound + 1e-12)


# ---------------------------------------------------------------------------
# series structure on a run
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def short_run():
    grid = cf.Grid(0.0, 1.0, 100)
    params = std_params(kappa=0.1, t_end=0.1)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.1 / 64))
    return grid, params, traj, mon


def test_cumulative_monitors_nondecreasing(short_run):
    _, _, _, mon = short_run
    for name in ("dissipation_cum", "reciprocal_cum", "p43_cum",
                 "grad_linf83_cum", "grad_weight_sq_cum"):
        series = getattr(mon, name)
        assert np.all(np.diff(series) >= -1e-15), name
        assert np.all(np.isfinite(series)) and np.all(series >= 0.0), name


def test_monitor_columns_finite_and_nonnegative(short_run):
    _, _, _, mon = short_run
    for name in cf.MonitorSeries.COLUMNS:
        series = getattr(mon, name)
        assert np.all(np.isfinite(series)), name
    assert np.all(mon.sup_abs >= 0.0)
    assert np.all(mon.st_l2_sq >= 0.0)
    assert np.all(mon.energy >= 0.0)


def test_holder_cross_check(short_run):
    _, _, _, mon = short_run
    lhs = mon.p43_cum[-1]
    # the discrete Hoelder inequality:
    # (integral of w^2)^(1/3) * (integral of w Sxx^2)^(2/3)
    rhs = (mon.grad_weight_sq_cum[-1] ** (1.0 / 3.0)
           * mon.dissipation_cum[-1] ** (2.0 / 3.0))
    assert lhs <= rhs * 1.05


def test_max_principle_single_source_of_truth():
    # stride-1 run: the trajectory records every step, so the solver's
    # running maximum must equal the trajectory maximum bit for bit
    grid = cf.Grid(0.0, 1.0, 64)
    params = std_params(kappa=0.1, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    for traj, mon in on_both_engines(
            lambda: cf.run(s0, params, cf.SolverConfig(snapshot_stride=1))):
        assert mon.sup_abs_run == float(np.max(np.abs(traj.values)))
        assert mon.max_principle_ok == (mon.sup_abs_run <= mon.max_abs_s0 + 1e-10)
        assert float(np.max(mon.sup_abs)) == mon.sup_abs_run


def test_snapshot_rate_matches_difference_quotient():
    # backward difference of stride-1 snapshots over the step between them
    # equals the right-hand side the solver integrated (forward Euler
    # identity)
    grid = cf.Grid(0.0, 1.0, 64)
    params = std_params(kappa=0.15, t_end=0.005)
    s0 = cf.make_initial_profile("sine", 0.7, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_stride=1))
    k = 3
    dt = traj.times[k + 1] - traj.times[k]
    quotient = (traj.values[k + 1] - traj.values[k]) / dt
    st_from_series = mon.st_l2_sq[k + 1]
    direct = grid.dx * float(np.dot(quotient, quotient))
    assert st_from_series == pytest.approx(direct, rel=1e-12)


def test_weighted_sxx_l2_consistency(short_run):
    # || |S_x|_kappa S_xx || of every snapshot, node by node: the central
    # gradient's weight times the 3-point second difference, squared and
    # summed over the interior nodes
    grid, params, traj, mon = short_run
    dx, kappa = grid.dx, params.kappa
    for i, v in enumerate(traj.values.tolist()):
        total = 0.0
        for j in range(1, len(v) - 1):
            weight = math.hypot((v[j + 1] - v[j - 1]) / (2.0 * dx), kappa)
            sxx = (v[j + 1] - 2.0 * v[j] + v[j - 1]) / (dx * dx)
            total += (weight * sxx) ** 2
        assert mon.weighted_sxx_l2[i] == pytest.approx(math.sqrt(dx * total),
                                                       rel=1e-12), i


def test_monitor_finals_keys(short_run):
    _, _, _, mon = short_run
    finals = mon.finals()
    for key in cf.MonitorSeries.UNIFORMITY_KEYS:
        assert key in finals
        assert np.isfinite(finals[key])


# ---------------------------------------------------------------------------
# the batched monitor and coupling-stress pass against the per-snapshot
# formulas it replaced
# ---------------------------------------------------------------------------

class _PerSnapshotEmitter(solver._Emitter):
    """The run emitter with each recorded row's monitor columns and
    coupling stress T : epsbar computed on their own, one row at a time, by
    the per-snapshot formulas, from the rows the kernel recorded: the state
    and the coupling field.  The oracle for the pass ``_Emitter.finish``
    makes over all rows at once."""

    def finish(self):
        rows, dx, op = self.count, self.grid.dx, self.op
        columns = {name: [] for name in cf.MonitorSeries.COLUMNS}
        tdots = []
        for i in range(rows):
            # t and the monitor slots, in the layout of _chunk_loop.c's header
            t, dis, recip, p43, wsq, linf83, _, _, _, st_l2 = self.scalars[i]
            v = self.states[i]
            s_eff = v if self.seffs is None else self.seffs[i]
            sbar = trapezoid(s_eff, dx) / op.length
            tdots.append(op.alpha * s_eff - op.beta * sbar + self.corr.sig_dot_eps)
            g = np.diff(v) / dx
            w0 = smoothed_abs((v[2:] - v[:-2]) / (2.0 * dx), self.params.kappa)
            prod = w0 * second_differences(v, dx)
            with np.errstate(over="ignore", invalid="ignore"):
                gl2 = float(dx * np.dot(g, g))
                sxx = float(np.sqrt(dx * np.dot(prod, prod)))
                psi_vals = np.asarray(self.params.potential.psi(v), dtype=float)
            for name, value in (
                    ("t", t), ("sup_abs", float(np.max(np.abs(v)))),
                    ("grad_l2_sq", gl2), ("st_l2_sq", st_l2),
                    ("energy", 0.5 * self.params.nu * gl2 + trapezoid(psi_vals, dx)),
                    ("weighted_sxx_l2", sxx), ("dissipation_cum", dis),
                    ("reciprocal_cum", recip), ("p43_cum", p43),
                    ("grad_linf83_cum", linf83), ("grad_weight_sq_cum", wsq)):
                columns[name].append(value)
        acc = self.acc
        traj = cf.Trajectory(self.grid, columns["t"], self.states[:rows].copy(),
                             tdot_eps=np.vstack(tdots),
                             s_eff=None if self.seffs is None else self.seffs[:rows].copy())
        monitors = cf.MonitorSeries(
            kappa=acc.kappa, n_steps=acc.n_steps, sup_abs_run=acc.sup_abs_run,
            st_l2_sq_max=acc.st_l2_sq_max, max_abs_s0=acc.max_abs_s0,
            max_principle_ok=acc.sup_abs_run <= acc.max_abs_s0 + 1e-10,
            elasticity_residual=self.corr.residual,
            **{name: np.asarray(vals, dtype=float)
               for name, vals in columns.items()})
        return traj, monitors


def _run_with_oracle(run):
    """``run()`` with the batched pass, and again with the per-snapshot
    emitter."""
    got = run()
    with mock.patch.object(solver, "_Emitter", _PerSnapshotEmitter):
        want = run()
    return got, want


def _assert_same_bits(got, want):
    (t1, m1), (t2, m2) = got, want
    for name in ("times", "values", "tdot_eps", "s_eff"):
        a, b = getattr(t1, name), getattr(t2, name)
        assert (a is None) == (b is None), name
        if a is not None:
            assert np.array_equal(a, b, equal_nan=True), name
    for name in cf.MonitorSeries.COLUMNS:
        assert np.array_equal(getattr(m1, name), getattr(m2, name),
                              equal_nan=True), name
    for name in ("n_steps", "sup_abs_run", "st_l2_sq_max", "max_abs_s0",
                 "max_principle_ok", "elasticity_residual"):
        assert getattr(m1, name) == getattr(m2, name), name


@settings(max_examples=60)
@given(case=small_runs())
def test_batched_monitors_match_per_snapshot_oracle(case):
    # on the rows of the compiled loop, and on those of the numpy reference
    s0, params, cfg, b = case
    for engine in engines():
        with engine:
            _assert_same_bits(*_run_with_oracle(lambda: cf.run(s0, params, cfg, b=b)))


def test_batched_monitors_match_oracle_in_table_and_picard_runs(compiled_loop):
    grid = _grid(40)
    params = std_params(kappa=0.1, t_end=0.01)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    cfg = cf.SolverConfig(snapshot_interval=0.01 / 8)
    _assert_same_bits(*_run_with_oracle(
        lambda: cf.run(s0, params, replace(cfg, coupling="picard"))))
    b = np.tile([0.3, -0.2, 0.1], (grid.n_nodes, 1))
    _assert_same_bits(*_run_with_oracle(
        lambda: cf.run(s0, params, cfg, b=b)))


def test_diverging_run_records_inf_monitor_rows_quietly(compiled_loop):
    # forced steps far beyond the stability budget: the state grows by
    # dozens of orders of magnitude per step, and the run ends one step
    # before it overflows, with squares and quartics that do overflow
    grid = _grid(64)
    params = std_params(kappa=0.1, t_end=0.006)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    cfg = cf.SolverConfig(dt_override=0.001, snapshot_stride=1)
    got, want = _run_with_oracle(lambda: cf.run(s0, params, cfg))
    _assert_same_bits(got, want)
    traj, mon = got
    assert mon.n_steps == 6 and np.all(np.isfinite(traj.values))
    assert np.isinf(mon.energy[-1]) and np.isinf(mon.weighted_sxx_l2[-1])
    assert np.all(np.isfinite(mon.energy[:-1]))


def test_time_dependent_body_force_is_rejected_before_the_first_step():
    # the compiled loop holds one body-force correction per run, so a body
    # force given as a function of time is a ValueError that names it
    grid = _grid(32)
    params = std_params(kappa=0.1, t_end=0.004)
    s0 = cf.make_initial_profile("smoothed-step", 0.9, grid)
    shape = np.sin(np.pi * grid.x)[:, None] * np.array([1.0, 0.5, -0.25])

    def b(t):
        return (1.0 + 400.0 * t) * shape

    with pytest.raises(ValueError, match="^b: a body force that varies in time"):
        cf.run(s0, params, cf.SolverConfig(snapshot_stride=3), b=b)
    # its value at one time runs, as the nodal values it is
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_stride=3), b=b(0.0))
    op = cf.ElasticityOperator.from_params(grid, params)
    assert mon.elasticity_residual == cf.solve_correction(b(0.0), op).residual


# ---------------------------------------------------------------------------
# the stacked passes give each row the bits of the row alone
# ---------------------------------------------------------------------------

def _strided(rng, data, rows, cols):
    """A (rows, cols) matrix of random values, contiguous or a strided
    slice of a larger one."""
    rstep, cstep = data.draw(st.integers(1, 3)), data.draw(st.integers(1, 3))
    base = rng.standard_normal((rows * rstep + 1, cols * cstep + 1))
    return base[rstep - 1::rstep][:rows, cstep - 1::cstep][:, :cols]


@settings(max_examples=120)
@given(data=st.data())
def test_row_dots_match_per_row_dot(data):
    rows, cols = data.draw(st.integers(1, 300)), data.draw(st.integers(1, 700))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    a = _strided(rng, data, rows, cols)
    b = a if data.draw(st.booleans()) else _strided(rng, data, rows, cols)
    want = np.fromiter(map(np.dot, a, b), dtype=float, count=rows)
    assert np.array_equal(_row_dots(a, b), want)


@settings(max_examples=30)
@given(data=st.data())
def test_stacked_passes_match_at_any_block_size(data):
    # blocks of 1 row, of 7 rows and of the default size give the same bits
    grid = cf.Grid(0.0, 1.0, data.draw(st.integers(4, 400)))
    n, rows = grid.n_nodes, data.draw(st.integers(1, 120))
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    params = std_params(kappa=data.draw(st.floats(0.01, 1.0)))
    op = cf.ElasticityOperator.from_params(grid, params)
    states = rng.uniform(-1.5, 1.5, (rows, n))
    sig = rng.standard_normal(n)
    acc = cf.MonitorAccumulator(grid, params, states[0])

    def passes():
        return acc.snapshot(states), coupling_stress_rows(states, sig, op)

    want_cols, want_tdot = passes()
    for block in (1, 7):
        with pytest.MonkeyPatch.context() as m:
            m.setattr(model, "BLOCK_VALUES", block * n)
            assert model.block_rows(n) == block
            cols, tdot = passes()
        assert np.array_equal(tdot, want_tdot)
        for name, col in cols.items():
            assert np.array_equal(col, want_cols[name]), (block, name)
