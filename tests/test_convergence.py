"""Convergence diagnostics: weak-form residuals, compactness distances,
manufactured-solution orders, and regularization sweeps."""

import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, strategies as st

import cfphase as cf
from cfphase.convergence import _TestPieces, manufactured_source, reaction_factor_gap
from cfphase.model import _resampled_pair, flux_primitive, time_integral, trapezoid

from conftest import off_default_params, std_params
from oracles import (SineMode, flux_distance, phi_dt, phi_dx, phi_value, sample,
                     zero_field)


def _weak_residual(traj, params, phi, kappa_weighted=False):
    """The weak-form residual against one test function: the family's
    pairing, given the pieces of that one function."""
    pieces = _TestPieces(traj.grid, traj.times, traj.initial, [phi])
    return cf.weak_residual_family(traj, params, pieces, kappa_weighted)[0]


def _small_run(kappa=0.1, n=64, t_end=0.1, amplitude=0.9):
    grid = cf.Grid(0.0, 1.0, n)
    params = std_params(kappa=kappa, t_end=t_end)
    s0 = cf.make_initial_profile("smoothed-step", amplitude, grid)
    traj, mon = cf.run(s0, params, cf.SolverConfig(snapshot_interval=t_end / 64))
    return grid, params, s0, traj, mon


# ---------------------------------------------------------------------------
# test functions
# ---------------------------------------------------------------------------

def test_family_size_and_boundary_values():
    grid = cf.Grid(0.0, 1.0, 32)
    family = cf.test_function_family(grid, t_end=1.0)
    assert len(family) == 15
    for phi in family:
        assert phi_value(phi, 1.0, grid.x[5]) == 0.0      # vanishes at t_end
        assert phi_value(phi, 0.3, grid.a) == 0.0         # spatial boundary
        assert phi_value(phi, 0.3, grid.d) == 0.0
        assert phi_value(phi, 0.0, grid.x[5]) != 0.0      # pairs with S0


def test_weak_residual_needs_the_stress_series():
    grid = cf.Grid(0.0, 1.0, 8)
    traj = cf.Trajectory(grid, np.array([0.0, 0.1]), np.zeros((2, grid.n_nodes)))
    with pytest.raises(ValueError, match="no stress series"):
        cf.weak_residual_family(traj, std_params(t_end=0.1))


def test_weak_residual_zero_trajectory_exact():
    grid = cf.Grid(0.0, 1.0, 48)
    params = std_params(kappa=0.1, t_end=0.05)
    traj, _ = cf.run(zero_field(grid), params,
                     cf.SolverConfig(snapshot_interval=0.05 / 16))
    for kw in (False, True):
        res = cf.weak_residual_family(traj, params, kappa_weighted=kw)
        assert np.all(res == 0.0)


@pytest.mark.parametrize("kappa_weighted", [False, True])
def test_weak_residual_family_matches_one_function_at_a_time(kappa_weighted):
    # the family shares each function's time factors with every other
    # function that has the same ones; a mixed family with repeats gives
    # the bits of pairing each function alone
    grid, params, s0, traj, _ = _small_run()
    t_end = traj.t_end
    family = [cf.TestFunction(m, n, a, d, te) for m, n, a, d, te in [
        (1, 1, 0.0, 1.0, t_end), (2, 3, 0.0, 1.0, t_end),
        (2, 3, 0.0, 1.0, 2.0 * t_end), (2, 3, 0.1, 1.0, t_end),
        (2, 3, 0.0, 0.8, t_end), (4, 3, 0.0, 1.0, t_end),
        (3, 2, 0.25, 0.75, 1.5 * t_end), (1, 1, 0.0, 1.0, t_end),
        (4, 5, 0.0, 1.0, 2.0 * t_end), (2, 3, 0.0, 1.0, t_end)]]
    got = cf.weak_residual_family(traj, params, family,
                                  kappa_weighted=kappa_weighted)
    want = np.array([_weak_residual(traj, params, phi, kappa_weighted)
                     for phi in family])
    assert np.array_equal(got, want)


def _per_snapshot_weak_residual(traj, tdot_series, s0, params, phi,
                                kappa_weighted=False):
    """The weak-form residual pairing one snapshot at a time (oracle)."""
    tdot_series = np.asarray(tdot_series, dtype=float)
    if tdot_series.shape != traj.values.shape:
        raise ValueError("stress series and trajectory must share time stamps")
    grid = traj.grid
    dx = grid.dx
    x = grid.x
    xmid = 0.5 * (x[1:] + x[:-1])
    times = traj.times
    c, nu, kap = params.c, params.nu, params.kappa

    spatial = np.empty(times.size)
    phi_norms = np.empty(times.size)
    for i, t in enumerate(times):
        s_row = traj.values[i]
        term_a = trapezoid(s_row * phi_dt(phi, t, x), dx)
        g = np.diff(s_row) / dx
        if kappa_weighted:
            flux = flux_primitive(g, kap)
        else:
            flux = 0.5 * np.abs(g) * g
        term_b = -c * nu * dx * float(np.sum(flux * phi_dx(phi, t, xmid)))
        grad_node = np.zeros_like(s_row)
        grad_node[1:-1] = (s_row[2:] - s_row[:-2]) / (2.0 * dx)
        if kappa_weighted:
            weight = np.hypot(grad_node, kap) - kap
        else:
            weight = np.abs(grad_node)
        reac = (tdot_series[i] - np.asarray(params.potential.psi_prime(s_row), dtype=float))
        term_c = c * trapezoid(reac * weight * phi_value(phi, t, x), dx)
        spatial[i] = term_a + term_b + term_c
        phi_norms[i] = math.sqrt(max(trapezoid(phi_value(phi, t, x) ** 2, dx), 0.0))

    r = time_integral(spatial, times)
    r += trapezoid(s0.values * phi_value(phi, 0.0, x), dx)
    denom = time_integral(phi_norms, times)
    return r / denom if denom > 0.0 else r


@given(n=st.integers(min_value=4, max_value=64),
       gaps=st.lists(st.floats(min_value=1e-4, max_value=1.0), min_size=0,
                     max_size=39),
       seed=st.integers(min_value=0, max_value=2 ** 32 - 1),
       kappa=st.sampled_from([0.025, 0.1, 0.2]),
       kappa_weighted=st.booleans(),
       c=st.sampled_from([1.0, 0.7, 3.1]),
       nu=st.sampled_from([1.0, 0.3]))
def test_weak_residual_matches_per_snapshot_oracle(n, gaps, seed, kappa,
                                                    kappa_weighted, c, nu):
    grid = cf.Grid(0.0, 1.0, n)
    params = std_params(kappa=kappa, c=c, nu=nu)
    times = np.concatenate([[0.0], np.cumsum(gaps) * 0.01])
    rng = np.random.default_rng(seed)
    values = rng.uniform(-1.0, 1.0, (times.size, grid.n_nodes))
    tdot = rng.uniform(-2.0, 2.0, values.shape)
    traj = cf.Trajectory(grid, times, values, tdot_eps=tdot)
    family = cf.test_function_family(grid, traj.t_end if times.size > 1 else 1.0)
    got = cf.weak_residual_family(traj, params, family,
                                  kappa_weighted=kappa_weighted)
    want = np.array([_per_snapshot_weak_residual(
        traj, tdot, traj.initial, params, phi, kappa_weighted=kappa_weighted)
        for phi in family])
    assert np.array_equal(got, want)


@pytest.mark.parametrize("kappa_weighted", [False, True])
@pytest.mark.parametrize("n, snapshots, m_max, n_max, pass_sizes", [
    (200, 257, 3, 5, [1] * 15),  # rows above numpy's 128-value pairwise block
    (150, 33, 1, 7, [3, 3, 1]),  # a last pass that the family does not fill
])
def test_stacked_passes_match_per_snapshot_oracle(n, snapshots, m_max, n_max,
                                                  pass_sizes, kappa_weighted):
    grid = cf.Grid(0.0, 1.0, n)
    params = std_params(kappa=0.1)
    rng = np.random.default_rng(n)
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(1e-4, 1e-3, snapshots - 1))])
    values = rng.uniform(-1.0, 1.0, (snapshots, grid.n_nodes))
    tdot = rng.uniform(-2.0, 2.0, values.shape)
    traj = cf.Trajectory(grid, times, values, tdot_eps=tdot)
    family = cf.test_function_family(grid, traj.t_end, m_max=m_max, n_max=n_max)
    passes = _TestPieces(grid, times, traj.initial, family).passes
    assert [len(family[part]) for part in passes] == pass_sizes
    got = cf.weak_residual_family(traj, params, family, kappa_weighted=kappa_weighted)
    want = np.array([_per_snapshot_weak_residual(
        traj, tdot, traj.initial, params, phi, kappa_weighted=kappa_weighted)
        for phi in family])
    assert np.array_equal(got, want)


def test_weak_residual_mismatched_series_rejected():
    # the stress series a weak residual pairs is checked when the
    # trajectory that carries it is built
    grid, params, s0, traj, _ = _small_run()
    for tdot in (traj.tdot_eps[:-1], traj.tdot_eps[0]):
        with pytest.raises(ValueError, match="time stamps"):
            cf.Trajectory(grid, traj.times, traj.values, tdot_eps=tdot)


def test_flux_pairing_consistent_with_integration_by_parts():
    # cell-midpoint pairing of the flux against analytic phi_x versus the
    # exact discrete summation-by-parts dual; the gap shrinks like dx^2
    params = std_params(kappa=0.1)
    phi = cf.TestFunction(1, 2, 0.0, 1.0, 1.0)
    gaps = []
    for n in (64, 128):
        grid = cf.Grid(0.0, 1.0, n)
        v = 0.3 * np.sin(2 * np.pi * grid.x) + 0.1 * np.sin(3 * np.pi * grid.x)
        g = np.diff(v) / grid.dx
        flux = 0.5 * np.abs(g) * g
        xmid = 0.5 * (grid.x[1:] + grid.x[:-1])
        cell_form = grid.dx * np.sum(flux * phi_dx(phi, 0.0, xmid))
        # summation by parts: sum_cells G*(phi_{i+1}-phi_i) = -sum_nodes D-(G)*phi
        phi_nodes = phi_value(phi, 0.0, grid.x)
        dual_form = np.sum(flux * np.diff(phi_nodes))
        gaps.append(abs(cell_form - dual_form))
    assert gaps[1] < gaps[0] / 3.0


# ---------------------------------------------------------------------------
# compactness distances
# ---------------------------------------------------------------------------

def test_compactness_distance_identical_zero():
    _, _, _, traj, _ = _small_run()
    assert cf.compactness_distance(traj, traj) == 0.0


def test_compactness_distance_pseudometric():
    trajs = [
        _small_run(kappa=k)[3] for k in (0.2, 0.1, 0.05)
    ]
    d01 = cf.compactness_distance(trajs[0], trajs[1])
    d10 = cf.compactness_distance(trajs[1], trajs[0])
    d12 = cf.compactness_distance(trajs[1], trajs[2])
    d02 = cf.compactness_distance(trajs[0], trajs[2])
    assert d01 == pytest.approx(d10, abs=1e-12)
    assert d02 <= d01 + d12 + 1e-12


def test_compactness_distance_constant_gradient_closed_form():
    grid = cf.Grid(0.0, 1.0, 32)
    t_end = 0.5
    times = np.array([0.0, t_end])

    def ramp_traj(g):
        row = g * (grid.x - grid.a)
        return cf.Trajectory(grid, times, np.vstack([row, row]))

    ga, gb = 1.3, 0.4
    dist = cf.compactness_distance(ramp_traj(ga), ramp_traj(gb))
    expected = np.sqrt(t_end * 1.0) * abs(
        (2.0 / 3.0) * (ga ** 1.5 - gb ** 1.5))
    assert dist == pytest.approx(expected, rel=1e-10)


def test_compactness_distance_incompatible_grids():
    t1 = _small_run(n=64)[3]
    t2 = _small_run(n=48)[3]
    with pytest.raises(ValueError, match="grids"):
        cf.compactness_distance(t1, t2)


def test_trajectory_l2_distance_zero_and_symmetry():
    t1 = _small_run(kappa=0.2)[3]
    t2 = _small_run(kappa=0.1)[3]
    assert cf.trajectory_l2_distance(t1, t1) == 0.0
    assert cf.trajectory_l2_distance(t1, t2) == pytest.approx(
        cf.trajectory_l2_distance(t2, t1), abs=1e-14)


def test_resampled_pair_matches_pointwise_sample():
    grid = cf.Grid(0.0, 1.0, 16)
    rng = np.random.default_rng(11)
    stamps = np.concatenate([[0.0], np.cumsum(rng.uniform(0.01, 0.1, 9))])
    traj_a = cf.Trajectory(grid, stamps,
                           rng.standard_normal((stamps.size, grid.n_nodes)))
    traj_b = cf.Trajectory(grid, stamps[:5],
                           rng.standard_normal((5, grid.n_nodes)))
    single = cf.Trajectory(grid, [0.0], rng.standard_normal((1, grid.n_nodes)))
    # before, at and after both ends, exactly at every snapshot instant, and
    # between snapshots
    probes = np.concatenate([[-0.5, stamps[-1] + 0.3], stamps,
                             0.5 * (stamps[1:] + stamps[:-1]),
                             rng.uniform(-0.1, stamps[-1] + 0.1, 40)])
    for traj in (traj_a, traj_b, single):
        want = np.vstack([sample(traj, float(t)) for t in probes])
        assert np.array_equal(traj.resample(probes), want)
    for pair in ((traj_a, traj_b), (traj_b, traj_a), (traj_a, traj_a)):
        times, ra, rb = _resampled_pair(*pair)
        assert times.size == 513 and times[-1] == min(t.t_end for t in pair)
        assert np.array_equal(ra, np.vstack([sample(pair[0], float(t)) for t in times]))
        assert np.array_equal(rb, np.vstack([sample(pair[1], float(t)) for t in times]))


# ---------------------------------------------------------------------------
# manufactured solutions
# ---------------------------------------------------------------------------

def test_manufactured_run_small_order():
    params = std_params(kappa=0.2, t_end=0.04)
    report = cf.manufactured_run(params, grid_sizes=(50, 100))
    assert len(report.errors) == 2
    assert report.orders[0] >= 0.9
    print("small MMS orders:", report.orders)


def test_manufactured_source_matches_fresh_formulas():
    exact = SineMode(0.0, 1.0)
    source = manufactured_source(exact)
    coarse, fine = cf.Grid(0.0, 1.0, 25), cf.Grid(0.0, 1.0, 50)
    # one source under two runs' constants; revisit the coarse grid after
    # the fine one and repeat a time
    for params in (std_params(kappa=0.1), off_default_params()):
        kap, c, nu = params.kappa, params.c, params.nu
        for grid, t in [(coarse, 0.0), (coarse, 0.013), (fine, 0.013),
                        (coarse, 0.04), (coarse, 0.04)]:
            op = cf.ElasticityOperator.from_params(grid, params)
            x = grid.x
            s, sx = exact.value(t, x), exact.dx(t, x)
            w = np.hypot(sx, kap)
            tdot = op.alpha * s - op.beta * exact.mean(t)
            psi_p = np.asarray(params.potential.psi_prime(s), dtype=float)
            fresh = (exact.dt(t, x) - c * nu * w * exact.dxx(t, x)
                     - c * (tdot - psi_p) * (w - kap))
            assert np.array_equal(source(t, grid, params, op), fresh)


def test_manufactured_error_matches_per_snapshot_loop(monkeypatch):
    import cfphase.convergence as convergence

    trajs = []
    real_run = convergence.run

    def recording_run(*args, **kwargs):
        traj, monitors = real_run(*args, **kwargs)
        trajs.append(traj)
        return traj, monitors

    monkeypatch.setattr(convergence, "run", recording_run)
    params = std_params(kappa=0.2, t_end=0.02)
    exact = cf.ManufacturedSolution(params.a, params.d)
    report = cf.manufactured_run(params, grid_sizes=(25, 50))
    for traj, err in zip(trajs, report.errors):
        x, dx = traj.grid.x, traj.grid.dx
        per_t = np.array([trapezoid((traj.values[i] - exact.value(t, x)) ** 2, dx)
                          for i, t in enumerate(traj.times)])
        assert err == math.sqrt(max(time_integral(per_t, traj.times), 0.0))


@pytest.mark.parametrize("grids, doubling_read, order", [
    ((25, 100), 3.985, 1.993),  # two doublings
    ((30, 45), 1.409, 2.409),   # refined by 1.5
])
def test_manufactured_order_divides_by_the_refinement_ratio(grids, doubling_read, order):
    # p = ln(e1 / e2) / ln(r) with r = n2 / n1; log2(e1 / e2) alone, the
    # order of a doubling, read these refinements as doubling_read
    params = std_params(kappa=0.1, t_end=0.02)
    report = cf.manufactured_run(params, grid_sizes=grids)
    e1, e2 = report.errors
    assert report.orders == [math.log2(e1 / e2) / math.log2(grids[1] / grids[0])]
    assert math.log2(e1 / e2) == pytest.approx(doubling_read, abs=1e-3)
    assert report.orders[0] == pytest.approx(order, abs=1e-3)


def test_manufactured_order_of_a_doubling_keeps_its_bits():
    # log2(2.0) is 1.0, so a doubling's order is log2(e1 / e2) exactly
    params = std_params(kappa=0.1, t_end=0.02)
    report = cf.manufactured_run(params, grid_sizes=(25, 50, 100))
    e = report.errors
    assert report.orders == [math.log2(e[0] / e[1]), math.log2(e[1] / e[2])]


def test_manufactured_report_deterministic():
    params = std_params(kappa=0.2, t_end=0.02)
    r1 = cf.manufactured_run(params, grid_sizes=(32, 64))
    r2 = cf.manufactured_run(params, grid_sizes=(32, 64))
    assert r1.errors == r2.errors
    assert r1.orders == r2.orders


# ---------------------------------------------------------------------------
# sweeps
# ---------------------------------------------------------------------------

def _flux_distances(report):
    """The signed-flux distances between consecutive kappas whose runs both
    succeeded."""
    return [e.flux_dist_to_next for e in report.entries
            if e.flux_dist_to_next is not None]


def _sweep_setup():
    grid = cf.Grid(0.0, 1.0, 64)
    params = std_params(kappa=0.2, t_end=0.15)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    config = cf.SolverConfig(snapshot_interval=0.15 / 64)
    return grid, params, s0, config


def test_sweep_validation():
    _, params, s0, config = _sweep_setup()
    with pytest.raises(ValueError, match="decreasing"):
        cf.kappa_sweep(s0, params, [0.1, 0.2], config)
    with pytest.raises(ValueError, match="0, 1"):
        cf.kappa_sweep(s0, params, [1.5, 0.2], config)
    with pytest.raises(ValueError, match="kappa\\^2 is a normal double"):
        cf.kappa_sweep(s0, params, [0.2, 1e-170], config)


def test_sweep_single_kappa_degenerates():
    _, params, s0, config = _sweep_setup()
    report = cf.kappa_sweep(s0, params, [0.2], config)
    assert report.all_ok
    assert len(report.entries) == 1
    assert report.compactness_distances == []
    assert report.entries[0].monitors is not None


def test_sweep_standard_small():
    _, params, s0, config = _sweep_setup()
    report = cf.kappa_sweep(s0, params, [0.2, 0.1, 0.05], config)
    assert report.all_ok
    assert len(report.compactness_distances) == 2
    assert all(d >= 0.0 for d in report.compactness_distances)
    assert all(d >= 0.0 for d in _flux_distances(report))
    for entry in report.entries:
        assert entry.reaction_gap <= entry.reaction_gap_bound
        assert entry.weak_residuals.shape == (15,)
    assert set(report.uniformity) == set(cf.MonitorSeries.UNIFORMITY_KEYS)


def test_sweep_deterministic():
    _, params, s0, config = _sweep_setup()
    r1 = cf.kappa_sweep(s0, params, [0.2, 0.1], config)
    r2 = cf.kappa_sweep(s0, params, [0.2, 0.1], config)
    assert r1.compactness_distances == r2.compactness_distances
    assert _flux_distances(r1) == _flux_distances(r2)
    for e1, e2 in zip(r1.entries, r2.entries):
        assert e1.monitors.finals() == e2.monitors.finals()
        assert np.array_equal(e1.weak_residuals, e2.weak_residuals)


def _sweep_with_first_run_cut(monkeypatch):
    """A sweep over 0.2, 0.1 and 0.05 whose kappa = 0.2 run stops halfway,
    and the trajectory each run returned, by kappa."""
    import cfphase.convergence as convergence

    trajs = {}
    real_run = convergence.run

    def run_and_cut(s0, params, config, b=None):
        traj, monitors = real_run(s0, params, config, b=b)
        if params.kappa == 0.2:
            keep = traj.times.size // 2
            traj = cf.Trajectory(traj.grid, traj.times[:keep],
                                 traj.values[:keep],
                                 tdot_eps=traj.tdot_eps[:keep])
        trajs[params.kappa] = traj
        return traj, monitors

    monkeypatch.setattr(convergence, "run", run_and_cut)
    _, params, s0, config = _sweep_setup()
    report = cf.kappa_sweep(s0, params, [0.2, 0.1, 0.05], config)
    assert report.all_ok
    return params, report, trajs


def test_sweep_distances_when_end_times_differ(monkeypatch):
    # the first run stops early, so its pair resamples on a shorter time
    # grid than the next pair, which must not reuse those rows
    _, report, trajs = _sweep_with_first_run_cut(monkeypatch)
    for entry, kb in zip(report.entries, (0.1, 0.05)):
        pair = trajs[entry.kappa], trajs[kb]
        assert entry.compactness_dist_to_next == cf.compactness_distance(*pair)
        assert entry.flux_dist_to_next == flux_distance(*pair)


def test_sweep_weak_residuals_when_end_times_differ(monkeypatch):
    # the test family's factors built on the first run's shorter times must
    # be rebuilt for the next run, not paired with its longer ones
    params, report, trajs = _sweep_with_first_run_cut(monkeypatch)
    assert trajs[0.2].times.size < trajs[0.1].times.size
    for entry in report.entries:
        p = replace(params, kappa=entry.kappa)
        assert np.array_equal(entry.weak_residuals,
                              cf.weak_residual_family(trajs[entry.kappa], p))


def test_sweep_isolates_failures():
    _, params, s0, _ = _sweep_setup()
    config = cf.SolverConfig(max_steps=5, snapshot_interval=0.15 / 8)
    report = cf.kappa_sweep(s0, params, [0.2, 0.1], config)
    assert not report.all_ok
    assert all(not e.ok for e in report.entries)
    assert all(e.error for e in report.entries)
    assert report.compactness_distances == []


class _Escape(BaseException):
    """Not an ``Exception``: a run's own error handling lets it through."""


def _patch_run_to_fail(monkeypatch, fail_kappas, make_exc):
    """Make the sweep's runs raise ``make_exc(kappa)`` at ``fail_kappas``."""
    import cfphase.convergence as convergence

    real_run = convergence.run

    def run(s0, params, config, b=None):
        if params.kappa in fail_kappas:
            raise make_exc(params.kappa)
        return real_run(s0, params, config, b=b)

    monkeypatch.setattr(convergence, "run", run)


@pytest.mark.parametrize("fail_kappas", [(), (0.1,)])
def test_sweep_matches_per_kappa_oracle(monkeypatch, fail_kappas):
    _patch_run_to_fail(monkeypatch, fail_kappas,
                       lambda k: RuntimeError(f"run at {k} failed"))
    _, params, s0, config = _sweep_setup()
    kappas = [0.2, 0.1, 0.05]
    report = cf.kappa_sweep(s0, params, kappas, config)
    assert [e.kappa for e in report.entries] == kappas
    for entry in report.entries:
        if entry.kappa in fail_kappas:
            assert not entry.ok
            assert entry.error == f"run at {entry.kappa} failed"
            continue
        p = replace(params, kappa=entry.kappa)
        traj, monitors = cf.run(s0, p, config)
        assert entry.ok
        for name in ("times", "values", "tdot_eps"):
            assert np.array_equal(getattr(entry.trajectory, name),
                                  getattr(traj, name)), name
        for name in cf.MonitorSeries.COLUMNS:
            assert np.array_equal(getattr(entry.monitors, name),
                                  getattr(monitors, name)), name
        assert entry.monitors.finals() == monitors.finals()
        assert np.array_equal(entry.weak_residuals,
                              cf.weak_residual_family(traj, p))


@pytest.mark.parametrize("fail_kappas", [(0.1,), (0.1, 0.05)])
def test_sweep_reraises_what_escapes_a_run(monkeypatch, fail_kappas):
    # with several, the first kappa's is raised
    _patch_run_to_fail(monkeypatch, fail_kappas, _Escape)
    _, params, s0, config = _sweep_setup()
    with pytest.raises(_Escape) as info:
        cf.kappa_sweep(s0, params, [0.2, 0.1, 0.05], config)
    assert info.value.args == (fail_kappas[0],)


def test_reaction_gap_pointwise_bound(rng):
    _, params, s0, config = _sweep_setup()
    traj, _ = cf.run(s0, params, config)
    gap, bound = reaction_factor_gap(traj, params.kappa)
    assert 0.0 <= gap <= bound

