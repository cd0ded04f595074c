"""Acceptance suite.

Standard suite: domain (0,1), t_end = 1, N = 200, c = nu = 1, isotropic
stiffness with both Lame constants 1, misfit strain diag(1,0,0), quartic
double well, smoothed-step initial data of amplitude 1, zero body force,
direct coupling, safety 0.4.  Each criterion prints one PASS line (reached
only when its assertions hold).
"""

import time

import numpy as np
import pytest

import cfphase as cf

from conftest import (composite_simpson, random_spd_tensor, random_sym_matrix, std_params,
                      ustar)
from oracles import (apply, assemble_stress, equilibrium_residual, first_column,
                     sqrt_flux_primitive, sym_diag, zero_field)

KAPPAS = (0.2, 0.1, 0.05, 0.025)


def _passed(name):
    print(f"[acceptance] {name}: PASS")


def _standard_run(kappa, n=200, snapshot_interval=1.0 / 1024):
    params = std_params(kappa=kappa, t_end=1.0)
    grid = cf.Grid(0.0, 1.0, n)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    config = cf.SolverConfig(cfl_safety=0.4, snapshot_interval=snapshot_interval)
    return cf.run(s0, params, config)


@pytest.fixture(scope="module")
def standard_suite(warm_engine):
    """The four standard-suite runs, executed once and timed."""
    t0 = time.perf_counter()
    runs = {kappa: _standard_run(kappa) for kappa in KAPPAS}
    elapsed = time.perf_counter() - t0
    return runs, elapsed


# ---------------------------------------------------------------------------
# 1. maximum principle
# ---------------------------------------------------------------------------

def test_maximum_principle(standard_suite):
    runs, elapsed = standard_suite
    for kappa, (traj, monitors) in runs.items():
        assert monitors.max_abs_s0 == pytest.approx(1.0, abs=1e-12)
        assert monitors.sup_abs_run <= monitors.max_abs_s0 + 1e-10, kappa
        assert monitors.max_principle_ok
    assert elapsed < 10.0, f"standard suite took {elapsed:.2f} s"
    _passed(f"maximum principle on 4 runs in {elapsed:.2f} s")


# ---------------------------------------------------------------------------
# 2. elasticity equilibrium
# ---------------------------------------------------------------------------

def test_elasticity_equilibrium_order():
    residuals = []
    for n in (100, 200, 400):
        grid = cf.Grid(0.0, 1.0, n)
        op = cf.ElasticityOperator.from_params(grid, std_params())
        b = np.zeros((grid.n_nodes, 3))
        b[:, 0] = np.sin(2.0 * np.pi * grid.x)
        corr = cf.solve_correction(b, op)
        s_eff = 0.4 * np.sin(np.pi * grid.x) + 0.2 * np.sin(2 * np.pi * grid.x)
        t_mandel, _ = assemble_stress(s_eff, b, op)
        residuals.append(equilibrium_residual(t_mandel, b, grid.dx))
        u = cf.assemble_displacement(s_eff, corr, op)
        assert np.max(np.abs(u[0])) <= 1e-12
        assert np.max(np.abs(u[-1])) <= 1e-12
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9, orders
    _passed(f"elasticity equilibrium orders {[f'{o:.3f}' for o in orders]}")


# ---------------------------------------------------------------------------
# 3. direction constants
# ---------------------------------------------------------------------------

def test_compute_ustar_exact_and_random():
    u, _ = ustar(cf.ElasticTensor.isotropic(1.0, 1.0), sym_diag(1.0, 1.0, 1.0))
    assert abs(u[0] - 5.0 / 3.0) <= 1e-12
    assert abs(u[1]) <= 1e-12 and abs(u[2]) <= 1e-12
    rng = np.random.default_rng(7)
    for _ in range(100):
        elastic = random_spd_tensor(rng)
        epsbar = random_sym_matrix(rng)
        _, eps_star = ustar(elastic, epsbar)
        gap = first_column(apply(elastic, eps_star - epsbar.entries))
        scale = max(1.0, float(np.max(np.abs(epsbar.entries))))
        assert np.max(np.abs(gap)) <= 1e-12 * scale
    _passed("u_star exact value and 100 random SPD postconditions")


# ---------------------------------------------------------------------------
# 4. flux primitive calculus
# ---------------------------------------------------------------------------

def test_flux_primitive_calculus():
    rng = np.random.default_rng(11)
    p = rng.uniform(-5.0, 5.0, 1000)
    h = 1e-5
    for kappa in (0.5, 0.1, 0.025):
        deriv = (cf.flux_primitive(p + h, kappa)
                 - cf.flux_primitive(p - h, kappa)) / (2.0 * h)
        target = cf.smoothed_abs(p, kappa)
        assert np.max(np.abs(deriv - target) / target) <= 1e-6
        gap = np.abs(cf.flux_primitive(p, kappa) - 0.5 * np.abs(p) * p)
        assert np.all(gap <= kappa * np.abs(p) + 1e-14)
    for p_val, kappa in ((1.0, 0.5), (0.7, 0.1), (-1.3, 0.25)):
        oracle = np.sign(p_val) * composite_simpson(
            lambda y: (kappa ** 2 + y * y) ** 0.25, 0.0, abs(p_val), 1_000_000)
        assert sqrt_flux_primitive(p_val, kappa) == pytest.approx(oracle, abs=1e-10)
    _passed("flux primitive derivative, bound, and quadrature oracle")


# ---------------------------------------------------------------------------
# 5. manufactured-solution order
# ---------------------------------------------------------------------------

def test_manufactured_solution_order():
    params = std_params(kappa=0.1, t_end=0.08)
    t0 = time.perf_counter()
    report = cf.manufactured_run(params, grid_sizes=(100, 200, 400))
    elapsed = time.perf_counter() - t0
    assert min(report.orders) >= 0.9, report.orders
    assert elapsed < 60.0, f"manufactured runs took {elapsed:.1f} s"
    _passed(f"manufactured orders {[f'{o:.3f}' for o in report.orders]} "
            f"in {elapsed:.1f} s")


# ---------------------------------------------------------------------------
# 6. kappa-uniform estimates
# ---------------------------------------------------------------------------

def test_kappa_uniform_estimates(standard_suite):
    runs, _ = standard_suite
    finals = {kappa: monitors.finals() for kappa, (_, monitors) in runs.items()}
    ratios = {}
    for key in cf.MonitorSeries.UNIFORMITY_KEYS:
        vals = np.array([finals[k][key] for k in KAPPAS])
        ratios[key] = float(vals.max() / vals.min())
        assert ratios[key] <= 2.0, (key, ratios[key])
    _passed("kappa-uniform monitors, ratios "
            + ", ".join(f"{k}={v:.3f}" for k, v in ratios.items()))


# ---------------------------------------------------------------------------
# 7. compactness Cauchy behavior
# ---------------------------------------------------------------------------

def test_compactness_cauchy_decrease(standard_suite):
    runs, _ = standard_suite
    trajs = [runs[k][0] for k in KAPPAS]
    dists = [cf.compactness_distance(trajs[i], trajs[i + 1])
             for i in range(len(trajs) - 1)]
    assert all(d > 0.0 for d in dists)
    # the order per halving of kappa is at least 1: each distance is at most
    # half the one before, so those after any distance sum to at most it
    orders = [float(np.log2(dists[i] / dists[i + 1])) for i in range(len(dists) - 1)]
    assert min(orders) >= 1.0, (dists, orders)
    _passed("compactness distances "
            + ", ".join(f"{d:.3e}" for d in dists)
            + ", orders per halving of kappa " + ", ".join(f"{o:.2f}" for o in orders))


def _short_run(kappa, n):
    params = std_params(kappa=kappa, t_end=0.02)
    grid = cf.Grid(0.0, 1.0, n)
    s0 = cf.make_initial_profile("smoothed-step", 1.0, grid)
    return cf.run(s0, params, cf.SolverConfig(snapshot_interval=1.0 / 1024))[0]


def test_sweep_distances_exceed_the_grid_error():
    # a kappa-distance of S below the grid error would say nothing about
    # kappa; the grid error is that of the N = 100 run at the finest kappa
    # against the N = 200 run restricted to its nodes
    kappas = (0.1, 0.05, 0.025, 0.0125)
    trajs = [_short_run(kappa, 100) for kappa in kappas]
    dists = [cf.trajectory_l2_distance(a, b) for a, b in zip(trajs, trajs[1:])]
    fine = _short_run(kappas[-1], 200)
    grid_error = cf.trajectory_l2_distance(
        trajs[-1], cf.Trajectory(trajs[-1].grid, fine.times, fine.values[:, ::2]))
    ratios = [d / grid_error for d in dists]
    assert min(ratios) > 1.0, (dists, grid_error)
    _passed("S_kappa converges in L2(Q) as kappa -> 0; the kappa-distances "
            + ", ".join(f"{d:.3e}" for d in dists)
            + f" at N = 100 resolve it, at {', '.join(f'{r:.1f}' for r in ratios)}"
            f" times the grid error {grid_error:.3e} at kappa = {kappas[-1]}")


# ---------------------------------------------------------------------------
# 8. weak-form residual
# ---------------------------------------------------------------------------

def test_weak_residual_refinement(standard_suite):
    # zero trajectory: the residual vanishes exactly
    grid = cf.Grid(0.0, 1.0, 64)
    params0 = std_params(kappa=0.05, t_end=0.25)
    ztraj, _ = cf.run(zero_field(grid), params0,
                      cf.SolverConfig(snapshot_interval=0.25 / 32))
    assert np.all(cf.weak_residual_family(ztraj, params0) == 0.0)

    # refinement N = 100 -> 200 at fixed kappa = 0.05, snapshot cadence
    # refined with the grid (interval ~ dx^2, matching the solver dt scaling);
    # the kappa-consistent weak form is the one the refinement drives to zero
    # (the plain form saturates at the kappa bias; reported for visibility)
    params = std_params(kappa=0.05, t_end=1.0)
    levels = {}
    plain = {}
    for n, interval in ((100, 1.0 / 1024), (200, 1.0 / 4096)):
        g = cf.Grid(0.0, 1.0, n)
        s0 = cf.make_initial_profile("smoothed-step", 1.0, g)
        traj, _ = cf.run(s0, params, cf.SolverConfig(snapshot_interval=interval))
        levels[n] = np.abs(cf.weak_residual_family(traj, params,
                                                   kappa_weighted=True))
        plain[n] = np.abs(cf.weak_residual_family(traj, params))
    r_coarse, r_fine = levels[100], levels[200]
    floor = 1e-12
    for j in range(15):
        converged = max(r_coarse[j], r_fine[j]) <= floor
        assert converged or r_fine[j] < r_coarse[j], (j, r_coarse[j], r_fine[j])
    # the maximum over the family falls at least 8-fold from N = 100 to 200
    # (the cadence refined 4-fold with it), not merely by some amount
    ratio = float(r_coarse.max() / r_fine.max())
    assert ratio >= 8.0, (r_coarse.max(), r_fine.max())
    print("  plain-form residual max (kappa bias): "
          f"N=100: {plain[100].max():.3e}, N=200: {plain[200].max():.3e}")
    _passed(f"weak residual max {r_coarse.max():.3e} -> {r_fine.max():.3e}, "
            f"x{ratio:.1f}")


# ---------------------------------------------------------------------------
# 9. determinism and invariant suites
# ---------------------------------------------------------------------------

def test_determinism_and_invariants(tmp_path, warm_engine):
    # reflection equivariance on an asymmetric profile
    grid = cf.Grid(0.0, 1.0, 100)
    params = std_params(kappa=0.1, t_end=0.25)
    vals = np.sin(np.pi * grid.x) ** 2 * (0.3 + 0.7 * grid.x)
    vals[0] = vals[-1] = 0.0
    cfg = cf.SolverConfig(snapshot_interval=0.25 / 128)
    t1, _ = cf.run(cf.ScalarField(grid, vals), params, cfg)
    t2, _ = cf.run(cf.ScalarField(grid, vals[::-1].copy()), params, cfg)
    reflection_gap = float(np.max(np.abs(t1.values - t2.values[:, ::-1])))
    assert reflection_gap <= 1e-10

    # zero-state equilibrium is exact
    zgrid = cf.Grid(0.0, 1.0, 200)
    ztraj, zmon = cf.run(zero_field(zgrid), std_params(kappa=0.1, t_end=0.05),
                         cf.SolverConfig(snapshot_interval=0.05 / 16))
    assert np.all(ztraj.values == 0.0)
    assert zmon.sup_abs_run == 0.0

    # byte-identical CLI reruns
    from cfphase.cli import main
    cfg_path = tmp_path / "det.cfg"
    cfg_path.write_text("n = 64\nt_end = 0.05\nkappa = 0.1\n"
                        f"output_dir = {tmp_path / 'r1'}\n", encoding="utf-8")
    assert main(["run", str(cfg_path)]) == 0
    assert main(["run", str(cfg_path), "--output", str(tmp_path / "r2")]) == 0
    for name in ("snapshots.csv", "monitors.csv", "meta.json"):
        assert ((tmp_path / "r1" / name).read_bytes()
                == (tmp_path / "r2" / name).read_bytes()), name
    _passed(f"determinism: reflection gap {reflection_gap:.2e}, exact zero "
            "equilibrium, byte-identical reruns")


# ---------------------------------------------------------------------------
# 10. the monitors tell H^2 data from H^1 data
# ---------------------------------------------------------------------------

def _kinked_profile(grid):
    """The piecewise-linear analogue of the standard smoothed step: kinks
    at 0.05, 0.35, 0.65 and 0.95, so it is in H^1 but not in H^2."""
    return cf.ScalarField(grid, np.interp(grid.x, [0.0, 0.05, 0.35, 0.65, 0.95, 1.0],
                                          [0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))


def test_monitors_tell_h2_from_h1_data(warm_engine):
    # an H^2-level monitor stays bounded under refinement on H^2 data and
    # grows on H^1 data; the H^1-level dissipation settles on both
    profiles = {"H2": lambda g: cf.make_initial_profile("smoothed-step", 1.0, g),
                "H1": _kinked_profile}
    config = cf.SolverConfig(snapshot_interval=1.0 / 1024)
    report = []
    for kappa in (0.1, 0.025):
        params = std_params(kappa=kappa, t_end=0.02)
        for data, profile in profiles.items():
            rows = []  # per N: max st_l2_sq, max weighted_sxx_l2, and the cumulatives
            for n in (50, 100, 200):
                _, mon = cf.run(profile(cf.Grid(0.0, 1.0, n)), params, config)
                rows.append([np.max(mon.st_l2_sq), np.max(mon.weighted_sxx_l2),
                             mon.dissipation_cum[-1], mon.reciprocal_cum[-1]])
            ratios = np.array(rows[1:]) / np.array(rows[:-1])  # per halving of dx
            if data == "H2":
                assert np.all(np.abs(ratios[1, :2] - 1.0) <= 0.05), (kappa, ratios)
            else:
                assert np.all(ratios[:, 0] >= 1.8), (kappa, ratios)
                assert np.all(ratios[:, 1] >= 1.3), (kappa, ratios)
            assert abs(ratios[1, 2] - 1.0) <= 0.05, (kappa, data, ratios)
            exponents = np.log2(ratios[1])
            report.append(f"{data} kappa={kappa}: st {exponents[0]:.3f}, "
                          f"wsxx {exponents[1]:.3f}, dissipation {exponents[2]:.3f}, "
                          f"reciprocal {exponents[3]:.3f}")
    _passed("H2 monitors settle and H1 monitors grow, exponents N=100->200: "
            + "; ".join(report))
