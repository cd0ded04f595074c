"""Core model quantities: smoothed absolute value, flux primitives, the
double-well potential, free energy, and the basic containers."""

import numpy as np
import pytest

import cfphase as cf
from cfphase.quadrature import QuadratureError, adaptive_simpson

from conftest import composite_simpson, random_spd_tensor, random_sym_matrix, std_params


# ---------------------------------------------------------------------------
# smoothed absolute value
# ---------------------------------------------------------------------------

def test_smoothed_abs_examples():
    assert cf.smoothed_abs(0.0, 0.1) == pytest.approx(0.1, abs=0.0)
    assert cf.smoothed_abs(3.0, 4.0) == pytest.approx(5.0, abs=0.0)
    assert cf.smoothed_abs(-2.0, 0.0) == pytest.approx(2.0, abs=0.0)


def test_smoothed_abs_bounds_random(rng):
    p = rng.standard_normal(10_000) * 10.0
    k = rng.uniform(0.0, 1.0, 10_000)
    w = cf.smoothed_abs(p, k)
    assert np.all(w >= np.maximum(np.abs(p), k))
    assert np.all(w <= np.abs(p) + k)


def test_smoothed_abs_rejects_negative_kappa():
    with pytest.raises(ValueError):
        cf.smoothed_abs(1.0, -0.1)


# ---------------------------------------------------------------------------
# flux primitive
# ---------------------------------------------------------------------------

def test_flux_primitive_vanishes_at_zero():
    assert cf.flux_primitive(0.0, 0.5) == 0.0


def test_flux_primitive_odd(rng):
    p = rng.standard_normal(1000) * 5.0
    for kap in (1.0, 0.1, 0.01):
        f_plus = cf.flux_primitive(p, kap)
        f_minus = cf.flux_primitive(-p, kap)
        assert np.max(np.abs(f_plus + f_minus)) < 1e-12


def test_flux_primitive_derivative_matches_smoothed_abs(rng):
    p = rng.uniform(-5.0, 5.0, 1000)
    h = 1e-5
    for kap in (0.5, 0.1):
        deriv = (cf.flux_primitive(p + h, kap) - cf.flux_primitive(p - h, kap)) / (2 * h)
        target = cf.smoothed_abs(p, kap)
        assert np.max(np.abs(deriv - target) / target) < 1e-6


def test_flux_primitive_close_to_unregularized(rng):
    p = rng.uniform(-4.0, 4.0, 2000)
    for kap in (1.0, 0.3, 0.01):
        gap = np.abs(cf.flux_primitive(p, kap) - 0.5 * np.abs(p) * p)
        assert np.all(gap <= kap * np.abs(p) + 1e-15)


def test_flux_primitive_small_kappa_value_and_quadrature_oracle():
    val = cf.flux_primitive(1.0, 0.01)
    assert abs(val - 0.5) <= 0.01
    oracle = composite_simpson(lambda y: np.hypot(y, 0.01), 0.0, 1.0, 200_000)
    assert val == pytest.approx(oracle, abs=1e-10)


def test_flux_primitive_kappa_zero_closed_form():
    p = np.array([-2.0, -0.5, 0.0, 0.5, 2.0])
    assert np.allclose(cf.flux_primitive(p, 0.0), 0.5 * np.abs(p) * p, atol=0.0)


# ---------------------------------------------------------------------------
# sqrt flux primitive
# ---------------------------------------------------------------------------

def test_sqrt_flux_primitive_zero_and_closed_form():
    assert cf.sqrt_flux_primitive(0.0, 0.3) == 0.0
    assert cf.sqrt_flux_primitive(1.0, 0.0) == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_sqrt_flux_primitive_vs_simpson_oracle():
    oracle = composite_simpson(lambda y: (0.25 + y * y) ** 0.25, 0.0, 1.0, 1_000_000)
    assert cf.sqrt_flux_primitive(1.0, 0.5) == pytest.approx(oracle, abs=1e-10)


def test_sqrt_flux_primitive_odd_and_monotone():
    pts = np.linspace(-2.0, 2.0, 41)
    vals = np.array([cf.sqrt_flux_primitive(p, 0.2) for p in pts])
    assert np.max(np.abs(vals + vals[::-1])) < 1e-12
    assert np.all(np.diff(vals) > 0.0)


def test_sqrt_flux_primitive_kappa_gap_bound(rng):
    p = rng.uniform(-3.0, 3.0, 50)
    for kap in (0.5, 0.1, 0.02):
        for pi in p:
            gap = abs(cf.sqrt_flux_primitive(pi, kap) - cf.sqrt_flux_primitive(pi, 0.0))
            assert gap <= np.sqrt(kap) * abs(pi) + 1e-12


def test_sqrt_gradient_transform_matches_scalar(rng):
    p = rng.standard_normal(100) * 2.0
    vec = cf.sqrt_gradient_transform(p)
    scal = np.array([cf.sqrt_flux_primitive(pi, 0.0) for pi in p])
    assert np.allclose(vec, scal, atol=1e-14)


def test_adaptive_simpson_depth_exhaustion_raises():
    with pytest.raises(QuadratureError):
        adaptive_simpson(lambda y: np.sin(1.0 / (y + 1e-9)), 0.0, 1.0,
                         tol=1e-15, max_depth=3)


# ---------------------------------------------------------------------------
# double-well potential
# ---------------------------------------------------------------------------

def test_quartic_wells_and_barrier():
    well = cf.DoubleWell.quartic()
    assert well.psi(0.0) == 0.0
    assert well.psi(1.0) == 0.0
    assert well.psi(0.5) == pytest.approx(1.0 / 16.0, rel=1e-15)
    assert well.psi_prime(0.5) == 0.0


def test_quartic_sign_pattern_sampled():
    well = cf.DoubleWell.quartic()
    left = np.linspace(well.s_minus, well.s_star, 1002)[1:-1]
    right = np.linspace(well.s_star, well.s_plus, 1002)[1:-1]
    assert np.all(well.psi_prime(left) > 0.0)
    assert np.all(well.psi_prime(right) < 0.0)
    window = np.linspace(-0.5, 1.5, 1000)
    assert np.min(well.psi(window)) >= 0.0


def test_potential_horner_matches_polyval(rng):
    wells = [cf.DoubleWell.quartic(),
             cf.DoubleWell.from_coefficients([1.0, 0.0, -2.0, 0.0, 1.0], -1.0, 0.0, 1.0)]
    arrays = [rng.uniform(-3.0, 3.0, 257), rng.standard_normal((4, 9)) * 1e3,
              np.array([0.0, -0.0, 1e-300, -1e30])]
    for well in wells:
        for f, coeffs in ((well.psi, well.coeffs), (well.psi_prime, well.dcoeffs)):
            for s in arrays:
                assert np.array_equal(f(s), np.polyval(coeffs, s))
            for s in (0.0, -0.7, 0.5, 1.25, 3, np.float64(2.5)):
                val = f(s)
                assert isinstance(val, np.float64)
                assert np.array_equal(val, np.polyval(coeffs, s))


def test_potential_derivative_consistency(rng):
    well = cf.DoubleWell.quartic()
    s = rng.uniform(-1.0, 2.0, 500)
    h = 1e-6
    fd = (well.psi(s + h) - well.psi(s - h)) / (2 * h)
    scale = np.maximum(np.abs(well.psi_prime(s)), 1.0)
    assert np.max(np.abs(fd - well.psi_prime(s)) / scale) < 1e-6


def test_custom_polynomial_well_accepted():
    # (S^2 - 1)^2 has wells at -1, +1 and a barrier at 0
    well = cf.DoubleWell.from_coefficients([1.0, 0.0, -2.0, 0.0, 1.0], -1.0, 0.0, 1.0)
    assert well.psi(1.0) == pytest.approx(0.0, abs=1e-14)
    assert well.psi_prime(-0.5) > 0.0


def test_non_double_well_rejected():
    with pytest.raises(ValueError):
        cf.DoubleWell.from_coefficients([1.0, 0.0, 0.0], 0.0, 0.5, 1.0)  # S^2
    with pytest.raises(ValueError):
        cf.DoubleWell.from_coefficients([1.0, -2.0, 1.0, 0.0, 0.0], 1.0, 0.5, 0.0)


# ---------------------------------------------------------------------------
# tensors, free energy, driving force
# ---------------------------------------------------------------------------

def test_sym_matrix_roundtrip_and_symmetry(rng):
    m = random_sym_matrix(rng)
    back = cf.SymMatrix3.from_matrix(m.as_matrix())
    assert np.allclose(m.entries, back.entries, atol=0.0)
    full = m.as_matrix()
    assert np.array_equal(full, full.T)


def test_sym_matrix_rejects_asymmetric():
    bad = np.array([[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]])
    with pytest.raises(ValueError):
        cf.SymMatrix3.from_matrix(bad)


def test_mat_dot_examples():
    ident = cf.SymMatrix3.identity()
    assert ident.dot(ident) == pytest.approx(3.0, abs=0.0)
    a = cf.SymMatrix3.diag(1.0, 0.0, 0.0)
    b = cf.SymMatrix3.diag(0.0, 1.0, 0.0)
    assert a.dot(b) == 0.0
    assert a.dot(cf.SymMatrix3.zero()) == 0.0


def test_mat_dot_counts_off_diagonals_twice():
    a = cf.SymMatrix3(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert a.dot(a) == pytest.approx(2.0, rel=1e-15)
    assert a.dot(a) == pytest.approx(np.sum(a.as_matrix() * a.as_matrix()), rel=1e-14)


def test_mat_dot_bilinear(rng):
    a, b, c_ = (random_sym_matrix(rng) for _ in range(3))
    lhs = (a + 2.0 * b).dot(c_)
    rhs = a.dot(c_) + 2.0 * b.dot(c_)
    assert lhs == pytest.approx(rhs, rel=1e-12)
    assert a.dot(a) >= 0.0


def test_elastic_tensor_validation():
    with pytest.raises(ValueError):
        cf.ElasticTensor(-np.eye(6))
    bad = np.eye(6)
    bad[0, 1] = 0.5
    with pytest.raises(ValueError):
        cf.ElasticTensor(bad)


def test_isotropic_tensor_action():
    iso = cf.ElasticTensor.isotropic(2.0, 3.0)
    eps = cf.SymMatrix3.diag(1.0, 1.0, 1.0)
    out = iso.apply(eps)
    # lam*tr(eps)*I + 2mu*eps = (3*2 + 2*3) * I on the identity
    assert np.allclose(out.as_matrix(), 12.0 * np.eye(3), atol=1e-14)
    shear = cf.SymMatrix3(np.array([0.0, 0.0, 0.0, 1.0, 0.0, 0.0]))
    assert np.allclose(iso.apply(shear).as_matrix(), 6.0 * shear.as_matrix(), atol=1e-14)


def test_free_energy_examples():
    params = std_params()
    eps_bar = params.epsbar
    assert cf.free_energy(eps_bar, 1.0, params) == pytest.approx(0.0, abs=1e-15)
    assert cf.free_energy(cf.SymMatrix3.zero(), 0.0, params) == 0.0
    params_id = cf.ModelParams(c=1.0, nu=1.0, kappa=0.1,
                               epsbar=cf.SymMatrix3.diag(1.0, 0.0, 0.0),
                               elastic=cf.ElasticTensor.identity(),
                               a=0.0, d=1.0, t_end=1.0,
                               potential=cf.DoubleWell.quartic())
    assert cf.free_energy(cf.SymMatrix3.zero(), 1.0, params_id) == pytest.approx(0.5, rel=1e-15)


def test_free_energy_nonnegative_random(rng):
    for _ in range(20):
        elastic = random_spd_tensor(rng)
        epsbar = random_sym_matrix(rng)
        params = cf.ModelParams(c=1.0, nu=1.0, kappa=0.5, epsbar=epsbar,
                                elastic=elastic, a=0.0, d=1.0, t_end=1.0,
                                potential=cf.DoubleWell.quartic())
        for _ in range(500):
            eps = random_sym_matrix(rng)
            s = rng.uniform(-0.5, 1.5)
            assert cf.free_energy(eps, s, params) >= -1e-12


def test_driving_force_examples():
    params = std_params()
    zero_t = cf.SymMatrix3.zero()
    assert cf.driving_force(zero_t, 0.0, params) == 0.0
    assert cf.driving_force(zero_t, 0.5, params) == 0.0
    params_c2 = cf.ModelParams(c=2.0, nu=1.0, kappa=0.1,
                               epsbar=cf.SymMatrix3.diag(1.0, 0.0, 0.0),
                               elastic=cf.ElasticTensor.identity(),
                               a=0.0, d=1.0, t_end=1.0,
                               potential=cf.DoubleWell.quartic())
    t_stress = cf.SymMatrix3.diag(1.0, 0.0, 0.0)
    assert cf.driving_force(t_stress, 0.0, params_c2) == pytest.approx(2.0, rel=1e-15)


def test_driving_force_linear_in_stress(rng):
    params = std_params()
    t1, t2 = random_sym_matrix(rng), random_sym_matrix(rng)
    s = 0.3
    combined = cf.driving_force(t1 + t2, s, params)
    split = (cf.driving_force(t1, s, params) + cf.driving_force(t2, s, params)
             - cf.driving_force(cf.SymMatrix3.zero(), s, params))
    assert combined == pytest.approx(split, rel=1e-12)


# ---------------------------------------------------------------------------
# containers and parameter validation
# ---------------------------------------------------------------------------

def test_model_params_validation():
    ok = std_params()
    assert ok.kappa == 0.1
    with pytest.raises(ValueError):
        std_params(kappa=1.5)
    with pytest.raises(ValueError):
        std_params(kappa=0.0)
    with pytest.raises(ValueError):
        std_params(c=-1.0)
    with pytest.raises(ValueError):
        cf.ModelParams(c=1.0, nu=1.0, kappa=0.1, epsbar=cf.SymMatrix3.zero(),
                       elastic=cf.ElasticTensor.identity(), a=1.0, d=0.0,
                       t_end=1.0, potential=cf.DoubleWell.quartic())


def test_grid_basics():
    grid = cf.Grid(0.0, 1.0, 200)
    assert grid.x[0] == 0.0
    assert grid.x[-1] == 1.0
    assert grid.dx == pytest.approx(0.005, rel=1e-15)
    assert grid.n_nodes == 201
    with pytest.raises(ValueError):
        cf.Grid(0.0, 1.0, 3)
    with pytest.raises(ValueError):
        cf.Grid(1.0, 0.0, 10)


def test_scalar_field_validation():
    grid = cf.Grid(0.0, 1.0, 8)
    with pytest.raises(ValueError):
        cf.ScalarField(grid, np.zeros(5))
    with pytest.raises(ValueError):
        cf.ScalarField(grid, np.full(9, np.nan))
    f = cf.ScalarField.from_function(grid, lambda x: x * (1 - x))
    assert f.values.flags.writeable is False


def test_trajectory_validation():
    grid = cf.Grid(0.0, 1.0, 8)
    values = np.zeros((3, 9))
    with pytest.raises(ValueError):
        cf.Trajectory(grid, [0.0, 0.5, 0.25], values)
    with pytest.raises(ValueError):
        cf.Trajectory(grid, [0.1, 0.2, 0.3], values)
    traj = cf.Trajectory(grid, [0.0, 0.5, 1.0], values)
    assert traj.t_end == 1.0
    assert traj.snapshot(1).values.shape == (9,)
    # linear interpolation between snapshots
    traj2 = cf.Trajectory(grid, [0.0, 1.0], np.vstack([np.zeros(9), np.ones(9)]))
    assert np.allclose(traj2.sample(0.25), 0.25)
