"""Closed-form elasticity: the direction constants, the body-force
correction, and the stress/displacement assembly."""

import numpy as np
import pytest

import cfphase as cf
from cfphase.elasticity import coupling_stress_rows
from cfphase.model import trapezoid

from conftest import operator, random_spd_tensor, random_sym_matrix, ustar
from oracles import (apply, assemble_stress, equilibrium_residual, first_column, free_energy,
                     mandel, sym_diag, sym_dot, sym_grad_e1)


def _operator(n=100, elastic=None, epsbar=None):
    grid = cf.Grid(0.0, 1.0, n)
    elastic = elastic or cf.ElasticTensor.isotropic(1.0, 1.0)
    epsbar = epsbar or sym_diag(1.0, 0.0, 0.0)
    return grid, operator(grid, elastic, epsbar)


# ---------------------------------------------------------------------------
# direction constants
# ---------------------------------------------------------------------------

def test_ustar_identity_map():
    u, eps_star = ustar(cf.ElasticTensor.identity(), sym_diag(1.0, 0.0, 0.0))
    assert np.allclose(u, [1.0, 0.0, 0.0], atol=1e-14)
    assert np.allclose(eps_star, [1.0, 0, 0, 0, 0, 0], atol=1e-14)


def test_ustar_isotropic_identity_misfit():
    u, _ = ustar(cf.ElasticTensor.isotropic(1.0, 1.0), sym_diag(1.0, 1.0, 1.0))
    assert abs(u[0] - 5.0 / 3.0) < 1e-12
    assert abs(u[1]) < 1e-12 and abs(u[2]) < 1e-12


def test_ustar_zero_misfit(rng):
    u, eps_star = ustar(random_spd_tensor(rng), sym_diag(0.0, 0.0, 0.0))
    assert np.allclose(u, 0.0, atol=1e-14)
    assert np.allclose(eps_star, 0.0, atol=1e-14)


def test_ustar_postcondition_random(rng):
    for _ in range(100):
        elastic = random_spd_tensor(rng)
        epsbar = random_sym_matrix(rng)
        u, eps_star = ustar(elastic, epsbar)
        gap = first_column(apply(elastic, eps_star - epsbar.entries))
        scale = max(1.0, float(np.max(np.abs(epsbar.entries))))
        assert np.max(np.abs(gap)) < 1e-12 * scale


def test_acoustic_matrix_spd(rng):
    for _ in range(20):
        m = cf.acoustic_matrix(random_spd_tensor(rng))
        assert np.allclose(m, m.T, atol=1e-13)
        assert np.min(np.linalg.eigvalsh(0.5 * (m + m.T))) > 0.0


def test_operator_invariants(rng):
    # the first column of D(eps_star - epsbar) vanishes, and the gains are
    # alpha = D(eps_star - epsbar) : epsbar and beta = D eps_star : epsbar
    cases = [_operator()[1]] + [_operator(elastic=random_spd_tensor(rng),
                                          epsbar=random_sym_matrix(rng))[1]
                                for _ in range(20)]
    for op in cases:
        epsbar = op.epsbar.entries
        eps_star = sym_grad_e1(op.u_star)
        gap = apply(op.elastic, eps_star - epsbar)
        scale = max(1.0, float(np.max(np.abs(epsbar))))
        assert np.max(np.abs(first_column(gap))) < 1e-12 * scale
        assert op.alpha == pytest.approx(sym_dot(gap, epsbar), rel=1e-12, abs=1e-12)
        assert op.beta == pytest.approx(sym_dot(apply(op.elastic, eps_star), epsbar),
                                        rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# body-force correction
# ---------------------------------------------------------------------------

def test_correction_zero_body_force():
    grid, op = _operator()
    corr = cf.solve_correction(cf.zero_body_force(grid), op)
    assert np.allclose(corr.w, 0.0, atol=0.0)
    assert np.allclose(corr.sig_dot_eps, 0.0, atol=0.0)
    assert corr.residual == 0.0


def test_correction_constant_force_hand_solution():
    # acoustic matrix = identity for this stiffness map
    d66 = np.diag([1.0, 1.0, 1.0, 2.0, 2.0, 2.0])
    grid, op = _operator(elastic=cf.ElasticTensor(d66))
    assert np.allclose(op.acoustic, np.eye(3), atol=1e-14)
    b = np.zeros((grid.n_nodes, 3))
    b[:, 0] = 1.0
    corr = cf.solve_correction(b, op)
    x = grid.x
    # sigma : epsbar = sigma_11 = 1/2 - x and w_1(x) = x/2 - x^2/2 (trapezoid
    # is exact here)
    assert np.max(np.abs(corr.sig_dot_eps - (0.5 - x))) < 1e-12
    assert np.max(np.abs(corr.w[:, 0] - (0.5 * x - 0.5 * x * x))) < 1e-12
    assert np.max(np.abs(corr.w[[0, -1]])) < 1e-12


def test_correction_sine_force_residual_order():
    residuals = []
    for n in (100, 200, 400):
        grid, op = _operator(n=n)
        b = np.zeros((grid.n_nodes, 3))
        b[:, 0] = np.sin(2.0 * np.pi * grid.x)
        corr = cf.solve_correction(b, op)
        assert np.max(np.abs(corr.w[[0, -1]])) < 1e-12
        residuals.append(corr.residual)
    orders = [np.log2(residuals[i] / residuals[i + 1]) for i in range(2)]
    assert min(orders) >= 1.9


def test_correction_shape_validation():
    grid, op = _operator()
    with pytest.raises(ValueError):
        cf.solve_correction(np.zeros(grid.n_nodes), op)


# ---------------------------------------------------------------------------
# stress assembly
# ---------------------------------------------------------------------------

def test_stress_zero_inputs():
    grid, op = _operator()
    t_mandel, tdot = assemble_stress(np.zeros(grid.n_nodes), cf.zero_body_force(grid), op)
    assert np.allclose(t_mandel, 0.0, atol=0.0)
    assert np.allclose(tdot, 0.0, atol=0.0)


def test_stress_identity_map_mean_coupling(rng):
    # identity stiffness with misfit diag(1,0,0): the pointwise term drops and
    # T = -diag(1,0,0) * mean(s), so T:epsbar = -mean(s)
    grid, op = _operator(elastic=cf.ElasticTensor.identity())
    s = 0.5 + 0.3 * np.sin(2 * np.pi * grid.x) * rng.uniform(0.5, 1.0)
    t_mandel, tdot = assemble_stress(s, cf.zero_body_force(grid), op)
    mean = trapezoid(s, grid.dx) / op.length
    assert np.max(np.abs(tdot + mean)) < 1e-13
    assert np.max(np.abs(t_mandel[:, 0] + mean)) < 1e-13
    assert np.max(np.abs(t_mandel[:, 1:])) < 1e-13


def test_stress_linearity(rng):
    grid, op = _operator()
    b = cf.zero_body_force(grid)
    s1 = rng.standard_normal(grid.n_nodes)
    s2 = rng.standard_normal(grid.n_nodes)
    a_, b_ = 0.7, -1.3
    t_comb, td_comb = assemble_stress(a_ * s1 + b_ * s2, b, op)
    t1, td1 = assemble_stress(s1, b, op)
    t2, td2 = assemble_stress(s2, b, op)
    assert np.max(np.abs(t_comb - (a_ * t1 + b_ * t2))) < 1e-12
    assert np.max(np.abs(td_comb - (a_ * td1 + b_ * td2))) < 1e-12


def test_stress_doubling(rng):
    grid, op = _operator()
    b = cf.zero_body_force(grid)
    s = rng.standard_normal(grid.n_nodes)
    _, td1 = assemble_stress(s, b, op)
    _, td2 = assemble_stress(2.0 * s, b, op)
    assert np.max(np.abs(td2 - 2.0 * td1)) < 1e-12


def test_stress_oracle_agrees_with_the_coupling_stress(rng):
    # the oracle's stress, built from the stiffness map, the misfit strain,
    # u_star and the body force, contracted with epsbar is the program's
    # T : epsbar from the gains and sigma : epsbar
    for _ in range(5):
        grid, op = _operator(n=64, elastic=random_spd_tensor(rng),
                             epsbar=random_sym_matrix(rng))
        b = np.column_stack([np.sin(2.0 * np.pi * grid.x), 0.5 * np.cos(np.pi * grid.x),
                             np.full(grid.n_nodes, -0.75)])
        t_mandel, tdot = assemble_stress(rng.standard_normal(grid.n_nodes), b, op)
        want = t_mandel @ mandel(op.epsbar.entries)
        assert np.allclose(tdot, want, rtol=1e-12, atol=1e-12 * np.max(np.abs(want)))


# ---------------------------------------------------------------------------
# displacement assembly
# ---------------------------------------------------------------------------

def test_displacement_zero_inputs():
    grid, op = _operator()
    corr = cf.solve_correction(cf.zero_body_force(grid), op)
    u = cf.assemble_displacement(np.zeros(grid.n_nodes), corr, op)
    assert np.allclose(u, 0.0, atol=0.0)


def test_displacement_constant_coupling_boundary_cancellation():
    grid, op = _operator()
    corr = cf.solve_correction(cf.zero_body_force(grid), op)
    u = cf.assemble_displacement(np.ones(grid.n_nodes), corr, op)
    assert np.max(np.abs(u[0])) < 1e-12
    assert np.max(np.abs(u[-1])) < 1e-12


def test_displacement_antisymmetric_profile_for_symmetric_coupling():
    grid, op = _operator(n=128)
    corr = cf.solve_correction(cf.zero_body_force(grid), op)
    s = np.sin(np.pi * grid.x)  # symmetric about the midpoint
    u = cf.assemble_displacement(s, corr, op)
    assert np.max(np.abs(u + u[::-1])) < 1e-12


def test_displacement_boundary_values_random(rng):
    grid, op = _operator()
    b = np.zeros((grid.n_nodes, 3))
    b[:, 0] = np.sin(2 * np.pi * grid.x)
    corr = cf.solve_correction(b, op)
    s = rng.standard_normal(grid.n_nodes)
    u = cf.assemble_displacement(s, corr, op)
    assert np.max(np.abs(u[0])) < 1e-12
    assert np.max(np.abs(u[-1])) < 1e-12


# ---------------------------------------------------------------------------
# coupled equilibrium residual
# ---------------------------------------------------------------------------

def test_equilibrium_residual_order_with_smooth_coupling():
    residuals = []
    for n in (100, 200):
        grid, op = _operator(n=n)
        b = np.zeros((grid.n_nodes, 3))
        b[:, 0] = np.sin(2.0 * np.pi * grid.x)
        s_eff = 0.4 * np.sin(np.pi * grid.x)
        t_mandel, _ = assemble_stress(s_eff, b, op)
        residuals.append(equilibrium_residual(t_mandel, b, grid.dx))
    assert np.log2(residuals[0] / residuals[1]) >= 1.9


# ---------------------------------------------------------------------------
# the coupling stress as the configurational force of the free energy
# ---------------------------------------------------------------------------

def test_coupling_stress_is_the_free_energy_force_at_the_solved_strain(rng):
    # the assembled stress is T = D(eps(u) - s epsbar) at the strain
    # eps(u) = sym(u_x x e1) of the assembled displacement, so T : epsbar is
    # minus the s-derivative of the elastic part of the free energy at that
    # strain.  At cell midpoints the difference quotient of u is the mean of
    # its two nodal slopes (u is a running trapezoid sum), and T is affine in
    # s and sigma, so the midpoint values match to rounding.
    cases = ((cf.ElasticTensor.isotropic(1.0, 1.0), sym_diag(1.0, 0.0, 0.0)),
             (random_spd_tensor(rng), random_sym_matrix(rng)))
    for elastic, epsbar in cases:
        grid, op = _operator(n=64, elastic=elastic, epsbar=epsbar)
        params = cf.ModelParams(c=1.0, nu=1.0, kappa=0.1, epsbar=epsbar,
                                elastic=elastic, a=0.0, d=1.0, t_end=1.0,
                                potential=cf.DoubleWell.quartic())
        b = np.zeros((grid.n_nodes, 3))
        b[:, 0] = np.sin(2.0 * np.pi * grid.x)
        b[:, 2] = 0.5 * np.cos(np.pi * grid.x)
        corr = cf.solve_correction(b, op)
        s = 0.4 * np.sin(np.pi * grid.x) + 0.1 * rng.standard_normal(grid.n_nodes)
        u_x = np.diff(cf.assemble_displacement(s, corr, op), axis=0) / grid.dx
        tdot = coupling_stress_rows(s[None, :], corr.sig_dot_eps, op)[0]
        s_mid, tdot_mid = 0.5 * (s[1:] + s[:-1]), 0.5 * (tdot[1:] + tdot[:-1])
        h = 1e-3  # the elastic part is quadratic in s: central differences are exact
        for slope, sj, tj in zip(u_x, s_mid, tdot_mid):
            eps = sym_grad_e1(slope)

            def elastic_part(sv):
                return free_energy(eps, sv, params) - float(params.potential.psi(sv))

            force = -(elastic_part(sj + h) - elastic_part(sj - h)) / (2.0 * h)
            assert force == pytest.approx(tj, abs=1e-9)
