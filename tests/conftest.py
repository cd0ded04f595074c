"""Shared fixtures and independent oracles for the test suite.

The fixed-panel quadrature here is deliberately separate from the adaptive
Simpson rule of ``oracles.py`` so the dual-route checks stay independent.
"""

import contextlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import settings, strategies as st

import cfphase as cf
from cfphase import _native
from cfphase.convergence import manufactured_source

from oracles import cfl_dt, numpy_engine, sym_diag, sym_grad_e1

# Property tests draw the same examples on every run, and a slow phase of a
# shared host cannot fail them on time.
settings.register_profile("cfphase", deadline=None, derandomize=True)
settings.load_profile("cfphase")


def composite_simpson(f, a, b, panels):
    """Plain composite Simpson with a fixed even panel count (oracle)."""
    if panels % 2:
        panels += 1
    x = np.linspace(a, b, panels + 1)
    fx = f(x)
    h = (b - a) / panels
    return h / 3.0 * (fx[0] + fx[-1] + 4.0 * fx[1:-1:2].sum() + 2.0 * fx[2:-2:2].sum())


def std_params(kappa=0.1, t_end=1.0, c=1.0, nu=1.0):
    """Standard-suite model constants: unit coefficients, isotropic stiffness
    with both Lame constants 1, misfit strain diag(1,0,0), quartic well."""
    return cf.ModelParams(c=c, nu=nu, kappa=kappa,
                          epsbar=sym_diag(1.0, 0.0, 0.0),
                          elastic=cf.ElasticTensor.isotropic(1.0, 1.0),
                          a=0.0, d=1.0, t_end=t_end,
                          potential=cf.DoubleWell.quartic())


def off_default_params(t_end=1.0):
    """Model constants all off ``std_params``: c = 2, nu = 0.5, kappa = 0.15,
    a sextic double well, Lame constants 2 and 0.5 and a shear misfit
    strain (the mms-constants case of ``tools/cli_hashes.py``)."""
    return cf.parse_config(
        "c = 2.0\nnu = 0.5\nkappa = 0.15\npotential = poly\n"
        "poly_coeffs = 1.0, -2.25, 2.328125, -1.3828125, -0.1474609375, "
        "0.380859375, 0.0712890625\nwells = -0.25, 0.375, 1.0\n"
        "lame_lambda = 2.0\nlame_mu = 0.5\n"
        "epsbar = 0.3, -0.2, 0.1, 0.4, -0.25, 0.15\n").model_params(t_end=t_end)


def operator(grid, elastic, epsbar):
    """The elasticity operator on ``grid`` for a stiffness map and a misfit
    strain."""
    params = replace(std_params(), elastic=elastic, epsbar=epsbar)
    return cf.ElasticityOperator.from_params(grid, params)


def ustar(elastic, epsbar):
    """The direction constants (u_star, eps_star = sym(u_star x e1)) of the
    elasticity operator, eps_star as its six entries."""
    u_star = operator(cf.Grid(0.0, 1.0, 4), elastic, epsbar).u_star
    return u_star, sym_grad_e1(u_star)


def random_spd_tensor(rng):
    """Random SPD stiffness map in the orthonormal basis."""
    m = rng.standard_normal((6, 6))
    m = m @ m.T + 0.5 * np.eye(6)
    m = 0.5 * (m + m.T)
    return cf.ElasticTensor(m)


def random_sym_matrix(rng):
    return cf.SymMatrix3(rng.standard_normal(6))


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture(scope="session", autouse=True)
def compiled_library():
    """Every run needs the compiled library: without it the session stops
    once, with the reason, instead of failing each test that runs."""
    try:
        _native.chunk_loop()
    except _native.Unavailable as exc:
        pytest.exit(f"compiled library unavailable: {exc}", returncode=1)


@pytest.fixture(scope="session")
def warm_engine():
    """Build (or load from the cache) the compiled chunk loop with one tiny
    run, so timed tests measure runs, not the C compiler."""
    params = std_params(kappa=0.2, t_end=0.002)
    grid = cf.Grid(0.0, 1.0, 16)
    s0 = cf.make_initial_profile("sine", 0.1, grid)
    cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.001))
    return True


@st.composite
def double_wells(draw):
    """The quartic, or a sextic with wells m < p and its barrier halfway:
    h (s - m)^2 (s - p)^2 (1 + e (s - (m + p)/2)^2), whose derivative keeps
    the sign pattern of a double well for e (p - m)^2 < 8."""
    if draw(st.booleans()):
        return cf.DoubleWell.quartic()
    m = draw(st.floats(-0.5, 0.2))
    p = m + draw(st.floats(0.5, 1.5))
    return sextic_well(m, p, draw(st.floats(0.2, 5.0)), draw(st.floats(0.0, 2.0)))


def sextic_well(m, p, h, e=0.0):
    """The sextic double well h (s - m)^2 (s - p)^2 (1 + e (s - (m + p)/2)^2)
    of ``double_wells``."""
    star = 0.5 * (m + p)
    coeffs = h * np.polymul(np.polymul([1.0, -m], [1.0, -m]),
                            np.polymul(np.polymul([1.0, -p], [1.0, -p]),
                                       [e, -2.0 * e * star, 1.0 + e * star * star]))
    return cf.DoubleWell(coeffs, m, star, p)


@st.composite
def small_runs(draw):
    """A small run, its config and its body force: grid, model constants
    (the quartic or a sextic potential), initial profile, coupling,
    emission, and no body force or a constant one, with a horizon of a few
    dozen to a hundred and fifty initial step sizes so that a run on either
    engine stays short.  Returns (s0, params, cfg, b), b None or the nodal
    values that ``run`` takes."""
    grid = cf.Grid(0.0, 1.0, draw(st.integers(min_value=4, max_value=48)))
    params = replace(std_params(kappa=draw(st.floats(0.02, 1.0)),
                                c=draw(st.floats(0.1, 10.0)),
                                nu=draw(st.floats(0.01, 1.0))),
                     potential=draw(double_wells()))
    s0 = cf.make_initial_profile(
        draw(st.sampled_from(["sine", "smoothed-step", "polynomial-bump"])),
        draw(st.floats(-1.5, 1.5)), grid)
    t_end = draw(st.integers(min_value=5, max_value=150)) * cfl_dt(s0, params, 0.4)
    params = replace(params, t_end=t_end)
    if draw(st.booleans()):
        emission = dict(snapshot_stride=draw(st.integers(min_value=1, max_value=20)))
    else:
        emission = dict(snapshot_interval=t_end / draw(st.integers(min_value=1, max_value=16)))
    cfg = cf.SolverConfig(coupling=draw(st.sampled_from(["direct", "mollified"])),
                          **emission)
    b = None
    if draw(st.booleans()):
        b = np.tile([draw(st.floats(-1.0, 1.0)) for _ in range(3)], (grid.n_nodes, 1))
    return s0, params, cfg, b


@st.composite
def coupled_runs(draw, coupling, source):
    """A ``small_runs`` case moved to a branch of the compiled loop's
    (coupling, source) switch that ``small_runs`` does not reach: coupling
    "direct", "mollified" or "table" (``run_with_coupling_table``, as the
    global sweeps couple; here the initial profile scaled linearly in time
    over uniformly spaced rows), with ``source`` the manufactured source of
    the sine mode, which reads the drawn constants from the run.  A run with
    the source starts from the sine mode, as ``manufactured_run`` does, over
    as many initial step sizes as drawn.  Returns (s0, params, cfg, table, b),
    with table None or the (times, rows) that ``run_with_coupling_table``
    takes, and b the drawn body force."""
    s0, params, cfg, b = draw(small_runs())
    cfg = replace(cfg, coupling="direct" if coupling == "table" else coupling)
    if source:
        mode = cf.make_initial_profile("sine", 1.0, s0.grid)
        params = replace(params, t_end=params.t_end * cfl_dt(mode, params, 0.4)
                         / cfl_dt(s0, params, 0.4))
        s0 = mode
        exact = cf.ManufacturedSolution(params.a, params.d)
        cfg = replace(cfg, source=manufactured_source(exact))
    table = None
    if coupling == "table":
        times = np.linspace(0.0, params.t_end, draw(st.integers(2, 16)))
        decay = np.linspace(1.0, draw(st.floats(0.0, 1.0)), times.size)
        table = (times, decay[:, None] * s0.values)
    return s0, params, cfg, table, b


def run_case(case):
    """Run a ``coupled_runs`` case."""
    s0, params, cfg, table, b = case
    if table is None:
        return cf.run(s0, params, cfg, b=b)
    return cf.run_with_coupling_table(s0, params, cfg, *table, b=b)


def engines():
    """The contexts in which runs take the compiled loop, and then the numpy
    reference kernel (``oracles.NumpyKernel``) in its place."""
    return contextlib.nullcontext(), numpy_engine()


def on_both_engines(run):
    """``run()`` in each context of ``engines()``."""
    results = []
    for engine in engines():
        with engine:
            results.append(run())
    return results


@pytest.fixture(params=["on", "off"])
def compiled_loop(request):
    """The test's runs with the compiled loop on, or off: the numpy
    reference kernel in its place."""
    with engines()[request.param == "off"]:
        yield request.param
