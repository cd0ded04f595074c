"""The package's record types: the three configs keep the dataclass
protocol their callers use (``replace``, ``asdict``, ``fields``, hashing),
and every other record is a plain slotted class that refuses ``==`` and
``hash`` instead of answering them by identity."""

from dataclasses import asdict, replace

import numpy as np
import pytest

import cfphase as cf
from cfphase import config
from cfphase.convergence import SweepEntry

from conftest import std_params
from oracles import sym_diag, zero_field


# ---------------------------------------------------------------------------
# the dataclass protocol of the three configs
# ---------------------------------------------------------------------------

def test_replace_reruns_the_solver_config_validation():
    with pytest.raises(ValueError, match="mollify_samples"):
        replace(cf.SolverConfig(), mollify_samples=0)


def test_solver_config_hashes():
    assert hash(cf.SolverConfig()) == hash(cf.SolverConfig())


def test_run_config_asdict_keys_are_the_config_keys():
    assert set(asdict(cf.RunConfig())) == set(config._DEFAULTS)


def test_model_params_equality_refuses_array_fields():
    # equal in value, but each with its own misfit: comparing them would
    # compare arrays, and must not fall back to identity
    a, b = std_params(), std_params()
    assert a.epsbar is not b.epsbar
    with pytest.raises((TypeError, ValueError)):
        a == b  # noqa: B015


# ---------------------------------------------------------------------------
# the plain records
# ---------------------------------------------------------------------------

def _grid():
    return cf.Grid(0.0, 1.0, 8)


def _op():
    return cf.ElasticityOperator.from_params(_grid(), std_params())


def _monitors():
    params = std_params(kappa=0.2, t_end=0.002)
    s0 = cf.make_initial_profile("sine", 0.1, _grid())
    return cf.run(s0, params, cf.SolverConfig(snapshot_interval=0.001))[1]


# name -> (a factory of one small instance, one of its fields)
READ_ONLY = {
    "DoubleWell": (cf.DoubleWell.quartic, "coeffs"),
    "Grid": (_grid, "n"),
    "ScalarField": (lambda: zero_field(_grid()), "values"),
    "SymMatrix3": (lambda: sym_diag(1.0, 0.0, 0.0), "entries"),
    "ElasticTensor": (cf.ElasticTensor.identity, "matrix"),
    "ElasticityOperator": (_op, "alpha"),
    "CorrectionPair": (lambda: cf.solve_correction(cf.zero_body_force(_grid()), _op()),
                       "residual"),
    "StepReport": (lambda: cf.StepReport(0.0, 0.1, 1.0, 1.0, 0.0, 0.0), "dt"),
    "TestFunction": (lambda: cf.TestFunction(1, 2, 0.0, 1.0, 1.0), "m"),
    "ManufacturedSolution": (lambda: cf.ManufacturedSolution(0.0, 1.0), "a"),
    "MollifierKernel": (lambda: cf.MollifierKernel(0.2), "kappa"),
}
MUTABLE = {
    "MonitorSeries": (_monitors, "n_steps"),
    "MmsReport": (lambda: cf.MmsReport([25, 50], [4e-3, 1e-3], [2.0]), "errors"),
    "SweepEntry": (lambda: SweepEntry(kappa=0.1, ok=False, error="diverged"), "ok"),
    "SweepReport": (lambda: cf.SweepReport([0.1], [SweepEntry(0.1, True)]),
                    "entries"),
    "Trajectory": (lambda: cf.Trajectory(_grid(), [0.0, 0.5], np.zeros((2, 9))),
                   "values"),
}
RECORDS = {**READ_ONLY, **MUTABLE}


@pytest.mark.parametrize("name", sorted(RECORDS))
def test_record_refuses_equality_hash_and_unknown_attributes(name):
    make, field = RECORDS[name]
    a, b = make(), make()
    assert type(a).__name__ == name and a is not b
    with pytest.raises(TypeError, match=name):
        a == b  # noqa: B015
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(AttributeError):
        a.not_a_field = 1
    if name in READ_ONLY:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)


def test_records_take_the_mutations_the_program_makes():
    monitors = _monitors()
    monitors.picard_distances = [0.5, 0.25]
    monitors.mollifier_truncated = True
    assert monitors.picard_distances == [0.5, 0.25] and monitors.mollifier_truncated
    entry = SweepEntry(kappa=0.1, ok=True)
    assert entry.compactness_dist_to_next is None and entry.flux_dist_to_next is None
    entry.compactness_dist_to_next, entry.flux_dist_to_next = 0.5, 0.25
    assert (entry.compactness_dist_to_next, entry.flux_dist_to_next) == (0.5, 0.25)
    report = cf.SweepReport([0.1], [entry])
    report.uniformity["p43_cum"] = {"ratio": 1.0}
    assert report.uniformity == {"p43_cum": {"ratio": 1.0}}
    assert cf.SweepReport([0.1], [entry]).uniformity == {}


def test_derived_fields_are_computed_at_construction():
    well = cf.DoubleWell.quartic()
    assert np.array_equal(well.dcoeffs, np.polyder(well.coeffs))
    assert not well.dcoeffs.flags.writeable
    grid = _grid()
    assert np.array_equal(grid.x, np.linspace(0.0, 1.0, 9))
    assert not grid.x.flags.writeable
