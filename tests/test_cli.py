"""Configuration parsing and the command-line driver: file emission,
determinism, and the exit-code contract."""

import json
import re
import warnings
from dataclasses import fields

import numpy as np
import pytest

import cfphase as cf
from cfphase import _native, cli, solver
from cfphase.cli import (MMS_HEADER, MONITOR_HEADER, SNAPSHOT_HEADER, SWEEP_HEADER,
                         _fmt, _write_monitors, _write_snapshots, main)
from cfphase.config import ConfigError, RunConfig, parse_config
from cfphase.solver import SolverAbort

from conftest import engines
from oracles import displacement_parts, flux_distance, repr_rows, snapshot_rows


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def test_parse_minimal_defaults():
    cfg = parse_config("# all defaults\n")
    assert cfg.n == 200
    assert cfg.kappa == 0.1
    assert cfg.coupling == "direct"
    params = cfg.model_params()
    assert params.t_end == 1.0
    assert cfg.solver_config().snapshot_interval == pytest.approx(1.0 / 256)


def test_parse_values_and_comments():
    cfg = parse_config("""
        n = 100          # grid cells
        kappa = 0.05
        initial_profile = sine
        epsbar = 1, 0, 0, 0, 0, 0
    """)
    assert cfg.n == 100 and cfg.kappa == 0.05
    assert cfg.initial_profile == "sine"


def test_parse_kappa_out_of_range():
    with pytest.raises(ConfigError) as exc:
        parse_config("kappa = 1.5\n")
    assert any("kappa must lie in (0,1]" in e for e in exc.value.errors)


def test_parse_minimum_grid_size():
    with pytest.raises(ConfigError) as exc:
        parse_config("n = 3\n")
    assert any("at least 4" in e for e in exc.value.errors)


def test_parse_unknown_key():
    with pytest.raises(ConfigError) as exc:
        parse_config("volume = 12\n")
    assert any("unknown key" in e for e in exc.value.errors)


def test_parse_collects_all_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("kappa = 1.5\nn = 3\nmystery = 1\nsafety = 2\n")
    assert len(exc.value.errors) == 4


# one document line per constraint, with the one error it must raise
CONSTRAINTS = {
    "a<d": ("a = 1.0", "domain endpoints must satisfy a < d"),
    "c": ("c = 0.0", "c must be positive"),
    "nu": ("nu = -1.0", "nu must be positive"),
    "t_end": ("t_end = 0.0", "t_end must be positive"),
    "snapshot_stride": ("snapshot_stride = 0", "snapshot_stride must be >= 1"),
    "max_steps": ("max_steps = 0", "max_steps must be >= 1"),
    "picard_sweeps": ("picard_sweeps = -1", "picard_sweeps must be >= 0"),
    "mollify_samples": ("mollify_samples = 8", "mollify_samples must be >= 9"),
    "mollify_table": ("mollify_table = 8", "mollify_table must be >= 9"),
    "stiffness": ("lame_mu = 0.0",
                  "isotropic stiffness needs mu > 0 and 3*lambda + 2*mu > 0"),
    "mms_t_end": ("mms_t_end = 0.0", "mms_t_end must be positive"),
    "mms_grids": ("mms_grids = 3, 8", "mms_grids entries must be >= 4"),
    # kappa^2 rounds to 0
    "kappa^2": ("kappa = 1e-170",
                "kappa must be at least about 1.5e-154, so that kappa^2 is a normal double"),
    "tuple length": ("epsbar = 1, 0, 0",
                     "line 1: epsbar needs 6 comma-separated values"),
}


@pytest.mark.parametrize("line, message", CONSTRAINTS.values(), ids=CONSTRAINTS)
def test_each_constraint_is_reported(line, message):
    with pytest.raises(ConfigError) as exc:
        parse_config(line + "\n")
    assert exc.value.errors == [message]


def test_a_document_that_breaks_every_constraint_reports_each():
    lines = [line for line, _ in CONSTRAINTS.values()]
    with pytest.raises(ConfigError) as exc:
        parse_config("\n".join(lines) + "\n")
    want = [message.replace("line 1:", f"line {lines.index(line) + 1}:")
            for line, message in CONSTRAINTS.values()]
    assert sorted(exc.value.errors) == sorted(want)


def test_parse_duplicate_and_malformed():
    with pytest.raises(ConfigError) as exc:
        parse_config("n = 100\nn = 200\njust words\n")
    joined = "\n".join(exc.value.errors)
    assert "duplicate" in joined and "key = value" in joined


def test_parse_enum_and_type_errors():
    with pytest.raises(ConfigError) as exc:
        parse_config("coupling = sideways\nn = abc\n")
    joined = "\n".join(exc.value.errors)
    assert "coupling must be one of" in joined
    assert "cannot parse n" in joined


@pytest.mark.parametrize("value", ["on", "off"])
def test_jit_takes_only_auto(value, tmp_path, capsys):
    # one engine: the key stays, so every meta.json keeps its "jit": "auto",
    # and any other value is a config error
    assert parse_config("jit = auto\n").jit == "auto"
    cfg = _write(tmp_path, "jit.cfg", f"jit = {value}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == (f"config error: line 1: jit must be one of "
                                       f"auto (got {value!r})\n")
    assert not (tmp_path / "out").exists()


def test_integer_keys_take_integer_literals_only():
    # one rule for an integer scalar and each entry of an integer tuple
    for text in ("n = 50.0\n", "mms_grids = 50.0, 100\n", "mms_grids = 50, 1e2\n"):
        with pytest.raises(ConfigError, match="cannot parse"):
            parse_config(text)
    cfg = parse_config("n = 50\nmms_grids = 50, 100\n")
    assert cfg.n == 50 and cfg.mms_grids == (50, 100)


@pytest.mark.parametrize("key, too_big, largest", [
    ("n", "1000000000000", "1000000"), ("mollify_samples", "1000001", "1000000"),
    ("mollify_table", "1000001", "1000000"), ("mms_grids", "50, 1000001", "50, 1000000")],
    ids=["n", "mollify_samples", "mollify_table", "mms_grids"])
def test_sizing_keys_have_an_upper_bound(key, too_big, largest):
    # each sizes an allocation, so a typo is a config error, not numpy's
    with pytest.raises(ConfigError) as exc:
        parse_config(f"{key} = {too_big}\n")
    name = "mms_grids entries" if key == "mms_grids" else key
    assert exc.value.errors == [f"{name} must be at most 1000000"]
    assert parse_config(f"{key} = {largest}\n")


def test_snapshot_interval_has_a_lower_bound(tmp_path, capsys):
    # the interval sizes the run's row store, t_end / interval rows; 0.0
    # means the stride plan
    message = "snapshot_interval must be at least t_end / 1000000"
    with pytest.raises(ConfigError) as exc:
        parse_config("snapshot_interval = 1e-9\n")
    assert exc.value.errors == [message]
    assert parse_config("snapshot_interval = 1e-6\n").snapshot_interval == 1e-6
    assert parse_config("snapshot_interval = 0.0\n").solver_config().snapshot_interval == 0.0
    cfg = _write(tmp_path, "run.cfg",
                 f"snapshot_interval = 1e-9\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 1
    assert capsys.readouterr().err == f"config error: {message}\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("line", ["mms_grids =", "mms_grids = 50", "mms_grids = 100, 50",
                                  "mms_grids = 50, 50, 100"],
                         ids=["none", "one", "coarser", "repeated"])
def test_mms_needs_two_grids_each_finer(line, tmp_path, capsys):
    # with fewer than two grids there is no observed order to report
    cfg = _write(tmp_path, "mms.cfg", f"{line}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["mms", cfg]) == 1
    assert capsys.readouterr().err == ("config error: mms_grids needs at least two "
                                       "grids, each finer than the one before\n")
    assert not (tmp_path / "out").exists()


def test_every_key_parses_back_to_its_default():
    # a key's value parses as its default's type, so the text of each
    # default reads back as that default, of the same types
    for field in fields(RunConfig):
        default = field.default
        text = (", ".join(map(str, default)) if isinstance(default, tuple)
                else str(default))
        got = getattr(parse_config(f"{field.name} = {text}\n"), field.name)
        assert got == default, field.name
        assert type(got) is type(default), field.name
        if isinstance(default, tuple):
            assert list(map(type, got)) == list(map(type, default)), field.name


@pytest.mark.parametrize("line", [
    "mms_grids = inf", "mms_grids = 50.7, 100", "epsbar = 1,0,0,0,0,nan",
    "lame_lambda = nan", "t_end = inf", "amplitude = inf", "mms_t_end = nan",
    "dt_override = nan"])
def test_non_finite_and_fractional_values_fail_at_parse_time(line, tmp_path, capsys):
    # each would otherwise escape as a traceback, run a truncated grid, or
    # run with a NaN step
    cfg = _write(tmp_path, "bad.cfg", f"{line}\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error: line 1: ") and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_negative_dt_override_is_a_config_error(tmp_path, capsys):
    # the run would reject it as a traceback; the config check reports it
    cfg = _write(tmp_path, "bad.cfg",
                 f"dt_override = -0.001\noutput_dir = {tmp_path / 'out'}\n")
    assert main(["run", cfg]) == 1
    err = capsys.readouterr().err
    assert "dt_override must be >= 0" in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_parse_poly_potential_checked():
    with pytest.raises(ConfigError) as exc:
        parse_config("potential = poly\npoly_coeffs = 1,0,0\nwells = 0,0.5,1\n")
    assert any("poly potential rejected" in e for e in exc.value.errors)


def test_config_builds_domain_objects():
    cfg = parse_config("elastic = identity\ninitial_profile = polynomial-bump\n"
                       "amplitude = 0.5\nbody_force = sine\n")
    assert isinstance(cfg.elastic_tensor(), cf.ElasticTensor)
    field = cfg.initial_field()
    assert field.values[0] == 0.0
    b = cfg.body_force_field()
    assert b.shape == (cfg.n + 1, 3)
    assert np.max(np.abs(b[:, 0])) > 0.0


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return str(path)


SMALL = """
n = 64
t_end = 0.05
kappa = 0.1
initial_profile = sine
amplitude = {amp}
output_dir = {out}
"""


def test_run_zero_initial_data(tmp_path, capsys):
    cfg = _write(tmp_path, "zero.cfg", SMALL.format(amp=0.0, out=tmp_path / "z"))
    assert main(["run", cfg]) == 0
    snaps = (tmp_path / "z" / "snapshots.csv").read_text().splitlines()
    assert snaps[0] == SNAPSHOT_HEADER
    body = np.array([row.split(",")[2:] for row in snaps[1:]], dtype=float)
    assert np.all(body == 0.0)
    monitors = (tmp_path / "z" / "monitors.csv").read_text().splitlines()
    assert monitors[0] == MONITOR_HEADER
    mon_body = np.array([row.split(",")[1:] for row in monitors[1:]], dtype=float)
    # every estimate functional vanishes on the zero state except the
    # Hoelder cross-check column, whose integrand floors at kappa^2
    names = MONITOR_HEADER.split(",")[1:]
    aux = names.index("grad_weight_sq_cum")
    zero_cols = [j for j in range(len(names)) if j != aux]
    assert np.all(mon_body[:, zero_cols] == 0.0)
    t_final = float(monitors[-1].split(",")[0])
    expected_aux = 0.1 ** 2 * (64 - 1) / 64.0 * t_final
    assert mon_body[-1, aux] == pytest.approx(expected_aux, rel=1e-12)
    meta = json.loads((tmp_path / "z" / "meta.json").read_text())
    assert meta["verdicts"]["max_principle_ok"] is True


@pytest.mark.parametrize("coupling, truncated", [
    ("direct", False), ("mollified", True), ("picard", True)])
def test_meta_records_the_truncated_window_of_picard_runs(coupling, truncated, tmp_path):
    # a Picard sweep's table starts at t = 0, where the centered window
    # reaches before the start; a mollified run's causal window is cut to
    # [0, t] at every t < kappa
    cfg = _write(tmp_path, "run.cfg", SMALL.format(amp=0.8, out=tmp_path / "m")
                 + f"coupling = {coupling}\nmollify_table = 9\nmollify_samples = 9\n")
    assert main(["run", cfg]) == 0
    meta = json.loads((tmp_path / "m" / "meta.json").read_text())
    assert meta["mollifier_truncated"] is truncated


def test_picard_run_that_does_not_contract_exits_2(tmp_path, monkeypatch, capsys):
    distances = iter([1e-3, 2e-3])
    monkeypatch.setattr(solver, "trajectory_l2_distance", lambda new, old: next(distances))
    cfg = _write(tmp_path, "run.cfg", SMALL.format(amp=0.8, out=tmp_path / "p")
                 + "coupling = picard\n")
    assert main(["run", cfg]) == 2
    err = capsys.readouterr().err
    assert "solver abort: Picard sweeps do not contract" in err
    assert "sweep 2 distance 0.002 >= sweep 1 distance 0.001" in err
    assert not (tmp_path / "p" / "meta.json").exists()


@pytest.mark.parametrize("amp, sweeps, distances", [
    (0.0, 2, [0.0, 0.0]), (0.8, 0, [])], ids=["zero-data", "no-sweep"])
def test_meta_records_the_picard_distances(amp, sweeps, distances, tmp_path):
    # zero data is the fixed point, and no sweep measures no distance
    cfg = _write(tmp_path, "run.cfg", SMALL.format(amp=amp, out=tmp_path / "p")
                 + f"coupling = picard\npicard_sweeps = {sweeps}\n")
    assert main(["run", cfg]) == 0
    meta = json.loads((tmp_path / "p" / "meta.json").read_text())
    assert meta["picard_distances"] == distances
    assert meta["mollifier_truncated"] is (sweeps > 0)


def test_run_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL.format(amp=0.8, out=tmp_path / "a"))
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--output", str(tmp_path / "b")]) == 0
    for name in ("snapshots.csv", "monitors.csv", "meta.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2, name


def _snapshots_per_value(traj, corr, op):
    """snapshots.csv formatted value by value with _fmt (the oracle), with
    the displacement of each snapshot from ``assemble_displacement`` alone."""
    x = traj.grid.x
    lines = [SNAPSHOT_HEADER]
    for i, t in enumerate(traj.times):
        s_eff = traj.s_eff[i] if traj.s_eff is not None else traj.values[i]
        u = cf.assemble_displacement(s_eff, corr, op)
        td = traj.tdot_eps[i]
        row = traj.values[i]
        for j in range(x.size):
            lines.append(",".join((_fmt(t), _fmt(x[j]), _fmt(row[j]), _fmt(u[j, 0]),
                                   _fmt(u[j, 1]), _fmt(u[j, 2]), _fmt(td[j]))))
    return ("\n".join(lines) + "\n").encode("utf-8")


def _solved(traj, params, b_field):
    """The correction and the operator of a run, solved anew from its
    parameters and body force."""
    op = cf.ElasticityOperator.from_params(traj.grid, params)
    return cf.solve_correction(b_field, op), op


@pytest.fixture
def formatter_path(request, monkeypatch):
    """The CSV writers on the compiled code, or on Python stand-ins in its
    place (``repr_rows`` for the row formatter; for the snapshot pass,
    ``oracles.snapshot_rows``: numpy's displacement through ``repr_rows``),
    which tell a fault of the writers' blocks from one of the compiled
    code; with the list of the (rows, columns) of each text block written,
    one per call of the C code."""
    shapes = []

    def record(text):
        lines = bytes(text).splitlines()
        shapes.append((len(lines), lines[0].count(b",") + 1))
        return text

    if request.param == "python":
        def rows(matrix):
            return repr_rows(matrix).encode()
        snapshots = snapshot_rows
    else:
        rows, snapshots = _native.format_rows, _native.snapshot_rows
    monkeypatch.setattr(_native, "format_rows", lambda matrix: record(rows(matrix)))
    monkeypatch.setattr(_native, "snapshot_rows",
                        lambda traj, spans: map(record, snapshots(traj, spans)))
    return shapes


WRITER_CASES = {
    "direct": "n = 32\nt_end = 0.01\nsnapshot_interval = 0.00125\n",
    "mollified": "n = 32\nt_end = 0.01\nsnapshot_interval = 0.00125\ncoupling = mollified\n",
    # 30 snapshots of 201 nodes: one full block and a short one
    "ragged": "n = 200\nt_end = 0.0029\nsnapshot_interval = 0.0001\n",
    # one snapshot (7 x 5001 values) is wider than a block
    "wide": "n = 5000\nt_end = 1e-06\nsnapshot_interval = 5e-07\n",
    # a shear misfit strain, non-default Lame constants and a constant body
    # force: w, u2 and u3 are nonzero
    "elastic-shear": ("n = 32\nt_end = 0.01\nsnapshot_interval = 0.00125\n"
                      "lame_lambda = 2.0\nlame_mu = 0.5\n"
                      "epsbar = 0.3, -0.2, 0.1, 0.4, -0.25, 0.15\n"
                      "body_force = constant\nbody_force_vector = 0.5, -0.25, 1.0\n"),
}


def _writer_run(case):
    cfg = parse_config(WRITER_CASES[case] + "kappa = 0.1\ninitial_profile = smoothed-step\n")
    params = cfg.model_params()
    b = cfg.body_force_field()
    traj, _ = cf.run(cfg.initial_field(), params, cfg.solver_config(), b=b)
    return traj, params, b


@pytest.mark.parametrize(
    "case, formatter_path",
    [(c, p) for p in ("compiled", "python") for c in WRITER_CASES],
    ids=[c + s for s in ("", "-python") for c in WRITER_CASES],
    indirect=["formatter_path"])
def test_snapshot_writer_matches_per_value_format(case, formatter_path, tmp_path):
    traj, params, b = _writer_run(case)
    assert (traj.s_eff is not None) == (case == "mollified")
    if traj.s_eff is not None:
        assert not np.array_equal(traj.s_eff, traj.values)
    corr, op = _solved(traj, params, b)
    if case == "elastic-shear":
        assert np.all(op.u_star[1:] != 0.0) and np.all(corr.w[1:-1] != 0.0)
    _write_snapshots(tmp_path / "snapshots.csv", traj)
    assert (tmp_path / "snapshots.csv").read_bytes() == _snapshots_per_value(traj, corr, op)
    # each text block holds the rows of whole snapshots, at most
    # CSV_BLOCK_VALUES values or else one snapshot; all blocks but the last
    # are full, and together they hold every row (in order, by the bytes
    # above)
    n_snaps, n_nodes = traj.values.shape
    per_block = max(1, cli.CSV_BLOCK_VALUES // (7 * n_nodes))
    assert formatter_path == [(min(per_block, n_snaps - lo) * n_nodes, 7)
                              for lo in range(0, n_snaps, per_block)]
    assert all(rows * 7 <= cli.CSV_BLOCK_VALUES or rows == n_nodes
               for rows, _ in formatter_path)
    if case == "ragged":
        assert n_snaps % per_block and len(formatter_path) == 2
    if case == "wide":
        assert 7 * n_nodes > cli.CSV_BLOCK_VALUES and len(formatter_path) == n_snaps > 1


def test_snapshot_writer_keeps_negative_zeros(tmp_path):
    # the running trapezoid starts from its first term, as numpy's cumsum
    # does: at node 1 of the first snapshot it is -0.0, the profile there is
    # -0.0 - ramp * 0.0 = -0.0, and -0.0 * u_star[0] + w = -0.0 reaches
    # u1 (a sum started from 0.0 would write 0.0)
    grid = cf.Grid(0.0, 1.0, 8)
    values = np.zeros((3, grid.n_nodes))
    values[0, :2] = -0.0
    values[1] = np.sin(np.arange(grid.n_nodes))
    values[1, 3] = -0.0
    values[2, ::2] = -0.0
    tdot = np.cos(np.arange(3.0 * grid.n_nodes)).reshape(3, -1)
    tdot[:, 0] = -0.0
    u_star, w = np.array([1.0, -2.0, 0.5]), np.full((grid.n_nodes, 3), -0.0)
    traj = cf.Trajectory(grid, [0.0, 0.25, 0.5], values, tdot_eps=tdot,
                         displacement=(u_star, w))
    _write_snapshots(tmp_path / "snapshots.csv", traj)
    written = (tmp_path / "snapshots.csv").read_bytes()
    assert written == _snapshots_per_value(traj, *displacement_parts(grid, u_star, w))
    first = written.splitlines()[2].split(b",")  # snapshot 0, node 1
    assert first[2:4] == [b"-0.0", b"-0.0"]


def test_snapshot_writer_solves_no_elasticity(monkeypatch, tmp_path):
    # the writer reads the run's (u_star, w) and assembles the displacement
    # in C: building the operator, solving the correction or assembling in
    # numpy would raise here
    traj, params, b = _writer_run("elastic-shear")
    want = _snapshots_per_value(traj, *_solved(traj, params, b))

    def refuse(*args, **kwargs):
        raise AssertionError("the snapshot writer called the elasticity solve")

    for module in (cf.elasticity, cf.solver, cli, cf):
        for name in ("solve_correction", "assemble_displacement"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, refuse)
    monkeypatch.setattr(cf.ElasticityOperator, "from_params", refuse)
    _write_snapshots(tmp_path / "snapshots.csv", traj)
    assert (tmp_path / "snapshots.csv").read_bytes() == want


@pytest.mark.parametrize("formatter_path", ["compiled", "python"], indirect=True)
def test_monitor_writer_matches_per_value_format(formatter_path, tmp_path):
    rng = np.random.default_rng(3)
    columns = {name: rng.standard_normal(6) * 10.0 ** rng.integers(-8, 20, 6)
               for name in cf.MonitorSeries.COLUMNS}
    columns["energy"][:3] = [np.inf, -np.inf, np.nan]
    columns["sup_abs"][1] = -0.0
    columns["dissipation_cum"][2] = 0.0
    monitors = cf.MonitorSeries(**columns, kappa=0.1, n_steps=5, sup_abs_run=1.0,
                                st_l2_sq_max=1.0, max_abs_s0=1.0,
                                max_principle_ok=True, elasticity_residual=0.0)
    _write_monitors(tmp_path / "monitors.csv", monitors)
    lines = [MONITOR_HEADER] + [
        ",".join(_fmt(columns[name][i]) for name in cf.MonitorSeries.COLUMNS)
        for i in range(6)]
    written = (tmp_path / "monitors.csv").read_bytes()
    assert written == ("\n".join(lines) + "\n").encode("utf-8")
    assert all(v in written for v in (b",inf,", b",-inf,", b",nan,", b",-0.0,"))
    assert formatter_path == [(6, 11)]


def test_run_max_principle_holds(tmp_path):
    cfg = _write(tmp_path, "std.cfg",
                 "n = 100\nt_end = 0.2\nkappa = 0.05\n"
                 f"output_dir = {tmp_path / 'mp'}\n")
    assert main(["run", cfg]) == 0
    monitors = (tmp_path / "mp" / "monitors.csv").read_text().splitlines()
    sup = np.array([float(r.split(",")[1]) for r in monitors[1:]])
    assert np.max(sup) <= 1.0 + 1e-10


def test_run_exit_codes(tmp_path):
    bad = _write(tmp_path, "bad.cfg", "kappa = 7\n")
    assert main(["run", bad]) == 1
    blow = _write(tmp_path, "blow.cfg",
                  f"n = 64\nt_end = 0.05\ndt_override = 0.001\n"
                  f"initial_profile = smoothed-step\noutput_dir = {tmp_path / 'x'}\n")
    assert main(["run", blow]) == 2
    assert main(["run", str(tmp_path / "missing.cfg")]) == 4


@pytest.mark.parametrize("command, kappa, kappas", [
    ("run", "1e-170", None),
    ("run", "1e-160", None),  # kappa^2 is subnormal
    ("sweep", "0.1", "0.2,0.1,1e-170"),
])
def test_a_kappa_whose_square_is_not_normal_exits_1(command, kappa, kappas, tmp_path, capsys):
    # unchecked, this run exits 0 with a reciprocal_cum of inf at 1e-170
    # and 2.5e158 at 1e-160
    cfg = _write(tmp_path, "k.cfg", SMALL.format(amp=0.8, out=tmp_path / "k").replace(
        "kappa = 0.1", f"kappa = {kappa}"))
    argv = [command, cfg] + ([f"--kappas={kappas}"] if kappas else [])
    assert main(argv) == 1
    assert capsys.readouterr().err == ("config error: kappa must be at least about 1.5e-154, "
                                       "so that kappa^2 is a normal double\n")
    assert not (tmp_path / "k").exists()


def test_diverging_run_emits_no_runtime_warning(tmp_path):
    # the last snapshot before the abort holds a huge but finite state,
    # whose squared norms overflow; the monitors record inf quietly
    blow = _write(tmp_path, "blow.cfg",
                  f"n = 64\nt_end = 0.05\ndt_override = 0.001\n"
                  f"initial_profile = smoothed-step\noutput_dir = {tmp_path / 'x'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", blow]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]


def test_diverging_run_aborts_on_both_engines_without_runtime_warning(tmp_path):
    # a step size far past the stable limit: the state overflows on step 7,
    # and the compiled loop and the numpy reference abort there instead of
    # warning about the overflow
    text = "n = 64\nkappa = 0.1\nt_end = 0.05\ndt_override = 0.001\n"
    cfg = parse_config(text)
    for engine in engines():
        with warnings.catch_warnings(record=True) as caught, engine:
            warnings.simplefilter("always")
            with pytest.raises(SolverAbort, match="non-finite state") as info:
                cf.run(cfg.initial_field(), cfg.model_params(),
                       cf.SolverConfig(dt_override=cfg.dt_override))
        assert info.value.step == 7, engine
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
            (engine, [str(w.message) for w in caught])
    blow = _write(tmp_path, "blow.cfg", text + f"output_dir = {tmp_path / 'x'}\n")
    assert main(["run", blow]) == 2


def test_a_non_finite_start_aborts_on_step_1_without_runtime_warning(tmp_path, capsys):
    # nu = 1e307 overflows the right-hand side of the initial state: the
    # first row's ||S_t||^2 is not finite, and the loop's own check ends the
    # run on step 1, with no warning on the way
    start = _write(tmp_path, "start.cfg",
                   f"n = 32\nnu = 1e307\ninitial_profile = sine\namplitude = 10\n"
                   f"output_dir = {tmp_path / 'x'}\n")
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["run", start]) == 2
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)], \
        [str(w.message) for w in caught]
    err = capsys.readouterr().err
    assert re.fullmatch(r"solver abort: non-finite state \(t=[^,]+, step 1\)\n", err), err


def test_sweep_single_kappa(tmp_path):
    cfg = _write(tmp_path, "s1.cfg", SMALL.format(amp=0.8, out=tmp_path / "s1"))
    assert main(["sweep", cfg, "--kappas", "0.1"]) == 0
    rows = (tmp_path / "s1" / "sweep.csv").read_text().splitlines()
    assert rows[0] == SWEEP_HEADER
    assert len(rows) == 2
    assert rows[1].startswith("0.1,ok,")


def test_sweep_writes_report_and_subdirs(tmp_path):
    cfg = _write(tmp_path, "s2.cfg",
                 "n = 64\nt_end = 0.15\ninitial_profile = smoothed-step\n"
                 f"amplitude = 1.0\noutput_dir = {tmp_path / 's2'}\n")
    assert main(["sweep", cfg, "--kappas", "0.2,0.1,0.05"]) == 0
    rows = (tmp_path / "s2" / "sweep.csv").read_text().splitlines()
    assert len(rows) == 4
    meta = json.loads((tmp_path / "s2" / "sweep_meta.json").read_text())
    assert set(meta["uniformity"]) == set(cf.MonitorSeries.UNIFORMITY_KEYS)
    for kap in ("0.2", "0.1", "0.05"):
        assert (tmp_path / "s2" / f"kappa_{kap}" / "monitors.csv").exists()
    # compactness column strictly decreasing on this small suite
    comp = [float(r.split(",")[13]) for r in rows[1:3]]
    assert comp[1] < comp[0]


def test_sweep_deterministic(tmp_path):
    cfg1 = _write(tmp_path, "sd.cfg", SMALL.format(amp=0.8, out=tmp_path / "d1"))
    assert main(["sweep", cfg1, "--kappas", "0.2,0.1"]) == 0
    assert main(["sweep", cfg1, "--kappas", "0.2,0.1", "--output",
                 str(tmp_path / "d2")]) == 0
    assert ((tmp_path / "d1" / "sweep.csv").read_bytes()
            == (tmp_path / "d2" / "sweep.csv").read_bytes())


def _sweep_failing_at(kappa, kappas, tmp_path, monkeypatch, capsys):
    """sim sweep over ``kappas`` with the run at ``kappa`` forced to fail:
    its exit code, the rows of sweep.csv split at commas, the other runs'
    trajectories by kappa, and the lines it wrote to stderr."""
    import cfphase.convergence as convergence

    trajs = {}
    real_run = convergence.run

    def run_or_fail(s0, params, config, b=None):
        if params.kappa == kappa:
            raise cf.SolverAbort("forced failure", t=0.0, step=0)
        traj, monitors = real_run(s0, params, config, b=b)
        trajs[params.kappa] = traj
        return traj, monitors

    monkeypatch.setattr(convergence, "run", run_or_fail)
    out = tmp_path / "sf"
    cfg = _write(tmp_path, "sf.cfg", SMALL.format(amp=0.8, out=out))
    capsys.readouterr()
    code = main(["sweep", cfg, "--kappas", kappas])
    rows = [r.split(",") for r in
            (out / "sweep.csv").read_text().splitlines()[1:]]
    return code, rows, trajs, capsys.readouterr().err.splitlines()


def _failure_lines(kappa):
    """What sim sweep writes to stderr when only the run at ``kappa``
    fails: that entry's error, then the exit reason."""
    return [f"sweep entry kappa={kappa!r} failed: forced failure (t=0.0, step 0)",
            "sweep finished with failed entries"]


def _assert_distances(row, pair):
    assert row[13] == _fmt(cf.compactness_distance(*pair))
    assert row[14] == _fmt(flux_distance(*pair))


def test_sweep_distances_stay_on_their_rows_after_a_failed_kappa(
        tmp_path, monkeypatch, capsys):
    code, rows, trajs, err = _sweep_failing_at(0.2, "0.2,0.1,0.05,0.025",
                                               tmp_path, monkeypatch, capsys)
    assert code == 5
    assert err == _failure_lines(0.2)
    assert [r[:2] for r in rows] == [["0.2", "failed"], ["0.1", "ok"],
                                     ["0.05", "ok"], ["0.025", "ok"]]
    for row, (ka, kb) in zip(rows[1:3], [(0.1, 0.05), (0.05, 0.025)]):
        _assert_distances(row, (trajs[ka], trajs[kb]))
    assert rows[0][13:] == ["", ""]
    assert rows[3][13:] == ["", ""]


def test_sweep_distances_skip_the_pairs_of_a_failed_middle_kappa(
        tmp_path, monkeypatch, capsys):
    # 0.1's gradient transforms, computed for its pair with 0.2, must not
    # pair with 0.025 across the failed 0.05
    code, rows, trajs, err = _sweep_failing_at(
        0.05, "0.2,0.1,0.05,0.025,0.0125", tmp_path, monkeypatch, capsys)
    assert code == 5
    assert err == _failure_lines(0.05)
    assert [r[1] for r in rows] == ["ok", "ok", "failed", "ok", "ok"]
    for row, (ka, kb) in zip((rows[0], rows[3]), [(0.2, 0.1), (0.025, 0.0125)]):
        _assert_distances(row, (trajs[ka], trajs[kb]))
    for row in (rows[1], rows[2], rows[4]):
        assert row[13:] == ["", ""]


def test_sweep_bad_kappas(tmp_path):
    cfg = _write(tmp_path, "sb.cfg", SMALL.format(amp=0.8, out=tmp_path / "sb"))
    assert main(["sweep", cfg, "--kappas", "0.1,0.2"]) == 1
    assert main(["sweep", cfg, "--kappas", "zebra"]) == 1


def test_sweep_rejects_kappas_that_share_an_output_directory(tmp_path, capsys):
    # both values print as 0.1 under :g, so both runs would write kappa_0.1/
    cfg = _write(tmp_path, "sc.cfg", SMALL.format(amp=0.8, out=tmp_path / "sc"))
    assert main(["sweep", cfg, "--kappas", "0.1000001,0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("config error:") and "kappa_0.1" in err
    assert not (tmp_path / "sc").exists()


def test_mms_command(tmp_path, capsys):
    cfg = _write(tmp_path, "m.cfg",
                 f"mms_grids = 24,48\nmms_t_end = 0.02\nkappa = 0.2\n"
                 f"output_dir = {tmp_path / 'm'}\n")
    assert main(["mms", cfg]) == 0
    rows = (tmp_path / "m" / "mms.csv").read_text().splitlines()
    assert rows[0] == MMS_HEADER
    assert len(rows) == 3
    order = float(rows[2].split(",")[2])
    assert order > 0.5
    out = capsys.readouterr().out
    assert MMS_HEADER in out


@pytest.mark.parametrize("kappas", ["", " , "], ids=["empty", "blank"])
def test_sweep_rejects_an_empty_kappa_list(kappas, tmp_path, capsys):
    # an empty sweep would write a header-only sweep.csv and call its
    # distances decreasing
    cfg = _write(tmp_path, "se.cfg", SMALL.format(amp=0.8, out=tmp_path / "se"))
    assert main(["sweep", cfg, f"--kappas={kappas}"]) == 1
    assert capsys.readouterr().err == "config error: the kappa list is empty\n"
    assert not (tmp_path / "se").exists()
    with pytest.raises(ValueError, match="the kappa list is empty"):
        cf.kappa_sweep(cf.make_initial_profile("sine", 0.8, cf.Grid(0.0, 1.0, 16)),
                       parse_config("").model_params(), [], cf.SolverConfig())


# a step five times past the stable limit: the state grows without bound
# but stays finite up to t_end, so the run ends with a breached maximum
# principle instead of an abort
BREACH = ("n = 50\ninitial_profile = sine\nt_end = 0.004\ndt_override = 8e-4\n"
          "snapshot_interval = 0.001\n")
MMS_SMALL = "mms_grids = 25,50\nmms_t_end = 0.02\n"
TINY = "n = 16\nt_end = 0.001\n"


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_a_breached_maximum_principle_exits_3_after_writing(command, tmp_path, capsys):
    cfg = _write(tmp_path, "mp.cfg", BREACH)
    out = tmp_path / "out"
    assert main([command, cfg, "--output", str(out)]) == 3
    first = capsys.readouterr().err.splitlines()[0]
    if command == "run":
        prefix = "invariant violation: max principle breached by "
        assert first.startswith(prefix) and float(first[len(prefix):]) > 0.0
        assert (out / "meta.json").exists()
    else:
        assert first == "invariant violation: max principle breached in sweep"
        assert (out / "sweep.csv").exists()


def test_mms_whose_run_aborts_exits_2(tmp_path, capsys):
    cfg = _write(tmp_path, "mms.cfg", MMS_SMALL + "dt_override = 0.01\n")
    out = tmp_path / "out"
    assert main(["mms", cfg, "--output", str(out)]) == 2
    assert capsys.readouterr().err.splitlines()[0] == (
        "solver abort: non-finite state (t=0.005703125, step 73)")
    assert not out.exists()


@pytest.mark.parametrize("command, text", [("run", TINY), ("sweep", TINY),
                                           ("mms", MMS_SMALL)])
def test_output_under_a_regular_file_exits_4(command, text, tmp_path, capsys):
    cfg = _write(tmp_path, "io.cfg", text)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = blocker / "out"
    assert main([command, cfg, "--output", str(out)]) == 4
    first = capsys.readouterr().err.splitlines()[0]
    assert first.startswith("i/o failure: ") and str(out) in first
