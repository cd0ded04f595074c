"""Configuration parsing and the command-line driver: file emission,
determinism, and the exit-code contract."""

import json
import warnings

import numpy as np
import pytest

import cfphase as cf
from cfphase.cli import (MMS_HEADER, MONITOR_HEADER, SNAPSHOT_HEADER, SWEEP_HEADER,
                         _fmt, _write_snapshots, main)
from cfphase.config import ConfigError, parse_config


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


def test_run_deterministic_outputs(tmp_path):
    cfg = _write(tmp_path, "run.cfg", SMALL.format(amp=0.8, out=tmp_path / "a"))
    assert main(["run", cfg]) == 0
    assert main(["run", cfg, "--output", str(tmp_path / "b")]) == 0
    for name in ("snapshots.csv", "monitors.csv", "meta.json"):
        b1 = (tmp_path / "a" / name).read_bytes()
        b2 = (tmp_path / "b" / name).read_bytes()
        assert b1 == b2, name


def _snapshots_per_value(traj, params, b_field):
    """snapshots.csv formatted value by value with _fmt (the oracle)."""
    op = cf.ElasticityOperator.from_params(traj.grid, params)
    corr = cf.solve_correction(b_field, op)
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


@pytest.mark.parametrize("coupling", ["direct", "mollified"])
def test_snapshot_writer_matches_per_value_format(coupling, tmp_path):
    cfg = parse_config(f"n = 32\nt_end = 0.01\nkappa = 0.1\ncoupling = {coupling}\n"
                       "initial_profile = smoothed-step\nsnapshot_interval = 0.00125\n")
    params = cfg.model_params()
    b = cfg.body_force_field()
    traj, _ = cf.run(cfg.initial_field(), params, cfg.solver_config(), b=b)
    assert (traj.s_eff is not None) == (coupling == "mollified")
    if traj.s_eff is not None:
        assert not np.array_equal(traj.s_eff, traj.values)
    _write_snapshots(tmp_path / "snapshots.csv", traj, params, b)
    assert (tmp_path / "snapshots.csv").read_bytes() == _snapshots_per_value(traj, params, b)


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


def test_sweep_distances_stay_on_their_rows_after_a_failed_kappa(
        tmp_path, monkeypatch):
    import cfphase.convergence as convergence

    trajs = {}
    real_run = convergence.run

    def run_or_fail(s0, params, config, b=None):
        if params.kappa == 0.2:
            raise cf.SolverAbort("forced failure")
        traj, monitors = real_run(s0, params, config, b=b)
        trajs[params.kappa] = traj
        return traj, monitors

    monkeypatch.setattr(convergence, "run", run_or_fail)
    cfg = _write(tmp_path, "sf.cfg", SMALL.format(amp=0.8, out=tmp_path / "sf"))
    assert main(["sweep", cfg, "--kappas", "0.2,0.1,0.05,0.025"]) == 5
    rows = [r.split(",") for r in
            (tmp_path / "sf" / "sweep.csv").read_text().splitlines()[1:]]
    assert [r[:2] for r in rows] == [["0.2", "failed"], ["0.1", "ok"],
                                     ["0.05", "ok"], ["0.025", "ok"]]
    for row, (ka, kb) in zip(rows[1:3], [(0.1, 0.05), (0.05, 0.025)]):
        pair = trajs[ka], trajs[kb]
        assert row[13] == _fmt(cf.compactness_distance(*pair))
        assert row[14] == _fmt(cf.compactness_distance(
            *pair, gradient_transform=cf.signed_flux_transform))
    assert rows[0][13:] == ["", ""]
    assert rows[3][13:] == ["", ""]


def test_sweep_bad_kappas(tmp_path):
    cfg = _write(tmp_path, "sb.cfg", SMALL.format(amp=0.8, out=tmp_path / "sb"))
    assert main(["sweep", cfg, "--kappas", "0.1,0.2"]) == 1
    assert main(["sweep", cfg, "--kappas", "zebra"]) == 1


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
