"""Command-line driver: single runs, regularization sweeps, and
manufactured-solution order reports, with deterministic CSV/JSON emission.

Exit codes: 0 success, 1 configuration error, 2 solver abort, 3 invariant
violation (maximum-principle breach), 4 I/O failure, 5 partial sweep failure,
6 compiled library unavailable.  Every command needs the compiled library
(``_native``), which ``main`` loads once, after the config parses and before
the command runs.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import _native
from .config import ConfigError, RunConfig, parse_config
from .convergence import kappa_sweep, manufactured_run
from .estimates import MonitorSeries
from .mollifier import BUMP_MASS
from .solver import SolverAbort, run

SNAPSHOT_HEADER = "t,x,S,u1,u2,u3,T_dot_epsbar"
MONITOR_HEADER = ",".join(MonitorSeries.COLUMNS)
SWEEP_HEADER = ("kappa,status,sup_abs_run,max_principle_margin,"
                "dissipation_cum,reciprocal_cum,st_l2_sq_max,p43_cum,"
                "grad_linf83_cum,energy_final,reaction_gap_l2,"
                "reaction_gap_bound,weak_residual_max,"
                "compactness_dist_to_next,flux_dist_to_next")
MMS_HEADER = "n,l2q_error,observed_order"


def _fmt(x) -> str:
    """Shortest round-trip decimal form; deterministic across reruns."""
    return repr(float(x))


def _write_text(path: Path, text: str):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def _write_csv(path: Path, header: str, texts):
    """The header line, then each CSV text of ``texts`` in order, as the
    compiled formatters give them (the snapshot pass one block at a time,
    each in a buffer that the next one reuses)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "wb") as fh:
        fh.write(header.encode() + b"\n")
        for text in texts:
            fh.write(text)


# values per block of snapshots.csv: the writer formats this many at a time
# (about 23 snapshots at N=200), in a buffer it reuses, so its memory does
# not grow with the run; smaller blocks cost more in per-block Python than
# they save
CSV_BLOCK_VALUES = 32768


def _write_snapshots(path: Path, traj):
    """The (t, x, S, u1, u2, u3, T:epsbar) rows of every snapshot of the
    run's trajectory, node by node, written by the compiled pass over the
    run's arrays in blocks of whole snapshots: about ``CSV_BLOCK_VALUES``
    values, and at least one snapshot."""
    n_rows, n_nodes = traj.values.shape
    step = max(1, CSV_BLOCK_VALUES // (7 * n_nodes))
    spans = ((lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step))
    _write_csv(path, SNAPSHOT_HEADER, _native.snapshot_rows(traj, spans))


def _write_monitors(path: Path, monitors: MonitorSeries):
    _write_csv(path, MONITOR_HEADER, [_native.format_rows(np.column_stack(
        [getattr(monitors, name) for name in MonitorSeries.COLUMNS]))])


def _meta_payload(cfg: RunConfig, monitors: MonitorSeries):
    payload = {
        "config": {k: (list(v) if isinstance(v, tuple) else v)
                   for k, v in sorted(asdict(cfg).items())},
        "kernel_normalization": BUMP_MASS,
        "mollifier_truncated": monitors.mollifier_truncated,
        "verdicts": {
            "max_principle_ok": bool(monitors.max_principle_ok),
            "max_principle_margin": monitors.max_principle_margin,
            "sup_abs_run": monitors.sup_abs_run,
            "max_abs_s0": monitors.max_abs_s0,
            "elasticity_residual": monitors.elasticity_residual,
            "n_steps": monitors.n_steps,
        },
    }
    if monitors.picard_distances is not None:
        payload["picard_distances"] = list(monitors.picard_distances)
    return payload


def _write_meta(path: Path, payload: dict):
    _write_text(path, json.dumps(payload, indent=2, sort_keys=True,
                                 default=float) + "\n")


def _do_run(cfg: RunConfig, out_dir: Path) -> int:
    params = cfg.model_params()
    s0 = cfg.initial_field()
    b = cfg.body_force_field()
    try:
        traj, monitors = run(s0, params, cfg.solver_config(), b=b)
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 2
    try:
        _write_snapshots(out_dir / "snapshots.csv", traj)
        _write_monitors(out_dir / "monitors.csv", monitors)
        _write_meta(out_dir / "meta.json", _meta_payload(cfg, monitors))
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    if not monitors.max_principle_ok:
        print(f"invariant violation: max principle breached by "
              f"{monitors.max_principle_margin!r}", file=sys.stderr)
        return 3
    return 0


def _kappa_dir(kappa: float) -> str:
    return f"kappa_{kappa:g}"


def _do_sweep(cfg: RunConfig, kappas, out_dir: Path) -> int:
    names = [_kappa_dir(k) for k in kappas]
    for i, name in enumerate(names):
        if name in names[:i]:
            raise ValueError(f"kappas {kappas[names.index(name)]!r} and "
                             f"{kappas[i]!r} would both write {name}/")
    params = cfg.model_params()
    s0 = cfg.initial_field()
    b = cfg.body_force_field()
    report = kappa_sweep(s0, params, kappas, cfg.solver_config(), b=b)
    lines = [SWEEP_HEADER]
    breach = False
    for entry in report.entries:
        if not entry.ok:
            lines.append(",".join([_fmt(entry.kappa), "failed"] + [""] * 13))
            continue
        monitors = entry.monitors
        fin = monitors.finals()
        if not monitors.max_principle_ok:
            breach = True
        lines.append(",".join([
            _fmt(entry.kappa), "ok", _fmt(fin["sup_abs_run"]),
            _fmt(monitors.max_principle_margin),
            _fmt(fin["dissipation_cum"]), _fmt(fin["reciprocal_cum"]),
            _fmt(fin["st_l2_sq_max"]), _fmt(fin["p43_cum"]),
            _fmt(fin["grad_linf83_cum"]), _fmt(fin["energy_final"]),
            _fmt(entry.reaction_gap), _fmt(entry.reaction_gap_bound),
            _fmt(float(np.max(np.abs(entry.weak_residuals)))),
            *("" if d is None else _fmt(d)
              for d in (entry.compactness_dist_to_next,
                        entry.flux_dist_to_next)),
        ]))
    try:
        _write_text(out_dir / "sweep.csv", "\n".join(lines) + "\n")
        meta = {
            "kappas": list(report.kappas),
            "uniformity": report.uniformity,
            "compactness_distances_decreasing": report.distances_decreasing(),
            "kernel_normalization": BUMP_MASS,
        }
        _write_meta(out_dir / "sweep_meta.json", meta)
        for entry in report.entries:
            if entry.ok:
                sub = out_dir / _kappa_dir(entry.kappa)
                _write_monitors(sub / "monitors.csv", entry.monitors)
                _write_snapshots(sub / "snapshots.csv", entry.trajectory)
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    if not report.all_ok:
        for entry in report.entries:
            if not entry.ok:
                print(f"sweep entry kappa={_fmt(entry.kappa)} failed: {entry.error}",
                      file=sys.stderr)
        print("sweep finished with failed entries", file=sys.stderr)
        return 5
    if breach:
        print("invariant violation: max principle breached in sweep",
              file=sys.stderr)
        return 3
    return 0


def _do_mms(cfg: RunConfig, out_dir: Path) -> int:
    params = cfg.model_params(t_end=cfg.mms_t_end)
    try:
        report = manufactured_run(params, grid_sizes=cfg.mms_grids,
                                  config=cfg.solver_config())
    except SolverAbort as exc:
        print(f"solver abort: {exc}", file=sys.stderr)
        return 2
    lines = [MMS_HEADER]
    for i, n in enumerate(report.grid_sizes):
        order = _fmt(report.orders[i - 1]) if i > 0 else ""
        lines.append(",".join([str(n), _fmt(report.errors[i]), order]))
    try:
        _write_text(out_dir / "mms.csv", "\n".join(lines) + "\n")
    except OSError as exc:
        print(f"i/o failure: {exc}", file=sys.stderr)
        return 4
    for line in lines:
        print(line)
    return 0


def _load_config(path: str) -> RunConfig:
    text = Path(path).read_text(encoding="utf-8")
    return parse_config(text)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sim",
        description="1D phase-transition simulator: run, sweep, or verify")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="single simulation run")
    p_run.add_argument("config")
    p_run.add_argument("--output", default=None, help="override output_dir")

    p_sweep = sub.add_parser("sweep", help="regularization-width sweep")
    p_sweep.add_argument("config")
    p_sweep.add_argument("--kappas", default="0.2,0.1,0.05,0.025",
                         help="strictly decreasing comma list in (0,1]")
    p_sweep.add_argument("--output", default=None)

    p_mms = sub.add_parser("mms", help="manufactured-solution order report")
    p_mms.add_argument("config")
    p_mms.add_argument("--output", default=None)

    args = parser.parse_args(argv)
    try:
        cfg = _load_config(args.config)
    except ConfigError as exc:
        for err in exc.errors:
            print(f"config error: {err}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"cannot read config: {exc}", file=sys.stderr)
        return 4
    try:
        _native.chunk_loop()
    except _native.Unavailable as exc:
        print(f"compiled library unavailable: {exc}", file=sys.stderr)
        return 6

    out_dir = Path(args.output) if args.output else Path(cfg.output_dir)
    if args.command == "run":
        return _do_run(cfg, out_dir)
    if args.command == "sweep":
        try:
            kappas = [float(k) for k in args.kappas.split(",") if k.strip()]
        except ValueError:
            print(f"config error: cannot parse --kappas={args.kappas!r}",
                  file=sys.stderr)
            return 1
        try:
            return _do_sweep(cfg, kappas, out_dir)
        except ValueError as exc:
            print(f"config error: {exc}", file=sys.stderr)
            return 1
    return _do_mms(cfg, out_dir)


if __name__ == "__main__":
    sys.exit(main())
