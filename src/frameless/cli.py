"""Command-line surface: analyze, simulate, optimize, bounds, compare.

Every command reads a JSON config, writes CSV (canonical) plus a JSON
mirror into --out, and embeds the config hash, tool version, and seed in
each output so identical configs reproduce identical primary columns.

Exit codes: 0 success, 2 config error, 3 guard refusal (exact analysis
of more than 15 groups), 4 non-convergence / no feasible optimum.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import upper_bound_throughput
from .evolution import (
    evolve,
    make_engine,
    peak_search,
    simultaneous_transmission_degrees,
    transmission_probabilities,
)
from .optimizer import OptimizationSpec, optimize
from .simulator import RNG_ID, SimulationSpec, monte_carlo
from .topology import TargetDegreeVector, TopologyError, full_topology, load_topology
from .walkgraph import GuardError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_NONCONV = 4

MODES = ("coop", "noncoop", "bound")


class ConfigError(ValueError):
    """A config the commands cannot run: exit 2, naming the key at fault."""


# The default of a key that a command cannot run without.
REQUIRED = object()


def _int(v) -> int:
    if type(v) is not int:  # JSON true and 2.7 are not integers
        raise ValueError(f"must be an integer, got {v!r}")
    return v


def _float(v) -> float:
    if type(v) not in (int, float) or not math.isfinite(v):
        raise ValueError(f"must be a finite number, got {v!r}")
    return float(v)


def _list(item):
    def parse(v):
        if not isinstance(v, list):
            raise ValueError(f"must be a list, got {v!r}")
        return tuple(item(x) for x in v)
    return parse


def _by_count(value):
    """An object keyed by counts ("2") -> {int: value(...)}."""
    def parse(v):
        if not isinstance(v, dict):
            raise ValueError(f"must be an object, got {v!r}")
        if not all(k.isdecimal() for k in v):
            raise ValueError(f"must be keyed by counts, got {list(v)}")
        return {int(k): value(x) for k, x in v.items()}
    return parse


def _where(parse, test, what: str):
    def checked(v):
        v = parse(v)
        if not test(v):
            raise ValueError(f"must be {what}, got {v!r}")
        return v
    return checked


_counts = _where(_int, lambda v: v >= 1, ">= 1")
_floats = _list(_float)
_frame_lengths = _where(_list(_int), lambda ts: ts and min(ts) >= 1,
                        "a non-empty list of frame lengths >= 1")


def _fields(doc: dict, fields: dict) -> dict:
    """{key: parse(doc[key]), else default} for each key: (parse, default)
    of fields; a missing REQUIRED key or a failed parse is a config error
    that names the key."""
    out = {}
    for key, (parse, default) in fields.items():
        if key not in doc and default is REQUIRED:
            raise ConfigError(f"missing key '{key}'")
        try:
            out[key] = parse(doc[key]) if key in doc else default
        except (TypeError, ValueError, OverflowError) as e:
            raise ConfigError(f"'{key}' {e}") from e
    return out


def _unknown(doc: dict, known):
    for key in doc:
        if key not in known:
            raise ConfigError(f"unknown key '{key}'")


T_GRID = {"start": (_int, REQUIRED), "stop": (_int, REQUIRED), "num": (_int, 41)}


def _t_grid(v) -> tuple[int, ...]:
    if not isinstance(v, dict):
        raise ValueError(f"must be an object, got {v!r}")
    _unknown(v, T_GRID)
    g = _fields(v, T_GRID)
    ts = np.linspace(g["start"], g["stop"], g["num"]).round().astype(int)
    return _frame_lengths(np.unique(ts).tolist())


# Every config key: its parser and, per command that reads it, its default.
A, S, O, B, C = "analyze", "simulate", "optimize", "bounds", "compare"
SCHEMA = {
    "topology": (lambda v: load_topology(json.dumps(v)),
                 {A: REQUIRED, S: REQUIRED, O: REQUIRED, C: REQUIRED}),
    "degrees": (_floats, {A: REQUIRED, S: None, C: REQUIRED}),
    "mode": (_where(lambda v: v, lambda v: v in MODES, f"one of {', '.join(MODES)}"),
             {A: "coop", O: "coop"}),
    "alpha": (_float, {S: 0.8, O: 0.8, B: 0.8}),
    "trials": (_counts, {S: 100, C: 10}),
    "t": (_int, {S: None}),
    "slot_cap": (_int, {S: None}),
    "replica_dist": (lambda v: tuple(sorted(_by_count(_float)(v).items())),
                     {S: None, C: ((2, 1.0),)}),
    "trace_t": (_counts, {A: None}),
    "t_values": (_frame_lengths, {A: None}),
    "t_grid": (_t_grid, {A: None}),
    "tie_classes": (lambda v: _list(_list(_int))(v) if v else None, {O: None}),
    "bounds": (_floats, {O: (0.0, 4.0)}),
    "population": (_int, {O: 300}),
    "mutant_factor": (_float, {O: 0.2}),
    "generations": (_int, {O: 30}),
    "crossover_rate": (_float, {O: 0.9}),
    "m_values": (_where(_list(_int), bool, "a non-empty list"), {B: (1, 2, 3, 4)}),
    "num_users_per_group": (_counts, {B: 10000}),
    "noncoop_degree": (_where(_float, lambda g: g > 0, "> 0"), {B: 3.098}),
    "exact_degrees": (_by_count(_floats), {B: {}}),
    "bound_population": (_int, {B: 30}),
    "bound_generations": (_int, {B: 10}),
    "gbar_values": (_where(_floats, lambda gs: gs and min(gs) > 0,
                           "a non-empty list of values > 0"),
                    {C: (0.5, 0.6, 0.7, 0.75, 0.8, 0.9)}),
}


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as e:
        raise ConfigError(f"cannot read config: {e}") from e
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigError(f"config is not valid JSON: {e}") from e
    if not isinstance(doc, dict):
        raise ConfigError("config root must be an object")
    _unknown(doc, SCHEMA)
    return doc


def _config(path: str, command: str) -> tuple[dict, dict]:
    """The config document, and every key `command` reads, parsed (else its
    default)."""
    doc = _load_config(path)
    fields = {k: (parse, d[command]) for k, (parse, d) in SCHEMA.items() if command in d}
    return doc, _fields(doc, fields)


def config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


@contextmanager
def _spec_checks():
    """The library's spec objects check their own settings: a ValueError
    they raise is a config error."""
    try:
        yield
    except ValueError as e:
        raise ConfigError(str(e)) from e


def _provenance(doc: dict, args) -> dict:
    return {"tool_version": __version__, "config_hash": config_hash(doc), "seed": args.seed}


def _meta_lines(doc: dict, args, extra=None) -> list[str]:
    meta = {**_provenance(doc, args), "rng": RNG_ID, **(extra or {})}
    return [f"# {k}={v}" for k, v in meta.items()]


def _write(path: Path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _emit_json(path: Path, doc: dict, payload: dict, args):
    full = {**_provenance(doc, args), **payload}
    _write(path, [json.dumps(full, indent=2, sort_keys=True)])


def _table_lines(doc: dict, args, cols, rows) -> list[str]:
    """Provenance, a header of cols, then one line per row dict (blank for
    a missing column); str of a Python float is its repr."""
    body = [",".join(str(row.get(c, "")) for c in cols) for row in rows]
    return _meta_lines(doc, args) + [",".join(cols), *body]


def _print_summary(payload: dict):
    for k, v in payload.items():
        print(f"{k}: {v}")


def cmd_analyze(args) -> int:
    doc, cfg = _config(args.config, "analyze")
    topology, degrees = cfg["topology"], cfg["degrees"]
    mode = args.mode or cfg["mode"]
    if args.trace and mode != "coop":
        raise ConfigError("--trace requires cooperative mode")
    with _spec_checks():  # before any table is built
        transmission_probabilities(topology, degrees, mode)
    t_vals = cfg["t_values"] if "t_values" in doc else cfg["t_grid"]
    if t_vals is None and args.grid_points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {args.grid_points}")
    out_dir = Path(args.out)
    engine = make_engine(topology, mode, cache_dir=args.cache_dir, workers=args.workers)
    peak = peak_search(
        topology, degrees, mode, engine=engine, t_grid=t_vals, points=args.grid_points
    )
    curve = peak.curve
    _write(
        out_dir / "curve.csv",
        _meta_lines(doc, args, {"mode": mode}) + [curve.header(), *curve.csv_rows()],
    )
    payload = {
        "mode": mode,
        "t_star": peak.t_star,
        "peak_throughput": peak.throughput,
        "plr_at_peak": peak.plr_avg,
        "success_fraction": peak.success_fraction,
        "converged": peak.converged,
        "n_evaluated": peak.n_evaluated,
    }
    _emit_json(out_dir / "peak.json", doc, payload, args)
    if args.trace:
        trace_t = cfg["trace_t"] or peak.t_star
        res = evolve(topology, degrees, trace_t, engine=engine, trace=True)
        n_groups = topology.num_groups
        header = "iteration," + ",".join(
            f"p_r{r}_g{i + 1}" for r in (0, 1) for i in range(n_groups)
        )
        rows = [
            ",".join([str(k + 1)] + [repr(float(v)) for v in (*r0, *r1)])
            for k, (r0, r1) in enumerate(zip(res.trace_r0, res.trace_r1))
        ]
        _write(
            out_dir / "trace.csv",
            _meta_lines(doc, args, {"trace_t": trace_t}) + [header, *rows],
        )
    _print_summary(payload)
    return EXIT_OK if peak.converged else EXIT_NONCONV


def cmd_simulate(args) -> int:
    doc, cfg = _config(args.config, "simulate")
    # The frame kind follows from the config's keys: a replica distribution
    # means the framed baseline, a frame length a fixed-length frame.
    mode = "spatio" if "replica_dist" in doc else "fixed" if "t" in doc else "frameless"
    with _spec_checks():
        spec = SimulationSpec(
            topology=cfg["topology"],
            mode=mode,
            degrees=cfg["degrees"],
            alpha=cfg["alpha"],
            t_slots=cfg["t"],
            slot_cap=cfg["slot_cap"],
            replica_dist=cfg["replica_dist"],
            master_seed=args.seed,
        )
    result = monte_carlo(spec, cfg["trials"], workers=args.workers)
    out_dir = Path(args.out)
    _write(
        out_dir / "trials.csv",
        _meta_lines(doc, args, {"mode": mode})
        + [result.csv_header(), *result.csv_rows()],
    )
    payload = result.summary()
    _emit_json(out_dir / "aggregate.json", doc, payload, args)
    _print_summary({k: payload[k] for k in ("mean_throughput", "stderr_throughput",
                                            "mean_plr", "mean_t")})
    return EXIT_OK


def cmd_optimize(args) -> int:
    doc, cfg = _config(args.config, "optimize")
    with _spec_checks():  # every key optimize reads is a field of the spec
        spec = OptimizationSpec(**cfg, cache_dir=args.cache_dir)
    topology = spec.topology
    result = optimize(spec, seed=args.seed, workers=args.workers, fast=args.fast)
    out_dir = Path(args.out)
    payload = result.summary()
    _emit_json(out_dir / "optimum.json", doc, payload, args)
    gcols = ",".join(f"g{i+1}" for i in range(topology.num_groups))
    gvals = ",".join(f"{v:.4f}" for v in result.best_g)
    _write(
        out_dir / "optimum.csv",
        _meta_lines(doc, args)
        + [f"{gcols},t_star,throughput,feasible", f"{gvals},{result.t_star},{result.throughput!r},{int(result.feasible)}"],
    )
    _print_summary({"best_g": [round(v, 4) for v in result.best_g],
                    "throughput": result.throughput, "t_star": result.t_star,
                    "feasible": result.feasible})
    return EXIT_OK if result.feasible else EXIT_NONCONV


def cmd_bounds(args) -> int:
    doc, cfg = _config(args.config, "bounds")
    m_values, exact = cfg["m_values"], cfg["exact_degrees"]
    with _spec_checks():  # every M's DE settings and exact degrees, before any work
        bound_specs = {
            m: OptimizationSpec(
                full_topology(m, [cfg["num_users_per_group"]] * (2**m - 1)), cfg["alpha"],
                "bound", population=cfg["bound_population"],
                generations=cfg["bound_generations"])
            for m in m_values
        }
        for m, g in exact.items():
            if m not in bound_specs:
                raise ConfigError(f"'exact_degrees' names M={m}, which 'm_values' does not list")
            TargetDegreeVector(g).probabilities(bound_specs[m].topology)
    rows = []
    for m in m_values:
        bound_spec = bound_specs[m]
        topology = bound_spec.topology
        g_nc = simultaneous_transmission_degrees(topology, cfg["noncoop_degree"])
        pk_nc = peak_search(topology, g_nc, "noncoop")
        s_up = upper_bound_throughput(m)
        row = {
            "m": m,
            "s_noncoop": pk_nc.throughput,
            "s_upper": s_up,
            "gamma_upper": s_up / pk_nc.throughput,
        }
        opt_b = optimize(bound_spec, seed=args.seed, workers=args.workers)
        row["s_lower"] = opt_b.throughput
        row["gamma_lower"] = opt_b.throughput / pk_nc.throughput
        if m in exact:
            pk_c = peak_search(topology, exact[m], "coop", cache_dir=args.cache_dir,
                               workers=args.workers)
            row["s_exact"] = pk_c.throughput
            row["gamma_exact"] = pk_c.throughput / pk_nc.throughput
        rows.append(row)
        print(
            f"M={m}: S_nc={row['s_noncoop']:.4f} S_lb={row['s_lower']:.4f} "
            f"S_ub={s_up:.3f}"
            + (f" S_exact={row['s_exact']:.4f}" if "s_exact" in row else "")
        )
    out_dir = Path(args.out)
    cols = ["m", "s_noncoop", "s_lower", "s_upper", "s_exact",
            "gamma_lower", "gamma_exact", "gamma_upper"]
    _write(out_dir / "bounds.csv", _table_lines(doc, args, cols, rows))
    _emit_json(out_dir / "bounds.json", doc, {"rows": rows}, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    doc, cfg = _config(args.config, "compare")
    topology, degrees = cfg["topology"], cfg["degrees"]
    n, m = topology.num_users, topology.num_bs
    t_values = [max(1, int(round(n / (m * gbar)))) for gbar in cfg["gbar_values"]]
    with _spec_checks():  # every frame of the sweep, before the first one runs
        specs = [(SimulationSpec(topology, "fixed", degrees, t_slots=t, master_seed=args.seed),
                  SimulationSpec(topology, "spatio", replica_dist=cfg["replica_dist"],
                                 t_slots=t, master_seed=args.seed + 1))
                 for t in t_values]
    p = np.array(TargetDegreeVector(degrees).probabilities(topology))
    weights = np.array([grp.num_users for grp in topology.groups]) / n
    rows = []
    for gbar, t, (spec_f, spec_b) in zip(cfg["gbar_values"], t_values, specs):
        mc_f = monte_carlo(spec_f, cfg["trials"], workers=args.workers)
        mc_b = monte_carlo(spec_b, cfg["trials"], workers=args.workers)
        floor = float(weights @ (1.0 - p) ** t)
        rows.append(
            {
                "gbar": gbar,
                "t": t,
                "frameless_throughput": mc_f.mean_throughput / m,
                "frameless_stderr": mc_f.stderr_throughput / m,
                "frameless_plr": mc_f.mean_plr,
                "baseline_throughput": mc_b.mean_throughput / m,
                "baseline_stderr": mc_b.stderr_throughput / m,
                "baseline_plr": mc_b.mean_plr,
                "plr_floor": floor,
                "delta_throughput": (mc_f.mean_throughput - mc_b.mean_throughput) / m,
            }
        )
        print(
            f"Gbar={gbar:.2f}: frameless={rows[-1]['frameless_throughput']:.4f} "
            f"baseline={rows[-1]['baseline_throughput']:.4f} "
            f"plr={rows[-1]['frameless_plr']:.3e}/{rows[-1]['baseline_plr']:.3e}"
        )
    out_dir = Path(args.out)
    _write(out_dir / "compare.csv", _table_lines(doc, args, list(rows[0]), rows))
    _emit_json(out_dir / "compare.json", doc, {"rows": rows}, args)
    return EXIT_OK


# Every flag a command may take; each command registers the ones it reads.
FLAGS = {
    "--config": dict(required=True, help="JSON config path"),
    "--seed": dict(type=int, default=0),
    "--workers": dict(type=int, default=1),
    "--out": dict(default="out", help="output directory"),
    "--fast": dict(action="store_true", help="scaled-down settings for smoke runs"),
    "--cache-dir": dict(help="retrievability table cache (default: "
                        "$FRAMELESS_CACHE_DIR or ~/.cache/frameless-aloha)"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="frameless-aloha",
        description="Frameless ALOHA with cooperating base stations: "
        "analysis, simulation, bounds, and target-degree optimization.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, flags):
        p = sub.add_parser(name, help=help)
        for flag in flags.split():
            p.add_argument(flag, **FLAGS[flag])
        p.set_defaults(func=func)
        return p

    run = "--config --seed --workers --out"
    p = command("analyze", cmd_analyze, "density-evolution PLR curve and peak",
                f"{run} --cache-dir")
    p.add_argument("--mode", choices=MODES, default=None)
    p.add_argument("--trace", action="store_true",
                   help="write per-iteration retrieval-probability trace")
    p.add_argument("--grid-points", type=int, default=41)
    command("simulate", cmd_simulate, "Monte Carlo frames", run)
    command("optimize", cmd_optimize, "differential-evolution degree search",
            f"{run} --fast --cache-dir")
    command("bounds", cmd_bounds, "gain bounds versus number of BSs",
            f"{run} --cache-dir")
    command("compare", cmd_compare, "frameless vs spatio-temporal baseline", run)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for flag, least in (("seed", 0), ("workers", 1)):
            if getattr(args, flag) < least:
                raise ConfigError(f"--{flag} must be >= {least}, got {getattr(args, flag)}")
        return args.func(args)
    except (ConfigError, TopologyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as e:
        print(f"guard refusal: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
