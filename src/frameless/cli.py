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
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bounds import upper_bound_throughput
from .evolution import (
    evolve,
    make_engine,
    peak_search,
    simultaneous_transmission_degrees,
)
from .optimizer import OptimizationSpec, optimize
from .simulator import RNG_ID, SimulationSpec, monte_carlo
from .topology import (
    NetworkTopology,
    TargetDegreeVector,
    TopologyError,
    full_topology,
    load_topology,
)
from .walkgraph import GuardError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_NONCONV = 4

MODES = ("coop", "noncoop", "bound")


class ConfigError(ValueError):
    pass


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
    return doc


def config_hash(doc: dict) -> str:
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def _topology_from(doc: dict) -> NetworkTopology:
    if "topology" not in doc:
        raise ConfigError("config needs a 'topology' object")
    try:
        return load_topology(json.dumps(doc["topology"]))
    except TopologyError as e:
        raise ConfigError(f"bad topology: {e}") from e


def _degrees_from(doc: dict, num_groups: int, key="degrees"):
    if key not in doc:
        raise ConfigError(f"config needs '{key}'")
    g = _parsed(doc, key, None, lambda g: tuple(float(v) for v in g))
    if not isinstance(doc[key], list) or len(g) != num_groups:
        raise ConfigError(
            f"'{key}' must list one target degree per group ({num_groups})"
        )
    return g


def _mode_from(doc: dict) -> str:
    mode = doc.get("mode", "coop")
    if mode not in MODES:
        raise ConfigError(f"'mode' must be one of {', '.join(MODES)}, got {mode!r}")
    return mode


def _parsed(doc: dict, key: str, default, parse=float):
    """parse(the config's `key`, else default); a value it cannot parse is a
    config error."""
    try:
        return parse(doc.get(key, default))
    except (TypeError, ValueError) as e:
        raise ConfigError(f"cannot read '{key}': {e}") from e


def _count(doc: dict, key: str, default=None):
    """The config's integer `key`, which must be >= 1, else default."""
    if key not in doc:
        return default
    value = _parsed(doc, key, None, int)
    if value < 1:
        raise ConfigError(f"'{key}' must be >= 1, got {value}")
    return value


def _t_values(doc: dict, points: int):
    """The first frame lengths of a peak search: the config's t_values or
    t_grid, else None for peak_search's default grid of `points` points."""
    if "t_values" in doc:
        t_vals = _parsed(doc, "t_values", None, lambda ts: [int(t) for t in ts])
    elif "t_grid" in doc:
        spec = doc["t_grid"]
        if not isinstance(spec, dict) or "start" not in spec or "stop" not in spec:
            raise ConfigError("'t_grid' needs 'start' and 'stop'")
        start, stop = _parsed(spec, "start", None, int), _parsed(spec, "stop", None, int)
        t_vals = np.linspace(start, stop, max(0, _parsed(spec, "num", 41, int)))
        t_vals = np.unique(t_vals.round().astype(int)).tolist()
    elif points < 1:
        raise ConfigError(f"--grid-points must be >= 1, got {points}")
    else:
        return None
    if not t_vals or min(t_vals) < 1:
        raise ConfigError("the T grid needs at least one T, and every T >= 1")
    return t_vals


def _replica_from(doc: dict, t_slots: int, default=None):
    """The config's replica_dist, else default, as sorted (replica count,
    probability) pairs: counts in 1..t_slots (the shortest frame) and a
    probability mass."""
    dist = _parsed(doc, "replica_dist", default,
                   lambda d: {int(k): float(v) for k, v in dict(d).items()})
    replica = tuple(sorted(dist.items()))
    probs = np.array([p for _, p in replica])
    # The library's test of a probability mass, which a NaN fails here too.
    if (not replica or replica[0][0] < 1 or (probs < 0).any()
            or not abs(probs.sum() - 1) <= 1e-9):
        raise ConfigError("'replica_dist' must map counts >= 1 to a probability mass")
    if replica[-1][0] > t_slots:
        raise ConfigError(
            f"'replica_dist' count {replica[-1][0]} exceeds the frame length T={t_slots}"
        )
    return replica


def _provenance(doc: dict, args) -> dict:
    return {
        "tool_version": __version__,
        "config_hash": config_hash(doc),
        "seed": args.seed,
    }


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
    doc = _load_config(args.config)
    topology = _topology_from(doc)
    mode = args.mode or _mode_from(doc)
    if args.trace and mode != "coop":
        raise ConfigError("--trace requires cooperative mode")
    trace_t = _count(doc, "trace_t") if args.trace else None
    degrees = _degrees_from(doc, topology.num_groups)
    t_vals = _t_values(doc, args.grid_points)
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
        trace_t = trace_t or peak.t_star
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
    doc = _load_config(args.config)
    topology = _topology_from(doc)
    # The frame kind follows from the config's keys: a replica distribution
    # means the framed baseline, a frame length a fixed-length frame.
    mode = "spatio" if "replica_dist" in doc else "fixed" if "t" in doc else "frameless"
    replica = None
    degrees = None
    if mode == "spatio":
        if "t" not in doc:
            raise ConfigError("spatio frames need a frame length 't'")
        replica = _replica_from(doc, _count(doc, "t"))
    else:
        degrees = _degrees_from(doc, topology.num_groups)
    alpha = _parsed(doc, "alpha", 0.8)
    if not 0.0 < alpha <= 1.0:
        raise ConfigError(f"'alpha' must be in (0, 1], got {alpha}")
    trials = _count(doc, "trials", 100)
    spec = SimulationSpec(
        topology=topology,
        mode=mode,
        degrees=degrees,
        alpha=alpha,
        t_slots=_count(doc, "t"),
        slot_cap=_count(doc, "slot_cap"),
        replica_dist=replica,
        master_seed=args.seed,
    )
    result = monte_carlo(spec, trials, workers=args.workers)
    out_dir = Path(args.out)
    _write(
        out_dir / "trials.csv",
        _meta_lines(doc, args, {"mode": mode})
        + [result.csv_header(), *result.csv_rows()],
    )
    payload = result.summary()
    _emit_json(out_dir / "aggregate.json", doc, payload, args)
    _print_summary(
        {
            "mean_throughput": payload["mean_throughput"],
            "stderr_throughput": payload["stderr_throughput"],
            "mean_plr": payload["mean_plr"],
            "mean_t": payload["mean_t"],
        },
    )
    return EXIT_OK


def cmd_optimize(args) -> int:
    doc = _load_config(args.config)
    topology = _topology_from(doc)
    try:
        spec = OptimizationSpec(
            topology=topology,
            alpha=_parsed(doc, "alpha", 0.8),
            mode=_mode_from(doc),
            tie_classes=_parsed(doc, "tie_classes", None,
                                lambda t: tuple(tuple(c) for c in t) if t else None),
            bounds=_parsed(doc, "bounds", (0.0, 4.0), lambda b: tuple(float(v) for v in b)),
            population=_parsed(doc, "population", 300, int),
            mutant_factor=_parsed(doc, "mutant_factor", 0.2),
            generations=_parsed(doc, "generations", 30, int),
            crossover_rate=_parsed(doc, "crossover_rate", 0.9),
            cache_dir=args.cache_dir,
        )
    except ValueError as e:  # the spec checks its own settings
        raise ConfigError(str(e)) from e
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
    _print_summary(
        {
            "best_g": [round(v, 4) for v in result.best_g],
            "throughput": result.throughput,
            "t_star": result.t_star,
            "feasible": result.feasible,
        },
    )
    return EXIT_OK if result.feasible else EXIT_NONCONV


def cmd_bounds(args) -> int:
    doc = _load_config(args.config)
    m_values = _parsed(doc, "m_values", [1, 2, 3, 4], lambda ms: [int(m) for m in ms])
    n_per_group = _parsed(doc, "num_users_per_group", 10000, int)
    g_single = _parsed(doc, "noncoop_degree", 3.098)
    # Every M's exact degrees, keyed by M, checked before the first search.
    exact = _parsed(doc, "exact_degrees", {},
                    lambda d: {int(m): g for m, g in dict(d).items()})
    exact_g = {m: _degrees_from(exact, 2**m - 1, m) for m in exact}
    try:  # the bound search's DE settings, checked before any work
        bound_specs = [
            OptimizationSpec(
                topology=full_topology(m, [n_per_group] * (2**m - 1)),
                mode="bound",
                alpha=_parsed(doc, "alpha", 0.8),
                population=_parsed(doc, "bound_population", 30, int),
                generations=_parsed(doc, "bound_generations", 10, int),
            )
            for m in m_values
        ]
    except ValueError as e:
        raise ConfigError(str(e)) from e
    rows = []
    for m, bound_spec in zip(m_values, bound_specs):
        topology = bound_spec.topology
        g_nc = simultaneous_transmission_degrees(topology, g_single)
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
        if m in exact_g:
            pk_c = peak_search(
                topology,
                exact_g[m],
                "coop",
                cache_dir=args.cache_dir,
                workers=args.workers,
            )
            row["s_exact"] = pk_c.throughput
            row["gamma_exact"] = pk_c.throughput / pk_nc.throughput
        rows.append(row)
        print(
            f"M={m}: S_nc={row['s_noncoop']:.4f} S_lb={row['s_lower']:.4f} "
            f"S_ub={s_up:.3f}"
            + (f" S_exact={row['s_exact']:.4f}" if "s_exact" in row else "")
        )
    out_dir = Path(args.out)
    cols = [
        "m", "s_noncoop", "s_lower", "s_upper", "s_exact",
        "gamma_lower", "gamma_exact", "gamma_upper",
    ]
    _write(out_dir / "bounds.csv", _table_lines(doc, args, cols, rows))
    _emit_json(out_dir / "bounds.json", doc, {"rows": rows}, args)
    return EXIT_OK


def cmd_compare(args) -> int:
    doc = _load_config(args.config)
    topology = _topology_from(doc)
    degrees = _degrees_from(doc, topology.num_groups)
    gbars = _parsed(doc, "gbar_values", [0.5, 0.6, 0.7, 0.75, 0.8, 0.9],
                    lambda gs: [float(g) for g in gs])
    if not gbars or min(gbars) <= 0:
        raise ConfigError("'gbar_values' needs at least one value, each > 0")
    trials = _count(doc, "trials", 10)
    n = topology.num_users
    m = topology.num_bs
    t_values = [max(1, int(round(n / (m * gbar)))) for gbar in gbars]
    replica = _replica_from(doc, min(t_values), {"2": 1.0})
    p = np.array(TargetDegreeVector(degrees).probabilities(topology))
    weights = np.array([grp.num_users for grp in topology.groups]) / n
    rows = []
    for gbar, t in zip(gbars, t_values):
        mc_f = monte_carlo(
            SimulationSpec(
                topology=topology, mode="fixed", degrees=degrees, t_slots=t,
                master_seed=args.seed,
            ),
            trials,
            workers=args.workers,
        )
        mc_b = monte_carlo(
            SimulationSpec(
                topology=topology, mode="spatio", replica_dist=replica, t_slots=t,
                master_seed=args.seed + 1,
            ),
            trials,
            workers=args.workers,
        )
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
        return args.func(args)
    except (ConfigError, TopologyError) as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except GuardError as e:
        print(f"guard refusal: {e}", file=sys.stderr)
        return EXIT_GUARD


if __name__ == "__main__":
    sys.exit(main())
