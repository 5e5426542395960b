import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from frameless import __version__, cli
from frameless.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    build_parser,
    config_hash,
    main,
)

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = ROOT / "configs"
NAN = float("nan")


def run(args):
    return main([str(a) for a in args])


def small_m1_config(tmp_path, **extra):
    doc = {
        "topology": {"num_bs": 1, "groups": [{"bs_set": [1], "num_users": 2000}]},
        "degrees": [3.0],
        **extra,
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return path


def test_analyze_writes_curve_and_peak(tmp_path):
    cfg = small_m1_config(tmp_path)
    out = tmp_path / "out"
    assert run(["analyze", "--config", cfg, "--out", out]) == EXIT_OK
    curve = (out / "curve.csv").read_text().splitlines()
    meta = [l for l in curve if l.startswith("#")]
    assert any("tool_version" in l for l in meta)
    assert any("config_hash" in l for l in meta)
    header = [l for l in curve if not l.startswith("#")][0]
    assert header == "T,plr_avg,plr_g1,throughput"
    peak = json.loads((out / "peak.json").read_text())
    assert peak["peak_throughput"] > 0.8
    assert peak["config_hash"] == config_hash(json.loads(cfg.read_text()))


def test_analyze_reproducible_output(tmp_path):
    cfg = small_m1_config(tmp_path)
    out1, out2 = tmp_path / "out1", tmp_path / "out2"
    run(["analyze", "--config", cfg, "--out", out1])
    run(["analyze", "--config", cfg, "--out", out2])
    strip = lambda p: [l for l in (p / "curve.csv").read_text().splitlines()]
    assert strip(out1) == strip(out2)


def test_analyze_trace(tmp_path):
    cfg = small_m1_config(tmp_path, trace_t=2300)
    out = tmp_path / "out"
    assert run(["analyze", "--config", cfg, "--out", out, "--trace"]) == EXIT_OK
    lines = [
        l for l in (out / "trace.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert lines[0] == "iteration,p_r0_g1,p_r1_g1"
    assert len(lines) > 2


def test_analyze_trace_in_a_noncoop_mode_fails_before_any_output(tmp_path):
    out = tmp_path / "out"
    args = ["analyze", "--config", CONFIGS / "table1_m2.json", "--mode", "bound"]
    assert run(args + ["--trace", "--out", out]) == EXIT_CONFIG
    assert not out.exists() or not any(out.iterdir())


@pytest.mark.parametrize(
    "extra, flags",
    [
        ({}, ["--grid-points", "0"]),
        ({}, ["--grid-points", "-3"]),
        ({"t_values": []}, []),
        ({"t_values": [0, 5]}, []),
    ],
    ids=["grid-points-0", "grid-points-negative", "t-values-empty", "t-values-zero"],
)
def test_empty_or_nonpositive_t_grid_is_a_config_error(tmp_path, capsys, extra, flags):
    cfg = small_m1_config(tmp_path, **extra)
    out = tmp_path / "out"
    assert run(["analyze", "--config", cfg, "--out", out, *flags]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists()


def test_analyze_trace_t_below_one_fails_before_any_output(tmp_path, capsys):
    cfg = small_m1_config(tmp_path, trace_t=0)
    out = tmp_path / "out"
    assert run(["analyze", "--config", cfg, "--out", out, "--trace"]) == EXIT_CONFIG
    assert "config error:" in capsys.readouterr().err
    assert not out.exists() or not any(out.iterdir())


# A topology whose only group is empty.
NO_USERS = {"num_bs": 1, "groups": [{"bs_set": [1], "num_users": 0}]}

# Inputs the config schema or a library spec rejects, each with the key its
# error names: non-integral or non-finite numbers, out-of-range DE settings,
# exact degrees for an M the run does not list, one misspelled key per
# command, and bounds settings that would end in a traceback.
NAMED_ERRORS = [
    ("simulate", {"trials": 2.7, "t": 2300.9}, "trials"),
    ("simulate", {"trials": True}, "trials"),
    ("analyze", {"t_values": [2000.5, 2500]}, "t_values"),
    ("compare", {"gbar_values": [NAN]}, "gbar_values"),
    ("simulate", {"degrees": [NAN]}, "degrees"),
    ("analyze", {"degrees": [NAN]}, "degrees"),
    ("optimize", {"mutant_factor": NAN}, "mutant_factor"),
    ("optimize", {"generations": -3}, "generations"),
    ("optimize", {"crossover_rate": 7}, "crossover_rate"),
    ("bounds", {"m_values": [1], "exact_degrees": {"2": [1.0, 1.0, 1.0]}}, "M=2"),
    ("analyze", {"mdoe": "bound"}, "mdoe"),
    ("simulate", {"trails": 3}, "trails"),
    ("optimize", {"populaton": 4}, "populaton"),
    ("bounds", {"m_value": [1]}, "m_value"),
    ("compare", {"gbar_value": [0.8]}, "gbar_value"),
    ("analyze", {"t_grid": {"start": 1000, "stop": 3000, "nun": 5}}, "nun"),
    ("bounds", {"m_values": [1], "num_users_per_group": 0}, "num_users_per_group"),
    ("bounds", {"m_values": [1], "noncoop_degree": 0}, "noncoop_degree"),
    ("bounds", {"m_values": []}, "m_values"),
]
NAMED_ERROR_IDS = [
    "simulate-trials-not-an-integer", "simulate-trials-true",
    "analyze-t-values-not-integers", "compare-gbar-nan", "simulate-degree-nan",
    "analyze-degree-nan", "optimize-mutant-factor-nan",
    "optimize-generations-negative", "optimize-crossover-rate-above-1",
    "bounds-exact-degrees-unlisted-m", "analyze-misspelled-mode",
    "simulate-misspelled-trials", "optimize-misspelled-population",
    "bounds-misspelled-m-values", "compare-misspelled-gbar-values",
    "analyze-misspelled-t-grid-num", "bounds-users-0", "bounds-noncoop-degree-0",
    "bounds-m-values-empty",
]


@pytest.mark.parametrize("command, extra, key", NAMED_ERRORS, ids=NAMED_ERROR_IDS)
def test_config_error_names_the_key(tmp_path, capsys, command, extra, key):
    cfg = small_m1_config(tmp_path, **extra)
    assert run([command, "--config", cfg, "--out", tmp_path / "out"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("config error:") and key in err


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", {"trials": 0}),
        ("simulate", {"alpha": 1.5}),
        ("compare", {"gbar_values": []}),
        ("compare", {"gbar_values": [0]}),
        ("optimize", {"population": 2}),
        ("optimize", {"tie_classes": [[0], [0]]}),
        ("analyze", {"degrees": ["three"]}),
        ("analyze", {"t_grid": {"stop": 3000}}),
        ("analyze", {"mode": "fast"}),
        ("optimize", {"mode": "fast"}),
        ("compare", {"trials": 0}),
        ("simulate", {"t": 0}),
        ("simulate", {"slot_cap": 0}),
        ("simulate", {"trials": "many"}),
        ("bounds", {"m_values": [1], "bound_population": 2}),
        ("simulate", {"alpha": "high"}),
        ("bounds", {"m_values": ["one"]}),
        ("bounds", {"m_values": [1], "num_users_per_group": "many"}),
        ("bounds", {"m_values": [1], "noncoop_degree": "three"}),
        ("compare", {"gbar_values": ["low"]}),
        ("compare", {"gbar_values": 0.8}),
        ("analyze --trace", {"trace_t": "late"}),
        ("analyze", {"t_values": ["x"]}),
        ("analyze", {"t_grid": {"start": "a", "stop": 3000}}),
        ("analyze", {"t_grid": {"start": 1000, "stop": 3000, "num": "many"}}),
        ("bounds", {"m_values": [1], "exact_degrees": {"1": ["x"]}}),
        ("bounds", {"m_values": [1], "exact_degrees": {"1": [3.0, 3.0]}}),
        ("optimize", {"bounds": [0, "x"]}),
        ("optimize", {"bounds": "ab"}),
        ("simulate", {"t": 2300, "replica_dist": {"x": 1.0}}),
        ("simulate", {"t": 2300, "replica_dist": {"2": "half"}}),
        ("simulate", {"t": 2300, "replica_dist": {"2": 0.5}}),
        ("simulate", {"t": 2300, "replica_dist": {"0": 1.0}}),
        ("compare", {"replica_dist": {}}),
        ("compare", {"replica_dist": {"2": 1.5, "3": -0.5}}),
        ("analyze --mode bound", {"degrees": [0.0]}),
        ("analyze", {"mode": "bound", "degrees": [0.0]}),
        ("analyze", {"topology": NO_USERS}),
        ("analyze --mode noncoop", {"topology": NO_USERS}),
        ("analyze --mode bound", {"topology": NO_USERS}),
        ("optimize", {"topology": NO_USERS}),
        *[(command, extra) for command, extra, _ in NAMED_ERRORS],
    ],
    ids=[
        "simulate-trials-0", "simulate-alpha-above-1", "compare-gbar-empty",
        "compare-gbar-0", "optimize-population-2", "optimize-tie-classes-overlap",
        "analyze-degree-not-a-number", "analyze-t-grid-without-start",
        "analyze-mode-unknown", "optimize-mode-unknown", "compare-trials-0",
        "simulate-t-0", "simulate-slot-cap-0", "simulate-trials-not-a-number",
        "bounds-population-2", "simulate-alpha-not-a-number",
        "bounds-m-not-a-number", "bounds-users-not-a-number",
        "bounds-noncoop-degree-not-a-number", "compare-gbar-not-a-number",
        "compare-gbar-not-a-list", "analyze-trace-t-not-a-number",
        "analyze-t-values-not-a-number", "analyze-t-grid-start-not-a-number",
        "analyze-t-grid-num-not-a-number", "bounds-exact-degree-not-a-number",
        "bounds-exact-degrees-wrong-length", "optimize-bound-not-a-number",
        "optimize-bounds-not-numbers", "simulate-replica-count-not-a-number",
        "simulate-replica-probability-not-a-number", "simulate-replica-not-a-mass",
        "simulate-replica-count-0", "compare-replica-empty",
        "compare-replica-negative-probability", "analyze-bound-flag-degree-0",
        "analyze-bound-degree-0", "analyze-no-users", "analyze-noncoop-no-users",
        "analyze-bound-no-users", "optimize-no-users",
        *NAMED_ERROR_IDS,
    ],
)
def test_config_value_the_library_rejects_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, extra
):
    def no_work(*args, **kwargs):
        raise AssertionError("a search or frame ran before the config was checked")

    # A bad value must stop a command before its first table, search or frame.
    for name in ("make_engine", "optimize", "peak_search", "monte_carlo"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = small_m1_config(tmp_path, **extra)
    out = tmp_path / "out"
    assert run([*command.split(), "--config", cfg, "--out", out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("command", ["analyze", "simulate", "optimize", "bounds", "compare"])
@pytest.mark.parametrize("flag, value", [("--seed", -1), ("--workers", 0), ("--workers", -1)])
def test_negative_seed_or_worker_count_below_one_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, flag, value
):
    def no_work(*args, **kwargs):
        raise AssertionError("a table, search or frame ran before the flags were checked")

    for name in ("make_engine", "optimize", "peak_search", "monte_carlo"):
        monkeypatch.setattr(cli, name, no_work)
    cfg = small_m1_config(tmp_path, m_values=[1]) if command == "bounds" else small_m1_config(tmp_path)
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out, flag, value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:") and flag in captured.err
    assert captured.out == ""
    assert not out.exists()


def test_every_command_records_its_provenance(tmp_path):
    m1 = {
        "topology": {"num_bs": 1, "groups": [{"bs_set": [1], "num_users": 200}]},
        "degrees": [3.0],
    }
    runs = {
        "analyze": ({**m1, "trace_t": 60}, ["--trace"]),
        "simulate": ({**m1, "trials": 2}, []),
        "optimize": ({**m1, "population": 4, "generations": 1}, ["--fast"]),
        "bounds": (
            {"m_values": [1], "num_users_per_group": 200, "bound_population": 4,
             "bound_generations": 1, "exact_degrees": {"1": [3.1]}},
            [],
        ),
        "compare": ({**m1, "gbar_values": [0.8], "trials": 2}, []),
    }
    for command, (doc, flags) in runs.items():
        cfg = tmp_path / f"{command}.json"
        cfg.write_text(json.dumps(doc))
        out = tmp_path / command
        assert run([command, "--config", cfg, "--out", out, "--seed", 3, *flags]) == EXIT_OK
        provenance = [
            f"# tool_version={__version__}",
            f"# config_hash={config_hash(doc)}",
            "# seed=3",
            "# rng=",
        ]
        csvs, jsons = sorted(out.glob("*.csv")), sorted(out.glob("*.json"))
        assert csvs and jsons, command
        for path in csvs:
            head = path.read_text().splitlines()[:4]
            assert all(l.startswith(p) for l, p in zip(head, provenance)), path
        for path in jsons:
            meta = json.loads(path.read_text())
            assert meta["tool_version"] == __version__, path
            assert meta["config_hash"] == config_hash(doc), path
            assert meta["seed"] == 3, path


def test_analyze_noncoop_mode(tmp_path):
    cfg = small_m1_config(tmp_path)
    out = tmp_path / "out"
    assert run(["analyze", "--config", cfg, "--out", out, "--mode", "noncoop"]) == EXIT_OK


def test_simulate(tmp_path):
    cfg = small_m1_config(tmp_path, trials=3, alpha=0.8)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out, "--seed", 9]) == EXIT_OK
    agg = json.loads((out / "aggregate.json").read_text())
    assert agg["trials"] == 3
    assert agg["seed"] == 9
    rows = [
        l for l in (out / "trials.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert rows[0] == "trial,seed,T,n_ret,throughput,plr_g1"
    assert len(rows) == 4


def test_simulate_identical_bytes(tmp_path):
    cfg = small_m1_config(tmp_path, trials=2)
    out1, out2 = tmp_path / "a", tmp_path / "b"
    run(["simulate", "--config", cfg, "--out", out1, "--seed", 5])
    run(["simulate", "--config", cfg, "--out", out2, "--seed", 5])
    assert (out1 / "trials.csv").read_text() == (out2 / "trials.csv").read_text()


def test_optimize_fast(tmp_path):
    cfg = small_m1_config(tmp_path, population=10, generations=4)
    out = tmp_path / "out"
    assert run(["optimize", "--config", cfg, "--out", out, "--fast"]) == EXIT_OK
    doc = json.loads((out / "optimum.json").read_text())
    assert doc["feasible"] is True
    assert 2.0 < doc["best_g"][0] < 4.0


def test_compare(tmp_path):
    doc = {
        "topology": {
            "num_bs": 2,
            "groups": [
                {"bs_set": [1], "num_users": 200},
                {"bs_set": [2], "num_users": 200},
                {"bs_set": [1, 2], "num_users": 200},
            ],
        },
        "degrees": [1.8, 1.8, 1.7],
        "replica_dist": {"2": 1.0},
        "gbar_values": [0.5, 0.8],
        "trials": 2,
    }
    cfg = tmp_path / "cmp.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["compare", "--config", cfg, "--out", out]) == EXIT_OK
    rows = [
        l for l in (out / "compare.csv").read_text().splitlines() if not l.startswith("#")
    ]
    assert rows[0].startswith("gbar,t,frameless_throughput")
    assert len(rows) == 3


def test_bounds_command(tmp_path):
    doc = {
        "m_values": [1, 2],
        "num_users_per_group": 400,
        "noncoop_degree": 3.098,
        "bound_population": 8,
        "bound_generations": 3,
        "exact_degrees": {"1": [3.1], "2": [1.81, 1.81, 1.68]},
    }
    cfg = tmp_path / "bounds.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["bounds", "--config", cfg, "--out", out]) == EXIT_OK
    payload = json.loads((out / "bounds.json").read_text())
    for row in payload["rows"]:
        # the lower-bound row optimizes its own degrees, so it is only
        # required to stay below the ceiling; the pointwise same-degree
        # ordering lower <= exact is asserted in test_bounds. The M*0.87
        # ceiling is asymptotic and sits just under the single-BS optimum,
        # so it only binds for M >= 2.
        if row["m"] >= 2:
            assert row["s_lower"] <= row["s_upper"] + 1e-9
            assert row["s_exact"] <= row["s_upper"] + 1e-9
        assert row["gamma_lower"] > 0


def test_config_error_exit_code(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert run(["analyze", "--config", bad, "--out", tmp_path / "o"]) == EXIT_CONFIG
    missing = tmp_path / "missing.json"
    missing.write_text(json.dumps({"topology": {"num_bs": 1, "groups": [{"bs_set": [1], "num_users": 5}]}}))
    assert run(["analyze", "--config", missing, "--out", tmp_path / "o"]) == EXIT_CONFIG


def test_guard_exit_code(tmp_path, capsys):
    # exact analysis of more than 15 groups (16 of a 5-BS network) refuses
    groups = [
        {"bs_set": [b + 1 for b in range(5) if m >> b & 1], "num_users": 10}
        for m in range(1, 17)
    ]
    doc = {"topology": {"num_bs": 5, "groups": groups}, "degrees": [0.5] * 16}
    cfg = tmp_path / "m5.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "o"
    assert run(["analyze", "--config", cfg, "--out", out]) == EXIT_GUARD
    assert "guard refusal:" in capsys.readouterr().err
    assert not out.exists()


# The commands each shipped config serves.
SHIPPED = {
    "table1_m1.json": "analyze simulate optimize",
    "table1_m2.json": "analyze simulate optimize",
    "table1_m3.json": "analyze simulate optimize",
    "table1_m4.json": "analyze simulate optimize",
    "optimize_m2.json": "optimize",
    "gain_bounds.json": "bounds",
    "compare_baseline.json": "compare optimize",
}


def test_shipped_configs_parse():
    assert {p.name for p in CONFIGS.glob("*.json")} == set(SHIPPED)
    for name, commands in SHIPPED.items():
        for command in commands.split():
            cli._config(CONFIGS / name, command)


def _script(name):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_configs_the_reproduce_scripts_write_parse(tmp_path):
    table1, table2 = _script("reproduce_table1"), _script("reproduce_table2")
    docs = [(table1.network_config(m, 100), "analyze simulate optimize")
            for m in (1, 2, 3, 4)]
    for row in table2.TABLE2:  # trials = 0 (the default) runs no simulation
        docs.append((table2.network_config(row, 0), "analyze optimize"))
        docs.append((table2.network_config(row, 2), "analyze simulate optimize"))
    cfg = tmp_path / "config.json"
    for doc, commands in docs:
        cfg.write_text(json.dumps(doc, indent=2) + "\n")
        for command in commands.split():
            cli._config(cfg, command)


def test_readme_lists_every_config_key_with_its_commands():
    lines = (ROOT / "README.md").read_text().splitlines()
    start = lines.index("| key | commands | default |") + 2
    rows = {}
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        key, commands = line.split("|")[1:3]
        rows[key.strip().strip("`")] = set(re.findall(r"`(\w+)`", commands))
    assert rows == {key: set(reads) for key, (_, reads) in cli.SCHEMA.items()}


# Flags each subcommand registers: exactly the ones its command reads.
OPTIONS = {
    "analyze": "--config --seed --workers --out --cache-dir --mode --trace "
    "--grid-points",
    "simulate": "--config --seed --workers --out",
    "optimize": "--config --seed --workers --out --fast --cache-dir",
    "bounds": "--config --seed --workers --out --cache-dir",
    "compare": "--config --seed --workers --out",
}


def test_each_command_takes_only_the_flags_it_reads():
    sub = build_parser()._subparsers._group_actions[0]
    got = {
        name: {o for a in p._actions for o in a.option_strings if o not in ("-h", "--help")}
        for name, p in sub.choices.items()
    }
    assert got == {name: set(flags.split()) for name, flags in OPTIONS.items()}
    assert sum(map(len, got.values())) == 27


@pytest.mark.parametrize("argv", [
    ["simulate", "--fast"],
    ["compare", "--cache-dir", "x"],
    ["bounds", "--format", "json"],
    ["analyze", "--format", "json"],
])
def test_unread_flag_is_rejected(tmp_path, argv):
    cfg = small_m1_config(tmp_path)
    with pytest.raises(SystemExit) as exc:
        run(argv + ["--config", cfg])
    assert exc.value.code == EXIT_CONFIG


def trials_csv(out):
    lines = (out / "trials.csv").read_text().splitlines()
    return [l for l in lines if l.startswith("# mode=")], [
        l for l in lines if not l.startswith("#")
    ]


def test_simulate_shipped_table1_config(tmp_path):
    doc = json.loads((CONFIGS / "table1_m2.json").read_text())
    doc["trials"] = 2
    cfg = tmp_path / "table1_m2.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    mode, rows = trials_csv(out)
    assert mode == ["# mode=frameless"] and len(rows) == 3


def test_simulate_config_with_t_runs_fixed_frames(tmp_path):
    cfg = small_m1_config(tmp_path, trials=2, t=2300)
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    mode, rows = trials_csv(out)
    assert mode == ["# mode=fixed"]
    assert all(r.split(",")[2] == "2300" for r in rows[1:])


def test_simulate_config_with_replica_dist_runs_spatio(tmp_path):
    cfg = small_m1_config(tmp_path, trials=2, t=2300, replica_dist={"2": 1.0})
    out = tmp_path / "out"
    assert run(["simulate", "--config", cfg, "--out", out]) == EXIT_OK
    mode, rows = trials_csv(out)
    assert mode == ["# mode=spatio"] and len(rows) == 3


def test_simulate_replica_dist_without_t_is_a_config_error(tmp_path):
    cfg = small_m1_config(tmp_path, trials=2, replica_dist={"2": 1.0})
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "o"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "command, extra",
    [
        ("simulate", {"t": 100, "replica_dist": {"500": 1.0}}),
        # T is 200 at Gbar = 0.5 but 125 at Gbar = 0.8: the shortest frame decides.
        ("compare", {"replica_dist": {"150": 1.0}, "gbar_values": [0.5, 0.8]}),
    ],
    ids=["simulate", "compare"],
)
def test_replica_count_above_the_frame_length_is_a_config_error(
    tmp_path, capsys, monkeypatch, command, extra
):
    def no_frames(*args, **kwargs):
        raise AssertionError("a frame ran before the config was checked")

    monkeypatch.setattr(cli, "monte_carlo", no_frames)
    doc = {
        "topology": {
            "num_bs": 2,
            "groups": [
                {"bs_set": [1], "num_users": 100},
                {"bs_set": [1, 2], "num_users": 100},
            ],
        },
        "degrees": [1.0, 1.0],
        **extra,
    }
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = tmp_path / "out"
    assert run([command, "--config", cfg, "--out", out]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert "config error:" in captured.err
    assert captured.out == ""
    assert not out.exists()


@pytest.mark.parametrize("script", ["compare_baseline.py", "gain_vs_bs.py"])
def test_scripts_exit_like_the_cli_on_a_bad_config(tmp_path, script):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    root = CONFIGS.parent
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(root / "src"), os.environ.get("PYTHONPATH", "")]
    )}
    proc = subprocess.run(
        [sys.executable, str(root / "scripts" / script), "--config", str(bad),
         "--out", str(tmp_path / "o"), "--workers", "1"],
        env=env, capture_output=True, text=True,
    )
    assert proc.returncode == EXIT_CONFIG
    assert "config error:" in proc.stderr and "Traceback" not in proc.stderr
