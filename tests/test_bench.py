"""Scenario generation, schemes, experiments, config ingestion and the CLI."""

import csv
import hashlib
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import uavsense
from uavsense import bench
from uavsense.bench import (
    ScenarioConfig,
    audit_solution,
    generate_scenario,
    load_config,
    nc_config,
    parse_config_text,
    run_experiment,
    run_scheme,
)
from uavsense.cli import build_parser, main as cli_main
from uavsense.itsso import ItssoConfig
from uavsense.sensing import SensingParams, sensing_success_coop
from uavsense.simulator import EMPTY, TraceRow, write_trace
from uavsense.trajectory import KinematicParams


class TestGeneration:
    def test_deterministic(self):
        a = generate_scenario(ScenarioConfig(seed=42))
        b = generate_scenario(ScenarioConfig(seed=42))
        assert a.uav_starts == b.uav_starts
        assert a.routes == b.routes
        assert all(a.tasks[j] == b.tasks[j] for j in a.tasks)

    def test_equal_split_and_distinct_workers(self):
        sc = generate_scenario(ScenarioConfig(seed=7))
        assert all(len(r) == 4 for r in sc.routes.values())
        for task in sc.tasks.values():
            assert len(task.workers) == 4
            assert len(set(task.workers)) == 4

    def test_q1_topology(self):
        sc = generate_scenario(ScenarioConfig(m=20, n=20, q=1, k=10, seed=3))
        for task in sc.tasks.values():
            assert len(task.workers) == 1

    def test_task_coordinates_uniform(self):
        xs = []
        for seed in range(100):
            sc = generate_scenario(ScenarioConfig(m=100, n=100, q=1, k=10, seed=seed))
            xs.extend(t.location.x for t in sc.tasks.values())
        assert len(xs) == 10000
        assert abs(float(np.mean(xs)) - 250.0) < 5.0

    def test_altitude_floor_on_starts(self):
        sc = generate_scenario(ScenarioConfig(seed=11))
        assert all(p.z >= 10.0 for p in sc.uav_starts.values())

    def test_divisibility_enforced(self):
        with pytest.raises(ValueError):
            ScenarioConfig(m=7, n=20, q=4)

    def test_nc_variant_matches_tasks(self):
        base = ScenarioConfig(seed=5)
        nc = nc_config(base)
        assert nc.q == 1 and nc.m == 5 and nc.scheme == "nc"
        a = generate_scenario(base)
        b = generate_scenario(nc)
        # paired instances share the task field
        assert all(a.tasks[j].location == b.tasks[j].location for j in a.tasks)

    def test_nc_rounds_half_up_with_near_equal_loads(self):
        # fig7's point: 8 tasks per UAV over 20 tasks is 2.5 UAVs, so 3
        nc = nc_config(ScenarioConfig(m=10, n=20, q=4))
        assert (nc.m, nc.q, nc.scheme) == (3, 1, "nc")
        routes = generate_scenario(nc).routes
        assert [len(routes[u]) for u in sorted(routes)] == [7, 7, 6]
        assert sorted(t for r in routes.values() for t in r) == list(range(20))

    def test_nc_scheme_needs_q1(self):
        with pytest.raises(ValueError, match="nc_config"):
            ScenarioConfig(scheme="nc")
        with pytest.raises(ValueError, match="nc_config"):
            parse_config_text("scheme = nc\n")
        assert ScenarioConfig(m=5, q=1, scheme="nc") == nc_config(ScenarioConfig())

    @pytest.mark.parametrize("height", [0.0, 5.0, 9.99])
    def test_fsl_height_below_the_floor_refused(self, height):
        # the floor is kinematics.h_min, 10 m by default; the error names both
        match = rf"fsl_height={height}.*kinematics\.h_min=10\.0"
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(scheme="fsl", fsl_height=height)
        with pytest.raises(ValueError, match=match):
            parse_config_text(f"scheme = fsl\nfsl_height = {height}\n")

    def test_fsl_height_follows_the_configured_floor(self):
        with pytest.raises(ValueError, match=r"fsl_height=20\.0.*h_min=25\.0"):
            parse_config_text("fsl_height = 20\nkinematics.h_min = 25\n")
        assert ScenarioConfig(scheme="fsl", fsl_height=10.0).fsl_height == 10.0
        assert parse_config_text("fsl_height = 15\nkinematics.h_min = 15\n").fsl_height == 15

    @pytest.mark.parametrize("h_min", [5.0, 7.6483606884287045, 10 ** (38 / 43)])
    def test_altitude_floor_outside_the_channel_domain_refused(self, h_min):
        # below 10**(38/43) m the LoS decay scale 4300 log10 z - 3800 is not
        # positive: rates overflow just under it and p_LoS pins at 1 further down
        match = rf"kinematics\.h_min={re.escape(repr(h_min))} .*7\.6510"
        with pytest.raises(ValueError, match=match):
            ScenarioConfig(kinematics=KinematicParams(h_min=h_min))
        with pytest.raises(ValueError, match=match):
            parse_config_text(f"kinematics.h_min = {h_min!r}\n")

    def test_altitude_floor_inside_the_channel_domain_accepted(self):
        assert ScenarioConfig(kinematics=KinematicParams(h_min=7.66)).kinematics.h_min == 7.66
        assert parse_config_text("kinematics.h_min = 7.66\n").kinematics.h_min == 7.66

    def test_negative_seed_refused(self):
        # numpy's generator would refuse it later, inside generate_scenario
        with pytest.raises(ValueError, match=r"seed=-1 must be non-negative"):
            ScenarioConfig(seed=-1)
        with pytest.raises(ValueError, match=r"seed=-1 must be non-negative"):
            parse_config_text("seed = -1\n")
        assert ScenarioConfig(seed=0).seed == 0

    @pytest.mark.parametrize("seed", [1, 2, 29, 41, 62])
    def test_a_stuck_deal_is_reshuffled(self, seed):
        # four buckets of five for 5 tasks x 4 copies: every bucket must hold
        # every task once, so the swap repair can get stuck past its guard
        # and the deal starts over from a fresh shuffle
        class CountingRng:
            def __init__(self, rng):
                self.rng, self.shuffles = rng, 0

            def shuffle(self, x):
                self.shuffles += 1
                self.rng.shuffle(x)

            def __getattr__(self, name):
                return getattr(self.rng, name)

        rng = CountingRng(np.random.default_rng(seed))
        buckets = bench._deal_assignment(rng, 5, 4, [5] * 4)
        assert rng.shuffles >= 2
        assert all(len(set(b)) == len(b) == 5 for b in buckets)
        dealt = [t for b in buckets for t in b]
        assert sorted(dealt) == sorted(list(range(5)) * 4)

    @pytest.mark.parametrize("seed", [0, 3, 17])
    def test_draws_equal_numpys_uniform(self, seed):
        # uniform's tuple bounds, drawn before the deal: tasks on the ground,
        # then starts in the box with their altitudes floored at h_min
        area = (300.0, 700.0, 60.0)
        sc = generate_scenario(ScenarioConfig(m=10, n=20, q=2, area=area, seed=seed))
        rng = np.random.default_rng(seed)
        task_xy = rng.uniform((0.0, 0.0), area[:2], size=(20, 2)).tolist()
        start_xyz = rng.uniform((0.0, 0.0, 0.0), area, size=(10, 3)).tolist()
        assert [sc.tasks[j].location for j in range(20)] == [(x, y, 0.0) for x, y in task_xy]
        assert [sc.uav_starts[i] for i in range(10)] == \
            [(x, y, max(z, 10.0)) for x, y, z in start_xyz]

    # sha256 over seeds 0-49 of each scenario's starts, tasks and routes,
    # taken from the generator that converted numpy scalars one by one: it
    # pins every draw, deal and conversion, and the types (a numpy scalar's
    # repr differs from a float's)
    @pytest.mark.parametrize("config, digest", [
        (ScenarioConfig(), "df3dae50261153e1"),
        (ScenarioConfig(m=10, n=10, k=2), "2738b5982bcb69fb"),
        (ScenarioConfig(scheme="fsl"), "df3dae50261153e1"),
        (nc_config(ScenarioConfig()), "49d0fd8577ca1af5"),
        (ScenarioConfig(m=5, q=1), "49d0fd8577ca1af5"),
        (ScenarioConfig(m=40, q=8), "8b7d2a6b45367e2e"),
        (ScenarioConfig(area=(300.0, 700.0, 60.0)), "1b7f7d91af265e09"),
        (ScenarioConfig(m=4, n=2, q=2), "87e628be778743fc"),
    ], ids=["table", "crowded", "fsl", "nc", "q1", "q8", "area", "one-task-per-uav"])
    def test_scenarios_are_pinned_bit_for_bit(self, config, digest):
        h = hashlib.sha256()
        for seed in range(50):
            sc = generate_scenario(replace(config, seed=seed))
            tasks = [(t.id, t.location, t.data_size, t.workers) for t in sc.tasks.values()]
            h.update(repr((sc.uav_starts, tasks, sc.routes)).encode())
        assert h.hexdigest()[:16] == digest


class TestSchemes:
    def test_fsl_pins_altitude_and_skips_placement(self):
        sc = generate_scenario(ScenarioConfig(seed=2, scheme="fsl"))
        sol = run_scheme(sc, ItssoConfig(rng_seed=2))
        for p in sol.plans:
            for loc in p.sensing_locations:
                assert loc.z == 50.0
        assert sol.placement_passes == 0

    def test_pinned_locations_waive_the_sensing_threshold(self):
        sensing = SensingParams(0.01, 0.999)
        sc = generate_scenario(ScenarioConfig(m=8, n=8, q=4, k=4, seed=5, scheme="fsl",
                                              sensing=sensing))
        # four workers 50 m above the task fall short of the threshold
        assert sensing_success_coop([50.0] * 4, sensing) == pytest.approx(0.976, abs=1e-3)
        sol = run_scheme(sc, ItssoConfig(rng_seed=5), record_trace=True)
        assert audit_solution(sc, sol) == []

    def test_fsl_audit_skips_sensing_probability(self):
        sc = generate_scenario(ScenarioConfig(seed=2, scheme="fsl"))
        sol = run_scheme(sc, ItssoConfig(rng_seed=2), record_trace=True)
        assert audit_solution(sc, sol) == []

    def test_all_schemes_audit_clean(self):
        for scheme in ("itsso", "nc", "fsl"):
            cfg = ScenarioConfig(seed=4)
            cfg = nc_config(cfg) if scheme == "nc" else (
                ScenarioConfig(seed=4, scheme=scheme))
            sc = generate_scenario(cfg)
            sol = run_scheme(sc, ItssoConfig(rng_seed=4), record_trace=True)
            assert audit_solution(sc, sol) == []

    def test_audit_flags_a_tampered_objective(self):
        sc = generate_scenario(ScenarioConfig(seed=2, scheme="fsl"))
        sol = run_scheme(sc, ItssoConfig(rng_seed=2), record_trace=True)
        sol.outcome.t_max -= 1
        assert audit_solution(sc, sol) == [
            f"trace ends at slot {sol.t_max + 1} but the solution claims t_max {sol.t_max}"]

    def test_audit_flags_a_trace_cut_short_by_one_slot(self):
        sc = generate_scenario(ScenarioConfig(seed=2, scheme="fsl"))
        sol = run_scheme(sc, ItssoConfig(rng_seed=2), record_trace=True)
        last = [u for u, t in sol.outcome.completion_times.items() if t == sol.t_max]
        sol.outcome.trace = [r for r in sol.outcome.trace if r.slot < sol.t_max]
        problems = audit_solution(sc, sol)
        assert problems[0] == (f"trace ends at slot {sol.t_max - 1} but the solution "
                               f"claims t_max {sol.t_max}")
        for uav in last:
            assert (f"uav {uav}: claimed completion slot {sol.t_max} but its trace "
                    f"ends at slot {sol.t_max - 1}") in problems


class TestExperiments:
    def test_unknown_id_rejected(self):
        with pytest.raises(ValueError):
            run_experiment("fig99", instances=1)

    @pytest.mark.parametrize("experiment, instances", [("fig4", 0), ("fig8", -3)])
    def test_no_instances_refused(self, tmp_path, experiment, instances):
        # an empty sweep would write CSV files that hold only a header
        with pytest.raises(ValueError, match="at least 1 instance"):
            run_experiment(experiment, instances=instances, out_dir=tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main(["experiment", "--id", experiment, "--instances", str(instances),
                      "--out", str(tmp_path / "d")])
        assert exit_.value.code == 2
        assert not any(tmp_path.iterdir())

    def test_fig5_structure_and_raw_consistency(self, tmp_path):
        res = run_experiment("fig5", instances=2, out_dir=tmp_path, seed=50)
        xs = sorted({row[1] for row in res.rows})
        assert xs == [2.0, 4.0, 6.0, 8.0]
        schemes = {row[0] for row in res.rows}
        assert schemes == {"itsso", "nc", "fsl"}
        for scheme, x, mean, std, n in res.rows:
            raw = [v for s, xv, _, v in res.raw if s == scheme and xv == x]
            assert n == 2 == len(raw)
            assert mean == pytest.approx(float(np.mean(raw)))
        # CSV audit: means in the summary equal the mean of the raw dump
        with open(tmp_path / "fig5.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        with open(tmp_path / "fig5_raw.csv", newline="") as fh:
            raw_rows = list(csv.DictReader(fh))
        for row in rows:
            vals = [float(r["t_max"]) for r in raw_rows
                    if r["scheme"] == row["scheme"] and r["x"] == row["x"]]
            assert float(row["mean_Tmax"]) == pytest.approx(float(np.mean(vals)))
        assert (tmp_path / "fig5_manifest.txt").exists()

    def test_fig8_min_group_size(self):
        res = run_experiment("fig8", instances=1, seed=60)
        sim = {x: mean for scheme, x, mean, _, _ in res.rows if scheme == "simulated"}
        theo = {x: mean for scheme, x, mean, _, _ in res.rows if scheme == "theoretical"}
        assert sim[1.0] == 1 and sim[6.0] == 6
        for x in sim:
            assert abs(sim[x] - theo[x]) <= 1

    def test_fig8_names_its_instance_cap(self, tmp_path):
        # both columns depend only on h_min, lambda and pr_th: fig8 runs at
        # most 10 instances per exponent, and its manifest says so
        res = run_experiment("fig8", instances=12, seed=60, out_dir=tmp_path)
        assert {n for *_, n in res.rows} == {10}
        assert {std for *_, std, _ in res.rows} == {0.0}
        manifest = (tmp_path / "fig8_manifest.txt").read_text(encoding="utf-8")
        assert "min(instances, 10) instances" in manifest
        assert "depend only on h_min, lambda and pr_th" in manifest

    def test_the_pool_is_imported_only_for_a_pooled_sweep(self):
        # there is no pooled sweep: a fresh interpreter runs one and loads no pool
        code = ("import sys, uavsense, uavsense.cli; "
                "uavsense.bench.run_experiment('fig6', instances=1); "
                "print(sorted({'multiprocessing', 'concurrent.futures'} & set(sys.modules)))")
        src = str(Path(uavsense.__file__).resolve().parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True).stdout
        assert out.strip() == "[]"

    def test_deterministic_rerun(self, tmp_path):
        a = run_experiment("fig4", instances=1, seed=70)
        b = run_experiment("fig4", instances=1, seed=70)
        assert a.rows == b.rows and a.raw == b.raw


# (config key, value, ScenarioConfig field it sets, the field's value)
_KEY_CASES = [
    ("M", "10", "m", 10), ("N", "10", "n", 10), ("K", "3", "k", 3), ("q", "2", "q", 2),
    ("seed", "99", "seed", 99), ("scheme", "fsl", "scheme", "fsl"),
    ("data_size", "1.5e7", "data_size", 1.5e7), ("fsl_height", "60", "fsl_height", 60.0),
    ("area.x", "400", "area", (400.0, 500.0, 100.0)),
    ("area.y", "300", "area", (500.0, 300.0, 100.0)),
    ("area.z", "90", "area", (500.0, 500.0, 90.0)),
    ("channel.bs_height", "30", "channel.bs_height", 30.0),
    ("channel.carrier_freq", "2.5", "channel.carrier_freq", 2.5),
    ("channel.subcarrier_bandwidth", "2e6", "channel.subcarrier_bandwidth", 2e6),
    ("channel.noise_power", "-100", "channel.noise_power", -100.0),
    ("channel.tx_power", "20", "channel.tx_power", 20.0),
    ("channel.slot_duration", "0.5", "channel.slot_duration", 0.5),
    ("sensing.lambda", "0.02", "sensing.lam", 0.02),
    ("sensing.pr_th", "0.8", "sensing.pr_th", 0.8),
    ("kinematics.v_max", "40", "kinematics.v_max", 40.0),
    ("kinematics.h_min", "15", "kinematics.h_min", 15.0),
]


class TestConfigFile:
    @pytest.mark.parametrize("key, raw, field, value", _KEY_CASES,
                             ids=[case[0] for case in _KEY_CASES])
    def test_each_key_reaches_its_field(self, key, raw, field, value):
        # the key sets its field, and no other field moves
        base = ScenarioConfig()
        part, _, name = field.rpartition(".")
        if part:
            want = replace(base, **{part: replace(getattr(base, part), **{name: value})})
        else:
            want = replace(base, **{name: value})
        assert want != base
        assert parse_config_text(f"{key} = {raw}\n") == want

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", sorted(key for key, (_, _, parse) in
                                           bench._CONFIG_KEYS.items() if parse is float))
    def test_non_finite_value_refused_by_name(self, key, raw):
        # the refusal names the field, not a symptom downstream of it
        part, name, _ = bench._CONFIG_KEYS[key]
        field = f"area.{name}" if part == "area" else name
        with pytest.raises(ValueError, match=rf"^{re.escape(field)}={raw} must "):
            parse_config_text(f"{key} = {raw}\n")

    @pytest.mark.parametrize("key, raw", [("area.x", "-500"), ("area.x", "0"),
                                          ("area.y", "-1"), ("area.y", "0"),
                                          ("area.z", "-0.5")])
    def test_extent_outside_the_box_refused_by_name(self, key, raw):
        # the generator draws from the origin to the extent: an x or y at or
        # below 0 would mirror the box, a z below 0 is no altitude
        with pytest.raises(ValueError, match=rf"^{re.escape(key)}={float(raw)} must "):
            parse_config_text(f"{key} = {raw}\n")

    def test_a_flat_box_starts_every_uav_on_the_floor(self):
        cfg = parse_config_text("area.z = 0\n")
        starts = generate_scenario(cfg).uav_starts.values()
        assert {p.z for p in starts} == {cfg.kinematics.h_min}

    def test_every_key_has_a_case(self):
        assert sorted(case[0] for case in _KEY_CASES) == sorted(bench._CONFIG_KEYS)

    def test_defaults_from_empty(self):
        cfg = parse_config_text("# only a comment\n")
        assert cfg == ScenarioConfig()

    def test_full_parse(self):
        text = """
        M = 10
        N = 20
        K = 5
        q = 2
        seed = 99
        scheme = fsl
        data_size = 1.5e7
        fsl_height = 60
        area.x = 400
        area.y = 300
        area.z = 90
        channel.bs_height = 30
        channel.carrier_freq = 2.5
        channel.subcarrier_bandwidth = 2e6
        channel.noise_power = -100
        channel.tx_power = 20
        channel.slot_duration = 0.5
        sensing.lambda = 0.02
        sensing.pr_th = 0.8
        kinematics.v_max = 40
        kinematics.h_min = 15
        """
        cfg = parse_config_text(text)
        assert cfg.m == 10 and cfg.n == 20 and cfg.k == 5 and cfg.q == 2
        assert cfg.seed == 99 and cfg.scheme == "fsl"
        assert cfg.data_size == 1.5e7 and cfg.fsl_height == 60
        assert cfg.area == (400, 300, 90)
        assert cfg.channel.bs_height == 30 and cfg.channel.carrier_freq == 2.5
        assert cfg.sensing.lam == 0.02 and cfg.sensing.pr_th == 0.8
        assert cfg.kinematics.v_max == 40 and cfg.kinematics.h_min == 15

    def test_unknown_key_rejected(self):
        with pytest.raises(ValueError, match="unknown config key"):
            parse_config_text("M = 10\nbogus = 3\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            parse_config_text("M = 10\nM = 12\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ValueError, match="bad value"):
            parse_config_text("M = ten\n")

    def test_load_config(self, tmp_path):
        path = tmp_path / "scenario.cfg"
        path.write_text("M = 5\nN = 5\nq = 1\nK = 5\nseed = 8\n")
        cfg = load_config(path)
        assert cfg.m == 5 and cfg.seed == 8


SMALL_CFG = "M = 2\nN = 2\nq = 1\nK = 2\nseed = 12\n"


class TestCli:
    def test_simulate_and_validate(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        trace = tmp_path / "trace.csv"
        export = tmp_path / "solution.json"
        rc = cli_main(["simulate", "--config", str(cfg), "--trace", str(trace),
                       "--export", str(export)])
        out = capsys.readouterr().out
        assert rc == 0
        assert "constraint audit: PASS" in out
        assert trace.exists() and export.exists()

        rc = cli_main(["validate", "--trace", str(trace), "--config", str(cfg)])
        out = capsys.readouterr().out
        assert rc == 0 and "PASS" in out

    def test_validate_rejects_mismatched_seed(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        trace = tmp_path / "trace.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--trace", str(trace)]) == 0
        capsys.readouterr()
        rc = cli_main(["validate", "--trace", str(trace), "--config", str(cfg),
                       "--seed", "999"])
        out = capsys.readouterr().out
        assert rc == 1 and "FAIL" in out

    def test_validate_reports_a_uav_the_scenario_does_not_have(self, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        write_trace([TraceRow(1, 99, EMPTY, 0.0, 0.0, 10.0, 0, 0.0, 0.0)], trace)
        rc = cli_main(["validate", "--trace", str(trace)])  # returns: no traceback
        out = capsys.readouterr()
        assert rc == 1 and out.err == ""
        lines = out.out.splitlines()
        assert lines[0].startswith("FAIL: ")
        assert "  slot 1 uav 99: the scenario has no such UAV" in lines

    def test_validate_waives_the_sensing_threshold_for_fsl_only(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text(SMALL_CFG)
        trace = tmp_path / "trace.csv"
        assert cli_main(["simulate", "--config", str(cfg), "--scheme", "fsl",
                         "--trace", str(trace)]) == 0
        capsys.readouterr()
        validate = ["validate", "--trace", str(trace), "--config", str(cfg), "--scheme"]
        assert cli_main(validate + ["fsl"]) == 0
        assert "PASS" in capsys.readouterr().out
        # a single UAV sensing from 50 m misses the threshold: exp(-0.01 * 50)
        assert cli_main(validate + ["itsso"]) == 1
        assert capsys.readouterr().out.splitlines() == ["FAIL: 2 violation(s)"] + [
            f"  task {j}: cooperative sensing probability 0.606531 below threshold 0.9"
            for j in (0, 1)]

    def test_simulate_scheme_nc_derives_the_nc_config(self, capsys):
        assert cli_main(["simulate", "--scheme", "nc", "--seed", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "scheme=nc seed=3 M=5 N=20 K=10 q=1"
        assert "constraint audit: PASS" in out

    def test_analyze_ops(self, capsys):
        assert cli_main(["analyze", "--op", "dtdq"]) == 0
        assert capsys.readouterr().out.strip() == "-1.479279"
        assert cli_main(["analyze", "--op", "dtdpr"]) == 0
        assert capsys.readouterr().out.strip() == "25.697712"
        assert cli_main(["analyze", "--op", "minq", "--pr-th", "0.999999"]) == 0
        assert capsys.readouterr().out.strip() == "6"

    def test_analyze_defaults_are_the_models(self):
        args = build_parser().parse_args(["analyze", "--op", "dtdq"])
        table, sensing, kin = ScenarioConfig(), SensingParams(), KinematicParams()
        assert (args.q, args.n_i) == (table.q, table.n_per_uav)
        assert (args.pr_th, args.lam) == (sensing.pr_th, sensing.lam)
        assert (args.v_max, args.d0) == (kin.v_max, kin.h_min)

    @pytest.mark.parametrize("argv", [
        ["experiment", "--id", "fig4", "--instances", "1", "--set", "kinematics.h_min=5"],
        ["experiment", "--id", "fig4", "--instances", "0"],
        ["validate", "--trace", "missing.csv"],
        ["simulate", "--seed", "-1"],
        ["simulate", "--no-such-option"],
        ["analyze", "--op", "minq", "--d0", "inf"],
        ["analyze", "--op", "dtdq", "--lam", "nan"],
        ["analyze", "--op", "dtdq", "--v-max", "inf"],
    ], ids=["bad-value", "no-instances", "missing-file", "negative-seed", "argparse",
            "infinite-d0", "nan-lam", "infinite-v-max"])
    def test_refused_input_exits_2_with_one_error_line(self, argv, tmp_path, monkeypatch,
                                                       capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            cli_main(argv)
        # an exception other than argparse's exit would escape pytest.raises
        assert exit_.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("uavsense: error: ")
        assert sum("error:" in line for line in lines) == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("scheme", ["itsso", "nc", "fsl"])
    def test_a_leg_that_cannot_be_planned_exits_2_with_one_error_line(self, scheme, tmp_path,
                                                                      capsys):
        # 2e9 bits at K=1 outlast every leg's 100 extra slots
        cfg = tmp_path / "big.cfg"
        cfg.write_text("M = 4\nN = 4\nq = 2\nK = 1\ndata_size = 2e9\nseed = 0\n")
        with pytest.raises(SystemExit) as exit_:
            cli_main(["simulate", "--config", str(cfg), "--scheme", scheme])
        assert exit_.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("uavsense: error: no feasible leg from ")
        assert sum("error:" in line for line in lines) == 1

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: expected"),
        ("slot,uav,slot_type,x,y,z,granted,rate_bits,residual_bits\n1,0,sensing\n",
         "line 2: expected"),
        ("slot,uav,slot_type,x,y,z,granted,rate_bits,residual_bits\n"
         "1,0,sensing,0,0,40,0,0.0,2e7\none,0,sensing,0,0,40,0,0.0,2e7\n",
         "trace.csv: line 3: invalid literal for int()"),
    ], ids=["empty", "short-row", "unparsed-slot"])
    def test_validate_refuses_a_malformed_trace(self, text, message, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        trace.write_text(text)
        with pytest.raises(SystemExit) as exit_:
            cli_main(["validate", "--trace", str(trace)])
        assert exit_.value.code == 2
        lines = capsys.readouterr().err.splitlines()
        assert lines[-1].startswith("uavsense: error: ")
        assert sum("error:" in line for line in lines) == 1
        assert message in lines[-1]

    def test_experiment_command(self, tmp_path, capsys):
        rc = cli_main(["experiment", "--id", "fig8", "--instances", "1",
                       "--out", str(tmp_path), "--seed", "5"])
        out = capsys.readouterr().out
        assert rc == 0
        assert (tmp_path / "fig8.csv").exists()
        assert "simulated" in out

    def test_experiment_set_patches_the_base_config(self, tmp_path, capsys):
        # --set pairs in config-file syntax give the sweep's base config
        args = ["experiment", "--id", "fig6", "--instances", "1", "--seed", "80",
                "--set", "K=2", "--set", "data_size=5e6"]
        assert cli_main(args + ["--out", str(tmp_path / "cli")]) == 0
        capsys.readouterr()
        base = replace(ScenarioConfig(), k=2, data_size=5e6)
        res = run_experiment("fig6", base=base, instances=1, seed=80,
                             out_dir=tmp_path / "api")
        with open(tmp_path / "cli" / "fig6.csv", newline="") as fh:
            cli_rows = list(csv.reader(fh))
        with open(tmp_path / "api" / "fig6.csv", newline="") as fh:
            assert cli_rows == list(csv.reader(fh))
        assert len(cli_rows) == 1 + len(res.rows) == 16
        default = run_experiment("fig6", base=replace(base, k=10), instances=1, seed=80)
        assert default.rows != res.rows  # K=2 reached the sweep
