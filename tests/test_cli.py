"""The command-line contract: exit codes, record fields and determinism."""

import csv
import io
import itertools
import json
import math

import numpy as np
import pytest

import sharptail as st
from sharptail import cli

RUN = {"z": {"kind": "binomial", "m": 1, "p": 0.5},
       "w": {"kind": "uniform", "c": 0.0, "d": 1.0},
       "n": 2000, "a": 0.3, "theta_star": 1.2, "seed": 3}
TCELL = {"n": 1000, "z_f": 40, "w_f": 0.25, "tau": {"kind": "exponential", "rate": 1.0},
         "z": {"kind": "binomial", "m": 10, "p": 0.1}, "a": 0.27, "theta_star": 1.0,
         "seed": 3}
PORTFOLIO = {"blocks": [{"q": 500, "w": RUN["w"], "z": RUN["z"]}], "a": 0.3,
             "theta_star": 1.0, "seed": 3}
MC_BLOCK = {"batches": 3}


@pytest.fixture
def invoke_full(tmp_path, capsys):
    """Run one subcommand on a config; return (exit code, stdout, stderr)."""
    def run(command, config, *flags):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        capsys.readouterr()
        code = cli.run([command, "--config", str(path), *flags])
        captured = capsys.readouterr()
        return code, captured.out, captured.err
    return run


@pytest.fixture
def invoke(invoke_full):
    """Run one subcommand on a config; return (exit code, stdout)."""
    return lambda *args: invoke_full(*args)[:2]


@pytest.mark.parametrize("conditions", [None, {"delta1": 0.1, "grid_count": 64}])
def test_approx_and_check_conditions_share_one_path(invoke, conditions):
    config = dict(RUN, conditions=conditions) if conditions else RUN
    code, approx_out = invoke("approx", config)
    assert code == 0
    code, cond_out = invoke("check-conditions", config)
    assert code == 0
    approx_doc, cond_doc = json.loads(approx_out), json.loads(cond_out)
    fields = {key: cond_doc[key] for key in approx_doc["conditions"]}
    assert cli._dump_json(fields) == cli._dump_json(approx_doc["conditions"])
    assert cond_doc["theta"] == approx_doc["theta"]
    assert fields["t_grid"]["defaulted"] is (conditions is None)
    # reruns at a fixed config and seed are byte-identical
    assert invoke("approx", config) == (0, approx_out)
    assert invoke("check-conditions", config) == (0, cond_out)


@pytest.mark.parametrize("command,flags", [
    ("check-conditions", ()),
    ("fclt", ("--n", "500", "--replicas", "100", "--grid", "3")),
])
def test_csv_format_without_csv_form_exits_2(invoke, command, flags):
    config = dict(RUN, output={"format": "csv"})
    assert invoke(command, config, *flags) == (2, "")


def test_fclt_honours_output_path(invoke, tmp_path):
    flags = ("--n", "500", "--replicas", "100", "--grid", "3")
    code, stdout = invoke("fclt", RUN, *flags)
    assert code == 0
    out = tmp_path / "fclt.json"
    assert invoke("fclt", dict(RUN, output={"path": str(out)}), *flags) == (0, "")
    assert out.read_text(encoding="utf-8") == stdout
    assert (tmp_path / "fclt.json.csv").exists()


def test_sample_rejects_unknown_mode(invoke):
    assert invoke("sample", RUN, "--mode", "other") == (2, "")


def test_help_exits_0(capsys):
    assert cli.run(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: sharptail")


@pytest.mark.parametrize("command,config,flags,code,error", [
    # the mean map at zero is E[W] / 2 ~ 0.25
    ("approx", dict(RUN, a=0.1), (), 3, "OutOfRange"),
    # 2^25 Bernoulli tuples, above the 2^24 cap
    ("sample", RUN, ("--mode", "exact", "--n", "25"), 4, "TooLarge"),
    ("fclt", RUN, ("--n", "500", "--replicas", "50", "--grid", "3"), 4,
     "InsufficientReplicas"),
])
def test_failure_exit_codes(invoke_full, command, config, flags, code, error):
    got, stdout, stderr = invoke_full(command, config, *flags)
    assert (got, stdout) == (code, "")
    [line] = stderr.splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == error and diagnostic["message"]


@pytest.mark.parametrize("command,flags,bad", [
    ("sample", ("--draws", "1000", "--batches", "0"), "--batches"),
    ("sample", ("--draws", "-5"), "--draws"),
    ("sample", ("--mode", "naive", "--draws", "0"), "--draws"),
    ("sample", ("--mode", "naive", "--batches", "-1"), "--batches"),
    ("fclt", ("--n", "500", "--replicas", "100", "--grid", "0"), "--grid"),
    ("fclt", ("--n", "500", "--replicas", "0", "--grid", "3"), "--replicas"),
    ("fclt", ("--n", "500", "--replicas", "-2", "--grid", "3"), "--replicas"),
])
def test_bad_budgets_exit_2(invoke_full, command, flags, bad):
    got, stdout, stderr = invoke_full(command, RUN, *flags)
    assert (got, stdout) == (2, "")
    [line] = stderr.splitlines()
    diagnostic = json.loads(line)
    assert diagnostic["error"] == "ValueError" and bad in diagnostic["message"]


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("command,config,flags,where", [
    ("approx", dict(RUN, a=NAN), (), "config/a"),
    ("approx", RUN, ("--a", "nan"), "config/a"),
    ("approx", dict(RUN, theta_star=INF), (), "config/theta_star"),
    ("approx", dict(RUN, w={"kind": "two_point", "values": [NAN, 1.0],
                            "probs": [0.5, 0.5]}), (), "config/w/values/0"),
    ("fclt", dict(RUN, a_grid=[NAN]), ("--n", "500", "--replicas", "100"),
     "config/a_grid/0"),
    ("fclt", RUN, ("--n", "500", "--replicas", "100", "--grid", "0.3,nan"), "--grid"),
])
def test_non_finite_numbers_exit_2(invoke_full, command, config, flags, where):
    # json.load takes NaN and Infinity, and float flags take "nan"
    got, stdout, stderr = invoke_full(command, config, *flags)
    assert (got, stdout) == (2, "")
    [line] = stderr.splitlines()
    message = json.loads(line)["message"]
    assert where in message and "finite" in message


def assert_csv_matches_json(invoke, command, config, *flags):
    code, stdout = invoke(command, dict(config, output={"format": "csv"}), *flags)
    assert code == 0
    header, row = csv.reader(io.StringIO(stdout))
    assert header == list(cli.ESTIMATE_CSV_COLUMNS)
    doc = json.loads(invoke(command, config, *flags)[1])
    assert row == [str(doc.get(col, "")) for col in header]


def test_approx_csv_record(invoke):
    assert_csv_matches_json(invoke, "approx", RUN)


@pytest.mark.parametrize("command,config,flags", [
    ("sample", RUN, ("--draws", "2000")),
    ("sample", RUN, ("--mode", "naive", "--draws", "2000")),
    ("tcell", TCELL, ()),
    ("portfolio", PORTFOLIO, ()),
])
def test_estimate_csv_records(invoke, command, config, flags):
    assert_csv_matches_json(invoke, command, config, *flags)


@pytest.mark.parametrize("command,flags", [
    ("approx", ()),
    ("sample", ("--draws", "2000")),
])
def test_seed_flag_overrides_config_seed(invoke, command, flags):
    # the environment and the MC draws both follow --seed
    overridden = invoke(command, RUN, "--seed", "4", *flags)
    assert overridden == invoke(command, dict(RUN, seed=4), *flags)
    assert overridden[0] == 0 and overridden != invoke(command, RUN, *flags)


def test_mc_seed_pins_the_draws(invoke):
    # constant weights make the environment independent of the seed, so
    # only the MC stream can move p
    config = dict(RUN, w={"kind": "constant", "c": 1.0}, a=0.55)

    def p_at(cfg, seed):
        code, stdout = invoke("sample", cfg, "--seed", str(seed), "--draws", "2000")
        assert code == 0
        return json.loads(stdout)["p"]

    assert p_at(config, 4) != p_at(config, 5)
    pinned = dict(config, mc={"seed": 9})
    assert p_at(pinned, 4) == p_at(pinned, 5) == p_at(dict(config, seed=9), 9)


def test_tcell_lognormal_dwell_times(invoke):
    tau = {"kind": "lognormal", "mu": 0.0, "s": 1.0}
    code, stdout = invoke("tcell", dict(TCELL, tau=tau, a=0.3))
    assert code == 0
    sc = st.TcellScenario(n=1000, z_f=40, w_f=0.25, a=0.3, theta_star=1.0,
                          tau_model=st.TcellWeight(tau_kind="lognormal", mu=0.0, s=1.0),
                          z_model=st.BinomialModel(10, 0.1))
    assert json.loads(stdout)["log_p"] == st.tcell_activation_prob(sc, 3).log_value


def test_run_config_rejects_mc_mode(invoke):
    assert invoke("approx", dict(RUN, mc={"mode": "naive"}))[0] == 2


@pytest.mark.parametrize("command,config", [("tcell", TCELL), ("portfolio", PORTFOLIO)])
def test_scenarios_reject_mc_block(invoke, command, config):
    assert invoke(command, config)[0] == 0
    assert invoke(command, dict(config, mc=MC_BLOCK)) == (2, "")


@pytest.mark.parametrize("command,config", [
    ("tcell", dict(TCELL, z={"kind": "gaussian", "sigma2": 1.0})),
    ("tcell", dict(TCELL, output={"format": "xml"})),
    ("portfolio", dict(PORTFOLIO, output={"format": "xml"})),
])
def test_scenario_schemas_reject(invoke_full, command, config):
    got, stdout, stderr = invoke_full(command, config)
    assert (got, stdout) == (2, "")
    assert json.loads(stderr.splitlines()[0])["error"] == "ValidationError"


def test_tilted_mc_underflow_is_flagged(invoke):
    # p ~ e^-887 is below the linear float range: the record keeps log_p and
    # drops the linear stderr instead of claiming p = 0 exactly
    code, stdout = invoke("sample", dict(RUN, seed=1), "--n", "60000", "--draws", "2000")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["p"] == 0.0
    assert isinstance(doc["log_p"], float) and math.isfinite(doc["log_p"])
    assert doc["log_p"] < math.log(1e-300)
    assert "stderr" not in doc
    assert "p_underflow" in doc["warnings"]


def test_report_ratio_survives_underflow(invoke, tmp_path, capsys):
    # both records have p = 0.0; the ratio comes from log_p
    config = dict(RUN, seed=1, n=60_000)
    paths = [tmp_path / "sldp.json", tmp_path / "tilted.json"]
    assert invoke("approx", dict(config, output={"path": str(paths[0])})) == (0, "")
    assert invoke("sample", dict(config, output={"path": str(paths[1])}),
                  "--draws", "2000") == (0, "")
    sldp, tilted = (json.loads(p.read_text(encoding="utf-8")) for p in paths)
    assert sldp["p"] == tilted["p"] == 0.0
    capsys.readouterr()
    assert cli.run(["report", *map(str, paths), "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [float(r["ratio_to_sldp"]) for r in rows] == [
        1.0, math.exp(tilted["log_p"] - sldp["log_p"])]
    assert float(rows[1]["ratio_to_sldp"]) == pytest.approx(0.948, abs=0.005)


@pytest.mark.parametrize("command", ["approx", "sample"])
def test_dump_env_writes_the_drawn_weights(invoke, tmp_path, command):
    # one repr line per weight, so the file parses back bit for bit
    flags = ("--draws", "2000") if command == "sample" else ()
    path = tmp_path / "weights.csv"
    code, stdout = invoke(command, RUN, *flags)
    assert code == 0
    assert invoke(command, RUN, *flags, "--dump-env", str(path)) == (0, stdout)
    back = np.array([float(line) for line in path.read_text(encoding="ascii").splitlines()])
    want = st.draw_environment(cli.build_w_model(RUN["w"]), RUN["n"],
                               st.derive_stream(RUN["seed"], 0))
    assert np.array_equal(back, want)


def test_draws_rounded_up_to_whole_batches(invoke, capsys):
    # the default 100 batches of equal size: 5 -> 100 x 1, 1050 -> 100 x 11
    for draws, recorded in (("5", 100), ("1050", 1100)):
        code, stdout = invoke("sample", RUN, "--n", "200", "--draws", draws)
        assert code == 0
        assert json.loads(stdout)["draws"] == recorded
    assert cli.run(["sample", "--help"]) == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "total draw budget, rounded up to a multiple of the batch count" in help_text


# Bernoulli(1/2) summands on {0, 1} weights at n = 4: each replica's weights
# are all zero with probability 1/16
ALL_ZERO_PRONE = {"z": RUN["z"], "w": {"kind": "two_point", "values": [0.0, 1.0],
                                       "probs": [0.5, 0.5]},
                  "n": 4, "theta_star": 1.2, "seed": 3}


def test_fclt_masks_all_zero_replicas(invoke_full):
    # all-zero replicas count as incomplete, like out-of-range thresholds
    code, stdout, stderr = invoke_full("fclt", ALL_ZERO_PRONE, "--replicas", "200", "--grid", "2")
    assert (code, stdout) == (4, "")
    diagnostic = json.loads(stderr.splitlines()[0])
    assert diagnostic == {"error": "InsufficientReplicas",
                          "message": "only 67 complete replicas (need 100)"}
    code, stdout, _ = invoke_full("fclt", ALL_ZERO_PRONE, "--replicas", "400", "--grid", "2")
    assert code == 0
    assert json.loads(stdout)["replicas"] == 156


def test_empty_t_range_reports_no_cf_sup(invoke):
    # theta_n = 0.0483 < delta1 = 0.05: the range [delta1, delta2 theta_n] is
    # empty, so no grid is probed and cf_sup is null
    config = dict(RUN, a=0.25)
    code, approx_out = invoke("approx", config)
    assert code == 0
    conditions = json.loads(approx_out)["conditions"]
    assert conditions["cf_sup"] is None
    assert conditions["theta_sqrt_n"] < 0.05 * math.sqrt(RUN["n"])
    code, cond_out = invoke("check-conditions", config)
    assert code == 0
    assert json.loads(cond_out)["cf_sup"] is None


def test_sample_exact_mode(invoke):
    code, stdout = invoke("sample", RUN, "--mode", "exact", "--n", "16")
    assert code == 0
    doc = json.loads(stdout)
    weights = st.draw_environment(cli.build_w_model(RUN["w"]), 16,
                                  st.derive_stream(RUN["seed"], 0))
    want = st.exact_enum_segments([st.Segment(weights, st.BinomialModel(1, 0.5))], RUN["a"])
    assert doc["method"] == "exact_enum"
    assert (doc["p"], doc["log_p"]) == (want.value, want.log_value)
    assert "draws" not in doc and "stderr" not in doc


def test_gaussian_summand_config(invoke):
    config = dict(RUN, z={"kind": "gaussian", "sigma2": 2.0})
    code, stdout = invoke("approx", config)
    assert code == 0
    weights = st.draw_environment(cli.build_w_model(RUN["w"]), RUN["n"],
                                  st.derive_stream(RUN["seed"], 0))
    sol = st.solve_saddle([st.Segment(weights, st.GaussianModel(2.0))], RUN["a"], 1.2)
    assert json.loads(stdout)["theta"] == sol.theta


def test_fclt_default_grid_has_nine_thresholds(invoke):
    code, stdout = invoke("fclt", RUN, "--replicas", "100")
    assert code == 0
    curves = st.DeterministicCurves(cli.build_w_model(RUN["w"]),
                                    cli.build_z_model(RUN["z"]), RUN["theta_star"])
    assert json.loads(stdout)["a_grid"] == curves.grid(9).tolist()


def test_approx_without_threshold_exits_2(invoke_full):
    config = {key: value for key, value in RUN.items() if key != "a"}
    got, stdout, stderr = invoke_full("approx", config)
    assert (got, stdout) == (2, "")
    diagnostic = json.loads(stderr.splitlines()[0])
    assert diagnostic == {"error": "ValidationError",
                          "message": "approx needs a threshold 'a'"}


def test_naive_mc_below_stderr_floor(invoke):
    code, stdout = invoke("sample", RUN, "--mode", "naive", "--n", "200", "--draws", "500")
    assert code == 0
    doc = json.loads(stdout)
    assert doc["draws"] == 500
    assert "stderr" not in doc
    assert "draws_below_stderr_floor" in doc["warnings"]


@pytest.fixture
def saved_records(invoke, tmp_path):
    """Write the named records of RUN at n = 200 to files; return their paths."""
    runs = {"sldp": ("approx",), "tilted": ("sample", "--draws", "2000"),
            "naive": ("sample", "--mode", "naive", "--draws", "2000")}
    count = itertools.count()

    def save(*names, **overrides):
        paths = []
        for name in names:
            path = tmp_path / f"record{next(count)}.json"
            command, *flags = runs[name]
            config = dict(RUN, n=200, output={"path": str(path)}, **overrides)
            assert invoke(command, config, *flags) == (0, "")
            paths.append(str(path))
        return paths
    return save


def test_report_default_table(saved_records, capsys):
    paths = saved_records("sldp", "tilted")
    capsys.readouterr()
    assert cli.run(["report", *paths]) == 0
    lines = capsys.readouterr().out.splitlines()
    header, *rows = (line.split() for line in lines)
    assert header == list(cli.REPORT_CSV_COLUMNS)
    assert [row[0] for row in rows] == ["sldp_analytic", "tilted_mc"]
    assert float(rows[0][-1]) == 1.0
    # the method column is padded to its widest entry
    starts = {line.index(" " + fields[1]) for line, fields in zip(lines, [header, *rows])}
    assert starts == {len("sldp_analytic") + 1}


def test_report_without_sldp_has_empty_ratios(saved_records, capsys):
    paths = saved_records("tilted", "naive")
    capsys.readouterr()
    assert cli.run(["report", *paths, "--format", "csv"]) == 0
    rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
    assert [r["method"] for r in rows] == ["tilted_mc", "naive_mc"]
    assert [r["ratio_to_sldp"] for r in rows] == ["", ""]


@pytest.mark.parametrize("records", [
    lambda save: save("sldp"),
    lambda save: save("sldp") + save("tilted", seed=4),
    lambda save: save("sldp") + save("tilted", a=0.35),
])
def test_report_mismatched_runs_exit_2(saved_records, capsys, records):
    paths = records(saved_records)
    capsys.readouterr()
    assert cli.run(["report", *paths]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert json.loads(captured.err.splitlines()[0])["error"] == "MismatchedRuns"
