"""Configuration parsing and the command line driver."""

from pathlib import Path

import numpy as np
import pytest

import planar_mhd.diagnostics as diagnostics
from planar_mhd.cli import EXIT_COMPAT, EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from planar_mhd.config import _ALL_KEYS, ConfigError, RunConfig, parse_config, render_config
from planar_mhd.diagnostics import csv_header
from planar_mhd.initial import scenario
from planar_mhd.model import Grid, PhysParams, State
from planar_mhd.solver import SchemeConfig, run
from planar_mhd.tables import write_state_table


@pytest.fixture(autouse=True)
def clean_env(monkeypatch):
    monkeypatch.delenv("PLANAR_MHD_OUT", raising=False)


def test_empty_config_gives_defaults():
    assert parse_config("") == RunConfig()
    assert parse_config("# only a comment\n\n") == RunConfig()


def test_config_round_trip():
    cfg = RunConfig(scenario="vacuum-pocket", n_cells=96, t_end=0.25,
                    delta=1e-3, alpha=0.3, record_every=2,
                    snapshot_times=(0.0, 0.1, 0.25), output_dir="results",
                    phys=PhysParams(q_exp=1.5),
                    scheme=SchemeConfig(cfl=0.4, picard_tol=1e-9))
    assert parse_config(render_config(cfg)) == cfg

    # alpha = None survives because the key is simply omitted
    cfg2 = RunConfig(alpha=None)
    assert parse_config(render_config(cfg2)) == cfg2
    assert parse_config("alpha = none") == cfg2


@pytest.mark.parametrize("text,fragment", [
    ("q_exp = 0", "q_exp must be > 0"),
    ("q_exp = -2", "q_exp must be > 0"),
    ("alpha = 0.9\nq_exp = 0.5", "open interval"),
    ("alpha = 0", "open interval"),
    ("t_end = -1", "t_end must be nonnegative"),
    ("n_cells = 2", "n_cells must be at least 4"),
    ("cfl = 0", "cfl must lie in (0, 1]"),
    ("cfl = 1.5", "cfl must lie in (0, 1]"),
    ("delta = -0.1", "delta must be nonnegative"),
    ("record_every = 0", "record_every"),
    ("snapshot_times = 0.1,-0.2", "snapshot_times"),
    ("lambda_visc = 0", "lambda_visc must be positive"),
    ("nonsense = 1", "unknown key"),
    ("n_cells = sixteen", "cannot parse value"),
    ("just some words", "expected 'key = value'"),
    ("t_end = 0.1\nt_end = 0.2", "duplicate key"),
    ("q_exp = nan", "q_exp must be > 0"),
    ("q_exp = inf", "q_exp must be > 0"),
    ("alpha = nan", "open interval"),
    ("cfl = nan", "cfl must lie in (0, 1]"),
    ("dt_max = nan", "dt_max must be positive"),
    ("dt_max = inf", "dt_max must be positive"),
    ("picard_tol = nan", "picard_tol must be positive"),
    ("lambda_visc = inf", "lambda_visc must be positive"),
    ("t_end = nan", "t_end must be nonnegative"),
    ("t_end = inf", "t_end must be nonnegative"),
    ("delta = nan", "delta must be nonnegative"),
    ("theta_floor_tol = nan", "theta_floor_tol must be nonnegative"),
    ("theta_floor_tol = inf", "theta_floor_tol must be nonnegative"),
    ("snapshot_times = 0.1,nan", "snapshot_times"),
    ("snapshot_times = inf", "snapshot_times"),
])
def test_config_rejections_name_the_constraint(text, fragment):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert fragment in str(err.value)


def test_readme_configuration_table_matches_the_defaults():
    # the README table is the one hand-written copy of the defaults
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    body = readme.split("| key | default | meaning |\n| --- | --- | --- |\n", 1)[1]
    lines = []
    for row in body.split("\n\n", 1)[0].splitlines():
        key, default = (cell.strip().strip("`") for cell in row.split("|")[1:3])
        lines.append(f"{key} = {'' if default == 'empty' else default}")
    assert {line.split(" = ")[0] for line in lines} == _ALL_KEYS
    assert parse_config("\n".join(lines)) == RunConfig()


def test_config_errors_carry_line_numbers():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("t_end = 0.1\n\nbogus_key = 2\n")


def write_config(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_simulate_writes_the_output_suite(tmp_path, capsys):
    cfgfile = write_config(tmp_path, "scenario = uniform-rest\nn_cells = 16\nt_end = 0.01\n")
    outdir = tmp_path / "outA"
    code = main(["--config", cfgfile, "--out", str(outdir), "simulate"])
    assert code == EXIT_OK

    csv = (outdir / "diagnostics.csv").read_text().splitlines()
    assert csv[0] == csv_header()
    assert len(csv) > 2
    summary = (outdir / "run-summary.txt").read_text()
    assert "mass_drift_max = 0\n" in summary
    assert "compat_passed = yes" in summary
    log = (outdir / "run.log").read_text().splitlines()
    assert log, "run.log must not be empty"
    for line in log:
        assert line.split(" ", 1)[0] in {"INFO", "WARNING", "ERROR"}
    assert "steps" in capsys.readouterr().out


def test_simulate_snapshots_then_audit(tmp_path):
    outdir = tmp_path / "outB"
    cfgfile = write_config(
        tmp_path,
        "scenario = gaussian-density\nn_cells = 32\nt_end = 0.01\n"
        "snapshot_times = 0.0,0.005,0.01\n")
    assert main(["--config", cfgfile, "--out", str(outdir), "simulate"]) == EXIT_OK
    snaps = sorted(p.name for p in outdir.glob("snapshot_t*.dat"))
    assert snaps == ["snapshot_t0.000000.dat", "snapshot_t0.005000.dat",
                     "snapshot_t0.010000.dat"]

    auditdir = tmp_path / "audit"
    code = main(["--config", cfgfile, "--out", str(auditdir),
                 "audit", "--input", str(outdir)])
    assert code == EXIT_OK
    assert (auditdir / "audit.csv").read_text().splitlines()[0] == csv_header()
    summary = (auditdir / "audit-summary.txt").read_text()
    assert "snapshots = 3" in summary
    assert "embedding_pass = yes" in summary


def test_audit_records_do_not_depend_on_the_window(tmp_path, monkeypatch):
    # audit folds its snapshot pairs through the accumulator's windows, so
    # its records must not depend on how many pairs one window holds
    n, count = 128, 16
    grid = Grid.uniform(n)
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    states = []
    run(scenario("magnetic-pulse", grid), 0.02, grid, PhysParams(),
        snapshot_times=np.linspace(0.0, 0.02, count), snapshot_sink=states.append)
    assert len(states) == count
    for state in states:
        write_state_table(snaps / f"snapshot_t{state.time:.6f}.dat", grid, state)

    audits = []
    for window in (1, 7, count + 5):
        monkeypatch.setattr(diagnostics, "WINDOW_CELLS", window * n)
        monkeypatch.setattr(diagnostics, "MIN_WINDOW", 1)
        outdir = tmp_path / f"audit{window}"
        assert main(["--out", str(outdir), "audit", "--input", str(snaps)]) == EXIT_OK
        audits.append((outdir / "audit.csv").read_bytes())
    assert len(audits[0].splitlines()) == 1 + count
    assert audits[1] == audits[0]
    assert audits[2] == audits[0]


def test_audit_without_snapshots_fails(tmp_path, capsys):
    empty = tmp_path / "empty"
    empty.mkdir()
    code = main(["--out", str(tmp_path / "o"), "audit", "--input", str(empty)])
    assert code == EXIT_CONFIG
    assert "no snapshot_t*.dat tables found" in capsys.readouterr().err

    code = main(["--out", str(tmp_path / "o"), "audit",
                 "--input", str(tmp_path / "missing")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("seed", ["-1", "abc"])
def test_audit_rejects_a_bad_seed_before_it_runs(tmp_path, capsys, seed):
    # numpy's default_rng takes nonnegative integers only; a negative seed
    # used to fail inside embedding_check after the records were computed
    cfgfile = write_config(tmp_path, "scenario = magnetic-pulse\nn_cells = 16\nt_end = 0.01\n"
                                     "snapshot_times = 0.0,0.01\n")
    snaps = tmp_path / "snaps"
    assert main(["--config", cfgfile, "--out", str(snaps), "simulate"]) == EXIT_OK
    outdir = tmp_path / "audit"
    code = main(["--seed", seed, "--out", str(outdir), "audit", "--input", str(snaps)])
    assert code == EXIT_CONFIG
    assert f"argument --seed: must be a nonnegative integer, got '{seed}'" in (
        capsys.readouterr().err)
    assert not outdir.exists()


@pytest.mark.parametrize("body", [
    "q_exp = 0\n",
    "alpha = 0.9\nq_exp = 0.5\n",
    "t_end = -1\n",
    "nonsense = 1\n",
    "q_exp = nan\n",
])
def test_bad_config_file_exits_2(tmp_path, capsys, body):
    cfgfile = write_config(tmp_path, body)
    code = main(["--config", cfgfile, "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("value", ["0", "-1"])
def test_a_bad_record_every_exits_2_with_the_rules_message(tmp_path, capsys, value):
    cfgfile = write_config(tmp_path, f"record_every = {value}\n")
    code = main(["--config", cfgfile, "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: record_every must be at least 1, got {value}\n"


def test_colliding_snapshot_names_exit_2(tmp_path, capsys):
    # both instants round to snapshot_t0.005000.dat
    cfgfile = write_config(
        tmp_path, "scenario = uniform-rest\nn_cells = 16\nt_end = 0.01\n"
                  "snapshot_times = 0.0050001,0.0050004\n")
    outdir = tmp_path / "o"
    code = main(["--config", cfgfile, "--out", str(outdir), "simulate"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "0.0050001" in err and "0.0050004" in err
    assert not list(outdir.glob("snapshot_t*.dat"))


def test_simulate_refuses_a_directory_holding_other_runs_snapshots(tmp_path, capsys):
    outdir = tmp_path / "o"
    first = write_config(
        tmp_path, "scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.03\n"
                  "snapshot_times = 0.01,0.02,0.03\n", name="first.cfg")
    second = write_config(
        tmp_path, "scenario = gaussian-density\nn_cells = 32\nt_end = 0.015\n"
                  "snapshot_times = 0.005,0.015\n", name="second.cfg")
    for _ in range(2):  # the same config may rerun into its own directory
        assert main(["--config", first, "--out", str(outdir), "simulate"]) == EXIT_OK
    before = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"}
    capsys.readouterr()

    assert main(["--config", second, "--out", str(outdir), "simulate"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    for name in ("snapshot_t0.010000.dat", "snapshot_t0.020000.dat",
                 "snapshot_t0.030000.dat"):
        assert name in err
    after = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"}
    assert after == before


def test_simulate_warns_before_replacing_an_earlier_runs_outputs(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path, "scenario = magnetic-pulse\nn_cells = 32\nt_end = 0.02\n"
                  "snapshot_times = 0.01\n")
    outdir = tmp_path / "o"
    assert main(["--config", cfgfile, "--out", str(outdir), "simulate"]) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err
    assert "WARNING" not in (outdir / "run.log").read_text()
    first = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"}

    assert main(["--config", cfgfile, "--out", str(outdir), "simulate"]) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning:")
    log = (outdir / "run.log").read_text()
    assert log.startswith("WARNING")
    for name in ("diagnostics.csv", "run-summary.txt", "snapshot_t0.010000.dat"):
        assert name in err and name in log
    # the rerun still writes the same outputs
    assert {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"} == first


def rerun_warns(tmp_path, capsys, argv, names):
    """Run argv twice: the first run warns of nothing, the rerun names each
    of names on stderr and in run.log and writes the same bytes."""
    outdir = tmp_path / "o"
    argv = ["--out", str(outdir)] + argv
    assert main(argv) == EXIT_OK
    assert "warning:" not in capsys.readouterr().err
    assert "WARNING" not in (outdir / "run.log").read_text()
    first = {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"}
    assert set(names) <= set(first)

    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning:")
    log = (outdir / "run.log").read_text()
    assert "WARNING" in log
    for name in names:
        assert name in err and name in log
    assert {p.name: p.read_bytes() for p in outdir.iterdir() if p.name != "run.log"} == first


def test_mms_warns_before_replacing_its_reports(tmp_path, capsys):
    rerun_warns(tmp_path, capsys,
                ["mms", "--case", "constant", "--resolutions", "16,32", "--t-end", "0.01"],
                ("mms-report.txt", "mms-report.csv"))


def test_continuation_warns_before_replacing_its_reports(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path, "scenario = gaussian-density\nn_cells = 16\nt_end = 0.005\n")
    rerun_warns(tmp_path, capsys,
                ["--config", cfgfile, "continuation", "--deltas", "1e-1,1e-2"],
                ("continuation-report.txt", "continuation-report.csv"))


def test_audit_warns_before_replacing_its_reports(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path, "scenario = magnetic-pulse\nn_cells = 16\nt_end = 0.02\n"
                  "snapshot_times = 0.0,0.02\n")
    snaps = tmp_path / "snaps"
    assert main(["--config", cfgfile, "--out", str(snaps), "simulate"]) == EXIT_OK
    capsys.readouterr()
    rerun_warns(tmp_path, capsys, ["audit", "--input", str(snaps)],
                ("audit.csv", "audit-summary.txt"))


@pytest.mark.parametrize("command", ["simulate", "continuation", "mms", "audit"])
def test_rerun_names_the_run_log_it_replaces(tmp_path, capsys, command):
    cfgfile = write_config(
        tmp_path, "scenario = magnetic-pulse\nn_cells = 16\nt_end = 0.02\n"
                  "snapshot_times = 0.0,0.02\n")
    snaps = tmp_path / "snaps"
    assert main(["--config", cfgfile, "--out", str(snaps), "simulate"]) == EXIT_OK
    argv = {"simulate": ["simulate"],
            "continuation": ["continuation", "--deltas", "1e-1,1e-2", "--t-end", "0.005"],
            "mms": ["mms", "--case", "constant", "--resolutions", "16,32", "--t-end", "0.01"],
            "audit": ["audit", "--input", str(snaps)]}[command]
    argv = ["--config", cfgfile, "--out", str(tmp_path / "o")] + argv
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    assert "run.log" not in capsys.readouterr().err
    assert main(argv) == EXIT_OK
    err = capsys.readouterr().err
    assert err.startswith("warning:") and "run.log" in err
    log = (tmp_path / "o" / "run.log").read_text().splitlines()
    assert [line for line in log if line.startswith("WARNING")] == [
        "WARNING " + err.splitlines()[0].removeprefix("warning: ")]


def test_missing_config_file_exits_2(tmp_path, capsys):
    code = main(["--config", str(tmp_path / "absent.cfg"),
                 "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_CONFIG
    assert "cannot read config file" in capsys.readouterr().err


def test_unknown_scenario_exits_2(tmp_path, capsys):
    cfgfile = write_config(tmp_path, "scenario = warp-drive\n")
    code = main(["--config", cfgfile, "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown scenario" in err
    assert "uniform-rest" in err


def incompatible_table(tmp_path):
    # vacuum plateau with a curved temperature: heat flux does not vanish
    # on the empty region, so the admissibility check must object
    grid = Grid.uniform(48)
    pocket = scenario("vacuum-pocket", grid)
    theta = 1.0 + 0.5 * np.cos(2.0 * np.pi * grid.cell_centers)
    state = State(0.0, pocket.rho0, pocket.u0, pocket.w0, pocket.b0, theta)
    path = tmp_path / "incompatible.dat"
    write_state_table(path, grid, state)
    return path


def test_strict_compat_exits_3(tmp_path, capsys):
    table = incompatible_table(tmp_path)
    cfgfile = write_config(tmp_path, f"scenario = {table}\nt_end = 0.002\n")
    code = main(["--config", cfgfile, "--out", str(tmp_path / "o"),
                 "--strict-compat", "simulate"])
    assert code == EXIT_COMPAT
    assert "compatibility check failed" in capsys.readouterr().err


def test_compat_warning_without_strict_flag(tmp_path):
    table = incompatible_table(tmp_path)
    cfgfile = write_config(tmp_path, f"scenario = {table}\nt_end = 0.002\n")
    outdir = tmp_path / "o"
    code = main(["--config", cfgfile, "--out", str(outdir), "simulate"])
    assert code == EXIT_OK
    assert "compat_passed = no" in (outdir / "run-summary.txt").read_text()
    assert "WARNING compatibility check failed" in (outdir / "run.log").read_text()


def raw_table(path, n, header):
    rows = [f"{(i + 0.5) / n!r} 1 0 0 0 0 0 1" for i in range(n)]
    path.write_text("\n".join([header, *rows]) + "\n")


@pytest.mark.parametrize("command", ["simulate", "audit"])
@pytest.mark.parametrize("n,header,fragment", [
    (2, "# time = 0", "n_cells must be at least 4"),
    (3, "# time = 0", "n_cells must be at least 4"),
    (8, "# time = nan", "time header must be finite"),
    (8, "# time = inf", "time header must be finite"),
])
def test_unusable_state_tables_exit_2(tmp_path, capsys, command, n, header, fragment):
    snaps = tmp_path / "snaps"
    snaps.mkdir()
    table = snaps / "snapshot_t0.000000.dat"
    raw_table(table, n, header)
    if command == "simulate":
        argv = ["--config", write_config(tmp_path, f"scenario = {table}\nt_end = 0.002\n"),
                "simulate"]
    else:
        argv = ["audit", "--input", str(snaps)]
    assert main(["--out", str(tmp_path / "o"), *argv]) == EXIT_CONFIG
    assert fragment in capsys.readouterr().err


def test_starved_solver_exits_4(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path,
        "scenario = gaussian-density\nn_cells = 64\nt_end = 0.01\n"
        "picard_tol = 1e-14\npicard_max_iters = 1\n")
    code = main(["--config", cfgfile, "--out", str(tmp_path / "o"), "simulate"])
    assert code == EXIT_SOLVER
    assert "error:" in capsys.readouterr().err


def test_output_dir_resolution_order(tmp_path, monkeypatch):
    envdir = tmp_path / "from-env"
    flagdir = tmp_path / "from-flag"
    cfgfile = write_config(
        tmp_path,
        f"scenario = uniform-rest\nn_cells = 16\nt_end = 0.005\n"
        f"output_dir = {tmp_path / 'from-config'}\n")

    monkeypatch.setenv("PLANAR_MHD_OUT", str(envdir))
    assert main(["--config", cfgfile, "simulate"]) == EXIT_OK
    assert (envdir / "diagnostics.csv").exists()

    assert main(["--config", cfgfile, "--out", str(flagdir), "simulate"]) == EXIT_OK
    assert (flagdir / "diagnostics.csv").exists()

    monkeypatch.delenv("PLANAR_MHD_OUT")
    assert main(["--config", cfgfile, "simulate"]) == EXIT_OK
    assert (tmp_path / "from-config" / "diagnostics.csv").exists()


def test_repeated_simulate_is_byte_identical(tmp_path):
    cfgfile = write_config(
        tmp_path, "scenario = vacuum-pocket\nn_cells = 32\nt_end = 0.01\n")
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(["--config", cfgfile, "--out", str(out1), "simulate"]) == EXIT_OK
    assert main(["--config", cfgfile, "--out", str(out2), "simulate"]) == EXIT_OK
    a = (out1 / "diagnostics.csv").read_bytes()
    b = (out2 / "diagnostics.csv").read_bytes()
    assert a == b


def test_mms_subcommand(tmp_path, capsys):
    outdir = tmp_path / "mms"
    code = main(["--out", str(outdir), "mms", "--case", "constant",
                 "--resolutions", "8,16", "--t-end", "0.02"])
    assert code == EXIT_OK
    text = (outdir / "mms-report.txt").read_text()
    assert "exact" in text
    assert (outdir / "mms-report.csv").exists()

    code = main(["--out", str(outdir), "mms", "--case", "no-such-case"])
    assert code == EXIT_CONFIG
    assert "known cases" in capsys.readouterr().err

    code = main(["--out", str(outdir), "mms", "--resolutions", "64"])
    assert code == EXIT_CONFIG


def test_mms_with_a_zero_horizon_exits_2(tmp_path, capsys):
    outdir = tmp_path / "mms"
    code = main(["--out", str(outdir), "mms", "--case", "constant",
                 "--resolutions", "16,32", "--t-end", "0"])
    assert code == EXIT_CONFIG
    assert "t_end must be positive, got 0.0" in capsys.readouterr().err
    assert not (outdir / "mms-report.txt").exists()


def test_continuation_with_a_zero_horizon_exits_2(tmp_path, capsys):
    outdir = tmp_path / "cont"
    code = main(["--out", str(outdir), "continuation", "--scenario", "gaussian-density",
                 "--deltas", "1e-1,1e-2", "--t-end", "0"])
    assert code == EXIT_CONFIG
    assert "t_end must be positive, got 0.0" in capsys.readouterr().err
    assert not (outdir / "continuation-report.txt").exists()
    assert not (outdir / "continuation-report.csv").exists()


def test_continuation_subcommand(tmp_path, capsys):
    cfgfile = write_config(
        tmp_path, "scenario = gaussian-density\nn_cells = 24\nt_end = 0.005\n")
    outdir = tmp_path / "cont"
    code = main(["--config", cfgfile, "--out", str(outdir),
                 "continuation", "--deltas", "1e-1,1e-2"])
    assert code == EXIT_OK
    report = (outdir / "continuation-report.txt").read_text()
    assert "monotone decreasing: yes" in report
    assert (outdir / "continuation-report.csv").exists()

    code = main(["--config", cfgfile, "--out", str(outdir),
                 "continuation", "--deltas", "1e-2,1e-1"])
    assert code == EXIT_CONFIG
    assert "strictly decreasing" in capsys.readouterr().err

    code = main(["--config", cfgfile, "--out", str(outdir),
                 "continuation", "--t-end", "nan"])
    assert code == EXIT_CONFIG
    assert "t_end must be nonnegative" in capsys.readouterr().err
