"""Golden outputs: a small fixed sequence of CLI commands must reproduce the
committed files in tests/golden/ byte for byte.

The sequence covers simulate with snapshots, simulate on vacuum data with a
non-default weight exponent, audit of the snapshots, the MMS ladder, and
continuation from a library scenario and from a snapshot table.  One more
case reruns simulate and the MMS ladder with every physical coefficient away
from one, so a swapped or dropped coefficient changes some output digit.  The
last case records every third step on a grid where the diagnostics fold
several steps at a time, with snapshots inside those windows.  Commands
run with relative output directories so run.log holds no absolute paths.

To regenerate the golden files after an intended output change:

    PYTHONPATH=src python tests/test_golden.py
"""

import os
import shutil
import sys
from pathlib import Path

import planar_mhd.operators as operators
import planar_mhd.solver as solver
from planar_mhd.cli import EXIT_OK, main

GOLDEN = Path(__file__).parent / "golden"

CONFIGS = {
    "pulse.cfg": "scenario = magnetic-pulse\nn_cells = 64\nt_end = 0.05\n"
                 "snapshot_times = 0.0,0.01,0.02,0.03,0.05\n",
    "pocket.cfg": "scenario = vacuum-pocket\nn_cells = 64\nt_end = 0.05\nalpha = 0.3\n",
    "table.cfg": "scenario = pulse/snapshot_t0.050000.dat\n",
    "coeffs.cfg": "scenario = vacuum-pocket\nn_cells = 64\nt_end = 0.05\n"
                  "lambda_visc = 0.7\nmu_visc = 1.3\nnu_mag = 0.9\ngas_R = 0.6\n"
                  "c_v = 1.5\nkappa_a = 0.8\nkappa_b = 1.7\nq_exp = 1.5\n",
    "stride.cfg": "scenario = smooth-shear\nn_cells = 128\nt_end = 0.2\nrecord_every = 3\n"
                  "snapshot_times = 0.037,0.13\n",
}

COMMANDS = [
    ["--config", "pulse.cfg", "--out", "pulse", "simulate"],
    ["--config", "pocket.cfg", "--out", "pocket", "simulate"],
    ["--seed", "3", "--out", "audit", "audit", "--input", "pulse"],
    ["--out", "mms", "mms", "--resolutions", "32,64"],
    ["--config", "pocket.cfg", "--out", "cont-pocket", "continuation",
     "--t-end", "0.02"],
    ["--config", "table.cfg", "--out", "cont-table", "continuation",
     "--t-end", "0.02"],
    ["--config", "coeffs.cfg", "--out", "coeffs", "simulate"],
    ["--config", "coeffs.cfg", "--out", "mms-coeffs", "mms", "--resolutions", "32,64"],
    ["--config", "stride.cfg", "--out", "stride", "simulate"],
]


def run_sequence(workdir, commands=COMMANDS):
    """Run the command sequence inside workdir; return its output files as
    {relative path: bytes} (configs excluded)."""
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for name, text in CONFIGS.items():
            Path(name).write_text(text)
        for argv in commands:
            assert main(argv) == EXIT_OK, argv
    finally:
        os.chdir(cwd)
    return {p.relative_to(workdir).as_posix(): p.read_bytes()
            for p in sorted(Path(workdir).rglob("*"))
            if p.is_file() and p.name not in CONFIGS}


def golden_files():
    return {p.relative_to(GOLDEN).as_posix(): p.read_bytes()
            for p in sorted(GOLDEN.rglob("*")) if p.is_file()}


def test_outputs_match_golden_bytes(tmp_path, monkeypatch):
    monkeypatch.delenv("PLANAR_MHD_OUT", raising=False)
    got = run_sequence(tmp_path)
    want = golden_files()
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"outputs differ from tests/golden: {changed}"


def test_python_fallback_matches_golden_bytes(tmp_path, monkeypatch):
    # Without the compiled kernel (no C compiler, or a failed build) step
    # runs the numpy stages and solve_flux_system its Python loop; the
    # bytes must not move.
    monkeypatch.delenv("PLANAR_MHD_OUT", raising=False)
    monkeypatch.setattr(operators, "_KERNEL", None)
    ran = {"numpy step": 0, "python loop": 0}

    def counting(name, fn):
        def counted(*args):
            ran[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(solver, "_explicit_stages",
                        counting("numpy step", solver._explicit_stages))
    monkeypatch.setattr(operators, "_solve_flux_system_py",
                        counting("python loop", operators._solve_flux_system_py))
    commands = [argv for argv in COMMANDS if "coeffs.cfg" in argv or "stride.cfg" in argv]
    outs = {argv[argv.index("--out") + 1] for argv in commands}
    got = run_sequence(tmp_path, commands)
    want = {name: data for name, data in golden_files().items()
            if name.split("/")[0] in outs}
    assert len(want) == 11
    assert sorted(got) == sorted(want)
    changed = [name for name in want if got[name] != want[name]]
    assert not changed, f"fallback outputs differ from tests/golden: {changed}"
    assert ran["numpy step"] > 0 and ran["python loop"] > 0, ran


if __name__ == "__main__":
    os.environ.pop("PLANAR_MHD_OUT", None)
    shutil.rmtree(GOLDEN, ignore_errors=True)
    GOLDEN.mkdir()
    files = run_sequence(GOLDEN)
    for name in CONFIGS:
        (GOLDEN / name).unlink()
    print(f"wrote {len(files)} files, {sum(map(len, files.values()))} bytes", file=sys.stderr)
