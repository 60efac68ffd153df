import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decrem import DensityField, errors, make_grid
from decrem.cli import load_config, main
from decrem.errors import ConfigError
from decrem.kolmogorov import DENSE_MAX_N
from conftest import write_coefficient_csv


def write_config(path, **patches):
    cfg = {
        "domain": {"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [64]},
        "model": {"family": "constant", "drift": [0.0], "beta": [[1.0]]},
        "time": {"T": 0.5, "n_steps": 64},
        "gamma": {"kind": "eigenmode"},
        "output_dir": str(path.parent / "out"),
    }
    for key, value in patches.items():
        if isinstance(value, dict) and key in cfg:
            cfg[key].update(value)
        else:
            cfg[key] = value
    path.write_text(json.dumps(cfg))
    return cfg


def test_load_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "run.json"
    write_config(path, extra={"x": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    write_config(path, time={"T": 0.5, "n_steps": 64, "step": 1})
    with pytest.raises(ConfigError):
        load_config(path)
    # one time scheme: time.scheme is no option, whatever its value
    for scheme in ("implicit-euler", "crank-nicolson"):
        write_config(path, time={"scheme": scheme})
        with pytest.raises(ConfigError, match="scheme"):
            load_config(path)
        assert main(["seed", str(path)]) == 2


def test_load_config_fills_defaults(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    cfg = load_config(path)
    assert cfg["tolerances"]["residual_tol"] == 1e-6
    assert cfg["mc"]["n_particles"] == 100000
    assert cfg["spectrum"]["assemble"] is False


def test_set_overrides_parse_json_literals(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    cfg = load_config(path, ["time.T=0.25", "mc.seed=7", "gamma.kind=bump"])
    assert cfg["time"]["T"] == 0.25
    assert cfg["mc"]["seed"] == 7
    assert cfg["gamma"]["kind"] == "bump"
    with pytest.raises(ConfigError):
        load_config(path, ["no_equals_sign"])
    with pytest.raises(ConfigError):
        load_config(path, ["time.T.deeper=1"])


def test_cmd_seed_happy_path(tmp_path, capsys):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    out_dir = tmp_path / "out"
    report = json.loads((out_dir / "solution" / "report.json").read_text())
    assert report["alpha"] > 0.0
    assert report["residual"] <= 1e-6
    verification = json.loads((out_dir / "verification.json").read_text())
    assert verification["passed"] is True
    manifest = json.loads((out_dir / "manifest.json").read_text())
    names = {entry["name"] for entry in manifest["files"]}
    assert "config.echo.json" in names
    assert os.path.join("solution", "rho.csv") in names
    captured = capsys.readouterr()
    assert "alpha" in captured.out


@pytest.mark.parametrize(
    "command, n_cells, factors",
    [
        ("seed", 64, 2),
        ("verify", 64, 2),
        ("evolve", 64, 1),
        ("mc", 64, 1),
        ("spectrum", 64, 1),
        ("spectrum", DENSE_MAX_N + 32, 1),
    ],
)
def test_commands_factor_each_operator_once(tmp_path, monkeypatch, command, n_cells, factors):
    # every command assembles the constant model's A_h once, and all its
    # applications of Q share one factor: seed's resolvent solve, verify's
    # K-step contract march and spectrum's power iteration and assembly, on
    # the dense path and above it; only the coarse check of seed and verify
    # factors a second operator
    from decrem import kolmogorov

    path = tmp_path / "run.json"
    write_config(path, domain={"n_cells": [n_cells]}, spectrum={"assemble": True})
    solution = tmp_path / "out" / "solution"
    if command in ("verify", "evolve", "mc"):
        assert main(["seed", str(path)]) == 0
    calls = {"splu": 0, "build_stencil": 0}

    def counting(name):
        original = getattr(kolmogorov, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(kolmogorov, name, counted)

    counting("splu")
    counting("build_stencil")
    rho = ["--rho", str(solution / "rho.csv")]
    extra = {"evolve": rho, "mc": rho + ["--set", "mc.n_particles=1000", "--set", "mc.seed=1"]}
    extra["verify"] = ["--solution", str(solution)]
    out = ["--set", f"output_dir={tmp_path / command}"]
    assert main([command, str(path), *extra.get(command, []), *out]) == 0
    assert calls == {"splu": factors, "build_stencil": 1}


def _python(*args, **kwargs):
    """Run a fresh interpreter on ``args``; the decrem tree these tests
    import goes first on its path."""
    import decrem

    pkg_root = os.path.dirname(os.path.dirname(os.path.abspath(decrem.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [pkg_root, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, **kwargs
    )


def _loads_scipy_special(statement):
    """Whether a fresh interpreter that runs ``statement`` has loaded
    scipy.special."""
    code = f"{statement}\nimport sys\nprint('scipy.special' in sys.modules)"
    return _python("-c", code, check=True).stdout.split()[-1] == "True"


# argv that the parser refuses: "{cfg}" stands for a valid config
BAD_ARGV = {
    "evolve-without-rho": ["evolve", "{cfg}"],
    "mc-without-rho": ["mc", "{cfg}"],
    "verify-without-solution": ["verify", "{cfg}"],
    "seed-with-rho": ["seed", "{cfg}", "--rho", "rho.csv"],
    "seed-with-solution": ["seed", "{cfg}", "--solution", "out/solution"],
    "spectrum-with-rho": ["spectrum", "{cfg}", "--rho", "rho.csv"],
    "spectrum-with-solution": ["spectrum", "{cfg}", "--solution", "out/solution"],
    "unknown-command": ["sample", "{cfg}"],
    "no-command": [],
}


@pytest.mark.parametrize("case", sorted(BAD_ARGV))
def test_bad_argv_exits_2_before_any_work(tmp_path, capsys, case):
    path = tmp_path / "run.json"
    write_config(path)
    argv = [str(path) if a == "{cfg}" else a for a in BAD_ARGV[case]]
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "usage: decrem" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_python_m_decrem_exits_2_on_bad_argv(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    proc = _python("-m", "decrem", "evolve", str(path))
    assert proc.returncode == 2
    assert "--rho" in proc.stderr
    assert not (tmp_path / "out").exists()


def test_help_names_every_command(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["-h"])
    assert exc.value.code == 0
    assert "{seed,evolve,spectrum,mc,verify}" in capsys.readouterr().out


def test_readme_exit_code_table_matches_the_classes():
    # every row names the class that carries its code, and every class of
    # decrem.errors has exactly one row
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    section = readme.split("### Exit codes", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| (\d+) \| [^|]+ \|(?: `(\w+)`[^|]*)? *\|$", section, re.M)
    assert [int(code) for code, _ in rows] == list(range(14))
    named = {name: int(code) for code, name in rows if name}
    classes = {
        name: cls for name, cls in vars(errors).items()
        if isinstance(cls, type) and issubclass(cls, errors.ToolkitError)
    }
    assert set(named) == set(classes)
    for name, code in named.items():
        assert classes[name].exit_code == code, name
    assert rows[0] == ("0", "")  # success names no class


def test_cli_import_leaves_scipy_special_to_the_particles():
    # only montecarlo.simulate needs ndtri, so seed, verify, evolve and
    # spectrum run without loading scipy.special
    if _loads_scipy_special("import scipy.sparse.linalg"):
        pytest.skip("scipy.sparse.linalg loads scipy.special by itself")
    assert not _loads_scipy_special("import decrem.cli")


def test_cmd_seed_alpha_matches_closed_form(tmp_path):
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [128]},
        time={"T": 1.0, "n_steps": 256},
    )
    assert main(["seed", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "solution" / "report.json").read_text())
    oracle = (1.0 - np.exp(-np.pi**2 / 2)) * np.pi / 2
    assert report["alpha"] == pytest.approx(oracle, rel=2e-2)


def test_cmd_seed_exit_codes(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path), "--set", "bogus.key=1"]) == 2
    assert main(["seed", str(path), "--set", "model.beta=0.0"]) == 3
    # the certificate comes before the resolvent's own budget check
    no_budget = "tolerances.resolvent_max_iter=1"
    assert main(["seed", str(path), "--set", "model.beta=0.0", "--set", no_budget]) == 3
    assert main(["seed", str(path), "--set", no_budget]) == 2
    assert (
        main(
            [
                "seed",
                str(path),
                "--set",
                "gamma.kind=tiles",
                "--set",
                "gamma.shape=[4]",
                "--set",
                "gamma.values=[0,0,0,0]",
            ]
        )
        == 4
    )
    assert (
        main(
            [
                "seed",
                str(path),
                "--set",
                "gamma.kind=tiles",
                "--set",
                "gamma.shape=[4]",
                "--set",
                "gamma.values=[1,1,-1,1]",
            ]
        )
        == 5
    )
    assert main(["seed", str(tmp_path / "missing.json")]) == 2
    # a key the solver no longer has is an unknown key
    stale = "tolerances.linear_solver_max_iter=500"
    assert main(["seed", str(path), "--set", stale]) == 2


def test_cmd_seed_unsolvable_step_exits_6(tmp_path):
    # no step solve meets a relative residual of 1e-20
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [32]},
        time={"T": 0.5, "n_steps": 8},
        tolerances={"linear_solver_tol": 1e-20},
    )
    assert main(["seed", str(path)]) == 6


def test_cmd_seed_overflowing_beta_exits_3(tmp_path):
    # beta beta^T = 1e400 overflows to inf: no ellipticity certificate
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [32]},
        model={"family": "constant", "drift": [0.0], "beta": [[1e200]]},
        time={"T": 0.5, "n_steps": 8},
    )
    with np.errstate(over="ignore"):
        assert main(["seed", str(path)]) == 3


def test_cmd_seed_residual_too_large_exits_9(tmp_path):
    # the resolvent meets 1e-9 but no end-to-end residual meets 1e-20
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 1, "lo": [0.0], "hi": [1.0], "n_cells": [16]},
        time={"T": 0.05, "n_steps": 16},
    )
    tight = ["tolerances.residual_tol=1e-20", "tolerances.resolvent_tol=1e-9"]
    assert main(["seed", str(path), "--set", tight[0], "--set", tight[1]]) == 9
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("column", ["f1", "b11"])
def test_cmd_seed_rejects_non_finite_table(tmp_path, capsys, column):
    # a 32-cell coefficient table whose sixth drift (or beta) value is NaN
    grid = make_grid(1, [0.0], [1.0], [32])
    drift, beta = np.zeros((32, 1)), np.ones((32, 1, 1))
    (drift if column == "f1" else beta).flat[5] = np.nan
    write_coefficient_csv(grid, tmp_path / "coeffs.csv", drift, beta)
    path = tmp_path / "run.json"
    cfg = write_config(path, domain={"n_cells": [32]}, time={"n_steps": 8})
    cfg["model"] = {"family": "tabulated", "file": "coeffs.csv"}
    path.write_text(json.dumps(cfg))
    assert main(["seed", str(path)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_seed_wide_coefficient_table_exits_11(tmp_path, capsys):
    # rows one column wider than the header: a shape mismatch, like a wrong header
    grid = make_grid(1, [0.0], [1.0], [32])
    table = tmp_path / "coeffs.csv"
    write_coefficient_csv(grid, table, np.zeros((32, 1)), np.ones((32, 1, 1)))
    header, *rows = table.read_text().splitlines()
    table.write_text("\n".join([header] + [row + ",0.5" for row in rows]) + "\n")
    path = tmp_path / "run.json"
    cfg = write_config(path, domain={"n_cells": [32]}, time={"n_steps": 8})
    cfg["model"] = {"family": "tabulated", "file": "coeffs.csv"}
    path.write_text(json.dumps(cfg))
    assert main(["seed", str(path)]) == 11
    assert "ShapeMismatch" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_evolve(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    rho = tmp_path / "out" / "solution" / "rho.csv"
    assert (
        main(
            [
                "evolve",
                str(path),
                "--rho",
                str(rho),
                "--set",
                f"output_dir={tmp_path / 'ev'}",
            ]
        )
        == 0
    )
    traj = json.loads((tmp_path / "ev" / "trajectory" / "trajectory.json").read_text())
    assert traj["positivity_certified"] is True
    assert traj["scheme"] == "implicit-euler"  # a constant, kept for readers
    assert len(traj["files"]) == 65
    # shape-mismatched rho file
    bad = tmp_path / "bad.csv"
    lines = rho.read_text().splitlines()
    bad.write_text("\n".join(lines[:-3]) + "\n")
    assert main(["evolve", str(path), "--rho", str(bad)]) == 11


def test_cmd_evolve_zero_rho(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    from decrem import DensityField, make_grid

    grid = make_grid(1, [0.0], [1.0], [64])
    zero = tmp_path / "zero.csv"
    DensityField(grid, np.zeros(grid.n)).to_csv(zero)
    out = tmp_path / "zv"
    assert main(["evolve", str(path), "--rho", str(zero), "--set", f"output_dir={out}"]) == 0
    final = (out / "trajectory" / "field_00064.csv").read_text()
    values = [float(line.split(",")[1]) for line in final.splitlines()[1:]]
    assert not any(values)


def test_cmd_spectrum(tmp_path):
    path = tmp_path / "run.json"
    write_config(
        path,
        time={"T": 1.0, "n_steps": 2048},
        spectrum={"assemble": True},
    )
    assert main(["spectrum", str(path)]) == 0
    payload = json.loads((tmp_path / "out" / "spectrum.json").read_text())
    assert payload["radius"] == pytest.approx(np.exp(-np.pi**2 / 2), rel=2e-2)
    assert payload["converged"] is True
    assert (tmp_path / "out" / "operator.bin").exists()
    sidecar = json.loads((tmp_path / "out" / "operator.json").read_text())
    assert sidecar["scheme"] == "implicit-euler"
    assert (tmp_path / "out" / "singular_values.csv").exists()
    # the column masses are taken before the SVD overwrites the kernel:
    # they are those of the kernel that operator.bin holds
    n, box = sidecar["n"], sidecar["grid"]
    kernel = np.fromfile(tmp_path / "out" / "operator.bin", "<f8").reshape(n, n, order="F")
    grid = make_grid(box["dim"], box["lo"], box["hi"], box["n_cells"])
    masses = kernel.sum(axis=0) * grid.cell_volume
    assert payload["column_mass_range"] == [masses.min(), masses.max()]


def test_cmd_mc_and_determinism(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    rho = str(tmp_path / "out" / "solution" / "rho.csv")
    args = [
        "mc",
        str(path),
        "--rho",
        rho,
        "--set",
        "mc.n_particles=4000",
        "--set",
        "mc.seed=123",
        "--set",
        "mc.dt=0.002",
    ]
    assert main(args + ["--set", f"output_dir={tmp_path / 'm1'}"]) == 0
    assert main(args + ["--set", f"output_dir={tmp_path / 'm2'}"]) == 0
    for name in ("mc/density.csv", "mc/mc.json", "comparison.json"):
        a = (tmp_path / "m1" / name).read_bytes()
        b = (tmp_path / "m2" / name).read_bytes()
        assert a == b
    comparison = json.loads((tmp_path / "m1" / "comparison.json").read_text())
    assert comparison["frac_abs_z_le_4"] >= 0.95
    report = json.loads((tmp_path / "m1" / "mc" / "mc.json").read_text())
    assert set(report) == {"n", "survival", "dt", "seed"}
    assert report["seed"] == 123


def test_cmd_mc_one_bin_holding_all_the_mass_has_finite_z(tmp_path, capsys):
    # over a horizon of 1e-20 no mass leaves the one bin, on either side:
    # q = 1, whose variance q (1 - q) / n the clip keeps away from 0
    grid = make_grid(1, [0.0], [1.0], [16])
    DensityField(grid, np.ones(grid.n)).to_csv(tmp_path / "rho.csv")
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"n_cells": [16]},
        time={"T": 1e-20, "n_steps": 1},
        mc={"n_particles": 1000, "dt": 1e-20, "bins": 1, "seed": 3},
    )
    assert main(["mc", str(path), "--rho", str(tmp_path / "rho.csv")]) == 0
    assert "z-scores within +-4: 100.0%" in capsys.readouterr().out

    def refuse(name):
        raise ValueError(f"comparison.json holds {name}, which is not JSON")

    text = (tmp_path / "out" / "comparison.json").read_text()
    comparison = json.loads(text, parse_constant=refuse)
    assert comparison["max_abs_z"] == 0.0
    assert comparison["frac_abs_z_le_4"] == 1.0


def test_cmd_mc_generates_and_echoes_seed(tmp_path, capsys):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    rho = str(tmp_path / "out" / "solution" / "rho.csv")
    out = tmp_path / "auto"
    assert (
        main(
            [
                "mc",
                str(path),
                "--rho",
                rho,
                "--set",
                "mc.n_particles=500",
                "--set",
                "mc.dt=0.005",
                "--set",
                f"output_dir={out}",
            ]
        )
        == 0
    )
    echoed = json.loads((out / "config.echo.json").read_text())["mc"]["seed"]
    assert isinstance(echoed, int)
    stored = json.loads((out / "mc" / "mc.json").read_text())["seed"]
    assert stored == echoed
    assert f"master seed {echoed}" in capsys.readouterr().out


@pytest.mark.parametrize(
    "override, key",
    [
        ("mc.n_particles=0", "mc.n_particles"),
        ("mc.n_particles=-5", "mc.n_particles"),
        ("mc.n_particles=2.5", "mc.n_particles"),
        ("mc.bins=0", "mc.bins"),
    ],
)
def test_cmd_mc_rejects_empty_runs(tmp_path, capsys, override, key):
    from decrem import DensityField, make_grid

    path = tmp_path / "run.json"
    write_config(path)
    grid = make_grid(1, [0.0], [1.0], [64])
    rho = tmp_path / "rho.csv"
    DensityField(grid, np.ones(64)).to_csv(rho)
    args = ["mc", str(path), "--rho", str(rho), "--set", override]
    assert main(args + ["--set", "mc.seed=1"]) == 2
    assert f"ConfigError: {key} must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["16.7", "1e400", "0", "true", '"8"'])
@pytest.mark.parametrize(
    "command, key",
    [
        ("seed", "time.n_steps"),
        ("seed", "domain.n_cells"),
        ("seed", "tolerances.resolvent_max_iter"),
        ("spectrum", "spectrum.max_iter"),
        ("spectrum", "spectrum.cap"),
    ],
)
def test_integer_settings_reject_non_integers(tmp_path, capsys, command, key, value):
    path = tmp_path / "run.json"
    write_config(path)
    override = f"{key}=[{value}]" if key == "domain.n_cells" else f"{key}={value}"
    assert main([command, str(path), "--set", override]) == 2
    assert f"ConfigError: {key} must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("value", ["1e18", "100000001"])
@pytest.mark.parametrize(
    "command, key",
    [("seed", "time.n_steps"), ("seed", "domain.n_cells"), ("mc", "mc.n_particles")],
)
def test_integer_settings_reject_huge_counts(tmp_path, capsys, command, key, value):
    # refused before anything is allocated: n_steps=1e18 used to exit 1
    # with a MemoryError from the step-time array
    path = tmp_path / "run.json"
    write_config(path)
    override = f"{key}=[{value}]" if key == "domain.n_cells" else f"{key}={value}"
    args = [command, str(path), "--set", override]
    if command == "mc":
        rho = tmp_path / "rho.csv"
        DensityField(make_grid(1, [0.0], [1.0], [64]), np.ones(64)).to_csv(rho)
        args += ["--rho", str(rho), "--set", "mc.seed=1"]
    assert main(args) == 2
    assert f"ConfigError: {key} must be at most 100000000" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "value", ['"0.001"', "true", "[0.001]", "NaN", "Infinity", "0", "-0.001"]
)
def test_cmd_mc_dt_must_be_finite_and_positive(tmp_path, capsys, value):
    # a string used to run, true ran with dt = 1 and a list exited 1
    # with an internal TypeError
    path = tmp_path / "run.json"
    write_config(path, mc={"n_particles": 1000})
    rho = tmp_path / "rho.csv"
    DensityField(make_grid(1, [0.0], [1.0], [64]), np.ones(64)).to_csv(rho)
    args = ["mc", str(path), "--rho", str(rho), "--set", "mc.seed=1"]
    assert main(args + ["--set", f"mc.dt={value}"]) == 2
    assert "ConfigError: mc.dt must be finite > 0" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_mc_dt_above_T_exits_2_before_any_march(tmp_path, monkeypatch, capsys):
    # it used to march the PDE field first and then exit 2 with a bare
    # ValueError from simulate that did not name mc.dt; dt = T is one step
    path = tmp_path / "run.json"
    write_config(path, mc={"n_particles": 1000})
    rho = tmp_path / "rho.csv"
    DensityField(make_grid(1, [0.0], [1.0], [64]), np.ones(64)).to_csv(rho)
    args = ["mc", str(path), "--rho", str(rho), "--set", "mc.seed=1"]
    steps = _count_steps(monkeypatch)
    assert main(args + ["--set", "mc.dt=0.5000001"]) == 2
    assert "ConfigError: mc.dt must be at most time.T = 0.5: 0.5000001" in capsys.readouterr().err
    assert steps == []
    assert not (tmp_path / "out").exists()
    assert main(args + ["--set", "mc.dt=0.5"]) == 0
    assert steps == [64]


@pytest.mark.parametrize("value", ["true", "1.5", '"7"'])
def test_cmd_mc_seed_must_be_an_integer(tmp_path, capsys, value):
    # a bool, a fraction or a string used to run silently as seeds 1, 1
    # and 7; a whole float such as 7.0 is accepted, as it is for counts
    path = tmp_path / "run.json"
    write_config(path, mc={"n_particles": 1000})
    rho = tmp_path / "rho.csv"
    DensityField(make_grid(1, [0.0], [1.0], [64]), np.ones(64)).to_csv(rho)
    args = ["mc", str(path), "--rho", str(rho), "--set", f"mc.seed={value}"]
    assert main(args) == 2
    assert "ConfigError: mc.seed must be an integer" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["mc", str(path), "--rho", str(rho), "--set", "mc.seed=7.0"]) == 0
    echo = json.loads((tmp_path / "out" / "config.echo.json").read_text())
    assert echo["mc"]["seed"] == 7


@pytest.mark.parametrize("command", ["seed", "spectrum"])
@pytest.mark.parametrize("value", ["5", '["a"]', ""], ids=["number", "list", "empty"])
def test_output_dir_must_be_a_non_empty_string(tmp_path, monkeypatch, capsys, command, value):
    # refused before any work: a number or a list used to run the whole
    # command and exit 1, an empty string to write into the working directory
    path = tmp_path / "run.json"
    write_config(path)
    monkeypatch.chdir(tmp_path)
    assert main([command, str(path), "--set", f"output_dir={value}"]) == 2
    assert "ConfigError: output_dir must be a non-empty string" in capsys.readouterr().err
    assert os.listdir(tmp_path) == ["run.json"]


def test_grid_node_count_has_the_same_ceiling(tmp_path, capsys):
    path = tmp_path / "run.json"
    write_config(path, domain={"dim": 2, "lo": [0, 0], "hi": [1, 1], "n_cells": [20000, 20000]})
    assert main(["seed", str(path)]) == 2
    err = capsys.readouterr().err
    assert "the node count of domain.n_cells must be at most 100000000" in err


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_cmd_mc_rejects_non_finite_density(tmp_path, capsys, bad):
    # a NaN used to pass the density checks and exit 2 from numpy's choice
    path = tmp_path / "run.json"
    write_config(path)
    rho = tmp_path / "rho.csv"
    DensityField(make_grid(1, [0.0], [1.0], [64]), np.ones(64)).to_csv(rho)
    lines = rho.read_text().splitlines(keepends=True)
    lines[3] = lines[3].split(",")[0] + f",{bad}\n"
    rho.write_text("".join(lines))
    assert main(["mc", str(path), "--rho", str(rho), "--set", "mc.seed=1"]) == 12
    assert "NotADensity: density is not finite at cell 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_integer_settings_accept_whole_floats(tmp_path):
    path = tmp_path / "run.json"
    write_config(path, domain={"n_cells": 16}, time={"n_steps": 64.0})
    assert main(["seed", str(path), "--set", "tolerances.resolvent_max_iter=50.0"]) == 0
    echo = json.loads((tmp_path / "out" / "config.echo.json").read_text())
    assert echo["time"]["n_steps"] == 64.0
    report = json.loads((tmp_path / "out" / "solution" / "report.json").read_text())
    assert len(report["mass_curve"]) == 65


def _verify(path, solution, out_dir, *extra):
    args = ["verify", str(path), "--solution", str(solution)]
    return main(args + ["--set", f"output_dir={out_dir}", *extra])


def _nan_in_row(path, row):
    lines = path.read_text().splitlines(keepends=True)
    cells = lines[row].rstrip("\n").split(",")
    lines[row] = ",".join(cells[:-1] + ["nan"]) + "\n"
    path.write_text("".join(lines))


def test_cmd_verify_detects_tampered_alpha(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    solution = tmp_path / "out" / "solution"
    assert _verify(path, solution, tmp_path / "v") == 0
    report_path = solution / "report.json"
    pristine = report_path.read_text()
    report = json.loads(pristine)
    report["alpha"] *= 1.05
    report_path.write_text(json.dumps(report, indent=2, sort_keys=True) + "\n")
    assert _verify(path, solution, tmp_path / "v2") == 13
    report_path.write_text(pristine)
    # a NaN in either stored field fails the stored-solution checks
    for name in ("u0.csv", "rho.csv"):
        stored = solution / name
        kept = stored.read_text()
        _nan_in_row(stored, 20)
        assert _verify(path, solution, tmp_path / f"v-{name}") == 13, name
        stored.write_text(kept)
    assert _verify(path, solution, tmp_path / "v3") == 0


def test_cmd_verify_rejects_non_finite_gamma(tmp_path, capsys):
    path = tmp_path / "run.json"
    write_config(path, gamma={"kind": "bump", "lo": [0.2], "hi": [0.7]})
    assert main(["seed", str(path)]) == 0
    capsys.readouterr()
    args = ["--set", "gamma.value=NaN"]
    assert _verify(path, tmp_path / "out" / "solution", tmp_path / "v", *args) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


def test_cmd_verify_checks_the_construction_grid(tmp_path, capsys):
    # 3e-4 of the peak cell moved to its neighbour keeps the mass and
    # leaves u0.csv and report.json alone; the refined check's O(dt) floor
    # hides it, the construction's K-step grid does not
    path = tmp_path / "run.json"
    write_config(path, **BUMP_2D)
    assert main(["seed", str(path)]) == 0
    solution = tmp_path / "out" / "solution"
    assert _verify(path, solution, tmp_path / "v") == 0
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [10, 10])
    rho = DensityField.from_csv(grid, solution / "rho.csv").values.copy()
    peak = int(np.argmax(rho))
    moved = 3e-4 * rho[peak]
    rho[peak] -= moved
    rho[peak + 1 if peak % 10 < 9 else peak - 1] += moved
    DensityField(grid, rho).to_csv(solution / "rho.csv")
    capsys.readouterr()
    assert _verify(path, solution, tmp_path / "v2") == 13
    assert "on the 128-step grid" in capsys.readouterr().err
    assert not (tmp_path / "v2").exists()


@pytest.mark.parametrize("name", ["rho.csv", "u0.csv", "report.json"])
@pytest.mark.parametrize("damage", ["missing", "garbled"])
def test_cmd_verify_names_an_unreadable_file(tmp_path, capsys, name, damage):
    path = tmp_path / "run.json"
    write_config(path, domain={"n_cells": [16]})
    assert main(["seed", str(path)]) == 0
    stored = tmp_path / "out" / "solution" / name
    if damage == "missing":
        stored.unlink()
    elif name == "report.json":
        stored.write_text('{"alpha": 1.5,')
    else:
        lines = stored.read_text().splitlines(keepends=True)
        lines[3] = lines[3].replace(",", ",x", 1)
        stored.write_text("".join(lines))
    capsys.readouterr()
    assert _verify(path, stored.parent, tmp_path / "v") == 13
    err = capsys.readouterr().err
    assert "VerificationFailed" in err and str(stored) in err


def test_cmd_verify_reads_only_rho_and_u0(tmp_path, monkeypatch):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    reads = []
    from_csv = DensityField.from_csv.__func__

    def counting(cls, grid, csv_path):
        reads.append(os.path.basename(csv_path))
        return from_csv(cls, grid, csv_path)

    monkeypatch.setattr(DensityField, "from_csv", classmethod(counting))
    assert _verify(path, tmp_path / "out" / "solution", tmp_path / "v") == 0
    assert sorted(reads) == ["rho.csv", "u0.csv"]


BUMP_2D = {
    "domain": {"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [10, 10]},
    "model": {"family": "constant", "drift": [0.2, -0.1], "beta": [[1.0, 0.0], [0.0, 0.7]]},
    "time": {"T": 0.3, "n_steps": 128},
    "gamma": {"kind": "bump", "lo": [0.2, 0.3], "hi": [0.7, 0.8], "value": 3.5},
}


@pytest.mark.parametrize("patches", [{}, BUMP_2D], ids=["eigenmode-1d", "bump-2d"])
def test_cmd_verify_reproduces_seed_verification(tmp_path, patches):
    # verify rebuilds the check from the stored rho and alpha and the config's
    # raw gamma (sup 3.5 for the bump), so it must normalize the profile as
    # seed did and write the same verification.json.  Seed's d_K is the
    # resolvent's rho - alpha * Q zeta, verify's a march of rho: the two
    # keys built on d_K may differ in their last bits, every other is exact
    path = tmp_path / "run.json"
    write_config(path, **patches)
    assert main(["seed", str(path)]) == 0
    assert _verify(path, tmp_path / "out" / "solution", tmp_path / "v") == 0
    seeded = json.loads((tmp_path / "out" / "verification.json").read_text())
    verified = json.loads((tmp_path / "v" / "verification.json").read_text())
    assert verified.keys() == seeded.keys()
    for key in seeded:
        if key in ("residual_refined", "time_error_est"):
            assert verified[key] == pytest.approx(seeded[key], rel=1e-12, abs=0.0)
        else:
            assert verified[key] == seeded[key]


def _count_steps(monkeypatch):
    """A list that gathers the step count of every march, through a wrapper
    on ``_march`` in each module that calls it."""
    from decrem import fredholm, kolmogorov

    steps = []
    march = kolmogorov._march

    def counted(model, grid, config, *args, **kwargs):
        steps.append(config.n_steps)
        return march(model, grid, config, *args, **kwargs)

    for module in (kolmogorov, fredholm):
        monkeypatch.setattr(module, "_march", counted)
    return steps


def test_seed_and_verify_step_counts(tmp_path, monkeypatch):
    # seed-2d's shape: K steps per Q application, the last of which gives
    # the decrement, then K // 2 for the Richardson check, the one evolve;
    # verify marches K + K // 2
    from decrem import seedpipe

    path = tmp_path / "run.json"
    write_config(path, **BUMP_2D)
    steps = _count_steps(monkeypatch)
    evolves = []
    evolve = seedpipe.evolve

    def counted(*args, **kwargs):
        evolves.append(args[2].n_steps)
        return evolve(*args, **kwargs)

    monkeypatch.setattr(seedpipe, "evolve", counted)
    assert main(["seed", str(path)]) == 0
    report = json.loads((tmp_path / "out" / "solution" / "report.json").read_text())
    assert report["iterations"] == 5
    assert sum(steps) == 704 == 128 * report["iterations"] + 64
    assert evolves == [64]
    steps.clear()
    assert _verify(path, tmp_path / "out" / "solution", tmp_path / "v") == 0
    assert steps == [128, 64]


@pytest.mark.parametrize("n_steps", [64, 65])
def test_verification_json_holds_the_coarse_march(tmp_path, n_steps):
    # the mass curve is the K // 2 march's; the construction meets the
    # contract to round-off, so the gated residual is half the time error
    path = tmp_path / "run.json"
    write_config(path, time={"n_steps": n_steps})
    assert main(["seed", str(path)]) == 0
    ver = json.loads((tmp_path / "out" / "verification.json").read_text())
    assert len(ver["mass_curve"]) == 32 + 1
    assert ver["mass_curve"][-1][0] == 0.5
    assert ver["residual_stored"] < 1e-12
    assert ver["time_error_est"] == pytest.approx(2 * ver["residual_refined"], abs=1e-12)
    assert ver["residual_refined"] <= 5e-3 < ver["time_error_est"]


def test_one_step_has_no_coarser_grid_exit_2(tmp_path, capsys):
    path = tmp_path / "run.json"
    write_config(path)
    one = ["--set", "time.n_steps=1"]
    assert main(["seed", str(path)] + one) == 2
    assert "ConfigError: time.n_steps must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()
    assert main(["seed", str(path)]) == 0
    args = ["verify", str(path), "--solution", str(tmp_path / "out" / "solution")]
    assert main(args + one + ["--set", f"output_dir={tmp_path / 'v'}"]) == 2
    assert "ConfigError: time.n_steps must be at least 2" in capsys.readouterr().err
    assert not (tmp_path / "v").exists()


@pytest.fixture(scope="module")
def seeded(tmp_path_factory):
    """A seed output of the default config: its run config and solution."""
    tmp = tmp_path_factory.mktemp("seeded")
    path = tmp / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    return path, tmp / "out" / "solution"


@settings(max_examples=20, deadline=None)
@given(cell=st.integers(0, 63), step=st.sampled_from([-1, 1]), share=st.floats(0.0, 1.0))
def test_moving_density_to_a_neighbour_fails_verify(seeded, cell, step, share):
    # move at least 10 * residual_tol of density from one cell to a
    # neighbour: mass and sign stay, the decrement contract breaks
    path, solution = seeded
    grid = make_grid(1, [0.0], [1.0], [64])
    rho = DensityField.from_csv(grid, solution / "rho.csv").values.copy()
    to = cell + step if 0 <= cell + step < 64 else cell - step
    least = 10 * load_config(path)["tolerances"]["residual_tol"]
    moved = least + share * (rho[cell] - least)
    rho[cell] -= moved
    rho[to] += moved
    with tempfile.TemporaryDirectory() as tmp:
        tampered = os.path.join(tmp, "solution")
        shutil.copytree(solution, tampered)
        DensityField(grid, rho).to_csv(os.path.join(tampered, "rho.csv"))
        assert _verify(path, tampered, os.path.join(tmp, "v")) == 13


@pytest.mark.parametrize(
    "overrides",
    [
        ["tolerances.residual_tol=NaN"],
        ["tolerances.residual_tol=-1"],
        ["tolerances.residual_tol=0"],
        ["tolerances.verify_tol=Infinity"],
        ["tolerances.verify_tol=NaN"],
        ["tolerances.resolvent_tol=NaN"],
        ["tolerances.eps_neg=NaN"],
        ["tolerances.eps_neg=-1e-3"],
        ["model.drift=[NaN]"],
        ["model.family=linear-drift", "model.rate=NaN", "model.center=[0.5]"],
        ["model.family=linear-drift", "model.rate=1.0", "model.center=[Infinity]"],
        ["model.family=bogus"],
        ["time.T=0"],
        ["time.T=Infinity"],
        ["time.T=NaN"],
        ["domain.hi=[Infinity]"],
        ["domain.lo=[-1e308]", "domain.hi=[1e308]"],
        ["domain.lo=[-1e200]", "domain.hi=[1e200]"],
        ["domain.hi=[1e-159]"],
        ["gamma.kind=tiles", "gamma.shape=[4]", "gamma.values=[1,NaN,1,1]"],
        ["gamma.kind=tiles", "gamma.shape=[4]", "gamma.values=[1,Infinity,1,1]"],
        ["gamma.kind=bump", "gamma.lo=[0.2]", "gamma.hi=[0.7]", "gamma.value=Infinity"],
        ["gamma.kind=bump", "gamma.lo=[0.2]", "gamma.hi=[0.7]", "gamma.value=NaN"],
        ["gamma.kind=bump", "gamma.lo=[0.2,0.2]", "gamma.hi=[0.7,0.7]"],
        ["domain.dim=2", "domain.lo=[0,0]", "domain.hi=[1,1]", "domain.n_cells=[8,8]",
         "model.drift=[0,0]", "model.beta=[[1,0],[0,1]]", "gamma.kind=bump",
         "gamma.lo=[0.2]", "gamma.hi=[0.7]"],
    ],
    ids=" ".join,
)
def test_cmd_seed_rejects_non_finite_settings(tmp_path, capsys, overrides):
    path = tmp_path / "run.json"
    write_config(path)
    args = ["seed", str(path)]
    for item in overrides:
        args += ["--set", item]
    assert main(args) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_echo_config_reruns_identically(tmp_path):
    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    echo = tmp_path / "out" / "config.echo.json"
    rerun_dir = tmp_path / "rerun"
    assert main(["seed", str(echo), "--set", f"output_dir={rerun_dir}"]) == 0
    for name in (
        "solution/rho.csv",
        "solution/report.json",
        "verification.json",
    ):
        a = (tmp_path / "out" / name).read_bytes()
        b = (rerun_dir / name).read_bytes()
        assert a == b


def test_manifest_hashes_are_correct(tmp_path):
    import hashlib

    path = tmp_path / "run.json"
    write_config(path)
    assert main(["seed", str(path)]) == 0
    out = tmp_path / "out"
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["files"]
    for entry in manifest["files"]:
        digest = hashlib.sha256((out / entry["name"]).read_bytes()).hexdigest()
        assert digest == entry["sha256"]


@pytest.mark.parametrize(
    "text",
    [
        '{"domain": ',
        "[1, 2]",
        "without output_dir",
        "without gamma",
    ],
    ids=["invalid-json", "non-object-root", "no-output_dir", "no-gamma"],
)
def test_cmd_seed_rejects_malformed_config(tmp_path, capsys, text):
    path = tmp_path / "run.json"
    cfg = write_config(path)
    if text.startswith("without "):
        del cfg[text.split()[1]]
        text = json.dumps(cfg)
    path.write_text(text)
    assert main(["seed", str(path)]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["seed", "verify"])
@pytest.mark.parametrize(
    "patch",
    [
        {"gamma": {"kind": "csv"}},
        {"gamma": {"kind": "csv", "file": 5}},
        {"gamma": {"kind": "tiles", "values": [1.0, 2.0]}},
        {"model": {"family": "linear-drift", "center": [0.5]}},
    ],
    ids=["csv-without-file", "csv-file-not-a-path", "tiles-without-shape",
         "linear-drift-without-rate"],
)
def test_block_missing_a_required_key_exits_2(tmp_path, capsys, command, patch):
    path = tmp_path / "run.json"
    write_config(path, **patch)
    solution = ["--solution", str(tmp_path / "solution")] if command == "verify" else []
    assert main([command, str(path), *solution]) == 2
    assert "ConfigError" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _write_series(tmp_path, degenerate_at):
    """A tabulated series over [0, 0.5] sampled at 0, 0.25 and 0.5, with
    beta 0 at the sample ``degenerate_at`` and 1 at the others; returns the
    model block."""
    grid = make_grid(1, [0.0], [1.0], [8])
    times = [0.0, 0.25, 0.5]
    for k, t in enumerate(times):
        beta = np.full((8, 1, 1), float(t != degenerate_at))
        write_coefficient_csv(grid, tmp_path / f"t{k}.csv", np.zeros((8, 1)), beta)
    files = [f"t{k}.csv" for k in range(3)]
    (tmp_path / "series.json").write_text(json.dumps({"times": times, "files": files}))
    return {"family": "tabulated", "manifest": "series.json"}


DEGENERATE = {
    "beta-zero": lambda tmp: {"family": "constant", "drift": [0.0], "beta": [[0.0]]},
    "overflow-1d": lambda tmp: {"family": "constant", "drift": [0.0], "beta": [[1e200]]},
    "overflow-2d": lambda tmp: {
        "family": "constant", "drift": [0.0, 0.0], "beta": [[1e200, 0.0], [0.0, 1e200]]
    },
    "series-at-s": lambda tmp: _write_series(tmp, 0.0),
    "series-at-T": lambda tmp: _write_series(tmp, 0.5),
    "series-inside": lambda tmp: _write_series(tmp, 0.25),
}


@pytest.mark.parametrize("command", ["seed", "evolve", "mc", "spectrum"])
@pytest.mark.parametrize("case", sorted(DEGENERATE))
def test_degenerate_coefficients_exit_3(tmp_path, capsys, monkeypatch, case, command):
    # every time a march evaluates the coefficients is certified: a series
    # degenerate only at its interior sample t = 0.25, which the implicit
    # euler steps t = 0.0625 k read, fails like one degenerate at s or T;
    # decrem mc marches the field first, so its particles never run
    dim = 2 if case == "overflow-2d" else 1
    grid = make_grid(dim, [0.0] * dim, [1.0] * dim, [8] * dim)
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": dim, "lo": [0.0] * dim, "hi": [1.0] * dim, "n_cells": [8] * dim},
        model=DEGENERATE[case](tmp_path),
        time={"n_steps": 8},
        mc={"n_particles": 200, "seed": 1, "dt": 0.01},
    )
    DensityField(grid, np.ones(grid.n)).to_csv(tmp_path / "rho.csv")
    args = [command, str(path)]
    if command in ("evolve", "mc"):
        args += ["--rho", str(tmp_path / "rho.csv")]

    def no_particles(*args, **kwargs):
        raise AssertionError("the particles ran on a degenerate model")

    monkeypatch.setattr("decrem.cli.simulate", no_particles)
    # the certificate of s and T also comes before each check that the
    # command makes after building Q; a series degenerate inside is found by
    # the first march, after them
    later = {} if case == "series-inside" else {
        "seed": [["--set", "tolerances.resolvent_max_iter=1"]],
        "mc": [["--set", "mc.seed=1.5"], ["--rho", str(tmp_path / "absent.csv")]],
        "spectrum": [["--set", "spectrum.tol=0"]],
    }
    for extra in [[]] + later.get(command, []):
        with np.errstate(over="ignore", invalid="ignore"):
            assert main(args + extra) == 3
        assert "EllipticityViolation" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "command, key",
    [
        ("seed", "model.file"),
        ("seed", "model.manifest"),
        ("seed", "gamma.file"),
        ("evolve", "--rho"),
        ("mc", "--rho"),
    ],
)
def test_missing_input_file_exits_2(tmp_path, capsys, command, key):
    path = tmp_path / "run.json"
    missing = tmp_path / "absent.csv"
    cfg = write_config(path)
    if key.startswith("model."):
        cfg["model"] = {"family": "tabulated", key.split(".")[1]: missing.name}
    elif key == "gamma.file":
        cfg["gamma"] = {"kind": "csv", "file": missing.name}
    path.write_text(json.dumps(cfg))
    args = [command, str(path)]
    if key == "--rho":
        args += ["--rho", str(missing)]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "ConfigError" in err and "absent.csv" in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "override, key",
    [
        ("spectrum.tol=NaN", "spectrum.tol"),
        ("spectrum.tol=-1", "spectrum.tol"),
        ("spectrum.tol=0", "spectrum.tol"),
        ("spectrum.tol=Infinity", "spectrum.tol"),
        ("spectrum.tol=true", "spectrum.tol"),
        ('spectrum.assemble="no"', "spectrum.assemble"),
        ("spectrum.assemble=0.5", "spectrum.assemble"),
        ("spectrum.assemble=1", "spectrum.assemble"),
    ],
)
def test_cmd_spectrum_rejects_bad_settings(tmp_path, capsys, override, key):
    path = tmp_path / "run.json"
    write_config(path, domain={"n_cells": [8]}, time={"n_steps": 8})
    assert main(["spectrum", str(path), "--set", override]) == 2
    assert f"ConfigError: {key} must be" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_cmd_spectrum_unconverged_exits_7_after_writing(tmp_path):
    path = tmp_path / "run.json"
    write_config(path, domain={"n_cells": [8]}, time={"n_steps": 8})
    assert main(["spectrum", str(path), "--set", "spectrum.max_iter=1"]) == 7
    out = tmp_path / "out"
    payload = json.loads((out / "spectrum.json").read_text())
    assert payload["converged"] is False and payload["iterations"] == 1
    names = {e["name"] for e in json.loads((out / "manifest.json").read_text())["files"]}
    assert names == {"spectrum.json", "config.echo.json"}


def test_cmd_spectrum_over_cap_exits_10_before_any_work(tmp_path, capsys, monkeypatch):
    # 65 x 65 = 4225 nodes, over the default cap of 4096
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [65, 65]},
        model={"family": "constant", "drift": [0.0, 0.0], "beta": [[1.0, 0.0], [0.0, 1.0]]},
        spectrum={"assemble": True},
    )

    def no_power_iteration(*args, **kwargs):
        raise AssertionError("the power iteration ran over the cap")

    monkeypatch.setattr("decrem.cli.spectral_radius", no_power_iteration)
    assert main(["spectrum", str(path)]) == 10
    assert "CapExceeded: grid has 4225 nodes" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _manifest_names(out):
    return {e["name"] for e in json.loads((out / "manifest.json").read_text())["files"]}


def test_failed_verification_exits_13_after_writing(tmp_path, capsys):
    # no refined march meets verify_tol = 1e-12: seed and verify both write
    # verification.json with passed false, then exit 13; both leave the
    # summary on stdout and a manifest of every file they wrote
    path = tmp_path / "run.json"
    write_config(path)
    strict = ["--set", "tolerances.verify_tol=1e-12"]
    assert main(["seed", str(path)] + strict) == 13
    out = tmp_path / "out"
    assert json.loads((out / "verification.json").read_text())["passed"] is False
    assert _manifest_names(out) == {str(p.relative_to(out)) for p in out.rglob("*")
                                    if p.is_file() and p.name != "manifest.json"}
    stdout = capsys.readouterr().out
    assert all(line in stdout for line in ("alpha ", "residual ", "verify    refined"))
    assert _verify(path, out / "solution", tmp_path / "v") == 0
    args = ["verify", str(path), "--solution", str(out / "solution")]
    capsys.readouterr()
    assert main(args + strict + ["--set", f"output_dir={tmp_path / 'v2'}"]) == 13
    assert json.loads((tmp_path / "v2" / "verification.json").read_text())["passed"] is False
    assert _manifest_names(tmp_path / "v2") == {"verification.json", "config.echo.json"}
    stdout = capsys.readouterr().out
    assert "refined residual" in stdout and "mass decreasing: " in stdout
    assert "verification passed" not in stdout


def test_cmd_evolve_warns_without_positivity_certificate(tmp_path, capsys):
    # the central cross stencil of an a12 term is no M-matrix
    path = tmp_path / "run.json"
    write_config(
        path,
        domain={"dim": 2, "lo": [0.0, 0.0], "hi": [1.0, 1.0], "n_cells": [8, 8]},
        model={"drift": [0.0, 0.0], "beta": [[1.0, 0.0], [0.9, 0.436]]},
        time={"n_steps": 8},
    )
    grid = make_grid(2, [0.0, 0.0], [1.0, 1.0], [8, 8])
    DensityField(grid, np.ones(grid.n)).to_csv(tmp_path / "rho.csv")
    assert main(["evolve", str(path), "--rho", str(tmp_path / "rho.csv")]) == 0
    out = capsys.readouterr().out
    assert "steps (implicit-euler)" in out
    assert "warning: positivity not certified" in out and "a12" in out
    traj = json.loads((tmp_path / "out" / "trajectory" / "trajectory.json").read_text())
    assert traj["positivity_certified"] is False
