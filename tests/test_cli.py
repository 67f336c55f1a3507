"""Command-line interface: CSV schemas, determinism, config handling, exits."""

import math

import numpy as np
import pytest

from anharm import EuclideanPoint, OscillatorParams, optimize_omega_imag, w1_imag
from anharm.cli import build_parser, main, parse_grid

W0_11 = -0.99965821399027056


def run_cli(args):
    return main(args)


class TestGridSpec:
    def test_single_value(self):
        assert parse_grid("2.5") == [2.5]

    def test_comma_list(self):
        assert parse_grid("0.1,1,5") == [0.1, 1.0, 5.0]

    def test_linear_range_inclusive(self):
        got = parse_grid("1:3:5")
        assert got == pytest.approx([1.0, 1.5, 2.0, 2.5, 3.0])

    def test_log_range(self):
        got = parse_grid("log:0.1:10:3")
        assert got == pytest.approx([0.1, 1.0, 10.0])

    def test_rejects_garbage(self):
        from anharm.cli import ConfigError
        for bad in ("1:2", "a,b", "log:-1:1:5", "3:1:4", "", "log:-1:5:1", "log:0:5:1"):
            with pytest.raises(ConfigError):
                parse_grid(bad)


class TestFreeEnergyCommand:
    def test_row_count_and_order(self, tmp_path):
        out = tmp_path / "fe.csv"
        rc = run_cli(["free-energy", "--m2", "0", "--lambda", "1",
                      "--beta", "0.5:1.5:3", "--methods", "OEF,FK",
                      "--out", str(out)])
        assert rc == 0
        lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
        assert lines[0] == "beta,method,F,omega_diag,err_est,error"
        rows = [l.split(",") for l in lines[1:]]
        assert len(rows) == 6
        assert [r[1] for r in rows] == ["FK", "OEF"] * 3
        betas = [float(r[0]) for r in rows]
        assert betas == sorted(betas)

    def test_header_echoes_config_and_version(self, tmp_path):
        from anharm import __version__
        out = tmp_path / "fe.csv"
        run_cli(["free-energy", "--m2", "1", "--lambda", "0", "--beta", "1",
                 "--methods", "OEF", "--out", str(out)])
        text = out.read_text()
        assert f"# version={__version__}" in text
        assert "# m2=1.0" in text
        assert "# methods=OEF" in text

    def test_harmonic_methods_agree(self, tmp_path):
        out = tmp_path / "fe.csv"
        run_cli(["free-energy", "--m2", "1", "--lambda", "0",
                 "--beta", "0.5,1,2", "--methods", "OEP,OEF,FK,EXACT",
                 "--basis-size", "128", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        by_beta = {}
        for r in rows:
            assert r[5] == ""
            by_beta.setdefault(r[0], []).append(float(r[2]))
        for beta, vals in by_beta.items():
            assert max(vals) - min(vals) < 1e-7, (beta, vals)

    def test_determinism_and_worker_independence(self, tmp_path):
        argsets = [
            ["free-energy", "--m2", "0", "--lambda", "1", "--beta", "log:0.5:2:4",
             "--methods", "OEF,OEP", "--workers", "1"],
            ["free-energy", "--m2", "0", "--lambda", "1", "--beta", "log:0.5:2:4",
             "--methods", "OEF,OEP", "--workers", "3"],
        ]
        outputs = []
        for i, extra in enumerate(argsets + argsets[:1]):
            out = tmp_path / f"fe{i}.csv"
            assert run_cli(extra + ["--out", str(out)]) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_error_rows_do_not_crash_sweep(self, tmp_path):
        # tiny basis fails the spectral tail bound at small beta
        out = tmp_path / "fe.csv"
        rc = run_cli(["free-energy", "--m2", "0", "--lambda", "1",
                      "--beta", "0.05,5", "--methods", "EXACT",
                      "--basis-size", "16", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert rows[0][2] == "" and rows[0][5] == "TruncationError"
        assert rows[1][2] != "" and rows[1][5] == ""


class TestDensityCommand:
    def test_symmetric_output_and_normalization_comment(self, tmp_path):
        out = tmp_path / "rho.csv"
        rc = run_cli(["density", "--m2", "1", "--lambda", "0", "--beta", "1",
                      "--x-grid=-4:4:41", "--methods", "OEP", "--out", str(out)])
        assert rc == 0
        lines = out.read_text().splitlines()
        assert any(l.startswith("# normalization_error OEP=") for l in lines)
        rows = [l.split(",") for l in lines if l and not l.startswith("#")][1:]
        xs = np.array([float(r[0]) for r in rows])
        rho = np.array([float(r[2]) for r in rows])
        # user grids are taken verbatim; mirror-point pairs may differ by ulps
        assert np.max(np.abs(rho - rho[::-1])) <= 1e-12 * np.max(rho)
        assert xs[0] == -4.0 and xs[-1] == 4.0

    def test_exact_and_oep_match_for_harmonic(self, tmp_path):
        out = tmp_path / "rho.csv"
        run_cli(["density", "--m2", "1", "--lambda", "0", "--beta", "1",
                 "--x-grid=-2:2:11", "--basis-size", "64", "--out", str(out)])
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        vals = {}
        for x, method, rho, err in rows:
            vals.setdefault(x, {})[method] = float(rho)
        for x, d in vals.items():
            assert d["OEP"] == pytest.approx(d["EXACT"], abs=1e-8)


class TestPropagatorCommand:
    def test_imag_harmonic_matches_library(self, tmp_path, capsys):
        rc = run_cli(["propagator", "--m2", "1", "--lambda", "0", "--mode", "imag",
                      "--xa", "0", "--xb", "0", "--time", "1"])
        assert rc == 0
        kv = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines()
                  if "=" in l and not l.startswith("#"))
        assert float(kv["omega_star"]) == pytest.approx(1.0, abs=1e-8)
        assert float(kv["W"]) == pytest.approx(W0_11, abs=1e-10)
        gap = optimize_omega_imag(OscillatorParams(1.0, 0.0), EuclideanPoint(0.0, 0.0, 1.0))
        lib = w1_imag(OscillatorParams(1.0, 0.0), EuclideanPoint(0.0, 0.0, 1.0), gap.omega_star)
        assert kv["W"] == f"{lib:.12g}"

    def test_quartic_matches_library_bitwise(self, tmp_path, capsys):
        rc = run_cli(["propagator", "--m2", "0", "--lambda", "1", "--mode", "imag",
                      "--xa", "0", "--xb", "0", "--time", "5"])
        assert rc == 0
        kv = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines()
                  if "=" in l and not l.startswith("#"))
        q = OscillatorParams(0.0, 1.0)
        p = EuclideanPoint(0.0, 0.0, 5.0)
        gap = optimize_omega_imag(q, p)
        assert kv["omega_star"] == f"{gap.omega_star:.12g}"
        assert kv["W"] == f"{w1_imag(q, p, gap.omega_star):.12g}"

    def test_exponent_form_negative_after_bare_flag(self, tmp_path):
        outs = []
        for xb in (["--xb", "-1e-05"], ["--xb=-1e-05"]):
            out = tmp_path / f"prop{len(outs)}.txt"
            rc = run_cli(["propagator", "--m2", "0", "--lambda", "1", "--mode", "imag",
                          "--xa", "0.3", *xb, "--time", "2", "--out", str(out)])
            assert rc == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]
        assert b"x_b=-1e-05" in outs[0]

    def test_real_mode_caustic_exit_code(self, capsys):
        rc = run_cli(["propagator", "--m2", "1", "--lambda", "0", "--mode", "real",
                      "--xa", "0", "--xb", "0", "--time", str(math.pi),
                      "--omega", "1"])
        assert rc == 3
        assert "Caustic" in capsys.readouterr().err

    def test_real_mode_output(self, capsys):
        rc = run_cli(["propagator", "--m2", "1", "--lambda", "0", "--mode", "real",
                      "--xa", "0.2", "--xb", "0.1", "--time", "1.0"])
        assert rc == 0
        kv = dict(l.split("=", 1) for l in capsys.readouterr().out.splitlines()
                  if "=" in l and not l.startswith("#"))
        assert float(kv["omega_star"]) == pytest.approx(1.0, abs=1e-8)
        amp = complex(float(kv["amp_re"]), float(kv["amp_im"]))
        assert abs(amp) > 0.0


class TestDensityMatrixCommand:
    def test_grid_pairs(self, tmp_path):
        out = tmp_path / "dm.csv"
        rc = run_cli(["density-matrix", "--m2", "1", "--lambda", "0",
                      "--beta", "1", "--x-grid=-1:1:3", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert len(rows) == 9
        vals = {(r[0], r[1]): float(r[2]) for r in rows}
        assert vals[("-1", "1")] == vals[("1", "-1")]


class TestExactSpectrumCommand:
    def test_harmonic_levels(self, tmp_path):
        out = tmp_path / "spec.csv"
        rc = run_cli(["exact-spectrum", "--m2", "1", "--lambda", "0",
                      "--basis-size", "32", "--basis-omega", "1", "--out", str(out)])
        assert rc == 0
        rows = [l.split(",") for l in out.read_text().splitlines()
                if l and not l.startswith("#")][1:]
        assert float(rows[0][1]) == pytest.approx(0.5, abs=1e-12)
        assert float(rows[5][1]) == pytest.approx(5.5, abs=1e-12)


class TestConfigHandling:
    def test_config_file_with_flag_override(self, tmp_path, capsys):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m2 = 1.0\nlambda = 0.0\nbeta = 2.0\nmethods = OEF\n")
        out = tmp_path / "a.csv"
        rc = run_cli(["free-energy", "--config", str(cfgfile), "--out", str(out)])
        assert rc == 0
        rows = [l for l in out.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert rows[0].startswith("2,OEF,")
        # flag overrides the file
        out2 = tmp_path / "b.csv"
        rc = run_cli(["free-energy", "--config", str(cfgfile), "--beta", "3",
                      "--out", str(out2)])
        rows2 = [l for l in out2.read_text().splitlines() if l and not l.startswith("#")][1:]
        assert rows2[0].startswith("3,OEF,")

    def test_config_x_grid_only_where_owned(self, tmp_path, capsys):
        # density and density-matrix take x-grid; the other subcommands
        # ignore a config-file x-grid like any other key they do not take
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m2 = 1\nlambda = 1\nx-grid = 3:1:2\n")   # not a grid
        assert run_cli(["propagator", "--config", str(cfgfile), "--time", "1"]) == 0
        assert "x-grid" not in capsys.readouterr().out
        assert run_cli(["density-matrix", "--config", str(cfgfile), "--beta", "1"]) == 2
        cfgfile.write_text("m2 = 1\nlambda = 0\nx-grid = -1:1:3\n")
        assert run_cli(["exact-spectrum", "--config", str(cfgfile), "--basis-size", "16"]) == 0
        assert "x-grid" not in capsys.readouterr().out
        assert run_cli(["density-matrix", "--config", str(cfgfile), "--beta", "1"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert "# x-grid=-1:1:3" in out
        assert len([l for l in out if l and not l.startswith("#")]) == 1 + 9

    def test_exit_2_on_missing_params(self):
        assert run_cli(["free-energy", "--beta", "1"]) == 2

    def test_exit_2_on_bad_method(self):
        assert run_cli(["free-energy", "--m2", "1", "--lambda", "0",
                        "--beta", "1", "--methods", "BOGUS"]) == 2

    def test_exit_2_on_bad_grid(self):
        assert run_cli(["free-energy", "--m2", "1", "--lambda", "0",
                        "--beta", "5:1:3"]) == 2

    def test_exit_2_on_unknown_config_key(self, tmp_path):
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("m2=1\nlambda=0\nbeta=1\nwibble=3\n")
        assert run_cli(["free-energy", "--config", str(cfgfile)]) == 2

    def test_exit_2_on_invalid_potential(self):
        assert run_cli(["free-energy", "--m2", "-1", "--lambda", "0", "--beta", "1"]) == 2

    def test_exit_2_on_nonpositive_tolerance(self):
        assert run_cli(["free-energy", "--m2", "1", "--lambda", "0", "--beta", "1",
                        "--tol-quad", "-1"]) == 2

    @pytest.mark.parametrize("argv", [
        ["exact-spectrum", "--m2", "1", "--lambda", "0", "--basis-size", "8"],
        ["exact-spectrum", "--m2", "1", "--lambda", "0", "--basis-omega", "-1"],
        ["free-energy", "--m2", "1", "--lambda", "0", "--beta", "1",
         "--methods", "EXACT", "--basis-size", "8"],
        ["free-energy", "--m2", "1", "--lambda", "0", "--beta", "1",
         "--methods", "EXACT", "--basis-omega", "-1"],
        ["propagator", "--m2", "1", "--lambda", "1", "--time", "1", "--omega", "0"],
        ["propagator", "--m2", "1", "--lambda", "1", "--time", "1", "--omega", "0",
         "--mode", "real"],
        ["density", "--m2", "1", "--lambda", "1", "--beta", "1", "--x-grid=0.5",
         "--methods", "OEP"],
        ["density", "--m2", "1", "--lambda", "1", "--beta", "1", "--x-grid=0.5",
         "--methods", "EXACT"],
    ], ids=["basis-size", "basis-omega", "exact-row-basis-size", "exact-row-basis-omega",
            "omega-imag", "omega-real", "one-point-grid-oep", "one-point-grid-exact"])
    def test_exit_2_on_bad_library_argument(self, argv, capsys):
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("anharm: config error: ")
        assert captured.out == ""

    @pytest.mark.parametrize("argv, config, message", [
        (["density", "--m2", "1", "--lambda", "1", "--beta", "1,2"], None,
         "density takes a single beta"),
        (["density-matrix", "--m2", "1", "--lambda", "1", "--beta", "1,2"], None,
         "density-matrix takes a single beta"),
        (["propagator", "--m2", "1", "--lambda", "1"], None, "--time is required"),
        # argparse checks a flag's choices, but never sees a config-file value
        (["propagator", "--time", "1"], "m2 = 1\nlambda = 1\nmode = sideways\n",
         "--mode must be imag or real"),
        (["free-energy", "--beta", "1"], "m2 = 1\nlambda 1\n", ":2: expected key=value"),
        (["free-energy", "--m2", "1", "--lambda", "1", "--beta", "1"], "unreadable",
         "cannot read config file"),
    ], ids=["density-two-betas", "density-matrix-two-betas", "propagator-no-time",
            "config-mode", "config-line-without-equals", "config-unreadable"])
    def test_exit_2_on_bad_config(self, argv, config, message, tmp_path, capsys):
        if config is not None:
            cfgfile = tmp_path / "run.cfg"
            if config != "unreadable":
                cfgfile.write_text(config)
            argv = argv + ["--config", str(cfgfile)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("anharm: config error: ")
        assert message in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("via", ["flag", "config"])
    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("option", ["tol-root", "tol-quad"])
    def test_exit_2_on_non_finite_tolerance(self, option, value, via, tmp_path, capsys):
        argv = ["free-energy", "--m2", "0", "--lambda", "1", "--beta", "1",
                "--methods", "OEP,FK"]
        if via == "flag":
            argv += [f"--{option}", value]
        else:
            cfgfile = tmp_path / "run.cfg"
            cfgfile.write_text(f"{option} = {value}\n")
            argv += ["--config", str(cfgfile)]
        assert run_cli(argv) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("anharm: config error: ")
        assert captured.out == ""


# The flags each subcommand accepts.  A change to this table is a change to
# the command-line surface.
COMMON_FLAGS = {"-h", "--help", "--m2", "--lambda", "--config", "--out", "--tol-root",
                "--tol-quad", "--basis-size", "--basis-omega", "--workers"}
SUBCOMMAND_FLAGS = {
    "free-energy": COMMON_FLAGS | {"--beta", "--methods"},
    "density": COMMON_FLAGS | {"--beta", "--methods", "--x-grid"},
    "density-matrix": COMMON_FLAGS | {"--beta", "--x-grid"},
    "propagator": COMMON_FLAGS | {"--xa", "--xb", "--time", "--mode", "--omega"},
    "exact-spectrum": COMMON_FLAGS,
}
# a value for every option of every subcommand, small enough to run fast
COMMON_VALUES = {"m2": "1", "lambda": "0.5", "tol-root": "1e-9", "tol-quad": "1e-8",
                 "basis-size": "24", "basis-omega": "1.5", "workers": "2"}
SUBCOMMAND_VALUES = {
    "free-energy": {"beta": "0.5,2", "methods": "OEF,FK"},
    "density": {"beta": "1", "methods": "EXACT", "x-grid": "-0.5,0.5"},
    "density-matrix": {"beta": "1", "x-grid": "0,0.5"},
    "propagator": {"xa": "0.3", "xb": "-0.2", "time": "1.5", "mode": "real", "omega": "1.2"},
    "exact-spectrum": {},
}


class TestSurface:
    @staticmethod
    def _accepts(command, flag):
        try:
            build_parser().parse_args([command, flag, "imag" if flag == "--mode" else "1"])
        except SystemExit as exc:
            return exc.code == 0    # --help exits 0
        return True

    @pytest.mark.parametrize("command", sorted(SUBCOMMAND_FLAGS))
    def test_flags_each_subcommand_accepts(self, command, capsys):
        every = set().union(*SUBCOMMAND_FLAGS.values()) | {"--bogus"}
        accepted = {flag for flag in every if self._accepts(command, flag)}
        assert accepted == SUBCOMMAND_FLAGS[command]

    @staticmethod
    def _run(argv, out, capsys):
        code = run_cli(argv)
        captured = capsys.readouterr()
        written = out.read_bytes() if out.exists() else None
        if out.exists():
            out.unlink()
        return code, captured.out, captured.err, written

    @pytest.mark.parametrize("command, option", [
        (command, option) for command, values in sorted(SUBCOMMAND_VALUES.items())
        for option in ["out", *COMMON_VALUES, *values]])
    def test_flag_and_config_key_agree(self, command, option, tmp_path, capsys):
        out = tmp_path / "out.txt"
        values = {"out": str(out), **COMMON_VALUES, **SUBCOMMAND_VALUES[command]}
        flags = [command]
        for name, value in values.items():
            if name != option:
                flags += [f"--{name}", value]
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text(f"{option} = {values[option]}\n")
        by_flag = self._run(flags + [f"--{option}", values[option]], out, capsys)
        by_file = self._run(flags + ["--config", str(cfgfile)], out, capsys)
        assert by_flag[0] == 0
        assert by_file == by_flag
