"""Configuration parsing and the command-line front door."""

import hashlib
import json
import math

import pytest

from levyfield import cli
from levyfield.cli import main
from levyfield.config import ConfigError, RunConfig, parse_config
from levyfield.solver import PicardDiagnostics, PicardDivergenceError

MINIMAL_INI = """
[run]
seed = 7
replicates = 20

[noise]
alpha = 0.5
beta = 0.0
horizon = 1.0
domain = 0,1
cutoff = 0.01
"""


class TestConfigParsing:
    def test_ini_round_trip_semantics(self):
        cfg = parse_config(MINIMAL_INI)
        assert cfg.run.seed == 7
        assert cfg.noise.cutoff == 0.01
        echoed = parse_config(cfg.normalized_text())
        assert echoed == cfg
        # normalization is idempotent
        assert echoed.normalized_text() == cfg.normalized_text()

    def test_json_equivalent(self):
        payload = {
            "run": {"seed": 7, "replicates": 20},
            "noise": {"alpha": 0.5, "beta": 0.0, "horizon": 1.0, "domain": "0,1", "cutoff": 0.01},
        }
        assert parse_config(json.dumps(payload)) == parse_config(MINIMAL_INI)

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("[mystery]\nx = 1\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("[noise]\nwibble = 3\n")

    def test_invalid_values_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("[noise]\nalpha = not-a-number\n")
        with pytest.raises(ConfigError):
            parse_config("[noise]\nalpha = 1.0\n")  # excluded stability index
        with pytest.raises(ConfigError):
            parse_config("[noise]\ncutoff = -1\n")

    def test_window_expecting_too_many_jumps_rejected(self):
        # (1e-7) ** -1.5 = 3.16e10 expected jumps in the unit window, over the 1e8 guard
        with pytest.raises(ConfigError, match="guard"):
            parse_config("[noise]\nalpha = 1.5\ncutoff = 1e-7\n")

    def test_two_dimensional_domain(self):
        cfg = parse_config("[noise]\ndomain = 0,1;0,2\nalpha = 0.5\ncutoff = 0.1\n")
        box = cfg.domain_box()
        assert box.dim == 2 and box.volume == 2.0

    def test_sigma_descriptors(self):
        cfg = RunConfig()
        cfg.solver.sigma = "identity"
        assert cfg.sigma()(4.0) == 4.0
        cfg.solver.sigma = "affine:2,0.5"
        assert cfg.sigma()(1.0) == 2.5
        cfg.solver.sigma = "mystery"
        with pytest.raises(ConfigError):
            cfg.sigma()


def _hash_file(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestCommands:
    def test_noise_deterministic_outputs(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        for out in (out1, out2):
            code = main(["--seed", "1", "--replicates", "20", "--out", str(out), "noise"])
            assert code == 0
        capsys.readouterr()
        assert _hash_file(out1 / "jumps.csv") == _hash_file(out2 / "jumps.csv")
        assert _hash_file(out1 / "noise_values.csv") == _hash_file(out2 / "noise_values.csv")

    def test_noise_header_carries_seed_and_version(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["--seed", "5", "--replicates", "3", "--out", str(out), "noise"]) == 0
        capsys.readouterr()
        head = (out / "noise_values.csv").read_text().splitlines()[0]
        assert head.startswith("# levyfield") and "seed=5" in head

    def test_zero_replicates_rejected(self, tmp_path, capsys):
        code = main(["--replicates", "0", "--out", str(tmp_path / "x"), "noise"])
        capsys.readouterr()
        assert code == 2

    def test_unit_cutoff_mean_count_summary(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[noise]\nalpha = 0.8\ncutoff = 1.0\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_file), "--seed", "2", "--replicates", "400", "--out", str(out), "noise"])
        captured = capsys.readouterr()
        assert code == 0
        mean = float(captured.out.split("mean_count=")[1].split()[0])
        assert abs(mean - 1.0) < 3.0 * (1.0 / 400.0) ** 0.5

    def test_config_echo_round_trip(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(MINIMAL_INI, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out), "noise"]) == 0
        capsys.readouterr()
        echoed_text = (out / "config_echo.cfg").read_text()
        body = "\n".join(l for l in echoed_text.splitlines() if not l.startswith("#"))
        echoed = parse_config(body)
        original = parse_config(MINIMAL_INI)
        original.run.out = str(out)
        assert echoed == original

    def test_kernels_table_contains_wave_value(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "[noise]\nalpha = 0.5\ndomain = 0,1\n[kernel]\nkind = wave_1d\nbounded = false\n",
            encoding="utf-8",
        )
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out), "kernels"]) == 0
        capsys.readouterr()
        rows = (out / "kernel_functionals.csv").read_text().splitlines()
        values = {float(r.split(",")[0]): float(r.split(",")[1]) for r in rows[2:]}
        assert values[2.0] == pytest.approx(2.828427, abs=1e-6)

    def test_solve_writes_solution_and_diagnostics(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--seed", "3", "--out", str(out), "solve"]) == 0
        capsys.readouterr()
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is True
        assert (out / "solution.csv").exists()

    @pytest.mark.parametrize("command", ["solve", "linear"])
    def test_nan_truncation_is_usage_error(self, tmp_path, capsys, command):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[solver]\ntruncation = nan\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_file), "--seed", "3", "--out", str(out), command])
        assert code == 2
        assert "truncation" in capsys.readouterr().err
        assert not (out / "diagnostics.json").exists()

    def test_linear_writes_solution(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--seed", "3", "--out", str(out), "linear"]) == 0
        capsys.readouterr()
        assert (out / "linear_solution.csv").exists()

    def test_verify_survival_passes(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--seed", "4", "--out", str(out), "verify", "survival"])
        captured = capsys.readouterr()
        assert code == 0
        assert "survival" in captured.out
        report = json.loads((out / "report_survival.json").read_text())
        assert report["passed"] is True

    def test_verify_tail_writes_report(self, tmp_path, capsys):
        cfg = tmp_path / "small.cfg"
        cfg.write_text("[verify]\nreplicates = 2000\n")
        out = tmp_path / "out"
        code = main(["--config", str(cfg), "--out", str(out), "verify", "tail"])
        capsys.readouterr()
        report = json.loads((out / "report_tail.json").read_text())
        assert code == (0 if report["passed"] else 1)
        assert report["suite"] == "tail"

    def test_verify_negative_control_fails(self, tmp_path, capsys):
        out = tmp_path / "out"
        code = main(["--seed", "4", "--out", str(out), "verify", "survival", "--negative-control"])
        capsys.readouterr()
        assert code == 1

    def test_replicates_flag_reaches_verify(self, tmp_path, capsys):
        out = tmp_path / "out"
        assert main(["--replicates", "20000", "--out", str(out), "verify", "survival"]) == 0
        capsys.readouterr()
        assert json.loads((out / "report_survival.json").read_text())["replicates"] == 20000

    def test_verify_unknown_suite_usage_error(self, tmp_path, capsys):
        code = main(["--out", str(tmp_path / "o"), "verify", "florb"])
        captured = capsys.readouterr()
        assert code == 2
        assert "available" in captured.err

    def test_missing_config_file(self, tmp_path, capsys):
        code = main(["--config", str(tmp_path / "absent.cfg"), "noise"])
        capsys.readouterr()
        assert code == 2

    def test_bad_config_is_usage_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[noise]\nalpha = 1.0\n", encoding="utf-8")
        code = main(["--config", str(cfg_file), "--out", str(tmp_path / "o"), "noise"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    @pytest.mark.parametrize(
        "config_text, argv",
        [
            ("[solver]\ntruncation = nan\n", ["solve"]),
            ("[solver]\ntruncation = nan\n", ["linear"]),
            ("[solver]\nmax_iterations = 0\n", ["solve"]),
            ("[solver]\nsigma = mystery\n", ["solve"]),
            ("[noise]\ndomain = 1,0\n", ["noise"]),
            ("[noise]\nhorizon = 0\n", ["noise"]),
            ("[run]\nreplicates = 0\n", ["noise"]),
            ("[kernel]\nkind = florb\n", ["kernels"]),
            ("", ["verify", "florb"]),
            ("[noise]\nalpha = 1.5\n", ["verify", "moment"]),
            ("[verify]\nreplicates = 5000\n", ["verify", "ecf"]),
            ("[noise]\nalpha = 1.5\ncutoff = 1e-7\n", ["noise"]),
            ("[noise]\nalpha = 1.5\ncutoff = 1e-7\n[solver]\np = 1.9\n", ["linear"]),
        ],
        ids=["solve-nan", "linear-nan", "solve-max-iterations", "solve-sigma", "noise-domain", "noise-horizon",
             "noise-replicates", "kernels-kind", "verify-suite", "verify-moment-exponent", "verify-ecf-replicates",
             "noise-count-guard", "linear-count-guard"],
    )
    def test_usage_error_writes_nothing(self, tmp_path, capsys, config_text, argv):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(config_text, encoding="utf-8")
        out = tmp_path / "out"
        assert main(["--config", str(cfg_file), "--out", str(out)] + argv) == 2
        capsys.readouterr()
        assert not out.exists()

    def test_solve_without_convergence_is_internal_error(self, tmp_path, capsys):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("[solver]\nmax_iterations = 1\n", encoding="utf-8")
        out = tmp_path / "out"
        code = main(["--config", str(cfg_file), "--seed", "3", "--out", str(out), "solve"])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ")
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is False and diag["iterations"] == 1
        assert not (out / "solution.csv").exists()

    def test_solve_divergence_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def diverging(config, sigma, jumps):
            diag = PicardDiagnostics(4, [1.0, 2.0, 3.0, 4.0], math.inf, False)
            raise PicardDivergenceError("successive-iterate distances grew three sweeps in a row", diag)

        monkeypatch.setattr(cli, "picard_solve", diverging)
        out = tmp_path / "out"
        code = main(["--out", str(out), "solve"])
        err = capsys.readouterr().err
        assert code == 3
        assert len(err.splitlines()) == 1 and err.startswith("error: ") and "Traceback" not in err
        diag = json.loads((out / "diagnostics.json").read_text())
        assert diag["converged"] is False and diag["sup_diffs"] == [1.0, 2.0, 3.0, 4.0]
        assert not (out / "solution.csv").exists()

    def test_failed_computation_is_internal_error(self, tmp_path, capsys, monkeypatch):
        def failing(cfg):
            raise ValueError("quadrature went wrong")

        monkeypatch.setitem(cli.COMMANDS, "kernels", failing)
        code = main(["--out", str(tmp_path / "o"), "kernels"])
        err = capsys.readouterr().err
        assert code == 3
        assert err.splitlines() == ["error: internal: ValueError: quadrature went wrong"]
