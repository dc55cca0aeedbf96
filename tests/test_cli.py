import json
import math

import numpy as np
import pytest

from latdft.cli import main
from latdft.sysnf import ReductionCertificate


@pytest.fixture
def files(tmp_path):
    good = tmp_path / "good.txt"
    good.write_text("2 2\n5 1\n0 1\n")
    bad = tmp_path / "bad.txt"
    bad.write_text("2 2\n4 1\n0 1\n")
    junk = tmp_path / "junk.txt"
    junk.write_text("not a matrix\n")
    reducible = tmp_path / "reducible.txt"
    reducible.write_text("2 2\n2 1\n0 1\n")
    singular = tmp_path / "singular.txt"
    singular.write_text("2 2\n1 2\n2 4\n")
    return tmp_path


class TestValidate:
    def test_valid_exit_zero(self, files, capsys):
        assert main(["validate", "--input", str(files / "good.txt")]) == 0
        out = capsys.readouterr().out
        assert "N = 5" in out and "b = [1]" in out

    def test_invalid_exit_two_names_gcd(self, files, capsys):
        assert main(["validate", "--input", str(files / "bad.txt")]) == 2
        assert "2" in capsys.readouterr().out

    def test_malformed_exit_one(self, files):
        assert main(["validate", "--input", str(files / "junk.txt")]) == 1

    def test_missing_file_exit_one(self, files):
        assert main(["validate", "--input", str(files / "nope.txt")]) == 1


class TestReduce:
    def test_writes_verified_certificate(self, files, capsys):
        out_path = files / "cert.json"
        code = main([
            "reduce", "--input", str(files / "reducible.txt"),
            "--epsilon", "1/16", "--out", str(out_path),
        ])
        assert code == 0
        stdout = capsys.readouterr().out
        assert "T = " in stdout and "delta = " in stdout
        cert = ReductionCertificate.from_json(out_path.read_text())
        assert cert.epsilon.numerator == 1 and cert.epsilon.denominator == 16

    def test_sysnf_input_reduces_fine(self, files):
        assert main([
            "reduce", "--input", str(files / "good.txt"),
            "--epsilon", "1/8", "--out", str(files / "c2.json"),
        ]) == 0

    def test_zero_epsilon_exit_one(self, files):
        assert main([
            "reduce", "--input", str(files / "reducible.txt"), "--epsilon", "0",
        ]) == 1


class TestDft:
    def test_outputs(self, files, capsys):
        outdir = files / "dftout"
        assert main(["dft", "--input", str(files / "good.txt"), "--out", str(outdir)]) == 0
        header = json.loads((outdir / "dft_header.json").read_text())
        assert header == {"N": 5, "n": 2, "b": [1], "order": 5}
        lines = (outdir / "dft_matrix.csv").read_text().splitlines()
        assert len(lines) == 5 and len(lines[0].split(",")) == 10

    def test_invalid_input_exit_two(self, files):
        assert main(["dft", "--input", str(files / "bad.txt")]) == 2

    def test_size_guard_exit_one(self, files):
        assert main([
            "dft", "--input", str(files / "good.txt"), "--size-guard", "2",
        ]) == 1


class TestQftSim:
    def test_agreement_report_and_snapshots(self, files):
        outdir = files / "sim"
        code = main([
            "qft-sim", "--input", str(files / "good.txt"),
            "--out", str(outdir), "--dump-state", "3,3",
        ])
        assert code == 0
        report = json.loads((outdir / "qft_sim_report.json").read_text())
        assert report["agrees"] and report["max_amplitude_deviation"] <= 1e-10
        for step in range(5):
            matches = list(outdir.glob(f"step{step}_*.bin"))
            assert matches, f"missing snapshot for step {step}"

    @pytest.mark.parametrize(
        "state",
        [
            pytest.param("a,b", id="not-integer"),
            pytest.param("1,1,1", id="wrong-length"),
            pytest.param("1,2", id="off-lattice"),
        ],
    )
    def test_bad_dump_state_exit_one(self, files, capsys, state):
        code = main([
            "qft-sim", "--input", str(files / "good.txt"),
            "--out", str(files / "sim"), "--dump-state", state,
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err


MALFORMED = {
    "zero-denominator": "2 2\n1/0 1\n0 1\n",
    "non-numeric": "2 2\n5 x\n0 1\n",
    "row-count": "3 2\n5 1\n0 1\n",
    "ragged-row": "2 2\n5 1\n0\n",
    "non-square": "2 3\n5 1 0\n0 1 0\n",
}


class TestMalformedInput:
    @pytest.mark.parametrize("kind", sorted(MALFORMED))
    @pytest.mark.parametrize("command", ["validate", "reduce", "dft", "qft-sim"])
    def test_documented_exit_no_traceback(self, tmp_path, capsys, command, kind):
        path = tmp_path / "m.txt"
        path.write_text(MALFORMED[kind])
        argv = [command, "--input", str(path)]
        if command == "reduce":
            argv += ["--epsilon", "1/16", "--out", str(tmp_path / "cert.json")]
        elif command != "validate":
            argv += ["--out", str(tmp_path / "out")]
        # A well-formed but non-SysNF matrix is a domain rejection (2) where
        # the command needs SysNF; reduce takes it as a non-square basis (1).
        want = 2 if kind == "non-square" and command != "reduce" else 1
        assert main(argv) == want
        assert "Traceback" not in capsys.readouterr().err


class TestSample:
    def test_end_to_end_report(self, files):
        config = {
            "basis": str(files / "reducible.txt"),
            "spec": {"kind": "gaussian", "s": 16.0},
            "epsilon": "1/16",
            "shots": 200,
            "seed": 31,
        }
        cfg_path = files / "cfg.json"
        cfg_path.write_text(json.dumps(config))
        outdir = files / "samp"
        assert main(["sample", "--config", str(cfg_path), "--out", str(outdir)]) == 0
        report = json.loads((outdir / "sample_report.json").read_text())
        assert report["sigma_inverse_applied"] is True
        assert report["tv_distance"] <= 0.05
        assert report["decode_mismatch_rate"] == 0.0
        assert report["seed"] == 31
        assert len(report["config_hash"]) == 16
        rows = (outdir / "samples.csv").read_text().splitlines()
        assert len(rows) == 200
        assert all(len(r.split(",")) == 2 for r in rows)

    def test_same_config_same_hash_and_samples(self, files):
        config = {
            "basis": str(files / "reducible.txt"),
            "spec": {"kind": "gaussian", "s": 16.0},
            "epsilon": "1/16",
            "shots": 50,
            "seed": 9,
        }
        cfg_path = files / "cfg2.json"
        cfg_path.write_text(json.dumps(config))
        out1, out2 = files / "s1", files / "s2"
        assert main(["sample", "--config", str(cfg_path), "--out", str(out1)]) == 0
        assert main(["sample", "--config", str(cfg_path), "--out", str(out2)]) == 0
        assert (out1 / "samples.csv").read_text() == (out2 / "samples.csv").read_text()
        r1 = json.loads((out1 / "sample_report.json").read_text())
        r2 = json.loads((out2 / "sample_report.json").read_text())
        assert r1 == r2

    def test_singular_basis_exit_one(self, files, capsys):
        config = {
            "basis": str(files / "singular.txt"),
            "spec": {"kind": "gaussian", "s": 16.0},
            "epsilon": "1/16",
            "shots": 10,
            "seed": 1,
        }
        cfg = files / "singular_cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sample", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "singular" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "config",
        [
            pytest.param({}, id="empty"),
            pytest.param({"spec": {"kind": "gaussian"}}, id="spec-without-s"),
            pytest.param({"spec": "gaussian"}, id="spec-not-object"),
            pytest.param({"spec": {"kind": "gaussian", "s": "wide"}}, id="s-not-number"),
            pytest.param({"spec": {"kind": "gaussian", "s": 0}}, id="s-zero"),
            pytest.param({"spec": {"kind": "gaussian", "s": -2.0}}, id="s-negative"),
            pytest.param({"spec": {"kind": "gaussian", "s": math.nan}}, id="s-nan"),
            pytest.param({"spec": {"kind": "gaussian", "s": 1e300}}, id="s-huge"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0, "grid_radius": math.inf}}, id="grid-radius-inf"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0, "grid_radius": math.nan}}, id="grid-radius-nan"),
            pytest.param({"spec": {"kind": "uniform", "s": 16.0}}, id="kind-unsupported"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "seed": -1}, id="seed-negative"),
            pytest.param([1, 2], id="config-list"),
            pytest.param(7, id="config-number"),
            pytest.param("config", id="config-string"),
        ],
    )
    def test_bad_config_exit_one(self, files, capsys, config):
        if isinstance(config, dict) and "spec" in config:  # bad spec, other fields valid
            config = {
                "basis": str(files / "reducible.txt"),
                "epsilon": "1/16",
                "shots": 10,
                "seed": 1,
                **config,
            }
        cfg = files / "bad_cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sample", "--config", str(cfg)]) == 1
        assert "Traceback" not in capsys.readouterr().err


def test_usage_error_exit_one():
    assert main(["no-such-command"]) == 1
