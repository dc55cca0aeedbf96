import json
import math

import numpy as np
import pytest

from latdft import acceptance, intlat, sysnf
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
        captured = capsys.readouterr()
        assert captured.out == "INVALID SysNF input: gcd(sum(b^2)+1, N) = gcd(2, 4) = 2 != 1\n"
        assert captured.err == ""

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

    @pytest.mark.parametrize("text", ["1/0", "abc"])
    def test_unparsable_epsilon_names_option(self, files, capsys, text):
        assert main(["reduce", "--input", str(files / "reducible.txt"), "--epsilon", text]) == 1
        err = capsys.readouterr().err
        assert err == f"error: --epsilon must be an exact rational such as 1/16, got {text!r}\n"


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

    def test_size_guard_exit_one(self, files, capsys, monkeypatch):
        # The 5 x 5 matrix needs |L_N|^2 = 25 entries.
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        assert main(["dft", "--input", str(files / "good.txt"), "--out", str(files / "d")]) == 1
        err = capsys.readouterr().err
        assert "|L_N|^2 = 25 entries exceed guard 24" in err and "Traceback" not in err
        assert not (files / "d").exists()

    def test_one_point_lattice_past_int64(self, files, capsys):
        (files / "one_d.txt").write_text(f"1 1\n{10**20}\n")
        assert main(["dft", "--input", str(files / "one_d.txt"), "--out", str(files / "d")]) == 0
        captured = capsys.readouterr()
        assert "order = 1" in captured.out and "Traceback" not in captured.err


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

    def test_size_guard_exit_one(self, files, capsys, monkeypatch):
        monkeypatch.setattr(intlat, "BOX_GUARD", 24)
        code = main([
            "qft-sim", "--input", str(files / "good.txt"),
            "--out", str(files / "sim"), "--dump-state", "3,3",
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "|L_N|^2 = 25 entries exceed guard 24" in err and "Traceback" not in err
        assert not (files / "sim").exists()

    @pytest.mark.parametrize("dump", [None, "0"])
    @pytest.mark.parametrize("modulus, guard", [(10**20, 5 * 10**6), (7, 6)])
    def test_statevector_guard_exit_one(self, files, capsys, monkeypatch, modulus, guard, dump):
        # n = 1: the one-point dense transform passes its guard, the circuit's
        # N-amplitude statevector does not, with or without snapshots.
        (files / "one_d.txt").write_text(f"1 1\n{modulus}\n")
        monkeypatch.setattr(intlat, "BOX_GUARD", guard)
        argv = ["qft-sim", "--input", str(files / "one_d.txt"), "--out", str(files / "sim")]
        assert main(argv + (["--dump-state", dump] if dump else [])) == 1
        err = capsys.readouterr().err
        assert f"error: statevector N^n = {modulus} amplitudes exceed guard {guard}" in err
        assert "Traceback" not in err and not (files / "sim").exists()

    @pytest.mark.parametrize(
        "state",
        [
            pytest.param("a,b", id="not-integer"),
            pytest.param("1,1,1", id="wrong-length"),
            pytest.param("1,2", id="off-lattice"),
            pytest.param(f"{2**70},0", id="beyond-int64"),
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
        assert not (files / "sim").exists()


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

    def test_one_dimensional_basis_exit_one(self, files, capsys):
        (files / "one_d.txt").write_text("1 1\n7\n")
        config = {
            "basis": str(files / "one_d.txt"),
            "spec": {"kind": "gaussian", "s": 16.0},
            "epsilon": "1/16",
            "shots": 10,
            "seed": 1,
        }
        cfg = files / "one_d_cfg.json"
        cfg.write_text(json.dumps(config))
        assert main(["sample", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert "dimension at least 2" in err and "Traceback" not in err

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
            pytest.param({"spec": {"kind": "gaussian", "s": 10**400}}, id="s-beyond-float"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0, "grid_radius": 10**400}}, id="grid-radius-beyond-float"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0, "grid_radius": math.inf}}, id="grid-radius-inf"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0, "grid_radius": math.nan}}, id="grid-radius-nan"),
            pytest.param({"spec": {"kind": "uniform", "s": 16.0}}, id="kind-unsupported"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "seed": -1}, id="seed-negative"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "seed": 1.5}, id="seed-fraction"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "seed": "1"}, id="seed-string"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "shots": 2.5}, id="shots-fraction"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "shots": True}, id="shots-bool"),
            pytest.param({"spec": {"kind": "gaussian", "s": 16.0}, "shots": 10**15}, id="shots-huge"),
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
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text", ["1/0", "abc"])
    def test_unparsable_epsilon_names_key(self, files, capsys, text):
        cfg = files / "eps_cfg.json"
        cfg.write_text(json.dumps({
            "basis": str(files / "reducible.txt"),
            "spec": {"kind": "gaussian", "s": 16.0},
            "epsilon": text,
            "shots": 10,
            "seed": 1,
        }))
        assert main(["sample", "--config", str(cfg)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: bad config: epsilon must be an exact rational such as 1/16, got {text!r}\n"


class TestSelftest:
    def test_summary_exit_zero(self, tmp_path, capsys):
        assert main(["selftest", "--out", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "selftest_summary.json").read_text())
        assert set(summary) == {"config_hash", "seed", "criteria", "all_passed"}
        assert summary["seed"] == acceptance.SEED and summary["all_passed"] is True
        assert [c["number"] for c in summary["criteria"]] == list(range(1, 13))
        for c in summary["criteria"]:
            assert set(c) == {"number", "name", "passed", "details", "seconds"}
        assert "summary written to" in capsys.readouterr().out

    def test_failed_criterion_exit_three(self, tmp_path, monkeypatch):
        def failing():
            return acceptance._timed(1, "forced failure", lambda: (False, "forced"))

        monkeypatch.setattr(acceptance, "ALL_CRITERIA", [failing])
        assert main(["selftest", "--out", str(tmp_path)]) == 3
        summary = json.loads((tmp_path / "selftest_summary.json").read_text())
        assert summary["all_passed"] is False
        assert summary["criteria"][0]["details"] == "forced"

    def test_seed_option_removed(self):
        assert main(["selftest", "--seed", "1"]) == 1


@pytest.mark.parametrize("command", ["reduce", "dft", "qft-sim", "sample", "selftest"])
def test_out_under_regular_file_exit_one(files, capsys, command):
    cfg = files / "cfg.json"
    cfg.write_text(json.dumps({
        "basis": str(files / "reducible.txt"),
        "spec": {"kind": "gaussian", "s": 16.0},
        "epsilon": "1/16",
        "shots": 10,
        "seed": 1,
    }))
    argv = {
        "reduce": ["--input", str(files / "reducible.txt"), "--epsilon", "1/16"],
        "dft": ["--input", str(files / "good.txt")],
        "qft-sim": ["--input", str(files / "good.txt"), "--dump-state", "1,1"],
        "sample": ["--config", str(cfg)],
        "selftest": [],
    }[command]
    assert main([command, *argv, "--out", str(files / "good.txt" / "x")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and "Traceback" not in err


def test_unexpected_exception_propagates(files, monkeypatch):
    # Only the documented failures become exit codes; anything else is a bug.
    def broken(m):
        raise RuntimeError("broken invariant")

    monkeypatch.setattr(sysnf, "validate", broken)
    with pytest.raises(RuntimeError, match="broken invariant"):
        main(["validate", "--input", str(files / "good.txt")])


def test_usage_error_exit_one():
    assert main(["no-such-command"]) == 1
