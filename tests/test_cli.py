"""End-to-end CLI checks: golden fixtures, exit codes, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "sebits.cli", *args], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestMeasures:
    def test_table1_values(self):
        code, out, _ = run_cli(
            "measures",
            "--dist", str(FIXTURES / "tableI_dist.json"),
            "--partition", str(FIXTURES / "tableI_partition.json"),
        )
        assert code == 0
        got = json.loads(out)
        assert got["H"] == pytest.approx(2.471, abs=1e-3)
        assert got["Hs"] == pytest.approx(1.971, abs=1e-3)

    def test_joint_measures_match_library(self, table2_joint, table3_partitions):
        from sebits.measures import down_smi, semantic_joint_entropy, up_smi

        code, out, _ = run_cli(
            "measures",
            "--joint", str(FIXTURES / "tableII_joint.json"),
            "--u-partition", str(FIXTURES / "tableIII_u_partition.json"),
            "--v-partition", str(FIXTURES / "tableIII_v_partition.json"),
        )
        assert code == 0
        got = json.loads(out)
        assert got["Hs_joint"] == semantic_joint_entropy(table2_joint, table3_partitions)
        assert got["I_up"] == up_smi(table2_joint, table3_partitions)
        assert got["I_down"] == down_smi(table2_joint, table3_partitions)

    def test_missing_file_exits_2(self, tmp_path):
        code, _, err = run_cli("measures", "--dist", str(tmp_path / "nope.json"))
        assert code == 2
        assert "nope.json" in err

    def test_error_json(self, tmp_path):
        code, _, err = run_cli(
            "measures", "--dist", str(tmp_path / "nope.json"), "--error-json"
        )
        assert code == 2
        parsed = json.loads(err)
        assert parsed["exit_code"] == 2


class TestHuffman:
    def test_table7_codebook(self):
        code, out, _ = run_cli(
            "huffman",
            "--dist", str(FIXTURES / "tableVI_dist.json"),
            "--partition", str(FIXTURES / "tableVII_partition.json"),
        )
        assert code == 0
        got = json.loads(out)
        assert got["codewords"] == ["0", "10", "11"]
        assert got["avg_length"] == 1.5

    @pytest.mark.parametrize("arity", ["1", "12"])
    def test_arity_out_of_range_exits_2(self, arity):
        code, _, err = run_cli(
            "huffman",
            "--dist", str(FIXTURES / "tableVI_dist.json"),
            "--partition", str(FIXTURES / "tableVII_partition.json"),
            "--arity", arity,
        )
        assert code == 2
        assert "[2, 10]" in err

    def test_encode_decode_round_trip(self, tmp_path):
        code_path = tmp_path / "code.json"
        run_code, out, _ = run_cli(
            "huffman",
            "--dist", str(FIXTURES / "tableVI_dist.json"),
            "--partition", str(FIXTURES / "tableVII_partition.json"),
            "-o", str(code_path),
        )
        assert run_code == 0
        symbols = tmp_path / "symbols.txt"
        symbols.write_text("0 0 2 3 1 2 1\n")
        enc_code, stream, _ = run_cli(
            "encode",
            "--code", str(code_path),
            "--partition", str(FIXTURES / "tableVII_partition.json"),
            "--input", str(symbols),
        )
        assert enc_code == 0
        assert stream.strip() == "001111101110"
        stream_path = tmp_path / "stream.txt"
        stream_path.write_text(stream)
        dec_code, decoded, _ = run_cli(
            "decode",
            "--code", str(code_path),
            "--partition", str(FIXTURES / "tableVII_partition.json"),
            "--input", str(stream_path),
        )
        assert dec_code == 0
        assert decoded.split() == ["0", "0", "2", "2", "1", "2", "1"]


class TestCapacity:
    def test_identity_channel(self, tmp_path):
        ch = tmp_path / "ch.json"
        ch.write_text(json.dumps({"transition": [[1, 0], [0, 1]]}))
        code, out, _ = run_cli("capacity", "--channel", str(ch))
        assert code == 0
        got = json.loads(out)
        assert got["c_s"] == pytest.approx(2.0, abs=1e-6)
        assert got["c_classic"] == pytest.approx(1.0, abs=1e-9)

    def test_budget_exit_4(self, tmp_path):
        """The enumeration budget now gates R_s(D) only; capacity has none."""
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"probs": [0.5, 0.5]}))
        ds = tmp_path / "ds.json"
        ds.write_text(json.dumps({"values": [[0, 1], [1, 0]]}))
        code, _, err = run_cli(
            "rate-distortion", "--dist", str(dist), "--distortion", str(ds),
            "--d-target", "0.25", "--budget", "1",
        )
        assert code == 4
        assert "partition pairs" in err


class TestRateDistortion:
    def test_binary_hamming(self, tmp_path):
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"probs": [0.5, 0.5]}))
        ds = tmp_path / "ds.json"
        ds.write_text(json.dumps({"values": [[0, 1], [1, 0]]}))
        code, out, _ = run_cli(
            "rate-distortion", "--dist", str(dist), "--distortion", str(ds), "--d-target", "0.25"
        )
        assert code == 0
        got = json.loads(out)
        h25 = -(0.25 * math.log2(0.25) + 0.75 * math.log2(0.75))
        assert got["r_s"] == pytest.approx(1 - h25, abs=5e-3)


class TestChancodeAndSimulate:
    def test_chancode_report(self):
        code, out, _ = run_cli(
            "chancode", "--codebook", str(FIXTURES / "tableVIII_codebook.json"), "--es-n0", "1.0"
        )
        assert code == 0
        got = json.loads(out)
        assert got["d_gh_min"] == 2.0
        assert got["mlg_bound"] == pytest.approx(0.8303, abs=1e-4)
        spectrum = {tuple(e["distances"]): e["count"] for e in got["group_spectrum"]}
        assert spectrum == {(2.0, 2.0): 6.0, (4.0, 4.0): 1.0}

    def test_simulate_csv_and_determinism(self):
        args = (
            "simulate",
            "--codebook", str(FIXTURES / "tableVIII_codebook.json"),
            "--es-n0-db", "0,3",
            "--trials", "20000",
            "--seed", "11",
        )
        code_a, out_a, _ = run_cli(*args)
        code_b, out_b, _ = run_cli(*args)
        assert code_a == code_b == 0
        assert out_a == out_b  # byte-identical under the same seed
        header = out_a.splitlines()[0].split(",")
        assert header == ["es_n0_db", "group_err", "cw_err", "mlg_bound", "ml_bound"]


class TestTypicality:
    def test_exact_report(self):
        code, out, _ = run_cli(
            "typicality",
            "--dist", str(FIXTURES / "tableI_dist.json"),
            "--partition", str(FIXTURES / "tableI_partition.json"),
            "--n", "6",
            "--eps", "0.3",
        )
        assert code == 0
        got = json.loads(out)
        assert got["n"] == 6 and got["bound_satisfied"]

    def test_sweep_csv(self):
        code, out, _ = run_cli(
            "typicality",
            "--dist", str(FIXTURES / "tableI_dist.json"),
            "--partition", str(FIXTURES / "tableI_partition.json"),
            "--sweep", "2,4,6",
            "--eps", "0.3",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("n,prob_typical")
        assert len(lines) == 4

    def test_overflowing_bracket_exits_4(self, tmp_path):
        """One block over [0.5, 0.3, 0.2] passes both gates at n = 700, but
        2^{n(H - Hs + eps)} is beyond the largest double."""
        dist, part = tmp_path / "dist.json", tmp_path / "part.json"
        dist.write_text(json.dumps({"probs": [0.5, 0.3, 0.2]}))
        part.write_text(json.dumps({"blocks": [[0, 1, 2]]}))
        code, out, err = run_cli(
            "typicality", "--dist", str(dist), "--partition", str(part), "--n", "700", "--eps", "0.1"
        )
        assert code == 4
        assert out == ""
        assert "Traceback" not in err and "overflows" in err

    def test_overflowing_joint_band_exits_4(self):
        """Table II's down companion is negative, so at n = 2000 the encoding
        band's upper edge 2^{-n(down - 3 eps)} is beyond the largest double;
        the call refuses before drawing."""
        code, out, err = run_cli(
            "typicality",
            "--joint", str(FIXTURES / "tableII_joint.json"),
            "--u-partition", str(FIXTURES / "tableIII_u_partition.json"),
            "--v-partition", str(FIXTURES / "tableIII_v_partition.json"),
            "--n", "2000", "--trials", "10", "--eps", "0.1", "--mc-mode", "independent",
        )
        assert code == 4
        assert out == ""
        assert "Traceback" not in err and "overflows" in err

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_joint_n_below_one_exits_2(self, n):
        code, out, err = run_cli(
            "typicality",
            "--joint", str(FIXTURES / "tableII_joint.json"),
            "--n", n,
            "--trials", "100",
            "--mc-mode", "independent",
        )
        assert code == 2
        assert out == ""
        assert "n must be at least 1" in err and "Warning" not in err


class TestGaussian:
    def test_single_value(self):
        code, out, _ = run_cli("gaussian", "--op", "capacity", "--p", "1", "--noise", "1", "--s", "2")
        assert code == 0
        assert json.loads(out)["c_s"] == 2.5

    def test_curve_csv(self):
        code, out, _ = run_cli(
            "gaussian", "--curve", "min_energy_vs_mu", "--s-values", "2,4", "--grid", "0.5,2,4"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "mu,classic,energy_S2,energy_S4"
        assert len(lines) == 5

    def test_cached_parser_keeps_list_defaults(self, tmp_path):
        """The parser is built once per process; no call may leak into the next."""
        from sebits.cli import build_parser, main

        assert build_parser() is build_parser()
        outs = [tmp_path / f"curve_{i}.csv" for i in range(3)]
        curve = ["gaussian", "--curve", "capacity_vs_ebn0"]
        assert main([*curve, "-o", str(outs[0])]) == 0
        assert main([*curve, "--s-values", "2,4", "-o", str(outs[1])]) == 0
        with pytest.raises(SystemExit) as exc:
            main([*curve, "--s-values", "2,x", "-o", str(tmp_path / "never.csv")])
        assert exc.value.code == 2
        assert main([*curve, "-o", str(outs[2])]) == 0
        first, other, last = (p.read_bytes() for p in outs)
        assert first == last
        assert first.splitlines()[0] == b"eb_n0_db,classic,cs_S2,lower_S2"
        assert other.splitlines()[0] == b"eb_n0_db,classic,cs_S2,lower_S2,cs_S4,lower_S4"


class TestSchemaCheck:
    def test_valid_file_empty_report(self):
        code, out, _ = run_cli(
            "schema-check", "--file", str(FIXTURES / "tableI_dist.json"), "--kind", "distribution"
        )
        assert code == 0
        assert json.loads(out)["violations"] == []

    def test_bad_sum_reports_pointer(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"probs": [0.5, 0.6]}))
        code, out, _ = run_cli("schema-check", "--file", str(bad), "--kind", "distribution")
        assert code == 2
        v = json.loads(out)["violations"]
        assert len(v) == 1 and v[0]["pointer"] == "/probs"

    def test_overlapping_partition_pointer(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"blocks": [[0, 1], [1, 2]]}))
        code, out, _ = run_cli("schema-check", "--file", str(bad), "--kind", "partition")
        assert code == 2
        v = json.loads(out)["violations"]
        assert len(v) == 1 and v[0]["pointer"] == "/blocks"

    def test_codebook_kind(self):
        code, out, _ = run_cli(
            "schema-check", "--file", str(FIXTURES / "tableVIII_codebook.json"), "--kind", "codebook"
        )
        assert code == 0
        assert json.loads(out)["violations"] == []
