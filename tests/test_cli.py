"""End-to-end CLI checks: golden fixtures, exit codes, determinism."""

import contextlib
import copy
import csv
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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

    def test_non_integer_partition_index_exits_2(self, tmp_path):
        dist = tmp_path / "d3.json"
        dist.write_text(json.dumps({"probs": [0.25, 0.25, 0.5]}))
        part = tmp_path / "p.json"
        part.write_text(json.dumps({"blocks": [[0, 1.7], [2.9]]}))
        code, out, err = run_cli("measures", "--dist", str(dist), "--partition", str(part))
        assert code == 2
        assert out == ""
        assert "index 1.7 in block 0 is not an integer" in err

    def test_nan_probability_exits_2(self, tmp_path):
        dist = tmp_path / "nan.json"
        dist.write_text('{"probs": [NaN, 0.5, 0.5]}')
        code, out, err = run_cli("measures", "--dist", str(dist))
        assert code == 2
        assert out == ""
        assert "sum to nan" in err

    def test_point_mass_entropy_prints_positive_zero(self, tmp_path):
        dist = tmp_path / "point.json"
        dist.write_text(json.dumps({"probs": [1.0, 0.0]}))
        joint = tmp_path / "joint.json"
        joint.write_text(json.dumps({"matrix": [[0.5, 0.25], [0.25, 0.0]]}))
        one = tmp_path / "one.json"
        one.write_text(json.dumps({"blocks": [[0, 1]]}))
        code, out, _ = run_cli("measures", "--dist", str(dist), "--joint", str(joint),
                               "--u-partition", str(one), "--v-partition", str(one))
        assert code == 0
        assert "-0.0" not in out
        got = json.loads(out)
        assert math.copysign(1.0, got["H"]) == 1.0 and got["H"] == 0.0
        assert got["Hs_u_given_v"] == got["Hs_v_given_u"] == 0.0

    def test_error_json(self, tmp_path):
        code, _, err = run_cli(
            "measures", "--dist", str(tmp_path / "nope.json"), "--error-json"
        )
        assert code == 2
        parsed = json.loads(err)
        assert parsed["exit_code"] == 2

    def test_non_finite_result_raises_instead_of_printing(self, monkeypatch):
        """RFC 8259 has no NaN or Infinity, so printing one would not be JSON."""
        from sebits import gaussian

        monkeypatch.setattr(gaussian, "gaussian_semantic_entropy", lambda noise, s: math.nan)
        with pytest.raises(ValueError, match="not JSON compliant"):
            run_main("gaussian", "--op", "entropy")


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

    @pytest.mark.parametrize("size, arity", [(9, 3), (6, 6)])
    def test_complete_code_kraft_sum_is_exactly_one(self, tmp_path, size, arity):
        # summed in floats, these read 1.0000000000000002 and 0.9999999999999999
        dist = tmp_path / "uniform.json"
        dist.write_text(json.dumps({"probs": [1 / size] * size}))
        code, out, _ = run_cli("huffman", "--dist", str(dist), "--arity", str(arity))
        assert code == 0
        assert json.loads(out)["kraft_sum"] == 1.0

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

    def _encode(self, tmp_path, body):
        """(exit code, stdout, stderr) of `encode` on a symbols file holding `body`."""
        part = ["--partition", str(FIXTURES / "tableVII_partition.json")]
        code_path = tmp_path / "code.json"
        assert run_main("huffman", "--dist", str(FIXTURES / "tableVI_dist.json"), *part, "-o", str(code_path))[0] == 0
        symbols = tmp_path / "symbols.txt"
        symbols.write_bytes(body.encode())
        return run_main("encode", "--code", str(code_path), *part, "--input", str(symbols))

    def test_non_canonical_symbol_spellings_encode_as_canonical(self, tmp_path):
        """Every spelling int() reads (leading zeros, a sign, a non-ASCII digit,
        tabs and CRLF) encodes as the canonical file does."""
        assert self._encode(tmp_path, "003\t+1\r\n\u0663 -0\r\n") == self._encode(tmp_path, "3 1 3 0") == (
            0, "1110110\n", "")

    # exit code and stderr of the int()-per-token reader, recorded before the table lookup replaced it
    @pytest.mark.parametrize("bad, message", [
        ("-1", "symbol index -1 outside [0, 4)"),
        ("4", "symbol index 4 outside [0, 4)"),
        ("1.5", "{path}: symbols must be whitespace-separated integers"),
        ("x", "{path}: symbols must be whitespace-separated integers"),
        ("1" * 31, f"symbol index {'1' * 31} outside [0, 4)"),
    ])
    def test_bad_symbol_exits_2_with_the_int_reader_message(self, tmp_path, bad, message):
        message = message.format(path=tmp_path / "symbols.txt")
        assert self._encode(tmp_path, f"0 {bad} 2\n") == (2, "", f"error: {message}\n")


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

    @pytest.mark.parametrize(
        "weights, values, d_target",
        [
            # every test channel meeting D = 0.8 may send all to one block (I(A;B) = 0)
            ([8, 9, 1, 9], [[0.2, 0.2], [0.3, 0.0], [0.6, 0.2], [0.6, 0.0]], 0.8),
            # the descent reaches rate 0 on one labelling of the four singleton blocks
            ([3, 8, 3, 8], [[0.2, 0.6], [0.5, 0.9], [0.5, 0.9], [0.9, 0.7]], 0.5),
        ],
    )
    def test_zero_rate_prints_exact_zero(self, tmp_path, weights, values, d_target):
        """Four source symbols on four semantic symbols make every source block a
        singleton, where -H(X|X~) is exactly 0; taken as H(X~) - H(X) it printed
        r_s 2.220446049250313e-16 and 4.440892098500626e-16 on these two."""
        dist = tmp_path / "d.json"
        dist.write_text(json.dumps({"probs": [w / sum(weights) for w in weights]}))
        ds = tmp_path / "ds.json"
        ds.write_text(json.dumps({"values": values}))
        code, out, _ = run_cli(
            "rate-distortion", "--dist", str(dist), "--distortion", str(ds), "--d-target", str(d_target)
        )
        assert code == 0
        assert re.search(r'"r_s":0\.0[,}]', out)


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

    def test_degenerate_groups_bound_the_simulated_error(self, tmp_path):
        """Groups with equal sum signals tie on every received vector, so the MLG
        decoder errs on about half of them: the bound counts the pair at distance 0
        and still holds, and the report is strict JSON."""
        codebook = tmp_path / "degenerate.json"
        codebook.write_text(json.dumps({"codewords": ["000", "111", "001", "110"], "groups": [[0, 1], [2, 3]]}))
        code, out, _ = run_cli("chancode", "--codebook", str(codebook), "--es-n0", "1.0")
        assert code == 0

        def no_constant(name):
            raise ValueError(f"non-finite JSON number {name}")

        got = json.loads(out, parse_constant=no_constant)
        assert got["d_gh_min"] == 0.0 and got["mlg_bound"] == 1.0
        trials = 20_000
        code, out, _ = run_cli("simulate", "--codebook", str(codebook), "--es-n0-db", "0,10",
                               "--trials", str(trials), "--seed", "1")
        assert code == 0
        rows = [dict(zip(out.splitlines()[0].split(","), map(float, line.split(","))))
                for line in out.splitlines()[1:]]
        assert len(rows) == 2
        for row in rows:
            p = row["group_err"]
            assert p <= row["mlg_bound"] + 3 * math.sqrt(p * (1 - p) / trials)

    def test_awgn_sweep_script_stdout_is_csv(self, tmp_path):
        """scripts/awgn_sweep.py prints its progress lines on stderr, so stdout is the
        CSV alone, and --output holds the same bytes."""
        script = Path(__file__).resolve().parent.parent / "scripts" / "awgn_sweep.py"
        argv = [sys.executable, str(script), "--trials", "300", "--db-stop", "1", "--db-step", "1"]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0
        rows = list(csv.reader(io.StringIO(proc.stdout)))
        assert rows[0] == ["es_n0_db", "group_err", "cw_err", "ml_group_err", "mlg_bound", "ml_bound"]
        values = [[float(x) for x in row] for row in rows[1:]]  # every cell a number
        assert [row[0] for row in values] == [0.0, 1.0] and all(len(row) == 6 for row in values)
        assert len(proc.stderr.splitlines()) == 2
        out = tmp_path / "sweep.csv"
        assert subprocess.run([*argv, "--output", str(out)], capture_output=True).returncode == 0
        assert out.read_text() == proc.stdout


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

    def test_joint_ln_factorial_table_over_the_cap_exits_4(self):
        """At n = 2^24 the correlated probe's table of ln k! would hold more
        than EXHAUSTIVE_STATE_CAP doubles; the call refuses before building it."""
        code, out, err = run_cli(
            "typicality",
            "--joint", str(FIXTURES / "tableII_joint.json"),
            "--u-partition", str(FIXTURES / "tableIII_u_partition.json"),
            "--v-partition", str(FIXTURES / "tableIII_v_partition.json"),
            "--n", str(2**24), "--trials", "1", "--eps", "0.1",
        )
        assert code == 4
        assert out == ""
        assert "Traceback" not in err and "ln k! table" in err

    @pytest.mark.parametrize("n, trials, eps", [("1000", "1500", "0.02"), ("200", "2000", "0.1")])
    def test_empty_decoding_event_fails_its_band(self, n, trials, eps):
        """On Table II the decoding probe's event is empty at these eps, so the
        estimate is 0 and fails the band's positive lower edge.  At n = 1000
        both printed edges underflow to 0.0; the verdict is decided on the log2
        scale, so it is still false."""
        code, out, err = run_cli(
            "typicality",
            "--joint", str(FIXTURES / "tableII_joint.json"),
            "--u-partition", str(FIXTURES / "tableIII_u_partition.json"),
            "--v-partition", str(FIXTURES / "tableIII_v_partition.json"),
            "--n", n, "--trials", trials, "--eps", eps, "--mc-mode", "independent",
        )
        assert code == 0, err
        rep = json.loads(out)
        assert rep["prob_typical"] == 0.0
        assert rep["bound_satisfied"] is False
        if n == "1000":
            assert rep["lower_bound"] == rep["upper_bound"] == 0.0

    def test_factorial_table_over_the_cap_exits_4(self, tmp_path):
        """One block over [1 - 1e-9, 1e-9] passes the n_sem**n and composition
        gates at n = 16 000; the call refuses before building its table of k!."""
        dist, part = tmp_path / "dist.json", tmp_path / "part.json"
        dist.write_text(json.dumps({"probs": [1 - 1e-9, 1e-9]}))
        part.write_text(json.dumps({"blocks": [[0, 1]]}))
        code, out, err = run_cli(
            "typicality", "--dist", str(dist), "--partition", str(part), "--n", "16000", "--eps", "1e-4"
        )
        assert code == 4
        assert out == ""
        assert "Traceback" not in err and "factorial table" in err

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


NON_FINITE_ARGV = {
    "capacity-tol": ["capacity", "--channel", "ch.json", "--tol", "nan"],
    "rd-d-target": ["rate-distortion", "--dist", "d.json", "--distortion", "ds.json", "--d-target", "nan"],
    "rd-tol": ["rate-distortion", "--dist", "d.json", "--distortion", "ds.json", "--d-target", "0.1",
               "--tol", "inf"],
    "chancode-es-n0": ["chancode", "--codebook", "cb.json", "--es-n0", "nan"],
    "simulate-es-n0-db": ["simulate", "--codebook", "cb.json", "--es-n0-db", "0,nan"],
    "typicality-eps-nan": ["typicality", "--dist", "d.json", "--eps", "nan"],
    "typicality-eps-inf": ["typicality", "--joint", "j.json", "--eps", "inf"],
    "gaussian-p": ["gaussian", "--op", "capacity", "--p", "nan"],
    "gaussian-noise": ["gaussian", "--op", "entropy", "--noise", "inf"],
    "gaussian-bandwidth": ["gaussian", "--op", "bandlimited", "--bandwidth=-inf"],
    "gaussian-s": ["gaussian", "--op", "capacity", "--s", "NaN"],
    "gaussian-mu": ["gaussian", "--op", "min-energy", "--mu", "inf"],
    "gaussian-d-target": ["gaussian", "--op", "rd", "--d-target", "nan"],
    "gaussian-s-values": ["gaussian", "--curve", "capacity_vs_ebn0", "--s-values", "2,Infinity"],
    "gaussian-grid": ["gaussian", "--curve", "capacity_vs_ebn0", "--grid=-2,nan,4"],
}


@pytest.mark.parametrize("argv", NON_FINITE_ARGV.values(), ids=NON_FINITE_ARGV)
def test_non_finite_float_flag_exits_2(argv, capsys):
    """argparse's float takes nan and inf; every float flag refuses them
    before any file is read (so the paths need not exist).  Let through,
    --d-target nan spun for minutes and --es-n0-db nan printed nan rows."""
    from sebits.cli import main

    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "is not a finite number" in err and "Traceback" not in err


def test_no_partition_file_is_the_identity_partition():
    from sebits.cli import load_partition
    from sebits.core import SynonymousPartition

    assert load_partition(None, 5).blocks == SynonymousPartition.identity(5).blocks


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

    @pytest.mark.parametrize("kind,key,value", [
        ("distribution", "probs", "[NaN, 0.5, 0.5]"),
        ("joint", "matrix", "[[0.5, NaN], [0.25, 0.25]]"),
        ("channel", "transition", "[[0.5, NaN], [0.25, 0.75]]"),
    ])
    def test_nan_reports_violation(self, tmp_path, kind, key, value):
        bad = tmp_path / "nan.json"
        bad.write_text(f'{{"{key}": {value}}}')
        code, out, _ = run_cli("schema-check", "--file", str(bad), "--kind", kind)
        assert code == 2
        v = json.loads(out)["violations"]
        assert len(v) == 1 and v[0]["pointer"] == f"/{key}"

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


def run_main(*args):
    """sebits.cli.main in this process: (exit code, stdout, stderr)."""
    from sebits.cli import main

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(args))
    return code, out.getvalue(), err.getvalue()


def _argv(template, file, symbols=""):
    return [a.format(file=file, fixtures=FIXTURES, symbols=symbols) for a in template]


MALFORMED = json.loads((Path(__file__).resolve().parent / "malformed_inputs.json").read_text())


class TestNonConvergenceExit:
    """Exit code 3 when a solver runs out of rounds, with `optimize.MAX_ROUNDS`
    cut to one (in this process, so `run_main` rather than `run_cli`)."""

    @pytest.fixture
    def argv(self, tmp_path, monkeypatch):
        import sebits.optimize as opt
        from test_optimize import SLOW_PLAIN

        monkeypatch.setattr(opt, "MAX_ROUNDS", 1)
        ch, dist, ds = tmp_path / "ch.json", tmp_path / "d.json", tmp_path / "ds.json"
        ch.write_text(json.dumps({"transition": SLOW_PLAIN}))
        dist.write_text(json.dumps({"probs": [0.5, 0.3, 0.2]}))
        ds.write_text(json.dumps({"values": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}))
        return {
            "capacity": ["capacity", "--channel", str(ch)],
            "rate-distortion": [
                "rate-distortion", "--dist", str(dist), "--distortion", str(ds),
                "--reconstruction-size", "4", "--d-target", "0.1",
            ],
        }

    @pytest.mark.parametrize("command", ["capacity", "rate-distortion"])
    def test_exit_3(self, argv, command):
        code, out, err = run_main(*argv[command])
        assert (code, out) == (3, "")
        assert "rounds" in err and "Traceback" not in err
        code, _, err = run_main(*argv[command], "--error-json")
        assert code == 3
        assert '"error":"NonConvergence"' in err and "rounds" in err

    @pytest.mark.parametrize("command", ["capacity", "rate-distortion"])
    @pytest.mark.parametrize("tol", ["0", "-1"])
    def test_tol_not_positive_exits_2(self, argv, command, tol):
        """Refused before any round: a solve that ran would exit 3 here, and
        rate-distortion --tol=-1 ran all of its rounds at the default budget."""
        code, out, err = run_main(*argv[command], f"--tol={tol}")
        assert (code, out) == (2, "")
        assert "tol must be positive" in err and "Traceback" not in err


class TestOneLoaderPerKind:
    """The subcommand that reads a file and `schema-check` run the same loader."""

    @pytest.mark.parametrize(
        "kind,pointer,doc", MALFORMED["cases"], ids=[f"{c[0]}-{i}" for i, c in enumerate(MALFORMED["cases"])]
    )
    def test_same_exit_code_and_pointer(self, tmp_path, kind, pointer, doc):
        f = tmp_path / "input.json"
        f.write_text(json.dumps(doc))
        symbols = tmp_path / "symbols.txt"
        symbols.write_text("0 1 2 3 2 1 0")
        want = 0 if pointer is None else 2
        code, _, err = run_main(*_argv(MALFORMED["commands"][kind], f, symbols), "--error-json")
        assert code == want, err
        if pointer is not None:
            assert json.loads(err)["pointer"] == pointer
        if kind in MALFORMED["schema_kinds"]:
            code, out, _ = run_main("schema-check", "--file", str(f), "--kind", kind)
            assert code == want
            assert [v["pointer"] for v in json.loads(out)["violations"]] == ([] if pointer is None else [pointer])

    @pytest.mark.parametrize("depth", [40, 100_000])
    def test_deep_nesting_exits_2(self, tmp_path, depth):
        """Past numpy's 32 dimensions or the JSON decoder's recursion limit."""
        f = tmp_path / "deep.json"
        f.write_text('{"probs": ' + "[" * depth + "0.5" + "]" * depth + "}")
        assert run_main("measures", "--dist", str(f))[0] == 2
        assert run_main("schema-check", "--file", str(f), "--kind", "distribution")[0] == 2

    def test_schema_kinds_are_the_loaders(self):
        from sebits.cli import LOADERS

        assert sorted(MALFORMED["schema_kinds"]) == sorted(LOADERS)


# document -> (schema kind, the subcommands that read it)
FUZZ_TARGETS = {
    "tableI_dist": ("distribution", [
        ["measures", "--dist", "{file}", "--partition", "{fixtures}/tableI_partition.json"],
        ["huffman", "--dist", "{file}"],
        ["typicality", "--dist", "{file}", "--n", "4"],
    ]),
    "tableVI_dist": ("distribution", [["measures", "--dist", "{file}"]]),
    "tableI_partition": ("partition", [
        ["measures", "--dist", "{fixtures}/tableI_dist.json", "--partition", "{file}"],
        ["huffman", "--dist", "{fixtures}/tableI_dist.json", "--partition", "{file}"],
        ["typicality", "--dist", "{fixtures}/tableI_dist.json", "--partition", "{file}", "--n", "4"],
    ]),
    "tableVII_partition": ("partition", [
        ["huffman", "--dist", "{fixtures}/tableVI_dist.json", "--partition", "{file}"],
    ]),
    "tableIII_u_partition": ("partition", [
        ["measures", "--joint", "{fixtures}/tableII_joint.json", "--u-partition", "{file}"],
    ]),
    "tableIII_v_partition": ("partition", [
        ["typicality", "--joint", "{fixtures}/tableII_joint.json", "--v-partition", "{file}",
         "--n", "3", "--trials", "20"],
    ]),
    "tableII_joint": ("joint", [
        ["measures", "--joint", "{file}"],
        ["typicality", "--joint", "{file}", "--n", "3", "--trials", "20"],
    ]),
    "tableVIII_codebook": ("codebook", [
        ["chancode", "--codebook", "{file}", "--es-n0", "1.0"],
        ["simulate", "--codebook", "{file}", "--es-n0-db", "0", "--trials", "20"],
    ]),
    "channel3": ("channel", [["capacity", "--channel", "{file}"]]),
}
FUZZ_DOCS = {
    name: json.loads((FIXTURES / f"{name}.json").read_text()) for name in FUZZ_TARGETS if name != "channel3"
}
FUZZ_DOCS["channel3"] = {"transition": [[0.8, 0.1, 0.1], [0.1, 0.8, 0.1], [0.1, 0.1, 0.8]]}
_DROP = object()


def _locations(doc, path=()):
    """Every JSON pointer of `doc`, as a tuple of keys and indices, the root first."""
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in children:
        yield from _locations(value, (*path, key))


def _replace(doc, path, value):
    if not path:
        return {} if value is _DROP else value
    doc = copy.deepcopy(doc)
    *head, last = path
    parent = doc
    for key in head:
        parent = parent[key]
    if value is _DROP:
        del parent[last]
    else:
        parent[last] = value
    return doc


@st.composite
def mutated_documents(draw):
    """(name, kind, commands, document): one fixture with one mutation at one location."""
    name = draw(st.sampled_from(sorted(FUZZ_TARGETS)))
    doc = FUZZ_DOCS[name]
    path = draw(st.sampled_from(list(_locations(doc))))
    old = doc
    for key in path:
        old = old[key]
    number = isinstance(old, (int, float)) and not isinstance(old, bool)
    mutation = draw(st.sampled_from(
        ["drop", "wrong type", "non-finite", "bool", "float index", "extra nesting", "top-level array"]
    ))
    if mutation == "top-level array":
        mutated = list(doc.values())
    else:
        new = {
            "drop": _DROP,
            "wrong type": draw(st.sampled_from([1] if isinstance(old, str) else ["1", None, {"a": 1}])),
            "non-finite": draw(st.sampled_from([math.nan, math.inf, -math.inf])),
            "bool": draw(st.booleans()),
            "float index": old + 0.5 if number else 1.5,
            "extra nesting": [old],
        }[mutation]
        mutated = _replace(doc, path, new)
    kind, commands = FUZZ_TARGETS[name]
    return name, kind, commands, mutated


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=400, deadline=None, derandomize=True)
@given(case=mutated_documents())
def test_fuzzed_inputs_exit_cleanly_and_agree_with_schema_check(fuzz_dir, case):
    """Nothing escapes main, and a file schema-check rejects is rejected by every reader."""
    name, kind, commands, doc = case
    f = fuzz_dir / f"{name}.json"
    f.write_text(json.dumps(doc))  # NaN and Infinity as Python's json module writes them
    schema_code, out, _ = run_main("schema-check", "--file", str(f), "--kind", kind)
    assert schema_code in (0, 2)
    assert len(json.loads(out)["violations"]) == schema_code // 2
    for template in commands:
        code, _, err = run_main(*_argv(template, f))
        assert code in (0, 2, 3, 4)
        if schema_code == 2:
            assert code == 2, (template, err)
