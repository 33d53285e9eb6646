import json

import pytest

from jurymech.cli import cli_main, read_payment_table, write_payment_table
from jurymech.model import TabulatedPayment


def run(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBestResponse:
    def test_active_case(self, capsys):
        code, out, _ = run(["best-response", "--kind", "well-informed", "--q", "3"], capsys)
        assert code == 0
        assert out.strip() == "lambda=0.405465 beta=1"

    def test_idle_case(self, capsys):
        code, out, _ = run(["best-response", "--kind", "well-informed", "--q", "2"], capsys)
        assert code == 0
        assert out.strip() == "lambda=0.000000 beta=any"

    def test_misinformed(self, capsys):
        code, out, _ = run(["best-response", "--kind", "misinformed", "--q", "3"], capsys)
        assert code == 0
        assert out.strip() == "lambda=0.405465 beta=0"


class TestCheckPayment:
    def test_threshold(self, capsys):
        code, out, _ = run(["check-payment", "--threshold", "3", "--n", "100"], capsys)
        assert code == 0
        assert "simple condition: satisfied" in out
        assert "monotone non-decreasing: yes" in out

    def test_award_loss(self, capsys):
        code, out, _ = run(["check-payment", "--award-loss", "2500", "--n", "101"], capsys)
        assert code == 0
        assert "simple condition: satisfied" in out
        assert "monotone non-decreasing: no" in out

    def test_kleros(self, capsys):
        code, out, _ = run(["check-payment", "--kleros", "1", "2", "--n", "11"], capsys)
        assert code == 0
        assert "simple condition: satisfied" in out


class TestDesign:
    def test_writes_table_and_diagnostics(self, tmp_path, capsys):
        code, out, _ = run(
            ["design", "--n", "11", "--target", "0.75", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        path = tmp_path / "payments-n11-x0.75.csv"
        assert path.exists()
        assert "equilibrium effort: 0.693147" in out
        assert "target advantage: 4.000000" in out
        table = read_payment_table(str(path))
        assert table.jury_size == 11

    def test_table_round_trip(self, tmp_path):
        table = TabulatedPayment(4, (0.0, -1.5, 2.25, 1e-3))
        path = tmp_path / "table.csv"
        write_payment_table(table, str(path))
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "k,p"
        assert read_payment_table(str(path)) == table

    def test_bad_table_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("wrong,header\n1,0.0\n", encoding="utf-8")
        with pytest.raises(ValueError):
            read_payment_table(str(path))

    def test_non_finite_table_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("k,p\n1,0.0\n2,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not finite"):
            read_payment_table(str(path))


class TestFindEq:
    def test_roots_reported(self, capsys):
        code, out, _ = run(["find-eq", "--threshold", "3", "--n", "100"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 1
        assert all(line.startswith("effort=") for line in lines)

    def test_none_found(self, capsys):
        code, out, _ = run(["find-eq", "--threshold", "0.5", "--n", "100"], capsys)
        assert code == 0
        assert out.strip() == "none found"


class TestSimulate:
    def test_stdout_dump(self, capsys):
        args = [
            "simulate", "--threshold", "3", "--n", "20", "--rho", "0.9",
            "--epsilon", "1", "--rounds", "5", "--seed", "7",
        ]
        code, out, err = run(args, capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 6
        assert lines[0].startswith("0,")
        assert all(0 <= int(line.split(",")[1]) <= 20 for line in lines)
        assert "final majority:" in err
        # deterministic repeat
        code2, out2, _ = run(args, capsys)
        assert out2 == out

    def test_out_dir_file(self, tmp_path, capsys):
        args = [
            "simulate", "--threshold", "3", "--n", "10", "--rho", "1.0",
            "--epsilon", "1", "--rounds", "3", "--seed", "1", "--out", str(tmp_path),
        ]
        code, out, _ = run(args, capsys)
        assert code == 0
        dump = (tmp_path / "trajectory.txt").read_text(encoding="utf-8")
        assert len(dump.strip().splitlines()) == 4

    def test_payment_file_size_mismatch(self, tmp_path, capsys):
        table_path = tmp_path / "t.csv"
        write_payment_table(TabulatedPayment(3, (0.0, 1.0, 2.0)), str(table_path))
        args = [
            "simulate", "--payment-file", str(table_path), "--n", "5",
            "--rho", "1.0", "--epsilon", "1", "--rounds", "1",
        ]
        code, _, err = run(args, capsys)
        assert code == 1
        assert "usage error" in err

    def test_missing_payment_file(self, tmp_path, capsys):
        args = [
            "simulate", "--payment-file", str(tmp_path / "nope.csv"), "--n", "5",
            "--rho", "1.0", "--epsilon", "1", "--rounds", "1",
        ]
        code, _, err = run(args, capsys)
        assert code == 2
        assert "error" in err


class TestSweep:
    def tiny_config(self, tmp_path):
        config = {
            "axis": "reward-threshold",
            "x_min": 0.0,
            "x_max": 5.0,
            "x_steps": 3,
            "rho_steps": 3,
            "n": 15,
            "rounds": 3,
            "samples": 2,
            "epsilon": 1.0,
            "omega": 3.0,
            "payment_kind": "threshold",
            "payment_values": None,
            "master_seed": 5,
        }
        path = tmp_path / "tiny.json"
        path.write_text(json.dumps(config), encoding="utf-8")
        return path

    def test_config_sweep_outputs(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        code, out, _ = run(
            ["sweep", "--config", str(config_path), "--out", str(tmp_path)], capsys
        )
        assert code == 0
        csv_text = (tmp_path / "tiny.csv").read_text(encoding="utf-8")
        assert csv_text.splitlines()[0] == "rho,x,correctness"
        assert (tmp_path / "tiny.svg").exists()

    def test_threads_and_reruns_bit_identical(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        outputs = []
        for threads, name in (("1", "a"), ("1", "b"), ("2", "c")):
            out_dir = tmp_path / name
            code, _, _ = run(
                [
                    "sweep", "--config", str(config_path), "--out", str(out_dir),
                    "--threads", threads, "--no-svg",
                ],
                capsys,
            )
            assert code == 0
            outputs.append((out_dir / "tiny.csv").read_bytes())
        assert outputs[0] == outputs[1] == outputs[2]

    def test_seed_override_changes_cells(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        texts = []
        for seed, name in (("5", "x"), ("99", "y")):
            out_dir = tmp_path / name
            code, _, _ = run(
                [
                    "sweep", "--config", str(config_path), "--out", str(out_dir),
                    "--seed", seed, "--no-svg",
                ],
                capsys,
            )
            assert code == 0
            texts.append((out_dir / "tiny.csv").read_text(encoding="utf-8"))
        assert texts[0] != texts[1]

    def test_non_finite_config_value_rejected(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config["epsilon"] = float("nan")
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1 and "usage error" in err
        assert not (out_dir / "tiny.csv").exists()
        assert not (out_dir / "tiny.svg").exists()

    @pytest.mark.parametrize(
        "field, value", [("n", 1.5), ("samples", "2"), ("master_seed", -1)]
    )
    def test_ill_typed_config_value_rejected(self, field, value, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config[field] = value
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1 and err.startswith("usage error:")
        assert not (out_dir / "tiny.csv").exists()
        assert not (out_dir / "tiny.svg").exists()

    def test_table_length_mismatch_rejected(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config.update(
            axis="initial-effort", payment_kind="table", payment_values=[1.0] * 5
        )
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, _, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1 and "usage error" in err
        assert not (out_dir / "tiny.csv").exists()
        assert not (out_dir / "tiny.svg").exists()

    def test_preset_and_config_are_exclusive(self, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        code, _, err = run(
            ["sweep", "--preset", "fig1a-small", "--config", str(config_path)], capsys
        )
        assert code == 1 and "usage error" in err
        code, _, err = run(["sweep"], capsys)
        assert code == 1


class TestExitCodes:
    def test_unknown_flag(self, capsys):
        code, _, err = run(["best-response", "--bogus"], capsys)
        assert code == 1
        assert "usage error" in err

    def test_missing_payment_flag(self, capsys):
        code, _, err = run(["check-payment", "--n", "10"], capsys)
        assert code == 1

    def test_invalid_value(self, capsys):
        args = [
            "simulate", "--threshold", "3", "--n", "10", "--rho", "1.5",
            "--epsilon", "1", "--rounds", "1",
        ]
        code, _, err = run(args, capsys)
        assert code == 1

    @pytest.mark.parametrize(
        "flags",
        [
            ["--threshold", "3", "--epsilon", "nan"],
            ["--threshold", "3", "--epsilon", "inf"],
            ["--threshold", "nan", "--epsilon", "1"],
            ["--award-loss", "inf", "--epsilon", "1"],
            ["--kleros", "1", "-inf", "--epsilon", "1"],
        ],
    )
    def test_non_finite_simulate_value(self, flags, capsys):
        args = ["simulate", *flags, "--n", "10", "--rho", "0.5", "--rounds", "1"]
        code, out, err = run(args, capsys)
        assert code == 1 and "usage error" in err
        assert out == ""

    @pytest.mark.parametrize(
        "args",
        [
            ["best-response", "--kind", "well-informed", "--q", "nan"],
            ["best-response", "--kind", "misinformed", "--q", "inf"],
            ["best-response", "--kind", "well-informed", "--q", "3", "--rate", "inf"],
            ["design", "--n", "11", "--target", "0.75", "--rate", "inf"],
            ["find-eq", "--threshold", "3", "--n", "11", "--rate", "nan"],
        ],
        ids=["q_nan", "q_inf", "br_rate_inf", "design_rate_inf", "find_eq_rate_nan"],
    )
    def test_non_finite_effort_input(self, args, tmp_path, capsys):
        code, out, err = run([*args, "--out", str(tmp_path / "out")], capsys)
        assert code == 1 and "usage error" in err
        assert out == ""
        assert not (tmp_path / "out").exists()
