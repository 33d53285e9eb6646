import json
import math
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import jurymech
from jurymech.cli import cli_main, read_payment_table, write_payment_table
from jurymech.dynamics import RoundState, SimulationConfig
from jurymech.model import TabulatedPayment


def run(args, capsys):
    code = cli_main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_python(*args, timeout=120):
    """A fresh interpreter that imports the jurymech these tests import."""
    root = str(Path(jurymech.__file__).parents[1])
    path = os.pathsep.join(filter(None, [root, os.environ.get("PYTHONPATH")]))
    # the warning policy pytest applies in-process (pyproject filterwarnings)
    env = {**os.environ, "PYTHONPATH": path, "PYTHONWARNINGS": "error::RuntimeWarning"}
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=timeout
    )


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

    def test_huge_rate(self, capsys):
        args = ["best-response", "--kind", "well-informed", "--q", "3", "--rate", "1e308"]
        assert run(args, capsys) == (0, "lambda=0.000000 beta=1\n", "")

    @pytest.mark.parametrize(
        "q,line",
        [("-1e3", "lambda=6.214608 beta=0"), ("-1.5e-2", "lambda=0.000000 beta=any")],
    )
    def test_negative_advantage_in_exponent_notation(self, q, line, capsys):
        # argparse reads only "-5" and "-.5" as negative numbers by default
        code, out, _ = run(["best-response", "--kind", "well-informed", "--q", q], capsys)
        assert code == 0
        assert out.strip() == line


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

    def test_violation_names_the_falling_rows(self, capsys):
        # at even n the advantage of fig1b's payment falls only at the tie row
        code, out, _ = run(["check-payment", "--award-loss", "1", "--n", "100"], capsys)
        assert code == 0
        assert out == (
            "simple condition: violated\n"
            "  advantage falls from m=49 to m=50 by 0.0007843137254901975\n"
            "monotone non-decreasing: no\n"
        )


class TestDesign:
    def test_writes_table_and_diagnostics(self, tmp_path, capsys):
        code, out, _ = run(
            ["design", "--n", "11", "--target", "0.75", "--out", str(tmp_path)], capsys
        )
        assert code == 0
        path = tmp_path / "payments-n11-x0.75.csv"
        assert path.exists()
        assert "equilibrium effort: 0.6931471805599453\n" in out
        assert "target advantage: 4.0\n" in out
        table = read_payment_table(str(path))
        assert table.jury_size == 11

    def test_file_name_is_the_exact_target(self, tmp_path, capsys):
        # rounded to 6 significant digits, these would write "x1" and "x0.75"
        targets = ["0.75", "0.75000001", "0.9999999"]
        for target in targets:
            code, out, _ = run(
                ["design", "--n", "11", "--target", target, "--out", str(tmp_path)], capsys
            )
            assert code == 0
            assert f"payments-n11-x{target}.csv" in out
        names = sorted(path.name for path in tmp_path.iterdir())
        assert names == [f"payments-n11-x{target}.csv" for target in targets]

    @pytest.mark.parametrize(
        "flags,cost",
        [
            (["--n", "101", "--target", "0.51"], "1.078871886716475"),
            (["--n", "51", "--target", "0.75"], "3.000000000872658"),
            (["--n", "201", "--target", "0.75"], "3.000000000000108"),
            (["--n", "2001", "--target", "0.6"], "1.4999999999999993"),
            (["--n", "11", "--target", "0.75", "--lower-bound", "-1e3"], "-996.9999322585015"),
            (["--n", "11", "--target", "0.75", "--lower-bound", "-1.5e-2"],
             "2.9850677414984417"),
            # individual rationality binds: the cost is the equilibrium effort
            (["--n", "11", "--target", "0.75", "--lower-bound", "-1e3",
              "--individual-rationality"], "0.6931471805599454"),
        ],
        # each case is named by its cost to 6 decimals
        ids=lambda value: f"{float(value):.6f}" if isinstance(value, str) else None,
    )
    def test_expected_cost(self, flags, cost, tmp_path, capsys):
        code, out, _ = run(["design", *flags, "--out", str(tmp_path)], capsys)
        assert code == 0
        assert f"expected per-juror cost: {cost}\n" in out

    def test_tiny_rate_prints_short_numbers(self, tmp_path, capsys):
        # each number is printed as its repr, not as 300 digits to 6 decimals
        code, out, _ = run(
            ["design", "--n", "11", "--target", "0.75", "--rate", "1e-305",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 0
        assert out.splitlines()[1:] == [
            "equilibrium effort: 6.931471805599453e+304",
            "target advantage: 4e+305",
            "expected per-juror cost: 3.0000677414984417e+305",
        ]

    def test_unanchored_design_is_a_solver_failure(self, tmp_path, capsys):
        code, _, err = run(
            ["design", "--n", "11", "--target", "0.75", "--lower-bound=-inf",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "unbounded" in err

    def test_negative_infinite_lower_bound_is_a_value(self, tmp_path, capsys):
        code, _, err = run(
            ["design", "--n", "11", "--target", "0.75", "--lower-bound", "-inf",
             "--out", str(tmp_path)],
            capsys,
        )
        assert code == 2
        assert "unbounded" in err

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
        # and the rows must count k = 1, 2, ... without a gap
        path.write_text("k,p\n1,0.0\n3,1.0\n", encoding="utf-8")
        with pytest.raises(ValueError, match="expected row k=2, got k=3"):
            read_payment_table(str(path))

    def test_non_finite_table_value(self, tmp_path):
        path = tmp_path / "nan.csv"
        path.write_text("k,p\n1,0.0\n2,nan\n", encoding="utf-8")
        with pytest.raises(ValueError, match="not finite"):
            read_payment_table(str(path))


class TestFindEq:
    def test_designed_payment_file(self, tmp_path, capsys):
        # a designed table read back from its CSV, by find-eq and check-payment;
        # at n = 1001 the payments reach 3e300: g * g would overflow in a sign test
        for n, target, effort in [("11", "0.75", "0.693147"), ("1001", "0.501", "0.002002")]:
            code, _, _ = run(
                ["design", "--n", n, "--target", target, "--out", str(tmp_path)], capsys
            )
            assert code == 0
            table_path = str(tmp_path / f"payments-n{n}-x{target}.csv")
            code, out, _ = run(["find-eq", "--payment-file", table_path, "--n", n], capsys)
            assert code == 0
            assert f"effort={effort}" in out
            code, out, _ = run(
                ["check-payment", "--payment-file", table_path, "--n", n], capsys
            )
            assert code == 0
            assert "simple condition: satisfied" in out
            assert "monotone non-decreasing: yes" in out

    def test_roots_reported(self, capsys):
        code, out, _ = run(["find-eq", "--threshold", "3", "--n", "100"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) >= 1
        assert all(line.startswith("effort=") for line in lines)

    @pytest.mark.parametrize(
        "threshold, low_root",
        [
            ("1e5", 2.5641961692969925e-06),
            ("1e6", 2.5641872920691904e-07),
            ("8265958.738801813", 3.1021040606686445e-08),
        ],
    )
    def test_steep_low_root_printed_in_full(self, threshold, low_root, capsys):
        # six decimals printed the low root at 1e5 as 0.000003; at 1e6 and
        # 8265958.7 the search used to drop it
        code, out, _ = run(["find-eq", "--threshold", threshold, "--n", "100"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        effort = float(lines[-1].split()[0].removeprefix("effort="))
        assert effort == pytest.approx(low_root, rel=1e-12, abs=0.0)

    def test_quality_rounding_to_one(self, capsys):
        # at rate 50 the signal quality is exactly 1.0 from effort ~0.736 on
        code, out, _ = run(
            ["find-eq", "--threshold", "3", "--n", "100", "--rate", "50"], capsys
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 2
        assert all(line.startswith("effort=") for line in lines)

    def test_none_found(self, capsys):
        code, out, _ = run(["find-eq", "--threshold", "0.5", "--n", "100"], capsys)
        assert code == 0
        assert out.strip() == "none found"
        # 20 / rate overflows; the scan runs in unit-rate effort, which has no such bound
        args = ["find-eq", "--threshold", "3", "--n", "100", "--rate", "1e-308"]
        assert run(args, capsys) == (0, "none found\n", "")


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

    def test_rounds_too_many_for_memory(self, monkeypatch, capsys):
        # 10 jurors over 10**15 + 1 rounds are past the draw budget, refused
        # before the record is allocated; the guard stops rounds recorded
        # one by one
        built = []

        def guarded_state(*counts):
            built.append(counts)
            assert len(built) < 1000, "rounds are run before the record is allocated"
            return RoundState(*counts)

        monkeypatch.setattr("jurymech.dynamics.RoundState", guarded_state)
        args = [
            "simulate", "--threshold", "3", "--n", "10", "--rho", "0.5",
            "--epsilon", "1", "--rounds", str(10**15),
        ]
        code, out, err = run(args, capsys)
        assert (code, out) == (1, "")
        assert err == (
            "usage error: 1 configs x 1 samples x 10 jurors x 1000000000000001 rounds "
            "are 10000000000000010 juror-draws, past the budget of 10000000000\n"
        )
        assert built == []

    @pytest.mark.parametrize(
        "command, flags",
        [
            ("simulate", ["--rho", "1.0", "--epsilon", "1", "--rounds", "1"]),
            ("find-eq", []),
            ("check-payment", []),
        ],
        ids=["simulate", "find-eq", "check-payment"],
    )
    def test_payment_file_size_mismatch(self, command, flags, tmp_path, capsys):
        # the table itself refuses a query at any other jury size
        table_path = tmp_path / "t.csv"
        write_payment_table(TabulatedPayment(3, (0.0, 1.0, 2.0)), str(table_path))
        args = [command, "--payment-file", str(table_path), "--n", "5", *flags]
        code, out, err = run(args, capsys)
        assert (code, out) == (1, "")
        assert err == "usage error: table is for jury size 3, queried with n=5\n"

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
                    "--threads", threads,
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
                    "--seed", seed,
                ],
                capsys,
            )
            assert code == 0
            texts.append((out_dir / "tiny.csv").read_text(encoding="utf-8"))
        assert texts[0] != texts[1]

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 1.5),
            ("samples", "2"),
            ("master_seed", -1),
            ("x_max", "1"),
            ("epsilon", None),
            ("payment_values", 5),
            ("payment_values", [None]),
            ("axis", 5),
            ("axis", None),
        ],
    )
    def test_ill_typed_config_value_rejected(self, field, value, tmp_path, capsys):
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config[field] = value
        self.assert_config_rejected(config, config_path, capsys)

    def test_empty_config_rejected(self, tmp_path, capsys):
        self.assert_config_rejected({}, tmp_path / "tiny.json", capsys)

    def assert_config_rejected(self, config, config_path, capsys):
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = config_path.parent / "out"
        code, _, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert code == 1 and err.startswith("usage error:") and err.count("\n") == 1
        assert "Traceback" not in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("threads", ["1", "2"])
    def test_rounds_past_the_draw_budget(self, threads, tmp_path, monkeypatch, capsys):
        # 9 cells x 2 samples x 10 jurors x (10**15 + 1) rounds are 1.8e17
        # juror-draws, decided on the whole grid before a batch runs; the
        # guard stops a run that starts anyway
        def no_batch(*args):
            raise AssertionError("a batch ran past the draw budget")

        monkeypatch.setattr("jurymech.dynamics._run_batch", no_batch)
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config.update(n=10, rounds=10**15)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        started = time.perf_counter()
        code, out, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir),
             "--threads", threads],
            capsys,
        )
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (1, "")
        assert err == (
            "usage error: 9 configs x 2 samples x 10 jurors x 1000000000000001 rounds "
            "are 180000000000000180 juror-draws, past the budget of 10000000000\n"
        )
        assert not out_dir.exists()

    def test_grid_too_big_for_memory(self, tmp_path, monkeypatch, capsys):
        # 10**7 x 10**7 cells are 10**14, past the draw budget, so the config
        # is refused before the grid's seed array (each axis alone is 80 MB)
        # is allocated; the guard stops cells built one by one
        built = []

        def guarded_cell(**fields):
            built.append(fields)
            assert len(built) < 100, "cells are built before the grid is allocated"
            return SimulationConfig(**fields)

        monkeypatch.setattr("jurymech.sweep.SimulationConfig", guarded_cell)
        config_path = self.tiny_config(tmp_path)
        config = json.loads(config_path.read_text(encoding="utf-8"))
        config.update(x_steps=10**7, rho_steps=10**7)
        config_path.write_text(json.dumps(config), encoding="utf-8")
        out_dir = tmp_path / "out"
        code, out, err = run(
            ["sweep", "--config", str(config_path), "--out", str(out_dir)], capsys
        )
        assert (code, out) == (1, "")
        assert err == (
            "usage error: 100000000000000 configs x 2 samples x 15 jurors x 4 rounds "
            "are 12000000000000000 juror-draws, past the budget of 10000000000\n"
        )
        assert built == []
        assert not out_dir.exists()

    def test_seed_past_64_bits_rejected(self, tmp_path, capsys):
        out_dir = tmp_path / "out"
        args = ["sweep", "--preset", "fig1a-small", "--seed", str(2**64), "--out", str(out_dir)]
        code, out, err = run(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert "master_seed" in err
        assert not out_dir.exists()

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

    VALID = {
        "best-response": ["--kind", "well-informed", "--q", "3"],
        "check-payment": ["--threshold", "3", "--n", "11"],
        "find-eq": ["--threshold", "3", "--n", "11"],
        "design": ["--n", "11", "--target", "0.75", "--out", "out"],
        "simulate": [
            "--threshold", "3", "--n", "10", "--rho", "1.0", "--epsilon", "1",
            "--rounds", "1",
        ],
        "sweep": ["--preset", "fig1a-small", "--out", "out"],
    }

    @pytest.mark.parametrize(
        "command, flag",
        [
            (command, flag)
            for command, flags in [
                ("best-response", ["--seed", "--config", "--out", "--threads"]),
                ("check-payment", ["--seed", "--config", "--out", "--threads"]),
                ("find-eq", ["--seed", "--config", "--out", "--threads"]),
                # no --monotone: the cheapest table is already nondecreasing
                ("design", ["--seed", "--config", "--threads", "--monotone"]),
                # the trajectory dump goes to stdout only
                ("simulate", ["--config", "--threads", "--out"]),
                # a sweep always writes its CSV and its SVG heatmap
                ("sweep", ["--no-svg"]),
            ]
            for flag in flags
        ],
    )
    def test_flag_the_command_does_not_read(
        self, command, flag, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.chdir(tmp_path)
        value = {"--seed": ["4"], "--config": ["nope.json"], "--out": ["out"], "--threads": ["8"]}
        code, out, err = run([command, *self.VALID[command], flag, *value.get(flag, [])], capsys)
        assert code == 1 and "usage error" in err and flag in err
        assert out == ""
        assert not (tmp_path / "out").exists()

    # every command that reads --n, with the other flags it needs
    JURY_SIZED = [
        ("check-payment", ["--threshold", "3"]),
        ("find-eq", ["--threshold", "3"]),
        ("simulate", ["--threshold", "3", "--rho", "0.5", "--epsilon", "1", "--rounds", "1"]),
        ("design", ["--target", "0.75", "--out", "out"]),
    ]

    @pytest.mark.parametrize("command, flags", JURY_SIZED)
    def test_jury_too_big_for_memory(self, command, flags, tmp_path, monkeypatch, capsys):
        # 10**17 floats are 711 PiB, past any address space, so the first
        # array of that length fails to allocate and nothing is allocated;
        # find-eq and design refuse it earlier, by their work budget, and
        # simulate by its draw budget; the guard stops a table built term
        # by term before it is allocated
        lgamma = math.lgamma
        calls = []

        def guarded_lgamma(x):
            calls.append(x)
            assert len(calls) < 100, "a jury-sized table is built before it is allocated"
            return lgamma(x)

        monkeypatch.setattr(math, "lgamma", guarded_lgamma)
        monkeypatch.chdir(tmp_path)
        code, out, err = run([command, *flags, "--n", str(10**17)], capsys)
        assert (code, out) == (1, "")
        budgeted = {"find-eq": "symmetric-equilibrium search", "design": "payment design"}
        if command in budgeted:
            assert err.startswith(f"usage error: {budgeted[command]} at n={10**17} computes ")
        elif command == "simulate":
            assert err == (
                f"usage error: 1 configs x 1 samples x {10**17} jurors x 2 rounds "
                f"are {2 * 10**17} juror-draws, past the budget of 10000000000\n"
            )
        else:
            assert err.startswith("usage error: Unable to allocate")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("command, flags", JURY_SIZED)
    def test_jury_size_past_an_array_index(self, command, flags, tmp_path, monkeypatch, capsys):
        # 10**20 does not fit numpy's signed 64-bit sizes and indices
        monkeypatch.chdir(tmp_path)
        code, out, err = run([command, *flags, "--n", str(10**20)], capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error:") and err.count("\n") == 1
        assert not (tmp_path / "out").exists()

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
        "command, flags",
        [
            ("find-eq", []),
            ("check-payment", []),
            ("simulate", ["--rho", "0.5", "--epsilon", "1", "--rounds", "1"]),
        ],
        ids=["find-eq", "check-payment", "simulate"],
    )
    def test_overflowing_vote_advantage(self, command, flags, capsys):
        # -1.7e308 - 1.7e308 / 2 overflows; no answer comes from an inf or NaN g
        args = [command, "--kleros", "1.7e308", "1.7e308", "--n", "3", *flags]
        code, out, err = run(args, capsys)
        assert (code, out) == (1, "")
        assert err.startswith("usage error: vote advantage overflows") and err.count("\n") == 1

    @pytest.mark.parametrize(
        "args, message",
        [
            (["best-response", "--kind", "well-informed", "--q", "nan"], "argument --q:"),
            (["best-response", "--kind", "misinformed", "--q", "inf"], "argument --q:"),
            (["best-response", "--kind", "well-informed", "--q", "-inf"], "argument --q:"),
            (["best-response", "--kind", "well-informed", "--q", "3", "--rate", "inf"],
             "argument --rate:"),
            (["design", "--n", "11", "--target", "0.75", "--rate", "inf", "--out", "out"],
             "argument --rate:"),
            (["find-eq", "--threshold", "3", "--n", "11", "--rate", "nan"], "argument --rate:"),
            # a finite rate so small that the target's effort would overflow to inf
            (["design", "--n", "11", "--target", "0.75", "--rate", "1e-320", "--out", "out"],
             "rate 1e-320 leaves quality 0.75 no finite effort"),
        ],
        ids=[
            "q_nan", "q_inf", "q_minus_inf", "br_rate_inf", "design_rate_inf",
            "find_eq_rate_nan", "design_rate_tiny",
        ],
    )
    def test_non_finite_effort_input(self, args, message, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        code, out, err = run(args, capsys)
        assert code == 1 and "usage error" in err
        assert message in err
        assert out == ""
        assert not (tmp_path / "out").exists()


class TestFreshInterpreter:
    def test_import_leaves_the_solver_unloaded(self):
        # the simplex is a leaf that the package does not load
        code = "import sys, jurymech; print(jurymech.__file__, 'jurymech.simplex' in sys.modules)"
        proc = run_python("-c", code)
        assert (proc.returncode, proc.stdout) == (0, f"{jurymech.__file__} False\n"), proc.stderr

    @pytest.mark.parametrize(
        "args, code, out, err",
        [
            (["best-response", "--kind", "well-informed", "--q", "3"], 0,
             "lambda=0.405465 beta=1\n", ""),
            (["find-eq", "--n", "100", "--threshold", "3.3", "--threads", "2"], 1,
             "", "usage error: unrecognized arguments: --threads 2\n"),
        ],
        ids=["success", "usage_error"],
    )
    def test_module_entry_point(self, args, code, out, err):
        # main() and the __main__ guard, with the exit code sys.exit gives
        proc = run_python("-m", "jurymech.cli", *args)
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out, err)

    @pytest.mark.parametrize(
        "args, err",
        [
            (["design", "--n", "100000000", "--target", "0.75"],
             "payment design at n=100000000 computes 200000000"),
            (["find-eq", "--threshold", "3", "--n", "100000000"],
             "symmetric-equilibrium search at n=100000000 computes 10001000100000000"),
        ],
        ids=["design", "find-eq"],
    )
    def test_work_past_the_budget_fails_fast(self, args, err, tmp_path):
        # without the work budget both run until killed; with it the
        # interpreter, its imports included, exits within the 1 s timeout
        out = ["--out", str(tmp_path)] if args[0] == "design" else []
        proc = run_python("-m", "jurymech.cli", *args, *out, timeout=1.0)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"usage error: {err} log-factorials, binomial weights and PMF cells, "
            "past the budget of 20000000\n"
        )

    @pytest.mark.parametrize(
        "args, err",
        [
            (["sweep", "--config", "big.json", "--out", "out"],
             "1000000 configs x 20 samples x 100 jurors x 51 rounds are 102000000000"),
            (["simulate", "--threshold", "3", "--n", "100", "--rho", "0.9",
              "--epsilon", "1", "--rounds", "200000000"],
             "1 configs x 1 samples x 100 jurors x 200000001 rounds are 20000000100"),
        ],
        ids=["sweep", "simulate"],
    )
    def test_draws_past_the_budget_fail_fast(self, args, err, tmp_path):
        # without the draw budget in the config the 1000 x 1000 sweep builds
        # its million cells before it is refused (about 8 s), and the
        # simulation runs until killed; with it both exit within the 1 s
        # timeout, the interpreter's imports included
        config = {"axis": "reward-threshold", "x_min": 0.0, "x_max": 5.0,
                  "x_steps": 1000, "rho_steps": 1000}
        (tmp_path / "big.json").write_text(json.dumps(config), encoding="utf-8")
        args = [str(tmp_path / a) if a in ("big.json", "out") else a for a in args]
        proc = run_python("-m", "jurymech.cli", *args, timeout=1.0)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == (
            f"usage error: {err} juror-draws, past the budget of 10000000000\n"
        )
        assert not (tmp_path / "out").exists()


def test_readme_library_sketch_runs():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Library sketch\n", 1)[1]
    sketch = section.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(sketch, "README.md (Library sketch)", "exec"), {})
