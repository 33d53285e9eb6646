import math

import numpy as np
import pytest

from jurymech.dynamics import batch_cells, correctness_estimate
from jurymech.model import AwardLossSharingPayment, TabulatedPayment, ThresholdPayment
from jurymech.sweep import (
    PRESETS,
    Axis,
    SweepConfig,
    config_from_json,
    config_to_json,
    run_sweep,
    write_csv,
)

TINY = SweepConfig(
    axis=Axis.REWARD_THRESHOLD,
    x_min=0.0,
    x_max=5.0,
    x_steps=3,
    rho_steps=3,
    n=20,
    rounds=4,
    samples=3,
    master_seed=11,
)


class TestSweepConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SweepConfig(axis=Axis.REWARD_THRESHOLD, x_min=2.0, x_max=1.0)
        with pytest.raises(ValueError):
            SweepConfig(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0, x_steps=1)
        with pytest.raises(ValueError):
            SweepConfig(axis=Axis.INITIAL_EFFORT, x_min=-1.0, x_max=1.0)
        with pytest.raises(ValueError):
            SweepConfig(
                axis=Axis.INITIAL_EFFORT, x_min=0.0, x_max=1.0, payment_kind="table"
            )
        with pytest.raises(ValueError):
            SweepConfig(
                axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0, payment_kind="bogus"
            )

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["x_min", "x_max", "epsilon", "omega", "payment_values"]
    )
    def test_non_finite_values_rejected(self, field, value):
        kwargs = dict(
            axis=Axis.INITIAL_EFFORT,
            x_min=0.0,
            x_max=1.0,
            n=2,
            payment_kind="table",
            payment_values=(1.0, 2.0),
        )
        kwargs[field] = (1.0, value) if field == "payment_values" else value
        with pytest.raises(ValueError):
            SweepConfig(**kwargs)

    @pytest.mark.parametrize(
        "field, value",
        [
            ("n", 1.5),
            ("samples", "2"),
            ("x_steps", 3.0),
            ("rho_steps", True),
            ("rounds", None),
            ("master_seed", 0.5),
            ("master_seed", -1),
        ],
    )
    def test_ill_typed_values_rejected(self, field, value):
        kwargs = dict(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SweepConfig(**kwargs)

    def test_table_length_must_match_jury_size(self):
        # Fails at construction, before a sweep starts any worker.
        with pytest.raises(ValueError, match="one entry per juror"):
            SweepConfig(
                axis=Axis.INITIAL_EFFORT,
                x_min=0.0,
                x_max=1.0,
                n=100,
                payment_kind="table",
                payment_values=(1.0,) * 5,
            )

    def test_axis_accepts_value_strings(self):
        cfg = SweepConfig(axis="reward-award-loss", x_min=0.0, x_max=10.0)
        assert cfg.axis is Axis.REWARD_AWARD_LOSS

    def test_grid_endpoints(self):
        assert TINY.rho_values() == pytest.approx([0.0, 0.5, 1.0])
        assert TINY.x_values() == pytest.approx([0.0, 2.5, 5.0])

    def test_cell_simulation_per_axis(self):
        sim = TINY.cell_simulation(1, 2)
        assert sim.payment == ThresholdPayment(5.0)
        assert sim.rho == 0.5 and sim.epsilon == TINY.epsilon

        award = SweepConfig(axis=Axis.REWARD_AWARD_LOSS, x_min=0.0, x_max=100.0, x_steps=2)
        assert award.cell_simulation(0, 1).payment == AwardLossSharingPayment(100.0)

        effort = SweepConfig(
            axis=Axis.INITIAL_EFFORT, x_min=0.0, x_max=2.0, x_steps=3, omega=4.0
        )
        sim = effort.cell_simulation(0, 2)
        assert sim.payment == ThresholdPayment(4.0)
        assert sim.epsilon == 2.0

        table = SweepConfig(
            axis=Axis.INITIAL_EFFORT,
            x_min=0.0,
            x_max=2.0,
            n=5,
            payment_kind="table",
            payment_values=(0.0, 0.0, 1.0, 2.0, 3.0),
        )
        assert table.cell_simulation(0, 0).payment == TabulatedPayment(
            5, (0.0, 0.0, 1.0, 2.0, 3.0)
        )

    def test_cell_seeds_differ(self):
        seeds = {
            TINY.cell_simulation(i, j).seed
            for i in range(TINY.rho_steps)
            for j in range(TINY.x_steps)
        }
        assert len(seeds) == TINY.rho_steps * TINY.x_steps


class TestRunSweep:
    def test_shape_and_range(self):
        result = run_sweep(TINY)
        assert result.grid.shape == (3, 3)
        assert np.all(result.grid >= 0.0) and np.all(result.grid <= 1.0)
        assert result.elapsed_seconds > 0.0

    def test_thread_count_does_not_change_values(self):
        serial = run_sweep(TINY, threads=1)
        parallel = run_sweep(TINY, threads=2)
        assert np.array_equal(serial.grid, parallel.grid)

    def test_batches_match_single_cells(self):
        # 21 cells in batches of 4: the last batch holds one cell
        grid = SweepConfig(
            axis=Axis.REWARD_THRESHOLD,
            x_min=0.0,
            x_max=5.0,
            x_steps=7,
            rho_steps=3,
            n=100,
            rounds=4,
            samples=20,
            master_seed=2**40 + 1,
        )
        assert batch_cells(grid.n, grid.samples) == 4
        assert grid.cell_simulations() == [
            grid.cell_simulation(i, j) for i in range(3) for j in range(7)
        ]
        serial = run_sweep(grid, threads=1)
        parallel = run_sweep(grid, threads=2)
        assert serial.grid.tobytes() == parallel.grid.tobytes()
        cells = [
            [correctness_estimate(grid.cell_simulation(i, j), grid.samples) for j in range(7)]
            for i in range(3)
        ]
        assert serial.grid.tobytes() == np.array(cells).tobytes()

    def test_thread_validation(self):
        with pytest.raises(ValueError):
            run_sweep(TINY, threads=0)

    @pytest.mark.parametrize("threads", [2.5, True, "2", None])
    def test_ill_typed_thread_count_rejected(self, threads):
        with pytest.raises(ValueError, match="threads"):
            run_sweep(TINY, threads=threads)


class TestCsv:
    def test_layout(self, tmp_path):
        result = run_sweep(TINY)
        path = tmp_path / "grid.csv"
        write_csv(result, str(path))
        lines = path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "rho,x,correctness"
        assert len(lines) == 1 + 9
        assert lines[1].startswith("0.000000,0.000000,")
        # rho-major: the first three rows share rho = 0
        assert [ln.split(",")[0] for ln in lines[1:4]] == ["0.000000"] * 3
        assert [ln.split(",")[1] for ln in lines[1:4]] == [
            "0.000000",
            "2.500000",
            "5.000000",
        ]

    def test_round_trip_at_written_precision(self, tmp_path):
        result = run_sweep(TINY)
        path = tmp_path / "grid.csv"
        write_csv(result, str(path))
        rows = [
            line.split(",")
            for line in path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        parsed = np.array([float(r[2]) for r in rows]).reshape(3, 3)
        assert np.array_equal(parsed, np.round(result.grid, 4))


class TestConfigJson:
    def test_round_trip_identity(self):
        for cfg in (TINY, PRESETS["fig1b"], PRESETS["fig1c-small"]):
            assert config_from_json(config_to_json(cfg)) == cfg

    def test_round_trip_with_table(self):
        cfg = SweepConfig(
            axis=Axis.INITIAL_EFFORT,
            x_min=0.0,
            x_max=1.0,
            n=3,
            payment_kind="table",
            payment_values=(0.5, 1.5, 2.5),
        )
        assert config_from_json(config_to_json(cfg)) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown sweep config keys"):
            config_from_json('{"axis": "reward-threshold", "x_min": 0, "x_max": 1, "xsteps": 5}')

    def test_non_object_rejected(self):
        with pytest.raises(ValueError):
            config_from_json("[1, 2, 3]")


class TestPresets:
    def test_full_presets_match_experiment_settings(self):
        for name, axis, x_max in (
            ("fig1a", Axis.REWARD_THRESHOLD, 5.0),
            ("fig1b", Axis.REWARD_AWARD_LOSS, 2500.0),
            ("fig1c", Axis.INITIAL_EFFORT, 5.0),
        ):
            cfg = PRESETS[name]
            assert cfg.axis is axis
            assert (cfg.x_min, cfg.x_max) == (0.0, x_max)
            assert cfg.x_steps == 100 and cfg.rho_steps == 100
            assert cfg.n == 100 and cfg.rounds == 50 and cfg.samples == 20
        assert PRESETS["fig1a"].epsilon == 1.0
        assert PRESETS["fig1b"].epsilon == 1.0
        assert PRESETS["fig1c"].omega == 3.0

    def test_small_presets_shrink_grid_only(self):
        for name in ("fig1a-small", "fig1b-small", "fig1c-small"):
            small = PRESETS[name]
            full = PRESETS[name.removesuffix("-small")]
            assert (small.x_steps, small.rho_steps, small.samples) == (20, 20, 10)
            assert (small.n, small.rounds) == (full.n, full.rounds)
            assert (small.x_min, small.x_max, small.axis) == (
                full.x_min,
                full.x_max,
                full.axis,
            )
