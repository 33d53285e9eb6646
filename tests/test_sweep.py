import dataclasses
import math
import multiprocessing
import os

import numpy as np
import pytest

from jurymech._seeding import grid_seeds
from jurymech.dynamics import (
    batch_cells,
    correctness_estimate,
    correctness_estimates,
    derive_seed,
)
from jurymech.model import AwardLossSharingPayment, TabulatedPayment, ThresholdPayment
from jurymech.payment_design import design_payments
from jurymech.sweep import (
    PRESETS,
    Axis,
    SweepConfig,
    config_from_json,
    config_to_json,
    run_sweep,
    write_csv,
)

_CALLER = os.getpid()


def _fail_in_caller(configs, samples):
    """correctness_estimates, except that in this process it fails and
    names how many worker processes are alive beside it (module level, so
    that a pool can pickle it)."""
    if os.getpid() == _CALLER:
        workers = len(multiprocessing.active_children())
        raise RuntimeError(f"the caller's task failed beside {workers} workers")
    return correctness_estimates(configs, samples)


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
        for field in ("n", "rounds", "samples"):
            with pytest.raises(ValueError, match=">= 1"):
                SweepConfig(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0, **{field: 0})
        with pytest.raises(ValueError, match="epsilon must be non-negative"):
            SweepConfig(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0, epsilon=-1.0)

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
            ("master_seed", 2**64),
            ("x_min", False),
            ("x_max", True),
            ("epsilon", True),
            ("omega", False),
        ],
    )
    def test_ill_typed_values_rejected(self, field, value):
        kwargs = dict(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0)
        kwargs[field] = value
        with pytest.raises(ValueError, match=field):
            SweepConfig(**kwargs)

    def test_draw_budget_is_checked_when_built(self, monkeypatch):
        # 10 cells x 1 sample x 1 juror x 10**9 rounds are the budget itself
        def no_grid(*args):
            raise AssertionError("a grid was seeded while a config was built")

        monkeypatch.setattr("jurymech._seeding.grid_seeds", no_grid)
        small = dict(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0, n=1, samples=1)
        SweepConfig(**small, rho_steps=2, x_steps=5, rounds=10**9 - 1)
        with pytest.raises(ValueError, match=" 10000000010 juror-draws, past the budget"):
            SweepConfig(**small, rho_steps=2, x_steps=5, rounds=10**9)
        # a 30000 x 30000 grid would first ask for 3.35 GiB of uint32 seed words
        with pytest.raises(ValueError) as err:
            SweepConfig(axis=Axis.REWARD_THRESHOLD, x_min=0.0, x_max=1.0,
                        rho_steps=30000, x_steps=30000)
        assert str(err.value) == (
            "900000000 configs x 20 samples x 100 jurors x 51 rounds are "
            "91800000000000 juror-draws, past the budget of 10000000000"
        )

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

    @pytest.mark.parametrize(
        "axis, kind, values",
        [
            (Axis.REWARD_THRESHOLD, "table", (1.0, 2.0)),
            (Axis.INITIAL_EFFORT, "threshold", (1.0, 2.0)),
            (Axis.INITIAL_EFFORT, "award-loss", (1.0, 2.0)),
            (Axis.REWARD_THRESHOLD, "award-loss", None),
            (Axis.REWARD_AWARD_LOSS, "award-loss", None),
        ],
    )
    def test_unused_payment_settings_rejected(self, axis, kind, values):
        # a reward axis builds its own payment, and only a table reads values
        with pytest.raises(ValueError, match="payment"):
            SweepConfig(
                axis=axis, x_min=0.0, x_max=1.0, n=2, payment_kind=kind,
                payment_values=values,
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
        award_effort = dataclasses.replace(effort, payment_kind="award-loss")
        assert award_effort.cell_simulation(0, 2).payment == AwardLossSharingPayment(4.0)

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

    @pytest.mark.parametrize("master", [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1])
    def test_grid_seeds_match_derive_seed(self, master):
        seeds = grid_seeds(master, 3, 5)
        assert seeds.dtype == np.uint64 and seeds.shape == (3, 5)
        assert seeds.tolist() == [[derive_seed(master, i, j) for j in range(5)] for i in range(3)]

    def test_grid_seeds_reject_an_index_of_two_words(self):
        # SeedSequence would take such an index as two words
        with pytest.raises(ValueError, match="2\\*\\*32"):
            grid_seeds(0, 2, 2**32 + 1)

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

    @pytest.fixture
    def batches_of_four(self, monkeypatch):
        """Batches of 4 cells at n = 100 and 20 samples, the sizes the tests
        below count, whatever _BATCH_DRAWS is tuned to."""
        monkeypatch.setattr("jurymech.dynamics._BATCH_DRAWS", 2**13)

    def test_batches_match_single_cells(self, batches_of_four):
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
        serial = run_sweep(grid, threads=1)
        parallel = run_sweep(grid, threads=2)
        assert serial.grid.tobytes() == parallel.grid.tobytes()
        cells = [
            [correctness_estimate(grid.cell_simulation(i, j), grid.samples) for j in range(7)]
            for i in range(3)
        ]
        assert serial.grid.tobytes() == np.array(cells).tobytes()

    @pytest.mark.parametrize("master", [2**40 + 1, 7])
    @pytest.mark.parametrize(
        "axis, kind",
        [
            (Axis.REWARD_THRESHOLD, "threshold"),
            (Axis.REWARD_AWARD_LOSS, "threshold"),
            (Axis.INITIAL_EFFORT, "threshold"),
            (Axis.INITIAL_EFFORT, "award-loss"),
            (Axis.INITIAL_EFFORT, "table"),
        ],
    )
    def test_cell_simulations_match_single_cells(self, axis, kind, master):
        # every branch of the column plan, with a master seed of two
        # SeedSequence words and one of one word
        grid = SweepConfig(
            axis=axis,
            x_min=0.0,
            x_max=5.0,
            x_steps=7,
            rho_steps=3,
            n=100,
            rounds=4,
            samples=20,
            payment_kind=kind,
            payment_values=tuple(range(100)) if kind == "table" else None,
            master_seed=master,
        )
        assert grid.cell_simulations() == [
            grid.cell_simulation(i, j) for i in range(3) for j in range(7)
        ]

    @pytest.fixture
    def serial_pool(self, monkeypatch):
        """A stand-in pool that records its size and maps in this process at
        once, and a record of every correctness_estimates call run_sweep
        makes, in call order: the pool's tasks, then this process's own.
        Returns (sizes, tasks)."""
        sizes, tasks = [], []

        def recording(configs, samples):
            tasks.append(configs)
            return correctness_estimates(configs, samples)

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)
                self.max_workers = max_workers

            def __enter__(self):
                return self

            def __exit__(self, *exc_info):
                return False

            def map(self, fn, iterable, chunksize=1):
                mapped = list(iterable)
                # one task per pool worker
                assert len(mapped) == self.max_workers
                return [fn(task) for task in mapped]

        monkeypatch.setattr("jurymech.sweep.ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr("jurymech.sweep.correctness_estimates", recording)
        return sizes, tasks

    @staticmethod
    def assert_whole_batch_runs(grid: SweepConfig, tasks: list) -> None:
        """The tasks are runs of whole batches, the last possibly ending in a
        partial one, and together they are every cell in order."""
        size = batch_cells(grid.n, grid.samples)
        cells = grid.cell_simulations()
        assert [cell for task in tasks for cell in task] == cells
        starts = np.cumsum([0] + [len(task) for task in tasks])
        assert all(start % size == 0 for start in starts[:-1])
        assert all(len(task) > 0 for task in tasks)

    @pytest.mark.parametrize("rho_steps, batches", [(2, 1), (6, 3)])
    def test_pool_has_no_more_workers_than_batches(
        self, rho_steps, batches, serial_pool, batches_of_four
    ):
        sizes, tasks = serial_pool
        grid = dataclasses.replace(TINY, x_steps=2, rho_steps=rho_steps, n=100, samples=20)
        assert math.ceil(2 * rho_steps / batch_cells(grid.n, grid.samples)) == batches
        serial = run_sweep(grid, threads=1)
        # one worker runs every cell in this process, with no pool
        assert sizes == [] and tasks == [grid.cell_simulations()]
        tasks.clear()
        pooled = run_sweep(grid, threads=64)
        # one batch runs inline, with no pool at all; more take a pool of
        # one worker fewer, this process being the last
        assert sizes == ([] if batches == 1 else [batches - 1])
        assert pooled.grid.tobytes() == serial.grid.tobytes()
        # one task per worker, each a run of whole batches
        assert len(tasks) == sum(sizes) + 1
        self.assert_whole_batch_runs(grid, tasks)

    def test_uneven_split_gives_one_task_per_worker(self, serial_pool, batches_of_four):
        sizes, tasks = serial_pool
        # 15 cells in batches of 4 (the last holds 3) over 3 workers
        grid = dataclasses.replace(TINY, x_steps=3, rho_steps=5, n=100, samples=20)
        assert batch_cells(grid.n, grid.samples) == 4
        serial = run_sweep(grid, threads=1)
        tasks.clear()
        pooled = run_sweep(grid, threads=3)
        # a pool of two runs 4 and 4 cells; this process runs the last 7
        assert sizes == [2]
        assert [len(task) for task in tasks] == [4, 4, 7]
        self.assert_whole_batch_runs(grid, tasks)
        assert pooled.grid.tobytes() == serial.grid.tobytes()

    @pytest.mark.parametrize("threads, forked", [(2, 1), (64, 2)])
    def test_error_in_own_task_propagates(self, threads, forked, monkeypatch, batches_of_four):
        # 3 batches: min(threads, 3) workers, this process and the forked ones
        grid = dataclasses.replace(TINY, x_steps=2, rho_steps=6, n=100, samples=20)
        monkeypatch.setattr("jurymech.sweep.correctness_estimates", _fail_in_caller)
        with pytest.raises(RuntimeError, match=f"task failed beside {forked} workers$"):
            run_sweep(grid, threads=threads)
        # the pool's worker has finished and been joined
        assert multiprocessing.active_children() == []

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

    def test_numpy_integer_counts_are_stored_as_int(self):
        # counts read from numpy arrays are stored as the plain ints that
        # json can write, and every entry point takes them
        counts = ("x_steps", "rho_steps", "n", "rounds", "samples", "master_seed")
        cfg = dataclasses.replace(TINY, **{k: np.int64(getattr(TINY, k)) for k in counts})
        assert config_to_json(cfg) == config_to_json(TINY)
        assert config_from_json(config_to_json(cfg)) == TINY
        assert all(type(getattr(cfg, k)) is int for k in counts)
        cell = TINY.cell_simulation(1, 2)
        wide = dataclasses.replace(
            cell, n=np.int64(cell.n), rounds=np.int32(cell.rounds), seed=np.uint64(cell.seed)
        )
        assert all(type(getattr(wide, k)) is int for k in ("n", "rounds", "seed"))
        assert correctness_estimate(wide, np.int64(3)) == correctness_estimate(cell, 3)
        assert np.array_equal(run_sweep(cfg, threads=np.int64(1)).grid, run_sweep(TINY).grid)
        assert type(design_payments(np.int64(11), 0.75).payment.jury_size) is int

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
