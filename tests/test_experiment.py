"""Sweep bookkeeping: row accounting, determinism, spec validation."""

import csv
import json

import numpy as np
import pytest

from fldp import aggregator, experiment, metrics
from fldp.datasets import DatasetSpec, load_stream
from fldp.experiment import (
    RESULT_COLUMNS,
    ExperimentSpec,
    ResultRow,
    estimate_once,
    run_experiment,
)


def _tiny_spec(out_dir, **overrides):
    fields = dict(
        dataset=DatasetSpec(source="zipf", n=3000, domain_size=32, seed=11),
        mechanisms=("fhr",),
        epsilons=(1.0,),
        topk_list=(5,),
        trials=2,
        seed=42,
        output_dir=out_dir,
    )
    fields.update(overrides)
    return ExperimentSpec(**fields)


def _read_rows(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


def _strip_wall_time(rows):
    wall_idx = RESULT_COLUMNS.index("wall_time_ms")
    return [row[:wall_idx] + row[wall_idx + 1 :] for row in rows]


class TestOlhShards:
    def test_rows_do_not_depend_on_the_shard_count(self, tmp_path, monkeypatch):
        # above two minimum shards, so that the tally is split when it may be
        n = 2 * aggregator._MIN_SHARD + 1001
        outputs = []
        tally = aggregator._tally
        for cpus in (1, 3):
            calls = []

            def spy(*args):
                calls.append(args[0].size)
                return tally(*args)

            monkeypatch.setattr(aggregator, "_usable_cpus", lambda: cpus)
            monkeypatch.setattr(aggregator, "_tally", spy)
            out = tmp_path / f"cpus{cpus}"
            spec = _tiny_spec(
                out,
                dataset=DatasetSpec(source="zipf", n=n, domain_size=64, seed=12),
                mechanisms=("olh",),
                epsilons=(1.0, 2.0),
                topk_list=(5, 10),
                trials=2,
            )
            run_experiment(spec)
            assert len(calls) == 4 * min(cpus, 2)  # 2 budgets x 2 trials
            outputs.append(
                (
                    _strip_wall_time(_read_rows(out / "results.csv")),
                    (out / "manifest.json").read_bytes(),
                )
            )
        assert outputs[0] == outputs[1]


class TestRowAccounting:
    def test_two_trials_yield_three_rows_per_cell(self, tmp_path):
        rows = run_experiment(_tiny_spec(tmp_path))
        assert len(rows) == 3
        assert [row.trial for row in rows] == [0, 1, "mean"]
        mean_row = rows[-1]
        assert mean_row.kld == pytest.approx((rows[0].kld + rows[1].kld) / 2)

    def test_header_schema(self, tmp_path):
        run_experiment(_tiny_spec(tmp_path))
        header = _read_rows(tmp_path / "results.csv")[0]
        assert header == list(RESULT_COLUMNS)
        assert header == [
            "mechanism", "epsilon", "k", "trial", "kld", "re", "se", "ncr",
            "wall_time_ms", "report_bits",
        ]

    def test_full_grid_row_count(self, tmp_path):
        spec = _tiny_spec(
            tmp_path,
            mechanisms=("fhr", "grr"),
            epsilons=(0.5, 1.0),
            topk_list=(5, 10),
            trials=3,
        )
        rows = run_experiment(spec)
        # 2 mechanisms x 2 epsilons x 2 k x (3 trials + 1 mean)
        assert len(rows) == 2 * 2 * 2 * 4


class TestDeterminism:
    def test_identical_specs_identical_outputs(self, tmp_path):
        run_experiment(_tiny_spec(tmp_path / "a", mechanisms=("fhr", "olh")))
        run_experiment(_tiny_spec(tmp_path / "b", mechanisms=("fhr", "olh")))
        rows_a = _read_rows(tmp_path / "a" / "results.csv")
        rows_b = _read_rows(tmp_path / "b" / "results.csv")
        assert _strip_wall_time(rows_a) == _strip_wall_time(rows_b)
        manifest_a = (tmp_path / "a" / "manifest.json").read_bytes()
        manifest_b = (tmp_path / "b" / "manifest.json").read_bytes()
        assert manifest_a == manifest_b

    def test_different_seed_changes_metrics(self, tmp_path):
        run_experiment(_tiny_spec(tmp_path / "a"))
        run_experiment(_tiny_spec(tmp_path / "b", seed=43))
        rows_a = _read_rows(tmp_path / "a" / "results.csv")
        rows_b = _read_rows(tmp_path / "b" / "results.csv")
        assert _strip_wall_time(rows_a) != _strip_wall_time(rows_b)

    def test_cell_order_does_not_leak_randomness(self, tmp_path):
        # a cell's stream is keyed by (mechanism index, budget position,
        # trial), not by what ran before it: moving a budget from position 0
        # to position 1 changes its draws
        single = run_experiment(_tiny_spec(tmp_path / "a", epsilons=(1.0,)))
        double = run_experiment(_tiny_spec(tmp_path / "b", epsilons=(0.5, 1.0)))
        singles = {(r.mechanism, r.epsilon, r.k, r.trial): r.kld for r in single}
        doubles = {(r.mechanism, r.epsilon, r.k, r.trial): r.kld for r in double}
        key = ("fhr", 1.0, 5, 0)
        assert doubles[key] != singles[key]
        # reusing the position, with another budget after it, reproduces them
        third = run_experiment(_tiny_spec(tmp_path / "c", epsilons=(1.0, 2.0)))
        thirds = {(r.mechanism, r.epsilon, r.k, r.trial): r.kld for r in third}
        assert thirds[key] == singles[key]


class TestDegenerateDomain:
    def test_domain_of_two_completes_with_finite_metrics(self, tmp_path):
        spec = _tiny_spec(
            tmp_path,
            dataset=DatasetSpec(source="zipf", n=2000, domain_size=2, seed=3),
            mechanisms=("fhr", "grr", "oue", "rappor", "olh"),
            topk_list=(2,),
        )
        rows = run_experiment(spec)
        for row in rows:
            assert np.isfinite([row.kld, row.re, row.se, row.ncr]).all()

    def test_one_item_domain_rejected_before_any_perturbation(self, tmp_path, monkeypatch):
        # FHR's, the unary encodings' and OLH's params all accept one item
        def estimate_once_must_not_run(*args):
            raise AssertionError("estimate_once ran")

        monkeypatch.setattr(experiment, "estimate_once", estimate_once_must_not_run)
        data = tmp_path / "one.csv"
        data.write_text("a\na\na\n", encoding="utf-8")
        spec = _tiny_spec(
            tmp_path / "out",
            dataset=DatasetSpec(source="csv", path=str(data)),
            mechanisms=("fhr", "oue", "rappor", "olh"),
            topk_list=(1,),
        )
        with pytest.raises(ValueError, match="^domain must have at least 2 items, got 1$"):
            run_experiment(spec)
        assert not (tmp_path / "out").exists()


class TestTooFewPresentItems:
    """200 Zipf draws over 1023 items (seed 0) hit only 55 distinct items."""

    @staticmethod
    def _spec(tmp_path, topk):
        dataset = DatasetSpec(source="zipf", n=200, domain_size=1023, seed=0)
        return _tiny_spec(tmp_path, dataset=dataset, topk_list=topk)

    def test_rejected_before_any_perturbation(self, tmp_path, monkeypatch):
        def estimate_once_must_not_run(*args):
            raise AssertionError("estimate_once ran")

        monkeypatch.setattr(experiment, "estimate_once", estimate_once_must_not_run)
        with pytest.raises(ValueError, match=r"k=100 needs 100 items .* only 55 of its 1023"):
            run_experiment(self._spec(tmp_path, (5, 100)))
        assert list(tmp_path.iterdir()) == []

    def test_k_equal_to_the_present_count_runs(self, tmp_path):
        rows = run_experiment(self._spec(tmp_path, (55,)))
        assert len(rows) == 3


class TestDegenerateBudget:
    def test_rejected_before_any_perturbation(self, tmp_path, monkeypatch):
        # FHR inverts at 1e-10, GRR's p and q agree to within rounding there
        def estimate_once_must_not_run(*args):
            raise AssertionError("estimate_once ran")

        monkeypatch.setattr(experiment, "estimate_once", estimate_once_must_not_run)
        with pytest.raises(ValueError, match="degenerate parameters"):
            run_experiment(_tiny_spec(tmp_path, mechanisms=("fhr", "grr"), epsilons=(1e-10,)))
        assert list(tmp_path.iterdir()) == []


class TestScores:
    def test_kld_smooths_by_a_tenth_of_a_count(self, tmp_path, monkeypatch):
        # run_experiment leaves kld its default smoothing, 1/(10 * sum of
        # truth), which is 1/(10 n) to the last bit
        captured = []

        def capture(*args):
            estimates = estimate_once(*args)
            captured.append(estimates)
            return estimates

        monkeypatch.setattr(experiment, "estimate_once", capture)
        spec = _tiny_spec(tmp_path, mechanisms=("fhr", "oue"), topk_list=(5, 10))
        rows = run_experiment(spec)
        truth = load_stream(spec.dataset).ground_truth.astype(np.float64)
        trial_rows = [row for row in rows if row.trial != "mean"]
        assert len(trial_rows) == 2 * len(captured) == 8
        for i, row in enumerate(trial_rows):
            estimates = captured[i // 2]
            expected = metrics.kld(
                truth, estimates, metrics.top_k(truth, row.k), smoothing=1 / (10 * 3000)
            )
            assert row.kld == expected


class TestSpecValidation:
    def test_unknown_mechanism(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, mechanisms=("fhr", "shr"))

    def test_duplicate_mechanism(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, mechanisms=("fhr", "fhr"))

    def test_empty_epsilons(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, epsilons=())

    def test_nonpositive_epsilon(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, epsilons=(1.0, 0.0))

    def test_zero_trials(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, trials=0)

    def test_bad_k(self, tmp_path):
        with pytest.raises(ValueError):
            _tiny_spec(tmp_path, topk_list=(5, 0))

    def test_duplicate_epsilon(self, tmp_path):
        # budgets compare as floats, so 1 and 1.0 are one budget
        with pytest.raises(ValueError, match="epsilons must be unique"):
            _tiny_spec(tmp_path, epsilons=(1.0, 2.0, 1.0))
        with pytest.raises(ValueError, match="epsilons must be unique"):
            _tiny_spec(tmp_path, epsilons=(1, 1.0))

    def test_duplicate_k(self, tmp_path):
        with pytest.raises(ValueError, match="k values must be unique"):
            _tiny_spec(tmp_path, topk_list=(5, 10, 5))

    def test_estimate_once_unknown_mechanism(self):
        with pytest.raises(ValueError, match="^unknown mechanism 'shr'"):
            estimate_once("shr", np.array([0]), 4, 1.0, np.random.default_rng(0))

    @pytest.mark.parametrize("eps", [0.5, 1.0, 4.0])
    def test_grr_estimates_total_the_report_count(self, eps):
        # every GRR report is one value, so inverting the tally with the
        # report count n gives estimates that sum to n
        items = np.random.default_rng(5).integers(0, 63, size=10_000)
        estimates = estimate_once("grr", items, 63, eps, np.random.default_rng(6))
        assert estimates.sum() == pytest.approx(items.size, rel=1e-12)


class TestManifest:
    def test_resolved_parameters_recorded(self, tmp_path):
        run_experiment(_tiny_spec(tmp_path))
        manifest = json.loads((tmp_path / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["ncr_scoring"] == "membership"
        assert manifest["trials"] == 2
        assert manifest["seed"] == 42
        assert manifest["mechanisms"] == ["fhr"]
        assert manifest["epsilons"] == [1.0]
        assert manifest["dataset"]["n"] == 3000
        assert manifest["dataset"]["domain_size"] == 32
        assert manifest["report_bits"]["fhr"]["1.0"] == 13


class TestAtomicOutputs:
    """A run that fails while writing leaves the previous outputs intact."""

    def test_results_csv_survives_a_failing_row(self, tmp_path, monkeypatch):
        run_experiment(_tiny_spec(tmp_path))
        previous = (tmp_path / "results.csv").read_bytes()
        real_record = ResultRow.as_record
        calls = []

        def failing_record(row):
            calls.append(row)
            if len(calls) == 2:  # the header and one row are already written
                raise RuntimeError("row failed")
            return real_record(row)

        monkeypatch.setattr(ResultRow, "as_record", failing_record)
        with pytest.raises(RuntimeError, match="row failed"):
            run_experiment(_tiny_spec(tmp_path, seed=43))
        assert (tmp_path / "results.csv").read_bytes() == previous
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "results.csv"]

    def test_manifest_survives_a_failing_dump(self, tmp_path, monkeypatch):
        # results.csv is written first, yet it must not replace the old
        # file beside the old manifest
        run_experiment(_tiny_spec(tmp_path))
        previous = (tmp_path / "manifest.json").read_bytes()
        previous_results = (tmp_path / "results.csv").read_bytes()

        def failing_dump(obj, handle, **kwargs):
            handle.write('{"dataset": ')
            raise RuntimeError("dump failed")

        monkeypatch.setattr(json, "dump", failing_dump)
        with pytest.raises(RuntimeError, match="dump failed"):
            run_experiment(_tiny_spec(tmp_path, trials=3))
        assert (tmp_path / "manifest.json").read_bytes() == previous
        assert (tmp_path / "results.csv").read_bytes() == previous_results
        assert sorted(p.name for p in tmp_path.iterdir()) == ["manifest.json", "results.csv"]
