"""Command line surface: exit codes, artifact files, printed output."""

import csv
import dataclasses
import json
import math
import re
import sys

import pytest

import fldp.cli as cli
from fldp import verifier
from fldp.mechanisms import MECHANISMS
from fldp.verifier import FldpCertificate


def _run(argv):
    return cli.main(argv)


def _read_file(path):
    return path.read_bytes()


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert _run([]) == 1
        capsys.readouterr()

    def test_unknown_subcommand(self, capsys):
        assert _run(["frobnicate"]) == 1
        capsys.readouterr()

    def test_bad_mechanism_choice(self, capsys):
        assert _run(["verify-fldp", "shr", "--epsilon", "1.0", "--order", "8"]) == 1
        capsys.readouterr()

    def test_bad_epsilon_value(self, capsys, tmp_path):
        code = _run([
            "run", "--mechanisms", "fhr", "--epsilons", "0.0",
            "--trials", "1", "--topk", "5",
            "--zipf-n", "100", "--zipf-d", "8",
            "--out", str(tmp_path),
        ])
        assert code == 1
        capsys.readouterr()

    @pytest.mark.parametrize(
        "argv",
        [
            ["size-table", "15", "--epsilon", "inf"],
            ["size-table", "15", "--epsilon", "1e308"],
            ["verify-fldp", "fhr", "--order", "8", "--epsilon", "1e308"],
            ["run", "--epsilons", "1000", "--trials", "1", "--topk", "5",
             "--zipf-n", "100", "--zipf-d", "8"],
        ],
    )
    def test_budget_with_overflowing_exponential_is_a_usage_error(
        self, argv, capsys, tmp_path
    ):
        out = [] if argv[0] == "size-table" else ["--out", str(tmp_path)]
        assert _run(argv + out) == 1
        err = capsys.readouterr().err
        assert err.startswith("fldp: epsilon must lie in")
        assert "Traceback" not in err
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "argv",
        [
            ["size-table", "15", "--epsilon", "1e-17"],
            ["verify-fldp", "fhr", "--order", "8", "--epsilon", "1e-17"],
            ["run", "--epsilons", "1e-17", "--trials", "1", "--topk", "5",
             "--zipf-n", "100", "--zipf-d", "8"],
        ],
    )
    def test_budget_whose_exponential_rounds_to_one_is_a_usage_error(
        self, argv, capsys, tmp_path
    ):
        out = [] if argv[0] == "size-table" else ["--out", str(tmp_path)]
        assert _run(argv + out) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith("fldp: epsilon must lie in")
        assert printed.err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["run", "gen-data"])
    def test_dataset_flag_is_unrecognized(self, tmp_path, capsys, command):
        data = tmp_path / "input.csv"
        data.write_text("apple\npear\n", encoding="utf-8")
        out = tmp_path / "out"
        argv = [command, "--dataset", "csv", "--csv", str(data), "--out", str(out)]
        assert _run(argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        usage, error = printed.err.splitlines()
        assert usage.startswith("usage: fldp ")
        assert error == "fldp: error: unrecognized arguments: --dataset csv"
        assert not out.exists()


class TestRejectedBeforeWork:
    _RUN = ["run", "--trials", "1", "--zipf-n", "2000", "--zipf-d", "16"]

    @pytest.mark.parametrize(
        "argv,message",
        [
            (_RUN + ["--mechanisms", "fhr,grr", "--epsilons", "1e-10", "--topk", "5"],
             "degenerate parameters"),
            (["verify-fldp", "grr", "--order", "4", "--epsilon", "1e-10"],
             "degenerate parameters"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1,1", "--topk", "5"],
             "epsilons must be unique"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1", "--topk", "5,5"],
             "k values must be unique"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1,x", "--topk", "5"],
             "bad float list '1,x'"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1", "--topk", "5,y"],
             "bad integer list '5,y'"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1", "--topk", "1",
                     "--zipf-exponent", "inf"],
             "zipf exponent must be finite and exceed 1, got inf"),
            (["verify-fldp", "grr", "--order", "1", "--epsilon", "1.0"],
             "domain must have at least 2 items, got 1"),
            (["gen-data", "--csv", ""], "csv source requires a CSV file path, got ''"),
            (["run", "--csv", "", "--mechanisms", "fhr", "--epsilons", "1", "--topk", "1",
              "--trials", "1"],
             "csv source requires a CSV file path, got ''"),
            (_RUN + ["--mechanisms", ",", "--epsilons", "1", "--topk", "5"],
             "need at least one mechanism"),
            (_RUN + ["--mechanisms", "fhr", "--epsilons", "1", "--topk", ","],
             "need at least one k"),
        ],
    )
    def test_one_usage_line_and_nothing_written(self, argv, message, capsys, tmp_path):
        assert _run(argv + ["--out", str(tmp_path)]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"fldp: {message}")
        assert printed.err.count("\n") == 1
        assert not any(tmp_path.iterdir())

    def test_non_utf8_csv_names_the_file(self, capsys, tmp_path):
        data = tmp_path / "bad.csv"
        data.write_bytes(b"a\n\xff\nb\n")
        out = tmp_path / "out"
        argv = ["run", "--csv", str(data), "--mechanisms", "fhr",
                "--epsilons", "1", "--topk", "1", "--trials", "1", "--out", str(out)]
        assert _run(argv) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err.startswith(f"fldp: {data}: not UTF-8 text")
        assert printed.err.count("\n") == 1
        assert not out.exists()
        assert [p.name for p in tmp_path.iterdir()] == ["bad.csv"]


class TestOutOfMemory:
    # numpy's message for --zipf-n 1000000000000; the allocation itself is
    # never attempted here, only its MemoryError is raised
    _NUMPY = (
        "Unable to allocate 7.28 TiB for an array with shape (1000000000000,) "
        "and data type int64"
    )

    @pytest.mark.parametrize(
        "module, argv",
        [
            ("fldp.cli", ["gen-data"]),
            ("fldp.experiment", ["run", "--mechanisms", "fhr", "--epsilons", "1",
                                 "--topk", "5", "--trials", "1"]),
        ],
    )
    @pytest.mark.parametrize(
        "error, message",
        [
            (MemoryError(_NUMPY), f"fldp: out of memory: {_NUMPY}\n"),
            (MemoryError(), "fldp: out of memory\n"),
        ],
    )
    def test_one_line_and_exit_one(
        self, module, argv, error, message, capsys, tmp_path, monkeypatch
    ):
        def exhausted(spec):
            raise error

        monkeypatch.setattr(f"{module}.load_stream", exhausted)
        out = tmp_path / "out"
        assert _run(argv + ["--zipf-n", "1000000000000", "--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert printed.err == message
        assert not out.exists()


class TestGenData:
    def test_writes_dataset_and_ground_truth(self, tmp_path, capsys):
        code = _run([
            "gen-data", "--zipf-n", "500", "--zipf-d", "16",
            "--seed", "7", "--out", str(tmp_path),
        ])
        assert code == 0
        assert (tmp_path / "dataset.csv").exists()
        assert (tmp_path / "ground_truth.csv").exists()
        with open(tmp_path / "dataset.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        assert len(rows) == 500
        with open(tmp_path / "ground_truth.csv", newline="", encoding="utf-8") as handle:
            truth = list(csv.reader(handle))
        assert truth[0] == ["item", "count"]
        assert sum(int(row[1]) for row in truth[1:]) == 500
        capsys.readouterr()

    def test_deterministic_for_fixed_seed(self, tmp_path, capsys):
        for name in ("a", "b"):
            code = _run([
                "gen-data", "--zipf-n", "300", "--zipf-d", "8",
                "--seed", "5", "--out", str(tmp_path / name),
            ])
            assert code == 0
        assert _read_file(tmp_path / "a" / "dataset.csv") == _read_file(
            tmp_path / "b" / "dataset.csv"
        )
        assert _read_file(tmp_path / "a" / "ground_truth.csv") == _read_file(
            tmp_path / "b" / "ground_truth.csv"
        )
        capsys.readouterr()

    def test_csv_input_writes_the_files_rows(self, tmp_path, capsys):
        data = tmp_path / "input.csv"
        data.write_text("apple\npear\napple\nfig\n", encoding="utf-8")
        out = tmp_path / "out"
        assert _run(["gen-data", "--csv", str(data), "--out", str(out)]) == 0
        assert capsys.readouterr().out.startswith(f"wrote 4 records over 3 items to {out}")
        with open(out / "dataset.csv", newline="", encoding="utf-8") as handle:
            assert list(csv.reader(handle)) == [["apple"], ["pear"], ["apple"], ["fig"]]
        with open(out / "ground_truth.csv", newline="", encoding="utf-8") as handle:
            truth = {row[0]: row[1] for row in list(csv.reader(handle))[1:]}
        assert truth == {"apple": "2", "pear": "1", "fig": "1"}

    def test_zero_users_rejected(self, tmp_path, capsys):
        code = _run([
            "gen-data", "--zipf-n", "0", "--zipf-d", "8", "--out", str(tmp_path),
        ])
        assert code == 1
        capsys.readouterr()


class TestRun:
    def test_tiny_sweep_writes_artifacts(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = _run([
            "run", "--mechanisms", "fhr,grr", "--epsilons", "0.5,1.0",
            "--trials", "2", "--topk", "5",
            "--zipf-n", "2000", "--zipf-d", "16", "--seed", "9",
            "--out", str(out),
        ])
        assert code == 0
        assert (out / "results.csv").exists()
        assert (out / "manifest.json").exists()
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.reader(handle))
        # header + 2 mech x 2 eps x 1 k x (2 trials + mean)
        assert len(rows) == 1 + 2 * 2 * 3
        capsys.readouterr()

    def test_rerun_reproduces_results(self, tmp_path, capsys):
        argv_base = [
            "run", "--mechanisms", "fhr", "--epsilons", "1.0",
            "--trials", "2", "--topk", "5",
            "--zipf-n", "1000", "--zipf-d", "8", "--seed", "4",
        ]
        for name in ("a", "b"):
            assert _run(argv_base + ["--out", str(tmp_path / name)]) == 0
        manifest_a = _read_file(tmp_path / "a" / "manifest.json")
        manifest_b = _read_file(tmp_path / "b" / "manifest.json")
        assert manifest_a == manifest_b
        capsys.readouterr()

    def test_csv_dataset_input(self, tmp_path, capsys):
        data = tmp_path / "input.csv"
        data.write_text("\n".join(["apple"] * 30 + ["pear"] * 10) + "\n", encoding="utf-8")
        out = tmp_path / "sweep"
        code = _run([
            "run", "--csv", str(data),
            "--mechanisms", "fhr", "--epsilons", "1.0",
            "--trials", "1", "--topk", "2", "--out", str(out),
        ])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
        assert manifest["dataset"]["source"] == "csv"
        assert manifest["dataset"]["n"] == 40
        assert manifest["dataset"]["domain_size"] == 2
        capsys.readouterr()

    def test_spaced_mechanism_list_runs_each_mechanism(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = _run([
            "run", "--mechanisms", " fhr, grr ", "--epsilons", "1.0, 2.0",
            "--topk", "2, 3", "--trials", "1",
            "--zipf-n", "500", "--zipf-d", "8", "--out", str(out),
        ])
        assert code == 0
        capsys.readouterr()
        with open(out / "results.csv", newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        assert {row["mechanism"] for row in rows} == {"fhr", "grr"}
        assert {row["epsilon"] for row in rows} == {"1.0", "2.0"}
        assert {row["k"] for row in rows} == {"2", "3"}

    def test_oversized_csv_field_exits_one(self, tmp_path, capsys):
        data = tmp_path / "big.csv"
        data.write_text("apple\n" + "x" * 200_000 + "\npear\n", encoding="utf-8")
        code = _run([
            "run", "--csv", str(data),
            "--mechanisms", "fhr", "--epsilons", "1.0",
            "--trials", "1", "--topk", "2", "--out", str(tmp_path / "sweep"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert err.startswith("fldp: ")
        assert "big.csv:2: field larger than field limit" in err

    def test_missing_csv_path(self, tmp_path, capsys):
        code = _run([
            "run", "--mechanisms", "fhr", "--epsilons", "1.0",
            "--trials", "1", "--topk", "2", "--out", str(tmp_path), "--csv",
        ])
        assert code == 1
        printed = capsys.readouterr()
        assert printed.out == ""
        assert "argument --csv: expected one argument" in printed.err
        assert not any(tmp_path.iterdir())

    def test_k_beyond_present_items_exits_one(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code = _run([
            "run", "--zipf-n", "200", "--zipf-d", "1023", "--mechanisms", "fhr",
            "--epsilons", "1.0", "--topk", "100", "--trials", "1", "--out", str(out),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert "k=100 needs 100 items that occur in the stream" in err
        assert "only 55 of its 1023 items" in err
        assert not out.exists()


class TestVerifyFldp:
    def test_fhr_certificate_passes(self, tmp_path, capsys):
        code = _run([
            "verify-fldp", "fhr", "--epsilon", "1.0", "--order", "8",
            "--out", str(tmp_path),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "PASS" in printed
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        assert document["passed"] is True
        assert document["eta_observed"] == 0.5
        assert abs(document["epsilon_effective"] - 1.0) <= 1e-9

    @pytest.mark.parametrize("eps", ["40", "80"])
    def test_rappor_passes_at_large_budgets(self, tmp_path, capsys, eps):
        # as CI runs it; before RAPPOR's flip probabilities were taken as q
        # and p, 40 failed and 80 exited 1 on a zero-probability output
        code = _run([
            "verify-fldp", "rappor", "--epsilon", eps, "--order", "5",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith("PASS rappor")
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        assert document["passed"] is True
        assert document["epsilon_effective"] == float(eps)

    @pytest.mark.parametrize("eps", ["1.0", "36", "40", "80", "709", repr(math.log(sys.float_info.max))])
    @pytest.mark.parametrize("mechanism", ["oue", "rappor"])
    def test_unary_passes_at_the_sweep_domain(self, tmp_path, capsys, mechanism, eps):
        # the closed form forms no product of D probabilities, so no budget
        # underflows one to 0 (OUE errored from about 68 over 12 items)
        code = _run([
            "verify-fldp", mechanism, "--epsilon", eps, "--order", "1023",
            "--out", str(tmp_path),
        ])
        assert code == 0
        assert capsys.readouterr().out.startswith(f"PASS {mechanism} eta=1.000000 ")
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        assert document["passed"] is True
        assert document["range_size_min"] == document["intersection_size_max"] == 2**1023
        assert abs(document["epsilon_effective"] - float(eps)) <= 1e-9

    @pytest.mark.parametrize("mechanism", ["oue", "rappor"])
    def test_unary_domain_beyond_the_limit_is_usage_error(self, tmp_path, capsys, mechanism):
        assert _run(["verify-fldp", mechanism, "--epsilon", "1.0", "--order", "4096",
                     "--out", str(tmp_path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fldp: unary domain 4096 exceeds the enumeration limit 4095\n"
        assert not (tmp_path / "certificate.json").exists()

    def test_document_is_the_certificate_plus_the_request(self, tmp_path, capsys):
        assert _run(["verify-fldp", "grr", "--epsilon", "1.0", "--order", "4",
                     "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        request = {"mechanism", "epsilon", "size", "domain_size", "eta_expected", "passed"}
        fields = {f.name for f in dataclasses.fields(FldpCertificate)}
        assert not request & fields
        assert set(document) == request | fields
        assert {key: document[key] for key in request} == {
            "mechanism": "grr", "epsilon": 1.0, "size": 4, "domain_size": 4,
            "eta_expected": 1.0, "passed": True,
        }

    def test_grr_certificate_passes(self, tmp_path, capsys):
        code = _run([
            "verify-fldp", "grr", "--epsilon", "1.0", "--order", "8",
            "--out", str(tmp_path),
        ])
        assert code == 0
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        assert document["eta_observed"] == 1.0
        capsys.readouterr()

    def test_choices_are_the_certifiable_mechanisms(self):
        verify = cli._build_parser()._subparsers._group_actions[0].choices["verify-fldp"]
        (mechanism,) = [a for a in verify._actions if a.dest == "mechanism"]
        assert list(mechanism.choices) == [
            name for name, m in MECHANISMS.items() if m.eta is not None
        ]

    def test_order_help_names_the_certification_limits(self, capsys):
        assert _run(["verify-fldp", "--help"]) == 0
        printed = capsys.readouterr().out
        limits = (verifier._MAX_FHR_ORDER, verifier._MAX_GRR_DOMAIN, verifier._MAX_UNARY_DOMAIN)
        for limit in limits:
            assert re.search(rf"\b{limit}\b", printed)

    def test_fhr_order_must_be_power_of_two(self, capsys):
        assert _run(["verify-fldp", "fhr", "--epsilon", "1.0", "--order", "6"]) == 1
        capsys.readouterr()

    def test_enumeration_limit_is_usage_error(self, tmp_path, capsys):
        assert _run(["verify-fldp", "fhr", "--epsilon", "1.0", "--order", "65536",
                     "--out", str(tmp_path / "edge")]) == 0
        assert capsys.readouterr().out.startswith("PASS fhr eta=0.500000 ")
        assert _run(["verify-fldp", "fhr", "--epsilon", "1.0", "--order", "131072",
                     "--out", str(tmp_path / "past")]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "fldp: FHR order 131072 exceeds the certification limit 65536\n"
        assert not (tmp_path / "past").exists()

    def test_failed_certificate_exits_two(self, tmp_path, capsys, monkeypatch):
        broken = FldpCertificate(
            eta_observed=0.3,
            max_ratio_observed=float(pytest.approx(2.718281828459045).expected),
            epsilon_effective=1.0,
            pair_witnesses=(),
            range_size_min=32,
            range_size_max=32,
            intersection_size_min=9,
            intersection_size_max=9,
        )
        monkeypatch.setattr(cli, "certify_mechanism", lambda *args, **kwargs: broken)
        code = _run([
            "verify-fldp", "fhr", "--epsilon", "1.0", "--order", "8",
            "--out", str(tmp_path),
        ])
        assert code == 2
        printed = capsys.readouterr().out
        assert "FAIL" in printed
        document = json.loads((tmp_path / "certificate.json").read_text(encoding="utf-8"))
        assert document["passed"] is False


class TestSizeTable:
    def test_prints_bits_per_mechanism(self, capsys):
        assert _run(["size-table", "1023"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(line.split(",") for line in lines)
        assert table["fhr"] == "21"
        assert table["grr"] == "10"
        assert table["oue"] == "1023"
        assert table["rappor"] == "1023"
        assert table["olh"] == "65"

    def test_epsilon_widens_olh_hash_range(self, capsys):
        assert _run(["size-table", "100", "--epsilon", "2.5"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        table = dict(line.split(",") for line in lines)
        # g = max(2, ceil(2.5 + 1)) = 4 -> 64 + 2 bits
        assert table["olh"] == "66"

    def test_domain_of_one_rejected(self, capsys):
        assert _run(["size-table", "1"]) == 1
        capsys.readouterr()
