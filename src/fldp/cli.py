"""Command-line surface: data generation, the evaluation sweep, privacy
certification, and the communication-cost table.

Commands:

- ``gen-data``: materialize a workload (Zipf or CSV) plus exact counts.
- ``run``: execute the mechanism x epsilon x trial sweep, writing
  results.csv and manifest.json.
- ``verify-fldp``: enumerate a mechanism's output distributions exactly
  and certify its overlap fraction and worst-case ratio; writes
  certificate.json.
- ``size-table``: print per-mechanism report sizes in bits.

Exit codes: 0 on success, 1 on usage or input errors, 2 when a privacy
certification fails its bound.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from ._atomic import replace_atomically
from .datasets import (
    DEFAULT_ZIPF_EXPONENT,
    DatasetSpec,
    export_ground_truth,
    export_stream_csv,
    generate_zipf,
    ingest_csv,
)
from .experiment import (
    DEFAULT_EPSILONS,
    DEFAULT_TOPK,
    DEFAULT_TRIALS,
    ExperimentSpec,
    run_experiment,
)
from .mechanisms import MECHANISMS
from .verifier import EnumerationLimitError, certificate_passes, certify_mechanism
from .wire import report_size_table

__all__ = ["main", "build_parser", "verify_fldp"]


class _Parser(argparse.ArgumentParser):
    """argparse flavored to exit 1 on usage errors instead of 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad float list {text!r}: {exc}") from exc


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad integer list {text!r}: {exc}") from exc


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--dataset", choices=("zipf", "csv"), default="zipf", help="workload source"
    )
    parser.add_argument("--zipf-n", type=int, default=100_000, help="records to draw")
    parser.add_argument("--zipf-d", type=int, default=1023, help="domain size")
    parser.add_argument(
        "--zipf-exponent", type=float, default=DEFAULT_ZIPF_EXPONENT, help="Zipf exponent"
    )
    parser.add_argument("--csv", type=str, default=None, help="input CSV (one value per row)")
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fldp", description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    gen = commands.add_parser("gen-data", help="materialize a workload to disk")
    _add_dataset_flags(gen)
    gen.add_argument("--out", type=str, default="data", help="output directory")

    run = commands.add_parser("run", help="run the evaluation sweep")
    _add_dataset_flags(run)
    run.add_argument(
        "--mechanisms",
        type=str,
        default=",".join(MECHANISMS),
        help="comma-separated mechanism names",
    )
    run.add_argument(
        "--epsilons",
        type=str,
        default=",".join(str(e) for e in DEFAULT_EPSILONS),
        help="comma-separated privacy budgets",
    )
    run.add_argument(
        "--topk",
        type=str,
        default=",".join(str(k) for k in DEFAULT_TOPK),
        help="comma-separated k values",
    )
    run.add_argument("--trials", type=int, default=DEFAULT_TRIALS, help="trials per cell")
    run.add_argument("--out", type=str, default="results", help="output directory")

    verify = commands.add_parser(
        "verify-fldp", help="certify a mechanism's overlap and ratio bounds"
    )
    verify.add_argument(
        "mechanism", choices=[name for name, m in MECHANISMS.items() if m.eta is not None]
    )
    verify.add_argument("--epsilon", type=float, required=True, help="privacy budget to certify")
    verify.add_argument(
        "--order",
        type=int,
        required=True,
        help="Hadamard order for fhr (power of two), domain size otherwise",
    )
    verify.add_argument("--out", type=str, default="results", help="output directory")

    size = commands.add_parser("size-table", help="print per-mechanism report bits")
    size.add_argument("domain_size", type=int, help="domain size D")
    size.add_argument("--epsilon", type=float, default=1.0, help="budget (sets the OLH range)")

    return parser


def _dataset_spec(args: argparse.Namespace) -> DatasetSpec:
    if args.dataset == "csv":
        if not args.csv:
            raise ValueError("--dataset csv requires --csv PATH")
        return DatasetSpec(source="csv", path=args.csv)
    return DatasetSpec(
        source="zipf",
        n=args.zipf_n,
        domain_size=args.zipf_d,
        zipf_exponent=args.zipf_exponent,
        seed=args.seed,
    )


def _cmd_gen_data(args: argparse.Namespace) -> int:
    spec = _dataset_spec(args)
    stream = generate_zipf(spec) if spec.source == "zipf" else ingest_csv(spec.path)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    dataset_path = out_dir / "dataset.csv"
    truth_path = out_dir / "ground_truth.csv"
    export_stream_csv(stream, dataset_path)
    export_ground_truth(stream, truth_path)
    print(f"wrote {stream.n} records over {stream.domain_size} items to {dataset_path}")
    print(f"wrote ground truth to {truth_path}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    spec = ExperimentSpec(
        dataset=_dataset_spec(args),
        mechanisms=tuple(part for part in args.mechanisms.split(",") if part.strip()),
        epsilons=_parse_floats(args.epsilons),
        topk_list=_parse_ints(args.topk),
        trials=args.trials,
        seed=args.seed,
        output_dir=args.out,
    )
    rows = run_experiment(spec)
    out_dir = Path(spec.output_dir)
    print(f"wrote {len(rows)} rows to {out_dir / 'results.csv'}")
    print(f"wrote manifest to {out_dir / 'manifest.json'}")
    return 0


def verify_fldp(
    mechanism: str, epsilon: float, size: int, out_dir: str | Path
) -> tuple[dict, bool]:
    """Certify one mechanism and write certificate.json; returns (doc, passed).

    ``size`` is the Hadamard order for fhr (the usable domain is one
    smaller, since row zero is reserved) and the domain size otherwise.
    """
    if mechanism == "fhr":
        if size < 4 or size & (size - 1):
            raise ValueError(f"fhr order must be a power of two >= 4, got {size}")
        domain_size = size - 1
    else:
        if size < 2:
            raise ValueError(f"domain must have at least 2 items, got {size}")
        domain_size = size
    certificate = certify_mechanism(mechanism, epsilon, domain_size)
    passed = certificate_passes(mechanism, epsilon, certificate)
    document = {
        "mechanism": mechanism,
        "epsilon": epsilon,
        "size": size,
        "domain_size": domain_size,
        "eta_expected": MECHANISMS[mechanism].eta,
        "eta_observed": certificate.eta_observed,
        "max_ratio_observed": certificate.max_ratio_observed,
        "epsilon_effective": certificate.epsilon_effective,
        "range_size_min": certificate.range_size_min,
        "range_size_max": certificate.range_size_max,
        "intersection_size_min": certificate.intersection_size_min,
        "intersection_size_max": certificate.intersection_size_max,
        "pair_witnesses": [list(witness) for witness in certificate.pair_witnesses],
        "passed": passed,
    }
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with replace_atomically(out_dir / "certificate.json", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return document, passed


def _cmd_verify(args: argparse.Namespace) -> int:
    document, passed = verify_fldp(args.mechanism, args.epsilon, args.order, args.out)
    status = "PASS" if passed else "FAIL"
    print(
        f"{status} {args.mechanism} eta={document['eta_observed']:.6f} "
        f"epsilon_effective={document['epsilon_effective']:.9f} "
        f"(target {args.epsilon})"
    )
    return 0 if passed else 2


def _cmd_size_table(args: argparse.Namespace) -> int:
    table = report_size_table(args.domain_size, epsilon=args.epsilon)
    print("mechanism,bits")
    for mechanism, bits in table.items():
        print(f"{mechanism},{bits}")
    return 0


_COMMANDS = {
    "gen-data": _cmd_gen_data,
    "run": _cmd_run,
    "verify-fldp": _cmd_verify,
    "size-table": _cmd_size_table,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except EnumerationLimitError as exc:
        print(f"fldp: {exc}", file=sys.stderr)
        return 1
    except (ValueError, OSError) as exc:
        print(f"fldp: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
