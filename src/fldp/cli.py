"""Command-line surface: data generation, the evaluation sweep, privacy
certification, and the communication-cost table.

Commands:

- ``gen-data``: materialize a workload (Zipf or CSV) plus exact counts.
- ``run``: execute the mechanism x epsilon x trial sweep, writing
  results.csv and manifest.json.
- ``verify-fldp``: certify a mechanism's overlap fraction and worst-case
  ratio exactly (FHR and the unary encodings in closed form, GRR by
  enumeration); writes certificate.json.
- ``size-table``: print per-mechanism report sizes in bits.

Exit codes: 0 on success, 1 on usage or input errors or when memory runs
out, 2 when a privacy certification fails its bound.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from ._atomic import replace_atomically
from .datasets import (
    DEFAULT_ZIPF_EXPONENT,
    DatasetSpec,
    export_ground_truth,
    export_stream_csv,
    load_stream,
)
from .experiment import (
    DEFAULT_EPSILONS,
    DEFAULT_TOPK,
    DEFAULT_TRIALS,
    ExperimentSpec,
    run_experiment,
)
from .mechanisms import MECHANISMS
from .verifier import (
    _MAX_FHR_ORDER, _MAX_GRR_DOMAIN, _MAX_UNARY_DOMAIN, certificate_passes, certify_mechanism,
)
from .wire import report_size_table

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """argparse flavored to exit 1 on usage errors instead of 2."""

    def error(self, message: str) -> None:
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _parse_list(text: str, kind: type, noun: str) -> tuple:
    try:
        return tuple(kind(part.strip()) for part in text.split(",") if part.strip())
    except ValueError as exc:
        raise ValueError(f"bad {noun} list {text!r}: {exc}") from exc


def _add_dataset_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--zipf-n", type=int, default=100_000, help="records to draw")
    parser.add_argument("--zipf-d", type=int, default=1023, help="domain size")
    parser.add_argument(
        "--zipf-exponent", type=float, default=DEFAULT_ZIPF_EXPONENT, help="Zipf exponent"
    )
    parser.add_argument(
        "--csv",
        type=str,
        default=None,
        help="input CSV (one value per row); replaces the Zipf stream, and the "
        "--zipf-* flags are then unused",
    )
    parser.add_argument("--seed", type=int, default=0, help="master seed")


def _build_parser() -> argparse.ArgumentParser:
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
        help=f"Hadamard order for fhr (a power of two, up to {_MAX_FHR_ORDER}); domain size "
        f"otherwise (up to {_MAX_GRR_DOMAIN} for grr, {_MAX_UNARY_DOMAIN} for oue and rappor)",
    )
    verify.add_argument("--out", type=str, default="results", help="output directory")

    size = commands.add_parser("size-table", help="print per-mechanism report bits")
    size.add_argument("domain_size", type=int, help="domain size D")
    size.add_argument("--epsilon", type=float, default=1.0, help="budget (sets the OLH range)")

    return parser


def _dataset_spec(args: argparse.Namespace) -> DatasetSpec:
    if args.csv is not None:
        return DatasetSpec(source="csv", path=args.csv)
    return DatasetSpec(
        source="zipf",
        n=args.zipf_n,
        domain_size=args.zipf_d,
        zipf_exponent=args.zipf_exponent,
        seed=args.seed,
    )


def _cmd_gen_data(args: argparse.Namespace) -> int:
    stream = load_stream(_dataset_spec(args))
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
        mechanisms=_parse_list(args.mechanisms, str, "mechanism"),
        epsilons=_parse_list(args.epsilons, float, "float"),
        topk_list=_parse_list(args.topk, int, "integer"),
        trials=args.trials,
        seed=args.seed,
        output_dir=args.out,
    )
    rows = run_experiment(spec)
    out_dir = Path(spec.output_dir)
    print(f"wrote {len(rows)} rows to {out_dir / 'results.csv'}")
    print(f"wrote manifest to {out_dir / 'manifest.json'}")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    # --order is the Hadamard order for fhr (the usable domain is one
    # smaller, since row zero is reserved) and the domain size otherwise
    mechanism, epsilon, size = args.mechanism, args.epsilon, args.order
    if mechanism == "fhr" and (size < 4 or size & (size - 1)):
        raise ValueError(f"fhr order must be a power of two >= 4, got {size}")
    domain_size = size - 1 if mechanism == "fhr" else size
    certificate = certify_mechanism(mechanism, epsilon, domain_size)
    passed = certificate_passes(mechanism, epsilon, certificate)
    document = {
        "mechanism": mechanism,
        "epsilon": epsilon,
        "size": size,
        "domain_size": domain_size,
        "eta_expected": MECHANISMS[mechanism].eta,
        **dataclasses.asdict(certificate),
        "passed": passed,
    }
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    with replace_atomically(out_dir / "certificate.json", encoding="utf-8") as handle:
        json.dump(document, handle, indent=2, sort_keys=True)
        handle.write("\n")
    print(
        f"{'PASS' if passed else 'FAIL'} {mechanism} eta={certificate.eta_observed:.6f} "
        f"epsilon_effective={certificate.epsilon_effective:.9f} (target {epsilon})"
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
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    try:
        return _COMMANDS[args.command](args)
    except (ValueError, OSError) as exc:  # EnumerationLimitError included
        print(f"fldp: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # numpy's message names the allocation it could not make
        print(f"fldp: out of memory: {exc}".removesuffix(": "), file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
