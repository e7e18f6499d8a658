#!/usr/bin/env python3
"""Print exact privacy certificates for every enumerable mechanism.

For each mechanism the verifier writes down the complete output
distribution of every item and measures, over all item pairs, the range
overlap fraction eta and the worst probability ratio on the shared
outputs.  Nothing is sampled, so the printed numbers are exact.
"""

import argparse
import sys

from fldp.mechanisms import MECHANISMS
from fldp.verifier import (
    EnumerationLimitError,
    certificate_passes,
    certify_mechanism,
)


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--epsilon", type=float, default=1.0)
    parser.add_argument(
        "--domain", type=int, default=7,
        help="domain size (FHR enumerates order 2^ceil(log2(domain+1)))",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    print(f"epsilon={args.epsilon} domain={args.domain}")
    print("mechanism  eta      eps_effective  range_size  verdict")
    failures = 0
    for mechanism, record in MECHANISMS.items():
        if record.eta is None:
            continue
        try:
            cert = certify_mechanism(mechanism, args.epsilon, args.domain)
        except EnumerationLimitError as exc:
            print(f"{mechanism:>9}  skipped: {exc}")
            continue
        ok = certificate_passes(mechanism, args.epsilon, cert)
        failures += not ok
        print(
            f"{mechanism:>9}  {cert.eta_observed:<7.4f}  "
            f"{cert.epsilon_effective:<13.9f}  "
            f"{cert.range_size_min:>10}  {'ok' if ok else 'VIOLATION'}"
        )
    return 2 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
