"""Golden digests: fixed-seed outputs stay byte-identical across refactors.

``golden.json`` holds the SHA-256 of every output the package promises to
reproduce: a fixed-seed sweep of all five mechanisms (``results.csv``
without its wall-time column, and ``manifest.json``), the certificates of
CI's ``verify-fldp`` list and of the benchmark's certify-grid workload,
``size-table 1023``, ``gen-data``'s two files, report files of fixed
reports at every order exponent the wire format holds, and one report
file of ``fhr_perturb_batch``'s draws.

The digests are kept in two groups. ``draws_nothing`` is a function of the
code alone. ``draws`` also depends on numpy's ``Generator`` streams, which
NEP 19 lets change between numpy feature releases, so the file records
the numpy it was made with and a mismatch there names both versions.

A change that moves an output on purpose re-records the file with
``python tests/test_golden.py --record`` and logs the old and new digests.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np

from fldp import cli
from fldp.hadamard import HadamardOrder, min_order_for_domain
from fldp.mechanisms import FhrReport, PrivacyParams, fhr_perturb_batch
from fldp.wire import write_report_file

GOLDEN = Path(__file__).with_name("golden.json")

# CI's verify-fldp list: (mechanism, --order, --epsilon)
_CERTIFICATES = [
    ("fhr", 8, "1.0"), ("fhr", 128, "1.0"), ("fhr", 1024, "1.0"), ("fhr", 8, "709"),
    ("fhr", 65536, "1.0"),
    ("grr", 256, "1.0"), ("grr", 256, "0.4"), ("grr", 256, "2.0"), ("grr", 256, "709.78"),
    ("oue", 12, "1.0"), ("rappor", 12, "1.0"),
    ("rappor", 5, "40"), ("rappor", 5, "80"), ("oue", 5, "40"), ("oue", 5, "80"),
    ("grr", 7, "1.0"), ("oue", 7, "1.0"), ("rappor", 7, "1.0"),
    ("oue", 1023, "1.0"), ("oue", 1023, "80"), ("oue", 1023, "709"),
    ("rappor", 1023, "1.0"), ("rappor", 1023, "80"), ("rappor", 1023, "709"),
]
# perfbench's certify-grid, ten budgets each; two of its 40 are in CI's list
_CERTIFICATES += [
    (mechanism, size, epsilon)
    for mechanism, size in (("fhr", 64), ("grr", 64), ("oue", 12), ("rappor", 12))
    for epsilon in ("0.4", "0.5", "0.6", "0.8", "1.0", "1.2", "1.4", "1.6", "1.8", "2.0")
    if (mechanism, size, epsilon) not in _CERTIFICATES
]
_SWEEP = [
    "run", "--zipf-n", "20000", "--zipf-d", "255", "--seed", "3",
    "--epsilons", "0.5,1,2", "--topk", "5,20", "--trials", "2",
]
_GEN_DATA = ["gen-data", "--zipf-n", "5000", "--zipf-d", "63", "--seed", "1"]


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _fldp(argv: list[str]) -> str:
    """Run one fldp command in-process; returns its stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    assert code == 0, f"fldp {' '.join(argv)} exited {code}"
    return out.getvalue()


def _without_wall_time(results: bytes) -> bytes:
    """results.csv with its wall_time_ms column cut from every line."""
    lines = [line.split(b",") for line in results.split(b"\r\n")]
    column = lines[0].index(b"wall_time_ms")
    kept = (b",".join(cells[:column] + cells[column + 1 :]) for cells in lines if cells != [b""])
    return b"\r\n".join(kept)


def _fixed_reports(r: int) -> list[int]:
    """Reports of no draw at order 2^r: each index's neighbours, the ends
    and a stride through the order, at most 64 of them."""
    top = (1 << r) - 1
    pairs = [(0, 1), (1, 0), (top, 0), (0, top), (top, top - 1)]
    pairs += [(i * 0x9E3779B1 % (top + 1), (i * 0x9E3779B1 + i + 1) % (top + 1)) for i in range(59)]
    return [FhrReport(x, y) for x, y in pairs if x != y]


def compute(directory: Path) -> dict[str, dict[str, str]]:
    """Every golden digest, by group and name; ``directory`` takes the files."""
    fixed: dict[str, str] = {}
    drawn: dict[str, str] = {}
    for mechanism, size, epsilon in _CERTIFICATES:
        out = directory / "certificate"
        _fldp(["verify-fldp", mechanism, "--order", str(size), "--epsilon", epsilon,
               "--out", str(out)])
        fixed[f"verify-fldp {mechanism} --order {size} --epsilon {epsilon}"] = _sha(
            (out / "certificate.json").read_bytes()
        )
    fixed["size-table 1023"] = _sha(_fldp(["size-table", "1023"]).encode())
    for r in range(1, 32):
        path = directory / f"fixed-{r}.bin"
        write_report_file(path, _fixed_reports(r), HadamardOrder(r))
        fixed[f"fixed reports r={r}"] = _sha(path.read_bytes())

    sweep = directory / "sweep"
    _fldp(_SWEEP + ["--out", str(sweep)])
    fixed["sweep manifest.json"] = _sha((sweep / "manifest.json").read_bytes())
    drawn["sweep results.csv without wall_time_ms"] = _sha(
        _without_wall_time((sweep / "results.csv").read_bytes())
    )
    data = directory / "data"
    _fldp(_GEN_DATA + ["--out", str(data)])
    for name in ("dataset.csv", "ground_truth.csv"):
        drawn[f"gen-data {name}"] = _sha((data / name).read_bytes())
    # 70,000 reports cross the writer's 2^16-report chunk
    order = min_order_for_domain(1023)
    items = np.arange(70_000) % 1023
    index_x, index_y = fhr_perturb_batch(
        items, PrivacyParams.for_fhr(1.0), order, np.random.default_rng(31)
    )
    path = directory / "perturbed.bin"
    write_report_file(path, map(FhrReport, index_x.tolist(), index_y.tolist()), order)
    drawn["fhr_perturb_batch reports, seed 31"] = _sha(path.read_bytes())
    return {"draws_nothing": fixed, "draws": drawn}


def test_outputs_match_the_golden_digests(tmp_path):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    got = compute(tmp_path)

    def moved(group):
        assert sorted(got[group]) == sorted(golden[group]), f"{group}: the digest names differ"
        return sorted(name for name, digest in got[group].items() if golden[group][name] != digest)

    assert not moved("draws_nothing"), f"outputs that draw nothing moved: {moved('draws_nothing')}"
    assert not moved("draws"), (
        f"drawn outputs moved: {moved('draws')}; recorded with numpy {golden['numpy']}, "
        f"running numpy {np.__version__} (NEP 19 lets Generator streams change "
        "between numpy feature releases)"
    )


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python tests/test_golden.py --record")
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        document = {"numpy": np.__version__, **compute(Path(scratch))}
    GOLDEN.write_text(json.dumps(document, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"recorded {GOLDEN}")
