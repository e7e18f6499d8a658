"""Output checks for the benchmark, computed apart from the program.

Every expected value here comes from a closed form or a recomputation
written in this file with numpy alone: nothing is read back from ``fldp``.
Each check raises :class:`CheckFailed` with a message naming what
differed; a check that returns has passed.

The accuracy check scores an estimate vector by the mean over the domain of
z^2 = (estimate - true count)^2 / Var, where Var is the estimator's
closed-form variance. For an unbiased estimator with that variance the
mean is 1 with standard deviation close to sqrt(2 / D), so the band is
1 +/- Z2_SIGMAS * sqrt(2 / D) (see README.md for how it was chosen).
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

Z2_SIGMAS = 8.0
CERT_EPSILON_TOL = 1e-9
RESULT_COLUMNS = (
    "mechanism", "epsilon", "k", "trial", "kld", "re", "se", "ncr",
    "wall_time_ms", "report_bits",
)
SCORE_FIELDS = ("kld", "re", "se", "ncr")


class CheckFailed(Exception):
    """An output of the program differs from what the method requires."""


def _require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# --- closed forms -----------------------------------------------------------


def olh_hash_range(epsilon: float) -> int:
    """Hash range g of the OLH construction the program implements, ceil(eps + 1)."""
    return max(2, math.ceil(epsilon + 1))


def keep_flip(mechanism: str, epsilon: float, domain_size: int) -> tuple[float, float]:
    """(p, q): probability a holder's position/bucket is reported, and a non-holder's."""
    e = math.exp(epsilon)
    if mechanism == "grr":
        return e / (e + domain_size - 1), 1 / (e + domain_size - 1)
    if mechanism == "rappor":
        half = math.exp(epsilon / 2)
        return half / (half + 1), 1 / (half + 1)
    if mechanism == "oue":
        return 0.5, 1 / (e + 1)
    if mechanism == "olh":
        g = olh_hash_range(epsilon)
        return e / (e + g - 1), 1 / g
    raise ValueError(f"no keep/flip probabilities for {mechanism!r}")


def estimator_variance(
    mechanism: str, epsilon: float, truth: np.ndarray, n: int
) -> np.ndarray:
    """Closed-form Var of each item's count estimate, given the true counts.

    FHR: B*n + (B-1)*n_t with B = (e^eps+1)^2 / (2 (e^eps-1)^2).
    GRR, unary and OLH: (n_t p(1-p) + (n-n_t) q(1-q)) / (p-q)^2.
    """
    truth = np.asarray(truth, dtype=np.float64)
    if mechanism == "fhr":
        e = math.exp(epsilon)
        b = (e + 1) ** 2 / (2 * (e - 1) ** 2)
        return b * n + (b - 1) * truth
    p, q = keep_flip(mechanism, epsilon, truth.size)
    return (truth * p * (1 - p) + (n - truth) * q * (1 - q)) / (p - q) ** 2


def report_bits(mechanism: str, domain_size: int, epsilon: float) -> int:
    """Bits per client report: 2ceil(log2(D+1))+1, ceil(log2 D), D, or 64+ceil(log2 g)."""
    if mechanism == "fhr":
        return 2 * math.ceil(math.log2(domain_size + 1)) + 1
    if mechanism == "grr":
        return math.ceil(math.log2(domain_size))
    if mechanism in ("oue", "rappor"):
        return domain_size
    if mechanism == "olh":
        return 64 + math.ceil(math.log2(olh_hash_range(epsilon)))
    raise ValueError(f"no report size for {mechanism!r}")


def report_file_bytes(n: int, r: int) -> int:
    """A report file: 16-byte header plus n records of ceil((2r+1)/8) bytes."""
    return 16 + n * math.ceil((2 * r + 1) / 8)


# --- accuracy and conserved quantities --------------------------------------


def check_z2_band(
    label: str, mechanism: str, epsilon: float, estimates: np.ndarray, truth: np.ndarray
) -> float:
    """Mean z^2 over the domain must lie within 1 +/- Z2_SIGMAS * sqrt(2/D)."""
    estimates = np.asarray(estimates, dtype=np.float64)
    _require(
        estimates.shape == np.shape(truth),
        f"{label}: {estimates.size} estimates for a domain of {np.size(truth)}",
    )
    _require(bool(np.all(np.isfinite(estimates))), f"{label}: non-finite estimate")
    truth = np.asarray(truth, dtype=np.float64)
    var = estimator_variance(mechanism, epsilon, truth, int(round(truth.sum())))
    z2 = float(np.mean((estimates - truth) ** 2 / var))
    half = Z2_SIGMAS * math.sqrt(2 / estimates.size)
    _require(abs(z2 - 1) <= half, f"{label}: mean z^2 {z2:.4f} outside 1 +/- {half:.4f}")
    return z2


def check_total(label: str, values: np.ndarray, expected: float, rel_tol: float = 1e-9) -> None:
    total = math.fsum(np.asarray(values, dtype=np.float64).tolist())
    _require(
        math.isclose(total, expected, rel_tol=rel_tol, abs_tol=1e-6),
        f"{label}: total {total!r}, expected {expected!r}",
    )


def check_sum_vector(
    sums: np.ndarray, n: int, index_x: np.ndarray, index_y: np.ndarray, order: int
) -> None:
    """The decoded sum vector equals +1/-1 bincounts of the perturbed indices."""
    sums = np.asarray(sums)
    _require(sums.shape == (order,), f"sum vector shape {sums.shape}, expected ({order},)")
    _require(n == len(index_x), f"sum vector counts {n} reports, {len(index_x)} were sent")
    _require(int(sums.sum()) == 0, f"FHR sum vector totals {int(sums.sum())}, expected 0")
    expected = np.bincount(index_x, minlength=order) - np.bincount(index_y, minlength=order)
    wrong = np.flatnonzero(sums != expected)
    _require(
        wrong.size == 0,
        f"sum vector differs from the sent reports at {wrong.size} positions",
    )


def check_report_file(nbytes: int, n: int, r: int) -> None:
    expected = report_file_bytes(n, r)
    _require(nbytes == expected, f"report file has {nbytes} bytes, expected {expected}")


# --- certificates -----------------------------------------------------------


def expected_certificate(mechanism: str, domain_size: int) -> tuple[float, int, int]:
    """(eta, range size, overlap size) the exact enumeration must find."""
    if mechanism == "fhr":
        order = 2 ** math.ceil(math.log2(domain_size + 1))
        return 0.5, order * order // 2, order * order // 4
    if mechanism == "grr":
        return 1.0, domain_size, domain_size
    if mechanism in ("oue", "rappor"):
        return 1.0, 2**domain_size, 2**domain_size
    raise ValueError(f"no certificate shape for {mechanism!r}")


def check_certificate(mechanism: str, epsilon: float, domain_size: int, cert) -> None:
    label = f"{mechanism} eps={epsilon} D={domain_size}"
    eta, range_size, overlap = expected_certificate(mechanism, domain_size)
    _require(cert.eta_observed == eta, f"{label}: eta {cert.eta_observed!r}, expected {eta}")
    _require(
        abs(cert.epsilon_effective - epsilon) <= CERT_EPSILON_TOL,
        f"{label}: effective epsilon {cert.epsilon_effective!r}, expected {epsilon}",
    )
    sizes = (cert.range_size_min, cert.range_size_max)
    _require(sizes == (range_size, range_size), f"{label}: range sizes {sizes}, expected {range_size}")
    inter = (cert.intersection_size_min, cert.intersection_size_max)
    _require(inter == (overlap, overlap), f"{label}: overlap sizes {inter}, expected {overlap}")


# --- scores -----------------------------------------------------------------


def ranked(table: np.ndarray, k: int) -> np.ndarray:
    """The k largest entries' indices, descending; ties go to the lower index."""
    order = np.argsort(-np.asarray(table, dtype=np.float64), kind="stable")
    return order[:k]


def own_scores(truth: np.ndarray, est: np.ndarray, k: int, smoothing: float) -> dict:
    """kld, re, se and ncr recomputed from their definitions."""
    truth = np.asarray(truth, dtype=np.float64)
    est = np.asarray(est, dtype=np.float64)
    true_top = ranked(truth, k)
    est_top = ranked(est, k)

    p = np.maximum(truth[true_top], 0) + smoothing
    q = np.maximum(est[true_top], 0) + smoothing
    p, q = p / p.sum(), q / q.sum()
    kld = 0.5 * (float(np.sum(p * np.log(p / q))) + float(np.sum(q * np.log(q / p))))

    re = float(np.median(np.abs(truth[true_top] - est[true_top]) / truth[true_top]))

    shared = sorted(set(true_top.tolist()) & set(est_top.tolist()))
    diff = (truth[shared] - est[shared]) / truth.sum()
    se = float(np.mean(diff * diff)) if shared else float("nan")

    points = {int(item): k - rank for rank, item in enumerate(true_top)}
    ncr = sum(points.get(int(item), 0) for item in est_top) / (k * (k + 1) / 2)
    return {"kld": kld, "re": re, "se": se, "ncr": ncr}


def check_scores(
    label: str, truth: np.ndarray, est: np.ndarray, k: int, smoothing: float, got: dict
) -> None:
    want = own_scores(truth, est, k, smoothing)
    for field in SCORE_FIELDS:
        _require(
            math.isclose(got[field], want[field], rel_tol=1e-9, abs_tol=1e-15),
            f"{label} k={k}: {field} {got[field]!r}, recomputed {want[field]!r}",
        )


# --- sweep output -----------------------------------------------------------


def check_results_csv(
    path: str | Path,
    mechanisms: tuple[str, ...],
    epsilons: tuple[float, ...],
    ks: tuple[int, ...],
    trials: int,
    domain_size: int,
) -> None:
    """One row per (mechanism, budget, k, trial) plus a mean row per cell."""
    with Path(path).open(newline="", encoding="utf-8") as handle:
        rows = list(csv.reader(handle))
    _require(bool(rows) and tuple(rows[0]) == RESULT_COLUMNS, f"{path}: header {rows[:1]}")
    records = [dict(zip(RESULT_COLUMNS, row)) for row in rows[1:]]
    expected = len(mechanisms) * len(epsilons) * len(ks) * (trials + 1)
    _require(len(records) == expected, f"{path}: {len(records)} rows, expected {expected}")
    cells: dict[tuple, dict] = {}
    for rec in records:
        key = (rec["mechanism"], float(rec["epsilon"]), int(rec["k"]))
        cells.setdefault(key, {})[rec["trial"]] = rec
    wanted_trials = {str(t) for t in range(trials)} | {"mean"}
    for mech in mechanisms:
        for eps in epsilons:
            for k in ks:
                label = f"{path}: {mech} eps={eps} k={k}"
                cell = cells.get((mech, float(eps), k), {})
                _require(set(cell) == wanted_trials, f"{label}: trials {sorted(cell)}")
                bits = report_bits(mech, domain_size, eps)
                for trial, rec in cell.items():
                    values = {f: float(rec[f]) for f in SCORE_FIELDS + ("wall_time_ms",)}
                    _require(
                        all(math.isfinite(v) for v in values.values()),
                        f"{label} trial {trial}: non-finite value in {values}",
                    )
                    _require(
                        min(values["kld"], values["re"], values["se"]) >= 0,
                        f"{label} trial {trial}: negative error in {values}",
                    )
                    _require(0 <= values["ncr"] <= 1, f"{label} trial {trial}: ncr {values['ncr']}")
                    _require(values["wall_time_ms"] > 0, f"{label} trial {trial}: no wall time")
                    _require(
                        int(rec["report_bits"]) == bits,
                        f"{label} trial {trial}: report_bits {rec['report_bits']}, expected {bits}",
                    )
                for field in SCORE_FIELDS:
                    trial_values = [float(cell[str(t)][field]) for t in range(trials)]
                    mean = math.fsum(trial_values) / trials
                    _require(
                        math.isclose(float(cell["mean"][field]), mean, rel_tol=1e-12, abs_tol=0.0),
                        f"{label}: mean {field} {cell['mean'][field]}, trials average {mean!r}",
                    )
