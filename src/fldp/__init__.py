"""Frequency oracles under flexible local differential privacy.

The package centers on FHR, a Hadamard-response mechanism whose reports
cost 2r+1 bits, plus the standard baselines (GRR, RAPPOR, OUE, OLH), an
exact privacy auditor, the four evaluation metrics, and the experiment
harness gluing them together.
"""

from .aggregator import (
    FrequencyEstimate,
    SumVector,
    fhr_accumulate,
    fhr_accumulate_indices,
    fhr_estimate_all,
    fhr_variance_bound,
    fhr_variance_exact,
    olh_estimate_all,
    oue_variance,
    unary_estimate,
    variance_crossover,
)
from .datasets import DatasetSpec, ItemStream, exact_frequencies, generate_zipf, ingest_csv
from .experiment import ExperimentSpec, ResultRow, run_experiment
from .hadamard import HadamardOrder, min_order_for_domain, row_vector
from .mechanisms import MECHANISMS, FhrReport, Mechanism, PrivacyParams, fhr_perturb_batch
from .metrics import NoOverlapError, TopKSelection, kld, ncr, related_error, squared_error, top_k
from .verifier import (
    EnumerationLimitError,
    FldpCertificate,
    OutputRange,
    certificate_passes,
    certify_mechanism,
    certify_ranges,
    enumerate_range,
)
from .wire import WireFormatError, pack_fhr, packed_size, report_size_table, unpack_fhr

__version__ = "0.1.0"
