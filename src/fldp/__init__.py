"""Frequency oracles under flexible local differential privacy.

The package centers on FHR, a Hadamard-response mechanism whose reports
cost 2r+1 bits, plus the standard baselines (GRR, RAPPOR, OUE, OLH), an
exact privacy auditor, the four evaluation metrics, and the experiment
harness gluing them together. Import each from its module:
``fldp.mechanisms``, ``fldp.aggregator``, ``fldp.verifier`` and so on.
"""

__version__ = "0.1.0"
