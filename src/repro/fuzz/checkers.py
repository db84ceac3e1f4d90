"""The fuzzer's names for the one check table.

Every check — the paper's properties and the sequence-pattern
detectors — is a one-pass monitor listed under its report name in
:data:`repro.trace.checks.CHECKS`; this module
re-exports what the repo benchmark (``perfbench/sim.py``) imports from
here.
"""

from repro.trace.checks import CheckContext, make_checkers, run_checkers

__all__ = ["CheckContext", "make_checkers", "run_checkers"]
