"""Sieve-weight and Fourier-transference toolkit for additive prime problems
at desk scale.  The root binds the layer modules and the error classes."""

__version__ = "0.1.0"

from . import arith_core, circle_method, goldbach_verify, rosser_sieve, selberg_sieve, transference
from .arith_core import build_factor_table  # read here by bench/tests/test_harness.py
from .errors import (
    Chen3Error,
    ConfigError,
    DomainError,
    InvariantError,
    PaperAssertionError,
    ResourceBudgetError,
)
