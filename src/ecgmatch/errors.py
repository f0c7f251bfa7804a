"""Exception types shared across the package.

The CLI maps ConfigurationError, ParseError and FileNotFoundError to exit
code 2 and every other failure to exit code 1.
"""


class ConfigurationError(ValueError):
    """Invalid configuration: bad shapes, unknown keys, out-of-range knobs."""


class ContractViolation(ValueError):
    """A caller broke a documented precondition (bad index, bad range)."""


class NumericError(ArithmeticError):
    """Non-finite values showed up where finite arithmetic was required."""


class UndefinedMetricError(ValueError):
    """A metric has no valid rows/classes to average over."""


class ParseError(ValueError):
    """Malformed input file; message carries the offending location."""
