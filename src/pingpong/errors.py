"""Exceptions shared across the package, mapped to CLI exit codes."""


class ConfigError(ValueError):
    """Invalid configuration or argument values (CLI exit code 2)."""


class BudgetError(RuntimeError):
    """A request exceeds the supported desk-scale budget (CLI exit code 3)."""


class InvariantViolation(RuntimeError):
    """A cross-module consistency gate failed (CLI exit code 4).

    Raised, for example, when the exact word oracle falsifies a pair that
    carries a freeness certificate.  This indicates a bug in the library,
    never an expected runtime condition.
    """


class ConvergenceError(RuntimeError):
    """Iterative numerical routine failed to converge within its cap.

    The cap (64 Jacobi sweeps) is a budget, so the CLI maps this to the
    budget exit code 3.
    """
