"""Exception bases shared by several layers."""

from __future__ import annotations


class InputError(ValueError):
    """Input that pelkit rejects: malformed, inconsistent or past its
    bounds.  Every ``ValueError`` subclass in pelkit derives from it, so the
    CLI exits 2 on any of them without naming it."""


class OutOfScopeError(InputError):
    """Well-formed input that lies outside what pelkit computes: a weight
    past the character bounds or a weight that is not one of the group's.
    The CLI reports it as a JSON error with exit code 2."""


class InternalCheckError(RuntimeError):
    """An internal cross-check failed: a defect in pelkit, not a verdict on
    the input.  Raised explicitly rather than by ``assert``, so that
    ``python -O`` keeps the check."""
