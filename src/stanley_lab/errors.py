"""Shared error types; the CLI maps these onto exit codes."""

from contextlib import contextmanager
from typing import Iterator


class InputError(ValueError):
    """Malformed or inconsistent input: length mismatches, bad JSON, violated preconditions."""


class UndefinedValueError(ValueError):
    """An invariant is undefined for this argument (e.g. sdepth/depth of the zero module)."""


class BudgetExceededError(RuntimeError):
    """A search was truncated by its node budget.  Distinct from failure: no claim is made."""


class ContradictionError(RuntimeError):
    """A certified claim failed: a guaranteed search came up empty or an emitted
    certificate did not verify.  Always a bug or a genuine counterexample, never
    an operational condition."""


@contextmanager
def malformed(what: str, obj: object) -> Iterator[None]:
    """Report a missing field or a value of the wrong type or form while
    reading ``obj`` as an InputError; InputErrors pass through unchanged."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError, OverflowError) as exc:  # OverflowError: int(inf)
        raise InputError(f"malformed {what} JSON: {obj!r}") from exc
