"""Shared error types, which the CLI maps onto exit codes, and the readers
and the writer that turn bad input or an unwritable output path into an
InputError with a message of bounded length."""

import json
from contextlib import contextmanager
from typing import Iterator

# Longest repr of an input value that an error message quotes.
QUOTE_LIMIT = 200


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
    """Report a missing field, named, or a value of the wrong type or form,
    with the reason, while reading ``obj`` as an InputError; InputErrors pass
    through unchanged."""
    try:
        yield
    except InputError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        # str() of a KeyError is the repr of the missing key
        reason = ("missing field " if isinstance(exc, KeyError) else "") + _cut(str(exc))
        raise InputError(f"malformed {what} JSON: {reason} in {quote(obj)}") from exc


def _cut(text: str) -> str:
    return text if len(text) <= QUOTE_LIMIT else text[:QUOTE_LIMIT] + "..."


def quote(value: object) -> str:
    """repr(value), cut to QUOTE_LIMIT characters."""
    return _cut(repr(value))


def as_int(value: object) -> int:
    """An integer read from JSON; a bool, float or str is rejected, not coerced."""
    if type(value) is not int:
        raise InputError(f"expected an integer, got {quote(value)}")
    return value


def load_json(path: str) -> object:
    """The parsed contents of a JSON file; any read or parse failure is an InputError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:  # ValueError: bad JSON or a number too long to read
        raise InputError(f"cannot read JSON from {path}: {exc}") from exc


def write_json(path: str, obj: object) -> None:
    """Write obj as indented, key-sorted JSON; a path that cannot be written is an InputError."""
    try:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(obj, fh, indent=2, sort_keys=True)
    except OSError as exc:
        raise InputError(f"cannot write JSON to {path}: {exc}") from exc
