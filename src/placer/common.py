"""Shared sentinels and exception types."""
from __future__ import annotations

import math

# Transfer costs may be infinite ("inf" in documents), and so may the edge
# weights built from them and the load capacity of a server that has none;
# an infinite edge must never be cut.  Comparisons and sums treat INFINITE
# as larger than every integer, so code carries it through unchanged; only
# floor division, Fraction, JSON and the document writers test for it.
INFINITE = math.inf

# Documents whose totals do not fit a signed 64-bit integer are rejected so
# that exported files stay consumable by external tools.
INT64_MAX = 2**63 - 1


class PlacerError(Exception):
    """Base class for all errors raised by this package."""


class DocumentError(PlacerError):
    """A workload/GDP/partition/LP document is malformed or inconsistent."""


class ValidationError(PlacerError):
    """An in-memory structure violates one of its contracts."""


def parse_int(token: str, what: str) -> int:
    """An integer field of a text document; DocumentError names the field."""
    try:
        return int(token)
    except ValueError:
        raise DocumentError(f"invalid {what} {token!r}") from None
