"""Helpers shared by several test modules."""

from dataclasses import fields

import numpy as np


def same_records(a, b) -> bool:
    """Whether two ``Records`` hold the same columns; missing bids (NaN) compare equal."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=f.name == "bids") for f in fields(a))
