"""Helpers shared by several test modules."""

import json
from dataclasses import fields

import numpy as np
from hypothesis import strategies as st


def same_records(a, b) -> bool:
    """Whether two ``Records`` hold the same columns; missing bids (NaN) compare equal."""
    return all(np.array_equal(getattr(a, f.name), getattr(b, f.name), equal_nan=f.name == "bids") for f in fields(a))


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=5,
)
_ID = st.text(max_size=4) | st.integers()
# The fields of a record line (a candidate line reads ad_id and bid, a rank
# context user_id and behavior_ids). Each is drawn well typed or as any JSON
# value, and may be absent.
RECORD_FIELDS = {
    "user_id": _ID,
    "ad_id": _ID,
    "behavior_ids": st.lists(_ID, max_size=4),
    "label": st.sampled_from([0, 1]),
    "ts": st.integers(),
    "bid": st.none() | st.floats(min_value=0.0, max_value=5.0) | st.integers(min_value=0, max_value=5),
}
_OBJECTS = st.fixed_dictionaries(
    {}, optional={k: v | JSON_VALUES for k, v in RECORD_FIELDS.items()} | {"extra": JSON_VALUES}
)
# One line's bytes, without its newline: a record with every field well
# typed, a record-like object, any JSON value, any text or any bytes.
RECORD_LINES = st.one_of(
    st.fixed_dictionaries(RECORD_FIELDS).map(lambda o: json.dumps(o).encode()),
    _OBJECTS.map(lambda o: json.dumps(o).encode()),
    JSON_VALUES.map(lambda v: json.dumps(v).encode()),
    st.text(st.characters(blacklist_categories=("Cs",), blacklist_characters="\n"), max_size=12).map(str.encode),
    st.binary(max_size=12).filter(lambda b: b"\n" not in b),
)
