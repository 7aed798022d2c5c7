"""The one JSON reader and type checker behind every file the program loads."""

import dataclasses
import math
import re
import sys
from pathlib import Path
from typing import Annotated, Literal

import pytest
from hypothesis import given
from hypothesis import strategies as st

import thresholdyn
from thresholdyn._records import PositiveInt, check, fits, hints, read_object

# the scalars a JSON document can hold, NaN and ±inf included
SCALARS = st.one_of(st.none(), st.booleans(), st.integers(), st.floats(), st.text(max_size=4))


@given(st.booleans())
def test_a_bool_is_never_a_number(value):
    assert fits(value, bool)
    assert not fits(value, int)
    assert not fits(value, float)
    assert not fits(value, Literal[0, 1])


@given(st.floats())
def test_only_finite_floats_fit_float(value):
    assert fits(value, float) == math.isfinite(value)


@given(st.integers() | st.sampled_from([10**400, -(10**309)]))
def test_an_int_fits_float_while_a_float_can_hold_it(value):
    assert fits(value, int)
    assert fits(value, float) == (abs(value) <= sys.float_info.max)


@given(st.lists(SCALARS, max_size=5), st.sampled_from([int, float, str, bool]))
def test_a_list_fits_a_homogeneous_tuple_when_every_item_fits(value, item):
    assert fits(value, tuple[item, ...]) == all(fits(v, item) for v in value)


@given(st.integers())
def test_annotated_narrows_its_type(value):
    positive = Annotated[int, "a positive integer", lambda v: v > 0]
    assert fits(value, positive) == (value > 0)


@dataclasses.dataclass
class Sized:
    size: PositiveInt = 1


def test_a_dataclass_field_keeps_its_annotated_rule():
    assert hints(Sized) == {"size": PositiveInt}
    assert fits({"size": 2}, Sized) and not fits({"size": 0}, Sized)


def test_check_names_the_record_and_key():
    hints = {"n": Annotated[int, "a positive integer", lambda v: v > 0], "s": str}
    record = {"n": 1, "s": "a", "x": 0}  # a key without a hint is not checked
    assert check(record, hints, "rec", ValueError, required=hints) is record
    for record, needle in [
        ([1], "rec is not a JSON object"),
        ({"s": "a"}, "rec has no 'n'"),
        ({"n": 0, "s": "a"}, "rec 'n' is 0, expected a positive integer"),
        ({"n": 1, "s": 2}, "rec 's' is 2, expected str"),
    ]:
        with pytest.raises(ValueError, match=re.escape(needle)):
            check(record, hints, "rec", ValueError, required=hints)
    with pytest.raises(KeyError, match=re.escape("rec has unknown keys ['x']")):
        check({"x": 0}, hints, "rec", KeyError, closed=True)


@pytest.mark.parametrize("text, needle", [
    (None, "cannot read thing"),
    ("{", "thing is not valid JSON"),
    (b"\xff", "thing is not valid JSON"),
    ("[1]", "thing is not a JSON object"),
])
def test_read_object_names_the_file(tmp_path, text, needle):
    path = tmp_path / "f.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    elif text is not None:
        path.write_text(text)
    with pytest.raises(LookupError, match=re.escape(f"{path}: {needle}")):
        read_object(path, "thing", LookupError)


def test_only_the_reader_parses_json():
    src = Path(thresholdyn.__file__).parent
    parsers = [p.name for p in sorted(src.glob("*.py"))
               if re.search(r"\bjson\.loads?\b|\bfrom json import\b", p.read_text())]
    assert parsers == ["_records.py"]
