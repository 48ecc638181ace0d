"""The pin path itself (``tests/pins.py``): a moved pin must say what
moved, and the capture script must regenerate the stores it writes.

A failure here means a re-baseline could again report only *that*
something moved, or that ``tests/data/capture_pins.py`` no longer
reproduces the files the tests read.
"""

import copy
import json
import re

import pytest

import pins


@pytest.mark.parametrize("family, pinned, ran", [
    ("packet", "full", "es"),
    ("fluid", "fig8_perm_pdq1", "fig8_perm_pdq3"),
])
def test_a_moved_run_names_the_case_and_each_statistic(family, pinned, ran):
    """One case's run checked against another case's pin fails with one
    line per run, naming the pinned case, the digest and a headline
    statistic with both values."""
    outputs = pins.cases(family)[ran]()
    lines = pins.moved(family, pinned, outputs)
    assert len(lines) == len(outputs)
    old = pins.stored(family)[pinned]
    for line in lines:
        assert line.startswith(f"{family} {pinned}")
        assert f"digest {old['digest'][:12]} -> " in line
        assert re.search(rf"mean_fct {old['mean_fct']!r} -> [0-9.]+", line)
    with pytest.raises(AssertionError, match="capture_pins.py"):
        pins.assert_pinned(family, pinned, outputs)


def test_a_golden_mismatch_names_the_first_differing_path():
    golden = pins.stored("golden")["fig10"]
    changed = copy.deepcopy(golden)
    changed["uniform"]["RCP"] = -1.0
    with pytest.raises(AssertionError) as failure:
        pins.assert_same("golden", changed, "fig10")
    old = golden["uniform"]["RCP"]
    assert str(failure.value).startswith(
        f"golden['fig10']['uniform']['RCP']: {old!r} -> -1.0\n")


@pytest.mark.parametrize("family", ["keys", "cli"])
def test_capture_reproduces_the_cheap_stores_byte_for_byte(family):
    """What the capture script would write for a cheap family is the
    file the tests read; a differing value is named by its first JSON
    path. ``TestCliPins`` reads the same generated text, per part."""
    text = pins.generated(family)
    pins.assert_same(family, json.loads(text))
    assert text == (pins.DATA / pins.FILES[family][0]).read_text()
