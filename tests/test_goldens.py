"""The benchmark's stored outputs of its default seed, checked in tier 1."""

import json
from pathlib import Path

from forestren import parse_forest, renormalize

GOLDENS = Path(__file__).resolve().parents[1] / "perfbench" / "goldens.json"


def test_stored_values_and_renderings_are_current():
    # perfbench/goldens.py writes this file and the benchmark checks every
    # output against it; reading it here makes a changed value fail tier 1
    goldens = json.loads(GOLDENS.read_text(encoding="utf-8"))
    values, numeric = goldens["values"], goldens["numeric"]
    assert values and numeric and set(numeric) <= set(values)
    for text, want in values.items():
        value = renormalize(*parse_forest(text))
        assert str(value.exact) == want, text
        if text in numeric:
            assert value.numeric_str() == numeric[text], text
