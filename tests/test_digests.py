"""The solver's outputs on the bundled chains match the recorded digests.

scripts/digests.py writes tests/data/digests.json and, with --check, compares
the CASES with it (with --long, the LONG cases; with --case, only the named
ones); this test compares the fast ones, at 1 and 2 workers.
"""

import json
import runpy
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
DIGESTS = runpy.run_path(str(ROOT / "scripts" / "digests.py"))
RECORDED = json.loads((ROOT / "tests" / "data" / "digests.json").read_text())
FAST = [("3=sum2", n) for n in range(1, 15)] + [("2=sum3", n) for n in range(2, 17, 2)]


def test_recorded_cases_cover_the_fast_ones():
    recorded = DIGESTS["CASES"] + DIGESTS["LONG"]
    assert set(RECORDED) == {DIGESTS["case_key"](d, n) for d, n in recorded}
    assert set(FAST) < set(DIGESTS["CASES"])


def test_select_cases():
    select = DIGESTS["select_cases"]
    assert select([]) == DIGESTS["CASES"]
    assert select([], long=True) == DIGESTS["LONG"]
    assert select(["2=sum3 n=4", "3=sum2 n=2"]) == [("3=sum2", 2), ("2=sum3", 4)]
    assert select(["3=sum2 n=18"], long=True) == [("3=sum2", 18)]
    for keys, long in ((["3=sum2 n=18"], False), (["3=sum2 n=2"], True), (["3=sum2 n=99"], False)):
        with pytest.raises(ValueError, match="unknown case"):
            select(keys, long)


@pytest.mark.parametrize("direction, n", FAST)
def test_digests_match(direction, n):
    key = DIGESTS["case_key"](direction, n)
    got = DIGESTS["agreed_digests"](direction, n)
    assert got == RECORDED[key], DIGESTS["differences"](got, RECORDED[key])
