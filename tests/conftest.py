import os
import subprocess
import sys
from pathlib import Path

import pytest

from modchain import Chain, FactoredModulus, bundled_chain

# ---------------------------------------------------------------------------
# shared frozen data


def _fm(*pairs):
    return FactoredModulus.from_prime_powers(tuple(pairs))


# single-step chains around the n=3 worked example: 2^7*5*17 and its extensions
FAMILY_FACTORS = {
    "m2": ((2, 7), (5, 1), (17, 1)),
    "m3": ((2, 7), (5, 1), (17, 1), (41, 1)),
    "m4": ((2, 7), (5, 1), (17, 1), (41, 1), (193, 1)),
    "m257": ((2, 7), (5, 1), (17, 1), (257, 1)),
}


def family_chain(key: str) -> Chain:
    return Chain.from_factors([_fm(*FAMILY_FACTORS[key])], direction="3=sum2")


# expected order data for the bundled t2 chain, one row per step index:
#   (ord2 of the factor, ord2 cumulative, coprime ord3 of the factor,
#    v2 of the cumulative coprime ord3)
# loop/coprime factor entries are None where the factor is a pure power of 2
# (the stripped modulus is 1, so the solver stores order 1 there).
T2_ORDER_DATA = {
    1: (3**2, 3**2, 3 * 2**2, 2),
    2: (2 * 3**2, 2 * 3**2, 9 * 2, 2),
    3: (2**2 * 3**2, 2**2 * 3**2, 27 * 2**2, 2),
    4: (2**3 * 3**2, 2**3 * 3**2, 135 * 2**3, 3),
    5: (2**3, 2**3 * 3**2, 2**4, 4),
    6: (None, 2**3 * 3**2, None, 4),
    7: (2**3 * 3**2, 2**3 * 3**2, 2421 * 2**3, 4),
    8: (2**4 * 3**2, 2**4 * 3**2, 3 * 2**4, 4),
    9: (2**4 * 3, 2**4 * 3**2, 21 * 2**8, 8),
    10: (None, 2**4 * 3**2, None, 8),
    11: (2**5 * 3**2, 2**5 * 3**2, 9 * 2**6, 8),
    12: (2**5 * 3**2, 2**5 * 3**2, 99 * 2**4, 8),
    13: (2**5, 2**5 * 3**2, 2**16, 16),
    14: (None, 2**5 * 3**2, None, 16),
    15: (2**6, 2**6 * 3**2, 5 * 2**7, 16),
    16: (2**7 * 3, 2**7 * 3**2, 3 * 2**4, 16),
    17: (2**7, 2**7 * 3**2, 153 * 2**5, 16),
    18: (2**8 * 3**2, 2**8 * 3**2, 9 * 2**9, 16),
    19: (2**9 * 3**2, 2**9 * 3**2, 99 * 2**9, 16),
    20: (2**10, 2**10 * 3**2, 37 * 2**16, 16),
    21: (2**11 * 3, 2**11 * 3**2, 2**9, 16),
    22: (2**12, 2**12 * 3**2, 119 * 2**13, 16),
    23: (2**13, 2**13 * 3**2, 7 * 2**14, 16),
    24: (2**14 * 3, 2**14 * 3**2, 101 * 2**12, 16),
    25: (2**15 * 3**2, 2**15 * 3**2, 9 * 2**16, 16),
    26: (2**15 * 3**2, 2**15 * 3**2, 419 * 2**20, 20),
    27: (None, 2**15 * 3**2, None, 20),
    28: (2**16 * 3**2, 2**16 * 3**2, 1305 * 2**15, 20),
    29: (2**17 * 3, 2**17 * 3**2, 2**16, 20),
    30: (2**18 * 3**2, 2**18 * 3**2, 27 * 2**18, 20),
    31: (2**19, 2**19 * 3**2, 2**20, 20),
    32: (2**20 * 3**2, 2**20 * 3**2, 27 * 2**19, 20),
    33: (2**12, 2**20 * 3**2, 39 * 2**8, 20),
    34: (2**21 * 3**2, 2**21 * 3**2, 43095 * 2**22, 22),
    35: (None, 2**21 * 3**2, None, 22),
    36: (2**22 * 3, 2**22 * 3**2, 73 * 2**24, 24),
    37: (None, 2**22 * 3**2, None, 24),
    38: (2**23 * 3, 2**23 * 3**2, 26715 * 2**21, 24),
    39: (2**24 * 3, 2**24 * 3**2, 11 * 2**22, 24),
    40: (2**24, 2**24 * 3**2, 5 * 2**25, 25),
    41: (None, 2**24 * 3**2, None, 25),
    42: (2**26 * 3, 2**26 * 3**2, 185 * 2**26, 26),
    43: (None, 2**26 * 3**2, None, 26),
    44: (2**26 * 3, 2**26 * 3**2, 27 * 2**28, 28),
    45: (None, 2**26 * 3**2, None, 28),
    46: (2**27 * 3, 2**27 * 3**2, 111 * 2**24, 28),
    47: (2**28 * 3, 2**28 * 3**2, 2**27, 28),
    48: (2**29 * 3, 2**29 * 3**2, 2**30, 30),
    49: (None, 2**29 * 3**2, None, 30),
    50: (2**30 * 3, 2**30 * 3**2, 849 * 2**30, 30),
    51: (2**31 * 3, 2**31 * 3**2, 3273 * 2**30, 30),
    52: (2**31, 2**31 * 3**2, 127589 * 2**33, 33),
    53: (None, 2**31 * 3**2, None, 33),
    # ord(3 mod 87211) is 2 * 2907 = 5814, confirmed by a full orbit walk;
    # the even factor matters for nothing downstream (v2 is dominated earlier)
    54: (2 * 3**3, 2**31 * 3**3, 2 * 2907, 33),
    55: (2**32 * 3**3, 2**32 * 3**3, 3 * 2**32, 33),
    56: (2**33 * 3**3, 2**33 * 3**3, 81 * 2**34, 34),
    57: (None, 2**33 * 3**3, None, 34),
    58: (2**34 * 3**3, 2**34 * 3**3, 1143 * 2**37, 37),
    59: (None, 2**34 * 3**3, None, 37),
    60: (2**35 * 3, 2**35 * 3**3, 2**33, 37),
    61: (2**37, 2**37 * 3**3, 5 * 2**39, 39),
    62: (None, 2**37 * 3**3, None, 39),
}

# same layout for the bundled t3 chain, with the bases swapped:
#   (ord3 of the factor, ord3 cumulative, coprime ord2 of the factor,
#    v3 of the cumulative coprime ord2); None rows are pure powers of 3.
T3_ORDER_DATA = {
    1: (3**2, 3**2, 28 * 3**3, 3),
    2: (2 * 3**2, 2 * 3**2, 4 * 3**2, 3),
    3: (2**2 * 3, 2**2 * 3**2, 4 * 3**2, 3),
    4: (2**2 * 3**2, 2**2 * 3**2, 91 * 3**6, 6),
    5: (None, 2**2 * 3**2, None, 6),
    6: (2**3 * 3, 2**3 * 3**2, 20 * 3**4, 6),
    7: (2**3 * 3**2, 2**3 * 3**2, 66430 * 3**12, 12),
    8: (None, 2**3 * 3**2, None, 12),
}


# ---------------------------------------------------------------------------
# fixtures


@pytest.fixture(scope="session")
def t2():
    return bundled_chain("t2.chain")


@pytest.fixture(scope="session")
def t3():
    return bundled_chain("t3.chain")


@pytest.fixture
def fresh_python():
    """Run Python source in a fresh interpreter that imports modchain from this
    checkout's src/, and return its stdout; a non-zero exit fails the test."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}

    def run(code: str) -> str:
        done = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        return done.stdout

    return run
