"""Every CLI output of the golden corpus in tests/golden, made again and compared with it.

On the OpenBLAS kernel that made the corpus (``core.txt``) the outputs must
match byte for byte.  Another kernel rounds the same products differently,
so there every number must lie within ``KERNEL_BOUND`` of its golden value,
plus one unit in the last digit printed, and the rest of the text must
match.  The capped optimize path is chaotic in the gradient's last bits, so
on another kernel it is skipped.  A change that alters an output on purpose
remakes the corpus with ``tests/golden/make_golden.py``.
"""

import os
import re

import pytest

from conftest import KERNEL_BOUND, corename
from golden.make_golden import CASES, CORE_FILE, GOLDEN, argv, outputs

from usctransfer import cli

RECORDED_CORE = (GOLDEN / CORE_FILE).read_text().strip()
NUMBER = re.compile(r"-?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|nan|inf)")


def last_digit(text: str) -> float:
    """One unit in the last printed digit of a number's text, 0 for an integer or a non-finite value."""
    mantissa, _, exponent = text.lower().partition("e")
    if "." not in mantissa and not exponent:
        return 0.0
    decimals = len(mantissa.partition(".")[2])
    return 10.0 ** (int(exponent or 0) - decimals)


def assert_within_kernel_bound(got: str, want: str, name: str) -> None:
    assert NUMBER.sub("#", got) == NUMBER.sub("#", want), f"{name}: the text around the numbers differs"
    for a, b in zip(NUMBER.findall(got), NUMBER.findall(want)):
        tolerance = KERNEL_BOUND + max(last_digit(a), last_digit(b))
        assert a == b or abs(float(a) - float(b)) <= tolerance, f"{name}: {a} against {b}"


@pytest.mark.parametrize("case", list(CASES))
def test_output_matches_the_golden_corpus(case, tmp_path, monkeypatch):
    same_core = str(corename()) == RECORDED_CORE
    if case == "optimize" and not same_core:
        pytest.skip(f"the corpus was made on {RECORDED_CORE}, this is {corename()}: the capped optimize path is "
                    "chaotic in the gradient's last bits, so another kernel's run is not comparable")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)  # optimize forks no pool
    assert cli.main(argv(case, tmp_path)) == 0
    for name in outputs(case):
        got, want = (tmp_path / name).read_text(), (GOLDEN / name).read_text()
        if same_core:
            assert got == want, f"{name} differs from the golden corpus"
        else:
            assert_within_kernel_bound(got, want, name)
