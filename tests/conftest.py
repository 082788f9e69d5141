"""Shared fixtures."""

from __future__ import annotations

import sys

import pytest


@pytest.fixture(params=["default", "off"])
def int_text_limit(request):
    """Python's integer-to-text limit at its default, or off (0), for one test.

    The limit in force before the test is restored after it.
    """
    if not hasattr(sys, "set_int_max_str_digits"):  # Python 3.10 before 3.10.7
        if request.param == "default":
            pytest.skip("this interpreter has no integer-to-text limit")
        yield 0
        return
    saved = sys.get_int_max_str_digits()
    limit = sys.int_info.default_max_str_digits if request.param == "default" else 0
    sys.set_int_max_str_digits(limit)
    try:
        yield limit
    finally:
        sys.set_int_max_str_digits(saved)
