"""Shared fixtures: every test starts with tiernet's memos empty."""

from __future__ import annotations

import importlib
import pkgutil

import pytest

import tiernet

# every functools.cache a tiernet module binds, found once
_MEMOS = [
    obj
    for info in pkgutil.iter_modules(tiernet.__path__)
    for obj in vars(importlib.import_module(f"tiernet.{info.name}")).values()
    if callable(getattr(obj, "cache_clear", None))
]


def _clear_memos() -> None:
    for memo in _MEMOS:
        memo.cache_clear()


@pytest.fixture(autouse=True)
def clear_memos():
    """Clear the memos before each test, so that one which monkeypatches a
    callee or an iteration cap sees its own calls whatever ran before it.
    A test that needs them cold again midway calls the returned function."""
    _clear_memos()
    return _clear_memos
