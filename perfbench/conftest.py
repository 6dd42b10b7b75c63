"""Keeps the micro-benchmarks out of plain test runs; select them with -m micro."""

import pytest


def pytest_configure(config):
    config.addinivalue_line(
        "markers", "micro: pytest-benchmark micro-benchmark, selected with -m micro")


def pytest_collection_modifyitems(config, items):
    if "micro" in (config.getoption("markexpr") or ""):
        return
    skip = pytest.mark.skip(reason="micro-benchmark; select with -m micro")
    for item in items:
        if item.get_closest_marker("micro"):
            item.add_marker(skip)
