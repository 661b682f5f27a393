"""Tests for the package's public surface."""

import types

import pytest

import ccflab
import ccflab.operators


@pytest.mark.parametrize("module", [ccflab, ccflab.operators], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_report_is_the_module():
    assert isinstance(ccflab.report, types.ModuleType)
    assert callable(ccflab.report.build_summary)
    assert "report" not in ccflab.__all__
