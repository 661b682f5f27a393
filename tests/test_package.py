"""Tests for the package's public surface."""

import pytest

import ccflab
import ccflab.operators


@pytest.mark.parametrize("module", [ccflab, ccflab.operators], ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []
