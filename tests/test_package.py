"""Tests for the package's public surface."""

import quadprimes


def test_every_export_resolves():
    missing = [name for name in quadprimes.__all__ if not hasattr(quadprimes, name)]
    assert missing == []
