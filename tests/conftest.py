import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture
def checks_in_process(monkeypatch):
    """Run every check of ``verify`` in this process, as it does where
    there is no ``os.fork``, so that what a test records of the checks'
    calls or of the values they intern sees all of them."""
    monkeypatch.delattr(os, "fork")
