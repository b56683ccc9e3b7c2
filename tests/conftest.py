"""Session setup for the test suite."""

import shutil
import tempfile

import pytest
from hypothesis.configuration import set_hypothesis_home_dir

_HOME = pytest.StashKey[str]()


def pytest_configure(config):
    # hypothesis caches the constants it reads from local sources at
    # collection, even without an example database, under its home
    # directory (.hypothesis/ in the working directory by default); give it
    # a scratch directory for the session instead
    config.stash[_HOME] = tempfile.mkdtemp(prefix="hypothesis-")
    set_hypothesis_home_dir(config.stash[_HOME])


def pytest_unconfigure(config):
    set_hypothesis_home_dir(None)
    shutil.rmtree(config.stash[_HOME], ignore_errors=True)
