"""Fixtures for every test."""

import pytest


@pytest.fixture(scope="session", autouse=True)
def private_session_module_cache(tmp_path_factory):
    """A C module cache of the session's own, for fixtures of wider scope than
    a test, which run before ``private_module_cache``."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@pytest.fixture(autouse=True)
def private_module_cache(tmp_path_factory, monkeypatch):
    """An empty C module cache of the test's own (mindht._cgen keeps checked
    objects in ``$XDG_CACHE_HOME/mindht``), so no test reads or writes the
    user's cache and every load builds its module.  Subprocesses started with
    ``os.environ`` inherit it."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
