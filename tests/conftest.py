"""Fixtures shared by the test modules."""

import pytest


@pytest.fixture
def count_calls(monkeypatch):
    """``count_calls(owner, name, calls=None)`` replaces ``owner.name`` (a module
    function or a plain method) by a wrapper that appends the positional
    arguments of each call to ``calls`` before the original runs, and returns
    ``calls``, a new list when none is given.  Passing one list to several
    wrappers counts them together; the originals come back after the test."""
    def count(owner, name, calls=None):
        calls = [] if calls is None else calls
        real = getattr(owner, name)

        def wrapper(*args, **kw):
            calls.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(owner, name, wrapper)
        return calls

    return count
