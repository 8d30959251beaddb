"""Fixtures shared by the test modules."""

import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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


@pytest.fixture
def fresh_python():
    """``fresh_python(*args)`` runs ``python *args`` in a new interpreter that
    imports gl11 from this checkout's src/, and returns the finished process
    with its stdout and stderr as text.  This test process has imported every
    gl11 module; a new one shows what a command loads by itself."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))

    def run(*args):
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=120)

    return run
