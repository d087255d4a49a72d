"""An in-process runner for the command line, as the `runner` fixture."""

import contextlib
import io
import os
from typing import NamedTuple
from unittest import mock

import pytest


class Result(NamedTuple):
    exit_code: int
    output: str  # stdout
    stderr: str


class Runner:
    """Calls an entry point main(args) with stdout and stderr captured and
    the environment variables env set for the call.  A return is exit
    code 0, a SystemExit gives its code, and any other exception
    propagates."""

    @staticmethod
    def invoke(main, args, env=None):
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.dict(os.environ, env or {}), \
                contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            try:
                main(list(args))
                code = 0
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else (
                    0 if exc.code is None else 1)
        return Result(code, out.getvalue(), err.getvalue())


@pytest.fixture()
def runner():
    return Runner()
