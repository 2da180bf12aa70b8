import sys
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).parent))


@pytest.fixture
def rng():
    return np.random.default_rng(12345)


def unit_rows(rng, n, d):
    """Random unit row vectors."""
    z = rng.standard_normal((n, d))
    return z / np.linalg.norm(z, axis=1, keepdims=True)


@pytest.fixture
def make_unit_rows():
    return unit_rows


class _BreakingFile:
    """A file open for writing whose ``write`` raises ``exc`` once ``after``
    chunks are in; closing it keeps what was written."""

    def __init__(self, fh, exc, after):
        self.fh, self.exc, self.after = fh, exc, after

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self.fh.close()

    def write(self, chunk):
        if self.after == 0:
            raise self.exc
        self.after -= 1
        return self.fh.write(chunk)


@pytest.fixture
def break_writes(monkeypatch):
    """``break_writes(exc, files=1, after=1)``: the first ``files`` files
    (None: all) that ``store.write_file`` opens raise ``exc`` after
    ``after`` chunks, as a full disk or an interrupt would part-way. Files
    that ``store`` opens for reading are left alone."""
    from fairssl import store

    def install(exc, files=1, after=1):
        def breaking_open(path, mode="r", *args, **kwargs):
            nonlocal files
            fh = open(path, mode, *args, **kwargs)
            if files == 0 or not set(mode) & set("wax+"):
                return fh
            if files is not None:
                files -= 1
            return _BreakingFile(fh, exc, after)

        monkeypatch.setattr(store, "open", breaking_open, raising=False)

    return install
