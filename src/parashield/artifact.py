"""The on-disk container of atomic-shield banks.

An artifact is an uncompressed `np.savez` archive: its kind, a format
version, the content hash of the abstraction it belongs to, and a fixed set of
named arrays.  It is read without pickle, and every way an existing file can
fail to be such an archive is reported as `ValueError`; a file for another
abstraction is reported as `AbstractionMismatch` before any array is read.
"""

from __future__ import annotations

import zipfile

import numpy as np

from .errors import AbstractionMismatch

FORMAT_VERSION = 1

_HEADER = ("kind", "version", "content_hash")


def write_artifact(path, kind, content_hash, arrays):
    """Write `arrays` (name -> array) to exactly `path`.

    The file handle keeps `np.savez` from appending `.npz` to the name.
    """
    with open(path, "wb") as f:
        np.savez(f, kind=np.str_(kind), version=np.int64(FORMAT_VERSION),
                 content_hash=np.str_(content_hash), **arrays)


def read_artifact(path, kind, content_hash, dtypes):
    """Read an artifact of `kind` for the abstraction with `content_hash`,
    holding exactly the arrays named in `dtypes` (name -> dtype); returns
    name -> array."""
    with open(path, "rb") as f:
        try:
            with np.load(f, allow_pickle=False) as z:
                if sorted(z.files) != sorted(_HEADER + tuple(dtypes)):
                    raise ValueError(f"{path}: members {sorted(z.files)} are not those of a {kind} file")
                if str(z["kind"]) != kind or str(z["version"]) != str(FORMAT_VERSION):
                    raise ValueError(f"{path}: not a version {FORMAT_VERSION} {kind} file")
                if str(z["content_hash"]) != content_hash:
                    raise AbstractionMismatch(f"{path}: {kind} was built for a different abstraction")
                arrays = {name: z[name] for name in dtypes}
        # zipfile reports damaged headers as these too (a flipped bit can
        # read as an unsupported compression method or as encryption)
        except (zipfile.BadZipFile, EOFError, OSError, RuntimeError) as e:
            raise ValueError(f"{path}: corrupt artifact ({e})") from e
    for name, dtype in dtypes.items():
        if arrays[name].dtype != dtype:
            raise ValueError(f"{path}: member {name} has dtype {arrays[name].dtype}, expected {np.dtype(dtype)}")
    return arrays
