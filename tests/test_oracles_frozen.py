"""The frozen references stay frozen.

Each ``tests/*_oracle.py`` is a copy of engine code as it was before a
rewrite, and the differentials that import it are only as good as that
copy.  This pins the SHA-256 of each file's bytes, with ``\\r\\n`` read as
``\\n`` so that a checkout's line endings do not matter.  An edited
oracle fails here, and so does a new one that is not yet pinned.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import pytest

TESTS = Path(__file__).parent

PINNED = {
    "codec_oracle.py": "1d2ee960611f25918a2a95c56a0d8e60a9f60617705d8dbe3d4649f34ccf5699",
    "delta_codec_oracle.py": "efcc3d170a862071e5bf511b4fbc1538fd875bc6a0c6b5726eec518a98038519",
    "delta_report_oracle.py": "192d672c70fcd04bc0478053e23c899db185e030071692cca94efe95a4af26ca",
    "digest_oracle.py": "8c0eb6f98a4c11cb1c231e13ac5e3822e1dbbabb4edac6ad42d54becc64fdb83",
    "formula_oracle.py": "8cee91e19e1bd8d5aa0418811cddb6cc0ef2ab311e4576780c442a8f6ee8d97b",
    "population_oracle.py": "97c7036a80119298acd2d25514c8957456fe23b0c9a38dbb8ba349812f88887a",
    "report_codec_oracle.py": "4da39c6ad5461fa0da74ff99b79710603b5775a43a54ebaa2595541e6740d97c",
    "runstore_oracle.py": "0b48f65aa02c0fd2d35344d1665c5919e8d3df2161e343f9e96684ceabe2947e",
    "sampling_oracle.py": "13ce6a9f301d1da5d09674cdd05be5b043db9189b85621a7d9c9a84a8c87afdb",
    "validation_oracle.py": "52fce204be29a34fc9809c6f4eb2ef4bd75c7166af4d1d6f90d48eddd95d6255",
}


def test_every_oracle_is_pinned():
    assert sorted(path.name for path in TESTS.glob("*_oracle.py")) == sorted(PINNED)


@pytest.mark.parametrize("name", sorted(PINNED))
def test_oracle_bytes_are_unchanged(name):
    text = (TESTS / name).read_bytes().replace(b"\r\n", b"\n")
    assert hashlib.sha256(text).hexdigest() == PINNED[name]
