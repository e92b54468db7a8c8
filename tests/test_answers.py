"""The same answers as recorded: each preset's bank file and abstraction
content hash, and `compose` over fixed active sets.

The other tests check relations (composed == from scratch == brute force),
which a change that moves every answer consistently still passes.  These
digests pin the answers themselves.  A change that alters answers on purpose
updates `answers.json` and says which digests changed and why.  The active
sets were recorded once, from sensing along dynamic episodes, and are stored
as atomic ids, so a change to sensing does not change these inputs.
"""

import hashlib
import json
from pathlib import Path

import pytest

from parashield.shield import compose, save_bank

ANSWERS = json.loads((Path(__file__).with_name("answers.json")).read_text())


def table_digest(table):
    return hashlib.sha256(table.defined.tobytes() + table.masks.astype("<u8").tobytes()).hexdigest()


@pytest.mark.parametrize("preset", ["coarse", "medium", "fine"])
def test_bank_file_and_content_hash(preset, request, tmp_path):
    rt = request.getfixturevalue(f"{preset}_rt")
    want = ANSWERS["banks"][preset]
    assert rt.sys.content_hash == want["content_hash"]
    path = tmp_path / "bank.pshb"
    save_bank(rt.bank, path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (want["bytes"], want["sha256"])


@pytest.mark.parametrize("preset", ["coarse", "fine"])
def test_composed_tables(preset, request):
    rt = request.getfixturevalue(f"{preset}_rt")
    got = [table_digest(compose(rt.bank, e["active"]).table) for e in ANSWERS["compose"][preset]]
    assert got == [e["sha256"] for e in ANSWERS["compose"][preset]]
