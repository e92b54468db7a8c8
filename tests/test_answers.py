"""The same answers as recorded: each preset's bank file and abstraction
content hash, the tables the boxed abstraction derives, `compose` and
`pure_online_shield` over fixed active sets, and `shield_apply` decisions on
the composed shields.

The other tests check relations (composed == from scratch == brute force),
which a change that moves every answer consistently still passes.  These
digests pin the answers themselves.  A change that alters answers on purpose
updates `answers.json` and says which digests changed and why.  The active
sets were recorded once, from sensing along dynamic episodes, and are stored
as atomic ids, so a change to sensing does not change these inputs; the
`shield_apply` cells and proposals are stored as they are asked.
"""

import hashlib
import json
from pathlib import Path

import pytest

from parashield.shield import compose, pure_online_shield, save_bank, shield_apply

ANSWERS = json.loads((Path(__file__).with_name("answers.json")).read_text())

# the arrays `BoxedAbstraction.__init__` derives from the offsets
ABSTRACTION_TABLES = ("stays", "reach_radius", "_xy_kernels", "_kernel_inputs", "_plane_pos",
                      "_plane_steps", "_pred_keys", "_pred_on_grid", "_pred_masks")
PURE_ONLINE_SETS = 5    # pure_online_shield and shield_apply use the first recorded sets


def table_digest(table):
    return hashlib.sha256(table.defined.tobytes() + table.masks.astype("<u8").tobytes()).hexdigest()


def array_digest(a):
    """Digest of an array's dtype, shape and bytes in C order."""
    return hashlib.sha256(f"{a.dtype.str} {a.shape} ".encode() + a.tobytes()).hexdigest()


def abstraction_digests(sys):
    return {name: array_digest(getattr(sys, name)) for name in ABSTRACTION_TABLES}


@pytest.mark.parametrize("preset", ["coarse", "medium", "fine"])
def test_bank_file_and_content_hash(preset, request, tmp_path):
    rt = request.getfixturevalue(f"{preset}_rt")
    want = ANSWERS["banks"][preset]
    assert rt.sys.content_hash == want["content_hash"]
    path = tmp_path / "bank.pshb"
    save_bank(rt.bank, path)
    data = path.read_bytes()
    assert (len(data), hashlib.sha256(data).hexdigest()) == (want["bytes"], want["sha256"])


@pytest.mark.parametrize("preset", ["coarse", "medium", "fine"])
def test_abstraction_tables(preset, request):
    rt = request.getfixturevalue(f"{preset}_rt")
    assert abstraction_digests(rt.sys) == ANSWERS["abstraction"][preset]


@pytest.mark.parametrize("preset", ["coarse", "fine"])
def test_composed_tables(preset, request):
    rt = request.getfixturevalue(f"{preset}_rt")
    got = [table_digest(compose(rt.bank, e["active"]).table) for e in ANSWERS["compose"][preset]]
    assert got == [e["sha256"] for e in ANSWERS["compose"][preset]]


@pytest.mark.parametrize("preset", ["coarse", "fine"])
def test_pure_online_tables(preset, request):
    rt = request.getfixturevalue(f"{preset}_rt")
    got = [table_digest(pure_online_shield(rt.sys, [rt.bank.safes[i] for i in e["active"]]).table)
           for e in ANSWERS["compose"][preset][:PURE_ONLINE_SETS]]
    assert got == ANSWERS["pure_online"][preset]


@pytest.mark.parametrize("preset", ["coarse", "fine"])
def test_shield_apply_decisions(preset, request):
    rt = request.getfixturevalue(f"{preset}_rt")
    shields = [compose(rt.bank, e["active"]) for e in ANSWERS["compose"][preset][:PURE_ONLINE_SETS]]
    cases = ANSWERS["shield_apply"][preset]
    got = [shield_apply(shields[c["set"]], c["cell"], c["proposal"]) for c in cases]
    assert [[d.u_index, d.intervened] for d in got] == [[c["u_index"], c["intervened"]] for c in cases]
