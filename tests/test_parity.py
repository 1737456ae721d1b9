"""Byte parity of the CLI over the corpus in ``regen_parity.py``: every
command line's stdout, stderr and exit code hash to the value stored in
``fixtures/parity.json``.  A change that means to alter output reruns that
script and says in CHANGES.md which keys changed and why."""

import json

from regen_parity import PARITY, hashes


def test_cli_output_matches_parity_hashes(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAPHCSTAR_CAP_VERTICES", raising=False)
    monkeypatch.delenv("GRAPHCSTAR_CAP_PATHS", raising=False)
    want = json.loads(PARITY.read_text())
    got = hashes(tmp_path)
    assert list(got) == list(want), "the corpus changed; rerun tests/regen_parity.py"
    changed = [key for key in got if got[key] != want[key]]
    assert not changed, "output changed for:\n" + "\n".join(changed)
