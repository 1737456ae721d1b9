"""Byte parity of the CLI over the corpus in ``regen_parity.py``: every
command line's stdout, stderr and exit code hash to the value stored in
``fixtures/parity.json``.  A change that means to alter output reruns that
script and says in CHANGES.md which keys changed and why.  On a failure the
message shows the first changed command line's exit code and the first
lines of its stdout and stderr."""

import json

from regen_parity import PARITY, digest, outcomes


def test_cli_output_matches_parity_hashes(tmp_path, monkeypatch):
    monkeypatch.delenv("GRAPHCSTAR_CAP_VERTICES", raising=False)
    monkeypatch.delenv("GRAPHCSTAR_CAP_PATHS", raising=False)
    want = json.loads(PARITY.read_text())
    results = outcomes(tmp_path)
    got = {key: digest(result) for key, result in results.items()}
    assert list(got) == list(want), "the corpus changed; rerun tests/regen_parity.py"
    changed = [key for key in got if got[key] != want[key]]
    assert not changed, "output changed for:\n" + "\n".join(changed) + _shown(changed[0], results)


def _shown(key, results, lines=5):
    """The exit code and the first ``lines`` lines of stdout and stderr that
    ``key`` gives now."""
    out, err, code = results[key]
    return "".join([f"\n\nnow, for {key}: exit code {code}",
                    *(f"\n{name}:\n" + "\n".join(text.splitlines()[:lines])
                      for name, text in (("stdout", out), ("stderr", err)))])
