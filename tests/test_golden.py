"""Replay the golden command corpus and compare it record by record.

A difference means a command's exit code, stdout, stderr or written files
changed.  If the change is intended, regenerate the corpus with
`python3 scripts/regen_golden.py` and say which outputs changed and why.
"""

import json

from golden_corpus import CORPUS, replay


def test_golden_corpus_replays_unchanged(tmp_path):
    expected = json.loads(CORPUS.read_text())
    got = replay(tmp_path)
    assert [r["argv"] for r in got] == [r["argv"] for r in expected]
    for want, have in zip(expected, got):
        assert have == want, " ".join(want["argv"])
