#!/usr/bin/env python3
"""Regenerate tests/golden/corpus.json from the current code.

    PYTHONPATH=src python3 scripts/regen_golden.py

Replays every step of tests/golden_corpus.py in a temporary directory and
writes the records.  Regenerating changes what the Tier-1 test checks, so a
change that claims identical output must pass the corpus unchanged instead.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from golden_corpus import CORPUS, replay  # noqa: E402


def main():
    with tempfile.TemporaryDirectory() as tmp:
        records = replay(Path(tmp))
    CORPUS.parent.mkdir(parents=True, exist_ok=True)
    CORPUS.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    codes = sorted({r["exit"] for r in records})
    print(f"wrote {len(records)} records (exit codes {codes}) to {CORPUS}")


if __name__ == "__main__":
    main()
