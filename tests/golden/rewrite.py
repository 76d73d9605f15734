"""Recompute ``digests.json`` from the checkout's ``src/``.

    python tests/golden/rewrite.py

Run it only for a change that means to move a report, and name every moved
digest in the change's notes.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parents[1] / "src"))
sys.path.insert(0, str(HERE))

import corpus  # noqa: E402


def main() -> int:
    old = corpus.load() if corpus.DIGESTS.exists() else {}
    new = {}
    for run_id, scenario, instances, seed in corpus.runs():
        sha, code = corpus.digest(scenario(), instances, seed)
        new[run_id] = {"sha256": sha, "exit": code}
        if old.get(run_id) != new[run_id]:
            print(f"{run_id}: {old.get(run_id)} -> {new[run_id]}")
    corpus.DIGESTS.write_text(json.dumps(new, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
