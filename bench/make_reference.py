"""Regenerate reference.json: every input's outputs for the two reference seeds.

Run from the repository root, at a commit whose outputs are trusted:

    python3 bench/make_reference.py

Only the fields each workload lists in ``fields`` are stored; the benchmark
compares them one by one.
"""

import json
import re

from run import DEFAULT_SEED, HELD_OUT_SEED, REFERENCE, make_reference
from workloads import WORKLOADS


def dumps(reference: dict) -> str:
    """Indented JSON with each stored output on one line."""
    text = json.dumps(reference, indent=1)
    return re.sub(r"\{[^{}\[\]]*\}", lambda m: " ".join(m.group(0).split()), text) + "\n"


if __name__ == "__main__":
    REFERENCE.write_text(dumps(make_reference(WORKLOADS, (DEFAULT_SEED, HELD_OUT_SEED))))
