"""Golden behaviour pins: absolute record digests, committed.

Every other bit-identity test in the suite compares two runs built
from the *same* tree (level 2 vs reference, resumed vs unbroken,
observer on vs off), so a refactor that shifts both sides alike passes
them all.  This file pins what a run *is*: for each suite workload plus
``phased``, with monitoring off and with co-allocation + monitoring,
the sha256 of the canonical record JSON (provenance excluded — it
carries the code version) of the first 1.5 M cycles at the default
fastpath, no observers.

``tests/golden/digests.json`` changes only when simulated behaviour is
meant to change.  Regenerate it with::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

import hashlib
import json
import os

import pytest

from repro.harness import runner
from repro.harness.runner import RunSpec
from repro.workloads import suite

GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden",
                           "digests.json")
UNTIL_CYCLES = 1_500_000

CONFIGS = {
    "plain": dict(monitoring=False),
    "coalloc": dict(coalloc=True, monitoring=True),
}

CASES = [f"{name}/{config}" for name in suite.all_names() + ["phased"]
         for config in CONFIGS]


def digest(case: str) -> str:
    name, config = case.split("/")
    spec = RunSpec(name, until_cycles=UNTIL_CYCLES, **CONFIGS[config])
    doc = runner.record_from_result(spec, runner.execute(spec)).to_json()
    del doc["provenance"]
    return hashlib.sha256(
        json.dumps(doc, sort_keys=True).encode()).hexdigest()


def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def test_golden_file_covers_exactly_the_cases():
    assert sorted(load_golden()) == sorted(CASES)


@pytest.mark.parametrize("case", CASES)
def test_record_digest_matches_golden(case):
    assert digest(case) == load_golden()[case], (
        f"simulated behaviour of {case} changed; if that is intended, "
        f"regenerate with: python tests/test_golden_digests.py")


if __name__ == "__main__":
    os.makedirs(os.path.dirname(GOLDEN_PATH), exist_ok=True)
    with open(GOLDEN_PATH, "w") as fh:
        json.dump({case: digest(case) for case in CASES}, fh, indent=1,
                  sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(CASES)} digests to {GOLDEN_PATH}")
