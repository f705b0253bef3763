"""Output checks: a pass's outputs against the committed goldens and the
reference digests stored with the benchmark.

A simulator-only speed-up must leave every simulated output identical, so
any difference is a failed check.  References were recorded at seed 0;
parts whose inputs follow the seed (:data:`workloads.SEEDED_PARTS`) are
checked against them only at seed 0, and at other seeds only by the
program's own expectations plus the recorded digest.

To re-record after a deliberate model change::

    python3 perfbench/run.py --workload <name> --seed 0 --write-refs
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from perfbench.workloads import SEEDED_PARTS, Outcome

REFERENCES = Path(__file__).resolve().parent / "references.json"


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def digests(outcome: Outcome) -> dict[str, str]:
    return {part: digest(text) for part, text in outcome.parts.items()}


def combined_digest(outcome: Outcome) -> str:
    """One digest over every part, so two runs compare at a glance."""
    return digest(json.dumps(digests(outcome), sort_keys=True))


def load_references() -> dict:
    return json.loads(REFERENCES.read_text()) if REFERENCES.is_file() else {}


def write_references(workload: str, outcome: Outcome) -> None:
    refs = load_references()
    refs[workload] = digests(outcome)
    REFERENCES.write_text(json.dumps(refs, indent=2, sort_keys=True) + "\n")


def verify(
    workload: str, seed: int, outcome: Outcome, references: dict, goldens: Path
) -> dict[str, bool]:
    """Every check on one pass: its own plus references and goldens."""
    checks = dict(outcome.checks)
    seeded = SEEDED_PARTS[workload] if seed != 0 else ()
    refs = references.get(workload, {})
    for part, text in outcome.parts.items():
        if part not in seeded:
            checks[f"{part}: output matches reference digest"] = (
                refs.get(part) == digest(text)
            )
    # A part the references hold but the pass did not produce is lost work,
    # which would otherwise show only as a faster pass.  Every seed produces
    # the same parts, so this applies to seeded parts too.
    for part in refs:
        if part not in outcome.parts:
            checks[f"{part}: output produced"] = False
    if workload == "paper":
        checks["goldens directory present"] = goldens.is_dir()
        for path in sorted(goldens.glob("*.txt")):
            name = path.stem
            if name in seeded:
                continue
            text = outcome.rendered.get(name)
            checks[f"{name}: output byte-identical to golden"] = (
                text is not None and (text + "\n\n").encode() == path.read_bytes()
            )
    return checks
