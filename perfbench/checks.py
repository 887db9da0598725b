"""Output checks: canonical outcome digests and model-independent invariants."""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Dict, Iterable, List, Optional

#: Recorded digests, ``{workload: {seed: {cell_id: digest prefix}}}``.
REFERENCES_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "references.json")


#: Hex digits of each digest kept in the references (64 bits).
REFERENCE_HEX = 16


def digest(outcome: Any) -> str:
    """sha256 of the outcome's canonical JSON (sorted keys, no spaces).

    Floats print with ``repr`` precision, so two outcomes share a
    digest only when every simulated number is bit-identical.
    """
    text = json.dumps(outcome, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def invariant_errors(kind: str, facts: Dict[str, Any]) -> List[str]:
    """Model-independent checks every cell must pass, at every seed."""
    errors = []
    expected = facts.get("expected_completed")
    if expected is not None and facts["completed"] < expected:
        errors.append(
            f"measured window has {facts['completed']} commits, expected {expected}"
        )
    resilience = facts.get("resilience")
    if resilience is not None:
        resolved = (
            resilience["completed"] + resilience["timed_out"]
            + resilience["shed"] + resilience["in_flight"]
        )
        if resilience["admitted"] != resolved:
            errors.append(
                f"resilience admitted {resilience['admitted']} != completed + "
                f"timed_out + shed + in_flight = {resolved}"
            )
    distributed = facts.get("distributed")
    if distributed is not None and distributed["atomicity_violations"]:
        errors.append(
            f"2PC atomicity violations: {distributed['atomicity_violations']!r}"
        )
    if kind == "tune" and not facts.get("converged"):
        errors.append("MPL tuning did not converge")
    return errors


def load_references() -> Dict[str, Dict[str, Dict[str, str]]]:
    with open(REFERENCES_PATH, "r", encoding="utf-8") as handle:
        return json.load(handle)


def reference_for(
    references: Dict[str, Dict[str, Dict[str, str]]], workload: str, seed: int
) -> Optional[Dict[str, str]]:
    """The recorded cell digests for ``(workload, seed)``, if any."""
    return references.get(workload, {}).get(str(seed))


def digest_errors(
    ran: Iterable[str], digests: Dict[str, str], expected: Dict[str, str], label: str
) -> Dict[str, List[str]]:
    """Per-cell errors of a pass checked against ``expected`` digests.

    ``ran`` holds the ids of the cells the pass ran, ``digests`` the
    digest of each that produced an outcome.  ``expected`` may hold
    digest prefixes (the recorded references).  A cell of ``expected``
    that did not run fails, and so does a cell that ran but is not in
    ``expected``: a workload that lost or renamed cells does less work,
    and must not pass for a faster one.
    """
    ran = list(ran)
    errors: Dict[str, List[str]] = {}
    for cell_id in ran:
        if cell_id not in expected:
            errors[cell_id] = [f"cell is not in {label}"]
    ran_ids = set(ran)
    for cell_id, want in expected.items():
        if cell_id not in ran_ids:
            errors[cell_id] = [f"cell of {label} did not run"]
            continue
        got = digests.get(cell_id)
        if got is not None and not got.startswith(want):
            errors[cell_id] = [f"outcome digest {got[:16]} differs from {label} {want[:16]}"]
    return errors
