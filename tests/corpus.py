"""Corrupted-document corpus: one file per validation rule.

Each entry names the designated rule the document must trigger and the
exit codes `netconv validate` must return at the lenient and strict
levels (0 clean/warnings, 1 error findings).
"""

from __future__ import annotations

from pathlib import Path

CORRUPT_DIR = Path(__file__).parent / "data" / "corrupt"

# rule -> (lenient exit, strict exit)
CORPUS: dict[str, tuple[int, int]] = {
    "json-malformed": (1, 1),
    "member-missing": (1, 1),
    "version-unsupported": (1, 1),
    "member-type": (1, 1),
    "member-reserved": (1, 1),
    "org-invalid": (1, 1),
    "mode-invalid": (1, 1),
    "count-nodes-mismatch": (0, 1),
    "count-links-mismatch": (0, 1),
    "date-invalid": (1, 1),
    "dates-order": (1, 1),
    "dates-missing": (0, 0),
    "time-window-invalid": (1, 1),
    "tlab-key-invalid": (1, 1),
    "tlab-outside-window": (1, 1),
    "event-date-invalid": (1, 1),
    "event-title-empty": (1, 1),
    "id-invalid": (1, 1),
    "id-kind-mixed": (1, 1),
    "id-duplicate": (1, 1),
    "slab-longer-than-label": (1, 1),
    "interval-invalid": (1, 1),
    "node-unlisted": (1, 1),
    "endpoint-unresolved": (1, 1),
    "link-type-invalid": (1, 1),
    "relation-unlisted": (1, 1),
    "multirel-violated": (1, 1),
    "simple-violated": (1, 1),
    "directed-kind-mismatch": (0, 0),
    "tq-malformed": (1, 1),
    "tq-empty-interval": (1, 1),
    "tq-unsorted": (1, 1),
    "tq-overlap": (1, 1),
    "tq-outside-window": (1, 1),
    "tq-no-window": (0, 0),
    "tq-missing": (0, 1),
}


def corpus_path(rule: str) -> Path:
    return CORRUPT_DIR / f"{rule}.json"
