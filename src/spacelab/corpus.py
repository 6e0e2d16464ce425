"""The fixed, versioned corpus of set descriptions shipped with the repo.

Acceptance runs sweep these members; the list is ordered and append-only
so reports stay comparable across revisions.  Bump ``CORPUS_VERSION``
whenever a member is added or changed.
"""

from __future__ import annotations

import json
import os

from .errors import ValidationError
from .psets import PSetSpec, parse_spec

CORPUS_VERSION = 1

MEMBERS = (
    "full_shift",
    "multiples_2",
    "multiples_3",
    "multiples_5",
    "co_multiples_2",
    "co_multiples_3",
    "co_multiples_5",
    "squares",
    "co_squares",
    "fs_2_5",
    "delta_1_4_9_16_25",
    "diffset_fs_1_2_4_8_16",
    "bohr_golden_quarter",
    "union_m3_p15",
    "intersect_co2_co3",
)


def member_text(name: str) -> str:
    """Raw JSON text of one corpus member, read from ``corpus/`` beside
    this module (the package installs as plain files)."""
    if name not in MEMBERS:
        raise ValidationError(f"unknown corpus member {name!r}")
    path = os.path.join(os.path.dirname(__file__), "corpus", f"{name}.json")
    with open(path, encoding="ascii") as file:
        return file.read()


def load_member(name: str) -> PSetSpec:
    """Parse one corpus member into a description tree."""
    return parse_spec(json.loads(member_text(name)))


def iter_corpus() -> list:
    """All (name, spec) pairs in corpus order."""
    return [(name, load_member(name)) for name in MEMBERS]
