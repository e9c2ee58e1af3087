"""Build dictionary snapshots from the reference's committed example
results (``/root/reference/examples/results/*_formatted.json``).

The JSON checkpoints are DATA (recorded lookup responses + decisions), not
code: each ``converted_ids[i]`` records the per-database ids and metadata
the live APIs returned for one raw id (``ConvertedId`` dynamic attributes,
ontology_formatter.py:45-102).  Loading them as a snapshot lets the engine
re-run resolution + formatting OFFLINE and compare bit-for-bit against the
committed ``*_formatted.tsv`` — the strongest available parity oracle.
The actual JSON-shape loader lives in ``state/reference_json.py`` (shared
with the reference-checkpoint ``--reformat`` migration path).
"""

from __future__ import annotations

import json
import os
from typing import Dict, List, Optional, Tuple

from ontology_matcher_ray.schemas import OntologySpec, SPECS
from ontology_matcher_ray.state.snapshot import DictionarySnapshot

REFERENCE_EXAMPLES = "/root/reference/examples"

# The reference commits NO symptom example (symptom/__init__.py:1: the
# OxO/OLS4 APIs can't provide symptom metadata yet), so C9 parity runs
# against a synthetic OLS4-shaped fixture whose expected TSV is derived
# BY HAND from the reference's default_format rules — see the fixture's
# embedded comment.
SYMPTOM_FIXTURE = os.path.join(os.path.dirname(__file__), "symptom_fixture")


def _examples_root(kind: str) -> str:
    return SYMPTOM_FIXTURE if kind == "symptom" else REFERENCE_EXAMPLES


def golden_json_path(kind: str) -> str:
    return os.path.join(_examples_root(kind), "results", f"{kind}_formatted.json")


def load_golden(kind: str) -> Dict:
    with open(golden_json_path(kind)) as f:
        return json.load(f)


def snapshot_from_golden(kind: str) -> Tuple[DictionarySnapshot, OntologySpec]:
    """Snapshot whose routing reproduces the recorded conversion result.

    Converted ids get their per-database lists; failed ids ("No results
    found") are simply ABSENT, which routes them to the same failure.
    """
    from ontology_matcher_ray.state.reference_json import snapshot_from_conversion

    spec = SPECS[kind]
    data = load_golden(kind)
    return snapshot_from_conversion(data, spec), spec


def golden_input_path(kind: str) -> str:
    return os.path.join(_examples_root(kind), f"{kind}.tsv")


def golden_formatted_path(kind: str) -> str:
    return os.path.join(_examples_root(kind), "results", f"{kind}_formatted.tsv")


def golden_paths(kind: str) -> Tuple[str, str, str]:
    """The files parity for ``kind`` reads: the recorded conversion JSON,
    the example input TSV and the committed formatted TSV."""
    return golden_json_path(kind), golden_input_path(kind), golden_formatted_path(kind)


def golden_available(kind: str) -> bool:
    """True only when all of ``golden_paths(kind)`` exist.  Symptom's files
    ship in the package; the other kinds' come from ``REFERENCE_EXAMPLES``."""
    return all(os.path.exists(p) for p in golden_paths(kind))
