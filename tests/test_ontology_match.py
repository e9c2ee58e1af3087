"""CLI-parity pipeline: entity TSV -> formatted/failed TSVs, with the
reference's reader semantics and checkpoint/reformat resume."""

import os

import pandas as pd
import pytest

from ontology_matcher_ray.pipelines.ontology_match import run_ontology_match
from ontology_matcher_ray.schemas import DISEASE_SPEC, Strategy
from ontology_matcher_ray.sources.io import FormatError, read_entity_file
from ontology_matcher_ray.state.fixtures import EXPECTED_ROUTE
from ontology_matcher_ray.state.golden import REFERENCE_EXAMPLES, golden_available
from ontology_matcher_ray.state.snapshot import get_snapshot
from tests.util import missing_golden

# the reference checkpoint the --reformat migration test copies
REFERENCE_DISEASE_JSON = os.path.join(
    REFERENCE_EXAMPLES, "results", "disease_formatted.json")


def write_input(path, rows):
    pd.DataFrame(rows).to_csv(path, sep="\t", index=False)


BASE_ROWS = [
    {"id": "MESH:D0000001", "name": "spark disease", "label": "Disease", "resource": "CTD"},
    {"id": "UMLS:C0000005", "name": "sort syndrome", "label": "Disease", "resource": "CTD"},
    {"id": "MESH:D0000006", "name": "filter illness", "label": "Disease", "resource": "CTD"},
    {"id": "MESH:D0000008", "name": "vector malady", "label": "Disease", "resource": "CTD"},
    {"id": "MONDO:0000012", "name": "hash join", "label": "Disease", "resource": "MONDO"},
]


def test_end_to_end_mixture(tmp_path):
    inp = tmp_path / "in.tsv"
    write_input(inp, BASE_ROWS)
    out = tmp_path / "out.tsv"
    formatted, failed = run_ontology_match(
        str(inp), str(out), get_snapshot(DISEASE_SPEC), DISEASE_SPEC
    )
    # mixture: every row lands in the formatted sink (rule 8 readmission)
    assert len(formatted) == 5
    assert len(failed) == 0
    by_raw = {}
    for _, r in formatted.iterrows():
        by_raw[r["id"]] = r
    assert "MONDO:0000001" in by_raw                     # canonical
    assert by_raw["MONDO:0000001"]["raw_id"] == "MESH:D0000001"
    assert by_raw["MONDO:0000001"]["xrefs"] == "DOID:0000019|MESH:D0000001"
    assert "UMLS:C0000005" in by_raw                     # ok_raw keeps raw id
    assert by_raw["UMLS:C0000005"]["raw_id"] == ""
    assert "MESH:D0000006" in by_raw                     # multi-default readmitted
    assert by_raw["MESH:D0000006"]["xrefs"] == ""
    assert "MESH:D0000008" in by_raw                     # no-results readmitted
    assert os.path.exists(out)


def test_unique_strategy_routes_failures_to_failed_sink(tmp_path):
    inp = tmp_path / "in.tsv"
    write_input(inp, BASE_ROWS)
    out = tmp_path / "out.tsv"
    formatted, failed = run_ontology_match(
        str(inp), str(out), get_snapshot(DISEASE_SPEC), DISEASE_SPEC,
        strategy=Strategy.UNIQUE,
    )
    # UNIQUE: failed ids whose prefix != default go to the failed sink
    assert set(failed["id"]) == {"MESH:D0000006", "MESH:D0000008"}
    assert set(failed["reason"]) == {"Multiple results found", "No results found"}
    assert os.path.exists(str(out).replace(".tsv", ".failed.tsv"))


def test_reformat_resume_from_checkpoint(tmp_path):
    inp = tmp_path / "in.tsv"
    write_input(inp, BASE_ROWS)
    ckpt = str(tmp_path / "ckpt")
    f1, _ = run_ontology_match(
        str(inp), str(tmp_path / "o1.tsv"), get_snapshot(DISEASE_SPEC), DISEASE_SPEC,
        checkpoint_dir=ckpt,
    )
    assert os.path.isdir(ckpt)
    # reformat: resolution skipped, format re-runs from the checkpoint
    f2, _ = run_ontology_match(
        str(inp), str(tmp_path / "o2.tsv"), get_snapshot(DISEASE_SPEC), DISEASE_SPEC,
        checkpoint_dir=ckpt, reformat=True,
    )
    pd.testing.assert_frame_equal(
        f1.sort_values("id").reset_index(drop=True),
        f2.sort_values("id").reset_index(drop=True),
    )


def test_reader_drops_null_ids_and_validates_columns(tmp_path):
    p = tmp_path / "in.tsv"
    with open(p, "w") as f:
        f.write("id\tname\tlabel\tresource\n")
        f.write("MESH:D1\tx\tDisease\tCTD\n")
        f.write("\ty\tDisease\tCTD\n")            # null id -> dropped
    ds = read_entity_file(str(p))
    assert ds.count() == 1

    bad = tmp_path / "bad.tsv"
    with open(bad, "w") as f:
        f.write("id\tname\n")
        f.write("MESH:D1\tx\n")
    with pytest.raises(FormatError, match="missed columns"):
        read_entity_file(str(bad))


@pytest.mark.skipif(
    not os.path.exists(REFERENCE_DISEASE_JSON),
    reason=f"reference checkpoint missing: {REFERENCE_DISEASE_JSON}",
)
@pytest.mark.skipif(
    not golden_available("disease"),
    reason=f"golden files missing: {', '.join(missing_golden('disease'))}",
)
def test_reformat_resumes_from_reference_json_checkpoint(tmp_path):
    """S4/S5 migration: --reformat with a reference <out>.json checkpoint
    (CustomJSONDecoder shapes, ontology_formatter.py:105-171) next to the
    output must reproduce the committed conversion WITHOUT any dictionary
    snapshot of its own — proof the recorded decisions drive resolution."""
    import shutil

    import pandas as pd

    from ontology_matcher_ray.pipelines.ontology_match import run_ontology_match
    from ontology_matcher_ray.schemas import DISEASE_SPEC
    from ontology_matcher_ray.state.golden import (
        golden_formatted_path,
        golden_input_path,
    )
    from ontology_matcher_ray.state.snapshot import DictionarySnapshot

    out = str(tmp_path / "disease_out.tsv")
    shutil.copy(
        "/root/reference/examples/results/disease_formatted.json",
        str(tmp_path / "disease_out.json"),
    )
    empty = DictionarySnapshot()        # deliberately no dictionary at all
    formatted, failed = run_ontology_match(
        golden_input_path("disease"), out, empty, DISEASE_SPEC,
        reformat=True, checkpoint_dir=str(tmp_path / "nonexistent_ckpt"),
    )
    assert len(failed) == 0
    want = pd.read_csv(golden_formatted_path("disease"), sep="\t", dtype=str).fillna("")
    assert sorted(formatted["id"]) == sorted(want["id"])
    got = formatted.fillna("").astype(str).set_index("id").sort_index()
    w = want.set_index("id").sort_index()
    # spot-check full cells on pipe columns as sets (reference set-order)
    for rid in got.index:
        for col in ("name", "raw_id"):
            assert got.loc[rid, col] == w.loc[rid, col], (rid, col)
        for col in ("synonyms", "xrefs", "pmids"):
            assert (
                frozenset(p for p in got.loc[rid, col].split("|") if p)
                == frozenset(p for p in w.loc[rid, col].split("|") if p)
            ), (rid, col)
