"""Test helpers: normalize Ray/DuckDB results and compare them the way the
driver's correctness gate does (row count + schema + order-insensitive
values, columns aligned by sorted name), and build golden-parity entity
kinds one at a time."""

from __future__ import annotations

import os

import duckdb
import pandas as pd
import pytest

from ontology_matcher_ray.state.golden import golden_available, golden_paths


def to_pandas(result) -> pd.DataFrame:
    if isinstance(result, pd.DataFrame):
        return result
    if hasattr(result, "to_pandas"):
        return result.to_pandas()
    raise TypeError(type(result))


def run_oracle(sql: str, sf_dir: str) -> pd.DataFrame:
    con = duckdb.connect()
    for name in [
        "region", "nation", "customer", "supplier", "part", "orders",
        "lineitem", "events", "documents", "embeddings",
    ]:
        con.sql(
            f"CREATE VIEW {name} AS SELECT * FROM read_parquet('{sf_dir}/{name}.parquet')"
        )
    return con.sql(sql).df()


def normalize(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    for c in df.columns:
        if df[c].dtype == object:
            df[c] = df[c].astype(str)
        elif str(df[c].dtype).startswith(("int", "uint", "Int")):
            df[c] = df[c].astype("int64")
        elif df[c].dtype == bool:
            df[c] = df[c].astype(bool)
    return df.sort_values(list(df.columns), kind="mergesort").reset_index(drop=True)


def _dtype_class(dt) -> str:
    s = str(dt)
    if s.startswith(("int", "uint", "Int")):
        return "int"
    if s.startswith("float"):
        return "float"
    if "datetime" in s:
        return "datetime"
    return "object"


def assert_matches_oracle(ray_result, sql: str, sf_dir: str):
    raw_got = to_pandas(ray_result)
    raw_want = run_oracle(sql, sf_dir)
    # dtype CLASSES must match BEFORE normalization: the driver hashes
    # raw values, so an engine int64 against an oracle float64 (e.g.
    # DuckDB's SUM -> HUGEINT -> float64 promotion) hash-mismatches even
    # when the values are numerically equal — catch that here instead of
    # letting the lenient normalize mask it.
    for c in set(raw_got.columns) & set(raw_want.columns):
        gk, wk = _dtype_class(raw_got[c].dtype), _dtype_class(raw_want[c].dtype)
        assert gk == wk, (
            f"dtype class differs on {c!r}: engine {raw_got[c].dtype} vs "
            f"oracle {raw_want[c].dtype} — cast the aggregate in the SQL"
        )
    got = normalize(raw_got)
    want = normalize(raw_want)
    assert list(got.columns) == list(want.columns), (
        f"columns differ: {list(got.columns)} vs {list(want.columns)}"
    )
    assert len(got) == len(want), f"row count differs: {len(got)} vs {len(want)}"
    pd.testing.assert_frame_equal(got, want, check_dtype=False, check_exact=True)


def missing_golden(*kinds: str) -> list:
    """The golden files of ``kinds`` that are not on disk."""
    return [p for k in kinds for p in golden_paths(k) if not os.path.exists(p)]


class PerKind(dict):
    """Module-fixture cache of golden-parity outputs: ``self[kind]`` builds
    that one kind on first access via ``build(kind)``, and skips the asking
    test, naming the missing files, when the kind's golden files are absent."""

    def __init__(self, build):
        super().__init__()
        self._build = build

    def __missing__(self, kind):
        if not golden_available(kind):
            pytest.skip(f"golden files missing: {', '.join(missing_golden(kind))}")
        self[kind] = value = self._build(kind)
        return value
