"""Metadata-clean parquet reads of single files and file lists.

pandas-written parquet files carry a ``pandas`` schema-metadata blob;
pyarrow schemas WITH metadata are unhashable (``hash(schema)`` raises
``unhashable type: 'dict'``), which defeats Ray Data's block-schema
deduplication and spams "Failed to hash the schemas" warnings in every
operator that concatenates read blocks into batches — including the
fused ``ReadParquet->SplitBlocks`` operator itself, which hashes
schemas BEFORE any downstream map can strip them.  So the strip
happens at the source: the first file's footer schema is read once on
the driver, stripped, and passed as ``read_parquet(schema=...)`` —
every block the read emits is born with a clean, hashable schema.

A crawl's round-partitioned outputs are not read here:
``crawl.loop.read_rounds`` is their one reader.
"""

from __future__ import annotations

import pyarrow as pa


def read_parquet_clean(path, columns=None, **kwargs):
    """``path`` (a parquet file or a list of them) as a Dataset whose
    schema is the first file's footer schema without metadata, pruned
    to ``columns`` in their order."""
    import pyarrow.parquet as pq
    import ray.data as rd
    first = str(path[0] if isinstance(path, (list, tuple)) else path)
    schema = pq.read_schema(first).remove_metadata()
    if columns is not None:
        schema = pa.schema([schema.field(c) for c in columns])
    return rd.read_parquet(path, columns=columns, schema=schema, **kwargs)
