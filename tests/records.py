"""Byte-level session-record comparison for the tests.

A record's shard encoding (:func:`repro.collection.shards.encode_shard`)
holds every stored field with its exact dtype, so two records are
identical exactly when their encodings are byte-identical.
"""

from repro.collection.shards import encode_shard


def record_arrays(record) -> dict:
    """The record as the arrays a one-session shard would store."""
    return encode_shard(record.service, [record])


def record_bytes(record) -> bytes:
    """Every stored array of ``record`` (name, dtype, shape, raw bytes)."""
    arrays = record_arrays(record)
    return b"".join(
        f"{name}:{arrays[name].dtype.str}:{arrays[name].shape}:".encode()
        + arrays[name].tobytes()
        for name in sorted(arrays)
    )
