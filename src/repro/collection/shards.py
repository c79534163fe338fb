"""Sharded (format-4) corpora: the one on-disk corpus format.

A format-4 corpus is a *directory*::

    corpus.shards/
        manifest.json        # format, service, per-shard counts/digests
        shard-00000.npz      # chunked columnar block, npz-backed
        shard-00001.npz
        ...

Each shard packs a fixed run of sessions as plain numpy arrays — one
:class:`~repro.tlsproxy.table.TransactionTable` slab for the TLS
columns (the struct-of-arrays layout, SNI dictionary-encoded) plus
flat+offset encodings of the per-session HTTP/transfer/connection
arrays and scalar columns.  ``np.savez`` stores the raw bytes, and
``np.load`` decompresses only the members a reader touches.  Every read
goes through one :class:`ShardReader` per shard, which loads the named
members with one ``np.load`` and checks each against the shard's
manifest entry, so reading a shard's label column never decompresses
its transactions, and a corrupt member is named, never misread.

The manifest carries per-shard session counts, per-target label
distributions, and the SHA-256 digest of every shard file.  Its
canonical-JSON digest (:attr:`~repro.collection.dataset.Dataset.manifest_digest`)
is the corpus's content address and is what downstream
:mod:`repro.artifacts` fingerprints hang off — a warm pipeline run
reads nothing but the manifest.

Write protocol (crash safety), shared by :func:`save_sharded` and the
collector (:func:`repro.collection.harness.collect_corpus`):
:func:`open_shard_dir` refuses an output path that is a file and
removes any old manifest; shard files then land, each atomically
(temp + ``os.replace``); :func:`commit_shard_dir` removes shard files
the new manifest does not list and writes the manifest **last**.  A
crash mid-write therefore leaves a directory without a manifest, which
:func:`read_manifest` reports as an incomplete corpus — never a
silently short one.

A block is the dict :func:`encode_shard` writes, and a corpus
(:class:`~repro.collection.dataset.Dataset`) is a sequence of blocks,
each behind one :class:`ShardReader`: a stored corpus has one per
shard file, and an in-memory one holds its single block's members
(:func:`held_block`).  Column readers read members block by block and
build no records; :func:`record_at` builds one session's
:class:`~repro.collection.dataset.SessionRecord` from a block's
members.  Either way peak memory is bounded by the block size, not the
corpus size.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence
import zipfile
import zlib

import numpy as np

from repro import telemetry
from repro.artifacts import atomic_write_bytes
from repro.config import DEFAULT_SHARD_SIZE, get_config
from repro.qoe.labels import TARGETS, SessionLabels
from repro.tlsproxy.table import TransactionTable, segment_sum

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.collection.dataset import Dataset, SessionRecord

__all__ = [
    "DEFAULT_SHARD_SIZE",
    "MANIFEST_NAME",
    "SESSION_COLUMNS",
    "CorpusPathError",
    "ShardEntry",
    "ShardReader",
    "column_dtype",
    "commit_shard_dir",
    "held_block",
    "label_member",
    "open_shard_dir",
    "read_manifest",
    "record_at",
    "resolve_shard_size",
    "save_sharded",
    "shard_bounds",
    "shard_name",
    "transfer_block",
    "write_shard",
    "write_shards",
]

#: The manifest file every format-4 corpus directory must contain.
MANIFEST_NAME = "manifest.json"

#: Shard file naming (index -> file name).
_SHARD_NAME_FMT = "shard-{:05d}.npz"

#: The entry name of an in-memory corpus's one block.
_HELD_BLOCK_NAME = "held-block"


def shard_name(index: int) -> str:
    """Canonical shard file name for a shard index."""
    return _SHARD_NAME_FMT.format(index)


def resolve_shard_size(shard_size: int | None = None) -> int:
    """Sessions per shard: the argument, else ``REPRO_SHARD_SIZE``
    (default :data:`~repro.config.DEFAULT_SHARD_SIZE`)."""
    if shard_size is None:
        shard_size = get_config().shard_size
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return int(shard_size)


def shard_bounds(n_sessions: int, shard_size: int) -> list[tuple[int, int]]:
    """``[lo, hi)`` session ranges of each shard, in shard order."""
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    return [
        (lo, min(lo + shard_size, n_sessions))
        for lo in range(0, n_sessions, shard_size)
    ]


class CorpusPathError(ValueError):
    """A corpus output path is a file, or the corpus being read."""


def _format_error(root: Path, message: str) -> Exception:
    from repro.collection.dataset import DatasetFormatError

    return DatasetFormatError(f"corrupt sharded corpus {root}: {message}")


# ----------------------------------------------------------------------
# Shard block codec: list[SessionRecord] <-> dict of arrays


def _str_array(values: Sequence[str]) -> np.ndarray:
    if not values:
        return np.empty(0, dtype="<U1")
    return np.asarray(list(values), dtype=np.str_)


def _offsets_of(counts: Iterable[int], n: int) -> np.ndarray:
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.fromiter(counts, dtype=np.int64, count=n), out=offsets[1:])
    return offsets


def _checked_offsets(name: str, offsets, n_sessions: int, n_rows: int) -> np.ndarray:
    """A stored offset index, validated against its sessions and rows.

    Session ``s`` owns rows ``offsets[s]:offsets[s + 1]`` of the index's
    column, so a sound index holds ``n_sessions + 1`` integers that
    start at 0, never decrease and end at the column's row count.
    """
    offsets = np.asarray(offsets)
    if offsets.shape != (n_sessions + 1,) or not np.issubdtype(
        offsets.dtype, np.integer
    ):
        raise ValueError(f"{name} does not index {n_sessions} sessions")
    offsets = offsets.astype(np.int64, copy=False)
    if offsets[0] != 0 or offsets[-1] != n_rows or (np.diff(offsets) < 0).any():
        raise ValueError(
            f"{name} must rise from 0 to {n_rows} rows without decreasing"
        )
    return offsets


def _rows_of(name: str, column, width: int) -> np.ndarray:
    """A stored flat or 2-D float column as ``(rows, width)``."""
    column = np.asarray(column, dtype=np.float64)
    if column.size % width:
        raise ValueError(f"{name} does not reshape to {width} columns")
    return column.reshape(-1, width)


def transfer_block(
    records: "Sequence[SessionRecord]",
) -> tuple[np.ndarray, np.ndarray]:
    """The records' transfers as one ``(transfers, offsets)`` block.

    This is the shard layout: ``transfers`` stacks every record's
    ``(n, 10)`` rows, and record ``s`` owns rows
    ``offsets[s]:offsets[s + 1]``.
    """
    offsets = _offsets_of((r.transfers.shape[0] for r in records), len(records))
    transfers = (
        np.concatenate([r.transfers for r in records], axis=0)
        if records
        else np.empty((0, 10))
    )
    return transfers, offsets


_HTTP_DTYPES = {
    "start": np.float64,
    "end": np.float64,
    "request_bytes": np.int64,
    "response_bytes": np.int64,
    "resource_code": np.int8,
    "quality": np.int8,
}

_SCALAR_COLUMNS = (
    "watch_duration_s",
    "session_end",
    "play_time",
    "stall_time",
    "startup_delay",
    "link_mean_bps",
)


def encode_shard(service: str, records: "Sequence[SessionRecord]") -> dict:
    """One shard's sessions as a flat dict of numpy arrays.

    Everything numeric keeps its exact dtype (float64 raw bytes, so the
    round-trip is bit-identical); strings become unicode arrays;
    variable-length per-session data is stored flat with an offset
    index, the same layout the transaction table uses.
    """
    n = len(records)
    table = TransactionTable.from_sessions([r.tls_transactions for r in records])
    arrays = {f"tls_{k}": v for k, v in table.to_arrays().items()}
    arrays["service"] = _str_array([service])
    arrays["video_id"] = _str_array([r.video_id for r in records])
    for column in _SCALAR_COLUMNS:
        arrays[column] = np.array(
            [getattr(r, column) for r in records], dtype=np.float64
        )
    arrays["label_rebuffering_ratio"] = np.array(
        [r.labels.rebuffering_ratio for r in records], dtype=np.float64
    )
    for target in TARGETS:
        arrays[f"label_{target}"] = np.array(
            [r.labels.get(target) for r in records], dtype=np.int64
        )
    # Scenario/workload metadata and the policed label appear only when
    # non-default: identity/has shards must serialize byte-for-byte as
    # before those registries existed (golden-digest contract).
    scenario = records[0].scenario if records else "identity"
    if scenario != "identity":
        arrays["scenario"] = _str_array([scenario])
    workload = records[0].workload if records else "has"
    if workload != "has":
        arrays["workload"] = _str_array([workload])
    policed = np.array([r.labels.policed for r in records], dtype=np.int64)
    if policed.any():
        arrays["label_policed"] = policed
    hosts = [h for r in records for h in r.session_hosts]
    arrays["session_hosts"] = _str_array(hosts)
    arrays["session_hosts_offsets"] = _offsets_of(
        (len(r.session_hosts) for r in records), n
    )
    arrays["http_offsets"] = _offsets_of(
        (r.http["start"].shape[0] for r in records), n
    )
    for column, dtype in _HTTP_DTYPES.items():
        parts = [np.asarray(r.http[column], dtype=dtype) for r in records]
        arrays[f"http_{column}"] = (
            np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
        )
    transfers, transfer_offsets = transfer_block(records)
    arrays["transfer_offsets"] = transfer_offsets
    arrays["transfers"] = transfers
    arrays["connection_offsets"] = _offsets_of(
        (r.connections.shape[0] for r in records), n
    )
    arrays["connections"] = (
        np.concatenate([r.connections for r in records], axis=0)
        if records
        else np.empty((0, 3))
    )
    return arrays


def record_at(arrays: dict, table: TransactionTable, i: int) -> "SessionRecord":
    """Session ``i`` of a block as a record: :func:`encode_shard`
    inverted one session at a time.

    ``arrays`` holds the block's members as :meth:`ShardReader.read`
    returns them (checked, offsets as int64, transfers and connections
    as rows) and ``table`` its TLS slab (:meth:`ShardReader.block`).
    The record owns copies of its slices, so holding it never pins the
    block and mutating it never reaches the block.
    """
    from repro.collection.dataset import SessionRecord

    lo, hi = int(arrays["http_offsets"][i]), int(arrays["http_offsets"][i + 1])
    http = {
        column: np.asarray(arrays[f"http_{column}"][lo:hi], dtype=dtype).copy()
        for column, dtype in _HTTP_DTYPES.items()
    }
    transfer_offsets = arrays["transfer_offsets"]
    connection_offsets = arrays["connection_offsets"]
    host_offsets = arrays["session_hosts_offsets"]
    policed = arrays.get("label_policed")
    labels = SessionLabels(
        rebuffering_ratio=float(arrays["label_rebuffering_ratio"][i]),
        rebuffering=int(arrays["label_rebuffering"][i]),
        quality=int(arrays["label_quality"][i]),
        combined=int(arrays["label_combined"][i]),
        policed=int(policed[i]) if policed is not None else 0,
    )
    return SessionRecord(
        service=str(arrays["service"][0]),
        video_id=str(arrays["video_id"][i]),
        tls_transactions=table.transactions(i),
        http=http,
        transfers=arrays["transfers"][transfer_offsets[i]:transfer_offsets[i + 1]].copy(),
        connections=arrays["connections"][
            connection_offsets[i]:connection_offsets[i + 1]
        ].copy(),
        labels=labels,
        watch_duration_s=float(arrays["watch_duration_s"][i]),
        session_end=float(arrays["session_end"][i]),
        play_time=float(arrays["play_time"][i]),
        stall_time=float(arrays["stall_time"][i]),
        startup_delay=float(arrays["startup_delay"][i]),
        link_mean_bps=float(arrays["link_mean_bps"][i]),
        session_hosts=tuple(
            arrays["session_hosts"][host_offsets[i]:host_offsets[i + 1]].tolist()
        ),
        scenario=str(arrays["scenario"][0]) if "scenario" in arrays else "identity",
        workload=str(arrays["workload"][0]) if "workload" in arrays else "has",
    )


# ----------------------------------------------------------------------
# Manifest entries


@dataclass(frozen=True)
class ShardEntry:
    """One shard's manifest row."""

    name: str
    n_sessions: int
    sha256: str
    #: ``target -> [low, medium, high]`` session counts.
    label_counts: dict

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "n_sessions": self.n_sessions,
            "sha256": self.sha256,
            "label_counts": self.label_counts,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ShardEntry":
        return cls(
            name=str(payload["name"]),
            n_sessions=int(payload["n_sessions"]),
            sha256=str(payload["sha256"]),
            label_counts={
                target: [int(c) for c in counts]
                for target, counts in payload["label_counts"].items()
            },
        )


# ----------------------------------------------------------------------
# Shard reads: named members, checked against the manifest entry

#: Members holding one entry per session.
_SESSION_MEMBERS = (
    "video_id",
    *_SCALAR_COLUMNS,
    "label_rebuffering_ratio",
    *(f"label_{target}" for target in TARGETS),
    "label_policed",
)
#: Members holding one entry per shard.
_SHARD_MEMBERS = ("service", "scenario", "workload")
#: Offset index -> the row members it indexes.  Reading any member of
#: a group reads the index and the group's first row member too, so
#: the index is checked against its rows.
_ROW_GROUPS = {
    "tls_offsets": ("tls_start", "tls_end", "tls_uplink", "tls_downlink", "tls_host_codes"),
    "session_hosts_offsets": ("session_hosts",),
    "http_offsets": tuple(f"http_{column}" for column in _HTTP_DTYPES),
    "transfer_offsets": ("transfers",),
    "connection_offsets": ("connections",),
}
_GROUP_OF = {
    member: index
    for index, rows in _ROW_GROUPS.items()
    for member in (index, *rows)
}
#: Row members stored as float rows of a fixed width.
_WIDTHS = {"transfers": 10, "connections": 3}
#: Every member :func:`encode_shard` writes; the optional ones only
#: when non-default.
_MEMBERS = (*_SHARD_MEMBERS, *_SESSION_MEMBERS, *_GROUP_OF, "tls_hosts")
_OPTIONAL_MEMBERS = frozenset(("scenario", "workload", "label_policed"))
_STRING_MEMBERS = frozenset((*_SHARD_MEMBERS, "video_id", "session_hosts", "tls_hosts"))
#: The TLS slab, as :meth:`TransactionTable.to_arrays` names it.
_TLS_MEMBERS = tuple(
    f"tls_{name}"
    for name in ("start", "end", "uplink", "downlink", "offsets", "hosts", "host_codes")
)

#: Per-session scalar columns (``Dataset.column``): the stored ones,
#: then the ones derived from offsets and transfer rows.
SESSION_COLUMNS = _SCALAR_COLUMNS + (
    "n_tls_transactions",
    "n_http_transactions",
    "n_packets",
)


def column_dtype(name: str) -> type:
    """The dtype of a :data:`SESSION_COLUMNS` column: float64 for the
    stored scalars, int64 for the derived counts."""
    if name in _SCALAR_COLUMNS:
        return np.float64
    if name in SESSION_COLUMNS:
        return np.int64
    raise ValueError(f"unknown column {name!r}; expected one of {SESSION_COLUMNS}")


def label_member(target: str) -> str:
    """The member holding ``target``'s labels; an unknown target raises
    ``ValueError``."""
    if target not in TARGETS and target != "policed":
        raise ValueError(
            f"unknown target {target!r}; expected one of "
            f"{TARGETS + ('policed',)}"
        )
    return f"label_{target}"


@dataclass(frozen=True)
class ShardReader:
    """Reads the named members of one block, checked on the way in.

    Every stage that reads corpus columns goes through one of these:
    the corpus's column readers and record reads and pool workers
    alike.  A stored block is a shard file: its reader is the file's
    path plus its manifest entry, so it pickles small, and each
    :meth:`read` is one ``np.load`` decompressing only the members
    asked for.  A held block (:func:`held_block`) keeps its members in
    memory instead and pickles with them.  Either way :meth:`read`
    checks each member against the entry: per-session members by
    length, offset indexes against their rows
    (:func:`_checked_offsets`), ``transfers``/``connections`` by width,
    and the TLS host codes against the host dictionary.  Every failure
    is a :class:`~repro.collection.dataset.DatasetFormatError` naming
    the block and the member.
    """

    path: Path | None
    entry: ShardEntry
    #: A held block's members (:func:`encode_shard`'s dict), in place of
    #: a shard file.
    members: dict[str, np.ndarray] | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        # Every read of a held block shares its arrays, so none may
        # write into them.
        for value in (self.members or {}).values():
            value.setflags(write=False)

    def __reduce__(self):
        # Unpickled through the constructor, so a held block a worker
        # returns (or receives) is read-only there too.
        return ShardReader, (self.path, self.entry, self.members)

    def _error(self, message: str) -> Exception:
        root = "(in memory)" if self.path is None else self.path.parent
        return _format_error(root, f"{self.entry.name}: {message}")

    def _open(self):
        """The block's members by name: the held dict, or the npz file."""
        if self.members is not None:
            return contextlib.nullcontext(self.members)
        try:
            return np.load(self.path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise self._error(f"cannot read: {exc}") from exc

    def read(self, *members: str) -> dict[str, np.ndarray]:
        """The named members (every member when none is named).

        An offset index comes back as int64, ``transfers`` and
        ``connections`` as ``(rows, width)`` floats.  Reading any member
        of an offset-indexed group also returns the group's index and
        first row member; reading either TLS host member returns both.
        Optional members a block omits are absent from the result.
        """
        names = dict.fromkeys(members or _MEMBERS)
        for member in list(names):
            index = _GROUP_OF.get(member)
            if index is not None:
                names.update(dict.fromkeys((index, _ROW_GROUPS[index][0])))
            if member in ("tls_hosts", "tls_host_codes"):
                names.update(dict.fromkeys(("tls_hosts", "tls_host_codes")))
        arrays = {}
        with self._open() as source:
            for name in names:
                try:
                    arrays[name] = source[name]
                except KeyError:
                    if name not in _OPTIONAL_MEMBERS:
                        raise self._error(f"{name} is missing") from None
                except (OSError, ValueError, EOFError, zipfile.BadZipFile, zlib.error) as exc:
                    raise self._error(f"cannot read {name}: {exc}") from exc
        try:
            self._check(arrays)
        except ValueError as exc:
            raise self._error(str(exc)) from exc
        return arrays

    def _check(self, arrays: dict[str, np.ndarray]) -> None:
        """Check ``arrays``, reshaping the row blocks in place; each
        ``ValueError`` message starts with the member's name."""
        n = self.entry.n_sessions
        for name, value in arrays.items():
            if (name in _STRING_MEMBERS) != (value.dtype.kind == "U"):
                raise ValueError(f"{name} has the wrong dtype {value.dtype}")
            if name in _WIDTHS:
                arrays[name] = _rows_of(name, value, _WIDTHS[name])
            elif name in _SESSION_MEMBERS and value.shape != (n,):
                raise ValueError(f"{name} holds {value.size} entries for {n} sessions")
            elif name in _SHARD_MEMBERS and value.shape != (1,):
                raise ValueError(f"{name} must hold one entry, holds {value.size}")
            elif value.ndim != 1:
                raise ValueError(f"{name} must be one-dimensional")
        for index, rows in _ROW_GROUPS.items():
            if index not in arrays:
                continue
            n_rows = arrays[rows[0]].shape[0]
            for row in rows:
                if row in arrays and arrays[row].shape[0] != n_rows:
                    raise ValueError(
                        f"{row} holds {arrays[row].shape[0]} rows, "
                        f"{rows[0]} holds {n_rows}"
                    )
            arrays[index] = _checked_offsets(index, arrays[index], n, n_rows)
        if "tls_host_codes" in arrays:
            hosts, codes = arrays["tls_hosts"], arrays["tls_host_codes"]
            if not np.issubdtype(codes.dtype, np.integer):
                raise ValueError(f"tls_host_codes has the wrong dtype {codes.dtype}")
            if codes.size and (codes.min() < 0 or codes.max() >= hosts.shape[0]):
                bad = codes[(codes < 0) | (codes >= hosts.shape[0])][0]
                raise ValueError(
                    f"tls_host_codes must index the {hosts.shape[0]} tls_hosts, "
                    f"got {int(bad)}"
                )
            empty = hosts == ""
            if empty.any() and empty[codes].any():
                row = int(np.argmax(empty[codes]))
                raise ValueError(f"tls_hosts names an empty host at row {row}")

    def _table(self, arrays: dict[str, np.ndarray], sni: bool) -> TransactionTable:
        slab = {name[len("tls_"):]: arrays[name] for name in _TLS_MEMBERS}
        try:
            if sni:
                return TransactionTable.from_arrays(slab)
            return TransactionTable(
                start=slab["start"], end=slab["end"], uplink=slab["uplink"],
                downlink=slab["downlink"], offsets=slab["offsets"],
            )
        except ValueError as exc:  # a row check: the message names the column
            raise self._error(f"tls_{exc}") from exc

    def tls_table(self, sni: bool = True) -> TransactionTable:
        """The block's TLS slab, read from its ``tls_*`` members alone.

        ``sni=False`` leaves the SNI column out (feature extraction
        never reads it); the host members are read and checked either
        way.
        """
        return self._table(self.read(*_TLS_MEMBERS), sni)

    def transfer_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The block's ``(transfers, offsets)`` pair."""
        arrays = self.read("transfers", "transfer_offsets")
        return arrays["transfers"], arrays["transfer_offsets"]

    def labels(self, target: str) -> np.ndarray:
        """One target's labels; a block without a ``label_policed``
        member (every clean one) reads as all zeros."""
        member = label_member(target)
        arrays = self.read(member)
        if member not in arrays:
            return np.zeros(self.entry.n_sessions, dtype=np.int64)
        return np.asarray(arrays[member], dtype=np.int64)

    def column(self, name: str) -> np.ndarray:
        """One :data:`SESSION_COLUMNS` value per session."""
        dtype = column_dtype(name)
        if name in _SCALAR_COLUMNS:
            return np.asarray(self.read(name)[name], dtype=dtype)
        if name == "n_tls_transactions":
            return np.diff(self.read("tls_offsets")["tls_offsets"])
        if name == "n_http_transactions":
            return np.diff(self.read("http_offsets")["http_offsets"])
        # n_packets, as SessionRecord.n_packets counts them: data packets
        # plus 7 handshake packets per connection, 0 without transfers.
        arrays = self.read("transfers", "transfer_offsets", "connection_offsets")
        transfers, offsets = arrays["transfers"], arrays["transfer_offsets"]
        data = segment_sum(transfers[:, 6], offsets) + segment_sum(transfers[:, 7], offsets)
        packets = data.astype(np.int64) + 7 * np.diff(arrays["connection_offsets"])
        return np.where(np.diff(offsets) > 0, packets, 0)

    def block(self) -> tuple[dict[str, np.ndarray], TransactionTable]:
        """Every member, checked, and the TLS slab with its SNI column:
        what :func:`record_at` builds records from."""
        arrays = self.read()
        return arrays, self._table(arrays, sni=True)


def write_shard(
    root: str | Path,
    index: int,
    service: str,
    records: "Sequence[SessionRecord]",
) -> ShardEntry:
    """Serialize one shard atomically and return its manifest entry.

    The npz bytes are built in memory (one shard is small by
    construction), hashed, and committed with temp + ``os.replace`` —
    a reader never sees a torn shard file.
    """
    root = Path(root)
    name = shard_name(index)
    with telemetry.span("shard.write", shard=name, sessions=len(records)) as sp:
        arrays = encode_shard(service, records)
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **arrays)
        raw = buffer.getvalue()
        sp.set(bytes=len(raw))
        atomic_write_bytes(root / name, raw)
    return ShardEntry(
        name=name,
        n_sessions=len(records),
        sha256=hashlib.sha256(raw).hexdigest(),
        label_counts=_label_counts(arrays),
    )


def _label_counts(arrays: dict) -> dict:
    """A block's ``target -> [low, medium, high]`` session counts, from
    its label members.  Only a block with a ``label_policed`` member
    also counts ``policed`` as ``[clean, policed]``, so manifest rows
    of clean corpora keep their bytes (digest contract)."""
    counts = {
        target: np.bincount(arrays[f"label_{target}"], minlength=3).tolist()
        for target in TARGETS
    }
    if "label_policed" in arrays:
        counts["policed"] = np.bincount(arrays["label_policed"], minlength=2).tolist()
    return counts


def held_block(service: str, records: "Sequence[SessionRecord]") -> ShardReader:
    """The records encoded once into a block held in memory.

    Its members are :func:`encode_shard`'s dict, read-only; its entry
    counts sessions and labels as a shard's does and stores no digest.
    """
    arrays = encode_shard(service, records)
    entry = ShardEntry(
        name=_HELD_BLOCK_NAME,
        n_sessions=len(records),
        sha256="",
        label_counts=_label_counts(arrays),
    )
    return ShardReader(None, entry, arrays)


def manifest_payload(
    service: str,
    shard_size: int,
    entries: Sequence[ShardEntry],
    scenario: str = "identity",
    workload: str = "has",
) -> dict:
    """The manifest dict for a list of shard entries.

    The scenario and workload keys are emitted only when non-default,
    so identity/has manifests — and therefore their digests, the
    artifact-cache content addresses — are byte-identical to
    pre-registry ones.
    """
    payload = {
        "format": 4,
        "service": service,
        "shard_size": int(shard_size),
        "n_sessions": int(sum(e.n_sessions for e in entries)),
        "shards": [e.to_dict() for e in entries],
    }
    if scenario != "identity":
        payload["scenario"] = str(scenario)
    if workload != "has":
        payload["workload"] = str(workload)
    return payload


def write_manifest(root: str | Path, payload: dict) -> None:
    """Commit the manifest (the write that makes the corpus visible)."""
    atomic_write_bytes(
        Path(root) / MANIFEST_NAME,
        (json.dumps(payload, indent=1, sort_keys=True) + "\n").encode(),
    )


def open_shard_dir(path: str | Path) -> Path:
    """Start writing a corpus at ``path``: the prepare step.

    A path that exists as a file raises :class:`CorpusPathError` and is
    left untouched.  Otherwise the directory is created and any old
    manifest removed, so a crash before :func:`commit_shard_dir` leaves
    an explicitly incomplete directory.
    """
    root = Path(path)
    if root.exists() and not root.is_dir():
        raise CorpusPathError(
            f"cannot write a corpus to {root}: it is a file, and corpora "
            "are format-4 shard directories (choose another output path)"
        )
    root.mkdir(parents=True, exist_ok=True)
    (root / MANIFEST_NAME).unlink(missing_ok=True)
    return root


def commit_shard_dir(root: Path, payload: dict) -> "Dataset":
    """Finish a corpus write once every shard has landed.

    Shard files the new manifest does not list (left by an earlier,
    larger corpus) are removed first; the manifest is written last, and
    the committed corpus is returned, loaded from its directory.
    """
    from repro.collection.dataset import Dataset

    keep = {entry["name"] for entry in payload["shards"]}
    for stale in root.glob("shard-*.npz"):
        if stale.name not in keep:
            stale.unlink()
    write_manifest(root, payload)
    return Dataset.load(root)


def read_manifest(path: str | Path) -> tuple[Path, dict, list[ShardEntry]]:
    """A shard directory's root, manifest and shard entries.

    ``path`` is the directory or its ``manifest.json``.  A directory
    without a manifest (an interrupted write, or not a corpus) and a
    malformed manifest raise
    :class:`~repro.collection.dataset.DatasetFormatError` saying so.
    """
    root = Path(path)
    if root.name == MANIFEST_NAME:
        root = root.parent
    manifest = root / MANIFEST_NAME
    if not manifest.is_file():
        raise _format_error(
            root,
            f"no {MANIFEST_NAME} (incomplete shard directory — "
            "interrupted write? — or not a corpus)",
        )
    try:
        payload = json.loads(manifest.read_text())
        if not isinstance(payload, dict):
            raise ValueError("manifest is not a JSON object")
        version = payload.get("format")
        if version != 4:
            raise ValueError(f"unknown shard-directory format {version!r}")
        entries = [ShardEntry.from_dict(e) for e in payload["shards"]]
        claimed, held = int(payload["n_sessions"]), sum(e.n_sessions for e in entries)
        if held != claimed:
            raise ValueError(f"manifest claims {claimed} sessions but shards hold {held}")
        str(payload["service"]), int(payload["shard_size"])
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        raise _format_error(root, str(exc)) from exc
    return root, payload, entries


def write_shards(
    root: Path,
    service: str,
    records: "Iterable[SessionRecord]",
    shard_size: int,
) -> list[ShardEntry]:
    """Cut a stream of records into shards of ``shard_size`` and write
    them under ``root``, in order; returns their manifest entries.

    Only one shard's records are held at a time, so the stream may be
    a lazy corpus larger than memory.
    """
    entries: list[ShardEntry] = []
    pending: list = []
    for record in records:
        pending.append(record)
        if len(pending) == shard_size:
            entries.append(write_shard(root, len(entries), service, pending))
            pending = []
    if pending:
        entries.append(write_shard(root, len(entries), service, pending))
    return entries


def save_sharded(dataset: "Dataset", path: str | Path, shard_size: int) -> "Dataset":
    """Write a corpus as a format-4 shard directory.

    Sessions are consumed shard-at-a-time (:func:`write_shards`), so
    peak memory is bounded by ``shard_size`` even when re-sharding a
    stored corpus that does not fit in RAM.  The write follows the
    module's protocol: :func:`open_shard_dir`, the shard files, then
    :func:`commit_shard_dir`.  Re-sharding a directory onto itself
    raises :class:`CorpusPathError` and leaves it untouched: the write
    would delete the manifest and shards it is reading.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if dataset.root is not None and Path(path).resolve() == dataset.root.resolve():
        raise CorpusPathError(
            f"cannot write a corpus to {path}: it is the corpus being read "
            "(choose another output path)"
        )
    root = open_shard_dir(path)
    with telemetry.span(
        "dataset.save_sharded", sessions=len(dataset), shard_size=shard_size
    ):
        return commit_shard_dir(
            root,
            manifest_payload(
                dataset.service,
                shard_size,
                write_shards(root, dataset.service, dataset, shard_size),
                scenario=dataset.scenario,
                workload=dataset.workload,
            ),
        )
