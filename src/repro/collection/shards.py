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
canonical-JSON digest (:attr:`ShardedDataset.manifest_digest`) is the
corpus's content address and is what downstream
:mod:`repro.artifacts` fingerprints hang off — a warm pipeline run
reads nothing but the manifest.

Write protocol (crash safety), shared by :func:`save_sharded` and the
collector (:func:`repro.collection.harness.collect_corpus`):
:func:`open_shard_dir` refuses an output path that is a file and
removes any old manifest; shard files then land, each atomically
(temp + ``os.replace``); :func:`commit_shard_dir` removes shard files
the new manifest does not list and writes the manifest **last**.  A
crash mid-write therefore leaves a directory without a manifest, which
:meth:`ShardedDataset.load` reports as an incomplete corpus — never a
silently short one.  :meth:`ShardedDataset.verify`
re-hashes every shard against the manifest.

Loading a shard directory gives a lazy :class:`ShardedDataset`.  Its
column readers (labels, per-session scalars, TLS tables, transfer
blocks) read members shard by shard and build no records; records are
decoded a whole shard at a time, on demand, through a small LRU
(``shards.cache_hit`` / ``shards.materialized`` telemetry counters
prove cache behaviour).  Either way peak memory is bounded by the shard
size, not the corpus size.
"""

from __future__ import annotations

import hashlib
import io
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence
import zipfile
import zlib

import numpy as np

from repro import telemetry
from repro.artifacts import atomic_write_bytes, canonical_json
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
    "ShardedDataset",
    "column_dtype",
    "commit_shard_dir",
    "open_shard_dir",
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

#: Shards kept materialized per dataset (coordinator needs at most the
#: one it reads plus one of lookahead).
_DEFAULT_CACHED_SHARDS = 2


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


def decode_shard(arrays: dict, table: TransactionTable) -> "Dataset":
    """Inverse of :func:`encode_shard`: a one-shard :class:`Dataset`.

    ``arrays`` holds the shard's members as :meth:`ShardReader.read`
    returns them (checked, offsets as int64, transfers and connections
    as rows) and ``table`` its TLS slab; :meth:`ShardReader.dataset`
    is the caller.
    """
    from repro.collection.dataset import Dataset, SessionRecord

    service = str(arrays["service"][0])
    scenario = str(arrays["scenario"][0]) if "scenario" in arrays else "identity"
    workload = str(arrays["workload"][0]) if "workload" in arrays else "has"
    policed = (
        np.asarray(arrays["label_policed"], dtype=np.int64)
        if "label_policed" in arrays
        else None
    )
    n = table.n_sessions
    transfers, connections = arrays["transfers"], arrays["connections"]
    host_offsets = arrays["session_hosts_offsets"]
    http_offsets = arrays["http_offsets"]
    transfer_offsets = arrays["transfer_offsets"]
    connection_offsets = arrays["connection_offsets"]
    hosts = [str(h) for h in arrays["session_hosts"]]
    sessions = []
    for i in range(n):
        lo, hi = int(http_offsets[i]), int(http_offsets[i + 1])
        http = {
            column: np.asarray(
                arrays[f"http_{column}"][lo:hi], dtype=dtype
            ).copy()
            for column, dtype in _HTTP_DTYPES.items()
        }
        labels = SessionLabels(
            rebuffering_ratio=float(arrays["label_rebuffering_ratio"][i]),
            rebuffering=int(arrays["label_rebuffering"][i]),
            quality=int(arrays["label_quality"][i]),
            combined=int(arrays["label_combined"][i]),
            policed=int(policed[i]) if policed is not None else 0,
        )
        sessions.append(
            SessionRecord(
                service=service,
                video_id=str(arrays["video_id"][i]),
                tls_transactions=table.transactions(i),
                http=http,
                transfers=transfers[
                    transfer_offsets[i]:transfer_offsets[i + 1]
                ].copy(),
                connections=connections[
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
                    hosts[host_offsets[i]:host_offsets[i + 1]]
                ),
                scenario=scenario,
                workload=workload,
            )
        )
    dataset = Dataset(service=service, sessions=sessions)
    dataset._tls_table = table
    return dataset


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

#: Per-session scalar columns (:meth:`ShardedDataset.column`): the
#: stored ones, then the ones derived from offsets and transfer rows.
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


def _label_member(target: str) -> str:
    if target not in TARGETS and target != "policed":
        raise ValueError(
            f"unknown target {target!r}; expected one of "
            f"{TARGETS + ('policed',)}"
        )
    return f"label_{target}"


@dataclass(frozen=True)
class ShardReader:
    """Reads the named npz members of one shard, checked on the way in.

    Every stage that reads shard columns goes through one of these:
    the lazy corpus's column readers and pool workers alike (a reader
    is its path plus its manifest entry, so it pickles).  Each
    :meth:`read` is one ``np.load``, decompressing only the members
    asked for, and checks each against the entry: per-session members
    by length, offset indexes against their rows
    (:func:`_checked_offsets`), ``transfers``/``connections`` by width,
    and the TLS host codes against the host dictionary.  Every failure
    is a :class:`~repro.collection.dataset.DatasetFormatError` naming
    the shard and the member.
    """

    path: Path
    entry: ShardEntry

    def _error(self, message: str) -> Exception:
        return _format_error(self.path.parent, f"{self.entry.name}: {message}")

    def read(self, *members: str) -> dict[str, np.ndarray]:
        """The named members (every member when none is named).

        An offset index comes back as int64, ``transfers`` and
        ``connections`` as ``(rows, width)`` floats.  Reading any member
        of an offset-indexed group also returns the group's index and
        first row member; reading either TLS host member returns both.
        Optional members a shard omits are absent from the result.
        """
        names = dict.fromkeys(members or _MEMBERS)
        for member in list(names):
            index = _GROUP_OF.get(member)
            if index is not None:
                names.update(dict.fromkeys((index, _ROW_GROUPS[index][0])))
            if member in ("tls_hosts", "tls_host_codes"):
                names.update(dict.fromkeys(("tls_hosts", "tls_host_codes")))
        try:
            npz = np.load(self.path, allow_pickle=False)
        except (OSError, ValueError, zipfile.BadZipFile) as exc:
            raise self._error(f"cannot read: {exc}") from exc
        arrays = {}
        with npz:
            for name in names:
                try:
                    arrays[name] = npz[name]
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
        """The shard's TLS slab, read from its ``tls_*`` members alone.

        ``sni=False`` leaves the SNI column out (feature extraction
        never reads it); the host members are read and checked either
        way.
        """
        return self._table(self.read(*_TLS_MEMBERS), sni)

    def transfer_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The shard's ``(transfers, offsets)`` block."""
        arrays = self.read("transfers", "transfer_offsets")
        return arrays["transfers"], arrays["transfer_offsets"]

    def labels(self, target: str) -> np.ndarray:
        """One target's labels; a shard without a ``label_policed``
        member (every clean one) reads as all zeros."""
        member = _label_member(target)
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

    def dataset(self) -> "Dataset":
        """Every member decoded into records: a one-shard dataset."""
        arrays = self.read()
        return decode_shard(arrays, self._table(arrays, sni=True))


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
        buffer = io.BytesIO()
        np.savez_compressed(buffer, **encode_shard(service, records))
        raw = buffer.getvalue()
        sp.set(bytes=len(raw))
        atomic_write_bytes(root / name, raw)
    label_counts = {
        target: np.bincount(
            np.array([r.labels.get(target) for r in records], dtype=np.int64),
            minlength=3,
        ).tolist()
        for target in TARGETS
    }
    policed = np.array([r.labels.policed for r in records], dtype=np.int64)
    if policed.any():
        # Manifest rows stay unchanged for clean corpora (digest
        # contract); impaired ones additionally count [clean, policed].
        label_counts["policed"] = np.bincount(policed, minlength=2).tolist()
    return ShardEntry(
        name=name,
        n_sessions=len(records),
        sha256=hashlib.sha256(raw).hexdigest(),
        label_counts=label_counts,
    )


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


def commit_shard_dir(root: Path, payload: dict) -> "ShardedDataset":
    """Finish a corpus write once every shard has landed.

    Shard files the new manifest does not list (left by an earlier,
    larger corpus) are removed first; the manifest is written last, and
    the lazy view of the committed corpus is returned.
    """
    keep = {entry["name"] for entry in payload["shards"]}
    for stale in root.glob("shard-*.npz"):
        if stale.name not in keep:
            stale.unlink()
    write_manifest(root, payload)
    return ShardedDataset.load(root)


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


def save_sharded(dataset, path: str | Path, shard_size: int) -> "ShardedDataset":
    """Write any corpus as a format-4 shard directory.

    ``dataset`` is a :class:`~repro.collection.dataset.Dataset` or a
    :class:`ShardedDataset` (re-sharding); sessions are consumed
    shard-at-a-time (:func:`write_shards`), so peak memory is bounded
    by ``shard_size`` even when re-sharding a corpus that does not fit
    in RAM.  The write follows the module's protocol:
    :func:`open_shard_dir`, the shard files, then
    :func:`commit_shard_dir`.  Re-sharding a directory onto itself
    raises :class:`CorpusPathError` and leaves it untouched: the write
    would delete the manifest and shards it is reading.
    """
    if shard_size < 1:
        raise ValueError(f"shard_size must be >= 1, got {shard_size}")
    if (
        isinstance(dataset, ShardedDataset)
        and Path(path).resolve() == dataset.root.resolve()
    ):
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


# ----------------------------------------------------------------------
# The lazy corpus view


def _stacked(parts: Iterable[np.ndarray], dtype: type) -> np.ndarray:
    """Per-shard columns end to end (an empty corpus: an empty column)."""
    parts = list(parts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)



class ShardedDataset:
    """A format-4 corpus: manifest in memory, shards read on demand.

    Duck-compatible with :class:`~repro.collection.dataset.Dataset`
    everywhere the pipeline reads corpora — ``service``, ``len()``,
    iteration (shard-at-a-time), ``labels``/``label_distribution``,
    ``column``, ``transfer_blocks``, ``iter_tables``,
    ``block_readers``, ``profile`` — plus :meth:`shard`, one shard's
    decoded records.
    The column readers read only the npz members they need, through
    one :class:`ShardReader` per shard, and decode no records.
    Records (:meth:`shard`, indexing, iteration) are decoded a whole
    shard at a time and sit in a small LRU; ``counters`` tallies
    ``materialized``/``cache_hits`` (mirrored as ``shards.*``
    telemetry counters) so cache behaviour is provable in benchmarks.
    """

    #: Format version of this layout (the retired formats 1-3 were
    #: single JSON files).
    format = 4

    def __init__(
        self,
        root: Path,
        payload: dict,
        max_cached_shards: int = _DEFAULT_CACHED_SHARDS,
    ):
        self.service: str = str(payload["service"])
        self.scenario: str = str(payload.get("scenario", "identity"))
        self.workload: str = str(payload.get("workload", "has"))
        self.shard_size: int = int(payload["shard_size"])
        self.entries: list[ShardEntry] = [
            ShardEntry.from_dict(e) for e in payload["shards"]
        ]
        self.root = root
        self.n_sessions: int = int(payload["n_sessions"])
        self.max_cached_shards = max_cached_shards
        self.counters = {"materialized": 0, "cache_hits": 0}
        self._payload = payload
        self._cache: OrderedDict[int, "Dataset"] = OrderedDict()
        self._bounds = np.zeros(len(self.entries) + 1, dtype=np.int64)
        counts = np.fromiter(
            (e.n_sessions for e in self.entries),
            dtype=np.int64,
            count=len(self.entries),
        )
        np.cumsum(counts, out=self._bounds[1:])
        if int(self._bounds[-1]) != self.n_sessions:
            raise ValueError(
                f"manifest claims {self.n_sessions} sessions but shards "
                f"hold {int(self._bounds[-1])}"
            )

    # -- loading -------------------------------------------------------
    @classmethod
    def load(cls, path: str | Path) -> "ShardedDataset":
        """Open a shard directory (or its ``manifest.json``) lazily.

        Only the manifest is read.  A directory without one — an
        interrupted write, or simply not a corpus — raises
        :class:`~repro.collection.dataset.DatasetFormatError` with a
        message saying so; a malformed manifest likewise.
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
            return cls(root, payload)
        except (KeyError, IndexError, ValueError, TypeError) as exc:
            raise _format_error(root, str(exc)) from exc

    @property
    def root(self) -> Path:
        """The corpus directory; the shard readers follow it when the
        artifact store moves a built corpus into place."""
        return self._root

    @root.setter
    def root(self, path: str | Path) -> None:
        self._root = Path(path)
        self._readers = tuple(ShardReader(self._root / e.name, e) for e in self.entries)

    # -- dataset interface ---------------------------------------------
    @property
    def profile(self):
        """The profile this corpus was collected on (workload-aware)."""
        from repro.workloads import get_workload

        return get_workload(self.workload).get_profile(self.service)

    @property
    def n_shards(self) -> int:
        return len(self.entries)

    @property
    def manifest_digest(self) -> str:
        """Content address of the corpus (SHA-256 of the canonical
        manifest, which itself contains every shard's digest).  This is
        what :mod:`repro.artifacts` fingerprints chain from."""
        return hashlib.sha256(
            canonical_json(self._payload).encode()
        ).hexdigest()[:24]

    def __len__(self) -> int:
        return self.n_sessions

    def __iter__(self) -> "Iterator[SessionRecord]":
        for i in range(self.n_shards):
            yield from self.shard(i).sessions

    def __getitem__(self, index: int) -> "SessionRecord":
        if index < 0:
            index += self.n_sessions
        if not 0 <= index < self.n_sessions:
            raise IndexError(f"session index {index} out of range")
        s = int(np.searchsorted(self._bounds, index, side="right")) - 1
        return self.shard(s)[index - int(self._bounds[s])]

    def block_readers(self) -> tuple[ShardReader, ...]:
        """One :class:`ShardReader` per shard, in manifest order.

        Picklable, so a pool task can read its shard's members in the
        worker (:mod:`repro.collection.fleet`, flow export); an
        in-memory :class:`~repro.collection.dataset.Dataset` is its own
        one block reader.
        """
        return self._readers

    def labels(self, target: str) -> np.ndarray:
        """Ground-truth categories, read from the label members alone.

        No transaction or transfer data is decompressed.  The
        ``policed`` column is optional on disk (clean shards omit it),
        so its absence decodes as all-zeros.
        """
        _label_member(target)
        return _stacked((r.labels(target) for r in self._readers), np.int64)

    def column(self, name: str) -> np.ndarray:
        """One value per session of a :data:`SESSION_COLUMNS` column.

        Stored scalars read their member; ``n_tls_transactions`` and
        ``n_http_transactions`` come from the offset indexes and
        ``n_packets`` from the transfer rows, as the records compute
        them.  No shard is decoded.
        """
        dtype = column_dtype(name)
        return _stacked((r.column(name) for r in self._readers), dtype)

    def transfer_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each shard's ``(transfers, offsets)`` block, in manifest order,
        read from its ``transfers`` and ``transfer_offsets`` members."""
        for reader in self._readers:
            yield reader.transfer_block()

    def label_distribution(self, target: str) -> np.ndarray:
        """Fraction of sessions per category, straight off the manifest."""
        if target not in TARGETS:
            raise ValueError(
                f"unknown target {target!r}; expected one of {TARGETS}"
            )
        counts = np.zeros(3, dtype=np.int64)
        for entry in self.entries:
            counts += np.asarray(entry.label_counts[target], dtype=np.int64)
        if counts.sum() == 0:
            return np.zeros(3)
        return counts / counts.sum()

    # -- shard access --------------------------------------------------
    def shard(self, index: int) -> "Dataset":
        """Materialize one shard as a :class:`Dataset` (LRU-cached)."""
        if not 0 <= index < self.n_shards:
            raise IndexError(f"shard index {index} out of range")
        cached = self._cache.get(index)
        if cached is not None:
            self._cache.move_to_end(index)
            self.counters["cache_hits"] += 1
            telemetry.count("shards.cache_hit")
            return cached
        with telemetry.span("shard.load", shard=self.entries[index].name) as sp:
            dataset = self._readers[index].dataset()
            sp.set(sessions=len(dataset))
        self.counters["materialized"] += 1
        telemetry.count("shards.materialized")
        self._cache[index] = dataset
        while len(self._cache) > self.max_cached_shards:
            self._cache.popitem(last=False)
        return dataset

    def iter_tables(self) -> Iterator[TransactionTable]:
        """Per-shard transaction tables, for shard-at-a-time reduction,
        read from each shard's ``tls_*`` members alone."""
        for reader in self._readers:
            yield reader.tls_table()

    def tls_table(self) -> TransactionTable:
        """The whole corpus's transactions as one table.

        Reads every shard's ``tls_*`` members and holds all of the
        corpus's transactions at once — it exists for consumers that
        genuinely need the corpus-level view; out-of-core paths should
        use :meth:`iter_tables`.
        """
        return TransactionTable.concat(list(self.iter_tables()))

    def drop_caches(self) -> None:
        """Forget materialized shards (benchmarks simulate cold reads)."""
        self._cache.clear()

    def to_dataset(self) -> "Dataset":
        """Materialize the whole corpus as a monolithic dataset."""
        from repro.collection.dataset import Dataset

        return Dataset(service=self.service, sessions=list(self))

    # -- integrity -----------------------------------------------------
    def verify(self) -> dict:
        """Re-hash every shard file against the manifest.

        Returns ``{"shards": n, "bytes": total}`` on success; raises
        :class:`~repro.collection.dataset.DatasetFormatError` naming
        every missing or corrupt shard otherwise.
        """
        problems = []
        total = 0
        for entry in self.entries:
            path = self.root / entry.name
            try:
                raw = path.read_bytes()
            except OSError:
                problems.append(f"{entry.name}: missing")
                continue
            total += len(raw)
            actual = hashlib.sha256(raw).hexdigest()
            if actual != entry.sha256:
                problems.append(
                    f"{entry.name}: digest mismatch "
                    f"(manifest {entry.sha256[:12]}..., file {actual[:12]}...)"
                )
        if problems:
            raise _format_error(self.root, "; ".join(problems))
        return {"shards": self.n_shards, "bytes": total}
