"""Dataset containers.

A corpus of thousands of sessions cannot keep every simulated object
alive, so each session is reduced to a :class:`SessionRecord`: TLS
transactions (small — ~20 per session), HTTP transactions and transport
transfers as parallel numpy arrays (a few hundred rows), connection
metadata, and the ground-truth labels.  Packet traces are *not* stored;
they are synthesized on demand from the transfer arrays by
:func:`SessionRecord.packet_trace`.

Corpora are stored in one format: format 4, a *shard directory* of
``manifest.json`` plus npz-backed columnar shard blocks, every shard
SHA-256-digested in the manifest (see :mod:`repro.collection.shards`).
:meth:`Dataset.save` writes one; :meth:`Dataset.load` opens one (or
its ``manifest.json``) as a lazy
:class:`~repro.collection.shards.ShardedDataset`.  A corpus *file* —
one of the retired single-file formats 1-3, or anything else — raises
:class:`DatasetFormatError` naming the path and the format found.
"""

from __future__ import annotations

import gzip
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro.collection.shards import (
    DEFAULT_SHARD_SIZE,
    MANIFEST_NAME,
    ShardedDataset,
    column_dtype,
    save_sharded,
    transfer_block,
)
from repro.has.player import SessionTrace
from repro.has.services import ServiceProfile
from repro.net.packets import PacketTrace, synthesize_packet_trace
from repro.net.tcp import Transfer
from repro.qoe.labels import SessionLabels, compute_labels
from repro.tlsproxy.records import ResourceType, TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["SessionRecord", "Dataset", "DatasetFormatError"]

_RESOURCE_CODES = {rt: i for i, rt in enumerate(ResourceType)}


class DatasetFormatError(RuntimeError):
    """A stored corpus is malformed, incomplete, or not a format-4 shard directory."""


def _file_format(raw: bytes) -> str:
    """What a corpus *file* holds, for :meth:`Dataset.load`'s error."""
    try:
        if raw[:2] == b"\x1f\x8b":  # gzip magic: a retired compressed corpus
            raw = gzip.decompress(raw)
        payload = json.loads(raw)
    except Exception:  # torn gzip (EOFError, zlib.error), bad UTF-8 or JSON
        return "not a corpus"
    if not isinstance(payload, dict):
        return "not a corpus"
    # Format 1 predates the "format" key.
    version = payload.get("format", 1 if "sessions" in payload else None)
    if version in (1, 2, 3):
        return f"a file of the retired corpus format {version}"
    if version == 4:
        return "a format-4 manifest outside its sharded directory"
    if version is None:
        return "not a corpus"
    return f"unknown format {version!r}, not a corpus"


#: Columns of the transfer array, in order.
_TRANSFER_COLUMNS = (
    "connection_id",
    "start",
    "response_start",
    "end",
    "request_bytes",
    "response_bytes",
    "n_packets_down",
    "n_packets_up",
    "n_retransmits",
    "rtt_s",
)


@dataclass
class SessionRecord:
    """One collected session, compact enough to hold thousands of.

    Attributes
    ----------
    service:
        Service name (``svc1``/``svc2``/``svc3``).
    video_id:
        Title streamed.
    tls_transactions:
        The proxy's coarse-grained export — the estimator's input.
    http:
        HTTP transactions as parallel arrays: ``start``, ``end``,
        ``request_bytes``, ``response_bytes``, ``resource_code``,
        ``quality`` (dict of numpy arrays).
    transfers:
        Transport transfers as a ``(n, 10)`` float array with columns
        :data:`_TRANSFER_COLUMNS`; feeds packet-trace synthesis.
    connections:
        ``(connection_id, opened_at, rtt_s)`` rows, ``(m, 3)`` floats.
    labels:
        Ground-truth categorical QoE.
    """

    service: str
    video_id: str
    tls_transactions: list[TlsTransaction]
    http: dict[str, np.ndarray]
    transfers: np.ndarray
    connections: np.ndarray
    labels: SessionLabels
    watch_duration_s: float
    session_end: float
    play_time: float
    stall_time: float
    startup_delay: float
    link_mean_bps: float
    session_hosts: tuple[str, ...] = ()
    scenario: str = "identity"
    workload: str = "has"

    # ------------------------------------------------------------------
    @classmethod
    def from_trace(
        cls,
        trace: SessionTrace,
        profile: ServiceProfile,
        workload: str = "has",
    ) -> "SessionRecord":
        """Reduce a full simulation trace to its stored record."""
        http = {
            "start": np.array([t.start for t in trace.http_transactions]),
            "end": np.array([t.end for t in trace.http_transactions]),
            "request_bytes": np.array(
                [t.request_bytes for t in trace.http_transactions], dtype=np.int64
            ),
            "response_bytes": np.array(
                [t.response_bytes for t in trace.http_transactions], dtype=np.int64
            ),
            "resource_code": np.array(
                [_RESOURCE_CODES[t.resource_type] for t in trace.http_transactions],
                dtype=np.int8,
            ),
            "quality": np.array(
                [t.quality_index for t in trace.http_transactions], dtype=np.int8
            ),
        }
        transfers = np.array(
            [
                (
                    t.connection_id,
                    t.start,
                    t.response_start,
                    t.end,
                    t.request_bytes,
                    t.response_bytes,
                    t.n_packets_down,
                    t.n_packets_up,
                    t.n_retransmits,
                    t.rtt_s,
                )
                for t in trace.transfers
            ],
            dtype=np.float64,
        ).reshape(-1, len(_TRANSFER_COLUMNS))
        connections = np.array(
            [(c.connection_id, c.opened_at, c.rtt_s) for c in trace.connections],
            dtype=np.float64,
        ).reshape(-1, 3)
        return cls(
            service=trace.service_name,
            video_id=trace.video_id,
            tls_transactions=list(trace.tls_transactions),
            http=http,
            transfers=transfers,
            connections=connections,
            labels=compute_labels(trace, profile),
            watch_duration_s=trace.watch_duration_s,
            session_end=trace.session_end,
            play_time=trace.play_time,
            stall_time=trace.stall_time,
            startup_delay=trace.startup_delay,
            link_mean_bps=trace.link_mean_bps,
            session_hosts=tuple(sorted(trace.hosts.all_hosts)),
            scenario=getattr(trace, "scenario", "identity"),
            workload=workload,
        )

    # ------------------------------------------------------------------
    @property
    def n_tls_transactions(self) -> int:
        """TLS transactions in the session (the paper's ~19.5 for Svc1)."""
        return len(self.tls_transactions)

    @property
    def n_http_transactions(self) -> int:
        """HTTP transactions in the session."""
        return int(self.http["start"].shape[0])

    @property
    def n_packets(self) -> int:
        """Packets the session's trace would contain (without synthesis)."""
        if self.transfers.shape[0] == 0:
            return 0
        data = int(self.transfers[:, 6].sum() + self.transfers[:, 7].sum())
        # Handshake packets: TCP(3) + ClientHello(1) + server flight(3).
        return data + 7 * int(self.connections.shape[0])

    def iter_transfers(self) -> Iterator[Transfer]:
        """Reconstruct :class:`~repro.net.tcp.Transfer` objects."""
        for row in self.transfers:
            yield Transfer(
                connection_id=int(row[0]),
                start=float(row[1]),
                response_start=float(row[2]),
                end=float(row[3]),
                request_bytes=int(row[4]),
                response_bytes=int(row[5]),
                n_packets_down=int(row[6]),
                n_packets_up=int(row[7]),
                n_retransmits=int(row[8]),
                rtt_s=float(row[9]),
            )

    def packet_trace(self, seed: int = 0, pacing: str = "uniform") -> PacketTrace:
        """Synthesize this session's packet trace on demand.

        ``pacing="burst"`` front-loads data packets within each
        transfer — the token-bucket policing wire signature.
        """
        connections = [
            (int(row[0]), float(row[1]), float(row[2])) for row in self.connections
        ]
        return synthesize_packet_trace(
            self.iter_transfers(),
            connections,
            rng=np.random.default_rng(seed),
            pacing=pacing,
        )

    def resource_mask(self, resource: ResourceType) -> np.ndarray:
        """Boolean mask over HTTP transactions of the given type."""
        return self.http["resource_code"] == _RESOURCE_CODES[resource]


@dataclass
class Dataset:
    """A corpus of sessions from one service, held in memory.

    This is one shard's decoded contents
    (:meth:`~repro.collection.shards.ShardedDataset.shard`) and the
    small corpus :func:`~repro.collection.harness.collect_corpus`
    returns without ``out=``; stored corpora are lazy shard directories.
    """

    service: str
    sessions: list[SessionRecord] = field(default_factory=list)
    #: Cached columnar view of every session's TLS transactions,
    #: invalidated when the session count changes.
    _tls_table: TransactionTable | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __len__(self) -> int:
        return len(self.sessions)

    def __iter__(self) -> Iterator[SessionRecord]:
        return iter(self.sessions)

    def __getitem__(self, index: int) -> SessionRecord:
        return self.sessions[index]

    @property
    def profile(self) -> ServiceProfile:
        """The profile this corpus was collected on.

        Resolved through the workload registry (imported lazily to
        keep this module importable without :mod:`repro.workloads`), so
        RTC and live corpora return their own profile types.
        """
        from repro.workloads import get_workload

        return get_workload(self.workload).get_profile(self.service)

    @property
    def workload(self) -> str:
        """The workload the corpus was collected under.

        Corpora are collected under exactly one workload, so the first
        session's record speaks for all (empty corpora are ``has``).
        """
        return self.sessions[0].workload if self.sessions else "has"

    @property
    def scenario(self) -> str:
        """The network scenario the corpus was collected under.

        Corpora are collected under exactly one scenario, so the first
        session's record speaks for all (empty corpora are identity).
        """
        return self.sessions[0].scenario if self.sessions else "identity"

    def labels(self, target: str) -> np.ndarray:
        """Ground-truth categories for a target (``combined`` etc.)."""
        return np.array([s.labels.get(target) for s in self.sessions], dtype=np.int64)

    def label_distribution(self, target: str) -> np.ndarray:
        """Fraction of sessions per category, ``[low, medium, high]``."""
        if not self.sessions:
            return np.zeros(3)
        counts = np.bincount(self.labels(target), minlength=3)
        return counts / counts.sum()

    def column(self, name: str) -> np.ndarray:
        """One value per session of a
        :data:`~repro.collection.shards.SESSION_COLUMNS` column, as
        :meth:`ShardedDataset.column` reads it off a stored corpus."""
        dtype = column_dtype(name)
        return np.array([getattr(s, name) for s in self.sessions], dtype=dtype)

    def block_readers(self) -> tuple["Dataset"]:
        """The corpus as its own one block reader.

        A :class:`~repro.collection.shards.ShardedDataset` hands out
        one :class:`~repro.collection.shards.ShardReader` per shard, so
        a fan-out over blocks (flow export) reads either corpus type
        alike.
        """
        return (self,)

    def transfer_block(self) -> tuple[np.ndarray, np.ndarray]:
        """The corpus's transfers as one ``(transfers, offsets)`` block.

        Session ``s`` owns rows ``offsets[s]:offsets[s + 1]`` of the
        stacked ``(n, 10)`` array: the layout a shard stores
        (:meth:`ShardReader.transfer_block`).
        """
        return transfer_block(self.sessions)

    def transfer_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """The corpus's one ``(transfers, offsets)`` block; a
        :class:`ShardedDataset` yields one per shard."""
        yield self.transfer_block()

    def iter_tables(self) -> Iterator[TransactionTable]:
        """The corpus's transactions as one table (:meth:`tls_table`).

        A :class:`~repro.collection.shards.ShardedDataset` yields one
        table per shard, so TLS extraction reduces either corpus type
        block by block.
        """
        yield self.tls_table()

    def extend(self, records: Sequence[SessionRecord]) -> None:
        """Append records, enforcing service consistency."""
        for record in records:
            if record.service != self.service:
                raise ValueError(
                    f"record from {record.service!r} cannot join {self.service!r} dataset"
                )
            self.sessions.append(record)
        self._tls_table = None

    def tls_table(self) -> TransactionTable:
        """The corpus's TLS transactions as one columnar table.

        Built once and cached (shards decoded from disk arrive with it
        already populated); every vectorized consumer — feature
        extraction, boundary evaluation — shares this instance.  The
        cache tracks the session count, so a table built before direct
        ``sessions`` mutations is discarded.
        """
        table = self._tls_table
        if table is None or table.n_sessions != len(self.sessions):
            table = TransactionTable.from_sessions(
                [s.tls_transactions for s in self.sessions]
            )
            self._tls_table = table
        return table

    # ------------------------------------------------------------------
    def save(
        self, path: str | Path, shard_size: int = DEFAULT_SHARD_SIZE
    ) -> ShardedDataset:
        """Write the corpus as a format-4 shard directory at ``path``.

        ``shard_size`` sessions go into each npz shard; the manifest is
        written last (:func:`~repro.collection.shards.save_sharded`).
        Returns the lazy :class:`~repro.collection.shards.ShardedDataset`
        view of what was written.  An existing file at ``path`` raises
        :class:`~repro.collection.shards.CorpusPathError` and is left
        untouched.
        """
        return save_sharded(self, path, shard_size)

    @classmethod
    def load(cls, path: str | Path) -> ShardedDataset:
        """Open a format-4 shard directory (or its ``manifest.json``).

        Returns a lazy :class:`~repro.collection.shards.ShardedDataset`
        that reads only the manifest up front.  Any *file* — a corpus of
        the retired single-file formats 1-3, or not a corpus at all —
        raises :class:`DatasetFormatError` naming the path and the
        format found; an incomplete or malformed directory raises it
        too.  A missing path raises plain ``OSError``.
        """
        path = Path(path)
        if path.is_dir() or path.name == MANIFEST_NAME:
            return ShardedDataset.load(path)
        raise DatasetFormatError(
            f"cannot load {path}: {_file_format(path.read_bytes())} "
            "(corpora load from format-4 shard directories)"
        )
