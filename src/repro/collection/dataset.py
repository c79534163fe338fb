"""Dataset containers.

A corpus of thousands of sessions cannot keep every simulated object
alive, so each session is reduced to a :class:`SessionRecord`: TLS
transactions (small — ~20 per session), HTTP transactions and transport
transfers as parallel numpy arrays (a few hundred rows), connection
metadata, and the ground-truth labels.  Packet traces are *not* stored;
they are synthesized on demand from the transfer arrays by
:func:`SessionRecord.packet_trace`.

A corpus is one class, :class:`Dataset`: a sequence of column blocks,
each the dict :func:`~repro.collection.shards.encode_shard` writes.
Corpora are stored in one format: format 4, a *shard directory* of
``manifest.json`` plus one npz block per shard, every shard
SHA-256-digested in the manifest (see :mod:`repro.collection.shards`).
:meth:`Dataset.save` writes one; :meth:`Dataset.load` opens one (or
its ``manifest.json``), reading shards on demand.  A corpus built from
records holds their one block in memory.  A corpus *file* — one of
the retired single-file formats 1-3, or anything else — raises
:class:`DatasetFormatError` naming the path and the format found.
"""

from __future__ import annotations

import gzip
import hashlib
import json
from collections import OrderedDict
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro import telemetry
from repro.artifacts import canonical_json
from repro.collection.shards import (
    DEFAULT_SHARD_SIZE,
    MANIFEST_NAME,
    ShardEntry,
    ShardReader,
    column_dtype,
    held_block,
    label_member,
    read_manifest,
    record_at,
    save_sharded,
)
from repro.has.player import SessionTrace
from repro.has.services import SessionProfile
from repro.net.packets import PacketTrace, synthesize_from_rows, transfer_rows
from repro.net.tcp import Transfer
from repro.qoe.labels import TARGETS, SessionLabels, compute_labels
from repro.tlsproxy.records import ResourceType, TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["SessionRecord", "Dataset", "DatasetFormatError"]

_RESOURCE_CODES = {rt: i for i, rt in enumerate(ResourceType)}

#: Blocks a corpus keeps read for ``corpus[i]``: the one being read
#: plus one of lookahead.
_CACHED_BLOCKS = 2


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
        :data:`~repro.net.packets.TRANSFER_COLUMNS`; feeds packet-trace synthesis.
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
        profile: SessionProfile,
    ) -> "SessionRecord":
        """Reduce a full simulation trace to its stored record (tagged
        with the profile's workload)."""
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
        connections = np.array(
            [(c.connection_id, c.opened_at, c.rtt_s) for c in trace.connections],
            dtype=np.float64,
        ).reshape(-1, 3)
        return cls(
            service=trace.service_name,
            video_id=trace.video_id,
            tls_transactions=list(trace.tls_transactions),
            http=http,
            transfers=transfer_rows(trace.transfers),
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
            workload=profile.workload,
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

    def packet_trace(self, seed: int = 0) -> PacketTrace:
        """Synthesize this session's packet trace on demand, from its
        transfer and connection rows."""
        return synthesize_from_rows(
            self.transfers, self.connections, np.random.default_rng(seed)
        )

    def resource_mask(self, resource: ResourceType) -> np.ndarray:
        """Boolean mask over HTTP transactions of the given type."""
        return self.http["resource_code"] == _RESOURCE_CODES[resource]


class Dataset:
    """A corpus of sessions from one service: a sequence of column blocks.

    A block is the dict :func:`~repro.collection.shards.encode_shard`
    writes, behind one :class:`~repro.collection.shards.ShardReader`.
    :meth:`load` opens a stored corpus, one reader per shard file of a
    format-4 directory, reading only the manifest up front;
    ``Dataset(service, records)`` encodes the records once into one
    block held in memory, and the collector without ``out=`` returns
    its workers' chunks as held blocks.  Which of the two a corpus is
    shows only in where its blocks' members come from; everything else
    reads blocks alike.

    Column readers (:meth:`labels`, :meth:`column`, :meth:`iter_tables`,
    :meth:`iter_transactions`, :meth:`transfer_blocks`,
    :meth:`block_readers`) read the members
    they need, block by block, and build no records.  Records are built
    one session at a time from a block's members
    (:func:`~repro.collection.shards.record_at`): ``corpus[i]`` reads
    its block through a small LRU of read blocks, and iteration reads
    each block the LRU does not hold once, without caching it, so a
    sweep holds one block's members beyond the LRU's, and one record.
    ``counters`` tallies blocks read for records (``materialized``) and
    LRU hits (``cache_hits``), mirrored as the ``shards.*`` telemetry
    counters.
    """

    #: Format version of the stored layout (the retired formats 1-3
    #: were single JSON files).
    format = 4

    def __init__(self, service: str, sessions: Iterable[SessionRecord] = ()):
        records = list(sessions)
        scenario = records[0].scenario if records else "identity"
        workload = records[0].workload if records else "has"
        # A block stores these once, so a record that differs would
        # silently take the corpus's values.
        for i, record in enumerate(records):
            for name, value, expected in (
                ("service", record.service, service),
                ("scenario", record.scenario, scenario),
                ("workload", record.workload, workload),
            ):
                if value != expected:
                    raise ValueError(
                        f"record {i} has {name} {value!r}, but the corpus's "
                        f"{name} is {expected!r}"
                    )
        self._setup(service, scenario, workload, len(records), (held_block(service, records),))

    @classmethod
    def _held(
        cls, service: str, scenario: str, workload: str, blocks: Sequence[ShardReader]
    ) -> "Dataset":
        """A corpus of blocks already held in memory (the collector's
        chunks, :func:`~repro.collection.shards.held_block`)."""
        corpus = cls.__new__(cls)
        sizes = [block.entry.n_sessions for block in blocks]
        corpus._setup(service, scenario, workload, max(sizes, default=0), tuple(blocks))
        return corpus

    def _setup(
        self,
        service: str,
        scenario: str,
        workload: str,
        shard_size: int,
        readers: tuple[ShardReader, ...],
        root: Path | None = None,
        manifest_digest: str | None = None,
    ) -> None:
        self.service = service
        self.scenario = scenario
        self.workload = workload
        self.shard_size = shard_size
        self.entries: list[ShardEntry] = [reader.entry for reader in readers]
        #: Content address of a stored corpus: SHA-256 of the canonical
        #: manifest, which holds every shard's digest (None in memory).
        #: :mod:`repro.artifacts` fingerprints chain from it.
        self.manifest_digest = manifest_digest
        self.counters = {"materialized": 0, "cache_hits": 0}
        #: The artifact store's key for a corpus it built
        #: (:func:`repro.experiments.common.dataset_stage`).
        self._artifact_digest: str | None = None
        self._readers = readers
        self._root = root
        self._cache: OrderedDict[int, tuple[dict, TransactionTable]] = OrderedDict()
        self._bounds = np.cumsum([0] + [e.n_sessions for e in self.entries])

    @classmethod
    def load(cls, path: str | Path) -> "Dataset":
        """Open a format-4 shard directory (or its ``manifest.json``).

        Only the manifest is read; shards are read on demand.  Any
        *file* — a corpus of the retired single-file formats 1-3, or not
        a corpus at all — raises :class:`DatasetFormatError` naming the
        path and the format found; an incomplete or malformed directory
        raises it too (:func:`~repro.collection.shards.read_manifest`).
        A missing path raises plain ``OSError``.
        """
        path = Path(path)
        if not (path.is_dir() or path.name == MANIFEST_NAME):
            raise DatasetFormatError(
                f"cannot load {path}: {_file_format(path.read_bytes())} "
                "(corpora load from format-4 shard directories)"
            )
        root, payload, entries = read_manifest(path)
        corpus = cls.__new__(cls)
        corpus._setup(
            str(payload["service"]),
            str(payload.get("scenario", "identity")),
            str(payload.get("workload", "has")),
            int(payload["shard_size"]),
            tuple(ShardReader(root / e.name, e) for e in entries),
            root,
            hashlib.sha256(canonical_json(payload).encode()).hexdigest()[:24],
        )
        return corpus

    def save(self, path: str | Path, shard_size: int = DEFAULT_SHARD_SIZE) -> "Dataset":
        """Write the corpus as a format-4 shard directory at ``path``.

        ``shard_size`` sessions go into each npz shard; the manifest is
        written last (:func:`~repro.collection.shards.save_sharded`).
        Returns the stored corpus that was written.  An existing file at
        ``path``, or the directory this corpus is read from, raises
        :class:`~repro.collection.shards.CorpusPathError` and is left
        untouched.
        """
        return save_sharded(self, path, shard_size)

    # -- where the blocks live -------------------------------------------
    @property
    def root(self) -> Path | None:
        """The directory of a stored corpus (None in memory).  Its shard
        readers follow it when the artifact store moves a built corpus
        into place."""
        return self._root

    @root.setter
    def root(self, path: str | Path) -> None:
        self._root = Path(path)
        self._readers = tuple(ShardReader(self._root / e.name, e) for e in self.entries)

    @property
    def n_shards(self) -> int:
        """Blocks in the corpus: shard files, or the one held block."""
        return len(self._readers)

    def block_readers(self) -> tuple[ShardReader, ...]:
        """One :class:`~repro.collection.shards.ShardReader` per block,
        in order.

        Picklable, so a pool task can read its block's members in the
        worker (:mod:`repro.collection.fleet`, flow export).
        """
        return self._readers

    def verify(self) -> dict:
        """Re-hash every shard file against the manifest.

        Returns ``{"shards": n, "bytes": total}`` on success; raises
        :class:`DatasetFormatError` naming every missing or corrupt
        shard otherwise, and ``ValueError`` for a corpus held in memory,
        which has no shard files.
        """
        if self._root is None:
            raise ValueError(f"the {self.service} corpus is held in memory: no shard files to verify")
        problems = []
        total = 0
        for entry in self.entries:
            try:
                raw = (self._root / entry.name).read_bytes()
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
            raise DatasetFormatError(f"corrupt sharded corpus {self._root}: {'; '.join(problems)}")
        return {"shards": self.n_shards, "bytes": total}

    # -- columns -------------------------------------------------------
    def labels(self, target: str) -> np.ndarray:
        """Ground-truth categories for a target (``combined`` etc.),
        read from the label members alone.  The ``policed`` member is
        optional (clean blocks omit it) and reads as all zeros."""
        label_member(target)
        return _stacked((r.labels(target) for r in self._readers), np.int64)

    def label_distribution(self, target: str) -> np.ndarray:
        """Fraction of sessions per category, ``[low, medium, high]``,
        straight off the block entries."""
        if target not in TARGETS:
            raise ValueError(f"unknown target {target!r}; expected one of {TARGETS}")
        counts = np.zeros(3, dtype=np.int64)
        for entry in self.entries:
            counts += np.asarray(entry.label_counts[target], dtype=np.int64)
        if counts.sum() == 0:
            return np.zeros(3)
        return counts / counts.sum()

    def column(self, name: str) -> np.ndarray:
        """One value per session of a
        :data:`~repro.collection.shards.SESSION_COLUMNS` column.

        Stored scalars read their member; ``n_tls_transactions`` and
        ``n_http_transactions`` come from the offset indexes and
        ``n_packets`` from the transfer rows, as the records compute
        them.
        """
        dtype = column_dtype(name)
        return _stacked((r.column(name) for r in self._readers), dtype)

    def iter_tables(self) -> Iterator[TransactionTable]:
        """Each block's transaction table, in order, read from its
        ``tls_*`` members alone, for block-at-a-time reduction."""
        for reader in self._readers:
            yield reader.tls_table()

    def tls_table(self) -> TransactionTable:
        """The whole corpus's transactions as one table.

        Holds all of the corpus's transactions at once; out-of-core
        paths use :meth:`iter_tables`.
        """
        return TransactionTable.concat(list(self.iter_tables()))

    def iter_transactions(self) -> Iterator[list[TlsTransaction]]:
        """Each session's TLS transactions, in order, built from the
        block tables alone: no HTTP, transfer or connection member is
        read."""
        for table in self.iter_tables():
            for i in range(table.n_sessions):
                yield table.transactions(i)

    def transfer_blocks(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """Each block's ``(transfers, offsets)`` pair, in order, read
        from its ``transfers`` and ``transfer_offsets`` members."""
        for reader in self._readers:
            yield reader.transfer_block()

    # -- records -------------------------------------------------------
    def __len__(self) -> int:
        return int(self._bounds[-1])

    def _read_block(self, index: int) -> tuple[dict, TransactionTable]:
        """Block ``index``'s members and TLS table, read for records."""
        with telemetry.span("shard.load", shard=self.entries[index].name) as sp:
            block = self._readers[index].block()
            sp.set(sessions=self.entries[index].n_sessions)
        self.counters["materialized"] += 1
        telemetry.count("shards.materialized")
        return block

    def _cached_block(self, index: int) -> tuple[dict, TransactionTable] | None:
        """Block ``index`` if the LRU holds it (counted as a hit)."""
        block = self._cache.get(index)
        if block is not None:
            self._cache.move_to_end(index)
            self.counters["cache_hits"] += 1
            telemetry.count("shards.cache_hit")
        return block

    def __getitem__(self, index: int) -> SessionRecord:
        n = len(self)
        if index < 0:
            index += n
        if not 0 <= index < n:
            raise IndexError(f"session index {index} out of range")
        b = int(np.searchsorted(self._bounds, index, side="right")) - 1
        block = self._cached_block(b)
        if block is None:
            block = self._cache[b] = self._read_block(b)
            while len(self._cache) > _CACHED_BLOCKS:
                self._cache.popitem(last=False)
        return record_at(*block, index - int(self._bounds[b]))

    def __iter__(self) -> Iterator[SessionRecord]:
        # A sweep uses a block the LRU already holds but caches none, so
        # it holds at most one block beyond the LRU's.
        for b in range(self.n_shards):
            arrays, table = self._cached_block(b) or self._read_block(b)
            for i in range(table.n_sessions):
                yield record_at(arrays, table, i)

    @property
    def sessions(self) -> list[SessionRecord]:
        """Every record, in a fresh list."""
        return list(self)

    def drop_caches(self) -> None:
        """Forget the blocks read for ``corpus[i]`` (benchmarks simulate
        cold reads)."""
        self._cache.clear()

    def to_dataset(self) -> "Dataset":
        """The corpus rebuilt in memory from its records."""
        return Dataset(self.service, self)


def _stacked(parts: Iterable[np.ndarray], dtype: type) -> np.ndarray:
    """Per-block columns end to end (an empty corpus: an empty column)."""
    parts = list(parts)
    return np.concatenate(parts) if parts else np.empty(0, dtype=dtype)
