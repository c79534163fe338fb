"""Dataset containers.

A corpus of thousands of sessions cannot keep every simulated object
alive, so each session is reduced to a :class:`SessionRecord`: TLS
transactions (small — ~20 per session), HTTP transactions and transport
transfers as parallel numpy arrays (a few hundred rows), connection
metadata, and the ground-truth labels.  Packet traces are *not* stored;
they are synthesized on demand from the transfer arrays by
:func:`SessionRecord.packet_trace`.

Records serialize to plain JSON (optionally gzipped) so corpora can be
cached between experiment runs.  Large numeric arrays (``transfers``,
``http``, ``connections``) are stored as base64-encoded raw bytes
inside the JSON envelope — exact to the bit.  Format 3 hoists every
session's TLS transactions into one corpus-level columnar block (the
struct-of-arrays layout of
:class:`~repro.tlsproxy.table.TransactionTable`, same base64 codec,
SNI hostnames dictionary-encoded), so loading reconstitutes the
transaction table directly instead of re-parsing per-session lists.
Malformed files, and files of the retired formats 1 and 2, raise
:class:`DatasetFormatError`.

Format 4 is not a file at all but a *sharded directory* —
``manifest.json`` plus npz-backed columnar shard blocks — for corpora
that must not be materialized whole (see
:mod:`repro.collection.shards`).  :meth:`Dataset.load` dispatches on
the path: a directory (or its ``manifest.json``) returns a lazy
:class:`~repro.collection.shards.ShardedDataset`; and
:meth:`Dataset.save` with ``shard_size`` writes one.
"""

from __future__ import annotations

import base64
import binascii
import gzip
import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterator, Sequence

import numpy as np

from repro import telemetry
from repro.artifacts import atomic_write_bytes
from repro.has.player import SessionTrace
from repro.has.services import ServiceProfile
from repro.net.packets import PacketTrace, synthesize_packet_trace
from repro.net.tcp import Transfer
from repro.qoe.labels import SessionLabels, compute_labels
from repro.tlsproxy.records import ResourceType, TlsTransaction
from repro.tlsproxy.table import TransactionTable

__all__ = ["SessionRecord", "Dataset", "DatasetFormatError"]

_RESOURCE_CODES = {rt: i for i, rt in enumerate(ResourceType)}
_RESOURCE_FROM_CODE = {i: rt for rt, i in _RESOURCE_CODES.items()}

#: The one *file* format :meth:`Dataset.save` writes and
#: :meth:`Dataset.load` reads; format 4 is the sharded directory layout
#: (:mod:`repro.collection.shards`).
FORMAT_VERSION = 3


class DatasetFormatError(RuntimeError):
    """A corpus file is malformed, truncated, or of a retired or unknown format."""


def _encode_array(a: np.ndarray) -> dict:
    """Array -> JSON-safe dict: dtype + shape + base64 raw bytes."""
    a = np.ascontiguousarray(a)
    return {
        "dtype": a.dtype.str,
        "shape": list(a.shape),
        "b64": base64.b64encode(a.tobytes()).decode("ascii"),
    }


def _decode_array(payload: dict, dtype: np.dtype | type | str) -> np.ndarray:
    """Inverse of :func:`_encode_array`."""
    raw = base64.b64decode(payload["b64"])
    a = np.frombuffer(raw, dtype=np.dtype(payload["dtype"]))
    return a.reshape(payload["shape"]).astype(dtype, copy=True)


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

    # ------------------------------------------------------------------
    def to_dict(self, include_tls: bool = True) -> dict:
        """JSON-serializable representation.

        ``include_tls=False`` omits the per-session transaction rows —
        format-3 corpora store them once, columnar, at the corpus level.
        """
        payload = {
            "service": self.service,
            "video_id": self.video_id,
            "http": {k: _encode_array(v) for k, v in self.http.items()},
            "transfers": _encode_array(self.transfers),
            "connections": _encode_array(self.connections),
            "labels": {
                "rebuffering_ratio": self.labels.rebuffering_ratio,
                "rebuffering": self.labels.rebuffering,
                "quality": self.labels.quality,
                "combined": self.labels.combined,
            },
            "watch_duration_s": self.watch_duration_s,
            "session_end": self.session_end,
            "play_time": self.play_time,
            "stall_time": self.stall_time,
            "startup_delay": self.startup_delay,
            "link_mean_bps": self.link_mean_bps,
            "session_hosts": list(self.session_hosts),
        }
        # Scenario/workload metadata and the policed label are written
        # only when set: identity/has corpora must serialize
        # byte-for-byte as before those registries existed
        # (golden-digest contract).
        if self.scenario != "identity":
            payload["scenario"] = self.scenario
        if self.workload != "has":
            payload["workload"] = self.workload
        if self.labels.policed:
            payload["labels"]["policed"] = self.labels.policed
        if include_tls:
            payload["tls_transactions"] = [
                [t.start, t.end, t.uplink_bytes, t.downlink_bytes, t.sni]
                for t in self.tls_transactions
            ]
        return payload

    @classmethod
    def from_dict(
        cls, payload: dict, tls_transactions: list[TlsTransaction]
    ) -> "SessionRecord":
        """Inverse of :meth:`to_dict` with ``include_tls=False``.

        Format-3 corpora keep the transaction rows columnar at the
        corpus level; the loader passes each session's slice in via
        ``tls_transactions``.
        """
        http = {
            "start": _decode_array(payload["http"]["start"], np.float64),
            "end": _decode_array(payload["http"]["end"], np.float64),
            "request_bytes": _decode_array(payload["http"]["request_bytes"], np.int64),
            "response_bytes": _decode_array(payload["http"]["response_bytes"], np.int64),
            "resource_code": _decode_array(payload["http"]["resource_code"], np.int8),
            "quality": _decode_array(payload["http"]["quality"], np.int8),
        }
        labels = SessionLabels(
            rebuffering_ratio=payload["labels"]["rebuffering_ratio"],
            rebuffering=payload["labels"]["rebuffering"],
            quality=payload["labels"]["quality"],
            combined=payload["labels"]["combined"],
            policed=int(payload["labels"].get("policed", 0)),
        )
        return cls(
            service=payload["service"],
            video_id=payload["video_id"],
            tls_transactions=tls_transactions,
            http=http,
            transfers=_decode_array(payload["transfers"], np.float64).reshape(
                -1, len(_TRANSFER_COLUMNS)
            ),
            connections=_decode_array(payload["connections"], np.float64).reshape(
                -1, 3
            ),
            labels=labels,
            watch_duration_s=payload["watch_duration_s"],
            session_end=payload["session_end"],
            play_time=payload["play_time"],
            stall_time=payload["stall_time"],
            startup_delay=payload["startup_delay"],
            link_mean_bps=payload["link_mean_bps"],
            session_hosts=tuple(payload["session_hosts"]),
            scenario=payload.get("scenario", "identity"),
            workload=payload.get("workload", "has"),
        )


@dataclass
class Dataset:
    """A corpus of sessions from one service."""

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

        Built once and cached (format-3 loads arrive with it already
        populated); every vectorized consumer — feature extraction,
        boundary evaluation, serialization — shares this instance.  The
        cache tracks the session count, so a table built before direct
        ``sessions`` mutations is discarded; consumers that mutate
        records in place should call :meth:`invalidate_tls_table`.
        """
        table = self._tls_table
        if table is None or table.n_sessions != len(self.sessions):
            table = TransactionTable.from_sessions(
                [s.tls_transactions for s in self.sessions]
            )
            self._tls_table = table
        return table

    def invalidate_tls_table(self) -> None:
        """Drop the cached columnar view (after in-place session edits)."""
        self._tls_table = None

    # ------------------------------------------------------------------
    def save(self, path: str | Path, shard_size: int | None = None):
        """Write the corpus as (gzipped, if ``.gz``) format-3 JSON.

        With ``shard_size`` set, ``path`` becomes a format-4 *shard
        directory* instead (:func:`repro.collection.shards.save_sharded`
        — ``shard_size`` sessions per npz shard, manifest written
        last); the lazy :class:`~repro.collection.shards.ShardedDataset`
        view of what was written is returned.

        The TLS transactions of every session go into one corpus-level
        columnar block (``tls``): the four float64 columns and the
        offset index base64-encoded like every other array, SNI
        hostnames dictionary-encoded (unique host list + per-row int
        codes).  The write is atomic
        (:func:`~repro.artifacts.atomic_write_bytes`), so a concurrent
        reader (parallel benchmark/experiment runs share the ``.cache/``
        directory) never sees a truncated corpus.
        """
        path = Path(path)
        if shard_size is not None:
            from repro.collection.shards import save_sharded

            return save_sharded(self, path, shard_size)
        with telemetry.span("dataset.save", sessions=len(self.sessions)) as sp:
            table = self.tls_table()
            hosts = sorted(set(table.sni))
            host_code = {h: i for i, h in enumerate(hosts)}
            codes = np.fromiter(
                (host_code[s] for s in table.sni), dtype=np.int32, count=table.n_rows
            )
            payload = {
                "format": FORMAT_VERSION,
                "service": self.service,
                "tls": {
                    "start": _encode_array(table.start),
                    "end": _encode_array(table.end),
                    "uplink": _encode_array(table.uplink),
                    "downlink": _encode_array(table.downlink),
                    "offsets": _encode_array(table.offsets),
                    "hosts": hosts,
                    "host_codes": _encode_array(codes),
                },
                "sessions": [s.to_dict(include_tls=False) for s in self.sessions],
            }
            raw = json.dumps(payload, separators=(",", ":")).encode()
            if path.suffix == ".gz":
                raw = gzip.compress(raw, compresslevel=4)
            sp.set(bytes=len(raw))
            telemetry.count("dataset.bytes_written", len(raw))
            atomic_write_bytes(path, raw)

    @classmethod
    def load(cls, path: str | Path):
        """Read a corpus written by :meth:`save` (format 3 or 4).

        ``path`` may be a format-3 corpus *file* (returning a
        :class:`Dataset`) or a format-4 shard *directory* — or its
        ``manifest.json`` — returning a lazy
        :class:`~repro.collection.shards.ShardedDataset` that reads
        only the manifest up front.

        Any malformed, truncated, retired-format (1 or 2) or
        unknown-format corpus raises a single
        :class:`DatasetFormatError` naming the offending path —
        parsing internals (``KeyError``, ``binascii.Error``, torn gzip
        streams, ...) never leak.  A missing path keeps raising plain
        ``OSError``.
        """
        path = Path(path)
        if path.is_dir() or path.name == "manifest.json":
            from repro.collection.shards import ShardedDataset

            return ShardedDataset.load(path)
        raw = path.read_bytes()
        try:
            with telemetry.span("dataset.load", bytes=len(raw)) as sp:
                if path.suffix == ".gz":
                    raw = gzip.decompress(raw)
                payload = json.loads(raw)
                if not isinstance(payload, dict):
                    raise ValueError("corpus payload is not a JSON object")
                # Format 1 predates the "format" key.
                version = payload.get("format", 1)
                if version == 4:
                    raise ValueError(
                        "format 4 is a sharded directory layout, not a "
                        "file — pass the corpus directory (or its "
                        "manifest.json) instead"
                    )
                if version != FORMAT_VERSION:
                    kind = "retired" if version in (1, 2) else "unknown"
                    raise DatasetFormatError(
                        f"cannot load {path}: {kind} corpus format "
                        f"{version!r} (corpora load from format-3 files "
                        "and format-4 shard directories)"
                    )
                sp.set(format=version)
                dataset = cls._from_payload_v3(payload)
                sp.set(sessions=len(dataset.sessions))
                return dataset
        except (
            KeyError,
            IndexError,
            ValueError,
            TypeError,
            binascii.Error,
            EOFError,
            zlib.error,
            gzip.BadGzipFile,
            json.JSONDecodeError,
            UnicodeDecodeError,
        ) as exc:
            raise DatasetFormatError(f"corrupt corpus file {path}: {exc}") from exc

    @classmethod
    def _from_payload_v3(cls, payload: dict) -> "Dataset":
        """Materialize a format-3 corpus: columnar TLS block + sessions."""
        tls = payload["tls"]
        hosts = list(tls["hosts"])
        codes = _decode_array(tls["host_codes"], np.int64)
        table = TransactionTable(
            start=_decode_array(tls["start"], np.float64),
            end=_decode_array(tls["end"], np.float64),
            uplink=_decode_array(tls["uplink"], np.float64),
            downlink=_decode_array(tls["downlink"], np.float64),
            offsets=_decode_array(tls["offsets"], np.int64),
            sni=tuple(hosts[c] for c in codes),
        )
        if table.n_sessions != len(payload["sessions"]):
            raise ValueError(
                f"TLS offset index covers {table.n_sessions} sessions "
                f"but the corpus stores {len(payload['sessions'])}"
            )
        dataset = cls(
            service=payload["service"],
            sessions=[
                SessionRecord.from_dict(p, tls_transactions=table.transactions(i))
                for i, p in enumerate(payload["sessions"])
            ],
        )
        dataset._tls_table = table
        return dataset
