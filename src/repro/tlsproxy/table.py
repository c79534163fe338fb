"""Columnar transaction table: the struct-of-arrays data plane.

Every layer of the pipeline used to shuttle per-session Python lists of
:class:`~repro.tlsproxy.records.TlsTransaction` dataclasses and rebuild
numpy arrays inside each consumer.  A :class:`TransactionTable` holds
the same information once, for a whole corpus, as four contiguous
float64 columns (``start``, ``end``, ``uplink``, ``downlink``) plus a
session *offset index*: session ``s`` owns rows
``[offsets[s], offsets[s + 1])``.  SNI hostnames ride along as an
optional string column for the consumers that need them (boundary
detection, serialization).  The constructor checks every row's values
(:func:`check_rows`), so a table read straight from stored columns
holds no row a :class:`~repro.tlsproxy.records.TlsTransaction` would
reject.

The module also provides the segment-reduction primitives the
vectorized feature extractors are built from.  Bit-identity between the
columnar fast path and the per-session reference extractors hinges on
one contract: **all sums are sequential left-to-right**
(``np.add.reduceat`` order).  ``np.ndarray.sum`` uses pairwise/SIMD
summation whose grouping depends on array length and build flags, so it
cannot be reproduced segment-wise; :func:`ordered_sum` gives scalar
code the exact summation order :func:`segment_sum` applies per segment.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro import telemetry
from repro.tlsproxy.records import TlsTransaction, transactions_to_columns

__all__ = [
    "TransactionTable",
    "check_rows",
    "ordered_sum",
    "segment_sum",
    "segment_min_med_max",
]

_ZERO_OFFSET = np.zeros(1, dtype=np.intp)


def check_rows(
    start: np.ndarray, end: np.ndarray, uplink: np.ndarray, downlink: np.ndarray
) -> None:
    """Reject rows no TLS export can hold, all rows in one array pass.

    The column form of :class:`~repro.tlsproxy.records.TlsTransaction`'s
    checks: every value finite, no transaction ending before it starts,
    no negative byte count.  Rows that reach a table without passing
    through record objects (shard columns, flow export) are checked
    here.  The ``ValueError`` names the first bad row, and its message
    starts with the offending column's name.
    """
    ok = np.isfinite(start) & np.isfinite(end) & np.isfinite(uplink) & np.isfinite(downlink)
    ok &= end >= start
    ok &= uplink >= 0
    ok &= downlink >= 0
    if ok.all():
        return
    row = int(np.argmin(ok))
    columns = {"start": start, "end": end, "uplink": uplink, "downlink": downlink}
    for name, column in columns.items():
        if not np.isfinite(column[row]):
            raise ValueError(f"{name} must be finite, got {float(column[row])} at row {row}")
    if end[row] < start[row]:
        raise ValueError(f"end is before start at row {row}")
    name = "uplink" if uplink[row] < 0 else "downlink"
    raise ValueError(
        f"{name} must be non-negative, got {float(columns[name][row])} at row {row}"
    )


def ordered_sum(values: np.ndarray) -> float:
    """Sequential left-to-right sum of a 1-D array.

    This is the summation order :func:`np.add.reduceat` applies to each
    segment, so per-session reference code using ``ordered_sum`` is
    bit-identical to corpus-level code using :func:`segment_sum`.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    if values.size == 0:
        return 0.0
    return float(np.add.reduceat(values, _ZERO_OFFSET)[0])


def segment_sum(values: np.ndarray, offsets: np.ndarray) -> np.ndarray:
    """Per-segment sequential sums: one value per ``offsets`` segment.

    ``offsets`` is an ``(S + 1,)`` monotone index array; segment ``s``
    covers ``values[offsets[s]:offsets[s + 1]]``.  Empty segments sum
    to ``0.0`` (plain ``np.add.reduceat`` would repeat a neighbouring
    element there).
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    counts = np.diff(offsets)
    out = np.zeros(counts.shape[0], dtype=np.float64)
    nonempty = counts > 0
    if values.size and nonempty.any():
        # Empty segments occupy no rows, so the start offsets of the
        # non-empty segments alone delimit exactly their rows.
        out[nonempty] = np.add.reduceat(values, offsets[:-1][nonempty])
    return out


def segment_min_med_max(
    values: np.ndarray,
    offsets: np.ndarray,
    segment_ids: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-segment (min, median, max), zeros for empty segments.

    Matches ``(v.min(), np.median(v), v.max())`` per segment bit for
    bit: the median of ``n`` sorted values is the middle element (odd
    ``n``) or the exact mean ``(a + b) / 2`` of the two middle elements
    (even ``n``), which is what ``np.median`` computes.
    """
    values = np.ascontiguousarray(values, dtype=np.float64)
    counts = np.diff(offsets)
    n_segments = counts.shape[0]
    mins = np.zeros(n_segments, dtype=np.float64)
    meds = np.zeros(n_segments, dtype=np.float64)
    maxs = np.zeros(n_segments, dtype=np.float64)
    nonempty = counts > 0
    if values.size == 0 or not nonempty.any():
        return mins, meds, maxs
    if segment_ids is None:
        segment_ids = np.repeat(np.arange(n_segments), counts)
    # Stable sort by (segment, value): values ascending within segments.
    ranked = values[np.lexsort((values, segment_ids))]
    lo = offsets[:-1]
    mins[nonempty] = ranked[lo[nonempty]]
    maxs[nonempty] = ranked[(offsets[1:] - 1)[nonempty]]
    med_lo = lo + (counts - 1) // 2
    med_hi = lo + counts // 2
    meds[nonempty] = (ranked[med_lo[nonempty]] + ranked[med_hi[nonempty]]) / 2.0
    return mins, meds, maxs


@dataclass(frozen=True)
class TransactionTable:
    """Struct-of-arrays view of many sessions' TLS transactions.

    Attributes
    ----------
    start, end, uplink, downlink:
        ``(n_rows,)`` float64 columns, one row per transaction.
    offsets:
        ``(n_sessions + 1,)`` int64 offset index; session ``s`` owns
        rows ``[offsets[s], offsets[s + 1])``.
    sni:
        Optional SNI hostname per row (needed by boundary detection
        and serialization; feature extraction ignores it).
    """

    start: np.ndarray
    end: np.ndarray
    uplink: np.ndarray
    downlink: np.ndarray
    offsets: np.ndarray
    sni: tuple[str, ...] | None = field(default=None)

    def __post_init__(self) -> None:
        for name in ("start", "end", "uplink", "downlink"):
            column = np.ascontiguousarray(getattr(self, name), dtype=np.float64)
            if column.ndim != 1:
                raise ValueError(f"column {name!r} must be one-dimensional")
            object.__setattr__(self, name, column)
        offsets = np.ascontiguousarray(self.offsets, dtype=np.int64)
        object.__setattr__(self, "offsets", offsets)
        n = self.start.shape[0]
        if any(
            getattr(self, name).shape[0] != n for name in ("end", "uplink", "downlink")
        ):
            raise ValueError("columns must share one length")
        if offsets.ndim != 1 or offsets.shape[0] < 1:
            raise ValueError("offsets must be a non-empty 1-D index")
        if offsets[0] != 0 or offsets[-1] != n or np.any(np.diff(offsets) < 0):
            raise ValueError("offsets must rise monotonically from 0 to n_rows")
        check_rows(self.start, self.end, self.uplink, self.downlink)
        if self.sni is not None:
            sni = tuple(self.sni)
            if len(sni) != n:
                raise ValueError("sni must have one hostname per row")
            if "" in sni:
                raise ValueError(f"sni must be non-empty at row {sni.index('')}")
            object.__setattr__(self, "sni", sni)

    # -- construction ---------------------------------------------------
    @classmethod
    def from_sessions(
        cls, sessions: Sequence[Sequence[TlsTransaction]]
    ) -> "TransactionTable":
        """Build the table once for a corpus of per-session lists."""
        with telemetry.span("table.build", sessions=len(sessions)) as sp:
            counts = np.fromiter(
                (len(s) for s in sessions), dtype=np.int64, count=len(sessions)
            )
            offsets = np.zeros(len(sessions) + 1, dtype=np.int64)
            np.cumsum(counts, out=offsets[1:])
            flat = [t for session in sessions for t in session]
            start, end, uplink, downlink, sni = transactions_to_columns(flat)
            sp.set(transactions=len(flat))
            telemetry.count("table.transactions", len(flat))
            return cls(
                start=start, end=end, uplink=uplink, downlink=downlink,
                offsets=offsets, sni=sni,
            )

    @classmethod
    def concat(cls, tables: Sequence["TransactionTable"]) -> "TransactionTable":
        """Stack tables end to end (shard slabs -> one corpus table).

        Sessions keep their order: the result's session ``i`` is the
        ``i``-th session across the concatenated inputs, with rows and
        offsets rebased.  The SNI column survives only when every input
        carries one.  An empty input list yields an empty table.
        """
        if not tables:
            return cls(
                start=np.empty(0), end=np.empty(0), uplink=np.empty(0),
                downlink=np.empty(0), offsets=np.zeros(1, dtype=np.int64),
                sni=(),
            )
        if len(tables) == 1:
            return tables[0]
        offsets_parts = [np.zeros(1, dtype=np.int64)]
        base = 0
        for table in tables:
            offsets_parts.append(table.offsets[1:] + base)
            base += table.n_rows
        sni: tuple[str, ...] | None = None
        if all(t.sni is not None for t in tables):
            sni = tuple(h for t in tables for h in t.sni)
        return cls(
            start=np.concatenate([t.start for t in tables]),
            end=np.concatenate([t.end for t in tables]),
            uplink=np.concatenate([t.uplink for t in tables]),
            downlink=np.concatenate([t.downlink for t in tables]),
            offsets=np.concatenate(offsets_parts),
            sni=sni,
        )

    # -- slab codec ------------------------------------------------------
    def to_arrays(self) -> dict[str, np.ndarray]:
        """The table as plain arrays (the format-4 shard slab layout).

        SNI hostnames are dictionary-encoded: a sorted unique ``hosts``
        unicode array plus int32 per-row ``host_codes``.  Everything is
        numeric or unicode, so the dict round-trips through ``np.savez``
        without pickle.
        """
        if self.sni is None:
            raise ValueError("table has no SNI column; shard slabs require one")
        hosts = sorted(set(self.sni))
        host_code = {h: i for i, h in enumerate(hosts)}
        codes = np.fromiter(
            (host_code[h] for h in self.sni), dtype=np.int32, count=self.n_rows
        )
        return {
            "start": self.start,
            "end": self.end,
            "uplink": self.uplink,
            "downlink": self.downlink,
            "offsets": self.offsets,
            "hosts": np.asarray(hosts, dtype=np.str_),
            "host_codes": codes,
        }

    @classmethod
    def from_arrays(cls, arrays: dict[str, np.ndarray]) -> "TransactionTable":
        """Inverse of :meth:`to_arrays` (exact round-trip).

        ``host_codes`` must index ``hosts``; a shard's codes are checked
        on read (:class:`~repro.collection.shards.ShardReader`).  Rows
        of one host share one ``str`` object.
        """
        hosts = np.asarray(arrays["hosts"], dtype=np.str_).tolist()
        codes = np.asarray(arrays["host_codes"], dtype=np.int64).tolist()
        return cls(
            start=arrays["start"],
            end=arrays["end"],
            uplink=arrays["uplink"],
            downlink=arrays["downlink"],
            offsets=arrays["offsets"],
            sni=tuple(map(hosts.__getitem__, codes)),
        )

    @classmethod
    def from_transactions(
        cls, transactions: Sequence[TlsTransaction]
    ) -> "TransactionTable":
        """A single-session table (one segment spanning every row)."""
        start, end, uplink, downlink, sni = transactions_to_columns(transactions)
        offsets = np.array([0, len(transactions)], dtype=np.int64)
        return cls(
            start=start, end=end, uplink=uplink, downlink=downlink,
            offsets=offsets, sni=sni,
        )

    # -- shape ----------------------------------------------------------
    @property
    def n_rows(self) -> int:
        """Total transactions across all sessions."""
        return int(self.start.shape[0])

    @property
    def n_sessions(self) -> int:
        """Number of sessions the offset index delimits."""
        return int(self.offsets.shape[0] - 1)

    @property
    def counts(self) -> np.ndarray:
        """Transactions per session, ``(n_sessions,)`` int64."""
        return np.diff(self.offsets)

    @property
    def session_ids(self) -> np.ndarray:
        """Owning session of each row, ``(n_rows,)`` int64."""
        return np.repeat(np.arange(self.n_sessions, dtype=np.int64), self.counts)

    def __len__(self) -> int:
        return self.n_sessions

    # -- access ---------------------------------------------------------
    def session_rows(self, index: int) -> tuple[int, int]:
        """The ``[lo, hi)`` row range of one session."""
        if not 0 <= index < self.n_sessions:
            raise IndexError(f"session index {index} out of range")
        return int(self.offsets[index]), int(self.offsets[index + 1])

    def session(self, index: int) -> "TransactionTable":
        """A one-session slice (column views, no copies)."""
        lo, hi = self.session_rows(index)
        return TransactionTable(
            start=self.start[lo:hi],
            end=self.end[lo:hi],
            uplink=self.uplink[lo:hi],
            downlink=self.downlink[lo:hi],
            offsets=np.array([0, hi - lo], dtype=np.int64),
            sni=self.sni[lo:hi] if self.sni is not None else None,
        )

    def transactions(
        self, index: int | None = None, shift: float | None = None
    ) -> list[TlsTransaction]:
        """Materialize dataclass records (one session, or every row).

        This is the compatibility bridge for consumers that still want
        row objects; columnar consumers should read the columns.
        ``shift`` translates every start and end by that many seconds
        before the records are built (what
        :meth:`~repro.tlsproxy.records.TlsTransaction.shifted` gives,
        one object per row).
        """
        if self.sni is None:
            raise ValueError("table has no SNI column to materialize records from")
        if index is None:
            lo, hi = 0, self.n_rows
        else:
            lo, hi = self.session_rows(index)
        start, end = self.start[lo:hi], self.end[lo:hi]
        if shift is not None:
            start, end = start + shift, end + shift
        return [
            TlsTransaction(
                start=s, end=e, uplink_bytes=int(u), downlink_bytes=int(d), sni=h
            )
            for s, e, u, d, h in zip(
                start.tolist(),
                end.tolist(),
                self.uplink[lo:hi].tolist(),
                self.downlink[lo:hi].tolist(),
                self.sni[lo:hi],
            )
        ]

    def iter_sessions(self) -> "list[TransactionTable]":
        """One single-session slice per session."""
        return [self.session(i) for i in range(self.n_sessions)]
