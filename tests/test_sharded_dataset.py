"""Corpus tests: format-4 round-trips, retired formats, crash
atomicity, digest verification, the lazy-access contract, and records
built one session at a time from stored and in-memory blocks."""

import gzip
import itertools
import json

import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import api, config
from repro.collection.dataset import Dataset, DatasetFormatError
from repro.collection.fleet import extract_tls_sharded
from repro.collection.harness import (
    CollectionConfig,
    collect_corpus,
    collect_records,
    plan_collection,
)
from repro.collection.shards import (
    MANIFEST_NAME,
    SESSION_COLUMNS,
    column_dtype,
    save_sharded,
    shard_name,
)
from repro.net.scenarios import resolve_scenario
from repro.netflow.features import extract_flow_matrix
from repro.qoe.labels import TARGETS
from repro.tlsproxy.table import TransactionTable


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc2", 11, seed=19)


@pytest.fixture()
def sharded(corpus, tmp_path):
    return save_sharded(corpus, tmp_path / "corpus.shards", shard_size=4)


def _truncate(path):
    """Cut a file to half its bytes, as a torn copy would."""
    path.write_bytes(path.read_bytes()[: path.stat().st_size // 2])


def _rewrite_member(path, name, edit):
    """Rewrite one npz member of a shard file in place."""
    with np.load(path) as z:
        arrays = {member: z[member] for member in z.files}
    arrays[name] = edit(arrays[name].copy())
    np.savez_compressed(path, **arrays)


def _swap(offsets):
    offsets[[1, 2]] = offsets[[2, 1]]
    return offsets


def _shorten_end(offsets):
    offsets[-1] -= 1
    return offsets


def _set(row, value):
    def edit(column):
        column[row] = value
        return column

    return edit


#: One corrupt member per check the shard reader and the table
#: validator make: ``(member, edit, message)``.
BAD_MEMBERS = {
    "short-label": ("label_combined", lambda labels: labels[:2], "label_combined holds 2 entries"),
    "nan-start": ("tls_start", _set(0, np.nan), "tls_start must be finite, got nan at row 0"),
    "end-before-start": ("tls_end", _set(1, -1.0), "tls_end is before start at row 1"),
    "negative-bytes": ("tls_uplink", _set(2, -5.0), "tls_uplink must be non-negative"),
    "empty-host": ("tls_hosts", _set(0, ""), "tls_hosts names an empty host"),
    "host-code-out-of-range": ("tls_host_codes", _set(0, -1), "tls_host_codes must index"),
}


def _reads(sharded, tmp_path):
    """Every columnar read of a corpus, by name.  The fleet extract
    gets a fresh artifact store per call, so it always reads shards."""
    stores = itertools.count()

    def fleet():
        with config.override(cache_dir=tmp_path / f"store-{next(stores)}"):
            return extract_tls_sharded(sharded)[0]

    return {
        "fleet-extract": fleet,
        "flow-fan-out": lambda: extract_flow_matrix(sharded)[0],
        "iter-tables": lambda: [
            (t.start, t.end, t.uplink, t.downlink, t.offsets, t.sni)
            for t in sharded.iter_tables()
        ],
        "column": lambda: [sharded.column(name) for name in SESSION_COLUMNS],
        "labels": lambda: sharded.labels("combined"),
    }


def _same(a, b):
    if isinstance(a, np.ndarray):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def assert_records_equal(ra, rb):
    assert ra.tls_transactions == rb.tls_transactions
    assert ra.video_id == rb.video_id
    assert ra.session_hosts == rb.session_hosts
    assert ra.labels == rb.labels
    np.testing.assert_array_equal(ra.transfers, rb.transfers)
    np.testing.assert_array_equal(ra.connections, rb.connections)
    for key in ra.http:
        np.testing.assert_array_equal(ra.http[key], rb.http[key])


class TestRoundTrip:
    def test_layout(self, sharded):
        assert sharded.n_shards == 3
        assert [e.name for e in sharded.entries] == [shard_name(i) for i in range(3)]
        assert [e.n_sessions for e in sharded.entries] == [4, 4, 3]
        assert (sharded.root / MANIFEST_NAME).exists()

    def test_sessions_identical(self, corpus, sharded):
        assert sharded.service == corpus.service
        assert len(sharded) == len(corpus)
        for ra, rb in zip(corpus, sharded):
            assert_records_equal(ra, rb)

    def test_dataset_save_dispatches(self, corpus, tmp_path):
        assert corpus.root is None and corpus.manifest_digest is None
        out = corpus.save(tmp_path / "via-save.shards", shard_size=5)
        assert isinstance(out, Dataset) and out.root == tmp_path / "via-save.shards"
        assert out.n_shards == 3

    def test_dataset_load_dispatches(self, sharded):
        via_dir = Dataset.load(sharded.root)
        via_manifest = Dataset.load(sharded.root / MANIFEST_NAME)
        assert via_dir.root == via_manifest.root == sharded.root
        assert via_dir.manifest_digest == via_manifest.manifest_digest

    def test_getitem_crosses_shard_bounds(self, corpus, sharded):
        for i in (0, 3, 4, 10, -1):
            assert_records_equal(sharded[i], corpus.sessions[i])
        with pytest.raises(IndexError):
            sharded[len(corpus)]

    def test_tls_table_matches_monolithic(self, corpus, sharded):
        mono, shard = corpus.tls_table(), sharded.tls_table()
        np.testing.assert_array_equal(mono.start, shard.start)
        np.testing.assert_array_equal(mono.uplink, shard.uplink)
        np.testing.assert_array_equal(mono.offsets, shard.offsets)
        assert mono.sni == shard.sni

    def test_labels_and_distribution(self, corpus, sharded):
        for target in TARGETS:
            np.testing.assert_array_equal(
                sharded.labels(target), corpus.labels(target)
            )
            np.testing.assert_allclose(
                sharded.label_distribution(target),
                corpus.label_distribution(target),
            )
        with pytest.raises(ValueError):
            sharded.labels("nope")

    def test_to_dataset(self, corpus, sharded):
        back = sharded.to_dataset()
        assert isinstance(back, Dataset)
        for ra, rb in zip(corpus, back):
            assert_records_equal(ra, rb)

    def test_save_is_deterministic(self, corpus, tmp_path):
        a = save_sharded(corpus, tmp_path / "a.shards", shard_size=4)
        b = save_sharded(corpus, tmp_path / "b.shards", shard_size=4)
        assert a.manifest_digest == b.manifest_digest
        assert [e.sha256 for e in a.entries] == [e.sha256 for e in b.entries]

    def test_resave_removes_stray_shards(self, corpus, tmp_path):
        root = tmp_path / "corpus.shards"
        first = save_sharded(corpus, root, shard_size=2)
        assert first.n_shards == 6
        again = save_sharded(corpus, root, shard_size=4)
        assert again.n_shards == 3
        on_disk = sorted(p.name for p in root.glob("shard-*.npz"))
        assert on_disk == [shard_name(i) for i in range(3)]


class TestLaziness:
    def test_labels_never_materialize_shards(self, sharded):
        sharded.drop_caches()
        sharded.labels("combined")
        assert sharded.counters["materialized"] == 0

    def test_transfer_blocks_never_materialize_shards(self, corpus, sharded):
        sharded.drop_caches()
        blocks = list(sharded.transfer_blocks())
        assert sharded.counters["materialized"] == 0
        assert [o.shape[0] - 1 for _, o in blocks] == [4, 4, 3]
        transfers = np.concatenate([t for t, _ in blocks])
        np.testing.assert_array_equal(
            transfers, np.concatenate([r.transfers for r in corpus])
        )

    def test_lru_keeps_two_shards(self, sharded):
        sharded.drop_caches()
        list(sharded)  # a sweep reads each block once and caches none
        assert sharded.counters["materialized"] == sharded.n_shards
        sharded[8], sharded[4]  # blocks 2 and 1, read and cached
        sharded[9], sharded[5]  # both still cached
        assert sharded.counters["cache_hits"] == 2
        sharded[0]  # block 0 evicts block 2
        sharded[8]  # block 2 evicts block 1
        assert sharded.counters["materialized"] == sharded.n_shards + 4
        list(sharded)  # reuses the cached blocks 0 and 2, reads block 1
        assert sharded.counters["materialized"] == sharded.n_shards + 5
        assert sharded.counters["cache_hits"] == 4


def _collected(service, n_sessions, seed, **kwargs):
    """Records as the collector builds them, before any encoding."""
    plan = plan_collection(service, n_sessions, seed, n_jobs=1, **kwargs)
    return collect_records(plan.profile, plan.config, plan.seeds)


@pytest.fixture(scope="module")
def kinds():
    """Collected records of three kinds: on-demand, RTC, and impaired
    on-demand."""
    return {
        "svc1": _collected("svc1", 5, 41),
        "rtc1": _collected("rtc1", 5, 42, workload="rtc"),
        "svc1-hostile": _collected(
            "svc1", 5, 43, config=CollectionConfig(scenario=resolve_scenario("hostile"))
        ),
    }


def _both_forms(records, tmp, shard_size):
    """The records as a fresh in-memory corpus and a fresh stored one."""
    service = records[0].service
    save_sharded(Dataset(service, records), Path(tmp) / "c.shards", shard_size)
    return {"memory": Dataset(service, records), "stored": Dataset.load(Path(tmp) / "c.shards")}


KIND = st.sampled_from(["svc1", "rtc1", "svc1-hostile"])


class TestColumnarReadProperties:
    """Records written at any shard size read back identically, on the
    corpus held in memory and on the stored one: through every columnar
    reader, and through records built one session at a time."""

    @settings(max_examples=20, deadline=None)
    @given(kind=KIND, shard_size=st.integers(1, 6))
    def test_write_then_read_columns(self, kinds, kind, shard_size):
        records = kinds[kind]
        mono = TransactionTable.from_sessions([r.tls_transactions for r in records])
        transfers = np.concatenate([r.transfers for r in records])
        offsets = np.cumsum([0] + [r.transfers.shape[0] for r in records]).tolist()
        with tempfile.TemporaryDirectory() as tmp:
            for form, corpus in _both_forms(records, tmp, shard_size).items():
                table = corpus.tls_table()
                for name in ("start", "end", "uplink", "downlink", "offsets"):
                    assert _same(getattr(table, name), getattr(mono, name)), (form, name)
                assert table.sni == mono.sni, form
                blocks = list(corpus.transfer_blocks())
                assert _same(np.concatenate([t for t, _ in blocks]), transfers), form
                rebased = [0]
                for _, block_offsets in blocks:
                    rebased.extend((block_offsets[1:] + rebased[-1]).tolist())
                assert rebased == offsets, form
                for target in TARGETS + ("policed",):
                    want = np.array([r.labels.get(target) for r in records], dtype=np.int64)
                    assert _same(corpus.labels(target), want), (form, target)
                for name in SESSION_COLUMNS:
                    want = np.array([getattr(r, name) for r in records], dtype=column_dtype(name))
                    assert _same(corpus.column(name), want), (form, name)
                assert corpus.counters["materialized"] == 0, form
                back = list(corpus)
                assert len(back) == len(records), form
                for ra, rb in zip(records, back):
                    assert_records_equal(ra, rb)
                    assert (rb.service, rb.scenario, rb.workload) == (
                        ra.service, ra.scenario, ra.workload
                    ), form
                    for name in SESSION_COLUMNS:
                        assert getattr(rb, name) == getattr(ra, name), (form, name)

    @settings(max_examples=20, deadline=None)
    @given(kind=KIND, shard_size=st.integers(1, 6), data=st.data())
    def test_records_built_one_session_at_a_time(self, kinds, kind, shard_size, data):
        records = kinds[kind]
        n = len(records)
        with tempfile.TemporaryDirectory() as tmp:
            for form, corpus in _both_forms(records, tmp, shard_size).items():
                i = data.draw(st.integers(-n, n - 1), label="cold index")
                assert_records_equal(corpus[i], records[i])
                # A cold corpus reads exactly the one block holding i.
                assert corpus.counters["materialized"] == 1, form
                for i in range(-n, n):
                    assert_records_equal(corpus[i], records[i])
                with pytest.raises(IndexError):
                    corpus[n]
                assert [r.video_id for r in corpus] == [r.video_id for r in records], form
                # Records own their slices: mutating a held one reaches
                # neither the cached block nor the records built later.
                held = corpus[-1]
                held.transfers += 1.0
                held.connections[:] = -1.0
                held.http["start"] += 1.0
                assert_records_equal(corpus[-1], records[-1])
                assert_records_equal(list(corpus)[-1], records[-1])


class TestLegacyFormats:
    """The retired single-file formats 1-3 are rejected at the edge
    with a named error; corpora load from format-4 directories only."""

    @staticmethod
    def _legacy_file(version, path):
        # Header-only payloads: the rejection reads no session data.
        payload = {"service": "svc2", "sessions": []}
        if version > 1:  # format 1 predates the "format" key
            payload["format"] = version
        raw = json.dumps(payload).encode()
        # Format 3 was usually written gzipped (``-o corpus.json.gz``).
        path.write_bytes(gzip.compress(raw) if version == 3 else raw)

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_formats_1_and_2(self, tmp_path, version, capsys):
        from repro.cli import main

        path = tmp_path / f"v{version}.json{'.gz' if version == 3 else ''}"
        self._legacy_file(version, path)
        with pytest.raises(DatasetFormatError) as excinfo:
            Dataset.load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert f"format {version} " in message
        assert "format-4 shard directories" in message
        assert main(["corpus", "info", str(path)]) == 1
        assert message in capsys.readouterr().err

    def test_format_4_in_a_file_is_rejected(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"format": 4, "sessions": []}))
        with pytest.raises(DatasetFormatError, match="sharded directory"):
            Dataset.load(path)


class TestCorruption:
    def test_missing_manifest_means_incomplete(self, sharded, tmp_path):
        """Crash-mid-write atomicity: the manifest is written last, so a
        directory without one is explicitly incomplete, never a
        silently short corpus."""
        (sharded.root / MANIFEST_NAME).unlink()
        with pytest.raises(DatasetFormatError, match="incomplete"):
            Dataset.load(sharded.root)

    def test_empty_dir_is_not_a_corpus(self, tmp_path):
        with pytest.raises(DatasetFormatError):
            Dataset.load(tmp_path)

    def test_manifest_garbage(self, sharded):
        (sharded.root / MANIFEST_NAME).write_text("{not json")
        with pytest.raises(DatasetFormatError):
            Dataset.load(sharded.root)

    def test_unknown_format_version(self, sharded):
        payload = json.loads((sharded.root / MANIFEST_NAME).read_text())
        payload["format"] = 99
        (sharded.root / MANIFEST_NAME).write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError, match="99"):
            Dataset.load(sharded.root)

    def test_verify_ok(self, sharded):
        report = sharded.verify()
        assert report["shards"] == sharded.n_shards
        assert report["bytes"] > 0

    def test_verify_catches_corruption(self, sharded):
        garbage, torn = (sharded.root / e.name for e in sharded.entries[1:3])
        garbage.write_bytes(b"garbage")
        _truncate(torn)
        with pytest.raises(DatasetFormatError) as excinfo:
            sharded.verify()
        assert garbage.name in str(excinfo.value)
        assert torn.name in str(excinfo.value)

    def test_verify_catches_missing_shard(self, sharded):
        (sharded.root / sharded.entries[0].name).unlink()
        with pytest.raises(DatasetFormatError):
            sharded.verify()

    @pytest.mark.parametrize("case", sorted(BAD_MEMBERS))
    def test_bad_member_is_named_by_every_read_of_it(self, sharded, tmp_path, case):
        """A read that loads the corrupt member raises a named
        DatasetFormatError; a read that does not load it returns what it
        returned before the corruption."""
        member, edit, message = BAD_MEMBERS[case]
        reads = _reads(sharded, tmp_path)
        clean = {name: read() for name, read in reads.items()}
        shard = sharded.root / sharded.entries[0].name
        _rewrite_member(shard, member, edit)
        sharded.drop_caches()
        reading = {"fleet-extract", "iter-tables"} if member.startswith("tls_") else {"labels"}
        for name, read in reads.items():
            if name in reading:
                with pytest.raises(DatasetFormatError) as excinfo:
                    read()
                assert f"{shard.name}: {message}" in str(excinfo.value), name
            else:
                assert _same(read(), clean[name]), name
        with pytest.raises(DatasetFormatError, match=f"{shard.name}: {member}"):
            sharded[0]

    def test_short_label_member_of_a_svc1_corpus(self, tmp_path):
        """Six sessions in shards of 3, shard 0 rewritten with two
        ``label_combined`` entries: no read returns five labels or
        raises a bare IndexError."""
        corpus = save_sharded(
            collect_corpus("svc1", 6, seed=3), tmp_path / "svc1.shards", shard_size=3
        )
        _rewrite_member(corpus.root / shard_name(0), "label_combined", lambda a: a[:2])
        corpus.drop_caches()
        for read in (
            lambda: corpus.labels("combined"),
            lambda: corpus[0],
            lambda: list(corpus),
        ):
            with pytest.raises(
                DatasetFormatError, match="shard-00000.npz: label_combined holds 2 entries"
            ):
                read()
        X, _ = api.extract_features(corpus)
        assert X.shape[0] == 6

    def test_loading_corrupt_shard_fails_loud(self, sharded):
        (sharded.root / sharded.entries[0].name).write_bytes(b"garbage")
        _truncate(sharded.root / sharded.entries[1].name)
        sharded.drop_caches()
        for i in (0, 4):  # the first session of shards 0 and 1
            with pytest.raises(DatasetFormatError, match=sharded.entries[i // 4].name):
                sharded[i]


class TestCorruptOffsets:
    """An offset index that does not fit its column is named with its
    shard, both when a record is built from the shard and when flow
    export reads the shard's transfer members."""

    @pytest.mark.parametrize("corrupt", [_swap, _shorten_end], ids=["swap", "short-end"])
    @pytest.mark.parametrize(
        "name",
        ["transfer_offsets", "connection_offsets", "http_offsets", "session_hosts_offsets"],
    )
    def test_decode_and_flow_extraction(self, sharded, name, corrupt):
        clean, _ = extract_flow_matrix(sharded)
        shard = sharded.root / sharded.entries[1].name
        _rewrite_member(shard, name, corrupt)
        sharded.drop_caches()
        with pytest.raises(DatasetFormatError, match=f"{shard.name}: {name}"):
            sharded[4]
        if name == "transfer_offsets":
            with pytest.raises(DatasetFormatError, match=f"{shard.name}: {name}"):
                extract_flow_matrix(sharded)
        else:  # flow export reads the transfer members alone
            X, _ = extract_flow_matrix(sharded)
            assert X.tobytes() == clean.tobytes()

    def test_transfers_of_the_wrong_width(self, sharded):
        shard = sharded.root / sharded.entries[0].name
        _rewrite_member(shard, "transfers", lambda t: t.ravel()[:-1])
        sharded.drop_caches()
        for read in (lambda: sharded[0], lambda: extract_flow_matrix(sharded)):
            with pytest.raises(DatasetFormatError, match="transfers does not reshape"):
                read()


class TestEdgeCases:
    def test_empty_corpus(self, tmp_path):
        empty = Dataset(service="svc1", sessions=[])
        out = save_sharded(empty, tmp_path / "empty.shards", shard_size=4)
        assert len(out) == 0
        assert out.n_shards == 0
        assert list(out) == []
        assert out.labels("combined").shape == (0,)
        np.testing.assert_array_equal(out.label_distribution("combined"), np.zeros(3))

    def test_shard_size_one(self, corpus, tmp_path):
        out = save_sharded(corpus, tmp_path / "tiny.shards", shard_size=1)
        assert out.n_shards == len(corpus)
        for ra, rb in zip(corpus, out):
            assert_records_equal(ra, rb)

    def test_shard_size_validation(self, corpus, tmp_path):
        with pytest.raises(ValueError):
            save_sharded(corpus, tmp_path / "bad.shards", shard_size=0)
