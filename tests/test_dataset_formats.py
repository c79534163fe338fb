"""Corpus file format tests: format-3 round-trips and the
:class:`DatasetFormatError` contract for malformed files."""

import gzip
import json

import numpy as np
import pytest

from repro.collection.dataset import (
    Dataset,
    DatasetFormatError,
    FORMAT_VERSION,
)
from repro.collection.harness import collect_corpus


@pytest.fixture(scope="module")
def corpus():
    return collect_corpus("svc2", 8, seed=7)


def assert_datasets_equal(a: Dataset, b: Dataset) -> None:
    assert a.service == b.service
    assert len(a) == len(b)
    for ra, rb in zip(a, b):
        assert ra.tls_transactions == rb.tls_transactions
        assert ra.video_id == rb.video_id
        assert ra.session_hosts == rb.session_hosts
        assert ra.labels == rb.labels
        np.testing.assert_array_equal(ra.transfers, rb.transfers)
        np.testing.assert_array_equal(ra.connections, rb.connections)
        for key in ra.http:
            np.testing.assert_array_equal(ra.http[key], rb.http[key])


class TestFormat3Roundtrip:
    def test_plain_json(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        corpus.save(path)
        payload = json.loads(path.read_text())
        assert payload["format"] == FORMAT_VERSION == 3
        assert "tls" in payload
        assert all("tls_transactions" not in s for s in payload["sessions"])
        assert_datasets_equal(Dataset.load(path), corpus)

    def test_gzipped(self, corpus, tmp_path):
        path = tmp_path / "corpus.json.gz"
        corpus.save(path)
        assert_datasets_equal(Dataset.load(path), corpus)

    def test_load_prepopulates_table(self, corpus, tmp_path):
        path = tmp_path / "corpus.json.gz"
        corpus.save(path)
        loaded = Dataset.load(path)
        assert loaded._tls_table is not None
        table = loaded.tls_table()
        np.testing.assert_array_equal(table.start, corpus.tls_table().start)
        assert table.sni == corpus.tls_table().sni

    def test_session_count_mismatch_rejected(self, corpus, tmp_path):
        path = tmp_path / "corpus.json"
        corpus.save(path)
        payload = json.loads(path.read_text())
        del payload["sessions"][0]
        path.write_text(json.dumps(payload))
        with pytest.raises(DatasetFormatError):
            Dataset.load(path)


class TestDatasetFormatError:
    """Every corruption mode surfaces as DatasetFormatError naming the
    path — never a bare KeyError/binascii.Error/gzip internals."""

    @pytest.fixture()
    def saved(self, corpus, tmp_path):
        path = tmp_path / "corpus.json.gz"
        corpus.save(path)
        return path

    def _assert_raises_format_error(self, path):
        with pytest.raises(DatasetFormatError) as excinfo:
            Dataset.load(path)
        assert str(path) in str(excinfo.value)
        return excinfo.value

    def test_truncated_gzip(self, saved):
        raw = saved.read_bytes()
        saved.write_bytes(raw[: len(raw) // 2])
        self._assert_raises_format_error(saved)

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json at all")
        self._assert_raises_format_error(path)

    def test_missing_keys(self, saved, tmp_path):
        payload = json.loads(gzip.decompress(saved.read_bytes()))
        del payload["sessions"]
        path = tmp_path / "nokeys.json"
        path.write_text(json.dumps(payload))
        self._assert_raises_format_error(path)

    def test_mangled_base64(self, saved, tmp_path):
        payload = json.loads(gzip.decompress(saved.read_bytes()))
        payload["tls"]["start"]["b64"] = "!!!not base64!!!"
        path = tmp_path / "badb64.json"
        path.write_text(json.dumps(payload))
        self._assert_raises_format_error(path)

    def test_unknown_format_version(self, tmp_path):
        path = tmp_path / "future.json"
        path.write_text(json.dumps({"format": 99, "service": "svc1", "sessions": []}))
        err = self._assert_raises_format_error(path)
        assert "99" in str(err)

    def test_non_dict_payload(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        self._assert_raises_format_error(path)

    def test_missing_file_still_oserror(self, tmp_path):
        """A missing file is an I/O problem, not a format problem."""
        with pytest.raises(OSError):
            Dataset.load(tmp_path / "nope.json")
