"""Corpus files are rejected at the edge: every corpus is a format-4
shard directory, so :meth:`Dataset.load` on any file raises one
:class:`DatasetFormatError` naming the path — never a parsing internal."""

import gzip
import json

import pytest

from repro.collection.dataset import Dataset, DatasetFormatError

_FORMAT3_GZIP = gzip.compress(
    json.dumps({"format": 3, "service": "svc1", "tls": {}, "sessions": []}).encode()
)

#: File contents ``Dataset.load`` must reject, by case name.
REJECTED_FILES = {
    "invalid-json": b"{not json at all",
    "json-list": b"[1, 2, 3]",
    "format-99": json.dumps({"format": 99, "service": "svc1", "sessions": []}).encode(),
    "format-4": json.dumps({"format": 4}).encode(),
    "truncated-gzip": _FORMAT3_GZIP[: len(_FORMAT3_GZIP) // 2],
}


class TestDatasetFormatError:
    @pytest.mark.parametrize("case", sorted(REJECTED_FILES))
    def test_file_is_rejected(self, tmp_path, case):
        path = tmp_path / f"{case}.json"
        path.write_bytes(REJECTED_FILES[case])
        with pytest.raises(DatasetFormatError) as excinfo:
            Dataset.load(path)
        message = str(excinfo.value)
        assert str(path) in message
        assert "format-4 shard directories" in message

    def test_missing_file_still_oserror(self, tmp_path):
        """A missing file is an I/O problem, not a format problem."""
        with pytest.raises(OSError):
            Dataset.load(tmp_path / "nope.json")
