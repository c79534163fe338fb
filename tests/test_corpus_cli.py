"""``python -m repro corpus info|verify|shard`` and ``collect`` at the
default and explicit shard sizes: exit codes, messages, byte identity,
and error friendliness on corrupt, partial or misplaced corpora."""

import json

import pytest

from repro.cli import main
from repro.collection.shards import MANIFEST_NAME, shard_name


@pytest.fixture(scope="module")
def mono_path(tmp_path_factory):
    """A corpus collected at the default shard size: one shard."""
    path = tmp_path_factory.mktemp("cli") / "corpus.shards"
    assert main(["collect", "--service", "svc3", "-n", "9", "--seed", "3",
                 "-o", str(path)]) == 0
    return path


@pytest.fixture(scope="module")
def shard_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("cli") / "corpus.shards"
    assert main(["-j", "1", "collect", "--service", "svc3", "-n", "9",
                 "--seed", "3", "-o", str(out), "--shard-size", "4"]) == 0
    return out


class TestCollectShardSize:
    def test_creates_format4_directory(self, shard_dir):
        assert (shard_dir / MANIFEST_NAME).exists()
        assert len(list(shard_dir.glob("shard-*.npz"))) == 3

    def test_message_names_the_shards(self, tmp_path, capsys):
        out = tmp_path / "c.shards"
        assert main(["-j", "1", "collect", "--service", "svc1", "-n", "5",
                     "--seed", "1", "-o", str(out), "--shard-size", "2"]) == 0
        assert "3 shards of <= 2" in capsys.readouterr().out

    def test_rejects_nonpositive(self, capsys):
        with pytest.raises(SystemExit):
            main(["collect", "--service", "svc1", "-n", "2",
                  "-o", "x.shards", "--shard-size", "0"])

    def test_in_process_collect_matches_shard_size_512(self, tmp_path):
        """The worker count and an explicit default shard size change
        only how collection runs: same manifest bytes, same shard
        bytes."""
        a, b = tmp_path / "a.shards", tmp_path / "b.shards"
        assert main(["-j", "2", "collect", "--service", "svc3", "-n", "5",
                     "--seed", "4", "-o", str(a)]) == 0
        assert main(["-j", "1", "collect", "--service", "svc3", "-n", "5",
                     "--seed", "4", "--shard-size", "512", "-o", str(b)]) == 0
        names = sorted(p.name for p in a.iterdir())
        assert names == [MANIFEST_NAME, shard_name(0)]
        assert sorted(p.name for p in b.iterdir()) == names
        for name in names:
            assert (a / name).read_bytes() == (b / name).read_bytes()


class TestOutputPath:
    """Every writer shares one prepare step and one commit step."""

    @pytest.mark.parametrize("flags", [[], ["--shard-size", "2"]])
    def test_file_at_output_exits_2_untouched(self, tmp_path, capsys, flags):
        old = tmp_path / "old.json.gz"
        old.write_bytes(b"an old corpus file")
        assert main(["-j", "1", "collect", "--service", "svc3", "-n", "3",
                     *flags, "-o", str(old)]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert str(old) in err
        assert old.read_bytes() == b"an old corpus file"

    def test_corpus_shard_onto_a_file_exits_2(self, mono_path, tmp_path, capsys):
        target = tmp_path / "target.json"
        target.write_text("{}")
        assert main(["corpus", "shard", str(mono_path), "-o", str(target)]) == 2
        assert str(target) in capsys.readouterr().err
        assert target.read_text() == "{}"

    @pytest.mark.parametrize("as_manifest", [False, True])
    def test_corpus_shard_onto_itself_exits_2_untouched(
        self, tmp_path, capsys, as_manifest
    ):
        corpus = tmp_path / "c.shards"
        assert main(["-j", "1", "collect", "--service", "svc3", "-n", "9",
                     "--shard-size", "4", "-o", str(corpus)]) == 0
        before = {p.name: p.read_bytes() for p in corpus.iterdir()}
        capsys.readouterr()
        source = corpus / MANIFEST_NAME if as_manifest else corpus
        assert main(["corpus", "shard", str(source), "-o", str(corpus),
                     "--shard-size", "2"]) == 2
        err = capsys.readouterr().err
        assert err.count("error:") == 1
        assert "corpus being read" in err
        assert {p.name: p.read_bytes() for p in corpus.iterdir()} == before
        assert main(["corpus", "verify", str(corpus)]) == 0

    @pytest.mark.parametrize("flags", [[], ["--shard-size", "2"]])
    def test_recollect_removes_unlisted_shards(self, tmp_path, capsys, flags):
        out = tmp_path / "c.shards"
        assert main(["-j", "1", "collect", "--service", "svc3", "-n", "6",
                     "--shard-size", "2", "-o", str(out)]) == 0
        assert main(["-j", "1", "collect", "--service", "svc3", "-n", "2",
                     *flags, "-o", str(out)]) == 0
        assert sorted(p.name for p in out.glob("shard-*.npz")) == [shard_name(0)]
        assert main(["corpus", "verify", str(out)]) == 0
        assert "OK (1 shards" in capsys.readouterr().out


class TestInfo:
    def test_monolithic(self, mono_path, capsys):
        assert main(["corpus", "info", str(mono_path)]) == 0
        out = capsys.readouterr().out
        assert "format 4 (sharded directory)" in out
        assert "sessions: 9 in 1 shards (shard_size=512)" in out
        assert "combined:" in out

    def test_sharded(self, shard_dir, capsys):
        assert main(["corpus", "info", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "format 4 (sharded directory)" in out
        assert "9 in 3 shards" in out
        assert "manifest digest:" in out

    def test_missing_path(self, tmp_path, capsys):
        assert main(["corpus", "info", str(tmp_path / "nope.json")]) == 1
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_monolithic_ok(self, mono_path, capsys):
        assert main(["corpus", "verify", str(mono_path)]) == 0
        assert "OK (1 shards" in capsys.readouterr().out

    def test_sharded_ok(self, shard_dir, capsys):
        assert main(["corpus", "verify", str(shard_dir)]) == 0
        out = capsys.readouterr().out
        assert "OK (3 shards" in out
        assert "all digests match" in out

    def test_corrupted_shard_fails(self, shard_dir, tmp_path, capsys):
        import shutil

        broken = tmp_path / "broken.shards"
        shutil.copytree(shard_dir, broken)
        (broken / "shard-00001.npz").write_bytes(b"garbage")
        assert main(["corpus", "verify", str(broken)]) == 1
        assert "shard-00001.npz" in capsys.readouterr().err

    def test_partial_write_fails_friendly(self, shard_dir, tmp_path, capsys):
        import shutil

        partial = tmp_path / "partial.shards"
        shutil.copytree(shard_dir, partial)
        (partial / MANIFEST_NAME).unlink()
        assert main(["corpus", "verify", str(partial)]) == 1
        assert "incomplete" in capsys.readouterr().err

    def test_truncated_json_fails_friendly(self, tmp_path, capsys):
        path = tmp_path / "cut.json"
        path.write_text(json.dumps({"format": 3})[:-4])
        assert main(["corpus", "verify", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestCorruptMember:
    """A shard member that does not match the manifest reaches every
    command as one named ``error:`` line and exit 1, not a traceback."""

    @pytest.fixture()
    def short_labels(self, shard_dir, tmp_path):
        import shutil

        import numpy as np

        broken = tmp_path / "short-labels.shards"
        shutil.copytree(shard_dir, broken)
        path = broken / shard_name(0)
        with np.load(path) as z:
            arrays = {member: z[member] for member in z.files}
        arrays["label_combined"] = arrays["label_combined"][:2]
        np.savez_compressed(path, **arrays)
        return broken

    @pytest.mark.parametrize("command", ["train", "evaluate"])
    def test_named_error_line(self, short_labels, tmp_path, command, capsys):
        argv = [command, "--corpus", str(short_labels), "--trees", "3"]
        if command == "train":
            argv += ["-o", str(tmp_path / "model.pkl")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "shard-00000.npz: label_combined holds 2 entries for 4 sessions" in err
        assert main(["corpus", "verify", str(short_labels)]) == 1
        assert "shard-00000.npz: digest mismatch" in capsys.readouterr().err


class TestShard:
    def test_reshard_monolithic(self, mono_path, tmp_path, capsys):
        out = tmp_path / "resharded.shards"
        assert main(["corpus", "shard", str(mono_path), "-o", str(out),
                     "--shard-size", "2"]) == 0
        assert "5 shards of <= 2" in capsys.readouterr().out
        assert main(["corpus", "verify", str(out)]) == 0

    def test_resharding_preserves_content(self, mono_path, shard_dir,
                                          tmp_path):
        from repro.collection.dataset import Dataset

        out = tmp_path / "resharded.shards"
        assert main(["corpus", "shard", str(mono_path), "-o", str(out),
                     "--shard-size", "4"]) == 0
        # Same sessions, same chunking — byte-identical shards, so the
        # manifest digest matches the directly-collected directory's.
        assert (
            Dataset.load(out).manifest_digest
            == Dataset.load(shard_dir).manifest_digest
        )

    def test_requires_output(self, mono_path, capsys):
        assert main(["corpus", "shard", str(mono_path)]) == 2
        assert "-o/--output" in capsys.readouterr().err
