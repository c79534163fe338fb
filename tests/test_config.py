"""Tests for the consolidated runtime configuration."""

import re
from pathlib import Path

import pytest

from repro import config
from repro.config import get_config, override

SRC_ROOT = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.fixture(autouse=True)
def _clean_env(monkeypatch):
    for var in config.ENV_VARS:
        monkeypatch.delenv(var, raising=False)


class TestParsing:
    def test_defaults(self):
        cfg = get_config()
        assert cfg.jobs is None
        assert cfg.scale == 1.0
        assert cfg.cache_dir == Path.cwd() / ".cache"
        assert cfg.smoke is False
        assert cfg.trace is False
        assert cfg.trace_path is None

    def test_env_values_resolve(self, monkeypatch, tmp_path):
        monkeypatch.setenv("REPRO_JOBS", "4")
        monkeypatch.setenv("REPRO_SCALE", "0.25")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("REPRO_SMOKE", "1")
        cfg = get_config()
        assert cfg.jobs == 4
        assert cfg.scale == 0.25
        assert cfg.cache_dir == tmp_path
        assert cfg.smoke is True

    def test_reparses_only_on_env_change(self, monkeypatch):
        first = get_config()
        assert get_config() is first
        monkeypatch.setenv("REPRO_JOBS", "2")
        second = get_config()
        assert second is not first
        assert second.jobs == 2

    def test_jobs_minus_one_means_all_cores(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "-1")
        assert get_config().jobs is None

    def test_jobs_rejects_garbage(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "soon")
        with pytest.raises(ValueError, match="REPRO_JOBS"):
            get_config()

    def test_jobs_rejects_zero(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOBS", "0")
        with pytest.raises(ValueError, match=">= 1 or -1"):
            get_config()

    def test_shard_size_defaults_to_512(self, monkeypatch):
        assert get_config().shard_size == config.DEFAULT_SHARD_SIZE == 512
        monkeypatch.setenv("REPRO_SHARD_SIZE", "16")
        assert get_config().shard_size == 16

    @pytest.mark.parametrize("raw", ["0", "-3", "many"])
    def test_shard_size_rejects_non_positive(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_SHARD_SIZE", raw)
        with pytest.raises(ValueError, match="REPRO_SHARD_SIZE"):
            get_config()

    def test_scale_rejects_nonpositive(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0")
        with pytest.raises(ValueError, match="positive"):
            get_config()

    @pytest.mark.parametrize("raw", ["", "0", "false", "off", "no", "False"])
    def test_trace_falsey_values(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        cfg = get_config()
        assert cfg.trace is False
        assert cfg.trace_path is None

    @pytest.mark.parametrize("raw", ["1", "true", "on", "yes"])
    def test_trace_truthy_values_use_default_path(self, monkeypatch, raw):
        monkeypatch.setenv("REPRO_TRACE", raw)
        cfg = get_config()
        assert cfg.trace is True
        assert cfg.trace_path == Path(config.DEFAULT_TRACE_FILENAME)

    def test_trace_other_value_is_the_path(self, monkeypatch):
        monkeypatch.setenv("REPRO_TRACE", "/tmp/my-trace.jsonl")
        cfg = get_config()
        assert cfg.trace is True
        assert cfg.trace_path == Path("/tmp/my-trace.jsonl")


class TestRetiredCollectionVars:
    @pytest.mark.parametrize(
        "var,value,replacement",
        [("REPRO_SCENARIO", "hostile", "--scenario"), ("REPRO_WORKLOAD", "rtc", "--service")],
    )
    def test_set_value_is_refused_by_name(self, monkeypatch, tmp_path, var, value, replacement):
        from repro.cli import main

        monkeypatch.setenv(var, "")
        get_config()  # set but empty: nothing chosen, nothing to refuse
        monkeypatch.setenv(var, value)
        with pytest.raises(ValueError, match=f"{var} is no longer read.*{replacement}"):
            get_config()
        out = tmp_path / "never.shards"
        with pytest.raises(ValueError, match=replacement):
            main(["collect", "--service", "svc1", "-n", "1", "-o", str(out)])
        assert not out.exists()
        assert var not in config.ENV_VARS


class TestSourcesAndShow:
    def test_sources_mark_env_vs_default(self, monkeypatch):
        monkeypatch.setenv("REPRO_SCALE", "0.5")
        cfg = get_config()
        assert cfg.sources["scale"] == "env"
        assert cfg.sources["jobs"] == "default"

    def test_describe_covers_every_env_var(self):
        rows = get_config().describe()
        assert [var for _, _, var, _ in rows] == list(config.ENV_VARS)

    def test_cli_config_show(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.setenv("REPRO_SCALE", "0.5")
        assert main(["config", "show"]) == 0
        out = capsys.readouterr().out
        assert re.search(r"scale\s+0\.5\s+\[REPRO_SCALE, from env\]", out)
        assert "[REPRO_JOBS, from default]" in out
        assert re.search(r"shard_size\s+512\s+\[REPRO_SHARD_SIZE, from default\]", out)


class TestOverride:
    def test_override_wins_and_restores(self, tmp_path):
        with override(cache_dir=tmp_path) as cfg:
            assert cfg is get_config()
            assert get_config().cache_dir == tmp_path
            assert get_config().sources["cache_dir"] == "override"
        assert get_config().cache_dir != tmp_path

    def test_overrides_nest(self, tmp_path):
        with override(scale=0.5):
            with override(jobs=2):
                cfg = get_config()
                assert (cfg.scale, cfg.jobs) == (0.5, 2)
            assert get_config().jobs is None

    def test_override_labels_its_source(self):
        with override("--trace", trace=True, trace_path=Path("x.jsonl")):
            assert get_config().sources["trace"] == "--trace"

    def test_set_jobs_exports_to_environment(self, monkeypatch):
        config.set_jobs(3)
        assert get_config().jobs == 3
        with pytest.raises(ValueError):
            config.set_jobs(0)

    def test_set_env_default_only_known_vars(self, monkeypatch):
        config.set_env_default("REPRO_SCALE", "0.75")
        assert get_config().scale == 0.75
        monkeypatch.setenv("REPRO_SCALE", "0.1")
        config.set_env_default("REPRO_SCALE", "0.75")
        assert get_config().scale == 0.1
        with pytest.raises(ValueError):
            config.set_env_default("SOME_OTHER_VAR", "1")


class TestCacheCommandsHonorConfig:
    """``cache info``/``cache clear`` follow the resolved cache_dir —
    no monkeypatching of os.environ required (satellite 3)."""

    @staticmethod
    def _seed_store():
        import numpy as np

        from repro.artifacts import get_store

        store = get_store()
        store.get_or_compute("stage", {"x": 1}, lambda: {"a": np.zeros(3)})
        return store

    def test_cache_info_reads_overridden_dir(self, tmp_path, capsys):
        from repro.cli import main

        with override(cache_dir=tmp_path):
            self._seed_store()
            assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "1 entries" in out

    def test_cache_clear_removes_overridden_dir_only(self, tmp_path, capsys):
        from repro.cli import main

        with override(cache_dir=tmp_path):
            store = self._seed_store()
            assert main(["cache", "clear"]) == 0
            assert store.stats()["entries"] == 0
        assert str(tmp_path) in capsys.readouterr().out


    def test_cache_commands_report_staging_directories(self, tmp_path, capsys):
        """A staging directory a killed corpus build left, holding one
        shard file: ``cache info`` counts it, ``cache clear`` removes
        it and says so."""
        from repro.artifacts import STAGING_PREFIX
        from repro.cli import main

        staging = tmp_path / f"{STAGING_PREFIX}killed"
        staging.mkdir()
        (staging / "shard-00000.npz").write_bytes(b"x" * 2_000_000)
        with override(cache_dir=tmp_path):
            self._seed_store()
            assert main(["cache", "info"]) == 0
            assert "staging: 1 directories, 2.0 MB" in capsys.readouterr().out
            assert main(["cache", "clear"]) == 0
            assert "removed 3 files" in (out := capsys.readouterr().out)
            assert "and 1 staging directories" in out
            assert main(["cache", "info"]) == 0
            assert "staging: 0 directories" in capsys.readouterr().out
        assert not staging.exists()


class TestEnvironIsolation:
    """The lint gate's contract: configuration is parsed in one place."""

    def test_no_direct_environ_access_outside_config(self):
        offenders = []
        for path in sorted(SRC_ROOT.rglob("*.py")):
            if path.name == "config.py":
                continue
            if "os.environ" in path.read_text(encoding="utf-8"):
                offenders.append(str(path.relative_to(SRC_ROOT)))
        assert offenders == []
