"""The declarative experiment registry and its CLI surface."""

import importlib
import pkgutil

import pytest

from repro.experiments import registry


def _driver_module_names():
    package = importlib.import_module("repro.experiments")
    return [
        info.name
        for info in pkgutil.iter_modules(package.__path__)
        if info.name not in registry._NON_DRIVER_MODULES
        and not info.name.startswith("_")
    ]


class TestRegistryCompleteness:
    def test_every_driver_module_is_registered(self):
        """Any experiments module defining run() must carry an
        @experiment registration whose name matches its basename —
        the drift run_all.py's old import list allowed."""
        registered = set(registry.names())
        for name in _driver_module_names():
            module = importlib.import_module(f"repro.experiments.{name}")
            if callable(getattr(module, "run", None)) or callable(
                getattr(module, "main", None)
            ):
                assert name in registered, f"{name} defines run() but is unregistered"

    def test_names_unique_and_match_modules(self):
        specs = registry.all_experiments()
        names = [spec.name for spec in specs]
        assert len(names) == len(set(names))
        for spec in specs:
            assert spec.module == f"repro.experiments.{spec.name}"

    def test_orders_unique(self):
        orders = [spec.order for spec in registry.all_experiments()]
        assert len(orders) == len(set(orders))

    def test_run_all_follows_registry_order(self):
        """run_all executes experiments exactly in registry order."""
        from unittest import mock

        from repro.experiments import run_all

        executed = []
        specs = registry.all_experiments()
        patched = [
            registry.Experiment(
                name=s.name,
                title=s.title,
                paper_ref=s.paper_ref,
                description=s.description,
                run=lambda n=s.name: executed.append(n),
                order=s.order,
            )
            for s in specs
        ]
        with mock.patch.object(
            run_all, "all_experiments", return_value=tuple(patched)
        ):
            run_all.main()
        assert executed == [s.name for s in specs]
        assert [s.order for s in specs] == sorted(s.order for s in specs)

    def test_get_unknown_raises_with_choices(self):
        with pytest.raises(registry.UnknownExperimentError) as exc_info:
            registry.get("not_an_experiment")
        message = str(exc_info.value)
        assert "not_an_experiment" in message
        assert "fig5" in message

    def test_load_all_idempotent(self):
        before = registry.names()
        registry.load_all()
        assert registry.names() == before


class TestDecoratorValidation:
    def test_rejects_foreign_module(self):
        decorator = registry.experiment(
            "someothername",
            title="X",
            paper_ref="-",
            description="-",
            order=9999,
        )

        def run():
            return None

        with pytest.raises(ValueError, match="must be registered from"):
            decorator(run)

    def test_rejects_duplicate_order(self):
        taken = registry.all_experiments()[0].order
        decorator = registry.experiment(
            "registry",  # matches this callable's module check first
            title="X",
            paper_ref="-",
            description="-",
            order=taken,
        )

        def run():
            return None

        run.__module__ = "repro.experiments.registry"
        with pytest.raises(ValueError, match="share order"):
            decorator(run)


class TestClaims:
    """Claims declared on a registration are reported after every
    registry run, and the run's result passes through untouched."""

    RESULT = {"value": 3}

    @pytest.fixture
    def fake(self, monkeypatch):
        registry.load_all()
        monkeypatch.setattr(registry, "_REGISTRY", dict(registry._REGISTRY))

        def main():
            return self.RESULT

        main.__module__ = "repro.experiments.fake_claims"
        registry.experiment(
            "fake_claims",
            title="Fake",
            paper_ref="-",
            description="-",
            order=99_999,
            claims=(
                registry.Claim(
                    "value above two", paper="2",
                    check=lambda r: (r["value"], r["value"] > 2),
                ),
                registry.Claim(
                    "value above five", paper="5",
                    check=lambda r: (r["value"], r["value"] > 5),
                ),
                registry.Claim(
                    "value unmeasurable", paper="-",
                    check=lambda r: (r["value"], None),
                ),
            ),
        )(main)

    def test_one_line_per_claim_with_its_verdict(self, fake, capsys):
        from repro import api, config

        with config.override(scale=registry.CLAIMS_SCALE):
            assert api.run_experiment("fake_claims") is self.RESULT
        out = capsys.readouterr().out
        lines = {
            name: [line.split() for line in out.splitlines() if name in line]
            for name in ("value above two", "value above five", "value unmeasurable")
        }
        assert lines["value above two"][0][0] == "holds"
        assert lines["value above five"][0][0] == "fails"
        assert lines["value unmeasurable"][0][:2] == ["not", "checked"]
        assert all(len(found) == 1 for found in lines.values())
        assert "this run" not in out

    def test_another_scale_is_said_once(self, fake, capsys):
        from repro import config

        with config.override(scale=0.1):
            registry.get("fake_claims").run()
        out = capsys.readouterr().out
        assert out.count(f"declared at scale {registry.CLAIMS_SCALE}") == 1

    def test_claim_names_distinct_within_each_experiment(self):
        for spec in registry.all_experiments():
            names = [claim.name for claim in spec.claims]
            assert len(names) == len(set(names)), spec.name


class TestCliIntegration:
    def test_list_prints_registry(self, capsys):
        from repro.cli import main

        assert main(["experiment", "--list"]) == 0
        out = capsys.readouterr().out
        for spec in registry.all_experiments():
            assert spec.name in out
            assert spec.description in out

    def test_unknown_name_exits_2_naming_choices(self, capsys):
        from repro.cli import main

        assert main(["experiment", "definitely_not_real"]) == 2
        err = capsys.readouterr().err
        assert "definitely_not_real" in err
        assert "valid choices" in err
        assert "fig5" in err

    def test_no_names_without_list_exits_2(self, capsys):
        from repro.cli import main

        assert main(["experiment"]) == 2

    def test_cache_info_and_clear(self, capsys, tmp_path, monkeypatch):
        import numpy as np

        from repro.artifacts import get_store
        from repro.cli import main

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        get_store().get_or_compute("demo", {"i": 1}, lambda: {"v": np.zeros(3)})
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert str(tmp_path) in out
        assert "demo" in out
        assert main(["cache", "clear"]) == 0
        assert main(["cache", "info"]) == 0
        assert "demo" not in capsys.readouterr().out
