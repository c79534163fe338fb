"""Input-validation consistency across the ML estimators.

Every model's ``predict``/``predict_proba`` must raise the same
``ValueError`` naming the mismatch when ``X.shape[1]`` differs from the
fitted ``n_features_`` (repro.ml.validation.check_n_features), instead
of the per-model drift (silent broadcasting, IndexError, shape errors)
these paths used to have.
"""

import numpy as np
import pytest

from repro.ml.boosting import GradientBoostingClassifier
from repro.ml.forest import RandomForestClassifier
from repro.ml.knn import KNeighborsClassifier
from repro.ml.tree import DecisionTreeClassifier, DecisionTreeRegressor
from tests.tree_oracle import ExactDecisionTreeClassifier

MODELS = [
    DecisionTreeClassifier(max_depth=3),
    ExactDecisionTreeClassifier(max_depth=3),
    DecisionTreeRegressor(max_depth=3),
    RandomForestClassifier(n_estimators=3, n_jobs=1),
    GradientBoostingClassifier(n_estimators=2, max_depth=2),
    KNeighborsClassifier(n_neighbors=3),
]


def _fit(model):
    import copy

    rng = np.random.default_rng(0)
    X = rng.normal(size=(60, 4))
    y = (X[:, 0] > 0).astype(int)
    m = copy.deepcopy(model)
    if isinstance(m, DecisionTreeRegressor):
        return m.fit(X, y.astype(np.float64))
    return m.fit(X, y)


@pytest.mark.parametrize("model", MODELS, ids=lambda m: type(m).__name__)
class TestFeatureCountMismatch:
    @pytest.mark.parametrize("width", [3, 5])
    def test_predict_raises_named_valueerror(self, model, width):
        fitted = _fit(model)
        bad = np.ones((7, width))
        with pytest.raises(ValueError, match=rf"X has {width} features"):
            fitted.predict(bad)
        with pytest.raises(ValueError, match=r"n_features_=4"):
            fitted.predict(bad)

    def test_predict_proba_raises_named_valueerror(self, model):
        fitted = _fit(model)
        if not hasattr(fitted, "predict_proba"):
            pytest.skip("regressor has no predict_proba")
        with pytest.raises(ValueError, match=r"X has 6 features"):
            fitted.predict_proba(np.ones((7, 6)))

    def test_message_names_the_model_class(self, model):
        fitted = _fit(model)
        with pytest.raises(ValueError, match=type(fitted).__name__):
            fitted.predict(np.ones((2, 9)))

    def test_one_dimensional_input_rejected(self, model):
        fitted = _fit(model)
        with pytest.raises(ValueError):
            fitted.predict(np.ones(4))

    def test_matching_width_accepted(self, model):
        fitted = _fit(model)
        out = fitted.predict(np.ones((5, 4)))
        assert out.shape == (5,)
