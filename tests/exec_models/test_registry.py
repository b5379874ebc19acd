import pytest

from repro.exec_models import MODEL_NAMES, ExecutionModel, make_model
from repro.util import ConfigurationError


class TestRegistry:
    def test_all_names_construct(self):
        for name in MODEL_NAMES:
            assert isinstance(make_model(name), ExecutionModel)

    def test_unknown_name_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown execution model"):
            make_model("quantum_annealer")

    def test_fresh_instance_per_call(self):
        assert make_model("static_block") is not make_model("static_block")

    def test_core_models_present(self):
        for required in (
            "static_block",
            "static_cyclic",
            "counter_dynamic",
            "work_stealing",
            "inspector_semi_matching",
            "inspector_hypergraph",
        ):
            assert required in MODEL_NAMES

    def test_configured_variants(self):
        from repro.exec_models.counter_dynamic import CounterDynamic

        model = make_model("counter_dynamic_chunk16")
        assert isinstance(model, CounterDynamic)
        assert model.chunk == 16
