"""Engine bootstrap from Spark and pandas edge frames."""
import pytest

from repro.core import DW, SpadeEngine
from repro.datasets import load_preset
from repro.spark import builder
from tests.helpers import assert_engine_valid


@pytest.fixture(scope="module")
def data():
    return load_preset("grab1_lite", scale=0.03)


@pytest.fixture(scope="module")
def edges(spark, data):
    return data.to_spark(spark).cache()


class TestBuildEngine:
    def test_engine_matches_pandas_path(self, spark, data, edges):
        eng_spark = builder.build_engine(spark, edges, DW, priors=data.priors)
        eng_pd = SpadeEngine(DW)
        eng_pd.bulk_load(
            list(
                data.edges.sort_values("ts")[["src", "dst", "amount"]].itertuples(
                    index=False, name=None
                )
            ),
            priors=data.priors,
        )
        assert eng_spark.n_edges == eng_pd.n_edges
        assert eng_spark.f_total == pytest.approx(eng_pd.f_total)
        assert eng_spark.best_density == pytest.approx(eng_pd.best_density)
        assert eng_spark.community_external() == eng_pd.community_external()

    def test_engine_from_frame_loads_in_frame_order(self, data):
        eng = builder.engine_from_frame(data.initial, DW, data.priors)
        ref = SpadeEngine(DW)
        rows = zip(data.initial["src"], data.initial["dst"], data.initial["amount"])
        ref.bulk_load(list(rows), priors=data.priors)
        assert eng.n_edges == len(data.initial)
        assert eng.order_external() == ref.order_external()
        assert eng.community_external() == ref.community_external()
        assert_engine_valid(eng)
