"""The records' value semantics: immutable, equal by value and picklable."""

import pickle

import pytest

from meanineq import catalog, kyfan, oracle
from meanineq.sweep import SweepConfig

# Each record type with a way to build one and one of its fields.
RECORDS = {
    "OracleResult": (lambda: oracle.oracle_eval("A", {"a": 4.0, "b": 1.0}, digits=30),
                     "value"),
    "InequalityEntry": (lambda: catalog.REGISTRY["EQ5"], "links"),
    "KyFanSample": (lambda: kyfan.KyFanSample([0.1, 0.2]), "values"),
    "KyFanStats": (lambda: kyfan.compute_stats(kyfan.KyFanSample([0.1, 0.2])), "a"),
    "SweepConfig": (lambda: SweepConfig(ids=("EQ5",), samples=3), "workers"),
}


@pytest.mark.parametrize("name", RECORDS)
def test_attributes_cannot_be_assigned(name):
    build, field = RECORDS[name]
    record = build()
    before = getattr(record, field)
    with pytest.raises(AttributeError):
        setattr(record, field, before)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert getattr(record, field) is before
    assert record == build() and hash(record) == hash(build())


def test_sweep_config_survives_pickle():
    # chunk tasks carry the config to worker processes
    config = SweepConfig(ids=("EQ5", "EQ13"), samples=3000, seed=42, sign="negative",
                         bounds=(1e-30, 1e30), kyfan_n_range=(3, 7), workers=2)
    for protocol in range(2, pickle.HIGHEST_PROTOCOL + 1):
        copy = pickle.loads(pickle.dumps(config, protocol))
        assert type(copy) is SweepConfig
        assert copy == config and copy.to_dict() == config.to_dict()
