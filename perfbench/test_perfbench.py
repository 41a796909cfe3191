"""Self-tests of the benchmark: span arithmetic, exact call counts and metric names.

    python3 -m pytest perfbench -q
"""

import json
import sys
import time
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
from calibens import heads, numerics  # noqa: E402
from calibens.data import FeatureDataset  # noqa: E402

SPEC = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_self_times_of_nested_spans_add_up():
    t = tracing.Tracer()
    leaf = t.span("leaf", lambda: time.sleep(0.002))

    def middle():
        leaf()
        time.sleep(0.001)
        leaf()

    middle = t.span("middle", middle)

    def root():
        middle()
        leaf()
        time.sleep(0.001)

    t.span("root", root)()
    spans = t.take()
    for sid, _parent, _name, start, end, self_s, _flops, _bytes in spans:
        children = sum(e - s for _, parent, _, s, e, *_ in spans if parent == sid)
        assert self_s == pytest.approx(end - start - children, abs=1e-12)
    agg = tracing.aggregate(spans)
    assert {name: a["calls"] for name, a in agg.items()} == {"leaf": 3, "middle": 1, "root": 1}
    assert agg["leaf"]["self_s"] == pytest.approx(agg["leaf"]["total_s"], abs=1e-12)
    assert sum(a["self_s"] for a in agg.values()) == pytest.approx(agg["root"]["total_s"], abs=1e-9)


def test_wrappers_reach_every_importing_module():
    rng = np.random.default_rng(0)
    train = FeatureDataset(rng.standard_normal((256, 4)), np.arange(256) % 3, 3)
    val = FeatureDataset(rng.standard_normal((30, 4)), np.arange(30) % 3, 3)
    cfg = heads.HeadTrainConfig(max_epochs=1, batch_size=128)
    original = heads.backward_linear
    with tracing.Tracer() as t:
        assert heads.backward_linear is not original
        heads.train_head_family(train, val, 1, 0, cfg)
    assert heads.backward_linear is original and numerics.backward_linear is original
    agg = tracing.aggregate(t.take())
    # one epoch of 256 samples at batch 128: two mini-batches and one validation
    assert {name: a["calls"] for name, a in agg.items()} == {
        "heads.train_head": 1,
        "numerics.backward_linear": 2,  # bound in heads
        "numerics.linear_forward": 3,  # two inside numerics.backward_linear, one in heads
        "numerics.softmax": 3,
        "numerics.cross_entropy": 3,
        "numerics.sgd_step": 2,
    }
    batch_forward = 2 * 128 * 4 * 3
    assert sum(a["flops"] for a in agg.values()) == 4 * batch_forward + 2 * 30 * 4 * 3


@pytest.mark.parametrize("train_in_setup", [False, True])
def test_emitted_metrics_are_declared(tmp_path, train_in_setup):
    w = run.Workload("tiny", 3, 4, 300, 200, 2, 1, train_in_setup=train_in_setup)
    declared = {
        0: {m["name"]: m["unit"] for m in SPEC["end_to_end"]},
        1: {m["name"]: m["unit"] for m in SPEC["per_layer"]},
    }
    for trace in (0, 1):
        bench = run.Bench(w, 7, tmp_path / f"work{trace}")
        plain, traced, setups, n_fit, _spans = run.measure(bench, 0, trace)
        if trace:
            metrics, units = run.per_layer(plain, traced), run.layer_unit
        else:
            metrics = run.end_to_end(bench, plain, setups, 0.0, n_fit)
            units = run.END_TO_END_UNITS.get
        assert bench.failed == 0 and bench.attempted == run.SETUP_REPEATS + len(plain) + len(traced)
        assert {name: units(name) for name in metrics} == declared[trace]
