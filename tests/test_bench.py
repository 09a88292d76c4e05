import statistics

import pytest

from davit import autodiff as ad
from davit import bench
from davit import model as md


def tiny_config(channels=4):
    return md.ModelConfig(input_size=16, num_classes=3,
                          stages=[md.StageConfig(7, 4, 3, channels, 1, 2, 2)])


class TickClock:
    """Fake monotonic clock: advances a fixed step on every call."""

    def __init__(self, step=1.0):
        self.step = step
        self.now = 0.0

    def __call__(self):
        self.now += self.step
        return self.now


class StillModel:
    """Does nothing; isolates the timing loop from real compute."""

    def forward(self, x):
        return x

    def named_parameters(self):
        return {}


# ---------------------------------------------------------------------------
# timing mechanics (fake clock)


def test_fps_identity_by_definition():
    r = bench.measure_fps(StillModel(), (2, 3, 4, 4), warmup_iters=0,
                          timed_iters=10, _clock=TickClock())
    # each iteration is bracketed by two ticks of 1.0
    assert r.elapsed_s == 10.0
    assert r.fps == 2 * 10 / r.elapsed_s
    assert r.fps == 2.0
    assert r.lat_mean_ms == 1000.0
    assert r.lat_p50_ms == 1000.0 and r.lat_p95_ms == 1000.0


def test_warmup_never_timed():
    a = bench.measure_fps(StillModel(), (1, 3, 4, 4), warmup_iters=0,
                          timed_iters=8, _clock=TickClock())
    b = bench.measure_fps(StillModel(), (1, 3, 4, 4), warmup_iters=50,
                          timed_iters=8, _clock=TickClock())
    assert a.elapsed_s == b.elapsed_s == 8.0
    assert a.fps == b.fps


def test_report_fields_populated_and_valid():
    r = bench.measure_fps(StillModel(), (1, 3, 4, 4), warmup_iters=1,
                          timed_iters=3, _clock=TickClock(), environment="test rig")
    assert r.model_name == "model"
    assert r.param_count == 0
    assert r.batch_size == 1 and r.warmup_iters == 1 and r.timed_iters == 3
    assert r.environment == "test rig"
    r.validate()


def test_bad_inputs_rejected():
    with pytest.raises(ValueError, match="timed_iters"):
        bench.measure_fps(StillModel(), (1, 3, 4, 4), timed_iters=0)
    with pytest.raises(ValueError, match="warmup"):
        bench.measure_fps(StillModel(), (1, 3, 4, 4), warmup_iters=-1)
    with pytest.raises(ValueError, match="input_shape"):
        bench.measure_fps(StillModel(), (1, 3, 4))


def test_forward_receives_a_tensor():
    class RecordingModel(StillModel):
        def __init__(self):
            self.seen = []

        def forward(self, x):
            self.seen.append(type(x))
            return x

    model = RecordingModel()
    bench.measure_fps(model, (1, 3, 4, 4), warmup_iters=2, timed_iters=2, _clock=TickClock())
    assert model.seen == [ad.Tensor] * 4

def test_shape_mismatch_propagates():
    model = md.build_model(tiny_config(), seed=0)
    with pytest.raises(ValueError):
        bench.measure_fps(model, (1, 3, 9, 9), warmup_iters=0, timed_iters=1)


# ---------------------------------------------------------------------------
# real measurements


def test_real_model_identity_and_defaults():
    model = md.build_model(tiny_config(), seed=0)
    r = bench.measure_fps(model, warmup_iters=1, timed_iters=10, model_name="tiny")
    assert r.fps == r.batch_size * r.timed_iters / r.elapsed_s
    assert r.batch_size == 1  # derived from config when input_shape omitted
    assert r.param_count == md.count_params(model)
    assert r.lat_p50_ms <= r.lat_p95_ms
    assert r.fps > 0 and r.elapsed_s > 0


def wide_config(channels):
    # batch 8 at input 32 makes the matmuls, not call overhead, dominate
    return md.ModelConfig(input_size=32, num_classes=3,
                          stages=[md.StageConfig(7, 4, 3, channels, 1, 4, 4)])


def median_fps(*cfgs, runs=5):
    """Median fps of each config. The configs take turns, so the cold first
    measurement of a process costs one run of one config, not a whole median."""
    models = [md.build_model(cfg, seed=0) for cfg in cfgs]
    vals = [[] for _ in cfgs]
    for _ in range(runs):
        for cfg, model, v in zip(cfgs, models, vals):
            shape = (8, 3, cfg.input_size, cfg.input_size)
            v.append(bench.measure_fps(model, shape, warmup_iters=2, timed_iters=6).fps)
    return [statistics.median(v) for v in vals]


def test_wider_model_is_slower():
    # 2x channels means roughly 4x the matmul work per block
    narrow, wide = median_fps(wide_config(16), wide_config(32))
    assert narrow > wide


def test_repeat_measurements_stable():
    # two models of one config take turns, so the cold first run of the
    # process is one sample of one median, not a whole cold median
    a, b = median_fps(wide_config(16), wide_config(16))
    assert abs(a - b) / max(a, b) < 0.25


# ---------------------------------------------------------------------------
# table and CSV


def test_single_config_single_row():
    reports = [bench.measure_fps(StillModel(), (1, 3, 4, 4), warmup_iters=0,
                                 timed_iters=2, _clock=TickClock())]
    table = bench.format_table(reports)
    assert len(table.splitlines()) == 3  # header, rule, one row
    csv_text = bench.to_csv(reports)
    assert len(csv_text.splitlines()) == 2


def test_csv_round_trip_lossless():
    r = bench.measure_fps(StillModel(), (3, 3, 4, 4), warmup_iters=0,
                          timed_iters=7, _clock=TickClock(step=1 / 49),
                          environment='linux, "quoted" rig')
    text = bench.to_csv([r])
    assert text.splitlines()[0] == ",".join(bench.CSV_COLUMNS)
    rows = bench.from_csv(text)
    assert rows == [r.csv_row()]  # float equality here is bitwise
    assert bench.to_csv(rows) == text


def test_csv_header_checked():
    with pytest.raises(ValueError, match="header"):
        bench.from_csv("nope,columns\n1,2\n")
