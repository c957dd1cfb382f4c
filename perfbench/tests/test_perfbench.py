"""Self-tests of the benchmark: corpus determinism, span arithmetic,
computed FLOPs and the runner's refusal to run without the program.

    python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import corpus_gen
import flops
import run
import spans
import workloads
from silentspeech import featnet

BENCH = Path(__file__).resolve().parents[1]


def _files(root: Path) -> dict[str, bytes]:
    return {str(p.relative_to(root)): p.read_bytes()
            for p in sorted(root.rglob("*")) if p.is_file()}


class TestCorpusGen:
    def test_same_seed_byte_identical(self, tmp_path):
        corpus_gen.generate(5, tmp_path / "a")
        corpus_gen.generate(5, tmp_path / "b")
        a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
        assert a.keys() == b.keys()
        assert {"manifest.json", "norm.json", "featnet.ckpt"} <= a.keys()
        assert all(a[k] == b[k] for k in a)

    def test_other_seed_differs_and_loads(self, tmp_path):
        from silentspeech import corpus

        corpus_gen.generate(5, tmp_path / "a")
        corpus_gen.generate(6, tmp_path / "b")
        assert _files(tmp_path / "a")["data/spk0_modal_0.artf"] != \
            _files(tmp_path / "b")["data/spk0_modal_0.artf"]
        manifest = corpus.load_manifest(tmp_path / "a" / "manifest.json")
        assert len(manifest.records) == (corpus_gen.N_SPEAKERS * len(corpus_gen.MODE_SCALE)
                                         * corpus_gen.N_PROMPTS)
        assert {r.split for r in manifest.records} == {"train", "validation", "test"}
        labels = manifest.records[0].phone_labels()
        assert labels.shape == (corpus_gen.N_FRAMES,)
        assert labels.max() < len(manifest.phones) == corpus_gen.N_PHONES


def _span(name, start, end, parent=None, run="run-0"):
    return spans.Span(name, start, end, parent, run)


class TestSelfTime:
    def test_nested_spans(self):
        s = [
            _span("a", 0.0, 10.0),
            _span("b", 1.0, 4.0, parent=0),
            _span("c", 2.0, 3.0, parent=1),
            _span("d", 5.0, 9.5, parent=0),
            _span("e", 11.0, 12.0),
        ]
        assert spans.self_times(s) == pytest.approx([2.5, 2.0, 1.0, 4.5, 1.0])

    def test_overlapping_children_counted_once(self):
        s = [_span("a", 0.0, 10.0), _span("b", 1.0, 6.0, parent=0),
             _span("c", 4.0, 12.0, parent=0)]
        assert spans.self_times(s)[0] == pytest.approx(1.0)

    def test_layer_stats_per_run(self):
        s = [_span("setup", 0.0, 2.0, run="setup"),
             _span("a", 2.0, 5.0, run="run-0"), _span("b", 3.0, 4.0, parent=1, run="run-0"),
             _span("a", 5.0, 6.0, run="run-1")]
        s[2].counts = {"b.items": 6.0}
        st = spans.layer_stats(s, {"setup": 1, "run-0": 2, "run-1": 2})
        assert st["setup"].self_s == pytest.approx(2.0)
        assert st["a"].self_s == pytest.approx((2.0 + 1.0) / 2)
        assert st["a"].total_s == pytest.approx((3.0 + 1.0) / 2)
        assert st["a"].calls == pytest.approx(1.0)
        assert st["b"].counts == {"b.items": 3.0}
        assert spans.top_level_time(s, "run-0") == pytest.approx(3.0)

    def test_calls_divide_exactly(self):
        s = [_span("a", 0.0, 1.0, run=f"run-{i}") for i in range(3) for _ in range(2)]
        st = spans.layer_stats(s, {f"run-{i}": 3 for i in range(3)})
        assert st["a"].calls == 2.0


class _Mod:
    @staticmethod
    def outer(x):
        return _Mod.inner(x) + 1

    @staticmethod
    def inner(x):
        return np.zeros(x).sum()


class TestRecorder:
    def test_parents_counts_and_restore(self):
        originals = (_Mod.outer, _Mod.inner)
        rec = spans.Recorder()
        rec.run = "run-0"
        targets = [spans.Target(_Mod, "outer", "m.outer"),
                   spans.Target(_Mod, "inner", "m.inner",
                                count=lambda a, k, r: {"m.n": a[0]}, track_alloc=True)]
        with rec.installed(targets):
            assert _Mod.outer(1000) == 1.0
        assert (_Mod.outer, _Mod.inner) == originals
        outer, inner = rec.spans
        assert (outer.name, outer.parent) == ("m.outer", None)
        assert (inner.name, inner.parent, inner.counts) == ("m.inner", 0, {"m.n": 1000})
        assert inner.peak_alloc >= 8000
        assert outer.start <= inner.start <= inner.end <= outer.end


class TestFlops:
    def test_tiny_config_hand_count(self):
        cfg = featnet.FeatNetConfig(
            input_shape=(1, 8, 8), conv_kernel=2, conv_filters=(2, 3),
            fc_dims=(8, 6, 4, 6), n_classes=2)
        # conv1 7x7 out, 2 filters x 1 channel x 2x2 taps; pool -> 3x3;
        # conv2 2x2 out, 3 filters x 2 channels x 2x2 taps; pool -> 1x1, flat 3
        want = {"conv1": 2 * 49 * 2 * 1 * 4, "conv2": 2 * 4 * 3 * 2 * 4,
                "fc1": 2 * 3 * 8, "fc2": 2 * 8 * 6, "fc3": 2 * 6 * 4,
                "fc4": 2 * 4 * 6, "out": 2 * 6 * 2}
        assert flops.forward_flops(cfg) == want
        assert sum(want.values()) == 784 + 192 + 48 + 96 + 48 + 48 + 24 == 1240
        # forward + weight gradients + input gradients of all but conv1
        assert flops.train_step_flops(cfg) == 3 * 1240 - 784

    def test_paper_shape(self):
        fwd = flops.forward_flops(featnet.FeatNetConfig())
        assert fwd["conv1"] == 586_432_000
        assert sum(fwd.values()) / 1e9 == pytest.approx(2.12, abs=0.01)


class TestChecks:
    def test_compare_tolerance(self):
        assert workloads.compare("x", [1.0, 2.0 + 1e-12], [1.0, 2.0]) == []
        assert workloads.compare("x", [1.0, 2.0 * (1 + 1e-8)], [1.0, 2.0])
        assert workloads.compare("x", [np.nan], [1.0])
        assert workloads.compare("x", [1.0], [1.0, 2.0])

    def test_compare_scale_floors_near_zero(self):
        assert workloads.compare("x", [1e-15], [0.0], scale=1.0) == []
        assert workloads.compare("x", [1e-15], [0.0])
        assert workloads.compare("x", [1e-8], [0.0], scale=1.0)

    def test_per_layer_metrics_read_spans_and_counters(self):
        st = spans.LayerStats(self_s=2.0, total_s=4.0, calls=3.0,
                              counts={"featnet.forward.gflop": 8.0})
        metrics = run.per_layer_metrics({"featnet.forward": st})
        assert metrics["featnet.forward.self_s"] == (2.0, "s")
        assert metrics["featnet.forward.calls"] == (3.0, "count")
        assert metrics["featnet.forward.gflop_per_s"] == (2.0, "GFLOP/s")
        assert metrics["articspace.trees_built"] == (0.0, "count")
        assert not any(name.startswith("trace.") for name in metrics)

    def test_reference_covers_every_corpus(self):
        refs = json.loads((BENCH / "reference.json").read_text())["workloads"]
        for name in workloads.WORKLOADS:
            assert sorted(map(int, refs[name])) == list(range(run.N_CORPORA))
        for index in range(run.N_CORPORA):
            features = run.load_reference("featnet-extract", index)["features"]
            assert features.shape == (workloads.N_EXTRACT, featnet.FeatNetConfig().bottleneck_dim)


def test_refuses_to_run_without_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "articspace", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
