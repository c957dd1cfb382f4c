"""The benchmark's workloads: set-up, one pipeline run, and output checks.

Each workload drives the public API the way a researcher would. All
calls into the program go through module attributes (``corpus.read_frames``
rather than an imported name), so that a traced run can wrap them.

An operation is one cloud (``articspace``), one SGD step
(``featnet-train``) or one extraction chunk (``featnet-extract``).
"""

from __future__ import annotations

import json
import math
from contextlib import contextmanager
from pathlib import Path

import numpy as np

from silentspeech import articspace, corpus, featnet, stats

import flops
from spans import Target

#: relative tolerance against the stored reference: admits a reordered
#: float64 sum, not a change of precision
REL_TOL = 1e-9
CONTAMINATION = 0.02
MODE_PAIRS = (("modal", "silent"), ("modal", "whispered"))
# Batch and chunk stay below the defaults (256): at paper shape, train at
# batch 8 already peaks at 4.7 GB and extract at chunk 64 at 3.7 GB.
TRAIN_BATCH = 4
N_TRAIN, N_VAL = 8, 8
EXTRACT_CHUNK = 32
N_EXTRACT = 64


def compare(label: str, got, want, scale=None) -> list[str]:
    """Errors for values of ``got`` not within REL_TOL of ``want``.

    With ``scale``, each value is held to REL_TOL of the larger of its
    reference and ``scale``: a value near zero that is the sum of larger
    terms (a ReLU input, a tensor's sum) cannot keep 1e-9 of itself under
    a reordered sum, but keeps 1e-9 of the terms' magnitude.
    """
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return [f"{label}: shape {got.shape} != reference {want.shape}"]
    mag = np.abs(want) if scale is None else np.maximum(np.abs(want), scale)
    bad = ~(np.abs(got - want) <= REL_TOL * mag)
    if bad.any():
        i = int(np.flatnonzero(bad)[0])
        return [f"{label}: {bad.sum()} values off the reference, first "
                f"#{i}: {got.ravel()[i]!r} != {want.ravel()[i]!r}"]
    return []


# ---------------------------------------------------------------------------
# articspace


class Articspace:
    """Ridge tracking, pooled clouds, isolation-forest pruning, hulls,
    paired statistics and the report files."""

    name = "articspace"

    def setup(self, corpus_dir: Path, seed: int):
        return corpus.load_manifest(corpus_dir / "manifest.json")

    def operations(self, state) -> int:
        return len({(r.speaker_id, r.mode) for r in state.records})

    def run(self, manifest, out: Path):
        contours = {}
        for rec in manifest.records:
            frames = corpus.read_frames(manifest.root / rec.ult_path) / 255.0
            contours[rec.utt_id] = [
                articspace.ridge_track(f, utt_id=rec.utt_id, frame_index=i)
                for i, f in enumerate(frames)]
        meta = {r.utt_id: (r.speaker_id, r.mode) for r in manifest.records}
        clouds = articspace.pool_clouds(contours, meta)
        results = articspace.articulatory_space(clouds, contamination=CONTAMINATION)
        paired = {pair: articspace.paired_areas(results, *pair) for pair in MODE_PAIRS}

        rates: dict[str, dict[str, float]] = {}
        for r in manifest.records:
            rates.setdefault(r.mode, {})[f"{r.speaker_id}/{r.prompt}"] = \
                stats.syllable_rate(r.syllable_count, r.duration_s)
        areas: dict[str, dict[str, float]] = {}
        for h in results:
            areas.setdefault(h.mode, {})[h.speaker_id] = h.area
        report = stats.build_mode_report({"syllable_rate": rates}, {"hull_area": areas})
        stats.write_report_csv(report, out)
        articspace.write_hull_report(results, clouds, out)
        return {"results": results, "paired": paired, "report": report}

    def reference(self, outputs) -> dict:
        return {"areas": [h.area for h in outputs["results"]],
                "p_values": [t.p for t in outputs["report"].tests]}

    def check(self, outputs, ref: dict) -> list[str]:
        errors = []
        for h in outputs["results"]:
            want = math.ceil(CONTAMINATION * h.n_points)
            if h.n_pruned != want:
                errors.append(f"{h.speaker_id}/{h.mode}: pruned {h.n_pruned}, expected {want}")
        modal_silent = outputs["paired"][("modal", "silent")]
        speakers = {h.speaker_id for h in outputs["results"]}
        if set(modal_silent) != speakers:
            errors.append(f"paired speakers {sorted(modal_silent)} != {sorted(speakers)}")
        for spk, (modal, silent) in modal_silent.items():
            if not silent < modal:
                errors.append(f"{spk}: silent hull area {silent} not below modal {modal}")
        errors += compare("hull areas", [h.area for h in outputs["results"]], ref["areas"])
        errors += compare("report p-values", [t.p for t in outputs["report"].tests],
                          ref["p_values"])
        return errors


# ---------------------------------------------------------------------------
# FeatNet


def _train_config(seed: int) -> featnet.FeatNetConfig:
    return featnet.FeatNetConfig(batch_size=TRAIN_BATCH, seed=seed)


@contextmanager
def _losses_recorded(losses: list[float]):
    """Collect each SGD step's loss; train_sgd reports only epoch means."""
    inner = featnet.loss_and_grads

    def recording(*args, **kwargs):
        loss, grads = inner(*args, **kwargs)
        losses.append(loss)
        return loss, grads

    featnet.loss_and_grads = recording
    try:
        yield
    finally:
        featnet.loss_and_grads = inner


class FeatnetTrain:
    """One epoch of SGD at paper shape with train-mode batch norm, then
    validation and a checkpoint of the selected parameters."""

    name = "featnet-train"

    def setup(self, corpus_dir: Path, seed: int):
        manifest = corpus.load_manifest(corpus_dir / "manifest.json")
        return manifest, featnet.init_params(_train_config(seed))

    def operations(self, state) -> int:
        return math.ceil(N_TRAIN / TRAIN_BATCH)

    def run(self, state, out: Path):
        manifest, params = state
        root = manifest.root
        train = manifest.by_split("train")[0]
        val = manifest.by_split("validation")[0]
        mean, std, (normed,) = corpus.normalize([corpus.read_frames(root / train.ult_path)])
        x = corpus.window_stack(normed)[:N_TRAIN]
        y = corpus.read_labels(root / train.labels_path)[:N_TRAIN]
        val_frames = corpus.apply_normalization(
            corpus.read_frames(root / val.ult_path), mean, std)
        vx = corpus.window_stack(val_frames)[:N_VAL]
        vy = corpus.read_labels(root / val.labels_path)[:N_VAL]
        losses: list[float] = []
        with _losses_recorded(losses):
            best, epochs = featnet.train_sgd(params, x, y, vx, vy, epochs=1)
        featnet.save_params(best, out / "trained.ckpt")
        return {"losses": losses, "epochs": epochs, "best": best}

    @staticmethod
    def _sums(params) -> tuple[list[float], list[float]]:
        """Sum and sum of absolute values of each tensor, batch-norm
        running moments included, in TENSOR_NAMES order."""
        names = featnet.FeatNetParams.TENSOR_NAMES
        return ([float(params[n].sum()) for n in names],
                [float(np.abs(params[n]).sum()) for n in names])

    def reference(self, outputs) -> dict:
        sums, abs_sums = self._sums(outputs["best"])
        return {"losses": outputs["losses"], "val_acc": outputs["epochs"][0]["val_acc"],
                "param_sums": sums, "param_abs_sums": abs_sums}

    def check(self, outputs, ref: dict) -> list[str]:
        losses = outputs["losses"]
        errors = []
        if not np.all(np.isfinite(losses)):
            errors.append(f"non-finite step loss in {losses}")
        errors += compare("step losses", losses, ref["losses"])
        errors += compare("train_loss", outputs["epochs"][0]["train_loss"], np.mean(losses))
        errors += compare("val_acc", outputs["epochs"][0]["val_acc"], ref["val_acc"])
        # the selected parameters carry both SGD updates and the running
        # moments; a tensor's sum is held to 1e-9 of its absolute sum
        sums, abs_sums = self._sums(outputs["best"])
        errors += compare("parameter |sums|", abs_sums, ref["param_abs_sums"])
        errors += compare("parameter sums", sums, ref["param_sums"],
                          scale=np.asarray(ref["param_abs_sums"]))
        return errors


class FeatnetExtract:
    """Checkpoint loading, then bottleneck extraction in inference mode."""

    name = "featnet-extract"

    def setup(self, corpus_dir: Path, seed: int):
        manifest = corpus.load_manifest(corpus_dir / "manifest.json")
        params = featnet.load_params(corpus_dir / "featnet.ckpt")
        norm = json.loads((corpus_dir / "norm.json").read_text())
        return manifest, params, norm["mean"], norm["std"]

    def operations(self, state) -> int:
        return math.ceil(N_EXTRACT / EXTRACT_CHUNK)

    def run(self, state, out: Path):
        manifest, params, mean, std = state
        frames, n = [], 0
        for rec in manifest.by_split("test"):
            frames.append(corpus.read_frames(manifest.root / rec.ult_path))
            n += frames[-1].shape[0]
            if n >= N_EXTRACT:
                break
        normed = corpus.apply_normalization(np.concatenate(frames)[:N_EXTRACT], mean, std)
        feats = featnet.extract_bottleneck(params, normed, chunk=EXTRACT_CHUNK)
        corpus.write_features(out / "features.artf", feats)
        return {"features": feats}

    def reference(self, outputs) -> dict:
        return {"features": outputs["features"]}

    def check(self, outputs, ref: dict) -> list[str]:
        f = outputs["features"]
        shape = (N_EXTRACT, featnet.FeatNetConfig().bottleneck_dim)
        if f.shape != shape:
            return [f"features have shape {f.shape}, expected {shape}"]
        if not np.all(np.isfinite(f)):
            return ["non-finite features"]
        # every entry; ReLU zeros are held to 1e-9 of the mean feature
        want = ref["features"]
        return compare("features", f, want, scale=np.abs(want).mean())


WORKLOADS = {w.name: w for w in (Articspace(), FeatnetTrain(), FeatnetExtract())}


# ---------------------------------------------------------------------------
# Traced functions and their work counters


def _nbytes(args, kwargs, result):
    return {"corpus.read_frames.bytes": result.nbytes}


def _trees(args, kwargs, result):
    return {"articspace.trees_built": len(result.trees)}


def _scored(args, kwargs, result):
    return {"articspace.points_scored": result.shape[0]}


def _pruned(args, kwargs, result):
    n_in = args[0].points.shape[0]
    return {"articspace.points_in": n_in,
            "articspace.points_pruned": n_in - result.points.shape[0]}


def _hull_vertices(args, kwargs, result):
    return {"articspace.hull_vertices": result.shape[0]}


def _batch(x) -> int:
    return 1 if np.ndim(x) == 3 else np.shape(x)[0]


def _train_gflop(args, kwargs, result):
    params, x = args[0], args[1]
    return {"featnet.loss_and_grads.gflop":
            _batch(x) * flops.train_step_flops(params.config) / 1e9}


def _forward_gflop(args, kwargs, result):
    params, x = args[0], args[1]
    return {"featnet.forward.gflop":
            _batch(x) * sum(flops.forward_flops(params.config).values()) / 1e9}


def trace_targets() -> list[Target]:
    """Every layer function the traced run wraps.

    ``featnet`` imports ``window_stack`` under its own name, so that alias
    is wrapped as well and recorded as ``corpus.window_stack``.
    """
    spec = [
        (corpus, "load_manifest", None, False),
        (corpus, "read_frames", _nbytes, False),
        (corpus, "read_labels", None, False),
        (corpus, "normalize", None, False),
        (corpus, "apply_normalization", None, False),
        (corpus, "window_stack", None, False),
        (corpus, "write_features", None, False),
        (articspace, "ridge_track", None, False),
        (articspace, "pool_clouds", None, False),
        (articspace, "articulatory_space", None, False),
        (articspace, "prune_outliers", _pruned, False),
        (articspace, "fit_iforest", _trees, False),
        (articspace, "anomaly_score", _scored, False),
        (articspace, "convex_hull", _hull_vertices, False),
        (articspace, "polygon_area", None, False),
        (articspace, "paired_areas", None, False),
        (articspace, "write_hull_report", None, False),
        (stats, "syllable_rate", None, False),
        (stats, "build_mode_report", None, False),
        (stats, "write_report_csv", None, False),
        (featnet, "init_params", None, False),
        (featnet, "load_params", None, False),
        (featnet, "save_params", None, False),
        (featnet, "train_sgd", None, False),
        (featnet, "loss_and_grads", _train_gflop, True),
        (featnet, "accuracy", None, False),
        (featnet, "forward", _forward_gflop, True),
        (featnet, "extract_bottleneck", None, False),
        (featnet, "window_stack", None, False),
    ]
    return [Target(mod, attr, f"{getattr(mod, attr).__module__.rsplit('.', 1)[-1]}.{attr}",
                   count, alloc)
            for mod, attr, count, alloc in spec]
