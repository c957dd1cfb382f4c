"""Deterministic synthetic TaL-shaped corpus for the benchmark.

Writes, under ``--out``:
  * ``data/<utt>.artf``: 64x128 u8 ultrasound frames rendered from a
    parametric tongue ridge (a Gaussian ridge along each column, as in the
    ridge-tracking tests), with speckle noise and occasional bright
    artefacts that the isolation forest should prune;
  * ``data/<utt>.lab``: one phone label per frame over 49 phones;
  * ``manifest.json``: prompt-disjoint train/validation/test split;
  * ``featnet.ckpt``: a paper-shape FeatNet checkpoint (``save_params``);
  * ``norm.json``: pixel mean/std of the train split (``normalize``).

Every speaker reads the same prompts in each of three modes. The silent
mode is a contracted articulatory space with a slower syllable rate.
The same seed gives byte-identical files.

Run: ``python3 perfbench/corpus_gen.py --seed 3 --out <dir>`` with the
repository's ``src`` on ``PYTHONPATH``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

N_SPEAKERS = 2
N_PROMPTS = 5
N_FRAMES = 24
HEIGHT, WIDTH = 64, 128
N_PHONES = 49
WORDS_PER_PROMPT = 3
#: articulatory excursion and syllable rate (syllables/s) per mode
MODE_SCALE = {"modal": 1.0, "whispered": 0.9, "silent": 0.6}
MODE_RATE = {"modal": 4.0, "whispered": 3.6, "silent": 3.0}
ARTEFACT_PROB = 0.03
VAL_FRACTION = 0.1


def _word_phones(rng: np.random.Generator, n_words: int) -> list[list[int]]:
    return [rng.integers(0, N_PHONES, rng.integers(2, 5)).tolist() for _ in range(n_words)]


def _frame_labels(phones: list[int], rng: np.random.Generator) -> np.ndarray:
    """Stretch a phone sequence over the utterance with jittered durations."""
    weights = rng.uniform(0.6, 1.4, len(phones))
    bounds = np.rint(np.cumsum(weights) / weights.sum() * N_FRAMES).astype(np.int64)
    starts = np.concatenate([[0], bounds[:-1]])
    labels = np.empty(N_FRAMES, dtype=np.int64)
    for ph, lo, hi in zip(phones, starts, bounds):
        labels[lo:hi] = ph
    return labels


def _render(contours_y: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(n, W) ridge rows -> (n, H, W) u8 frames with speckle and artefacts."""
    rows = np.arange(HEIGHT, dtype=np.float64)[None, :, None]
    img = 20.0 + 200.0 * np.exp(-0.5 * ((rows - contours_y[:, None, :]) / 2.0) ** 2)
    img += rng.normal(0.0, 12.0, img.shape)
    for i in np.nonzero(rng.random(img.shape[0]) < ARTEFACT_PROB)[0]:
        r = int(rng.integers(4, HEIGHT - 4))
        c = int(rng.integers(0, WIDTH - 12))
        img[i, r - 2:r + 3, c:c + 12] = 255.0
    return np.clip(np.rint(img), 0, 255).astype(np.uint8)


def generate(seed: int, out: str | Path) -> None:
    """Write the corpus for ``seed`` under ``out``."""
    from silentspeech import corpus, featnet

    out = Path(out)
    (out / "data").mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)

    phones = [f"ph{i:02d}" for i in range(N_PHONES)]
    targets = rng.uniform(-1.0, 1.0, (N_PHONES, 2))  # articulator target per phone
    lexicon = {f"w{i:02d}": p for i, p in enumerate(_word_phones(rng, 12))}
    words = sorted(lexicon)
    prompts = []
    while len(prompts) < N_PROMPTS:
        prompt = " ".join(rng.choice(words, WORDS_PER_PROMPT).tolist())
        if prompt not in prompts:
            prompts.append(prompt)

    xs = np.linspace(0.0, 1.0, WIDTH)
    shape1 = np.sin(np.pi * xs)          # tongue body raise
    shape2 = np.sin(2.0 * np.pi * xs)    # front/back tilt
    records = []
    for s in range(N_SPEAKERS):
        spk = f"spk{s}"
        rest = (HEIGHT * rng.uniform(0.45, 0.6) - rng.uniform(6, 10) * shape1
                + rng.uniform(-3, 3) * shape2)
        gain = rng.uniform(0.9, 1.1)
        for mode, scale in MODE_SCALE.items():
            for p, prompt in enumerate(prompts):
                utt = f"{spk}_{mode}_{p}"
                ph = [x for w in prompt.split() for x in lexicon[w]]
                labels = _frame_labels(ph, rng)
                # coarticulation: moving average of per-frame phone targets
                traj = targets[labels]
                kernel = np.ones(5) / 5.0
                traj = np.stack([np.convolve(np.pad(traj[:, j], 2, mode="edge"),
                                             kernel, mode="valid") for j in (0, 1)], axis=1)
                traj += rng.normal(0.0, 0.05, traj.shape)
                y = rest[None, :] + gain * scale * (12.0 * traj[:, :1] * shape1[None, :]
                                                    + 8.0 * traj[:, 1:] * shape2[None, :])
                frames = _render(np.clip(y, 4, HEIGHT - 5), rng)
                corpus.write_frames(out / "data" / f"{utt}.artf", frames)
                corpus.write_labels(out / "data" / f"{utt}.lab", labels)
                syllables = max(1, len(ph) // 2)
                records.append(corpus.UtteranceRecord(
                    utt_id=utt, speaker_id=spk, session_id=f"{spk}_s1", mode=mode,
                    prompt=prompt, syllable_count=syllables,
                    duration_s=round(syllables * rng.uniform(0.85, 1.15)
                                     / (MODE_RATE[mode] * gain), 6),
                    ult_path=f"data/{utt}.artf", vid_path=None,
                    labels_path=f"data/{utt}.lab", split="train", root=out))

    manifest = corpus.split_prompt_disjoint(
        corpus.Manifest(phones=phones, records=records, root=out),
        test_prompts={prompts[-1]}, val_fraction=VAL_FRACTION, seed=seed)
    corpus.save_manifest(manifest, out / "manifest.json")

    train = [corpus.read_frames(out / r.ult_path) for r in manifest.by_split("train")]
    mean, std, _ = corpus.normalize(train)
    (out / "norm.json").write_text(json.dumps({"mean": mean, "std": std}) + "\n")

    params = featnet.init_params(featnet.FeatNetConfig(seed=seed))
    featnet.save_params(params, out / "featnet.ckpt")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args(argv)
    generate(args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
