"""Synthetic training demonstration: a task slice-wise models cannot solve.

Each volume hides two Gaussian blobs.  Both leave the same footprint on
any single slice; they differ only in how the footprint's sign varies
across neighboring slices.  The positive blob alternates sign around the
key slice (profile +g, -g, +g times a per-volume coin flip s) while the
distractor keeps it constant (+g, +g, +g times s).  Because s is random,
every slice of either blob is just "a blob of random sign": no function
of one slice, nor any sum of per-slice functions, can rank positive
pixels above distractor pixels better than chance.  A model that
compares slices (for example through learned per-channel slice mixing)
separates them easily via the second difference along depth.

Sign flips are drawn in antithetic pairs (volume 2j and 2j+1 get
opposite signs), so any pair-aligned subset of volumes, such as the
train/validation split, holds an exactly balanced mix of signs.
"""

import io
from dataclasses import dataclass

import numpy as np

from .backbone import (
    BackboneConfig,
    Tape,
    apply_sgd,
    backward_features,
    build,
    forward_features,
)
from .operators import OperatorKind
from .rng import SeededRng


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""

    def __init__(self, epoch: int):
        super().__init__(f"non-finite loss at epoch {epoch}")
        self.epoch = epoch


@dataclass(frozen=True)
class SyntheticTaskConfig:
    """Shape and intensity knobs for the generated volumes."""

    volumes: int = 80
    depth: int = 5
    height: int = 16
    width: int = 16
    blob_radius: float = 2.5
    amplitude: float = 1.0
    noise_sigma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if self.volumes < 2:
            raise ValueError(f"need at least 2 volumes, got {self.volumes}")
        if self.depth < 3:
            raise ValueError(f"depth must be >= 3 for a 3-slice profile, got {self.depth}")
        for name in ("blob_radius", "amplitude", "noise_sigma"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.blob_radius <= 0 or self.amplitude <= 0:
            raise ValueError("blob_radius and amplitude must be positive")
        if self.noise_sigma < 0:
            raise ValueError(f"noise_sigma must be >= 0, got {self.noise_sigma}")
        margin = int(np.ceil(self.blob_radius))
        if 2 * margin + 1 > min(self.height, self.width):
            raise ValueError(f"blob radius {self.blob_radius} does not fit in "
                             f"{self.height}x{self.width}")


@dataclass(frozen=True)
class TaskData:
    """Generated volumes plus the per-pixel footprints of both blobs."""

    config: SyntheticTaskConfig
    volumes: np.ndarray          # (N, 1, D, H, W)
    masks: np.ndarray            # (N, H, W) bool, positive-blob footprint
    distractor_masks: np.ndarray  # (N, H, W) bool
    key_slice: int


def _place_centers(rng: SeededRng, cfg: SyntheticTaskConfig) -> tuple[tuple, tuple]:
    margin = int(np.ceil(cfg.blob_radius))
    lo_h, hi_h = margin, cfg.height - 1 - margin
    lo_w, hi_w = margin, cfg.width - 1 - margin
    min_sep = 2 * cfg.blob_radius + 1

    def draw():
        return (int(rng.uniform(lo_h, hi_h + 1)), int(rng.uniform(lo_w, hi_w + 1)))

    def far_enough(second):
        return np.hypot(second[0] - first[0], second[1] - first[1]) >= min_sep

    first = draw()
    for _ in range(100):
        second = draw()
        if far_enough(second):
            return first, second
    # Rejection sampling missed; draw from every position far enough away.
    far = [(hh, ww) for hh in range(lo_h, hi_h + 1) for ww in range(lo_w, hi_w + 1)
           if far_enough((hh, ww))]
    if not far:
        raise ValueError(f"could not place two blobs {min_sep:.1f} pixels apart on a "
                         f"{cfg.height}x{cfg.width} grid: no grid position is that far "
                         f"from the first centre {first}")
    return first, far[int(rng.uniform(0, len(far)))]


def _blob(cfg: SyntheticTaskConfig, center) -> tuple[np.ndarray, np.ndarray]:
    hh = np.arange(cfg.height)[:, None] - center[0]
    ww = np.arange(cfg.width)[None, :] - center[1]
    r2 = hh.astype(np.float64) ** 2 + ww.astype(np.float64) ** 2
    sigma = cfg.blob_radius / 2.0
    image = cfg.amplitude * np.exp(-r2 / (2.0 * sigma * sigma))
    return image, r2 <= cfg.blob_radius ** 2


def generate_task(cfg: SyntheticTaskConfig) -> TaskData:
    """Draw the full volume set deterministically from cfg.seed."""
    root = SeededRng(cfg.seed)
    key = cfg.depth // 2
    shape = (cfg.volumes, 1, cfg.depth, cfg.height, cfg.width)
    volumes = np.zeros(shape)
    masks = np.zeros((cfg.volumes, cfg.height, cfg.width), dtype=bool)
    dmasks = np.zeros_like(masks)
    for i in range(cfg.volumes):
        r = root.fork(5, i)
        pair_flip = root.fork(6, i // 2).uniform(0, 1) < 0.5
        sign = 1.0 if pair_flip == (i % 2 == 0) else -1.0
        pos_center, dist_center = _place_centers(r.fork(0), cfg)
        pos_img, pos_mask = _blob(cfg, pos_center)
        dist_img, dist_mask = _blob(cfg, dist_center)
        vol = r.fork(1).normal(shape[1:]) * cfg.noise_sigma
        for offset, flip in ((-1, 1.0), (0, -1.0), (1, 1.0)):
            vol[0, key + offset] += sign * flip * pos_img
            vol[0, key + offset] += sign * dist_img
        volumes[i] = vol
        masks[i] = pos_mask
        dmasks[i] = dist_mask
    return TaskData(cfg, volumes, masks, dmasks, key)


DEMO_STAGES = ((8, 1), (16, 1))


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; train fits a small two-stage backbone
    (DEMO_STAGES) sized to the task volumes."""

    fusion: OperatorKind = OperatorKind.A3D
    epochs: int = 40
    batch_size: int = 8
    learning_rate: float = 0.2
    seed: int = 0
    val_fraction: float = 0.25

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if not np.isfinite(self.learning_rate) or self.learning_rate < 0:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")
        if not 0 < self.val_fraction < 1:
            raise ValueError(f"val_fraction must be in (0, 1), got {self.val_fraction}")


@dataclass(frozen=True)
class DemoMetrics:
    """Per-epoch curves; val_auc ranks positive-blob pixels against
    distractor pixels, background excluded."""

    fusion: OperatorKind
    train_loss: tuple[float, ...]
    val_loss: tuple[float, ...]
    val_auc: tuple[float, ...]

    @property
    def final_val_auc(self) -> float:
        return self.val_auc[-1]

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("epoch,train_loss,val_loss,val_auc\n")
        rows = zip(self.train_loss, self.val_loss, self.val_auc)
        for epoch, (tl, vl, auc) in enumerate(rows, start=1):
            out.write(f"{epoch},{tl:.6f},{vl:.6f},{auc:.6f}\n")
        return out.getvalue()


def roc_auc(pos_scores, neg_scores) -> float:
    """Probability a positive outranks a negative, ties counted half."""
    pos = np.asarray(pos_scores, dtype=np.float64).ravel()
    neg = np.asarray(neg_scores, dtype=np.float64).ravel()
    if pos.size == 0 or neg.size == 0:
        raise ValueError("roc_auc needs at least one score on each side")
    # Rank 1 is the lowest score; tied scores share their mean rank.
    _, group, counts = np.unique(np.concatenate([pos, neg]), return_inverse=True,
                                 return_counts=True)
    ranks = (np.cumsum(counts) - (counts - 1) / 2.0)[group]
    rank_sum = ranks[:pos.size].sum()
    return float((rank_sum - pos.size * (pos.size + 1) / 2) / (pos.size * neg.size))


def _sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z)
    nonneg = z >= 0
    out[nonneg] = 1.0 / (1.0 + np.exp(-z[nonneg]))
    ez = np.exp(z[~nonneg])
    out[~nonneg] = ez / (1.0 + ez)
    return out


def _bce(z: np.ndarray, y: np.ndarray) -> float:
    return float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))


def train(data: TaskData, cfg: TrainConfig) -> DemoMetrics:
    """Fit the model and report per-epoch loss and ranking quality.

    The last round(val_fraction * N) volumes are held out.  The model is
    the DEMO_STAGES backbone plus a per-pixel linear head on the feature
    map; the loss is mean binary cross-entropy against the positive-blob
    footprint (distractor and background pixels count as negatives).
    """
    n = data.volumes.shape[0]
    n_val = int(round(cfg.val_fraction * n))
    if not 0 < n_val < n:
        raise ValueError(f"val_fraction {cfg.val_fraction} leaves no usable "
                         f"split for {n} volumes")
    n_train = n - n_val
    task = data.config
    root = SeededRng(cfg.seed)
    bb = build(BackboneConfig(depth=task.depth, stages=DEMO_STAGES, height=task.height,
                              width=task.width, fusion=cfg.fusion, seed=root.fork(1).seed))
    cf = bb.config.feature_channels
    head_v = root.fork(2).uniform(-0.01, 0.01, (cf,))
    head_b = 0.0
    labels = data.masks.astype(np.float64)
    n_pix = task.height * task.width

    def logits_for(model, v, b, index, tape=None):
        feat = forward_features(model, data.volumes[index], tape)
        return feat, np.einsum("chw,c->hw", feat, v) + b

    train_curve, val_curve, auc_curve = [], [], []
    for epoch in range(1, cfg.epochs + 1):
        order = root.fork(3, epoch).permutation(n_train)
        epoch_losses = np.zeros(n_train)
        for start in range(0, n_train, cfg.batch_size):
            batch = order[start:start + cfg.batch_size]
            total = None
            total_v = np.zeros_like(head_v)
            total_b = 0.0
            for index in batch:
                tape = Tape()
                feat, z = logits_for(bb, head_v, head_b, index, tape)
                epoch_losses[index] = _bce(z, labels[index])
                dz = (_sigmoid(z) - labels[index]) / n_pix
                total_v += np.einsum("chw,hw->c", feat, dz)
                total_b += float(dz.sum())
                dfeat = head_v[:, None, None] * dz[None]
                grads = backward_features(tape, dfeat)
                if total is None:
                    total = grads
                else:
                    for name, add in grads.items():
                        total[name] += add
            inv = 1.0 / len(batch)
            for arr in total.values():
                arr *= inv
            bb = apply_sgd(bb, total, cfg.learning_rate)
            head_v = head_v - cfg.learning_rate * inv * total_v
            head_b = head_b - cfg.learning_rate * inv * total_b
        train_loss = float(epoch_losses.mean())
        if not np.isfinite(train_loss):
            raise TrainingDiverged(epoch)
        val_losses = np.zeros(n_val)
        pos_scores, neg_scores = [], []
        for j, index in enumerate(range(n_train, n)):
            _, z = logits_for(bb, head_v, head_b, index)
            val_losses[j] = _bce(z, labels[index])
            pos_scores.append(z[data.masks[index]])
            neg_scores.append(z[data.distractor_masks[index]])
        val_loss = float(val_losses.mean())
        if not np.isfinite(val_loss):
            raise TrainingDiverged(epoch)
        auc = roc_auc(np.concatenate(pos_scores), np.concatenate(neg_scores))
        train_curve.append(train_loss)
        val_curve.append(val_loss)
        auc_curve.append(auc)
    return DemoMetrics(cfg.fusion, tuple(train_curve), tuple(val_curve), tuple(auc_curve))
