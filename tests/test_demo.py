"""Tests for the synthetic task generator and the training loop."""

import numpy as np
import pytest

from ctfuse import backbone
from ctfuse.demo import (
    DEMO_STAGES,
    DemoMetrics,
    SyntheticTaskConfig,
    TaskData,
    TrainConfig,
    TrainingDiverged,
    generate_task,
    roc_auc,
    train,
)
from ctfuse.operators import OperatorKind


def noiseless_task(volumes=8, seed=0, **kw):
    return generate_task(SyntheticTaskConfig(volumes=volumes, noise_sigma=0.0,
                                             seed=seed, **kw))


def volume_sign(data: TaskData, i: int) -> float:
    """Recover the per-volume coin flip from the slice above the key slice,
    where both blobs carry + sign times the flip."""
    level = data.volumes[i, 0, data.key_slice - 1][data.masks[i]].mean()
    return 1.0 if level > 0 else -1.0


class TestTaskGeneration:
    def test_shapes_and_key_slice(self):
        cfg = SyntheticTaskConfig(volumes=6, depth=7, height=20, width=24)
        data = generate_task(cfg)
        assert data.volumes.shape == (6, 1, 7, 20, 24)
        assert data.masks.shape == (6, 20, 24)
        assert data.distractor_masks.shape == (6, 20, 24)
        assert data.masks.dtype == bool
        assert data.key_slice == 3

    def test_footprints_disjoint_and_sized(self):
        data = generate_task(SyntheticTaskConfig(volumes=12))
        for i in range(12):
            assert not np.any(data.masks[i] & data.distractor_masks[i])
            # integer offsets with dh^2 + dw^2 <= 2.5^2 give 21 pixels
            assert data.masks[i].sum() == 21
            assert data.distractor_masks[i].sum() == 21

    def test_noiseless_profile_structure(self):
        data = noiseless_task()
        key = data.key_slice
        amp = data.config.amplitude
        for i in range(data.volumes.shape[0]):
            vol = data.volumes[i, 0]
            for d in range(data.config.depth):
                if abs(d - key) > 1:
                    assert np.all(vol[d] == 0.0)
            assert np.array_equal(vol[key - 1], vol[key + 1])
            # the alternating blob cancels in the slice sum and the
            # constant one cancels in the slice difference, leaving one
            # signed Gaussian each (tails included)
            dist_img = 0.5 * (vol[key - 1] + vol[key])
            pos_img = 0.5 * (vol[key - 1] - vol[key])
            s = volume_sign(data, i)
            assert np.max(np.abs(pos_img)) == pytest.approx(amp, rel=1e-12)
            assert np.max(np.abs(dist_img)) == pytest.approx(amp, rel=1e-12)
            assert data.masks[i][np.unravel_index(np.abs(pos_img).argmax(), pos_img.shape)]
            assert data.distractor_masks[i][
                np.unravel_index(np.abs(dist_img).argmax(), dist_img.shape)]
            assert s * pos_img.flat[np.abs(pos_img).argmax()] > 0
            assert s * dist_img.flat[np.abs(dist_img).argmax()] > 0

    def test_single_slice_amplitude_identical_between_blobs(self):
        # On every slice the two footprints carry the same unsigned
        # pattern, so nothing slice-local tells them apart.
        data = noiseless_task(volumes=10)
        key = data.key_slice
        for i in range(10):
            vol = data.volumes[i, 0]
            for d in (key - 1, key, key + 1):
                pos = np.sort(np.abs(vol[d][data.masks[i]]))
                dist = np.sort(np.abs(vol[d][data.distractor_masks[i]]))
                assert np.allclose(pos, dist)

    def test_signs_alternate_in_pairs(self):
        data = noiseless_task(volumes=20)
        signs = np.array([volume_sign(data, i) for i in range(20)])
        assert np.all(signs[0::2] == -signs[1::2])
        assert signs.sum() == 0

    def test_determinism_and_seed_sensitivity(self):
        a = generate_task(SyntheticTaskConfig(volumes=4, seed=3))
        b = generate_task(SyntheticTaskConfig(volumes=4, seed=3))
        c = generate_task(SyntheticTaskConfig(volumes=4, seed=4))
        assert a.volumes.tobytes() == b.volumes.tobytes()
        assert np.array_equal(a.masks, b.masks)
        assert a.volumes.tobytes() != c.volumes.tobytes()

    def test_radius_must_fit_grid(self):
        with pytest.raises(ValueError, match="fit"):
            SyntheticTaskConfig(height=8, width=8, blob_radius=4.0)

    def test_unplaceable_blobs_raise_after_attempts(self):
        with pytest.raises(ValueError, match="no grid position"):
            generate_task(SyntheticTaskConfig(volumes=2, height=16, width=16,
                                              blob_radius=5.5))

    @pytest.mark.parametrize("seed", [30, 409])
    def test_seeds_that_miss_rejection_still_place_blobs_apart(self, seed):
        """These seeds exhaust the 100 rejection draws for some volume; the
        fallback still puts the centres at least 2r+1 apart."""
        cfg = SyntheticTaskConfig(seed=seed)
        data = generate_task(cfg)
        for pos, dist in zip(data.masks, data.distractor_masks):
            # Each footprint is a disk around its integer centre.
            gap = np.argwhere(pos).mean(axis=0) - np.argwhere(dist).mean(axis=0)
            assert np.hypot(*gap) >= 2 * cfg.blob_radius + 1

    def test_config_validation(self):
        with pytest.raises(ValueError, match="volumes"):
            SyntheticTaskConfig(volumes=1)
        with pytest.raises(ValueError, match="depth"):
            SyntheticTaskConfig(depth=2)
        with pytest.raises(ValueError, match="noise_sigma"):
            SyntheticTaskConfig(noise_sigma=-0.1)
        with pytest.raises(ValueError, match="positive"):
            SyntheticTaskConfig(blob_radius=0.0)

    @pytest.mark.parametrize("name", ["blob_radius", "amplitude", "noise_sigma"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_float_rejected(self, name, bad):
        with pytest.raises(ValueError, match=name):
            SyntheticTaskConfig(**{name: bad})


class TestSliceWiseUnidentifiability:
    def test_single_slice_matcher_is_at_chance(self):
        # Score each footprint pixel by its own unsigned intensity on one
        # slice; over many volumes this cannot beat chance on any slice.
        data = generate_task(SyntheticTaskConfig(volumes=200, seed=1))
        key = data.key_slice
        for d in (key - 1, key, key + 1):
            pos, neg = [], []
            for i in range(200):
                sl = np.abs(data.volumes[i, 0, d])
                pos.append(sl[data.masks[i]])
                neg.append(sl[data.distractor_masks[i]])
            auc = roc_auc(np.concatenate(pos), np.concatenate(neg))
            assert 0.45 <= auc <= 0.55, (d, auc)

    def test_second_difference_matcher_separates(self):
        data = generate_task(SyntheticTaskConfig(volumes=50, seed=2))
        key = data.key_slice
        pos, neg = [], []
        for i in range(50):
            v = data.volumes[i, 0]
            sd = np.abs(v[key - 1] - 2.0 * v[key] + v[key + 1])
            pos.append(sd[data.masks[i]])
            neg.append(sd[data.distractor_masks[i]])
        assert roc_auc(np.concatenate(pos), np.concatenate(neg)) >= 0.95


class TestRocAuc:
    def test_perfect_separation(self):
        assert roc_auc([2.0, 3.0], [0.0, 1.0]) == 1.0
        assert roc_auc([0.0, 1.0], [2.0, 3.0]) == 0.0

    def test_hand_counted_case(self):
        assert roc_auc([3.0, 1.0], [2.0, 0.0]) == 0.75

    def test_ties_average_to_half(self):
        assert roc_auc([1.0, 1.0, 1.0], [1.0, 1.0]) == 0.5

    def test_empty_side_rejected(self):
        with pytest.raises(ValueError, match="at least one"):
            roc_auc([], [1.0])


class TestTrainConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="epochs"):
            TrainConfig(epochs=0)
        with pytest.raises(ValueError, match="batch_size"):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=-1.0)
        with pytest.raises(ValueError, match="val_fraction"):
            TrainConfig(val_fraction=1.0)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_learning_rate_rejected(self, bad):
        with pytest.raises(ValueError, match="learning_rate"):
            TrainConfig(learning_rate=bad)

    def test_split_must_leave_both_sides(self):
        data = generate_task(SyntheticTaskConfig(volumes=4))
        with pytest.raises(ValueError, match="split"):
            train(data, TrainConfig(epochs=1, val_fraction=0.05))


class TestTraining:
    def test_zero_learning_rate_freezes_loss(self):
        data = generate_task(SyntheticTaskConfig(volumes=16, seed=5))
        metrics = train(data, TrainConfig(epochs=3, learning_rate=0.0, seed=5))
        assert metrics.train_loss[0] == metrics.train_loss[1] == metrics.train_loss[2]
        assert metrics.val_loss[0] == metrics.val_loss[1] == metrics.val_loss[2]

    def test_one_operator_forward_per_sample_and_layer(self, monkeypatch):
        """Backward reads each training sample's forward from its tape."""
        calls = []
        real = backbone.op_forward

        def counting(*args, **kwargs):
            calls.append(args[0].kind)
            return real(*args, **kwargs)
        monkeypatch.setattr(backbone, "op_forward", counting)
        data = generate_task(SyntheticTaskConfig(volumes=8, seed=3))
        for kind in (OperatorKind.A3D, OperatorKind.P3D):
            calls.clear()
            train(data, TrainConfig(fusion=kind, epochs=2, seed=3))
            layers = sum(blocks for _, blocks in DEMO_STAGES)
            assert calls == [kind] * (layers * 8 * 2)

    def test_training_is_deterministic(self):
        data = generate_task(SyntheticTaskConfig(volumes=16, seed=6))
        cfg = TrainConfig(epochs=2, seed=6)
        a = train(data, cfg)
        b = train(data, cfg)
        assert a.to_csv() == b.to_csv()
        assert a.val_auc == b.val_auc

    def test_slice_mixing_solves_the_task(self):
        data = generate_task(SyntheticTaskConfig(seed=0))
        metrics = train(data, TrainConfig(fusion=OperatorKind.A3D, epochs=8, seed=0))
        assert metrics.final_val_auc >= 0.9
        assert metrics.fusion is OperatorKind.A3D

    def test_slice_wise_model_stays_near_chance(self):
        data = generate_task(SyntheticTaskConfig(seed=0))
        metrics = train(data, TrainConfig(fusion=OperatorKind.NOFUSION, epochs=8, seed=0))
        assert max(metrics.val_auc) <= 0.6

    def test_divergence_reports_epoch(self):
        data = generate_task(SyntheticTaskConfig(volumes=8, seed=7))
        with pytest.raises(TrainingDiverged) as excinfo:
            with np.errstate(over="ignore", invalid="ignore"):
                train(data, TrainConfig(epochs=5, learning_rate=1e8, seed=7))
        assert 1 <= excinfo.value.epoch <= 5

    def test_metrics_csv_layout(self):
        metrics = DemoMetrics(OperatorKind.I3D, (0.5, 0.25), (0.6, 0.3), (0.5, 0.75))
        lines = metrics.to_csv().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,val_auc"
        assert lines[1] == "1,0.500000,0.600000,0.500000"
        assert lines[2] == "2,0.250000,0.300000,0.750000"
        assert metrics.final_val_auc == 0.75
