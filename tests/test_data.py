"""Tests for datasets, loaders, metrics, and preprocessing."""

import numpy as np
import pytest

from repro.data import (
    ArrayDataset,
    DataLoader,
    MinMaxScaler,
    MultiViewSequenceDataset,
    SequenceScaler,
    StandardScaler,
    accuracy,
    classification_report,
    collate_multiview,
    confusion_matrix,
    f1_score,
    pad_sequences,
    precision_recall_f1,
    stratified_split,
    train_test_split,
)


@pytest.fixture
def rng():
    return np.random.default_rng(0)


class TestDatasets:
    def test_array_dataset_basics(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 3)), np.arange(10))
        assert len(ds) == 10
        x, y = ds[3]
        assert x.shape == (3,) and y == 3

    def test_array_dataset_length_mismatch(self, rng):
        with pytest.raises(ValueError):
            ArrayDataset(rng.normal(size=(10, 3)), np.arange(9))

    def test_array_dataset_subset(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 3)), np.arange(10))
        sub = ds.subset([1, 3, 5])
        assert len(sub) == 3
        assert sub.labels.tolist() == [1, 3, 5]

    def test_multiview_dataset(self, rng):
        views = [
            [rng.normal(size=(5, 2)), rng.normal(size=(3, 2))],
            [rng.normal(size=(7, 4)), rng.normal(size=(2, 4))],
        ]
        ds = MultiViewSequenceDataset(views, [0, 1])
        assert len(ds) == 2
        assert ds.num_views == 2
        assert ds.view_dims() == [2, 4]
        sample_views, label = ds[1]
        assert sample_views[0].shape == (3, 2)
        assert label == 1

    def test_multiview_count_mismatch(self, rng):
        with pytest.raises(ValueError):
            MultiViewSequenceDataset(
                [[rng.normal(size=(5, 2))]], [0, 1]
            )

    def test_multiview_subset(self, rng):
        views = [[rng.normal(size=(i + 2, 3)) for i in range(4)]]
        ds = MultiViewSequenceDataset(views, np.arange(4))
        sub = ds.subset([2, 0])
        assert len(sub) == 2
        assert sub[0][0][0].shape == (4, 3)


class TestSplits:
    def test_train_test_split_partition(self, rng):
        train, test = train_test_split(100, test_fraction=0.3, rng=rng)
        assert len(train) == 70 and len(test) == 30
        assert set(train) | set(test) == set(range(100))
        assert not set(train) & set(test)

    def test_train_test_split_validation(self):
        with pytest.raises(ValueError):
            train_test_split(10, test_fraction=0.0)

    def test_stratified_split_preserves_proportions(self, rng):
        labels = np.repeat([0, 1, 2], [60, 30, 10])
        train, test = stratified_split(labels, test_fraction=0.2, rng=rng)
        test_labels = labels[test]
        assert (test_labels == 0).sum() == 12
        assert (test_labels == 1).sum() == 6
        assert (test_labels == 2).sum() == 2

    def test_stratified_split_small_class_gets_test_sample(self, rng):
        labels = np.array([0] * 50 + [1, 1])
        _, test = stratified_split(labels, test_fraction=0.1, rng=rng)
        assert (labels[test] == 1).sum() >= 1


class TestPadding:
    def test_pad_sequences_shapes_and_mask(self, rng):
        sequences = [rng.normal(size=(3, 2)), rng.normal(size=(5, 2))]
        padded, mask = pad_sequences(sequences)
        assert padded.shape == (2, 5, 2)
        assert mask.tolist() == [[1, 1, 1, 0, 0], [1, 1, 1, 1, 1]]
        assert np.allclose(padded[0, 3:], 0.0)

    def test_pad_sequences_truncates_to_max_length(self, rng):
        padded, mask = pad_sequences([rng.normal(size=(8, 2))], max_length=4)
        assert padded.shape == (1, 4, 2)
        assert mask.sum() == 4

    def test_pad_empty_batch_raises(self):
        with pytest.raises(ValueError):
            pad_sequences([])

    def test_collate_multiview(self, rng):
        samples = [
            ((rng.normal(size=(3, 2)), rng.normal(size=(6, 1))), 0),
            ((rng.normal(size=(5, 2)), rng.normal(size=(2, 1))), 1),
        ]
        views, labels = collate_multiview(samples)
        assert len(views) == 2
        assert views[0][0].shape == (2, 5, 2)
        assert views[1][0].shape == (2, 6, 1)
        assert labels.tolist() == [0, 1]


class TestDataLoader:
    def test_covers_all_samples(self, rng):
        ds = ArrayDataset(rng.normal(size=(25, 3)), np.arange(25))
        loader = DataLoader(ds, batch_size=4, shuffle=True, rng=rng)
        seen = []
        for x, y in loader:
            seen.extend(y.tolist())
        assert sorted(seen) == list(range(25))
        assert len(loader) == 7

    def test_drop_last(self, rng):
        ds = ArrayDataset(rng.normal(size=(25, 3)), np.arange(25))
        loader = DataLoader(ds, batch_size=4, drop_last=True, rng=rng)
        assert len(loader) == 6
        batches = list(loader)
        assert all(len(y) == 4 for _, y in batches)

    def test_no_shuffle_is_ordered(self, rng):
        ds = ArrayDataset(rng.normal(size=(10, 2)), np.arange(10))
        loader = DataLoader(ds, batch_size=3, shuffle=False)
        first_x, first_y = next(iter(loader))
        assert first_y.tolist() == [0, 1, 2]

    def test_multiview_batches(self, rng):
        views = [[rng.normal(size=(i + 2, 3)) for i in range(6)]]
        ds = MultiViewSequenceDataset(views, np.arange(6))
        loader = DataLoader(ds, batch_size=4, shuffle=False)
        (view_batch,), labels = next(iter(loader))
        padded, mask = view_batch
        assert padded.shape[0] == 4
        assert mask.shape == padded.shape[:2]

    def test_invalid_batch_size(self, rng):
        ds = ArrayDataset(rng.normal(size=(4, 2)), np.arange(4))
        with pytest.raises(ValueError):
            DataLoader(ds, batch_size=0)

    @pytest.mark.parametrize("one_hot", [False, True], ids=["1d", "2d"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_array_batches_equal_per_item_stacking(self, rng, one_hot, dtype):
        """Gathered ArrayDataset batches equal stacking item by item:
        same dtypes, same values, contiguous, remainder batch included."""
        labels = rng.integers(0, 3, size=11).astype(np.int32)
        if one_hot:
            labels = np.eye(3, dtype=dtype)[labels]
        ds = ArrayDataset(rng.normal(size=(11, 2, 3)).astype(dtype), labels)
        order = np.random.default_rng(5).permutation(11)
        loader = DataLoader(ds, batch_size=4, shuffle=True,
                            rng=np.random.default_rng(5))
        batches = list(loader)
        assert [len(y) for _, y in batches] == [4, 4, 3]
        for start, (x, y) in zip(range(0, 11, 4), batches):
            items = [ds[int(i)] for i in order[start:start + 4]]
            expected_x = np.stack([item[0] for item in items])
            expected_y = np.asarray([item[1] for item in items])
            for produced, expected in ((x, expected_x), (y, expected_y)):
                assert produced.dtype == expected.dtype
                assert produced.flags.c_contiguous
                np.testing.assert_array_equal(produced, expected)


class TestMetrics:
    def test_accuracy(self):
        assert accuracy([1, 0, 1], [1, 1, 1]) == pytest.approx(2 / 3)

    def test_accuracy_empty_raises(self):
        with pytest.raises(ValueError):
            accuracy([], [])

    def test_confusion_matrix(self):
        cm = confusion_matrix([0, 0, 1, 2], [0, 1, 1, 2])
        assert cm[0, 0] == 1 and cm[0, 1] == 1 and cm[1, 1] == 1 and cm[2, 2] == 1
        assert cm.sum() == 4

    def test_precision_recall_f1_perfect(self):
        p, r, f, s = precision_recall_f1([0, 1, 2], [0, 1, 2])
        assert np.allclose(p, 1.0) and np.allclose(r, 1.0) and np.allclose(f, 1.0)
        assert s.tolist() == [1, 1, 1]

    def test_f1_handles_absent_class(self):
        # Class 2 never appears in truth or prediction.
        value = f1_score([0, 1], [0, 1], average="macro", num_classes=3)
        assert value == pytest.approx(1.0)

    def test_f1_binary(self):
        value = f1_score([0, 1, 1, 0], [0, 1, 0, 0], average="binary")
        assert value == pytest.approx(2 / 3)

    def test_f1_weighted_vs_macro_imbalanced(self):
        truth = [0] * 9 + [1]
        pred = [0] * 10
        macro = f1_score(truth, pred, average="macro")
        weighted = f1_score(truth, pred, average="weighted")
        assert weighted > macro

    def test_f1_micro_equals_accuracy(self, rng):
        truth = rng.integers(0, 3, size=50)
        pred = rng.integers(0, 3, size=50)
        assert f1_score(truth, pred, average="micro") == pytest.approx(
            accuracy(truth, pred))

    def test_invalid_average(self):
        with pytest.raises(ValueError):
            f1_score([0], [0], average="bogus")

    def test_classification_report_renders(self):
        report = classification_report([0, 1, 1], [0, 1, 0])
        assert "precision" in report and "accuracy" in report


class TestScalers:
    def test_standard_scaler(self, rng):
        x = rng.normal(loc=5.0, scale=3.0, size=(100, 4))
        scaler = StandardScaler()
        out = scaler.fit_transform(x)
        assert np.allclose(out.mean(axis=0), 0.0, atol=1e-12)
        assert np.allclose(out.std(axis=0), 1.0, atol=1e-12)
        assert np.allclose(scaler.inverse_transform(out), x)

    def test_standard_scaler_constant_feature(self):
        x = np.ones((10, 2))
        out = StandardScaler().fit_transform(x)
        assert np.isfinite(out).all()

    def test_scaler_requires_fit(self, rng):
        with pytest.raises(RuntimeError):
            StandardScaler().transform(rng.normal(size=(3, 2)))

    def test_minmax_scaler(self, rng):
        x = rng.normal(size=(50, 3))
        out = MinMaxScaler().fit_transform(x)
        assert out.min() == pytest.approx(0.0)
        assert out.max() == pytest.approx(1.0)

    def test_sequence_scaler_pools_over_steps(self, rng):
        sequences = [rng.normal(loc=10.0, size=(5, 2)),
                     rng.normal(loc=10.0, size=(9, 2))]
        scaled = SequenceScaler().fit_transform(sequences)
        pooled = np.concatenate(scaled)
        assert abs(pooled.mean()) < 1e-9
        assert scaled[0].shape == (5, 2)
