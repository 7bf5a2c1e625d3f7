"""Tests of the synthetic dataset families and loaders."""

import numpy as np
import pytest

from repro.data import (
    DataLoader,
    Dataset,
    FAMILY_SPECS,
    make_dataset,
    render_sample,
)
from repro.data.prototypes import FAMILIES, class_names, prototype


class TestPrototypes:
    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_ten_classes_each(self, family):
        protos, names = FAMILIES[family]
        assert len(protos) == 10
        assert len(names) == 10
        assert len(set(names)) == 10

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_every_prototype_renders_ink(self, family):
        rng = np.random.default_rng(0)
        for label in range(10):
            img = render_sample(family, label, rng)
            assert img.sum() > 2.0, f"{family}/{label} rendered nearly blank"

    def test_prototypes_are_distinct(self):
        # Clean renders of different classes must differ substantially.
        from repro.data.glyphs import rasterize

        for family in FAMILIES:
            clean = [rasterize(prototype(family, k), size=28) for k in
                     range(10)]
            for i in range(10):
                for j in range(i + 1, 10):
                    diff = np.abs(clean[i] - clean[j]).mean()
                    assert diff > 0.01, f"{family}: classes {i},{j} too similar"

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            prototype("klingon", 0)
        with pytest.raises(KeyError):
            class_names("klingon")


class TestMakeDataset:
    def test_shapes_and_ranges(self):
        train, test = make_dataset("digits", n_train=40, n_test=20, seed=1)
        assert train.images.shape == (40, 28, 28)
        assert test.images.shape == (20, 28, 28)
        assert train.images.min() >= 0.0
        assert train.images.max() <= 1.0
        assert train.labels.dtype == np.int64

    def test_class_balance(self):
        train, _ = make_dataset("letters", n_train=100, n_test=10, seed=2)
        counts = np.bincount(train.labels, minlength=10)
        assert counts.min() == counts.max() == 10

    def test_determinism(self):
        a_train, a_test = make_dataset("fashion", 20, 10, seed=7)
        b_train, b_test = make_dataset("fashion", 20, 10, seed=7)
        assert np.array_equal(a_train.images, b_train.images)
        assert np.array_equal(a_test.labels, b_test.labels)

    def test_seed_changes_data(self):
        a, _ = make_dataset("digits", 20, 10, seed=1)
        b, _ = make_dataset("digits", 20, 10, seed=2)
        assert not np.array_equal(a.images, b.images)

    def test_train_test_streams_differ(self):
        train, test = make_dataset("digits", 20, 20, seed=3)
        assert not np.array_equal(train.images, test.images)

    def test_families_differ(self):
        a, _ = make_dataset("digits", 10, 10, seed=1)
        b, _ = make_dataset("kuzushiji", 10, 10, seed=1)
        assert not np.array_equal(a.images, b.images)

    def test_custom_image_size(self):
        train, _ = make_dataset("digits", 10, 10, seed=1, image_size=20)
        assert train.image_size == 20

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            make_dataset("digits", 0, 10)

    def test_unknown_family_rejected(self):
        with pytest.raises(KeyError):
            make_dataset("klingon", 10, 10)

    def test_within_class_variability(self):
        # Augmentation must make same-class samples differ.
        train, _ = make_dataset("digits", 100, 10, seed=4)
        zeros = train.images[train.labels == 0]
        assert len(zeros) >= 2
        assert np.abs(zeros[0] - zeros[1]).mean() > 0.005

    def test_dataset_subset(self):
        train, _ = make_dataset("digits", 30, 10, seed=5)
        sub = train.subset(np.arange(5))
        assert len(sub) == 5
        assert sub.family == "digits"

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            Dataset(np.zeros((3, 4, 4)), np.zeros(2, dtype=int), "digits")

    def test_family_specs_cover_families(self):
        assert set(FAMILY_SPECS) == set(FAMILIES)


class TestDataLoader:
    def make(self, n=25):
        train, _ = make_dataset("digits", n, 10, seed=6)
        return train

    def test_batch_shapes(self):
        loader = DataLoader(self.make(25), batch_size=10, shuffle=False)
        batches = list(loader)
        assert [len(b[0]) for b in batches] == [10, 10, 5]
        assert batches[0][0].shape == (10, 28, 28)

    def test_len(self):
        data = self.make(25)
        assert len(DataLoader(data, batch_size=10)) == 3
        assert len(DataLoader(data, batch_size=10, drop_last=True)) == 2

    def test_drop_last(self):
        loader = DataLoader(self.make(25), batch_size=10, drop_last=True)
        assert [len(b[0]) for b in loader] == [10, 10]

    def test_covers_all_samples(self):
        data = self.make(25)
        loader = DataLoader(data, batch_size=7, shuffle=True, seed=3)
        labels = np.concatenate([b[1] for b in loader])
        assert sorted(labels.tolist()) == sorted(data.labels.tolist())

    def test_shuffle_changes_order_between_epochs(self):
        loader = DataLoader(self.make(25), batch_size=25, shuffle=True, seed=1)
        first = next(iter(loader))[1].copy()
        second = next(iter(loader))[1].copy()
        assert not np.array_equal(first, second)

    def test_no_shuffle_preserves_order(self):
        data = self.make(25)
        loader = DataLoader(data, batch_size=25, shuffle=False)
        labels = next(iter(loader))[1]
        assert np.array_equal(labels, data.labels)

    def test_invalid_batch_size(self):
        with pytest.raises(ValueError):
            DataLoader(self.make(10), batch_size=0)

    def test_oversized_batch_with_drop_last_rejected(self):
        with pytest.raises(ValueError):
            DataLoader(self.make(10), batch_size=100, drop_last=True)
