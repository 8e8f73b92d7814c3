"""Real-CIFAR-10 binary loader, tested against same-format fixtures."""

import numpy as np
import pytest

from repro.data.cifar10 import (
    CIFAR10_LABELS,
    TEST_FILE,
    TRAIN_FILES,
    load_cifar10,
    read_cifar10_batch,
)


def write_batch(path, n, rng, label_offset=0):
    """Write n records in the official binary layout."""
    records = np.empty((n, 3073), dtype=np.uint8)
    records[:, 0] = (np.arange(n) + label_offset) % 10
    records[:, 1:] = rng.integers(0, 256, size=(n, 3072), dtype=np.uint8)
    records.tofile(str(path))
    return records


@pytest.fixture
def cifar_dir(tmp_path, rng):
    for i, fname in enumerate(TRAIN_FILES):
        write_batch(tmp_path / fname, 20, rng, label_offset=i)
    write_batch(tmp_path / TEST_FILE, 10, rng)
    return tmp_path


class TestReadBatch:
    def test_shapes_and_labels(self, tmp_path, rng):
        recs = write_batch(tmp_path / "b.bin", 8, rng)
        x, y = read_cifar10_batch(tmp_path / "b.bin")
        assert x.shape == (8, 3, 32, 32)
        np.testing.assert_array_equal(y, recs[:, 0])

    def test_pixel_layout(self, tmp_path, rng):
        recs = write_batch(tmp_path / "b.bin", 2, rng)
        x, _ = read_cifar10_batch(tmp_path / "b.bin")
        # red plane of image 0 = bytes 1..1024 row-major
        np.testing.assert_array_equal(
            x[0, 0], recs[0, 1 : 1 + 1024].reshape(32, 32).astype(np.float64)
        )

    def test_truncated_file_rejected(self, tmp_path):
        (tmp_path / "bad.bin").write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError):
            read_cifar10_batch(tmp_path / "bad.bin")

    def test_bad_labels_rejected(self, tmp_path):
        rec = np.zeros(3073, dtype=np.uint8)
        rec[0] = 77
        rec.tofile(str(tmp_path / "bad.bin"))
        with pytest.raises(ValueError):
            read_cifar10_batch(tmp_path / "bad.bin")


class TestLoadCifar10:
    def test_loads_all_batches(self, cifar_dir):
        ds = load_cifar10(cifar_dir)
        assert ds.n_train == 100
        assert ds.n_val == 10
        assert ds.input_shape == (3, 32, 32)
        assert ds.num_classes == 10

    def test_standardised(self, cifar_dir):
        ds = load_cifar10(cifar_dir)
        # float32 images: exact up to float32 rounding of each pixel.
        assert ds.x_train.dtype == np.float32
        np.testing.assert_allclose(ds.x_train.mean(axis=(0, 2, 3), dtype=np.float64), 0.0, atol=1e-6)
        np.testing.assert_allclose(ds.x_train.std(axis=(0, 2, 3), dtype=np.float64), 1.0, atol=1e-6)

    def test_val_from_train_fallback(self, cifar_dir):
        (cifar_dir / TEST_FILE).unlink()
        ds = load_cifar10(cifar_dir, val_from_test=False)
        assert ds.n_train + ds.n_val == 100

    def test_limit(self, cifar_dir):
        ds = load_cifar10(cifar_dir, limit=30)
        assert ds.n_train == 30

    def test_missing_dir_clear_error(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_cifar10(tmp_path)

    def test_sharding_works(self, cifar_dir):
        """The real dataset drops into the existing pipeline."""
        ds = load_cifar10(cifar_dir)
        shard = ds.shard(4, 0)
        assert shard.n_train == 25

    def test_label_names(self):
        assert len(CIFAR10_LABELS) == 10
        assert CIFAR10_LABELS[0] == "airplane"
