import struct
import warnings

import numpy as np
import pytest

from hetfed import data
from hetfed.errors import ConfigError, IngestError


def write_idx_pair(tmp_path, images, labels):
    """Author a tiny IDX fixture: images (n, rows, cols) uint8, labels (n,)."""
    images = np.asarray(images, dtype=np.uint8)
    labels = np.asarray(labels, dtype=np.uint8)
    n, rows, cols = images.shape
    img_path = tmp_path / "images.idx"
    lbl_path = tmp_path / "labels.idx"
    img_path.write_bytes(struct.pack(">IIII", 0x803, n, rows, cols) + images.tobytes())
    lbl_path.write_bytes(struct.pack(">II", 0x801, n) + labels.tobytes())
    return str(img_path), str(lbl_path)


class TestBlobs:
    def test_construction_counts(self):
        ds = data.gen_blobs(2, 3, 5, 0.1, seed=0)
        assert ds.size == 10
        assert np.array_equal(ds.labels, [0] * 5 + [1] * 5)

    def test_deterministic(self):
        a = data.gen_blobs(3, 2, 10, 0.5, seed=42)
        b = data.gen_blobs(3, 2, 10, 0.5, seed=42)
        assert a.features.tobytes() == b.features.tobytes()

    def test_zero_spread_collapses_to_centroids(self):
        ds = data.gen_blobs(3, 2, 4, 0.0, seed=1)
        centroids = np.stack([ds.features[ds.labels == c][0] for c in range(3)])
        for c in range(3):
            assert np.all(ds.features[ds.labels == c] == centroids[c])
        # 1-nearest-centroid is perfect
        dists = ((ds.features[:, None, :] - centroids[None]) ** 2).sum(-1)
        assert np.array_equal(dists.argmin(1), ds.labels)

    def test_bad_sizes(self):
        with pytest.raises(ConfigError):
            data.gen_blobs(1, 2, 5, 0.1, seed=0)
        with pytest.raises(ConfigError):
            data.gen_blobs(2, 2, 0, 0.1, seed=0)


class TestIdx:
    def test_four_image_fixture(self, tmp_path):
        images = np.arange(4 * 2 * 2, dtype=np.uint8).reshape(4, 2, 2)
        img, lbl = write_idx_pair(tmp_path, images, [0, 1, 2, 1])
        ds = data.load_idx(img, lbl, class_count=3)
        assert ds.size == 4
        assert ds.class_count == 3
        # Row 1's pixels over 255, less each pixel's mean over the four images.
        assert np.allclose(ds.features[1], (np.array([4, 5, 6, 7]) - np.array([6, 7, 8, 9])) / 255.0)
        assert np.allclose(ds.features.mean(axis=0), 0.0)
        assert np.array_equal(ds.labels, [0, 1, 2, 1])

    def test_bad_magic(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((1, 2, 2), np.uint8), [0])
        bad = tmp_path / "bad.idx"
        bad.write_bytes(struct.pack(">IIII", 0xDEAD, 1, 2, 2) + bytes(4))
        with pytest.raises(IngestError, match="magic"):
            data.load_idx(str(bad), lbl, class_count=1)

    def test_truncated_payload(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 1])
        short = tmp_path / "short.idx"
        short.write_bytes(struct.pack(">IIII", 0x803, 2, 2, 2) + bytes(5))
        with pytest.raises(IngestError, match="byte"):
            data.load_idx(str(short), lbl, class_count=2)

    def test_label_out_of_range(self, tmp_path):
        img, lbl = write_idx_pair(tmp_path, np.zeros((2, 2, 2), np.uint8), [0, 5])
        with pytest.raises(IngestError, match="label 5"):
            data.load_idx(img, lbl, class_count=3)


class TestCsv:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "toy.csv"
        path.write_text("label,f0,f1\n0,0.0,2.0\n1,1.0,4.0\n1,2.0,6.0\n")
        ds = data.load_csv(str(path), 2)
        assert ds.size == 3
        assert np.allclose(ds.features[:, 0], [-0.5, 0.0, 0.5])
        assert np.allclose(ds.features[:, 1], [-0.5, 0.0, 0.5])

    def test_empty_body(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("label,f0\n")
        with pytest.raises(IngestError, match="no data rows"):
            data.load_csv(str(path), 2)

    def test_label_equal_to_class_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("label,f0\n0,1.0\n2,2.0\n")
        with pytest.raises(IngestError, match="line 3"):
            data.load_csv(str(path), 2)

    @pytest.mark.parametrize("field", ["nan", "inf", "-inf", " NaN"])
    def test_non_finite_field_names_path_and_line(self, tmp_path, field):
        path = tmp_path / "nonfinite.csv"
        path.write_text(f"label,f0,f1\n0,0.0,2.0\n1,1.0,{field}\n1,2.0,6.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before any scaling runs
            with pytest.raises(IngestError) as caught:
                data.load_csv(str(path), 2)
        assert str(caught.value) == f"{path}: line 3: feature {field!r} is not finite"

    def test_column_range_that_overflows_names_path_and_column(self, tmp_path):
        path = tmp_path / "wide.csv"
        path.write_text("label,f0,f1\n0,0.0,1e308\n1,1.0,-1e308\n1,2.0,0.0\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # rejected before the scaling overflows
            with pytest.raises(IngestError) as caught:
                data.load_csv(str(path), 2)
        assert str(caught.value) == f"{path}: column f1 spans -1e+308 to 1e+308, too wide to scale"

    def test_header_checked(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("cls,f0\n0,1.0\n")
        with pytest.raises(IngestError, match="header"):
            data.load_csv(str(path), 2)


def shards_of(ds, *plan, **options):
    """The partition's shards of ds, one dataset per row of partition indices."""
    return [ds.subset(rows) for rows in data.partition(ds, *plan, **options)]


class TestPartition:
    def test_single_client_gets_everything(self):
        ds = data.gen_blobs(2, 2, 10, 0.3, seed=0)
        plan = ("iid-equal", 1, ds.size, 0)
        assert data.partition(ds, *plan).shape == (1, ds.size)
        shards = shards_of(ds, *plan)
        assert len(shards) == 1
        assert shards[0].size == ds.size
        assert np.allclose(np.sort(shards[0].features, axis=0), np.sort(ds.features, axis=0))

    def test_even_split_disjoint(self):
        ds = data.gen_blobs(4, 2, 100, 0.3, seed=0)
        plan = ("iid-equal", 4, ds.size // 4, 1)
        idx_sets = [set(map(tuple, s.features)) for s in shards_of(ds, *plan)]
        sizes = [len(s) for s in idx_sets]
        assert all(s.size == 100 for s in shards_of(ds, *plan))
        for i in range(4):
            for j in range(i + 1, 4):
                assert not idx_sets[i] & idx_sets[j]
        assert sizes == [100] * 4

    def test_oversized_request_rejected(self):
        ds = data.gen_blobs(2, 2, 10, 0.3, seed=0)
        with pytest.raises(ConfigError):
            data.partition(ds, "iid-equal", 2, 15, 0)

    @pytest.mark.parametrize("plan, options, message", [
        (("label_skew", 2, 5, 0), {"concentration": 0.5}, "unknown partition scheme 'label_skew'"),
        (("iid-equal", 0, 5, 0), {}, "client_count must be at least 1"),
        (("iid-equal", 2, 0, 0), {}, "shard_size must be at least 1"),
        (("label-skew", 2, 5, 0), {}, "label-skew requires a positive concentration"),
        (("label-skew", 2, 5, 0), {"concentration": 0.0}, "label-skew requires a positive"),
    ])
    def test_bad_plan_rejected(self, plan, options, message):
        ds = data.gen_blobs(2, 2, 10, 0.3, seed=0)
        with pytest.raises(ConfigError, match=message):
            data.partition(ds, *plan, **options)

    def test_reproducible_from_plan(self):
        ds = data.gen_blobs(3, 2, 30, 0.3, seed=0)
        plan = ("label-skew", 3, 20, 7, 0.5)
        a = shards_of(ds, *plan)
        b = shards_of(ds, *plan)
        for sa, sb in zip(a, b):
            assert sa.features.tobytes() == sb.features.tobytes()

    def test_high_concentration_approaches_iid_mix(self):
        # chi^2 distance of shard class proportions to global, averaged over
        # 50 seeds: a huge concentration should be in the same regime as an
        # iid size-matched split.
        ds = data.gen_blobs(3, 2, 120, 0.3, seed=0)

        def mean_chi2(scheme, concentration):
            vals = []
            for seed in range(50):
                for shard in shards_of(ds, scheme, 3, 100, seed, concentration=concentration):
                    props = np.bincount(shard.labels, minlength=3) / shard.size
                    vals.append((((props - 1 / 3) ** 2) / (1 / 3)).sum())
            return float(np.mean(vals))

        skew = mean_chi2("label-skew", 1e6)
        iid = mean_chi2("iid-equal", None)
        assert skew <= iid * 1.5 + 0.01

    def test_low_concentration_is_skewed(self):
        ds = data.gen_blobs(3, 2, 120, 0.3, seed=0)
        shards = shards_of(ds, "label-skew", 3, 80, 3, concentration=0.05)
        maxprops = [np.bincount(s.labels, minlength=3).max() / s.size for s in shards]
        assert max(maxprops) > 0.7


def symmetric_reference(labels, classes, mu, seed):
    """Symmetric noise, drawn as written: one uniform per label, then one
    offset in [1, classes) per label; flipped labels move by the offset."""
    rng = np.random.default_rng(seed)
    flip = rng.random(labels.size) < mu
    offsets = rng.integers(1, classes, size=labels.size)
    return np.where(flip, (labels + offsets) % classes, labels), flip


def pairflip_reference(labels, classes, mu, seed):
    """Pair-flip noise, drawn as written: one uniform per label; flipped
    labels move to the next class."""
    rng = np.random.default_rng(seed)
    flip = rng.random(labels.size) < mu
    return np.where(flip, (labels + 1) % classes, labels), flip


class TestNoise:
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_draws_match_the_written_out_formulas(self, classes):
        ds = data.gen_blobs(classes, 2, 37, 0.3, seed=classes)
        references = {"symmetric": symmetric_reference, "pairflip": pairflip_reference}
        for seed in range(10):
            for rate in (0.0, 0.2, 1.0):
                for kind, reference in references.items():
                    noisy, flipped = data.apply_noise(ds.labels, classes, kind, rate, seed)
                    labels, flip = reference(ds.labels, classes, rate, seed)
                    assert noisy.dtype == labels.dtype == np.int64
                    assert noisy.tobytes() == labels.tobytes()
                    assert flipped.tobytes() == flip.tobytes()
                    assert flipped.mean() == float(flip.mean())
                clean, flipped = data.apply_noise(ds.labels, classes, "none", rate, seed)
                assert clean.tobytes() == ds.labels.tobytes()
                assert not flipped.any() and flipped.mean() == 0.0

    def test_symmetric_zero_rate(self):
        ds = data.gen_blobs(3, 2, 20, 0.3, seed=0)
        noisy, flipped = data.apply_noise(ds.labels, 3, "symmetric", 0.0, seed=1)
        assert np.array_equal(noisy, ds.labels)
        assert flipped.mean() == 0.0

    def test_symmetric_full_rate_binary(self):
        ds = data.gen_blobs(2, 2, 50, 0.3, seed=0)
        noisy, _ = data.apply_noise(ds.labels, 2, "symmetric", 1.0, seed=1)
        assert np.all(noisy != ds.labels)

    def test_symmetric_statistics(self):
        ds = data.gen_blobs(10, 2, 10_000, 0.3, seed=0)
        noisy, flipped = data.apply_noise(ds.labels, 10, "symmetric", 0.2, seed=2)
        assert 0.185 <= flipped.mean() <= 0.215
        dest = noisy[flipped]
        src = ds.labels[flipped]
        offsets = (dest - src) % 10
        counts = np.bincount(offsets, minlength=10)[1:]
        assert counts.min() > 0
        assert np.all(np.abs(counts / counts.sum() - 1 / 9) < 0.15 / 9 + 0.01)

    def test_pairflip_forced(self):
        ds = data.gen_blobs(10, 2, 10, 0.3, seed=0)
        noisy, _ = data.apply_noise(ds.labels, 10, "pairflip", 1.0, seed=1)
        assert np.array_equal(noisy, (ds.labels + 1) % 10)

    def test_pairflip_statistics_and_destination(self):
        ds = data.gen_blobs(10, 2, 10_000, 0.3, seed=0)
        noisy, flipped = data.apply_noise(ds.labels, 10, "pairflip", 0.2, seed=3)
        assert 0.185 <= flipped.mean() <= 0.215
        assert np.array_equal(
            noisy[flipped], (ds.labels[flipped] + 1) % 10
        )

    def test_clean_labels_untouched(self):
        ds = data.gen_blobs(4, 2, 100, 0.3, seed=0)
        before = ds.labels.copy()
        data.apply_noise(ds.labels, 4, "symmetric", 0.5, seed=9)
        data.apply_noise(ds.labels, 4, "pairflip", 0.5, seed=9)
        assert np.array_equal(ds.labels, before)

    def test_flip_probability_calibrated(self):
        # mean sample flip fraction over 10 seeds stays within 0.002 of mu
        ds = data.gen_blobs(5, 2, 20_000, 0.3, seed=0)
        for kind in ("symmetric", "pairflip"):
            for mu in (0.1, 0.3):
                fracs = [
                    data.apply_noise(ds.labels, 5, kind, mu, seed=s)[1].mean() for s in range(10)
                ]
                assert abs(np.mean(fracs) - mu) < 0.002

    def test_rate_bounds(self):
        ds = data.gen_blobs(2, 2, 5, 0.3, seed=0)
        with pytest.raises(ConfigError):
            data.apply_noise(ds.labels, 2, "symmetric", 1.2, seed=0)
        with pytest.raises(ConfigError):
            data.apply_noise(ds.labels, 2, "pairflip", -0.1, seed=0)

    def test_none_spec(self):
        ds = data.gen_blobs(2, 2, 5, 0.3, seed=0)
        noisy, _ = data.apply_noise(ds.labels, 2, "none", 0.0, seed=None)
        assert np.array_equal(noisy, ds.labels)


class TestPublicSplit:
    def test_full_sample_is_permutation(self):
        ds = data.gen_blobs(2, 2, 10, 0.3, seed=0)
        pub = data.random_split(ds, ds.size, seed=5)[0]
        assert sorted(map(tuple, pub.features)) == sorted(map(tuple, ds.features))

    def test_zero_sample_rejected(self):
        ds = data.gen_blobs(2, 2, 10, 0.3, seed=0)
        with pytest.raises(ConfigError):
            data.random_split(ds, 0, seed=0)
        with pytest.raises(ConfigError):
            data.random_split(ds, ds.size + 1, seed=0)

    def test_deterministic(self):
        ds = data.gen_blobs(2, 2, 50, 0.3, seed=0)
        a = data.random_split(ds, 20, seed=11)[0]
        b = data.random_split(ds, 20, seed=11)[0]
        assert a.features.tobytes() == b.features.tobytes()

    def test_split_pools_disjoint(self):
        ds = data.gen_blobs(3, 4, 60, 0.3, seed=0)
        public, rest = data.random_split(ds, 40, seed=4)
        pub_rows = set(map(tuple, public.features))
        rest_rows = set(map(tuple, rest.features))
        assert not pub_rows & rest_rows
        assert len(pub_rows) + len(rest_rows) == ds.size
