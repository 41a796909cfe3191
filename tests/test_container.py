import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibens import cli, container
from calibens.combiners import (
    KINDS,
    META_HEADER,
    META_MAGIC,
    build_metamodel,
    load_metamodel,
    save_metamodel,
)
from calibens.data import (
    FDS_HEADER,
    FDS_MAGIC,
    FeatureDataset,
    _dataset_record_dtype,
    load_dataset,
    save_dataset,
)
from calibens.errors import FormatError
from calibens.heads import load_head, save_head
from calibens.numerics import BLOCK_BYTES, RngStream

from fixtures import linear_head


def dataset_file(path):
    stream = RngStream(1)
    save_dataset(FeatureDataset(stream.standard_normal((5, 3)), np.arange(5) % 3, 3), path)
    return load_dataset, lambda ds: [ds.features]


def head_file(path):
    save_head(linear_head(4, 3, seed=2), path)
    return load_head, lambda head: [head.weights, head.bias]


def metamodel_file(kind):
    def write(path):
        save_metamodel(build_metamodel(kind, 2, 3, seed=3), path)
        return load_metamodel, lambda meta: [a for pair in meta.layers for a in pair]

    return write


FORMATS = {"FDS1": dataset_file, "HDW1": head_file}
FORMATS.update({f"MMD1-{kind}": metamodel_file(kind) for kind in KINDS})

# bytes that turn an f32 into inf or NaN, or a count into a huge one
BYTE = st.one_of(st.sampled_from([0x00, 0x7F, 0x80, 0xFF]), st.integers(0, 255))


def corruption(size):
    return st.one_of(
        st.tuples(st.just("truncate"), st.integers(0, size - 1)),
        st.tuples(st.just("append"), st.binary(min_size=1, max_size=8)),
        st.tuples(st.just("overwrite"), st.integers(0, size - 1), BYTE),
    )


def corrupt(raw, change):
    if change[0] == "truncate":
        return raw[: change[1]]
    if change[0] == "append":
        return raw + change[1]
    _, at, value = change
    return raw[:at] + bytes([value]) + raw[at + 1 :]


@pytest.mark.parametrize("fmt", FORMATS)
@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_file_loads_finite_or_raises_format_error(tmp_path_factory, fmt, data):
    path = tmp_path_factory.getbasetemp() / f"fuzz-{fmt}"
    load, arrays = FORMATS[fmt](path)
    raw = path.read_bytes()
    path.write_bytes(corrupt(raw, data.draw(corruption(len(raw)))))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            loaded = load(path)
        except FormatError:
            return
    assert all(np.isfinite(a).all() for a in arrays(loaded))


# key, N_train, N_val, m, C and the zero pad of a head outputs cache (HOC1)
CACHE_FIELDS = (bytes(range(32)), 3, 2, 2, 4, bytes(12))


@settings(max_examples=100, deadline=None)
@given(data=st.data())
def test_corrupt_cache_is_a_miss_or_two_read_only_blocks(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz-HOC1"
    blocks = [np.full((n, 2, 4), 0.25, dtype=np.float32) for n in (3, 2)]
    container.write(path, cli._CACHE_MAGIC, cli._CACHE_HEADER, CACHE_FIELDS, blocks)
    raw = path.read_bytes()
    damaged = corrupt(raw, data.draw(corruption(len(raw))))
    # a new file, not the old one cut short: a mapping of it may still be alive
    path.unlink()
    path.write_bytes(damaged)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mapped = cli._map_cache(path, CACHE_FIELDS)
    if len(damaged) != len(raw) or damaged[:64] != raw[:64]:
        assert mapped is None
    if mapped is not None:
        assert [block.shape for block in mapped] == [(3, 2, 4), (2, 2, 4)]
        assert not any(block.flags.writeable for block in mapped)


def test_failed_write_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "meta_SL.mmd"
    save_metamodel(build_metamodel("SL", 2, 3, seed=3), path)
    old = path.read_bytes()

    class FailingBlock:
        """A float block that fails to convert, as a write fails on a full disk."""

        dtype = np.dtype(np.float64)

        def __array__(self, *args, **kwargs):
            raise OSError("no space left on device")

    header = (0, 2, 3, 0, 0.0, 3)
    with pytest.raises(OSError, match="no space"):
        container.write(path, META_MAGIC, META_HEADER, header, [np.ones(6), FailingBlock()])
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_failed_block_generator_leaves_the_old_file_and_no_temporary(tmp_path):
    path = tmp_path / "train.fds"
    save_dataset(FeatureDataset(np.ones((4, 3)), np.arange(4) % 2, 2), path)
    old = path.read_bytes()
    records = np.zeros(4, _dataset_record_dtype(3))

    def blocks():
        yield records[:2]
        raise OSError("no space left on device")

    with pytest.raises(OSError, match="no space"):
        container.write(path, FDS_MAGIC, FDS_HEADER, (4, 3, 2), blocks())
    assert path.read_bytes() == old
    assert list(tmp_path.iterdir()) == [path]


def test_failed_move_leaves_the_target_and_no_temporary(tmp_path):
    # a directory where the file goes: the write succeeds, os.replace fails
    path = tmp_path / "meta_SL.mmd"
    path.mkdir()
    with pytest.raises(OSError):
        save_metamodel(build_metamodel("SL", 2, 3, seed=3), path)
    assert path.is_dir() and not list(path.iterdir())
    assert list(tmp_path.iterdir()) == [path]


# f32 in 1 MiB blocks: 262144 values, or 16384 rows of 16; an FDS1 record
# of D=16 takes 68 bytes, so 15420 records
@pytest.mark.parametrize("shape", [(1,), (600_000,), (3, 4), (40_000, 16)])
@pytest.mark.parametrize("where", ["first block", "last block"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_f32_named_at_the_whole_array_offset(tmp_path, shape, where, bad):
    values = np.zeros(shape, container.F32)
    flat = values.reshape(-1)
    at = min(1, flat.size - 1) if where == "first block" else max(0, flat.size - 2)
    flat[at] = bad
    if at < flat.size - 1:
        flat[-1] = np.nan  # a later fault must not be the one named
    expect = 4 + 4 + 4 * at
    path = tmp_path / "block.bin"
    container.write(path, b"TST1", "<I", (flat.size,), [values])
    reader = container.Reader(path, b"TST1", "<I")
    reader.expect_payload(values.nbytes)
    with pytest.raises(FormatError, match=f"non-finite f32 value \\(byte offset {expect}\\)"):
        reader.f32(shape)
    if values.ndim == 2:
        n, dim = shape
        records = np.zeros(n, _dataset_record_dtype(dim))
        records["f"] = values
        path = tmp_path / "records.fds"
        container.write(path, FDS_MAGIC, FDS_HEADER, (n, dim, 1), [records])
        row, col = divmod(at, dim)
        expect = 16 + row * records.itemsize + 4 * col
        with pytest.raises(FormatError, match=f"\\(byte offset {expect}\\)"):
            load_dataset(path)


def test_load_dataset_peak_memory_at_most_the_labels_plus_a_block(tmp_path):
    # the file's bytes are mapped, not read onto the heap, and its features
    # are neither copied nor cast: only the int64 labels and the finite
    # check's one-block mask are allocated
    n, dim = 50_000, 256
    path = tmp_path / "big.fds"
    records = np.zeros(n, _dataset_record_dtype(dim))
    records["f"][:, 0] = 1.5
    records["y"] = np.arange(n) % 10
    container.write(path, FDS_MAGIC, FDS_HEADER, (n, dim, 10), [records])
    del records
    tracemalloc.start()
    try:
        dataset = load_dataset(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert dataset.features.shape == (n, dim)
    assert peak <= dataset.labels.nbytes + BLOCK_BYTES, peak
