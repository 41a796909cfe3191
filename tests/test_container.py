import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from calibens.combiners import KINDS, build_metamodel, load_metamodel, save_metamodel
from calibens.data import FeatureDataset, load_dataset, save_dataset
from calibens.errors import FormatError
from calibens.heads import init_head, load_head, save_head
from calibens.numerics import RngStream


def dataset_file(path):
    stream = RngStream(1)
    save_dataset(FeatureDataset(stream.standard_normal((5, 3)), np.arange(5) % 3, 3), path)
    return load_dataset, lambda ds: [ds.features]


def head_file(path):
    save_head(init_head(4, 3, seed=2), path)
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
