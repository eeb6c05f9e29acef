import numpy as np
import pytest

from core.errors import (
    DatasetError,
    LabelFileError,
    MatrixFormatError,
    NonFiniteValueError,
    RaggedRowError,
    ValueParseError,
)
from core.io import (
    Labels,
    load_embeddings,
    load_labels,
    load_manifest,
    save_labels,
    save_matrix,
    validate_dataset,
)


def test_csv_parse_basic(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0,4.0\n5.0,6.0\n")
    m = load_embeddings(p, "csv")
    assert m.dtype == np.float64
    np.testing.assert_array_equal(m, [[1, 2], [3, 4], [5, 6]])


def test_csv_header_flag(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("colA,colB\n1.0,2.0\n")
    np.testing.assert_array_equal(load_embeddings(p, "csv", header=True), [[1.0, 2.0]])


def test_csv_bad_token_names_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("abc,1.0\n")
    with pytest.raises(ValueParseError, match="row 1"):
        load_embeddings(p, "csv")


def test_csv_ragged_row(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,2.0\n3.0\n")
    with pytest.raises(RaggedRowError, match="row 2"):
        load_embeddings(p, "csv")


def test_csv_non_finite(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("1.0,nan\n")
    with pytest.raises(NonFiniteValueError, match="row 1, col 2"):
        load_embeddings(p, "csv")


def test_csv_roundtrip_exact(tmp_path):
    rng = np.random.default_rng(0)
    m = rng.standard_normal((7, 5))
    p = tmp_path / "m.csv"
    save_matrix(m, p, "csv")
    back = load_embeddings(p, "csv")
    assert np.all(back == m)  # repr serialization is 0-ulp round-trippable


def test_binary_layout():
    # 1x1 [[0.5]]: magic + dims + one f32 payload
    import struct

    from core.io import MAGIC

    expected = MAGIC + struct.pack("<II", 1, 1) + struct.pack("<f", 0.5)
    import tempfile, pathlib

    with tempfile.TemporaryDirectory() as d:
        p = pathlib.Path(d) / "m.core"
        save_matrix(np.array([[0.5]]), p)
        assert p.read_bytes() == expected


@pytest.mark.parametrize("shape", [(1, 1), (1, 7), (5, 1), (13, 9), (64, 3)])
def test_binary_roundtrip_bit_exact(tmp_path, shape):
    rng = np.random.default_rng(shape[0] * 100 + shape[1])
    # f32-representable values, as produced by any loader in this package
    m = rng.standard_normal(shape).astype(np.float32).astype(np.float64)
    p = tmp_path / "m.core"
    save_matrix(m, p)
    back = load_embeddings(p)
    assert back.dtype == np.float64
    assert np.all(back == m)


def test_binary_bad_magic(tmp_path):
    p = tmp_path / "m.core"
    p.write_bytes(b"NOPE" + bytes(8))
    with pytest.raises(MatrixFormatError, match="header"):
        load_embeddings(p)


def test_binary_non_finite_payload(tmp_path):
    import struct

    p = tmp_path / "m.core"
    save_matrix(np.ones((2, 2)), p)
    raw = bytearray(p.read_bytes())
    raw[12 + 4 * 2 : 12 + 4 * 3] = struct.pack("<f", float("inf"))  # row 2, col 1
    p.write_bytes(bytes(raw))
    with pytest.raises(NonFiniteValueError, match="row 2, col 1"):
        load_embeddings(p)


def test_binary_truncated_header(tmp_path):
    p = tmp_path / "m.core"
    p.write_bytes(b"CORE" + bytes(4))
    with pytest.raises(MatrixFormatError, match=r"truncated header \(8 bytes, need 12\)"):
        load_embeddings(p)


def test_binary_truncated(tmp_path):
    p = tmp_path / "m.core"
    save_matrix(np.ones((2, 2)), p)
    p.write_bytes(p.read_bytes()[:-1])
    with pytest.raises(MatrixFormatError, match="expected"):
        load_embeddings(p)


def test_save_unwritable_path(tmp_path):
    with pytest.raises(OSError):
        save_matrix(np.ones((1, 1)), tmp_path / "no" / "such" / "dir" / "m.core")


def test_labels_first_appearance(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("a\nb\na\n")
    labels = load_labels(p)
    np.testing.assert_array_equal(labels.ids, [0, 1, 0])
    assert labels.names == ("a", "b")
    assert labels.n_classes == 2


def test_labels_single_class(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("x\n")
    labels = load_labels(p)
    np.testing.assert_array_equal(labels.ids, [0])
    assert labels.n_classes == 1


def test_labels_empty_file(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("")
    with pytest.raises(LabelFileError, match="empty"):
        load_labels(p)


def test_labels_blank_line(tmp_path):
    p = tmp_path / "y.txt"
    p.write_text("a\n\nb\n")
    with pytest.raises(LabelFileError, match="blank line 2"):
        load_labels(p)


def test_labels_ids_have_no_gaps(tmp_path):
    rng = np.random.default_rng(5)
    names = [f"t{i}" for i in rng.integers(0, 9, size=60)]
    p = tmp_path / "y.txt"
    p.write_text("\n".join(names) + "\n")
    labels = load_labels(p)
    assert sorted(set(labels.ids.tolist())) == list(range(labels.n_classes))


def test_labels_roundtrip(tmp_path):
    labels = Labels(ids=np.array([0, 1, 1, 2, 0]), names=("x", "y", "z"))
    p = tmp_path / "y.txt"
    save_labels(labels, p)
    back = load_labels(p)
    np.testing.assert_array_equal(back.ids, labels.ids)
    assert back.names == labels.names


def test_validate_dataset_ok():
    e = np.zeros((6, 4))
    labels = Labels(ids=np.array([0, 0, 0, 1, 1, 1]), names=("a", "b"))
    info = validate_dataset(e, labels, 3)
    assert (info.rows, info.cols, info.n_classes, info.min_class_count) == (6, 4, 2, 3)


def test_validate_dataset_undersized_class_named():
    e = np.zeros((3, 2))
    labels = Labels(ids=np.array([0, 0, 1]), names=("a", "b"))
    with pytest.raises(DatasetError, match="'b' has 1"):
        validate_dataset(e, labels, 3)


def test_validate_dataset_length_mismatch():
    e = np.zeros((5, 2))
    labels = Labels(ids=np.array([0, 1, 0, 1]), names=("a", "b"))
    with pytest.raises(DatasetError, match="5 embedding rows but 4 labels"):
        validate_dataset(e, labels, 2)


def test_manifest_roundtrip(tmp_path):
    (tmp_path / "m.json").write_text(
        '[{"name": "ds1", "embeddings": "e.core", "labels": "y.txt", "representation": "BERT"}]'
    )
    entries = load_manifest(tmp_path / "m.json")
    assert entries[0].name == "ds1"
    assert entries[0].representation == "BERT"
    assert entries[0].embeddings == tmp_path / "e.core"


def test_manifest_duplicate_name(tmp_path):
    (tmp_path / "m.json").write_text(
        '[{"name": "a", "embeddings": "e", "labels": "y"}, {"name": "a", "embeddings": "e", "labels": "y"}]'
    )
    with pytest.raises(DatasetError, match="duplicate"):
        load_manifest(tmp_path / "m.json")


def test_csv_without_data_rows(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("a,b\n\n")
    with pytest.raises(MatrixFormatError) as info:
        load_embeddings(p, "csv", header=True)
    assert str(info.value) == f"{p}: no data rows"
