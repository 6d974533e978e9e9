
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boweltrack import (
    FormatError,
    InvariantError,
    Polyline,
    Volume,
    load_polyline,
    load_volume,
    save_polyline,
    save_volume,
    volume_io,
)
from boweltrack.rag import load_rag
from boweltrack.sampling import load_must_pass
from boweltrack.volume_io import DTYPE_TAGS, _atomic_write_chunks, format_lines, read_records
from memory import traced_peak
from oracles import save_volume_one_blob


def write_volume_file(path, dims, spacing, origin, tag, payload: bytes):
    header = (
        "dims: {} {} {}\n".format(*dims)
        + "spacing: {} {} {}\n".format(*spacing)
        + "origin: {} {} {}\n".format(*origin)
        + f"dtype: {tag}\n\n"
    )
    path.write_bytes(header.encode() + payload)


def test_load_hand_written_2x2x2(tmp_path):
    p = tmp_path / "v.vol"
    payload = np.arange(8, dtype="<f4").tobytes()
    write_volume_file(p, (2, 2, 2), (1, 1, 1), (0, 0, 0), "f32", payload)
    vol = load_volume(p)
    assert vol.dims == (2, 2, 2)
    assert vol.data[1, 1, 1] == 7.0
    assert vol.data[1, 0, 0] == 1.0  # x varies fastest
    assert np.all(vol.spacing == 1.0)


def test_truncated_payload_is_length_mismatch(tmp_path):
    p = tmp_path / "v.vol"
    payload = np.arange(7, dtype="<f4").tobytes()
    write_volume_file(p, (2, 2, 2), (1, 1, 1), (0, 0, 0), "f32", payload)
    with pytest.raises(FormatError, match="length mismatch"):
        load_volume(p)


def test_trailing_bytes_are_length_mismatch(tmp_path):
    p = tmp_path / "v.vol"
    payload = np.arange(9, dtype="<f4").tobytes()
    write_volume_file(p, (2, 2, 2), (1, 1, 1), (0, 0, 0), "f32", payload)
    with pytest.raises(FormatError, match="expected 32 bytes .* file holds 36"):
        load_volume(p)


@pytest.mark.parametrize("order", ["native", "swapped"])
def test_load_holds_one_payload(tmp_path, monkeypatch, order):
    # The payload is read straight into the array and, in a byte order
    # other than the machine's, swapped in place: the bytes read and
    # their converted copy held 2.25 payloads together.
    data = np.random.default_rng(0).random((128, 96, 40), dtype=np.float32)
    file_dtype = np.dtype("<f4" if order == "native" else ">f4")
    monkeypatch.setitem(volume_io.DTYPE_TAGS, "f32", file_dtype)
    p = tmp_path / "v.vol"
    write_volume_file(p, data.shape, (1, 1, 1), (0, 0, 0), "f32",
                      data.astype(file_dtype).tobytes(order="F"))
    assert traced_peak(load_volume, p) <= 1.1 * data.nbytes
    vol = load_volume(p)
    assert vol.data.dtype == np.float32 and vol.data.dtype.isnative
    assert vol.data.tobytes() == data.tobytes()


def test_length_of_huge_dims_is_exact(tmp_path):
    # 3037000500**2 * 2 voxels exceed 2**63; an int64 product wraps around.
    p = tmp_path / "v.vol"
    write_volume_file(p, (3037000500, 3037000500, 2), (1, 1, 1), (0, 0, 0), "u8", b"")
    with pytest.raises(FormatError, match=r"expected 18446744074000500000 bytes"):
        load_volume(p)


@pytest.mark.parametrize("header, payload", [
    (b"dims: 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\n\n", b""),
    (b"dims: 2 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\nx\n", b""),
    (b"dims: 2 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f64\n\n", b""),
    (b"dims: 0 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\n\n", b""),
    (b"dims: 2 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\n\n", bytes(28)),
], ids=["header-line", "no-blank-line", "dtype-tag", "non-positive-dims", "data-length"])
def test_format_errors_name_the_file(tmp_path, header, payload):
    p = tmp_path / "named.vol"
    p.write_bytes(header + payload)
    with pytest.raises(FormatError, match="named.vol"):
        load_volume(p)


def test_missing_file_reported_distinctly(tmp_path):
    with pytest.raises(FileNotFoundError):
        load_volume(tmp_path / "nope.vol")


def test_malformed_header(tmp_path):
    p = tmp_path / "v.vol"
    p.write_bytes(b"dims: 2 2\nspacing: 1 1 1\norigin: 0 0 0\ndtype: f32\n\n")
    with pytest.raises(FormatError, match="malformed header"):
        load_volume(p)
    p.write_bytes(b"spacing: 1 1 1\ndims: 2 2 2\norigin: 0 0 0\ndtype: f32\n\n")
    with pytest.raises(FormatError, match="malformed header"):
        load_volume(p)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_round_trip_random_volumes(tmp_path, seed):
    rng = np.random.default_rng(seed)
    vol = Volume(
        rng.random((10, 10, 10), dtype=np.float32),
        spacing=rng.uniform(0.5, 3.0, 3),
        origin=rng.uniform(-50, 50, 3),
    )
    path = tmp_path / f"v{seed}.vol"
    save_volume(vol, path)
    back = load_volume(path)
    assert back.data.dtype == np.float32
    assert np.array_equal(back.data, vol.data)
    assert np.array_equal(back.spacing, vol.spacing)
    assert np.array_equal(back.origin, vol.origin)


@pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32])
def test_round_trip_integer_dtypes(tmp_path, dtype):
    rng = np.random.default_rng(3)
    data = rng.integers(0, np.iinfo(dtype).max, size=(4, 3, 5)).astype(dtype)
    path = tmp_path / "v.vol"
    save_volume(Volume(data), path)
    back = load_volume(path)
    assert back.data.dtype == dtype
    assert np.array_equal(back.data, data)


# C, F and strided layouts and a byte-swapped copy; blocks of one plane, of
# a few planes (the last one shorter) and one block of every plane.
@pytest.mark.parametrize("layout", ["C", "F", "strided", "swapped"])
@pytest.mark.parametrize("tag", sorted(DTYPE_TAGS))
@pytest.mark.parametrize("block_voxels", [1, 150, 1 << 18])
def test_save_matches_one_blob_writer(tmp_path, monkeypatch, layout, tag, block_voxels):
    monkeypatch.setattr(volume_io, "_SAVE_VOXELS", block_voxels)
    dtype = DTYPE_TAGS[tag]
    rng = np.random.default_rng(len(tag))
    data = (rng.random((9, 8, 14)) * 200).astype(dtype)
    data = {"C": data, "F": np.asfortranarray(data), "strided": data[::2, 1:, ::2],
            "swapped": data.astype(dtype.newbyteorder(">"))}[layout]
    vol = Volume(data, (0.5, 1.25, 3.0), (-7.0, 0.1, 2.5))
    save_volume(vol, tmp_path / "new.vol")
    save_volume_one_blob(vol, tag, tmp_path / "old.vol")
    assert (tmp_path / "new.vol").read_bytes() == (tmp_path / "old.vol").read_bytes()


def test_save_makes_no_whole_volume_copy(tmp_path):
    # A C-ordered volume is transposed on the way out, in 8 blocks of 1 MB.
    # Converting, flattening and joining the whole payload held 2 copies.
    data = np.random.default_rng(0).random((128, 128, 128), dtype=np.float32)
    vol = Volume(data)
    peak = traced_peak(save_volume, vol, tmp_path / "v.vol")
    assert peak <= 0.25 * data.nbytes


def test_failed_write_leaves_no_temp_file(tmp_path):
    """A chunk generator that raises after its first chunk: the error
    passes through, the temporary file is gone and the file already at the
    path keeps its bytes."""
    path = tmp_path / "out.txt"
    path.write_bytes(b"old contents\n")

    def chunks():
        yield b"new "
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        _atomic_write_chunks(path, chunks())
    assert not list(tmp_path.glob("*.tmp*"))
    assert path.read_bytes() == b"old contents\n"


def test_zero_dim_volume_rejected():
    with pytest.raises(InvariantError):
        Volume(np.zeros((0, 2, 2), dtype=np.float32))


def test_unsupported_dtype_rejected(tmp_path):
    vol = Volume(np.zeros((2, 2, 2), dtype=np.float64))
    with pytest.raises(FormatError, match="unsupported"):
        save_volume(vol, tmp_path / "v.vol")


def test_polyline_round_trip(tmp_path):
    line = Polyline(np.array([[0.0, 0.0, 0.0], [1.0, 2.0, 3.0]]))
    path = tmp_path / "line.txt"
    save_polyline(line, path)
    back = load_polyline(path)
    assert np.allclose(back.points, line.points, atol=1e-6)


def test_polyline_single_point_rejected(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("1.0 2.0 3.0\n")
    with pytest.raises(FormatError, match="at least 2"):
        load_polyline(path)


def test_polyline_non_numeric_rejected(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("1.0 2.0 3.0\n4.0 x 6.0\n")
    with pytest.raises(FormatError, match=r"line\.txt:2: bad number in '4\.0 x 6\.0'"):
        load_polyline(path)


def test_polyline_wrong_coordinate_count_rejected(tmp_path):
    path = tmp_path / "line.txt"
    path.write_text("1.0 2.0 3.0\n\n4.0 5.0\n")
    with pytest.raises(FormatError, match=r"line\.txt:3: unrecognized polyline line '4\.0 5\.0'"):
        load_polyline(path)


def test_polyline_must_be_ascii(tmp_path):
    # Non-ASCII whitespace between numbers used to split like a space.
    path = tmp_path / "line.txt"
    path.write_text("1.0\u00a02.0 3.0\n4.0 5.0 6.0\n")
    with pytest.raises(FormatError, match=r"line\.txt: not a text polyline file"):
        load_polyline(path)


def test_polyline_random_round_trip(tmp_path):
    rng = np.random.default_rng(11)
    pts = np.cumsum(rng.uniform(0.1, 2.0, size=(100, 3)), axis=0)
    line = Polyline(pts)
    path = tmp_path / "line.txt"
    save_polyline(line, path)
    back = load_polyline(path)
    assert np.max(np.abs(back.points - line.points)) <= 1e-6


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(2, 30),
    seed=st.integers(0, 2**31 - 1),
)
def test_polyline_round_trip_property(tmp_path_factory, n, seed):
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.uniform(0.05, 3.0, size=(n, 3)), axis=0) + rng.uniform(-100, 100, 3)
    line = Polyline(pts)
    path = tmp_path_factory.mktemp("poly") / "line.txt"
    save_polyline(line, path)
    back = load_polyline(path)
    assert np.max(np.abs(back.points - line.points)) <= 1e-6


def test_polyline_invariants():
    with pytest.raises(InvariantError):
        Polyline(np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]))
    with pytest.raises(InvariantError):
        Polyline(np.array([[0.0, 0.0, 0.0]]))
    line = Polyline(np.array([[0.0, 0.0, 0.0], [3.0, 4.0, 0.0], [3.0, 4.0, 5.0]]))
    assert line.arc_length() == pytest.approx(10.0)
    assert np.allclose(line.cumulative_arc(), [0.0, 5.0, 10.0])


# A valid file of each line-record kind, with the loader that reads it.
RECORD_FILES = {
    "graph": (load_rag, b"node 0 0 0 0 1\nnode 1 1 0 0 1\nedge 0 1 0.5 1\n"),
    "must-pass": (load_must_pass, b"mustpass 1\ncount 1 pruned 0\npeak 0 1 2 3 4\n"),
    "polyline": (load_polyline, b"0 0 0\n1 1 1\n"),
}


@pytest.mark.parametrize("what", RECORD_FILES)
def test_loaders_read_their_valid_file(tmp_path, what):
    load, text = RECORD_FILES[what]
    path = tmp_path / "file.txt"
    path.write_bytes(text)
    load(path)


@pytest.mark.parametrize("what", RECORD_FILES)
@pytest.mark.parametrize("where", ["end", "start"])
def test_undecodable_byte_names_the_file(tmp_path, what, where):
    load, text = RECORD_FILES[what]
    path = tmp_path / "file.txt"
    path.write_bytes(text + b"\xff" if where == "end" else b"\xff" + text)
    with pytest.raises(FormatError, match=rf"file\.txt: not a text {what} file"):
        load(path)


@pytest.mark.parametrize("what,text", [
    ("graph", b"node 0 0 0 0 1\nnode 1 1 0 0 99999999999999999999\nedge 0 1 0.5 1\n"),
    ("graph", b"node 0 0 0 0 1\nnode 1 1 0 0 1\nedge 0 1 0.5 -99999999999999999999\n"),
    ("must-pass", b"mustpass 1\ncount 1 pruned 0\npeak 99999999999999999999 0 0 0 3\n"),
])
def test_integer_beyond_int64_is_format_error(tmp_path, what, text):
    load, _ = RECORD_FILES[what]
    path = tmp_path / "file.txt"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=r"file\.txt: invalid .*too large"):
        load(path)


SCHEMA = {"a": (int, float), "b": (str,)}


def test_records_by_tag_with_line_numbers(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"\n  a 1 2.5  \r\nb x\r\n\t\na  -3\t1e3\n")
    assert read_records(path, "test", SCHEMA) == {
        "a": ([2, 5], [[1, -3], [2.5, 1000.0]]),
        "b": ([3], [["x"]]),
    }
    path.write_bytes(b"b y\n")
    assert read_records(path, "test", SCHEMA)["a"] == ([], [[], []])


@pytest.mark.parametrize("text,match", [
    (b"a 1 2\nc 1\n", r"r\.txt:2: unrecognized test line 'c 1'"),
    (b"a 1 2\n\na 1\n", r"r\.txt:3: unrecognized test line 'a 1'"),
    (b"b x y\n", r"r\.txt:1: unrecognized test line 'b x y'"),
    (b"a 1.0 2\n", r"r\.txt:1: bad number in 'a 1\.0 2': invalid literal for int"),
    (b"a 1 two\n", r"r\.txt:1: bad number in 'a 1 two': could not convert"),
    (b"a 1 2\nb x\na 1 -\na z 2\na 1 +\n", r"r\.txt:3: bad number in 'a 1 -'"),
    (b"a 1 2\na 1 2 \na 1.5 2\n", r"r\.txt:3: bad number in 'a 1\.5 2'"),
    (b"a 1 2\x0ba 1 2\n", r"r\.txt: not a text test file: byte b'\\x0b' at offset 5"),
    (b"a 1 2\x00\n", r"r\.txt: not a text test file"),
    (b"a 1 \xc3\xa9\n", r"r\.txt: not a text test file: byte b'\\xc3' at offset 4"),
])
def test_bad_records_name_file_line_and_cause(tmp_path, text, match):
    path = tmp_path / "r.txt"
    path.write_bytes(text)
    with pytest.raises(FormatError, match=match):
        read_records(path, "test", SCHEMA)


def test_untagged_records(tmp_path):
    path = tmp_path / "r.txt"
    path.write_bytes(b"1 2\n3 4\n")
    assert read_records(path, "pairs", {None: (int, int)}) == {None: ([1, 2], [[1, 3], [2, 4]])}
    path.write_bytes(b"1 2\npair 4\n")
    with pytest.raises(FormatError, match=r"r\.txt:2: bad number in 'pair 4'"):
        read_records(path, "pairs", {None: (int, int)})


def test_format_lines_matches_percent_formatting():
    ids = np.array([0, 2**40 + 3, -7])
    vals = np.array([1 / 3, -0.0, 5e-324])
    got = format_lines("x %d %.17g\n", ids, vals)
    assert got == b"".join(b"x %d %.17g\n" % (int(i), float(v)) for i, v in zip(ids, vals))
    assert format_lines("x %d\n", ids[:0]) == b""
