"""The CSV reader and writers against their oracles in ``oracles.py``: the
same ids and data bits, or the same error, from every file, and the same
bytes from every table."""
import csv
import os
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from transduct import io
from transduct.core import FeatureSet
from transduct.errors import ParseError


def outcome(read, path):
    """What ``read`` makes of ``path``: the ids, shape and data bits, or
    the error's type, message and line."""
    try:
        features = read(path)
    except Exception as exc:  # the readers must fail alike, whatever the error
        return type(exc), str(exc), getattr(exc, "line", None)
    return features.ids, features.data.shape, features.data.tobytes()


def assert_reads_like_oracle(path, block_rows):
    want = outcome(oracles.read_features_csv, path)
    with mock.patch.object(io, "PARSE_BLOCK_ROWS", block_rows):
        assert outcome(io.read_features_csv, path) == want


#: Rows past one block of PARSE_BLOCK_ROWS, and over 8 KiB: the text
#: decoder reads a file in 8 KiB chunks.
FILLER = "".join(f"s{i},{i}.5,-2e-3\n" for i in range(2000))
#: Fewer rows than one block, but over 8 KiB.
WIDE_FILLER = "".join(f"{'w' * 90}{i},1,2\n" for i in range(100))

#: File text (str) or bytes, named by what each case checks.
READER_CASES = {
    "lf": "id,f0,f1\na,1,2\nb,3,4\n",
    "crlf": "id,f0,f1\r\na,1,2\r\nb,3,4\r\n",
    "cr": "id,f0,f1\ra,1,2\rb,3,4\r",
    "mixed-endings": "id,f0,f1\na,1,2\r\nb,3,4\rc,5,6",
    "no-final-newline": "id,f0\na,1",
    "blank-rows": "id,f0,f1\n\na,1,2\n\r\n\nb,3,4\n\n",
    "whitespace-row": "id,f0\na,1\n  \n",
    "whitespace-value": "id,f0,f1\na, 3,4 \nb,\t5,6\n",
    "whitespace-only-value": "id,f0,f1\na, ,4\n",
    "hash-value": "id,f0\na,#1\n",
    "hash-id": "id,f0\n#a,1\n",
    "underscore": "id,f0,f1\na,1_0,2\nb,3,4\n",
    "arabic-digit": "id,f0,f1\na,١,2\nb,3,4\n",
    "fullwidth-digit": "id,f0\na,１\n",
    "nan": "id,f0\na,1\nb,nan\n",
    "inf": "id,f0\na,-inf\nb,1\n",
    "overflow": "id,f0\na,2e308\n",
    "subnormal": "id,f0,f1\na,5e-324,-5e-324\nb,1e-400,-0\n",
    "largest": "id,f0\na,1.7976931348623157e308\nb,-1.7976931348623157e308\n",
    "empty-value": "id,f0,f1\na,,1\n",
    "empty-value-width-1": "id,f0\na,\nb,2\n",
    "empty-values-width-1": "id,f0\na,\nb,\n",
    "quoted-empty-value": 'id,f0\na,""\n',
    "hex": "id,f0\na,0x1\n",
    "separator-control": "id,f0\na,1\x1c\n",
    "nul": "id,f0\na,1\x00\n",
    "quoted-id-with-comma": 'id,f0\n"a,b",1\nc,2\n',
    "quoted-id-with-newline": 'id,f0\n"a\nb",1\nc,x\n',
    "quoted-value-with-comma": 'id,f0\na,"1,2"\n',
    "quoted-header": '"id","f0"\na,1\n',
    "width-1": "id,f0\na,1\nb,2\n",
    "header-id-comma": "id,\na,1\n",
    "header-id-only": "id\na,1\n",
    "header-wrong-name": "ID,f0\na,1\n",
    "header-blank": "\nid,f0\na,1\n",
    "header-only": "id,f0\n",
    "empty-file": "",
    "id-only-row": "id,f0\na\n",
    "bad-float-before-ragged-row": "id,f0,f1\na,x,1\nb,1\n",
    "bad-float-before-duplicate": "id,f0\na,1\nb,y\na,2\n",
    "nan-before-ragged-row": "id,f0,f1\na,nan,1\nb,1\n",
    "ragged-before-bad-float": "id,f0,f1\na,1\nb,x,1\n",
    "duplicate-id": "id,f0\na,1\na,2\n",
    "quote-after-bad-float": 'id,f0\na,x\n"b",1\n',
    "many-rows": "id,f0,f1\n" + FILLER,
    "many-rows-cr": "id,f0,f1\r" + FILLER.replace("\n", "\r"),
    "bad-float-late": "id,f0,f1\n" + FILLER + "z,1,1e\n",
    # past 7 blocks of 256 rows: the reader hands the file to the csv module
    # inside the 8th block, which then holds text and field lists
    "quoted-id-late": "id,f0,f1\n" + FILLER + '"q,r",1,2\nt,3,4\n',
    "bad-float-before-late-quote": "id,f0,f1\n" + FILLER + 'z,1,1e\n"q",1,2\nt,3,4\n',
    "not-utf8": b"id,f0,f1\na,1,2\nb,3,\xff\n",
    "not-utf8-header": b"id,f\xc3\n",
    # the bad float sits in an earlier decoder chunk than the bad byte,
    # within one block of it
    "bad-float-before-late-bad-byte": b"id,f0,f1\na,x,1\n" + WIDE_FILLER.encode() + b"b,\xff,1\n",
    "ragged-before-late-bad-byte": b"id,f0,f1\na,1\n" + WIDE_FILLER.encode() + b"b,\xff,1\n",
    # every line longer than csv.field_size_limit() (131,072), every field short
    "wide-rows": "id," + ",".join(f"f{j}" for j in range(20_000)) + "\n"
                 + "".join(f"r{i}," + ",".join(["0.1234567"] * 20_000) + "\n" for i in range(2)),
}


@pytest.mark.parametrize("block_rows", [1, 2, io.PARSE_BLOCK_ROWS])
@pytest.mark.parametrize("case", sorted(READER_CASES))
def test_reader_matches_oracle_on_fixed_cases(tmp_path, case, block_rows):
    path = tmp_path / "f.csv"
    data = READER_CASES[case]
    path.write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))
    assert_reads_like_oracle(path, block_rows)


FIELDS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True).map(lambda v: format(v, ".17g")),
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.floats(min_value=-1e3, max_value=1e3).map(lambda v: format(v, ".3e")),
    st.sampled_from(
        ["1", "-0", " 3", "3 ", "\t3", "1_0", "١", "nan", "-inf", "Infinity", "2e308", "5e-324",
         "1e-400", "", " ", "0x1", "#", "1#", "x", ".5", "5.", "+1", "1e", "1 2", "\xa03", "1\x1c", "1\x00"]
    ),
    st.text(alphabet="0123456789.eE+-_ ,#\"\r\nxin\t\x1c١", max_size=6),
)
IDS = st.one_of(
    st.sampled_from(["a", "b", "c", "id", ""]),
    st.text(alphabet='ab ,"\n\r#é', max_size=4),
)


@st.composite
def feature_files(draw):
    """Bytes of a features file: mostly well formed, with any of the
    oracle's failure modes mixed in."""
    width = draw(st.integers(1, 3))
    header = draw(st.one_of(
        st.just("id," + ",".join(f"f{j}" for j in range(width))),
        st.sampled_from(["", "id", "id,", "ID,f0", '"id",f0', "x,f0,f1", " id,f0"]),
    ))
    lines = [header]
    for i in range(draw(st.integers(0, 8))):
        shape = draw(st.sampled_from(["row"] * 8 + ["blank", "spaces", "ragged"]))
        if shape == "blank":
            lines.append("")
        elif shape == "spaces":
            lines.append(draw(st.sampled_from([" ", "\t", ","])))
        else:
            count = width if shape == "row" else draw(st.sampled_from([0, width - 1, width + 1]))
            sample_id = draw(st.one_of(st.just(f"s{i}"), IDS))
            values = draw(st.lists(st.one_of(st.floats(-1e3, 1e3).map(repr), FIELDS), min_size=count, max_size=count))
            lines.append(",".join([sample_id, *values]))
    endings = draw(st.lists(st.sampled_from(["\n", "\r\n", "\r", ""]), min_size=len(lines), max_size=len(lines)))
    data = "".join(line + end for line, end in zip(lines, endings)).encode("utf-8")
    if draw(st.booleans()) and draw(st.booleans()):
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


@pytest.fixture(scope="module")
def scratch(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(max_examples=300, deadline=None)
@given(data=feature_files(), block_rows=st.sampled_from([1, 2, 3, io.PARSE_BLOCK_ROWS]))
def test_reader_matches_oracle_on_random_files(scratch, data, block_rows):
    path = scratch / "f.csv"
    path.write_bytes(data)
    assert_reads_like_oracle(path, block_rows)


OVER_CSV_LIMIT = "9" * 200_000


@pytest.mark.parametrize("block_rows", [1, io.PARSE_BLOCK_ROWS])
@pytest.mark.parametrize("text, line, message", [
    (f'id,f0\n"a",1\nb,2\nc,{OVER_CSV_LIMIT}\n', 4, "field larger than field limit (131072)"),
    (f'id,f0\n"a",1\nb,x\nc,{OVER_CSV_LIMIT}\n', 3, "bad float: could not convert string to float: 'x'"),
    (f'id,f0\na,1\nb,2\n"c",3\nd,{OVER_CSV_LIMIT}\n', 5, "field larger than field limit (131072)"),
    (f"id,f0\n{'a' * 200_000},1\n", 2, "field larger than field limit (131072)"),
    (f"id,f0\na,{OVER_CSV_LIMIT}\n", 2, "field larger than field limit (131072)"),
    (f"id,f0\na,x\nb,{OVER_CSV_LIMIT}\n", 2, "bad float: could not convert string to float: 'x'"),
], ids=["alone", "after-bad-float", "after-plain-rows", "unquoted-id", "unquoted-value", "unquoted-after-bad-float"])
def test_field_over_the_csv_limit(tmp_path, block_rows, text, line, message):
    """A field the ``csv`` module will not read (the oracle's reader
    raises its ``csv.Error``), quoted file or not, is a ParseError naming
    its line, raised after any error in the rows before it. The line
    counts the rows read before the reader handed the file to the ``csv``
    module."""
    path = tmp_path / "f.csv"
    path.write_text(text)
    with mock.patch.object(io, "PARSE_BLOCK_ROWS", block_rows), pytest.raises(ParseError) as info:
        io.read_features_csv(path)
    assert (info.value.line, str(info.value)) == (line, f"{path}:{line}: {message}")


def test_each_row_is_parsed_once(tmp_path):
    """A quoted id hands the rest of the file to the ``csv`` module and
    keeps every block parsed before it, so each row reaches
    ``_parse_block`` once; ``\r`` line ends keep a file on ``np.loadtxt``."""
    path = tmp_path / "f.csv"
    path.write_text("id,f0,f1\n" + FILLER + '"q",1,2\n')
    with mock.patch.object(io, "_parse_block", wraps=io._parse_block) as parse:
        assert io.read_features_csv(path).data.shape == (2001, 2)
    assert sum(len(call.args[1]) for call in parse.call_args_list) == 2001
    path.write_bytes(("id,f0,f1\r" + FILLER.replace("\n", "\r")).encode())
    with mock.patch.object(io.np, "loadtxt", wraps=np.loadtxt) as loadtxt:
        assert io.read_features_csv(path).data.shape == (2000, 2)
    assert loadtxt.call_count == -(-2000 // io.PARSE_BLOCK_ROWS)


def test_reader_peak_memory(tmp_path):
    """Parsing in blocks, and handing the parsed matrix to the FeatureSet
    uncopied, keeps the reader's peak within 1.6x the matrix it returns;
    a list of Python floats per row peaked at 6.6x, and a FeatureSet
    copy of its own at 2.4x."""
    rng = np.random.default_rng(0)
    path = tmp_path / "f.csv"
    io.write_features_csv(path, FeatureSet(rng.normal(size=(4000, 64)), tuple(f"s{i:05d}" for i in range(4000))))
    tracemalloc.start()
    try:
        data = io.read_features_csv(path).data
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * data.nbytes


def test_an_unchanged_file_is_parsed_once(tmp_path):
    """A second read of an unchanged file returns the FeatureSet of the
    first and parses nothing."""
    path = tmp_path / "f.csv"
    path.write_text("id,f0,f1\na,1,2\nb,3,4\n")
    first = io.read_features_csv(path)
    with mock.patch.object(io, "_read_records", wraps=io._read_records) as parse:
        assert io.read_features_csv(str(path)) is first
    assert parse.call_count == 0


def test_the_kept_feature_set_cannot_be_written_through(tmp_path):
    """The FeatureSet kept for the next read of a file hands out a view of
    a read-only array, which numpy refuses to make writeable, so no
    caller can change what a later read returns."""
    path = tmp_path / "f.csv"
    path.write_text("id,f0,f1\na,1,2\nb,3,4\n")
    data = io.read_features_csv(path).data
    with pytest.raises(ValueError):
        data.setflags(write=True)
        data[0, 0] = 99.0
    np.testing.assert_array_equal(io.read_features_csv(path).data, [[1.0, 2.0], [3.0, 4.0]])


def test_a_same_length_rewrite_within_one_timestamp_is_parsed_again(tmp_path):
    """The checksum tells apart two files of one inode, size and mtime."""
    path = tmp_path / "f.csv"
    path.write_text("id,f0\na,1\n")
    assert io.read_features_csv(path).data.tolist() == [[1.0]]
    before = path.stat()
    with open(path, "r+") as fh:
        fh.write("id,f0\na,2\n")
    os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
    after = path.stat()
    assert (after.st_ino, after.st_size, after.st_mtime_ns) == (before.st_ino, before.st_size, before.st_mtime_ns)
    assert io.read_features_csv(path).data.tolist() == [[2.0]]


def test_a_read_that_raises_stores_nothing(tmp_path):
    """A file that fails to parse fails again on every read, and parses
    once it is fixed; the fixed file is then kept. The one entry goes
    with any read of another file, even one that fails."""
    good = tmp_path / "good.csv"
    good.write_text("id,f0\na,1\n")
    kept = io.read_features_csv(good)
    path = tmp_path / "f.csv"
    path.write_text("id,f0\na,x\n")
    with mock.patch.object(io, "_read_records", wraps=io._read_records) as parse:
        for _ in range(2):
            with pytest.raises(ParseError, match="bad float"):
                io.read_features_csv(path)
        assert parse.call_count == 2
        assert io.read_features_csv(good) is not kept
        path.write_text("id,f0\na,3\n")
        fixed = io.read_features_csv(path)
        assert fixed.data.tolist() == [[3.0]] and io.read_features_csv(path) is fixed
        assert parse.call_count == 4


def test_a_lowered_field_limit_fails_a_kept_file(tmp_path):
    """``csv.field_size_limit()`` is part of the key: once it is lowered,
    a file read before with a long field raises, as a fresh read would."""
    path = tmp_path / "f.csv"
    path.write_text(f"id,f0\na,{'1' * 200}\n")
    io.read_features_csv(path)
    old = csv.field_size_limit(100)
    try:
        with pytest.raises(ParseError) as info:
            io.read_features_csv(path)
    finally:
        csv.field_size_limit(old)
    assert str(info.value) == f"{path}:2: field larger than field limit (100)"
    assert io.read_features_csv(path).data.shape == (1, 1)


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_a_path_that_is_no_file_fails_as_open_does(tmp_path, kind):
    path = tmp_path / "f.csv"
    if kind == "directory":
        path.mkdir()
    want = outcome(oracles.read_features_csv, path)
    assert want[0] in (FileNotFoundError, IsADirectoryError)
    assert outcome(io.read_features_csv, path) == want


@pytest.mark.skipif(not os.path.isdir("/dev/fd"), reason="needs /dev/fd")
def test_a_pipe_is_read_in_one_pass(tmp_path):
    """A pipe cannot be read twice, so it is parsed without the checksum
    pass and not kept."""
    read_end, write_end = os.pipe()
    try:
        os.write(write_end, b"id,f0,f1\na,1,2\n")
        os.close(write_end)
        features = io.read_features_csv(f"/dev/fd/{read_end}")
    finally:
        os.close(read_end)
    assert features.ids == ("a",) and features.data.tolist() == [[1.0, 2.0]]


EXTREMES =[0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 2.225073858507201e-308, 1e-310,
            1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1 / 3, 2 / 3, 1e16, 123456789012345680.0]
#: Ids and labels the csv module has to quote, and an empty label.
AWKWARD = ["a,b", 'say "hi"', "two\nlines", "cr\r", "", " lead", "tr ", "#x", "é"]


def assert_writes_like_oracle(tmp_path, name, *args):
    getattr(io, name)(tmp_path / "new.csv", *args)
    getattr(oracles, name)(tmp_path / "oracle.csv", *args)
    assert (tmp_path / "new.csv").read_bytes() == (tmp_path / "oracle.csv").read_bytes()


@pytest.mark.parametrize("m", [1, 2, 5])
def test_predictions_writer_matches_oracle_on_extremes(tmp_path, m):
    values = np.array(EXTREMES + [np.nan, np.inf, -np.inf] + [-v for v in EXTREMES])
    n = values.size // m
    assignment = values[: n * m].reshape(n, m)
    ids = [f"s{i}" if i >= len(AWKWARD) else AWKWARD[i] + str(i) for i in range(n)]
    names = [AWKWARD[i % len(AWKWARD)] for i in range(n)]
    assert_writes_like_oracle(tmp_path, "write_predictions_csv", ids, names, assignment)


def test_features_writer_matches_oracle_on_extremes(tmp_path):
    data = np.array(EXTREMES + [-v for v in EXTREMES]).reshape(-1, 4)
    ids = tuple(AWKWARD[i % len(AWKWARD)] + str(i) for i in range(data.shape[0]))
    assert_writes_like_oracle(tmp_path, "write_features_csv", FeatureSet(data, ids))


FLOAT64 = st.one_of(st.floats(width=64), st.sampled_from(EXTREMES))
TEXT = st.one_of(st.sampled_from(AWKWARD), st.text(st.characters(exclude_categories=("Cs",)), max_size=4))


@settings(max_examples=150, deadline=None)
@given(
    shape=st.tuples(st.integers(1, 6), st.integers(1, 4)),
    values=st.lists(FLOAT64, min_size=24, max_size=24),
    names=st.lists(TEXT, min_size=6, max_size=6),
)
def test_writers_match_oracle_on_random_tables(scratch, shape, values, names):
    n, m = shape
    table = np.array(values[: n * m]).reshape(n, m)
    ids = [f"{name}{i}" for i, name in enumerate(names[:n])]
    assert_writes_like_oracle(scratch, "write_predictions_csv", ids, names[:n], table)
    finite = np.where(np.isfinite(table), table, 0.0)
    assert_writes_like_oracle(scratch, "write_features_csv", FeatureSet(finite, ids))
