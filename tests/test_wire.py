"""Packed report layout, file framing, fuzz robustness, and cost table."""

import contextlib
import itertools
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from _oracles import pack_fhr_oracle, unpack_fhr_oracle
from fldp import wire
from fldp.hadamard import HadamardOrder
from fldp.mechanisms import FhrReport
from fldp.wire import (
    FILE_MAGIC,
    WireFormatError,
    pack_fhr,
    packed_size,
    read_report_file,
    report_size_table,
    unpack_fhr,
    write_report_file,
)


class TestPackedLayout:
    def test_sizes(self):
        assert packed_size(HadamardOrder(2)) == 1
        assert packed_size(HadamardOrder(4)) == 2  # 9 bits
        assert packed_size(HadamardOrder(10)) == 3  # 21 bits

    def test_hand_packed_example(self):
        # r=2: index_x=00, sign=1, index_y=01, left-aligned -> 0b00101000
        data = pack_fhr(FhrReport(index_x=0, index_y=1), HadamardOrder(2))
        assert data == bytes([0x28])

    def test_hand_unpacked_example(self):
        report = unpack_fhr(bytes([0x28]), HadamardOrder(2))
        assert (report.index_x, report.index_y) == (0, 1)

    def test_sign_bit_is_ignored_on_read(self):
        # 0b00001000 differs from the example only in the sign bit
        report = unpack_fhr(bytes([0x08]), HadamardOrder(2))
        assert (report.index_x, report.index_y) == (0, 1)

    @pytest.mark.parametrize("r", range(1, 7))
    def test_exhaustive_round_trip(self, r):
        order = HadamardOrder(r)
        for x, y in itertools.permutations(range(order.order), 2):
            report = FhrReport(index_x=x, index_y=y)
            assert unpack_fhr(pack_fhr(report, order), order) == report

    def test_index_overflow_rejected(self):
        with pytest.raises(WireFormatError):
            pack_fhr(FhrReport(index_x=4, index_y=1), HadamardOrder(2))

    # FhrReport is mutable: its constructor's checks do not bind a later assignment
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("index_x", -1, "negative"),
            ("index_y", -5, "negative"),
            ("index_y", 2, "equal indices 2"),
        ],
        ids=["negative-x", "negative-y", "equal"],
    )
    def test_reassigned_index_rejected(self, field, value, match):
        report = FhrReport(index_x=2, index_y=1)
        setattr(report, field, value)
        with pytest.raises(WireFormatError, match=match):
            pack_fhr(report, HadamardOrder(2))

    # np.fromiter would cast each of these to an int64: 1.5 to 1, 3.0 to 3
    @pytest.mark.parametrize(
        "field, value",
        [("index_x", 1.5), ("index_y", np.float64(3.0)), ("index_x", "7")],
        ids=["float", "whole-float64", "string"],
    )
    def test_non_integer_index_rejected(self, field, value):
        report = FhrReport(index_x=5, index_y=2)
        setattr(report, field, value)
        with pytest.raises(WireFormatError, match="record 0: .* has a non-integer index"):
            pack_fhr(report, HadamardOrder(3))

    @pytest.mark.parametrize("r", [32, 63])
    def test_orders_beyond_the_wire_cap_rejected(self, r):
        order = HadamardOrder(r)
        with pytest.raises(WireFormatError, match="exponent"):
            pack_fhr(FhrReport(index_x=1, index_y=0), order)
        with pytest.raises(WireFormatError, match="exponent"):
            unpack_fhr(bytes(packed_size(order)), order)

    @pytest.mark.parametrize("r", [1, 16, 31])
    def test_bytes_match_the_scalar_oracle(self, r):
        order = HadamardOrder(r)
        for report in _random_reports(r, 300, seed=r + 70):
            packed = pack_fhr(report, order)
            assert packed == pack_fhr_oracle(report, order)
            assert unpack_fhr(packed, order) == report

    @pytest.mark.parametrize("r", [1, 7, 16, 31])
    def test_unpack_decides_like_the_scalar_oracle(self, r):
        # random bytes, with the padding cleared in every other blob so that
        # the index checks are reached too (equal indices are common at r = 1)
        order = HadamardOrder(r)
        size = packed_size(order)
        pad_mask = (0xFF << (size * 8 - (2 * r + 1))) & 0xFF
        rng = np.random.default_rng(r + 90)
        for i, blob in enumerate(rng.integers(0, 256, size=(400, size), dtype=np.uint8)):
            if i % 2:
                blob[-1] &= pad_mask
            data = blob.tobytes()
            try:
                expected = unpack_fhr_oracle(data, order)
            except WireFormatError:
                with pytest.raises(WireFormatError):
                    unpack_fhr(data, order)
                continue
            assert unpack_fhr(data, order) == expected

    def test_wrong_length_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_fhr(bytes([0x28, 0x00]), HadamardOrder(2))

    def test_nonzero_padding_rejected(self):
        with pytest.raises(WireFormatError):
            unpack_fhr(bytes([0x29]), HadamardOrder(2))

    def test_equal_indices_rejected(self):
        # r=2: index_x=01, sign=1, index_y=01 -> 0b01101000
        with pytest.raises(WireFormatError):
            unpack_fhr(bytes([0b01101000]), HadamardOrder(2))

    @settings(max_examples=200)
    @given(st.binary(min_size=0, max_size=8), st.integers(min_value=1, max_value=10))
    def test_fuzzed_unpack_never_aborts(self, data, r):
        order = HadamardOrder(r)
        try:
            report = unpack_fhr(data, order)
        except WireFormatError:
            return
        assert report.index_x != report.index_y
        assert report.index_x < order.order and report.index_y < order.order

    @settings(max_examples=100)
    @given(st.integers(min_value=1, max_value=10), st.data())
    def test_round_trip_property(self, r, data):
        order = HadamardOrder(r)
        x = data.draw(st.integers(min_value=0, max_value=order.order - 1))
        y = data.draw(
            st.integers(min_value=0, max_value=order.order - 1).filter(lambda v: v != x)
        )
        report = FhrReport(index_x=x, index_y=y)
        packed = pack_fhr(report, order)
        assert len(packed) == packed_size(order)
        decoded = unpack_fhr(packed, order)
        assert type(decoded) is FhrReport and decoded == report


def _rows(reports):
    """The reports' (index_x, index_y) pairs, one list per report."""
    return [[report.index_x, report.index_y] for report in reports]


class TestReportFile:
    def _sample_reports(self, order):
        return [
            FhrReport(index_x=x, index_y=(x + 1) % order.order)
            for x in range(order.order)
        ]

    def test_round_trip(self, tmp_path):
        order = HadamardOrder(3)
        reports = self._sample_reports(order)
        path = tmp_path / "reports.bin"
        count = write_report_file(path, reports, order)
        assert count == len(reports)
        read_order, read_back = read_report_file(path)
        assert read_order == order
        assert read_back.tolist() == _rows(reports)

    def test_reads_back_a_contiguous_int64_pair_array(self, tmp_path):
        order = HadamardOrder(16)
        rng = np.random.default_rng(11)
        index_x = rng.integers(0, order.order, size=5000)
        index_y = (index_x + rng.integers(1, order.order, size=5000)) % order.order
        reports = [FhrReport(x, y) for x, y in zip(index_x.tolist(), index_y.tolist())]
        path = tmp_path / "reports.bin"
        write_report_file(path, reports, order)
        _, pairs = read_report_file(path)
        assert isinstance(pairs, np.ndarray)
        assert pairs.dtype == np.int64 and pairs.shape == (5000, 2)
        assert pairs.flags.c_contiguous
        assert np.array_equal(pairs[:, 0], index_x) and np.array_equal(pairs[:, 1], index_y)

    def test_header_is_sixteen_bytes(self, tmp_path):
        order = HadamardOrder(2)
        path = tmp_path / "one.bin"
        write_report_file(path, [FhrReport(index_x=0, index_y=1)], order)
        raw = path.read_bytes()
        assert len(raw) == 16 + packed_size(order)
        magic, r, count = struct.unpack_from(">4sIQ", raw)
        assert magic == FILE_MAGIC and r == 2 and count == 1

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"NOPE" + bytes(12))
        with pytest.raises(WireFormatError):
            read_report_file(path)

    def test_truncated_body_rejected(self, tmp_path):
        order = HadamardOrder(3)
        path = tmp_path / "short.bin"
        write_report_file(path, self._sample_reports(order), order)
        raw = path.read_bytes()
        path.write_bytes(raw[:-1])
        with pytest.raises(WireFormatError):
            read_report_file(path)

    def test_short_file_rejected(self, tmp_path):
        path = tmp_path / "tiny.bin"
        path.write_bytes(b"FHR1")
        with pytest.raises(WireFormatError):
            read_report_file(path)

    @pytest.mark.parametrize("r", [0, 32, 63, 64, 70])
    def test_order_exponent_outside_range_rejected(self, tmp_path, r):
        # an empty file whose header declares an order beyond the file cap;
        # the reader refuses it before allocating anything order-sized
        path = tmp_path / "order.bin"
        path.write_bytes(struct.pack(">4sIQ", FILE_MAGIC, r, 0))
        tracemalloc.start()
        try:
            with pytest.raises(WireFormatError, match="exponent"):
                read_report_file(path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20

    def test_count_beyond_file_size_rejected_before_reading(self, tmp_path):
        path = tmp_path / "huge.bin"
        path.write_bytes(struct.pack(">4sIQ", FILE_MAGIC, 20, 2**60) + bytes(6))
        with pytest.raises(WireFormatError, match="records"):
            read_report_file(path)

    def test_writer_rejects_orders_beyond_cap(self, tmp_path):
        path = tmp_path / "big.bin"
        write_report_file(path, [FhrReport(index_x=2**31 - 1, index_y=0)], HadamardOrder(31))
        with pytest.raises(WireFormatError, match="exponent"):
            write_report_file(path, [], HadamardOrder(32))


def _random_reports(r, count, seed):
    rng = np.random.default_rng(seed)
    x = rng.integers(0, 1 << r, size=count)
    y = (x + rng.integers(1, 1 << r, size=count)) % (1 << r)  # never equal to x
    return [FhrReport(index_x=a, index_y=b) for a, b in zip(x.tolist(), y.tolist())]


class TestReportFileCodec:
    """The array codec against the scalar oracles, which build and split
    one record at a time as a Python int."""

    @pytest.mark.parametrize("r", [1, 2, 7, 8, 16, 31])
    def test_bytes_are_header_plus_pack_fhr_records(self, tmp_path, r):
        order = HadamardOrder(r)
        reports = _random_reports(r, 300, seed=r)
        path = tmp_path / "reports.bin"
        assert write_report_file(path, iter(reports), order) == len(reports)
        expected = struct.pack(">4sIQ", FILE_MAGIC, r, len(reports)) + b"".join(
            pack_fhr_oracle(report, order) for report in reports
        )
        assert path.read_bytes() == expected
        read_order, pairs = read_report_file(path)
        assert read_order == order and pairs.tolist() == _rows(reports)

    @pytest.mark.parametrize("r", [1, 16, 31])
    def test_list_and_generator_write_pack_fhr_records(self, tmp_path, r):
        # both are taken through one iterator, 2^16 reports at a time
        order = HadamardOrder(r)
        reports = _random_reports(r, 500, seed=r + 40)
        expected = struct.pack(">4sIQ", FILE_MAGIC, r, len(reports)) + b"".join(
            pack_fhr_oracle(report, order) for report in reports
        )
        for name, source in (("list", reports), ("generator", (rep for rep in reports))):
            path = tmp_path / f"{name}.bin"
            assert write_report_file(path, source, order) == len(reports)
            assert path.read_bytes() == expected

    def test_positional_reports_write_the_keyword_file(self, tmp_path):
        # the benchmark builds its reports positionally, FhrReport(x, y)
        order = HadamardOrder(16)
        rng = np.random.default_rng(5)
        index_x = rng.integers(0, order.order, size=2000)
        index_y = (index_x + rng.integers(1, order.order, size=2000)) % order.order
        pairs = list(zip(index_x.tolist(), index_y.tolist()))
        positional, keyword = tmp_path / "positional.bin", tmp_path / "keyword.bin"
        write_report_file(positional, [FhrReport(x, y) for x, y in pairs], order)
        write_report_file(keyword, [FhrReport(index_x=x, index_y=y) for x, y in pairs], order)
        assert positional.read_bytes() == keyword.read_bytes()
        _, read_back = read_report_file(positional)
        assert read_back.tolist() == [list(pair) for pair in pairs]

    def test_empty_file_round_trip(self, tmp_path):
        path = tmp_path / "empty.bin"
        assert write_report_file(path, [], HadamardOrder(5)) == 0
        assert path.read_bytes() == struct.pack(">4sIQ", FILE_MAGIC, 5, 0)
        read_order, pairs = read_report_file(path)
        assert read_order == HadamardOrder(5)
        assert pairs.shape == (0, 2) and pairs.dtype == np.int64

    def _file_with_middle_record(self, tmp_path, r, middle):
        order = HadamardOrder(r)
        reports = _random_reports(r, 9, seed=3)
        records = [pack_fhr_oracle(report, order) for report in reports]
        records[4] = middle
        path = tmp_path / "bad.bin"
        path.write_bytes(struct.pack(">4sIQ", FILE_MAGIC, r, 9) + b"".join(records))
        return path

    @pytest.mark.parametrize("r", [2, 7, 16, 31])
    def test_nonzero_padding_in_middle_record_rejected(self, tmp_path, r):
        order = HadamardOrder(r)
        good = pack_fhr_oracle(FhrReport(index_x=1, index_y=0), order)
        middle = good[:-1] + bytes([good[-1] | 1])  # the lowest bit is padding
        with pytest.raises(WireFormatError, match="record 4: padding"):
            read_report_file(self._file_with_middle_record(tmp_path, r, middle))

    @pytest.mark.parametrize("r", [2, 7, 16, 31])
    def test_equal_indices_in_middle_record_rejected(self, tmp_path, r):
        size = packed_size(HadamardOrder(r))
        index = (1 << r) - 1
        word = (index << (r + 1)) | (1 << r) | index
        middle = (word << (size * 8 - (2 * r + 1))).to_bytes(size, "big")
        with pytest.raises(WireFormatError, match="record 4: equal indices"):
            read_report_file(self._file_with_middle_record(tmp_path, r, middle))

    @pytest.mark.parametrize("r", [2, 16, 31])
    def test_equal_indices_message_is_the_writers(self, tmp_path, r):
        # the reader checks decoded records for equal indices only, and
        # fails with the message the writer gives for the same report
        size = packed_size(HadamardOrder(r))
        index = (1 << r) - 1
        word = (index << (r + 1)) | (1 << r) | index
        middle = (word << (size * 8 - (2 * r + 1))).to_bytes(size, "big")
        with pytest.raises(WireFormatError) as read:
            read_report_file(self._file_with_middle_record(tmp_path, r, middle))
        reports = _random_reports(r, 9, seed=3)
        reports[4].index_x = reports[4].index_y = index
        with pytest.raises(WireFormatError) as written:
            write_report_file(tmp_path / "written.bin", reports, HadamardOrder(r))
        message = f"record 4: equal indices {index} are not a valid report"
        assert str(read.value) == str(written.value) == message

    @pytest.mark.parametrize("index", [8, 2**63 - 1, 2**64 + 5])
    def test_index_overflow_rejected_by_writer(self, tmp_path, index):
        with pytest.raises(WireFormatError, match="overflows"):
            write_report_file(
                tmp_path / "o.bin", [FhrReport(index_x=index, index_y=0)], HadamardOrder(3)
            )

    # a report reassigned after construction is checked where the writer
    # stages it, and no file is written; the reader would reject it or, for
    # a negative index, return other indices than the report's
    @pytest.mark.parametrize("r", [4, 31])
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("index_x", -1, r"record 4: negative index in \[-1, "),
            ("index_y", -(2**40), "record 4: negative index"),
            ("index_y", "index_x", "record 4: equal indices"),
        ],
        ids=["negative-x", "negative-y", "equal"],
    )
    def test_reassigned_index_rejected_by_writer(self, tmp_path, r, field, value, match):
        reports = _random_reports(r, 9, seed=3)
        if value == "index_x":
            value = reports[4].index_x
        setattr(reports[4], field, value)
        path = tmp_path / "bad.bin"
        with pytest.raises(WireFormatError, match=match):
            write_report_file(path, reports, HadamardOrder(r))
        assert not path.exists()

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from([1, 2, 3, 5, 10, 16, 31]),
        st.integers(min_value=0, max_value=6),
        st.data(),
    )
    def test_random_bodies_decode_like_unpack_fhr(self, tmp_path_factory, r, count, data):
        order = HadamardOrder(r)
        size = packed_size(order)
        body = data.draw(st.binary(min_size=count * size, max_size=count * size))
        path = tmp_path_factory.mktemp("fuzz") / "body.bin"
        path.write_bytes(struct.pack(">4sIQ", FILE_MAGIC, r, count) + body)
        try:
            expected = [
                unpack_fhr_oracle(body[i * size : (i + 1) * size], order) for i in range(count)
            ]
        except WireFormatError:
            with pytest.raises(WireFormatError):
                read_report_file(path)
            return
        read_order, pairs = read_report_file(path)
        assert read_order == order and pairs.tolist() == _rows(expected)


_CHUNK = 1 << 16  # the reports the writer packs at a time
_STREAM_COUNTS = [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 3 * _CHUNK + 5]


@pytest.fixture(scope="module")
def long_stream():
    """3 * 2^16 + 5 reports at r = 16 and their concatenated records, each
    packed by the scalar oracle, which pack_fhr matches byte for byte."""
    order = HadamardOrder(16)
    reports = _random_reports(16, max(_STREAM_COUNTS), seed=17)
    return reports, b"".join(pack_fhr_oracle(report, order) for report in reports)


class TestStreamedWriter:
    """The writer packs 2^16 reports at a time: the chunk boundaries leave
    no trace in the bytes, and a bad record keeps its number in the file."""

    @pytest.mark.parametrize("source", ["list", "generator"])
    @pytest.mark.parametrize("count", _STREAM_COUNTS)
    def test_bytes_are_header_plus_pack_fhr_records(self, tmp_path, long_stream, count, source):
        reports, body = long_stream
        reports = reports[:count]
        if source == "generator":
            reports = (report for report in reports)
        path = tmp_path / "reports.bin"
        assert write_report_file(path, reports, HadamardOrder(16)) == count
        header = struct.pack(">4sIQ", FILE_MAGIC, 16, count)
        assert path.read_bytes() == header + body[: count * packed_size(HadamardOrder(16))]

    @pytest.mark.parametrize("source", ["list", "generator"])
    @pytest.mark.parametrize("record", [3, _CHUNK + 3], ids=["first-chunk", "later-chunk"])
    @pytest.mark.parametrize(
        "field, value, match",
        [
            ("index_x", 1.5, ".* has a non-integer index"),
            ("index_y", np.float64(3.0), ".* has a non-integer index"),
            ("index_x", -1, r"negative index in \[-1, 9\]"),
            ("index_y", 5, "equal indices 5 are not a valid report"),
        ],
        ids=["float", "whole-float64", "negative", "equal"],
    )
    def test_bad_record_keeps_the_previous_file(
        self, tmp_path, long_stream, field, value, match, record, source
    ):
        path = tmp_path / "reports.bin"
        path.write_bytes(b"previous")
        reports = long_stream[0][: _CHUNK + 9]
        reports[record] = FhrReport(index_x=5, index_y=9)
        setattr(reports[record], field, value)
        if source == "generator":
            reports = (report for report in reports)
        with pytest.raises(WireFormatError, match=f"^record {record}: {match}$"):
            write_report_file(path, reports, HadamardOrder(16))
        assert path.read_bytes() == b"previous"
        assert [p.name for p in tmp_path.iterdir()] == ["reports.bin"]


class TestReportFileMemory:
    """The writer packs in one (2^16, 2) int64 buffer a chunk and the reader
    unpacks in one (n, 2): traced peak bytes per record at n = 2^16 (the
    bound's unit) and r = 16, whose records take 5 bytes."""

    N = 1 << 16
    ORDER = HadamardOrder(16)

    def _peak_per_record(self, call):
        tracemalloc.start()
        try:
            call()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        return peak / self.N

    def test_write(self, tmp_path):
        reports = _random_reports(16, self.N, seed=8)
        path = tmp_path / "reports.bin"
        # the staged pairs (16) and the packed body (5), above the reports
        assert self._peak_per_record(lambda: write_report_file(path, reports, self.ORDER)) < 24

    def test_write_peak_does_not_grow_with_n(self, tmp_path):
        reports = _random_reports(16, 4 * self.N, seed=9)
        path = tmp_path / "reports.bin"
        # the writer holds one chunk of 2^16 records: test_write's bound, absolute
        assert self._peak_per_record(lambda: write_report_file(path, reports, self.ORDER)) < 24

    def test_read(self, tmp_path):
        path = tmp_path / "reports.bin"
        write_report_file(path, _random_reports(16, self.N, seed=8), self.ORDER)
        # the body read (5), the result (16) and the equality check (1)
        assert self._peak_per_record(lambda: read_report_file(path)) < 32


class TestAtomicReportFile:
    def _previous(self, tmp_path):
        path = tmp_path / "reports.bin"
        write_report_file(path, _random_reports(4, 20, seed=1), HadamardOrder(4))
        return path, path.read_bytes()

    def test_write_failing_after_the_header_keeps_previous_file(self, tmp_path, monkeypatch):
        path, previous = self._previous(tmp_path)
        real_replace = wire.replace_atomically
        written = []

        class FailingHandle:
            """Takes the header, then fails as a full disk would."""

            def __init__(self, handle):
                self.handle = handle

            def write(self, data):
                if written:
                    raise OSError("disk full")
                written.append(len(data))
                return self.handle.write(data)

        @contextlib.contextmanager
        def failing(target, mode="w", **kwargs):
            with real_replace(target, mode, **kwargs) as handle:
                yield FailingHandle(handle)

        monkeypatch.setattr(wire, "replace_atomically", failing)
        with pytest.raises(OSError, match="disk full"):
            write_report_file(path, _random_reports(4, 5, seed=2), HadamardOrder(4))
        assert written == [16]
        assert path.read_bytes() == previous
        assert [p.name for p in tmp_path.iterdir()] == ["reports.bin"]


class TestSizeTable:
    def test_kilo_domain_sizes(self):
        table = report_size_table(1023)
        assert table["fhr"] == 21
        assert table["oue"] == 1023
        assert table["rappor"] == 1023
        assert table["grr"] == 10
        assert table["olh"] == 65

    def test_olh_grows_with_hash_range(self):
        assert report_size_table(16, epsilon=1.0)["olh"] == 65  # g=2
        assert report_size_table(16, epsilon=2.0)["olh"] == 66  # g=3

    def test_fhr_beats_unary_for_domains_of_ten_and_up(self):
        # at D in {8, 9} the 2r+1 cost ties or exceeds the unary D bits;
        # from D = 10 the packed report is strictly smaller
        for d in range(10, 1 << 16):
            table = report_size_table(d)
            assert table["fhr"] < table["oue"]

    def test_small_domain_edge(self):
        # D=2 needs order 4 (row 0 reserved), hence r=2 and 5 bits
        assert report_size_table(2)["fhr"] == 5
        assert report_size_table(2)["grr"] == 1

    def test_degenerate_domain_rejected(self):
        with pytest.raises(ValueError):
            report_size_table(1)
