"""Zipf synthesis, CSV ingestion, and ground-truth bookkeeping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fldp.datasets import (
    DatasetSpec,
    ItemStream,
    exact_frequencies,
    export_ground_truth,
    export_stream_csv,
    generate_zipf,
    ingest_csv,
    zipf_probabilities,
)

from _oracles import tally_oracle


def _zipf(n, d, seed=0, exponent=1.5):
    return generate_zipf(
        DatasetSpec(source="zipf", n=n, domain_size=d, seed=seed, zipf_exponent=exponent)
    )


class TestZipf:
    def test_large_stream_count_conservation(self):
        stream = _zipf(593_358, 1023)
        assert stream.n == 593_358
        assert int(stream.ground_truth.sum()) == 593_358
        assert stream.items.max() < 1023

    def test_probability_ratio_two_items(self):
        probs = zipf_probabilities(2, 1.5)
        assert probs[0] / probs[1] == pytest.approx(2**1.5)

    def test_identical_seeds_identical_streams(self):
        a, b = _zipf(5000, 64, seed=9), _zipf(5000, 64, seed=9)
        assert np.array_equal(a.items, b.items)

    def test_different_seeds_differ(self):
        a, b = _zipf(5000, 64, seed=1), _zipf(5000, 64, seed=2)
        assert not np.array_equal(a.items, b.items)

    def test_exponent_at_most_one_rejected(self):
        with pytest.raises(ValueError):
            _zipf(100, 8, exponent=1.0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            DatasetSpec(source="zipf", n=0, domain_size=8)
        with pytest.raises(ValueError):
            DatasetSpec(source="zipf", n=10, domain_size=1)
        with pytest.raises(ValueError):
            DatasetSpec(source="lognormal", n=10, domain_size=8)
        with pytest.raises(ValueError):
            DatasetSpec(source="csv")

    def test_rank_frequency_slope(self):
        # on log-log axes the head of the empirical law has slope close
        # to the negative exponent
        stream = _zipf(100_000, 1023, seed=4)
        counts = np.sort(stream.ground_truth)[::-1][:50].astype(np.float64)
        ranks = np.arange(1, 51, dtype=np.float64)
        slope = np.polyfit(np.log(ranks), np.log(counts), 1)[0]
        assert slope == pytest.approx(-1.5, abs=0.15)


class TestIngestCsv:
    def test_first_appearance_encoding(self, tmp_path):
        path = tmp_path / "values.csv"
        path.write_text("a\nb\na\n", encoding="utf-8")
        stream = ingest_csv(path)
        assert stream.domain_size == 2
        assert stream.labels == ("a", "b")
        assert stream.ground_truth.tolist() == [2, 1]
        assert stream.items.tolist() == [0, 1, 0]

    def test_byte_order_mark_is_not_part_of_the_first_label(self, tmp_path):
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(b"a\na\nb\n")
        marked.write_bytes(b"\xef\xbb\xbfa\na\nb\n")
        stream, expected = ingest_csv(marked), ingest_csv(plain)
        assert stream.labels == expected.labels == ("a", "b")
        assert stream.items.tolist() == expected.items.tolist() == [0, 0, 1]
        assert stream.ground_truth.tolist() == [2, 1]

    def test_non_utf8_bytes_name_the_file(self, tmp_path):
        path = tmp_path / "latin1.csv"
        path.write_bytes(b"a\n\xff\nb\n")
        with pytest.raises(ValueError, match=r"^\S*latin1\.csv: not UTF-8 text"):
            ingest_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(ValueError):
            ingest_csv(path)

    def test_empty_value_reports_line_number(self, tmp_path):
        path = tmp_path / "blankish.csv"
        path.write_text("a\n  \nb\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r":2:"):
            ingest_csv(path)

    def test_line_number_counts_lines_not_rows(self, tmp_path):
        # the quoted value spans lines 2 and 3, so the blank value is the
        # third row but the fourth line
        path = tmp_path / "multiline.csv"
        path.write_text('a\n"b\nc"\n  \nd\n', encoding="utf-8")
        with pytest.raises(ValueError, match=r"multiline\.csv:4: empty value"):
            ingest_csv(path)

    def test_oversized_field_is_a_value_error(self, tmp_path):
        # a field past csv.field_size_limit() is the csv module's own error,
        # which ingestion reports as ValueError with the line number
        path = tmp_path / "oversized.csv"
        path.write_text("a\n" + "b" * 200_000 + "\nc\n", encoding="utf-8")
        with pytest.raises(ValueError, match=r"oversized\.csv:2: field larger than field limit"):
            ingest_csv(path)

    def test_round_trip_preserves_per_label_counts(self, tmp_path):
        # ids are renumbered by first appearance, so compare per label
        stream = _zipf(2000, 32, seed=5)
        path = tmp_path / "exported.csv"
        export_stream_csv(stream, path)
        again = ingest_csv(path)
        original = dict(zip(stream.labels, stream.ground_truth.tolist()))
        reloaded = dict(zip(again.labels, again.ground_truth.tolist()))
        reloaded.update({label: 0 for label in original if label not in reloaded})
        assert {k: v for k, v in original.items() if v} == {
            k: v for k, v in reloaded.items() if v
        }

    def test_round_trip_exact_for_ingested_streams(self, tmp_path):
        # a stream that came from ingestion already uses first-appearance
        # ids, so a second pass is the identity
        path = tmp_path / "src.csv"
        path.write_text("c\na\nc\nb\na\nc\n", encoding="utf-8")
        stream = ingest_csv(path)
        out = tmp_path / "again.csv"
        export_stream_csv(stream, out)
        again = ingest_csv(out)
        assert np.array_equal(again.items, stream.items)
        assert np.array_equal(again.ground_truth, stream.ground_truth)
        assert again.labels == stream.labels

    def test_ground_truth_export_contents(self, tmp_path):
        path = tmp_path / "src.csv"
        path.write_text("a\nb\na\n", encoding="utf-8")
        out = tmp_path / "truth.csv"
        export_ground_truth(ingest_csv(path), out)
        assert out.read_text(encoding="utf-8").splitlines() == [
            "item,count",
            "a,2",
            "b,1",
        ]


class TestExactFrequencies:
    def test_single_item_stream(self):
        stream = ItemStream(items=np.full(7, 1, dtype=np.int64), labels=("a", "b", "c"))
        assert exact_frequencies(stream.items, stream.domain_size).tolist() == [0, 7, 0]

    def test_uniform_stream(self):
        stream = ItemStream(items=np.tile(np.arange(4), 25), labels=tuple("abcd"))
        assert exact_frequencies(stream.items, stream.domain_size).tolist() == [25] * 4

    @settings(max_examples=40)
    @given(st.lists(st.integers(min_value=0, max_value=19), min_size=1, max_size=200))
    def test_matches_hash_map_tally(self, raw):
        stream = ItemStream(
            items=np.asarray(raw, dtype=np.int64), labels=tuple(str(i) for i in range(20))
        )
        tally = tally_oracle(raw)
        freq = exact_frequencies(stream.items, stream.domain_size)
        for item in range(20):
            assert freq[item] == tally.get(item, 0)

    def test_stream_validation(self):
        with pytest.raises(ValueError, match="outside the domain"):
            ItemStream(items=np.array([0, 3]), labels=("a", "b", "c"))
        with pytest.raises(ValueError, match="outside the domain"):
            ItemStream(items=np.array([-1, 0]), labels=("a", "b"))


class TestDerivedFields:
    """The domain and the truth follow from the items and labels alone."""

    def test_domain_is_the_label_count(self):
        stream = ItemStream(items=np.array([0, 0, 1]), labels=("a", "b", "c", "d"))
        assert stream.domain_size == len(stream.labels) == 4
        assert stream.ground_truth.tolist() == [2, 1, 0, 0]

    def test_truth_is_computed_once_from_the_items(self):
        stream = _zipf(3000, 40, seed=8)
        assert stream.ground_truth is stream.ground_truth
        assert np.array_equal(stream.ground_truth, exact_frequencies(stream.items, 40))
        assert stream.ground_truth.dtype == np.int64
        assert stream.domain_size == 40
