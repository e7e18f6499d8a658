"""Whole-file replacement: a failed writer leaves the previous file as it was."""

import pytest

from fldp._atomic import replace_atomically


def test_success_replaces_the_file(tmp_path):
    path = tmp_path / "out.txt"
    path.write_text("old\n", encoding="utf-8")
    with replace_atomically(path, encoding="utf-8") as handle:
        handle.write("new\n")
    assert path.read_text(encoding="utf-8") == "new\n"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_writer_raising_mid_write_keeps_previous_file(tmp_path):
    path = tmp_path / "out.bin"
    path.write_bytes(b"previous contents")
    with pytest.raises(RuntimeError):
        with replace_atomically(path, "wb") as handle:
            handle.write(b"half of the new")
            handle.flush()
            raise RuntimeError("writer failed")
    assert path.read_bytes() == b"previous contents"
    assert [p.name for p in tmp_path.iterdir()] == ["out.bin"]


def test_failed_first_write_leaves_nothing(tmp_path):
    with pytest.raises(RuntimeError):
        with replace_atomically(tmp_path / "new.txt") as handle:
            handle.write("partial")
            raise RuntimeError("writer failed")
    assert list(tmp_path.iterdir()) == []
