"""Tests for the CSV export helpers."""

import csv

import pytest

from repro.metrics.export import write_csv


def read_back(path):
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


class TestWriteCsv:
    def test_roundtrip(self, tmp_path):
        target = write_csv(tmp_path / "t.csv", ["a", "b"],
                           [(1, 2), (3, 4)])
        rows = read_back(target)
        assert rows == [["a", "b"], ["1", "2"], ["3", "4"]]

    def test_creates_parent_directories(self, tmp_path):
        target = write_csv(tmp_path / "deep/nested/t.csv", ["x"], [(1,)])
        assert target.exists()

    def test_width_mismatch_raises(self, tmp_path):
        with pytest.raises(ValueError):
            write_csv(tmp_path / "t.csv", ["a"], [(1, 2)])

