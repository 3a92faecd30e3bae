"""Corpus files: content-addressed, schema-checked, replay-loadable."""

import json

import pytest

from repro.fuzz.corpus import (
    CORPUS_SCHEMA,
    entry_filename,
    entry_for,
    iter_entries,
    load_entry,
    save_entry,
    scenario_of,
)
from repro.fuzz.oracles import Violation

from tests.fuzz.conftest import busy_scenario


def make_entry():
    return entry_for(
        busy_scenario(),
        [Violation("conservation", "production", "submitted=5 != 4")],
    )


class TestEntries:
    def test_entry_layout(self):
        entry = make_entry()
        assert entry["schema"] == CORPUS_SCHEMA
        assert entry["oracle"] == "conservation"
        assert entry["violations"][0]["mode"] == "production"
        assert scenario_of(entry) == busy_scenario()

    def test_filename_is_content_addressed(self):
        assert entry_filename(make_entry()) == entry_filename(make_entry())
        other = entry_for(busy_scenario(), [])
        assert entry_filename(other) != entry_filename(make_entry())

    def test_save_load_round_trip_and_dedup(self, tmp_path):
        first = save_entry(str(tmp_path), make_entry())
        second = save_entry(str(tmp_path), make_entry())
        assert first == second  # same failure found twice: one file
        loaded = load_entry(first)
        assert loaded["oracle"] == make_entry()["oracle"]
        assert scenario_of(loaded) == busy_scenario()
        [(path, entry)] = iter_entries(str(tmp_path))
        assert path == first
        assert scenario_of(entry) == busy_scenario()

    def test_unknown_schema_rejected(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": "nope/1"}))
        with pytest.raises(ValueError):
            load_entry(str(bad))

    def test_missing_corpus_dir_is_empty(self, tmp_path):
        assert iter_entries(str(tmp_path / "absent")) == []
