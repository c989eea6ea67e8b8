"""Checks that hold in every test."""

import json

import pytest

import agree.io


@pytest.fixture(autouse=True)
def dumps_matches_json(monkeypatch):
    """Every document the engine writes through ``agree.io.dumps`` during a
    test (the CLI's outputs) must be ``json``'s canonical text."""
    dumps = agree.io.dumps

    def checked(doc):
        text = dumps(doc)
        assert text == json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
        return text

    monkeypatch.setattr(agree.io, "dumps", checked)
