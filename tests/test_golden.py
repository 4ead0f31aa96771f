"""The CLI's payloads against tests/golden/ (see golden_cli): README's
`chen3 ...` examples and three more transference runs, each in-process in its
own directory."""

import json

import pytest

from golden_cli import EXTRA_COMMANDS, GOLDEN_DIR, commands, differences, golden_path, readme_commands, run

GOLDEN = sorted(GOLDEN_DIR.glob("*.json"))


def test_every_readme_command_has_a_golden_file():
    assert len(readme_commands()) >= 10
    assert [c for c in commands() if not golden_path(c).is_file()] == []
    recorded = {json.loads(path.read_text())["command"] for path in GOLDEN}
    assert recorded == set(commands())
    assert set(EXTRA_COMMANDS) <= recorded


@pytest.mark.parametrize("path", GOLDEN, ids=[path.stem for path in GOLDEN])
def test_payload_matches_golden(path, tmp_path, monkeypatch):
    want = json.loads(path.read_text())
    monkeypatch.chdir(tmp_path)
    assert differences(run(want["command"]), want) == []


def test_differences_tolerance():
    assert differences({"x": [1, 1.0, "a", True]}, {"x": [1, 1.0 + 1e-13, "a", True]}) == []
    assert differences({"x": 1.0}, {"x": 1.0 + 1e-11}) != []
    assert differences({"x": 1}, {"x": 1.0}) != []  # an int that became a float
    assert differences({"x": True}, {"x": 1}) != []
    assert differences({"csv": {"a.csv": ["p,q", "2,0.5"]}}, {"csv": {"a.csv": ["p,q", "2,0.5000000000001"]}}) == []
    assert differences({"csv": {"a.csv": ["p,q", "3,0.5"]}}, {"csv": {"a.csv": ["p,q", "2,0.5"]}}) != []
