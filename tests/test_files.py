import os
import stat

import pytest

from hodgetrack._files import write_json, write_text


def test_write_text_replaces_the_target(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    write_text(target, "new\n")
    assert target.read_text() == "new\n"
    assert os.listdir(tmp_path) == ["out.txt"]


def test_write_json_layout(tmp_path):
    target = tmp_path / "out.json"
    write_json(target, {"b": [1.5, None], "a": 1})
    assert target.read_text() == '{\n "a": 1,\n "b": [\n  1.5,\n  null\n ]\n}\n'


@pytest.mark.parametrize("umask, mode", [(0o022, 0o644), (0o077, 0o600)])
def test_new_files_take_their_mode_from_the_umask(tmp_path, umask, mode):
    old = os.umask(umask)
    try:
        write_text(tmp_path / "out.txt", "x\n")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "out.txt").stat().st_mode) == mode


def test_failed_write_leaves_the_target_and_no_temporary(tmp_path):
    target = tmp_path / "out.txt"
    target.write_text("old\n")
    with pytest.raises(TypeError):
        write_text(target, b"not text")
    assert target.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["out.txt"]


@pytest.mark.parametrize("error", [OSError, KeyboardInterrupt])
def test_failed_rename_leaves_no_temporary(tmp_path, monkeypatch, error):
    def fail(src, dst):
        raise error("rename failed")

    monkeypatch.setattr(os, "replace", fail)
    with pytest.raises(error):
        write_text(tmp_path / "out.txt", "new\n")
    assert os.listdir(tmp_path) == []
