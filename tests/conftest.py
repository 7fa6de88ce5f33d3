"""Shared fixtures."""

import builtins
import io
import os
import pathlib
import threading

import pytest


class MetaOpRecorder:
    """Records filesystem metadata operations: every unlink, every
    truncate, and every open that may create or truncate a file."""

    CREATE_FLAGS = os.O_CREAT | os.O_TRUNC

    def __init__(self):
        self._lock = threading.Lock()
        self.ops = []              # (kind, path)
        self.armed = False

    def note(self, kind, path):
        if self.armed:
            with self._lock:
                self.ops.append((kind, str(path)))


@pytest.fixture
def meta_ops(monkeypatch):
    """Patch ``os.unlink``/``os.remove``/``Path.unlink``/truncates and
    ``open``/``os.open`` flags; set ``.armed`` to start recording."""
    rec = MetaOpRecorder()
    real_open, real_os_open = builtins.open, os.open
    real_unlink, real_remove = os.unlink, os.remove
    real_truncate, real_ftruncate = os.truncate, os.ftruncate
    real_path_unlink = pathlib.Path.unlink

    def spy_open(file, mode="r", *args, **kwargs):
        if isinstance(mode, str) and any(c in mode for c in "wxa"):
            rec.note(f"open:{mode}", file)
        return real_open(file, mode, *args, **kwargs)

    def spy_os_open(path, flags, *args, **kwargs):
        if flags & MetaOpRecorder.CREATE_FLAGS:
            rec.note("os.open:create/trunc", path)
        return real_os_open(path, flags, *args, **kwargs)

    def spy(kind, real):
        def wrapper(path, *args, **kwargs):
            rec.note(kind, path)
            return real(path, *args, **kwargs)
        return wrapper

    def spy_path_unlink(self, missing_ok=False):
        rec.note("Path.unlink", self)
        return real_path_unlink(self, missing_ok=missing_ok)

    monkeypatch.setattr(builtins, "open", spy_open)
    monkeypatch.setattr(io, "open", spy_open)
    monkeypatch.setattr(os, "open", spy_os_open)
    monkeypatch.setattr(os, "unlink", spy("os.unlink", real_unlink))
    monkeypatch.setattr(os, "remove", spy("os.remove", real_remove))
    monkeypatch.setattr(os, "truncate",
                        spy("os.truncate", real_truncate))
    monkeypatch.setattr(os, "ftruncate",
                        spy("os.ftruncate", real_ftruncate))
    monkeypatch.setattr(pathlib.Path, "unlink", spy_path_unlink)
    return rec
