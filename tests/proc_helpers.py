"""Process-table helpers for tests of worker lifetimes (Linux ``/proc``)."""

from __future__ import annotations

from pathlib import Path
from typing import List, Optional


def _stat_fields(pid: int) -> Optional[List[str]]:
    """Fields after the ``(comm)`` of ``/proc/<pid>/stat``, or None."""
    try:
        text = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return None
    return text.rsplit(")", 1)[1].split()


def children(pid: int) -> List[int]:
    """PIDs whose parent is ``pid``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            fields = _stat_fields(int(entry.name))
            if fields is not None and int(fields[1]) == pid:
                found.append(int(entry.name))
    return found


def parent_of(pid: int) -> Optional[int]:
    """The parent pid of ``pid``, or None once it is gone."""
    fields = _stat_fields(pid)
    return None if fields is None else int(fields[1])


def running_with_argument(text: str) -> List[int]:
    """Live PIDs one of whose command-line arguments contains ``text``."""
    found = []
    for entry in Path("/proc").iterdir():
        if entry.name.isdigit():
            try:
                arguments = (entry / "cmdline").read_bytes().split(b"\0")
            except OSError:
                continue
            if any(text.encode() in argument for argument in arguments) \
                    and alive(int(entry.name)):
                found.append(int(entry.name))
    return found


def alive(pid: int) -> bool:
    """True unless ``pid`` is gone or a zombie awaiting its reaper."""
    fields = _stat_fields(pid)
    return fields is not None and fields[0] != "Z"
