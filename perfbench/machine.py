"""What the benchmark records about the machine it ran on.

Everything here is read from files or the standard library; nothing on the
machine is changed.  The record goes into every output file.
"""

from __future__ import annotations

import hashlib
import os
import platform
import sys
from pathlib import Path

NOTE = (
    "times are this benchmark's own processes only; other processes, another "
    "benchmark included, may share these cores, so compare loadavg_start and "
    "loadavg_end before trusting a wall time"
)


def _read(path: str) -> str | None:
    try:
        with open(path, encoding="utf-8") as fp:
            return fp.read().strip()
    except OSError:
        return None


def loadavg() -> str | None:
    return _read("/proc/loadavg")


def _proc_field(path: str, key: str) -> str | None:
    for line in (_read(path) or "").splitlines():
        name, _, value = line.partition(":")
        if name.strip() == key:
            return value.strip()
    return None


def _git_head(root: Path) -> str | None:
    """The checked-out commit, read from .git without running git; None when
    the tree is not a git checkout."""
    head = _read(str(root / ".git" / "HEAD"))
    if head is None or not head.startswith("ref: "):
        return head
    ref = head[len("ref: "):]
    commit = _read(str(root / ".git" / ref))
    if commit is not None:
        return commit
    for line in (_read(str(root / ".git" / "packed-refs")) or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def source_digest(root: Path) -> str:
    """sha256 over src/delins/*.py, names and contents, so runs of a tree
    that is not a git checkout still say which code they measured."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "delins").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def machine_record(root: Path, seed: int) -> dict:
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _proc_field("/proc/cpuinfo", "model name"),
        "cpu_mhz": _proc_field("/proc/cpuinfo", "cpu MHz"),
        "mem_total": _proc_field("/proc/meminfo", "MemTotal"),
        "cgroup_cpu_max": _read("/sys/fs/cgroup/cpu.max"),
        "python": sys.version,
        "python_implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "loadavg_start": loadavg(),
        "commit": _git_head(root),
        "src_sha256": source_digest(root),
        "seed": seed,
        "note": NOTE,
    }
