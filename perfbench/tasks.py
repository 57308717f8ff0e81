"""One timed operation of a workload and the check of its output."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable


@dataclass
class Task:
    name: str
    group: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
