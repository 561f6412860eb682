"""One rule violation at one source location."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Union


@dataclass(frozen=True, order=True, slots=True)
class Finding:
    """A single lint finding.

    Ordering is (path, line, col, code, message) so that any collection
    of findings sorts into one canonical, byte-stable report order.
    """

    path: str
    line: int
    col: int
    code: str
    message: str

    def render(self) -> str:
        # columns are 0-based in ast; print 1-based like every other linter
        return (f"{self.path}:{self.line}:{self.col + 1}: "
                f"{self.code} {self.message}")

    def to_dict(self) -> Dict[str, Union[str, int]]:
        return {
            "path": self.path,
            "line": self.line,
            "col": self.col,
            "code": self.code,
            "message": self.message,
        }
