"""Structured-text run reports for the CLI.

A report is an ordered list of key/value lines; each failed check is a
FAIL line naming its invariant.  Everything except the wall-time line is
reproducible for fixed inputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass
class RunReport:
    command: str
    entries: list[tuple[str, str]] = field(default_factory=list)

    def add(self, key: str, value) -> None:
        self.entries.append((key, str(value)))

    def fail(self, invariant: str) -> None:
        self.add("FAIL", invariant)

    def skip(self, what: str) -> None:
        self.add("SKIP", what)

    @property
    def ok(self) -> bool:
        return all(key != "FAIL" for key, _ in self.entries)

    def render(self) -> str:
        lines = [f"command: {self.command}"]
        lines.extend(f"{key}: {value}" for key, value in self.entries)
        lines.append(f"status: {'ok' if self.ok else 'FAILED'}")
        return "\n".join(lines) + "\n"
