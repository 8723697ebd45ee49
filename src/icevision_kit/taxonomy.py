"""Hierarchical traffic-sign class codes and the registry of known codes.

Russian sign codes are dot-separated, up to three levels deep: "3" is a
top-level category, "3.24" a second-level code (speed limit), "5.19.1" a
fully specific one.  A shorter code is a *superclass* of any code it
prefixes.
"""

from __future__ import annotations

import functools
import io
from dataclasses import dataclass
from importlib import resources

MAX_LEVELS = 3

_BUNDLED_REGISTRY = "ru_signs.txt"


def is_ascii_digits(text: str) -> bool:
    """True for a non-empty run of the ASCII digits 0-9 (``str.isdigit``
    also accepts digits such as "²", which ``int`` rejects, and "٣")."""
    return text.isascii() and text.isdigit()


@dataclass(frozen=True, order=True)
class ClassCode:
    """A sign class code as a tuple of positive integer segments."""

    segments: tuple[int, ...]

    def __post_init__(self) -> None:
        if not 1 <= len(self.segments) <= MAX_LEVELS:
            raise ValueError(f"code must have 1..{MAX_LEVELS} segments, got {self.segments!r}")
        if any(s < 1 for s in self.segments):
            raise ValueError(f"code segments must be >= 1, got {self.segments!r}")

    @classmethod
    @functools.lru_cache(maxsize=4096)
    def parse(cls, text: str) -> ClassCode:
        """Parse a dot-separated code such as "3.24" or "5.19.1".

        Successful parses are cached and a code is one shared (immutable)
        instance; a malformed code raises on every call."""
        parts = text.strip().split(".")
        if parts == [""]:
            raise ValueError("empty class code")
        segments = []
        for part in parts:
            if not is_ascii_digits(part):
                raise ValueError(f"non-numeric segment {part!r} in code {text!r}")
            segments.append(int(part))
        return _interned(tuple(segments))

    @property
    def level(self) -> int:
        """Depth of the code: 1 (top), 2, or 3 (most specific)."""
        return len(self.segments)

    @property
    def parent(self) -> ClassCode | None:
        """The code one level up, or None for a top-level code."""
        if len(self.segments) == 1:
            return None
        return _interned(self.segments[:-1])

    def prefix(self, level: int) -> ClassCode:
        """The ancestor of this code at the given level (may be itself)."""
        if not 1 <= level <= len(self.segments):
            raise ValueError(f"level {level} out of range for {self}")
        return _interned(self.segments[:level])

    def is_superclass_of(self, other: ClassCode) -> bool:
        """True iff this code is a strict prefix of ``other``.

        An exact match is not a superclass: "3.24" is a superclass of
        "3.24.1" but not of itself.
        """
        return (
            len(self.segments) < len(other.segments)
            and other.segments[: len(self.segments)] == self.segments
        )

    def __str__(self) -> str:
        return ".".join(str(s) for s in self.segments)


# one shared instance per code for parse, parent and prefix (the bundled
# registry lists a few hundred codes)
_interned = functools.lru_cache(maxsize=4096)(ClassCode)


def parse_code(text: str) -> ClassCode:
    """Module-level alias for :meth:`ClassCode.parse`."""
    return ClassCode.parse(text)


class Taxonomy:
    """The set of concrete sign codes: their canonical order and siblings.

    Loaded from a plain-text registry: UTF-8, one code per line (lines end
    at ``\\r\\n``, ``\\r`` or ``\\n``, as in a record file), ``#`` comments.
    Wildcards are not supported; every concrete code is listed.  Immutable
    after construction.
    """

    def __init__(self, leaves: list[ClassCode]):
        seen: set[ClassCode] = set()
        for code in leaves:
            if code in seen:
                raise ValueError(f"duplicate registry entry {code}")
            seen.add(code)
        self._leaves: tuple[ClassCode, ...] = tuple(sorted(leaves))
        self._children: dict[ClassCode | None, list[ClassCode]] = {}
        for code in self._leaves:
            self._children.setdefault(code.parent, []).append(code)

    @classmethod
    def from_text(cls, text: str) -> Taxonomy:
        leaves = []
        for raw in io.StringIO(text, newline=None):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                leaves.append(ClassCode.parse(line))
            except ValueError as exc:
                raise ValueError(f"bad registry entry {line!r}: {exc}") from exc
        return cls(leaves)

    @classmethod
    @functools.cache
    def bundled(cls) -> Taxonomy:
        """The registry shipped with the package (best-effort transcription
        of the Russian sign code space; a data file, not ground truth),
        parsed once and shared: a taxonomy is immutable."""
        text = resources.files(__package__).joinpath("data", _BUNDLED_REGISTRY).read_text("utf-8")
        return cls.from_text(text)

    @property
    def leaves(self) -> tuple[ClassCode, ...]:
        """All concrete (listed) codes, in canonical order."""
        return self._leaves

    def siblings(self, code: ClassCode) -> tuple[ClassCode, ...]:
        """Other listed codes sharing ``code``'s parent (same level)."""
        return tuple(c for c in self._children.get(code.parent, ()) if c != code)
