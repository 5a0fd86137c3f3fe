"""UTF-8 `key = value` text format used by config files, manifests and
checkpoint headers, and the one codec that spells a config in it."""

from __future__ import annotations

import dataclasses
import functools
import typing

from .errors import ConfigError


def parse_kv(text: str) -> dict[str, str]:
    """key -> value of each `key = value` line; blank and `#` lines are
    skipped, and a malformed line or a key set twice is a ConfigError."""
    out: dict[str, str] = {}
    first_line: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key = key.strip()
        if key in first_line:
            raise ConfigError(f"line {lineno}: key {key} is already set on line "
                              f"{first_line[key]}")
        first_line[key] = lineno
        out[key] = value.strip()
    return out


def _joined(sep: str, item=(int, str), size: int | None = None):
    """(parse, spell) of a tuple of `item`s joined by `sep`, holding exactly
    `size` items unless `size` is None; the empty text is ()."""
    parse, spell = item

    def parse_all(text: str) -> tuple:
        values = tuple(parse(v) for v in text.split(sep)) if text else ()
        if size not in (None, len(values)):
            raise ValueError(f"expected {size} values joined by {sep!r}")
        return values
    return parse_all, lambda value: sep.join([spell(v) for v in value])


# field annotation -> (parse a value's text, spell a value, how the text
# reads); numbers and strings are spelled as text
_SPELLINGS = {
    **{t: (t, str, t.__name__) for t in (int, float, str)},
    tuple[int, int]: (*_joined("x", size=2), "HxW"),
    tuple[int, ...]: (*_joined(","), "a,b"),
    tuple[tuple[int, int], ...]: (*_joined(",", _joined("/", size=2)), "w/s,w/s"),
    tuple[tuple[int, ...], ...]: (*_joined("|", _joined(",")), "a,b|c"),
}


@functools.cache
def _fields(cls) -> tuple:
    """(name, key, parse, spell, form, required) per field of `cls`, in
    field order."""
    hints = typing.get_type_hints(cls)
    return tuple((f.name, f.metadata.get("key", f.name), *_SPELLINGS[hints[f.name]],
                  f.default is dataclasses.MISSING) for f in dataclasses.fields(cls))


class KvConfig:
    """Base of the config dataclasses: one `key = value` line per field, in
    field order, spelled by its annotation; metadata `key` renames a field."""

    @classmethod
    def keys(cls) -> tuple[str, ...]:
        return tuple(key for _, key, *_ in _fields(cls))

    @classmethod
    def forms(cls) -> dict[str, str]:
        """How each key's text reads: `int`, `HxW`, `a,b`, ..."""
        return {key: form for _, key, _, _, form, _ in _fields(cls)}

    def to_kv(self) -> dict[str, str]:
        return {key: spell(getattr(self, name))
                for name, key, _, spell, _, _ in _fields(type(self))}

    def to_text(self) -> str:
        return "".join([f"{key} = {spell(getattr(self, name))}\n"
                        for name, key, _, spell, _, _ in _fields(type(self))])

    @classmethod
    def from_kv(cls, kv: dict[str, str]):
        """Other keys are ignored and an absent field takes its default; a
        malformed value or a missing required field is a ConfigError."""
        values = {}
        for name, key, parse, _, _, required in _fields(cls):
            if key in kv:
                try:
                    values[name] = parse(kv[key])
                except ValueError as exc:
                    raise ConfigError(f"bad {key} {kv[key]!r}: {exc}") from exc
            elif required:
                raise ConfigError(f"missing key {key}")
        return cls(**values)

    @classmethod
    def from_text(cls, text: str):
        return cls.from_kv(parse_kv(text))
