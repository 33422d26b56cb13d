"""Scenario files: flat `section.key = value` lines with # comments.

Grammar (documented in the README):
  - one assignment per line, `domain.N1 = 16`
  - full-line comments start with #, blank lines ignored
  - values parse as int, float, comma vectors of floats, or bare strings,
    by the key's field
  - unknown keys are errors, with the line number reported
"""

from __future__ import annotations

import dataclasses
from pathlib import Path

try:  # CPython's own SHA-256, which maps no OpenSSL into the process
    from _sha2 import sha256  # 3.12+
except ImportError:
    from _sha256 import sha256

from .errors import ScenarioError
from .solver import ScenarioConfig

# scenario key -> ScenarioConfig field, as each field declares it
KEY_MAP = {f.metadata["key"]: f.name for f in dataclasses.fields(ScenarioConfig)}

# ScenarioConfig field -> the type of its default, which is the value's type
_FIELD_TYPES = {f.name: type(f.default) for f in dataclasses.fields(ScenarioConfig)}


def _parse_value(raw: str, fieldname: str, lineno: int):
    raw = raw.strip()
    kind = _FIELD_TYPES[fieldname]
    if kind is tuple:
        try:
            return tuple(float(x) for x in raw.split(","))
        except ValueError:
            raise ScenarioError(f"line {lineno}: cannot parse vector {raw!r}")
    if kind is int:
        try:
            return int(raw)
        except ValueError:
            raise ScenarioError(f"line {lineno}: cannot parse integer {raw!r}")
    if kind is str:
        return raw
    try:
        return float(raw)
    except ValueError:
        raise ScenarioError(f"line {lineno}: cannot parse number {raw!r}")


def parse_scenario_text(text: str) -> ScenarioConfig:
    overrides = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        if "=" not in stripped:
            raise ScenarioError(f"line {lineno}: expected `key = value`, got {line!r}")
        key, _, raw = stripped.partition("=")
        key = key.strip()
        if key not in KEY_MAP:
            raise ScenarioError(f"line {lineno}: unknown key {key!r}")
        fieldname = KEY_MAP[key]
        if fieldname in overrides:
            raise ScenarioError(f"line {lineno}: duplicate key {key!r}")
        overrides[fieldname] = _parse_value(raw, fieldname, lineno)
    config = ScenarioConfig(**overrides)
    config.validate()
    return config


def read_scenario(path) -> tuple[str, str]:
    """The text of the scenario file at path, decoded as UTF-8 with a
    leading byte-order mark dropped, and the sha256 hex digest of the bytes
    as read, which name what a run parsed; a file that is not UTF-8 is a
    ScenarioError."""
    p = Path(path)
    if not p.is_file():
        raise ScenarioError(f"scenario file not found: {p}")
    data = p.read_bytes()
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"scenario file {p} is not UTF-8: byte {exc.start} cannot be decoded") from None
    return text, sha256(data).hexdigest()


def load_scenario(path) -> ScenarioConfig:
    return parse_scenario_text(read_scenario(path)[0])


def set_key(text: str, key: str, value) -> str:
    """Return scenario text with `key` set to `value` (replace or append)."""
    if key not in KEY_MAP:
        raise ScenarioError(f"unknown key {key!r}")
    lines = text.splitlines()
    out = []
    replaced = False
    for line in lines:
        stripped = line.strip()
        if stripped and not stripped.startswith("#") and "=" in stripped:
            k = stripped.partition("=")[0].strip()
            if k == key:
                out.append(f"{key} = {value}")
                replaced = True
                continue
        out.append(line)
    if not replaced:
        out.append(f"{key} = {value}")
    return "\n".join(out) + "\n"


def bundled_scenario_path(name: str) -> Path:
    here = Path(__file__).parent / "scenarios" / f"{name}.scn"
    if not here.is_file():
        raise ScenarioError(f"no bundled scenario named {name!r}")
    return here
