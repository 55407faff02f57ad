"""Flat sectioned key-value run configuration.

The format is INI-like with no nesting: ``[section]`` headers and
``key = value`` lines; ``#`` starts a comment.  Parse errors carry line
numbers, and typed getters raise :class:`ConfigError` naming the section,
key and offending text.
"""

from __future__ import annotations


class ConfigError(ValueError):
    """Configuration problem; message carries file/line context."""


_REQUIRED = object()


class RunConfig:
    def __init__(self, sections, path="<config>"):
        self.sections = sections
        self.path = path
        self.raw_text = ""

    def has(self, section, key=None):
        if key is None:
            return section in self.sections
        return section in self.sections and key in self.sections[section]

    def _converted(self, section, key, default, convert, kind):
        """``convert`` of the [section] key text; ``default`` if the key is absent."""
        if not self.has(section, key):
            if default is _REQUIRED:
                raise ConfigError(f"{self.path}: missing [{section}] {key}")
            return default
        raw = self.sections[section][key]
        try:
            return convert(raw)
        except ValueError:
            raise ConfigError(
                f"{self.path}: [{section}] {key} must be {kind}, got {raw!r}"
            ) from None

    def get_str(self, section, key, default=_REQUIRED):
        return self._converted(section, key, default, str, "text")

    def get_float(self, section, key, default=_REQUIRED):
        return self._converted(section, key, default, float, "a number")

    def get_int(self, section, key, default=_REQUIRED):
        return self._converted(section, key, default, int, "an integer")

    def get_floats(self, section, key, default=_REQUIRED):
        return self._converted(section, key, default, _float_list, "a number list")


def _float_list(raw):
    return [float(tok) for tok in raw.replace(",", " ").split()]


def parse_config_text(text, path="<config>"):
    sections = {}
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if stripped.startswith("["):
            if not stripped.endswith("]") or len(stripped) < 3:
                raise ConfigError(f"{path}:{lineno}: malformed section header {line!r}")
            current = stripped[1:-1].strip()
            sections.setdefault(current, {})
            continue
        if "=" not in stripped:
            raise ConfigError(f"{path}:{lineno}: expected key = value, got {line!r}")
        if current is None:
            raise ConfigError(f"{path}:{lineno}: key outside any [section]")
        key, _, value = stripped.partition("=")
        key = key.strip()
        if not key:
            raise ConfigError(f"{path}:{lineno}: empty key")
        sections[current][key] = value.strip()
    cfg = RunConfig(sections, path)
    cfg.raw_text = text
    return cfg


def load_config(path):
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from None
    return parse_config_text(text, str(path))
