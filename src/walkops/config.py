"""Run configuration: a plain key-value/section text file (INI dialect).

A config names the group, the measure (inline or by file), cache depth,
radii, tolerances and per-command parameters.  Parsed configs round-trip
through ``to_text`` so runs can be archived next to their outputs.
"""

from __future__ import annotations

import configparser
import hashlib
import io
from dataclasses import dataclass, field
from pathlib import Path

from .errors import ElementParseError, PreconditionError
from .groups import GroupDescriptor, descriptor_from_string
from .measures import ScaledMeasure, parse_measure

_DEFAULTS = {
    "walk": {
        "depth": "256",
        "support_cap": "2000000",
        "memory_budget_mb": "512",
    },
    "kernel": {"x_radius": "2", "y_radius": "2", "closed_form_compare": "false"},
    "radical": {"ball_radius": "2", "probe_radius": "1", "tolerance": "0"},
    "metric": {"ball_radius": "2", "pairs": ""},
    "boundary": {
        "ray": "", "elements": "", "k_min": "6", "k_max": "12",
        "probe_radius": "2", "ball_radius": "2", "tolerance": "0.01",
    },
    "fock": {
        "max_level": "16", "x_radius": "2", "z_radius": "2",
        "interior_margin": "4", "n": "1", "x": "e", "y": "",
    },
    "covariance": {"g": "", "zeta": "1", "n": "1", "x": "", "y": ""},
    "report": {"jobs": "spectrum kernel radical"},
    "tolerances": {"exact": "1e-12"},
    "output": {"directory": "out"},
}
# the keys each section takes
_KEYS = {"group": ("family",), "measure": ("inline", "file"), **_DEFAULTS}


@dataclass
class RunConfig:
    descriptor: GroupDescriptor
    measure: ScaledMeasure
    sections: dict = field(default_factory=dict)
    seed: int = 7

    @classmethod
    def from_text(cls, text: str, base_dir: str | Path = ".") -> "RunConfig":
        parser = configparser.ConfigParser()
        parser.read_string(text)
        for name in parser.sections():
            known = _KEYS.get(name)
            if known is None:
                raise PreconditionError(f"[{name}] is not a config section")
            for key in parser.options(name):
                if key not in known:
                    raise PreconditionError(f"[{name}] {key} is not a config key")
        if not parser.has_section("group") or not parser.has_option("group", "family"):
            raise ElementParseError("config needs [group] family = ...")
        descriptor = descriptor_from_string(parser.get("group", "family"))
        if not parser.has_section("measure"):
            raise ElementParseError("config needs a [measure] section")
        if parser.has_option("measure", "inline") and parser.has_option("measure", "file"):
            raise PreconditionError("[measure] takes 'inline' or 'file', not both")
        if parser.has_option("measure", "inline"):
            measure_text = parser.get("measure", "inline")
        elif parser.has_option("measure", "file"):
            path = Path(base_dir) / parser.get("measure", "file")
            measure_text = path.read_text(encoding="utf-8")
        else:
            raise ElementParseError("[measure] needs 'inline' lines or a 'file' path")
        measure = parse_measure(measure_text, descriptor)
        sections = {}
        for name, defaults in _DEFAULTS.items():
            sections[name] = dict(defaults)
            if parser.has_section(name):
                sections[name].update(dict(parser.items(name)))
        sections["group"] = {"family": descriptor.spec_string()}
        sections["measure"] = {"inline": measure_text.strip()}
        cfg = cls(descriptor=descriptor, measure=measure, sections=sections)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "RunConfig":
        path = Path(path)
        return cls.from_text(path.read_text(encoding="utf-8"), base_dir=path.parent)

    def validate(self):
        if self.getint("walk", "depth") < 1:
            raise PreconditionError("walk depth must be positive")
        for section, key in (
            ("kernel", "x_radius"), ("kernel", "y_radius"),
            ("radical", "ball_radius"), ("radical", "probe_radius"),
            ("metric", "ball_radius"), ("boundary", "ball_radius"),
            ("boundary", "probe_radius"),
            ("fock", "max_level"), ("fock", "x_radius"), ("fock", "z_radius"),
            ("fock", "interior_margin"),
        ):
            if self.getint(section, key) < 0:
                raise PreconditionError(f"[{section}] {key} must be nonnegative")
        if self.get("boundary", "ray").strip() and self.get("boundary", "elements").strip():
            raise PreconditionError("[boundary] takes 'ray' or 'elements', not both")
        if self.getint("boundary", "k_min") > self.getint("boundary", "k_max"):
            raise PreconditionError("[boundary] k_min must not exceed k_max")
        exact = self.getfloat("tolerances", "exact")
        if not 0.0 < exact < 1.0:
            raise PreconditionError("[tolerances] exact must lie in (0, 1)")

    # -- typed getters --------------------------------------------------------

    def get(self, section: str, key: str) -> str:
        return self.sections[section][key]

    def getint(self, section: str, key: str) -> int:
        return int(self.sections[section][key])

    def getfloat(self, section: str, key: str) -> float:
        return float(self.sections[section][key])

    def getbool(self, section: str, key: str) -> bool:
        return self.sections[section][key].strip().lower() in ("1", "true", "yes", "on")

    def set(self, section: str, key: str, value) -> None:
        self.sections.setdefault(section, {})[key] = str(value)

    def element(self, section: str, key: str):
        return self.descriptor.parse(self.get(section, key))

    def element_pairs(self, section: str, key: str) -> list:
        """Parse 'y z; y2 z2; ...' into element pairs."""
        out = []
        for chunk in self.get(section, key).split(";"):
            chunk = chunk.strip()
            if not chunk:
                continue
            parts = chunk.split()
            if len(parts) != 2:
                raise ElementParseError(f"[{section}] {key}: expected 'y z' pairs")
            out.append((self.descriptor.parse(parts[0]),
                        self.descriptor.parse(parts[1])))
        return out

    # -- serialization ---------------------------------------------------------

    def to_text(self) -> str:
        parser = configparser.ConfigParser()
        for name in sorted(self.sections):
            parser.add_section(name)
            for key in sorted(self.sections[name]):
                value = self.sections[name][key]
                if "\n" in value:
                    value = "\n" + value
                parser.set(name, key, value)
        buf = io.StringIO()
        parser.write(buf)
        return buf.getvalue()

    def content_hash(self) -> str:
        """Hash of (descriptor, measure, depth): the cache identity."""
        h = hashlib.sha256()
        h.update(self.descriptor.spec_string().encode())
        for g, v in sorted(
            self.measure.support.items(),
            key=lambda gv: self.descriptor.sort_key(gv[0]),
        ):
            h.update(f"{self.descriptor.format(g)}={v!r};".encode())
        h.update(f"log_scale={self.measure.log_scale!r};".encode())
        h.update(f"depth={self.getint('walk', 'depth')}".encode())
        return h.hexdigest()[:16]
