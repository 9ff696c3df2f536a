"""Run configuration: an INI text file read once into typed, checked records.

``RunConfig.from_text`` builds one frozen record per section (``cfg.walk.depth``,
``cfg.boundary.sequence``, ...) from one schema of defaults and parsers.  Every
key is parsed and range-checked there, and every rule that ties keys together is
applied there, so the jobs parse nothing.
"""

from __future__ import annotations

import configparser
import hashlib
import math
from dataclasses import dataclass, make_dataclass
from itertools import accumulate
from pathlib import Path

from .errors import ElementParseError, PreconditionError
from .groups import GroupDescriptor, _parse_int, _split_top, descriptor_from_string
from .measures import ScaledMeasure, parse_measure

# -- key parsers: (text, descriptor) -> value; ValueError on a bad value -------


def _number(kind, ok, rule: str):
    def parse(text, desc):
        value = kind(text)
        if not ok(value):
            raise ValueError(f"must be {rule}")
        return value

    return parse


_COUNT = _number(_parse_int, lambda v: v >= 0, "a nonnegative integer")
_POSITIVE = _number(_parse_int, lambda v: v >= 1, "a positive integer")
_TOLERANCE = _number(float, lambda v: 0.0 <= v < math.inf, "finite and nonnegative")
_BOOLEANS = configparser.ConfigParser.BOOLEAN_STATES


def _bool(text, desc):
    if text.lower() not in _BOOLEANS:
        raise ValueError("must be true/false, yes/no, on/off or 1/0")
    return _BOOLEANS[text.lower()]


def _complex(text, desc):
    return complex(text.replace("i", "j"))


def _element(text, desc):
    """An element, or None when the key is empty."""
    return desc.parse(text) if text else None


def _element_or_generator(text, desc):
    return desc.parse(text) if text else desc.generators()[0]


def _elements(text, desc):
    """'y1, y2, ...' as a tuple of elements; only top-level commas split."""
    return tuple(desc.parse(t) for t in _split_top(text, ",") if t.strip())


def _pairs(text, desc):
    """'y z; y2 z2; ...' as a tuple of element pairs; only top-level ';' and
    whitespace split."""
    pairs = [_split_top(chunk, None) for chunk in _split_top(text, ";") if chunk.strip()]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError("expected 'y z' pairs")
    return tuple((desc.parse(y), desc.parse(z)) for y, z in pairs)


# section -> key -> (default text, parser); every key, written once
_SCHEMA = {
    "walk": {"depth": ("256", _POSITIVE), "support_cap": ("2000000", _POSITIVE)},
    "kernel": {"x_radius": ("2", _COUNT), "y_radius": ("2", _COUNT),
               "closed_form_compare": ("false", _bool)},
    # a radical tolerance of 0 asks for the automatic tolerance
    "radical": {"ball_radius": ("2", _COUNT), "probe_radius": ("1", _COUNT),
                "tolerance": ("0", _TOLERANCE)},
    "metric": {"ball_radius": ("2", _COUNT), "pairs": ("", _pairs)},
    "boundary": {"ray": ("", _element), "elements": ("", _elements),
                 "k_min": ("6", _POSITIVE), "k_max": ("12", _POSITIVE),
                 "probe_radius": ("2", _COUNT), "ball_radius": ("2", _COUNT),
                 "tolerance": ("0.01", _TOLERANCE)},
    "fock": {"max_level": ("16", _COUNT), "x_radius": ("2", _COUNT),
             "z_radius": ("2", _COUNT), "interior_margin": ("4", _COUNT),
             "n": ("1", _COUNT), "x": ("e", _element), "y": ("", _element_or_generator)},
    "covariance": {"g": ("", _element), "zeta": ("1", _complex), "n": ("1", _COUNT),
                   "x": ("", _element), "y": ("", _element)},
    "report": {"jobs": ("spectrum kernel radical", lambda text, desc: tuple(text.split()))},
    "tolerances": {"exact": ("1e-12", _number(float, lambda v: 0.0 < v < 1.0, "in (0, 1)"))},
    "output": {"directory": ("out", lambda text, desc: text)},
}
# one frozen record type per section, a field per key; the boundary record
# also holds the sequence it names (ray^k_min .. ray^k_max, or the elements)
_RECORDS = {name: make_dataclass(name.title(), list(keys), frozen=True)
            for name, keys in _SCHEMA.items()}
_RECORDS["boundary"] = make_dataclass("Boundary", [*_SCHEMA["boundary"], "sequence"],
                                      frozen=True)
# the keys each section takes
_KEYS = {"group": ("family",), "measure": ("inline", "file"), **_SCHEMA}


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise PreconditionError(f"cannot read {path}: {exc}") from None


def _ini(text: str) -> dict:
    """The file's sections as {name: {key: text}}, every name known."""
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text)
        ini = {name: dict(parser.items(name)) for name in parser.sections()}
    except configparser.Error as exc:
        raise PreconditionError(" ".join(str(exc).split())) from None
    for name, keys in ini.items():
        known = _KEYS.get(name)
        if known is None:
            raise PreconditionError(f"[{name}] is not a config section")
        for key in keys:
            if key not in known:
                raise PreconditionError(f"[{name}] {key} is not a config key")
    return ini


def _check(values: dict) -> None:
    """The rules that tie keys together."""
    b, f = values["boundary"], values["fock"]
    if b["ray"] is not None and b["elements"]:
        raise PreconditionError("[boundary] takes 'ray' or 'elements', not both")
    if b["k_min"] > b["k_max"]:
        raise PreconditionError(f"[boundary] k_min = {b['k_min']} must not exceed "
                                f"[boundary] k_max = {b['k_max']}")
    if not 1 <= f["interior_margin"] <= f["max_level"]:
        raise PreconditionError(f"[fock] interior_margin = {f['interior_margin']} must lie "
                                f"between 1 and [fock] max_level = {f['max_level']}")
    zeta = values["covariance"]["zeta"]
    if not abs(abs(zeta) - 1.0) <= values["tolerances"]["exact"]:
        raise PreconditionError(f"[covariance] zeta: the gauge U_zeta needs |zeta| = 1 "
                                f"within [tolerances] exact, got zeta = {zeta!r}")


@dataclass(frozen=True)
class RunConfig:
    descriptor: GroupDescriptor
    measure: ScaledMeasure
    # one record per _SCHEMA section
    walk: object
    kernel: object
    radical: object
    metric: object
    boundary: object
    fock: object
    covariance: object
    report: object
    tolerances: object
    output: object

    @classmethod
    def from_text(cls, text: str, base_dir: str | Path = ".",
                  overrides: dict | None = None) -> "RunConfig":
        """Parse and check a config.  ``overrides`` ({section: {key: text}},
        the CLI flags) replace the file's values before any key is parsed."""
        ini = _ini(text)
        if "family" not in ini.get("group", {}):
            raise ElementParseError("config needs [group] family = ...")
        try:
            desc = descriptor_from_string(ini["group"]["family"])
        except ValueError as exc:
            raise PreconditionError(f"[group] family: {exc}") from None
        source = ini.get("measure", {})
        if len(source) != 1:
            raise PreconditionError("[measure] takes 'inline' or 'file', not both" if source
                                    else "config needs [measure] inline lines or a file path")
        ((key, value),) = source.items()
        try:
            measure_text = value if key == "inline" else _read(Path(base_dir) / value)
            measure = parse_measure(measure_text, desc)
        except ValueError as exc:
            raise PreconditionError(f"[measure] {key}: {exc}") from None
        values = {}
        for name, schema in _SCHEMA.items():
            given = {**ini.get(name, {}), **(overrides or {}).get(name, {})}
            values[name] = {}
            for key, (default, parse) in schema.items():
                text = given.get(key, default)
                try:
                    values[name][key] = parse(text, desc)
                except ValueError as exc:
                    if key in given:
                        raise PreconditionError(
                            f"[{name}] {key} = {text!r}: {exc}") from None
                    # a default this group cannot parse ([fock] x = e outside
                    # free groups) leaves the key unset
                    values[name][key] = None
        _check(values)
        b = values["boundary"]
        b["sequence"] = b["elements"] if b["ray"] is None else tuple(
            accumulate([b["ray"]] * b["k_max"], desc.multiply))[b["k_min"] - 1:]
        return cls(descriptor=desc, measure=measure,
                   **{name: record(**values[name]) for name, record in _RECORDS.items()})

    @classmethod
    def from_file(cls, path: str | Path, overrides: dict | None = None) -> "RunConfig":
        path = Path(path)
        return cls.from_text(_read(path), base_dir=path.parent, overrides=overrides)

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
        h.update(f"depth={self.walk.depth}".encode())
        return h.hexdigest()[:16]
