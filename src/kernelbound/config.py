"""Run configuration: a flat, sectioned key=value text format.

The format is deliberately tiny so it can be parsed anywhere: full-line
comments start with '#', sections are '[name]' headers, and every other
nonempty line is 'key = value'.  A top-level 'schema_version = 1' line must
appear before the first section.  Matrices are written row-major with ';'
between rows ("1 0.5; 0.5 1"), lists as whitespace-separated scalars.

SCHEMA declares every section and key, with its type, its default and the
values it allows.  A key that sets a check parameter (a tolerance,
majorant_scale, bounds.eps_scales) reads its default off the check's
declaration in verify.  Values are checked while the file is parsed, so an
unknown section or key, a malformed value or a disallowed one (one outside
its choices or its domain, a list of the wrong length) is an error that
names the file, the line and the offending section.key.
"""

from __future__ import annotations

import difflib
import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import verify
from .coefficients import VARIANTS, diagonal_family
from .errors import ConfigError, KernelBoundError
from .lyapunov import SAMPLE_RADIUS
from .solver import DEFAULT_BUDGET

__all__ = ["SCHEMA", "REQUIRED", "Key", "Domain", "RunConfig", "parse_config",
           "parse_config_text", "parse_value", "family_from_config"]

SCHEMA_VERSION = 1

REQUIRED = object()


class Domain(NamedTuple):
    """The numbers a key allows: holds tests the list of its values (a
    scalar key's one value), and text says what it allows."""

    text: str
    holds: Callable[[list], bool]


POSITIVE = Domain("> 0", lambda vals: all(v > 0 for v in vals))
# theta below 1/2 is only conditionally stable
IMPLICIT = Domain("in [0.5, 1]", lambda vals: all(0.5 <= v <= 1 for v in vals))
INCREASING = Domain("increasing, > 0", lambda vals: 0 < vals[0] and all(
    a < b for a, b in zip(vals, vals[1:])))


class Key(NamedTuple):
    """One config key: kind is str, int, float, bool, strs, ints, floats or
    matrix.  Reading an unset REQUIRED key is an error, and a None default
    is resolved where the key is read.  choices limits the value, or each
    list entry, length fixes the length of a list, and domain limits a
    number, or each list entry."""

    kind: str
    default: object = REQUIRED
    choices: Optional[tuple] = None
    length: Optional[int] = None
    domain: Optional[Domain] = None


SCHEMA = {
    "family": {
        "kind": Key("str", choices=("polynomial", "exponential")),
        "m": Key("int"),
        "theta": Key("matrix"),
        "gamma": Key("matrix"),
        "zeta": Key("float", 1.0),
        "alpha": Key("float", 0.0),
        "eta": Key("float", 1.0),
        "beta": Key("float", 0.0),
    },
    "grid": {
        "d": Key("int", choices=(1, 2)),
        "radii": Key("floats", domain=INCREASING),
        "spacing": Key("float", domain=POSITIVE),
        "dt": Key("float", None, domain=POSITIVE),
        "theta": Key("float", 0.5, domain=IMPLICIT),
    },
    "lyapunov": {
        "T": Key("float", 1.0, domain=POSITIVE),
        "rho": Key("float", None, domain=POSITIVE),
        "eps_hat": Key("float", None, domain=POSITIVE),
        "sigma": Key("float", None, domain=POSITIVE),
        "delta": Key("float", None, domain=POSITIVE),
        "radius": Key("float", SAMPLE_RADIUS, domain=POSITIVE),
    },
    "bounds": {
        "s": Key("float", None),
        "window": Key("floats", None, length=4, domain=INCREASING),
        "t_ref": Key("float", 0.25, domain=POSITIVE),
        "eps_scales": Key("floats", verify.WeightedBound.eps_scales, length=3),
        "c_hat": Key("float", None),
    },
    "solve": {
        "sources": Key("matrix", None),
        "variants": Key("strs", ("P",), VARIANTS),
        "times": Key("floats", (0.5,), domain=POSITIVE),
        "components": Key("ints", None),
        "width": Key("float", None, domain=POSITIVE),
        "budget": Key("int", DEFAULT_BUDGET),
    },
    "verify": {
        "checks": Key("strs", choices=(
            "domination", "monotone", "mass", "support", "duality",
            "chapman", "integrability", "weighted", "decay")),
        "seed": Key("int", None),
        "jobs": Key("int", 1),
        "t": Key("floats", (0.1, 0.5, 1.0), domain=POSITIVE),
        "t_single": Key("float", None, domain=POSITIVE),
        "x": Key("matrix", None),
        "sources": Key("matrix", None),
        "components": Key("ints", None),
        "width": Key("float", None, domain=POSITIVE),
        "radius": Key("float", SAMPLE_RADIUS, domain=POSITIVE),
        "two_sided": Key("bool", False),
        "chapman_s": Key("float", None, domain=POSITIVE),
        "t_integrability": Key("floats", None, domain=POSITIVE),
        "t_weighted": Key("floats", None, domain=POSITIVE),
        "coarse": Key("floats", None, length=2),
        "fine": Key("floats", None, length=2),
        "majorant_scale": Key("float", verify.WeightedBound.majorant_scale, domain=POSITIVE),
        "t_decay": Key("floats", (0.25, 0.5), domain=POSITIVE),
        "decay_eps_scale": Key("float", 0.5, domain=POSITIVE),
        # each tolerance defaults to the one its check declares
        "tol_domination": Key("float", verify.Domination.tol, domain=POSITIVE),
        "tol_monotone": Key("float", verify.MonotoneInR.tol, domain=POSITIVE),
        "tol_mass": Key("float", verify.MassAndPositivity.tol, domain=POSITIVE),
        "tol_support": Key("float", verify.Support.tol_null, domain=POSITIVE),
        "tol_duality": Key("float", verify.Duality.tol, domain=POSITIVE),
        "tol_chapman": Key("float", verify.ChapmanKolmogorov.tol, domain=POSITIVE),
        "tol_integrability": Key("float", verify.LyapunovIntegrability.tol, domain=POSITIVE),
        "tol_weighted": Key("float", verify.WeightedBound.tol, domain=POSITIVE),
        "tol_decay": Key("float", verify.DecayShape.slack, domain=POSITIVE),
    },
    "output": {
        "directory": Key("str", "."),
        "formats": Key("strs", ("txt", "csv"), ("txt", "csv", "svg")),
    },
}

_BOOLS = {**dict.fromkeys(("true", "yes", "on", "1"), True),
          **dict.fromkeys(("false", "no", "off", "0"), False)}


def _number(tok: str) -> float:
    val = float(tok)
    if not math.isfinite(val):
        raise ValueError(tok)
    return val


_SCALARS = {"str": str, "int": int, "float": _number,
            "bool": lambda tok: _BOOLS[tok.lower()]}
_LISTS = {"strs": str, "ints": int, "floats": _number}
_EXPECTS = {"int": "an integer", "float": "a finite number",
            "bool": "true/false", "ints": "integers",
            "floats": "finite numbers", "matrix": "a numeric matrix"}


def parse_value(section: str, name: str, raw: str, where: str = "<value>"):
    """raw as the type of section.name, checked against its SCHEMA row."""
    key = SCHEMA[section][name]
    label = "%s: %s.%s" % (where, section, name)
    try:
        if key.kind == "matrix":
            value = [[_number(tok) for tok in part.split()]
                     for part in raw.split(";") if part.strip()]
            if not value:
                raise ValueError(raw)
        elif key.kind in _LISTS:
            value = [_LISTS[key.kind](tok) for tok in raw.split()]
        else:
            value = _SCALARS[key.kind](raw)
    except (KeyError, ValueError):
        raise ConfigError("%s expects %s, got %r"
                          % (label, _EXPECTS[key.kind], raw))
    if key.kind == "matrix":
        for i, row in enumerate(value):
            if len(row) != len(value[0]):
                raise ConfigError("%s row %d has %d entries, expected %d"
                                  % (label, i, len(row), len(value[0])))
        value = np.asarray(value, dtype=float)
    if key.choices is not None:
        # list keys are plural nouns: an entry of verify.checks is a check
        items, noun = ((value, name[:-1]) if key.kind in _LISTS
                       else ([value], "value"))
        for item in items:
            if item not in key.choices:
                raise ConfigError("%s: unknown %s %r in %s.%s (allowed: %s)"
                                  % (where, noun, item, section, name,
                                     " ".join(map(str, key.choices))))
    if key.length is not None and len(value) != key.length:
        raise ConfigError("%s needs %d values, got %d"
                          % (label, key.length, len(value)))
    if key.domain is not None and not key.domain.holds(
            value if key.kind in _LISTS else [value]):
        raise ConfigError("%s must be %s, got %r"
                          % (label, key.domain.text, raw))
    return value


@dataclass
class RunConfig:
    """Parsed configuration: typed values, and the line each was set on."""

    path: str
    values: dict = field(default_factory=dict)  # (section, key) -> value
    lines: dict = field(default_factory=dict)   # (section, key) -> line number

    def _where(self, section: str, key: str) -> str:
        line = self.lines.get((section, key))
        return self.path if line is None else "%s:%d" % (self.path, line)

    def get(self, section: str, key: str):
        """The value set for section.key, else its SCHEMA default."""
        if (section, key) in self.values:
            return self.values[(section, key)]
        default = SCHEMA[section][key].default
        if default is REQUIRED:
            raise ConfigError("%s: missing key %s.%s"
                              % (self.path, section, key))
        # tuple defaults are handed out as fresh lists, like parsed lists
        return list(default) if isinstance(default, tuple) else default


def _did_you_mean(name: str, known) -> str:
    close = difflib.get_close_matches(name, known, n=1)
    return " (did you mean %s?)" % close[0] if close else ""


def parse_config_text(text: str, path: str = "<config>") -> RunConfig:
    cfg = RunConfig(path=path)
    seen = set()
    section: Optional[str] = None
    version: Optional[int] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        where = "%s:%d" % (path, lineno)
        if line.startswith("["):
            if not line.endswith("]"):
                raise ConfigError("%s: unterminated section header %r"
                                  % (where, line))
            section = line[1:-1].strip()
            if section not in SCHEMA:
                raise ConfigError("%s: unknown section [%s]%s"
                                  % (where, section,
                                     _did_you_mean(section, SCHEMA)))
            if section in seen:
                raise ConfigError("%s: duplicate section [%s]"
                                  % (where, section))
            seen.add(section)
            continue
        if "=" not in line:
            raise ConfigError("%s: expected 'key = value' or '[section]', "
                              "got %r" % (where, line))
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        if not value:
            raise ConfigError("%s: empty value for %s" % (where, key))
        if section is None:
            if key != "schema_version":
                raise ConfigError(
                    "%s: %r appears before any [section]; only "
                    "schema_version may" % (where, key))
            try:
                version = int(value)
            except ValueError:
                raise ConfigError("%s: schema_version expects an integer, "
                                  "got %r" % (where, value))
            continue
        if key not in SCHEMA[section]:
            raise ConfigError("%s: unknown key %s.%s%s"
                              % (where, section, key,
                                 _did_you_mean(key, SCHEMA[section])))
        if (section, key) in cfg.values:
            raise ConfigError("%s: duplicate key %s.%s (first set at "
                              "line %d)" % (where, section, key,
                                            cfg.lines[(section, key)]))
        cfg.values[(section, key)] = parse_value(section, key, value, where)
        cfg.lines[(section, key)] = lineno

    if version is None:
        raise ConfigError("%s: missing schema_version (must appear before the "
                          "first section)" % path)
    if version != SCHEMA_VERSION:
        raise ConfigError("%s: unsupported schema_version %d (this build "
                          "reads %d)" % (path, version, SCHEMA_VERSION))
    return cfg


def parse_config(path) -> RunConfig:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError("%s: cannot read config: %s" % (path, exc))
    return parse_config_text(text, path=str(path))


def family_from_config(cfg: RunConfig):
    """Build the coefficient family described by [family] and [grid]."""
    d = cfg.get("grid", "d")
    args = {key: cfg.get("family", key) for key in SCHEMA["family"]}
    kind, m, zeta = args.pop("kind"), args.pop("m"), args.pop("zeta")
    try:
        return diagonal_family(kind, d, m, zeta_diag=zeta, **args)
    except KernelBoundError as exc:
        raise ConfigError("%s: [family] rejected: %s"
                          % (cfg._where("family", "kind"), exc))
