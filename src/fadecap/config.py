"""Declarative experiment configs: YAML schema validation and builders.

Every command takes a single YAML document.  Validation is strict: unknown
and repeated keys are rejected and every error names the offending field
path, so a config typo fails fast instead of silently running the wrong
experiment.
Complex scalars are written as plain reals or as two-element [re, im]
lists, and every number must be finite.
"""

from __future__ import annotations

import hashlib
import math
from contextlib import contextmanager
from typing import Any

import numpy as np
import yaml

from . import designs
from .mc import KINDS, McConfig
from .model import (
    CanonicalRayleigh,
    ChannelModel,
    Constellation,
    CorrelatedRayleigh,
    Ricean,
    SnrGrid,
    SpaceTimeCode,
    db_to_linear,
    make_constellation,
)

__all__ = ["ConfigError", "load_config", "validate_command_config"]


class ConfigError(ValueError):
    """Invalid configuration; `field` is the dotted path of the bad entry."""

    def __init__(self, field: str, message: str):
        super().__init__(f"config field '{field}': {message}")
        self.field = field


class _UniqueKeyLoader(yaml.SafeLoader):
    """SafeLoader that rejects a key written twice in one mapping, where
    plain loading keeps the last; a key that a << merge brings in may
    still be overridden."""

    def construct_mapping(self, node, deep=False):
        if isinstance(node, yaml.MappingNode):
            written = [k for k, _ in node.value if k.tag != "tag:yaml.org,2002:merge"]
            self.flatten_mapping(node)          # as SafeLoader does next; a no-op again
            seen = []
            for key_node in written:
                key = self.construct_object(key_node, deep=deep)
                if key in seen:
                    raise yaml.constructor.ConstructorError(
                        "while constructing a mapping", node.start_mark,
                        f"found repeated key {key!r}", key_node.start_mark)
                seen.append(key)
        return super().construct_mapping(node, deep=deep)


def load_config(path: str) -> tuple[dict, str]:
    """Parse a YAML config file; return the document and the SHA-256 hex
    digest of the bytes it was parsed from."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError as exc:
        raise ConfigError(path, f"cannot read config: {exc}") from exc
    try:
        doc = yaml.load(raw, Loader=_UniqueKeyLoader)
    except yaml.YAMLError as exc:
        raise ConfigError(path, f"invalid YAML: {exc}") from exc
    if not isinstance(doc, dict):
        raise ConfigError("<root>", "config document must be a mapping")
    return doc, hashlib.sha256(raw).hexdigest()


def _require_keys(obj: dict, path: str, required: set[str], optional: set[str] = frozenset()):
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a mapping")
    for key in obj:
        if key not in required and key not in optional:
            raise ConfigError(f"{path}.{key}", "unknown key")
    for key in required:
        if key not in obj:
            raise ConfigError(f"{path}.{key}", "missing required key")


def _finite(v) -> bool:
    """Whether the YAML number `v` is a finite float (an int may overflow one)."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _number(obj, path, positive=False):
    if isinstance(obj, bool) or not isinstance(obj, (int, float)):
        raise ConfigError(path, "expected a number")
    if not _finite(obj):
        raise ConfigError(path, "must be finite")
    if positive and obj <= 0:
        raise ConfigError(path, "must be positive")
    return float(obj)


def _snr_db(obj, path):
    """The linear SNR 10^(dB/10) of the dB number at `path`, or of an array
    of checked dB numbers listed at `path`; a value whose linear SNR
    overflows or underflows is a ConfigError naming its field."""
    db = obj if isinstance(obj, np.ndarray) else _number(obj, path)
    snr = db_to_linear(db)
    bad = np.flatnonzero(~np.isfinite(snr) | (snr <= 0))
    if bad.size:
        raise ConfigError(path if np.ndim(db) == 0 else f"{path}[{bad[0]}]",
                          "dB value out of range: its linear SNR is 0 or not finite")
    return snr[()]


def _int(obj, path, minimum=None):
    if isinstance(obj, bool) or not isinstance(obj, int):
        raise ConfigError(path, "expected an integer")
    if minimum is not None and obj < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return obj


def _complex_scalar(obj, path) -> complex:
    parts = obj if isinstance(obj, list) and len(obj) == 2 else [obj]
    if not all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in parts):
        raise ConfigError(path, "expected a real number or [re, im] pair")
    if not all(_finite(v) for v in parts):
        raise ConfigError(path, "must be finite")
    return complex(*parts)


def _complex_vector(obj, path) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "expected a nonempty list")
    return np.array([_complex_scalar(v, f"{path}[{k}]") for k, v in enumerate(obj)])


def _complex_matrix(obj, path) -> np.ndarray:
    if not isinstance(obj, list) or not obj:
        raise ConfigError(path, "expected a nonempty list of rows")
    rows = [_complex_vector(r, f"{path}[{k}]") for k, r in enumerate(obj)]
    if len({r.size for r in rows}) != 1:
        raise ConfigError(path, "rows have inconsistent lengths")
    return np.vstack(rows)


@contextmanager
def _field(path):
    """Report a ValueError raised in the block as a ConfigError at `path`;
    a ConfigError naming a field inside the block passes through."""
    try:
        yield
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(path, str(exc)) from exc


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

def build_constellation(obj, path) -> Constellation:
    _require_keys(obj, path, {"family", "n_t"}, {"points"})
    family = obj["family"]
    if not isinstance(family, str):
        raise ConfigError(f"{path}.family", "expected a string")
    n_t = _int(obj["n_t"], f"{path}.n_t", minimum=1)
    points = None
    if family.lower() == "custom":
        if "points" not in obj:
            raise ConfigError(f"{path}.points", "custom constellation requires points")
        points = _complex_matrix(obj["points"], f"{path}.points")
    elif "points" in obj:
        raise ConfigError(f"{path}.points", "points only apply to the custom family")
    with _field(path):
        return make_constellation(family, n_t, points=points)


# The config name of each channel class, read by `build_channel` and `offsets`.
CHANNEL_NAMES = {CanonicalRayleigh: "rayleigh", CorrelatedRayleigh: "correlated", Ricean: "ricean"}


def build_channel(obj, path, n_t: int) -> ChannelModel:
    if not isinstance(obj, dict) or "variant" not in obj:
        raise ConfigError(f"{path}.variant", "missing channel variant")
    variant = obj["variant"]
    family = next((cls for cls, name in CHANNEL_NAMES.items() if name == variant), None)
    with _field(path):
        if family is CanonicalRayleigh:
            _require_keys(obj, path, {"variant", "n_r"})
            return CanonicalRayleigh(n_t=n_t, n_r=_int(obj["n_r"], f"{path}.n_r", 1))
        if family is CorrelatedRayleigh:
            _require_keys(obj, path, {"variant", "theta_t", "theta_r"})
            model = CorrelatedRayleigh(
                theta_t=_complex_matrix(obj["theta_t"], f"{path}.theta_t"),
                theta_r=_complex_matrix(obj["theta_r"], f"{path}.theta_r"))
            if model.n_t != n_t:
                raise ConfigError(f"{path}.theta_t", "size does not match constellation n_t")
            return model
        if family is Ricean:
            _require_keys(obj, path, {"variant", "k_factor", "a_t", "a_r"})
            model = Ricean(k_factor=_number(obj["k_factor"], f"{path}.k_factor"),
                           a_t=_complex_vector(obj["a_t"], f"{path}.a_t"),
                           a_r=_complex_vector(obj["a_r"], f"{path}.a_r"))
            if model.n_t != n_t:
                raise ConfigError(f"{path}.a_t", "length does not match constellation n_t")
            return model
    raise ConfigError(f"{path}.variant",
                      f"unknown variant {variant!r} ({' | '.join(CHANNEL_NAMES.values())})")


def build_snr_grid(obj, path) -> SnrGrid:
    if not isinstance(obj, dict):
        raise ConfigError(path, "expected a mapping")
    with _field(path):
        if "points" in obj:
            _require_keys(obj, path, {"points"})
            pts = obj["points"]
            if not isinstance(pts, list) or not pts:
                raise ConfigError(f"{path}.points", "expected a nonempty list of dB values")
            db = np.array([_number(v, f"{path}.points[{k}]") for k, v in enumerate(pts)])
            return SnrGrid(points=_snr_db(db, f"{path}.points"))
        _require_keys(obj, path, {"start", "stop", "step"})
        return SnrGrid.from_db(_number(obj["start"], f"{path}.start"),
                               _number(obj["stop"], f"{path}.stop"),
                               _number(obj["step"], f"{path}.step", positive=True))


def build_mc(obj, path, seed: int) -> McConfig:
    """The plan of an `mc` block; a key left out keeps McConfig's default."""
    fields = {"channel_draws": "channel_draws", "noise_draws": "noise_draws_per_channel",
              "chunks": "parallel_chunks"}
    obj = {} if obj is None else obj
    _require_keys(obj, path, set(), set(fields))
    return McConfig(seed=seed, **{field: _int(obj[key], f"{path}.{key}", 1)
                                  for key, field in fields.items() if key in obj})


def build_fading(obj, path) -> designs.Fading:
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigError(f"{path}.kind", "missing fading kind")
    with _field(path):
        if obj["kind"] == "rayleigh":
            _require_keys(obj, path, {"kind", "variance"})
            mean = 0
        elif obj["kind"] == "ricean":
            _require_keys(obj, path, {"kind", "mean", "variance"})
            mean = _complex_scalar(obj["mean"], f"{path}.mean")
        else:
            raise ConfigError(f"{path}.kind", f"unknown fading kind {obj['kind']!r}")
        return designs.Fading(variance=_number(obj["variance"], f"{path}.variance",
                                               positive=True), mean=mean)


def build_subchannel(obj, path) -> designs.SubchannelSpec:
    _require_keys(obj, path, {"family", "fading"}, {"points"})
    const_obj = {"family": obj["family"], "n_t": 1}
    if "points" in obj:
        const_obj["points"] = obj["points"]
    return designs.SubchannelSpec(
        constellation=build_constellation(const_obj, path),
        fading=build_fading(obj["fading"], f"{path}.fading"))


def build_spacetime(obj, path) -> tuple[str, SpaceTimeCode]:
    _require_keys(obj, path, {"name", "codewords"})
    name = obj["name"]
    if not isinstance(name, str) or not name:
        raise ConfigError(f"{path}.name", "expected a nonempty string")
    cw_obj = obj["codewords"]
    if not isinstance(cw_obj, list) or len(cw_obj) < 2:
        raise ConfigError(f"{path}.codewords", "expected a list of at least 2 matrices")
    mats = [_complex_matrix(m, f"{path}.codewords[{k}]") for k, m in enumerate(cw_obj)]
    if len({m.shape for m in mats}) != 1:
        raise ConfigError(f"{path}.codewords", "codewords have inconsistent shapes")
    with _field(f"{path}.codewords"):
        return name, SpaceTimeCode(codewords=np.stack(mats))


# ---------------------------------------------------------------------------
# per-command validation
# ---------------------------------------------------------------------------

def validate_command_config(command: str, doc: dict, seed: int) -> dict[str, Any]:
    """Parse a command config into built objects; raises ConfigError."""
    if command == "curve":
        _require_keys(doc, "<root>", {"kind", "constellation", "channel", "snr_db"}, {"mc"})
        kind = doc["kind"]
        if kind not in KINDS:
            raise ConfigError("kind", f"unknown kind {kind!r} (mi | mmse | pe)")
        c = build_constellation(doc["constellation"], "constellation")
        return {
            "kind": kind,
            "constellation": c,
            "channel": build_channel(doc["channel"], "channel", c.n_t),
            "grid": build_snr_grid(doc["snr_db"], "snr_db"),
            "mc": build_mc(doc.get("mc"), "mc", seed),
        }
    if command == "offsets":
        _require_keys(doc, "<root>", {"systems", "anchor_snr_db"}, {"mc"})
        systems = doc["systems"]
        if not isinstance(systems, list) or not systems:
            raise ConfigError("systems", "expected a nonempty list")
        built = []
        for k, sys_obj in enumerate(systems):
            path = f"systems[{k}]"
            _require_keys(sys_obj, path, {"constellation", "channel"})
            c = build_constellation(sys_obj["constellation"], f"{path}.constellation")
            built.append({
                "constellation": c,
                "channel": build_channel(sys_obj["channel"], f"{path}.channel", c.n_t),
            })
        return {
            "systems": built,
            "anchor_snr": _snr_db(doc["anchor_snr_db"], "anchor_snr_db"),
            "mc": build_mc(doc.get("mc"), "mc", seed),
        }
    if command == "palloc":
        _require_keys(doc, "<root>", {"budget", "snr_db", "subchannels"}, {"numeric", "mc"})
        subs_obj = doc["subchannels"]
        if not isinstance(subs_obj, list) or not subs_obj:
            raise ConfigError("subchannels", "expected a nonempty list")
        subs = [build_subchannel(s, f"subchannels[{k}]") for k, s in enumerate(subs_obj)]
        numeric = doc.get("numeric", True)
        if not isinstance(numeric, bool):
            raise ConfigError("numeric", "expected a boolean")
        if numeric and len(subs) > designs.MAX_NUMERIC_SUBCHANNELS:
            raise ConfigError("subchannels", f"numeric allocation supports at most "
                              f"{designs.MAX_NUMERIC_SUBCHANNELS} subchannels, got "
                              f"{len(subs)}; set numeric: false for the closed form alone")
        mc_cfg = build_mc(doc.get("mc"), "mc", seed)
        with _field("mc.channel_draws"):    # the capacity columns draw the banks too
            designs._check_bank_size(subs, mc_cfg)
        return {
            "budget": _number(doc["budget"], "budget", positive=True),
            "snr": _snr_db(doc["snr_db"], "snr_db"),
            "subchannels": subs,
            "numeric": numeric,
            "mc": mc_cfg,
        }
    if command == "precode":
        _require_keys(doc, "<root>", {"constellation", "p_total", "channel"},
                      {"probes", "restarts"})
        c = build_constellation(doc["constellation"], "constellation")
        channel = build_channel(doc["channel"], "channel", c.n_t)
        if isinstance(channel, Ricean):
            taken = " | ".join(name for cls, name in CHANNEL_NAMES.items() if cls is not Ricean)
            raise ConfigError("channel.variant",
                              f"unknown variant {CHANNEL_NAMES[Ricean]!r} ({taken})")
        return {
            "constellation": c,
            "channel": channel,
            "p_total": _number(doc["p_total"], "p_total", positive=True),
            "probes": _int(doc.get("probes", 200), "probes", 0),
            "restarts": _int(doc.get("restarts", 10), "restarts", 0),
        }
    if command == "stcode":
        _require_keys(doc, "<root>", {"n_r", "codebooks"}, {"confirm_pe"})
        books_obj = doc["codebooks"]
        if not isinstance(books_obj, list) or not books_obj:
            raise ConfigError("codebooks", "expected a nonempty list")
        books = [build_spacetime(b, f"codebooks[{k}]") for k, b in enumerate(books_obj)]
        names = [name for name, _ in books]
        for k, name in enumerate(names):
            if name in names[:k]:     # the ranking line tells books apart by name
                raise ConfigError(f"codebooks[{k}].name", f"duplicate codebook name {name!r}")
        with _field("codebooks"):
            designs._check_comparable([code for _, code in books])
        confirm = None
        if "confirm_pe" in doc:
            conf_obj = doc["confirm_pe"]
            _require_keys(conf_obj, "confirm_pe", {"snr_db"}, {"mc"})
            confirm = {
                "snr": _snr_db(conf_obj["snr_db"], "confirm_pe.snr_db"),
                "mc": build_mc(conf_obj.get("mc"), "confirm_pe.mc", seed),
            }
        return {
            "n_r": _int(doc["n_r"], "n_r", 1),
            "codebooks": books,
            "confirm_pe": confirm,
        }
    raise ConfigError("<command>", f"unknown command {command!r}")
