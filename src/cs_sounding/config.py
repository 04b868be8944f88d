"""Experiment configuration: schema, loading, and validation.

Config files are YAML or JSON (JSON is parsed with JSON semantics, then
YAML is tried). All cross-field constraints are checked up front and
reported together with dotted field names, so a bad file fails before any
work starts.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace

import yaml

from .channel import PdpSpec, SpatialCorrelation, bin_pdp
from .feedback import ANGLE_BIT_WIDTHS, MAX_QUANT_BITS
from .numerics import NotPositiveDefinite
from .sounding import MAX_SHUFFLE_SIZE, MIN_SNR_DB, POWER_MODES, ndp_airtime
from .sparse_recovery import ALGORITHMS


class ConfigError(ValueError):
    """Invalid experiment configuration; message lists every offending field."""


@dataclass(frozen=True)
class DimsConfig:
    n_dft: int = 256
    n_t: int = 4
    n_r: int = 2


@dataclass(frozen=True)
class CorrelationConfig:
    rho_tx: float = 0.0
    rho_rx: float = 0.0


@dataclass(frozen=True)
class RecoveryConfigSection:
    kappa: int = 50
    tau: float = 1e-6
    i_max: int = 50
    algorithm: str = "cosamp"


@dataclass(frozen=True)
class SoundingConfig:
    seed: int = 1
    n_kappa: int = 200
    snr_db: float | None = None
    power_mode: str = "uniform"
    threshold_db: float | None = None
    usable_tones: tuple[int, ...] | None = None


@dataclass(frozen=True)
class FeedbackConfig:
    mode: str = "MU"
    quant_bits: int | None = None
    n_tones: int = 234
    ltf_duration_us: float = 12.0


@dataclass(frozen=True)
class ExperimentConfig:
    dims: DimsConfig = field(default_factory=DimsConfig)
    pdp: object = "default"
    correlation: CorrelationConfig = field(default_factory=CorrelationConfig)
    recovery: RecoveryConfigSection = field(default_factory=RecoveryConfigSection)
    sounding: SoundingConfig = field(default_factory=SoundingConfig)
    feedback: FeedbackConfig = field(default_factory=FeedbackConfig)
    trials: int = 1
    master_seed: int = 0
    output: str = "results"

    def with_n_kappa(self, n_kappa: int) -> "ExperimentConfig":
        return replace(self, sounding=replace(self.sounding, n_kappa=n_kappa))

    def resolve_pdp(self, base_dir: str = ".") -> PdpSpec:
        """The profile `pdp` names; a relative file path is taken from base_dir,
        the config file's directory in load_config and the CLI."""
        data, label = self.pdp, "pdp"
        if isinstance(data, PdpSpec):
            return data
        if data == "default":
            return PdpSpec.default()
        if isinstance(data, str):
            path = os.path.join(base_dir, data)  # an absolute path replaces base_dir
            label = f"pdp file {path!r}"
            try:
                with open(path) as fh:
                    data = yaml.safe_load(fh)
            except OSError as exc:
                raise ConfigError(f"pdp: cannot read profile file {path!r}: {exc}") from exc
        elif not isinstance(data, dict):
            raise ConfigError("pdp: expected 'default', a file path, or an inline profile, "
                              f"got {type(data).__name__}")
        try:
            return PdpSpec.from_records(data["taps"], data["sample_period_ns"])
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"{label}: needs 'sample_period_ns' and 'taps' "
                              f"(list of {{delay_ns, power_db}}): {exc}") from exc


def _build_section(cls, data, label: str, errors: list[str]):
    if data is None:
        data = {}
    if not isinstance(data, dict):
        errors.append(f"{label}: expected a mapping, got {type(data).__name__}")
        return cls()
    known = {f_.name for f_ in cls.__dataclass_fields__.values()}
    unknown = set(data) - known
    if unknown:
        errors.append(f"{label}: unknown keys {sorted(unknown, key=str)} "  # keys of any type
                      f"(expected {sorted(known)})")
    kwargs = {k: v for k, v in data.items() if k in known}
    tones = kwargs.get("usable_tones")
    if isinstance(tones, (list, tuple)):
        kwargs["usable_tones"] = tuple(tones)
    elif tones is not None:
        errors.append(f"{label}.usable_tones: expected a list, got {type(tones).__name__}")
    return cls(**kwargs)


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    errors: list[str] = []
    top = fields(ExperimentConfig)
    unknown = set(data) - {f_.name for f_ in top}
    if unknown:
        errors.append(f"unknown top-level keys {sorted(unknown, key=str)}")
    kwargs = {}
    for f_ in top:
        if f_.default_factory is not MISSING:  # a section, built from its mapping
            kwargs[f_.name] = _build_section(f_.default_factory, data.get(f_.name),
                                             f_.name, errors)
        elif f_.name in data:
            kwargs[f_.name] = data[f_.name]
    cfg = ExperimentConfig(**kwargs)
    if errors:
        raise ConfigError("; ".join(errors))
    return cfg


def _number(errors: list[str], name: str, value, kind, ok, wants: str,
            nullable: bool = False) -> bool:
    """Record `name: wants, got value` unless value (never a bool) is a `kind`
    passing `ok`. A real (kind float) may be an int, tested as a float, so one
    too large for a float fails; with nullable, None passes."""
    if nullable and value is None:
        return True
    try:
        good = (isinstance(value, (int, kind)) and not isinstance(value, bool)
                and ok(kind(value)))
    except OverflowError:
        good = False
    if not good:
        errors.append(f"{name}: {wants}, got {value!r}")
    return good


def _choice(errors: list[str], name: str, value, options) -> None:
    if value not in list(options):  # a list: the value may be unhashable
        errors.append(f"{name}: must be one of {list(options)}, got {value!r}")


def validate_config(cfg: ExperimentConfig, base_dir: str = ".") -> PdpSpec:
    """Check every constraint; raise ConfigError listing all, else return the PdpSpec."""
    errors: list[str] = []
    d, r, s, f = cfg.dims, cfg.recovery, cfg.sounding, cfg.feedback
    positive = lambda n: n >= 1
    dims_ok = all([_number(errors, f"dims.{key}", getattr(d, key), int, positive,
                           "must be a positive integer") for key in ("n_dft", "n_t", "n_r")])
    for key in ("rho_tx", "rho_rx"):
        _number(errors, f"correlation.{key}", getattr(cfg.correlation, key), float,
                lambda x: 0 <= x < 1, "must be in [0, 1)")
    kappa_ok = _number(errors, "recovery.kappa", r.kappa, int, positive,
                       "must be a positive integer")
    _number(errors, "recovery.tau", r.tau, float, lambda x: 0 < x < 1, "must be in (0, 1)")
    _number(errors, "recovery.i_max", r.i_max, int, positive, "must be >= 1")
    _choice(errors, "recovery.algorithm", r.algorithm, ALGORITHMS)
    _number(errors, "sounding.seed", s.seed, int, lambda n: 1 <= n <= 0xFFFF,
            "must be a nonzero 16-bit integer (1..65535)")
    available = None  # estimates one sounding yields; only defined for valid dims
    counts_ok = dims_ok  # n_t and n_kappa both end up <= MAX_SHUFFLE_SIZE
    if dims_ok:
        bad = [t for t in s.usable_tones or ()
               if isinstance(t, bool) or not (isinstance(t, int) and 0 <= t < d.n_dft)]
        # set() only once every element is known to be hashable
        n_usable = d.n_dft if s.usable_tones is None or bad else len(set(s.usable_tones))
        if bad:
            errors.append(f"sounding.usable_tones: indices {bad} are not integers "
                          f"in [0, {d.n_dft})")
        elif n_usable < d.n_t:
            errors.append(f"sounding.usable_tones: {n_usable} tones cannot cover "
                          f"dims.n_t = {d.n_t}")
        available = n_usable * d.n_r
        if available > MAX_SHUFFLE_SIZE:
            errors.append(f"dims: {n_usable} usable tones x {d.n_r} rx = {available} estimates, "
                          f"more than the {MAX_SHUFFLE_SIZE} the 16-bit LFSR shuffle can permute")
        counts_ok = not bad and n_usable >= d.n_t and available <= MAX_SHUFFLE_SIZE

    def n_kappa_is(ok, wants: str) -> bool:
        return _number(errors, "sounding.n_kappa", s.n_kappa, int, ok, wants)
    # a test runs only once those before it pass, so n_kappa gets one message at most
    counts_ok = (n_kappa_is(positive, "must be a positive integer")
                 and (not kappa_ok or n_kappa_is(
                     lambda n: n >= 2 * r.kappa, f"must be >= 2*recovery.kappa = {2 * r.kappa}"))
                 and (available is None or n_kappa_is(
                     lambda n: n <= available,
                     f"only {available} measurements available ({n_usable} tones x {d.n_r} rx)"))
                 and counts_ok)
    _number(errors, "sounding.snr_db", s.snr_db, float, lambda x: x >= MIN_SNR_DB,
            f"must be a number >= {MIN_SNR_DB:g} dB (not NaN) or null", nullable=True)
    _choice(errors, "sounding.power_mode", s.power_mode, POWER_MODES)
    _number(errors, "sounding.threshold_db", s.threshold_db, float, lambda x: x > 0,
            "must be positive or null", nullable=True)
    _choice(errors, "feedback.mode", f.mode, ANGLE_BIT_WIDTHS)
    _number(errors, "feedback.quant_bits", f.quant_bits, int, lambda n: 1 <= n <= MAX_QUANT_BITS,
            f"must be an integer in [1, {MAX_QUANT_BITS}] or null", nullable=True)
    _number(errors, "feedback.n_tones", f.n_tones, int, lambda n: n >= 0, "must be >= 0")
    if _number(errors, "feedback.ltf_duration_us", f.ltf_duration_us, float,
               lambda x: 0 < x < math.inf, "must be finite and positive") and counts_ok:
        longer_ndp_us = max(
            ndp_airtime(d.n_t, "conventional", ltf_duration_us=f.ltf_duration_us),
            ndp_airtime(d.n_t, "punctured", s.n_kappa, d.n_dft, f.ltf_duration_us))
        if not longer_ndp_us < math.inf:
            errors.append(f"feedback.ltf_duration_us: {f.ltf_duration_us!r} us per LTF "
                          f"symbol overflows the NDP airtime")
    _number(errors, "trials", cfg.trials, int, positive, "must be a positive integer")
    _number(errors, "master_seed", cfg.master_seed, int, lambda n: n >= 0,
            "must be a non-negative integer")
    if not isinstance(cfg.output, str) or not cfg.output:
        errors.append(f"output: must be a directory path, got {cfg.output!r}")
    else:
        existing = os.path.abspath(cfg.output)
        while not os.path.exists(existing):
            existing = os.path.dirname(existing)
        if not os.path.isdir(existing):
            errors.append(f"output: {existing!r} is a file, not a directory")

    if not errors:
        corr = SpatialCorrelation(cfg.correlation.rho_tx, cfg.correlation.rho_rx)
        for name, root, n in (("correlation.rho_tx", corr.tx_root, d.n_t),
                              ("correlation.rho_rx", corr.rx_root, d.n_r)):
            try:  # the factorization generate_channel does, same rank test
                root(n)
            except NotPositiveDefinite as exc:
                errors.append(f"{name}: too close to 1 for {n} antennas: {exc}")
        try:
            pdp = cfg.resolve_pdp(base_dir)
            bins = bin_pdp(pdp)
            if bins[-1][0] >= d.n_dft:
                errors.append(f"pdp: binned delay span {bins[-1][0]} does not fit in "
                              f"dims.n_dft = {d.n_dft}")
        except ConfigError as exc:
            errors.append(str(exc))
    if errors:
        raise ConfigError("; ".join(errors))
    return pdp


def read_config(path: str) -> ExperimentConfig:
    """Parse a config file into its sections, without cross-field checks.

    JSON is tried first (PyYAML reads scientific-notation floats like 1e-06
    as strings, so JSON input must get real JSON semantics), then YAML.
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path!r}: {exc}") from exc
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as exc:
            raise ConfigError(
                f"config file {path!r} is not valid YAML/JSON: {exc}"
            ) from exc
    return config_from_dict(data)


def load_config(path: str) -> tuple[ExperimentConfig, PdpSpec]:
    """Read and fully validate a config file; returns (config, pdp)."""
    cfg = read_config(path)
    return cfg, validate_config(cfg, os.path.dirname(os.path.abspath(path)))
