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
        errors.append(
            f"{label}: unknown keys {sorted(unknown)} (expected {sorted(known)})"
        )
    kwargs = {k: v for k, v in data.items() if k in known}
    try:
        if kwargs.get("usable_tones") is not None:
            kwargs["usable_tones"] = tuple(kwargs["usable_tones"])
        return cls(**kwargs)
    except (TypeError, ValueError) as exc:
        errors.append(f"{label}: {exc}")
        return cls()


def config_from_dict(data: dict) -> ExperimentConfig:
    if not isinstance(data, dict):
        raise ConfigError(f"config root must be a mapping, got {type(data).__name__}")
    errors: list[str] = []
    top = fields(ExperimentConfig)
    unknown = set(data) - {f_.name for f_ in top}
    if unknown:
        errors.append(f"unknown top-level keys {sorted(unknown)}")
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


def _is(val, kind) -> bool:
    """isinstance(val, kind), except that a bool never passes as a number."""
    return isinstance(val, kind) and not isinstance(val, bool)


def validate_config(cfg: ExperimentConfig, base_dir: str = ".") -> PdpSpec:
    """Check every constraint; raise ConfigError listing all, else return the PdpSpec."""
    errors: list[str] = []
    d = cfg.dims
    for name, val in (("dims.n_dft", d.n_dft), ("dims.n_t", d.n_t), ("dims.n_r", d.n_r)):
        if not _is(val, int) or val < 1:
            errors.append(f"{name}: must be a positive integer, got {val!r}")
    dims_ok = not errors
    for name, rho in (("correlation.rho_tx", cfg.correlation.rho_tx),
                      ("correlation.rho_rx", cfg.correlation.rho_rx)):
        if not _is(rho, (int, float)) or not 0.0 <= rho < 1.0:
            errors.append(f"{name}: must be in [0, 1), got {rho!r}")

    r = cfg.recovery
    if not _is(r.kappa, int) or r.kappa < 1:
        errors.append(f"recovery.kappa: must be a positive integer, got {r.kappa!r}")
    if not _is(r.tau, (int, float)) or not 0.0 < r.tau < 1.0:
        errors.append(f"recovery.tau: must be in (0, 1), got {r.tau!r}")
    if not _is(r.i_max, int) or r.i_max < 1:
        errors.append(f"recovery.i_max: must be >= 1, got {r.i_max!r}")
    if r.algorithm not in ALGORITHMS:
        errors.append(
            f"recovery.algorithm: must be one of {list(ALGORITHMS)}, got {r.algorithm!r}"
        )

    s = cfg.sounding
    if not _is(s.seed, int) or not 1 <= s.seed <= 0xFFFF:
        errors.append(
            f"sounding.seed: must be a nonzero 16-bit integer (1..65535), got {s.seed!r}"
        )
    count_errors = len(errors)  # the checks that bound n_t and n_kappa
    available = None  # estimates one sounding yields; only defined for valid dims
    if dims_ok:
        bad = [t for t in s.usable_tones or () if not (_is(t, int) and 0 <= t < d.n_dft)]
        # set() only once every element is known to be hashable
        n_usable = d.n_dft if s.usable_tones is None or bad else len(set(s.usable_tones))
        if bad:
            errors.append(
                f"sounding.usable_tones: indices {bad} are not integers in [0, {d.n_dft})"
            )
        elif n_usable < d.n_t:
            errors.append(
                f"sounding.usable_tones: {n_usable} tones cannot cover dims.n_t = {d.n_t}"
            )
        available = n_usable * d.n_r
        if available > MAX_SHUFFLE_SIZE:
            errors.append(
                f"dims: {n_usable} usable tones x {d.n_r} rx = {available} estimates, "
                f"more than the {MAX_SHUFFLE_SIZE} the 16-bit LFSR shuffle can permute"
            )
    if not _is(s.n_kappa, int) or s.n_kappa < 1:
        errors.append(f"sounding.n_kappa: must be a positive integer, got {s.n_kappa!r}")
    elif _is(r.kappa, int) and s.n_kappa < 2 * r.kappa:
        errors.append(
            f"sounding.n_kappa: must be >= 2*recovery.kappa = {2 * r.kappa}, got {s.n_kappa!r}"
        )
    elif available is not None and s.n_kappa > available:
        errors.append(
            f"sounding.n_kappa: only {available} measurements available "
            f"({n_usable} tones x {d.n_r} rx), got {s.n_kappa!r}"
        )
    counts_ok = dims_ok and len(errors) == count_errors  # both <= MAX_SHUFFLE_SIZE
    if s.snr_db is not None and not (_is(s.snr_db, (int, float)) and s.snr_db >= MIN_SNR_DB):
        errors.append(f"sounding.snr_db: must be a number >= {MIN_SNR_DB:g} dB "
                      f"(not NaN) or null, got {s.snr_db!r}")
    if s.power_mode not in POWER_MODES:
        errors.append(
            f"sounding.power_mode: must be one of {list(POWER_MODES)}, got {s.power_mode!r}"
        )
    if s.threshold_db is not None and (
            not _is(s.threshold_db, (int, float)) or not s.threshold_db > 0):
        errors.append(
            f"sounding.threshold_db: must be positive or null, got {s.threshold_db!r}"
        )

    f = cfg.feedback
    if f.mode not in list(ANGLE_BIT_WIDTHS):  # a list: the mode may be unhashable
        errors.append(f"feedback.mode: must be one of {list(ANGLE_BIT_WIDTHS)}, got {f.mode!r}")
    if f.quant_bits is not None and (
            not _is(f.quant_bits, int) or not 1 <= f.quant_bits <= MAX_QUANT_BITS):
        errors.append(f"feedback.quant_bits: must be an integer in [1, {MAX_QUANT_BITS}] "
                      f"or null, got {f.quant_bits!r}")
    if not _is(f.n_tones, int) or f.n_tones < 0:
        errors.append(f"feedback.n_tones: must be >= 0, got {f.n_tones!r}")
    if not _is(f.ltf_duration_us, (int, float)) or not 0 < f.ltf_duration_us < math.inf:
        errors.append(f"feedback.ltf_duration_us: must be finite and positive, got {f.ltf_duration_us!r}")
    elif counts_ok:
        longer_ndp_us = max(
            ndp_airtime(d.n_t, "conventional", ltf_duration_us=f.ltf_duration_us),
            ndp_airtime(d.n_t, "punctured", s.n_kappa, d.n_dft, f.ltf_duration_us))
        if not longer_ndp_us < math.inf:
            errors.append(f"feedback.ltf_duration_us: {f.ltf_duration_us!r} us per LTF "
                          f"symbol overflows the NDP airtime")

    if not _is(cfg.trials, int) or cfg.trials < 1:
        errors.append(f"trials: must be a positive integer, got {cfg.trials!r}")
    if not _is(cfg.master_seed, int) or cfg.master_seed < 0:
        errors.append(f"master_seed: must be a non-negative integer, got {cfg.master_seed!r}")
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
                errors.append(
                    f"pdp: binned delay span {bins[-1][0]} does not fit in "
                    f"dims.n_dft = {d.n_dft}"
                )
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
