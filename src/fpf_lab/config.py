"""Experiment configuration files.

Format: flat key = value pairs under bracketed section headers (INI). A
minimal run configuration looks like

    [model]
    name = linear1d

    [time]
    dt = 0.01
    t_end = 5.0

    [filter]
    n_particles = 1000
    gain = exact_gaussian

    [seeds]
    truth = 11
    observation = 12
    filter = 13

    [output]
    dir = out

Instead of a registry name, a model can be given inline as polynomials in
x1..xd (terms joined by + / -, factors by *, powers by ^):

    [model]
    dimension = 2
    drift_1 = -1.0*x1 + 0.5*x2
    drift_2 = -0.5*x1 - 1.0*x2
    obs = x1
    sigma = 1.0

Inline and registry models alike are an SdeModel of their polynomials,
which derives the affine metadata when every term has total degree <= 1.
The dimension is at most MAX_DIM, a Galerkin weight table at most
MAX_GALERKIN_TABLE entries, and n_particles times the dimension at most
MAX_PARTICLE_COORDS.

Seeds are mandatory: every run is a deterministic function of its
configuration file.
"""

from __future__ import annotations

import configparser
import math
import re
from dataclasses import dataclass
from typing import Any, Callable, Optional, Tuple

import numpy as np

from .fields import Polynomial
from .filter import FilterConfig
from .gain import GAIN_METHODS
from .model import SdeModel, covariance_sqrt
from .registry import make_model

__all__ = ["ConfigError", "ExperimentConfig", "load_config",
           "parse_polynomial", "read_ini"]


class ConfigError(ValueError):
    """The configuration file is missing, unparsable, or inconsistent."""


# ---------------------------------------------------------------------------
# polynomial expressions
# ---------------------------------------------------------------------------

_FACTOR_RE = re.compile(r"^x(\d+)(?:\^(\d+))?$")
# fields hold a table of every power up to the largest exponent, and powers
# beyond this overflow or underflow float64 for |x| outside (0.5, 2)
MAX_POWER = 1024


def parse_polynomial(text: str, dim: int) -> Polynomial:
    """Parse e.g. '-1.2*x1 + 0.5*x1*x2^2 - 3' into a Polynomial.

    Terms are separated by top-level + or -, factors within a term by *;
    a factor is either a float literal or x<i> with an optional integer
    power. Scientific notation is fine ('1e-3*x1').
    """
    cleaned = text.replace("**", "^").replace(" ", "")
    if not cleaned:
        raise ConfigError("empty polynomial expression")
    terms: dict = {}
    for piece in re.split(r"(?<![eE])(?=[+-])", cleaned):
        if piece == "":
            continue
        sign = 1.0
        body = piece
        while body[:1] in ("+", "-"):
            if body[0] == "-":
                sign = -sign
            body = body[1:]
        if not body:
            raise ConfigError(f"dangling sign in polynomial {text!r}")
        coef = sign
        alpha = [0] * dim
        for factor in body.split("*"):
            m = _FACTOR_RE.match(factor)
            if m:
                idx = int(m.group(1))
                if not 1 <= idx <= dim:
                    raise ConfigError(
                        f"variable x{idx} out of range for dimension {dim}")
                alpha[idx - 1] += int(m.group(2) or 1)
                if alpha[idx - 1] > MAX_POWER:
                    raise ConfigError(f"power of x{idx} above {MAX_POWER} in "
                                      f"polynomial term {piece!r}")
            else:
                try:
                    coef *= _number(factor)
                except ValueError:
                    raise ConfigError(
                        f"cannot parse factor {factor!r} in polynomial term "
                        f"{piece!r}") from None
        key = tuple(alpha)
        terms[key] = terms.get(key, 0.0) + coef
    return Polynomial(dim, terms)


# ---------------------------------------------------------------------------
# reading INI text and checking its fields
# ---------------------------------------------------------------------------

def read_ini(path: str) -> configparser.ConfigParser:
    """Parse an INI file. Text after # or ; is a comment, and % is an
    ordinary character (no interpolation)."""
    cp = configparser.ConfigParser(inline_comment_prefixes=("#", ";"),
                                   interpolation=None)
    try:
        with open(path) as fh:
            cp.read_file(fh)
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from None
    return cp


_REQUIRED = object()


def _field(cp: configparser.ConfigParser, section: str, key: str,
           parse: Callable[[str], Any] = str, default: Any = _REQUIRED,
           bound: Optional[Tuple[Callable[[Any], bool], str]] = None) -> Any:
    """The value of `key` in [section], read by `parse` and checked.

    A missing key gives `default`, or an error when the key is required.
    `parse` raises ValueError on text it cannot read (the number parsers
    reject NaN and inf), and `bound` is a (test, text) pair: a value that
    fails the test is reported as "must be <text>".
    """
    if not cp.has_option(section, key):
        if default is _REQUIRED:
            raise ConfigError(f"missing field `{key}` in section [{section}]")
        return default
    try:
        value = parse(cp.get(section, key))
    except ValueError as exc:
        raise ConfigError(f"field `{key}` in [{section}]: {exc}") from None
    if bound is not None and not bound[0](value):
        raise ConfigError(f"field `{key}` in [{section}]: must be {bound[1]}")
    return value


def _at_least(low, text: Optional[str] = None):
    """The bound `value >= low` (every entry, for a list of values)."""
    return (lambda value: bool(np.all(np.asarray(value) >= low)),
            f">= {low if text is None else text}")


def _between(low: int, high: int):
    """The bound `low <= value <= high` (every entry, for a tuple of
    values), compared as exact Python integers."""
    return (lambda value: all(low <= v <= high for v in (
                value if isinstance(value, tuple) else (value,))),
            f">= {low} and <= {high}")


_POSITIVE = (lambda value: value > 0, "positive")


def _number(raw: str) -> float:
    try:
        value = float(raw)
        if math.isfinite(value):
            return value
    except ValueError:
        pass
    raise ValueError(f"expected a finite number, got {raw!r}")


def _integer(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"expected an integer, got {raw!r}") from None


def _integers(raw: str) -> Tuple[int, ...]:
    values = tuple(_integer(v) for v in raw.replace(",", " ").split())
    if not values:
        raise ValueError("empty list")
    if len(set(values)) != len(values):
        raise ValueError(f"expected distinct values, got {raw.strip()!r}")
    return values


def _boolean(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ValueError(f"expected a boolean, got {raw!r}") from None


def _as_vector(raw: str, dim: int) -> np.ndarray:
    """One number for every entry, or dim numbers."""
    vals = np.array([_number(v) for v in raw.replace(",", " ").split()])
    if vals.size == 1:
        return np.full(dim, vals[0])
    if vals.size != dim:
        raise ValueError(f"expected {dim} entries, got {vals.size}")
    return vals


def _as_matrix(raw: str, dim: int) -> np.ndarray:
    """Scalar -> scalar * I; otherwise semicolon-separated rows."""
    rows = [r.replace(",", " ").split() for r in raw.split(";") if r.strip()]
    if len(rows) == 1 and len(rows[0]) == 1:
        return _number(rows[0][0]) * np.eye(dim)
    lengths = [len(r) for r in rows]
    if lengths != [dim] * dim:
        raise ValueError(f"expected a {dim}x{dim} matrix, got rows of "
                         f"lengths {lengths}")
    return np.array([[_number(v) for v in r] for r in rows])


def _as_covariance(raw: str, dim: int) -> np.ndarray:
    """A matrix (see _as_matrix) that is symmetric positive semidefinite."""
    cov = _as_matrix(raw, dim)
    covariance_sqrt(cov)            # raises ModelValidationError otherwise
    return cov


# ---------------------------------------------------------------------------
# experiment configuration
# ---------------------------------------------------------------------------

# t_end / dt above this is a config error: the truth path, observation
# record and trace hold one row per step
MAX_STEPS = 10_000_000
# the grid oracle and the KDE hold a few arrays of this length per step; at
# 10^8 points they take gigabytes and the process is killed
MAX_GRID_POINTS = 10 ** 6
# the weights of an inline model's partials of order <= r hold
# C(d + r, r) C(d + 3, 3) numbers per cubic term: the gradient of a dense
# cubic h (1,541 terms) takes 460 MB at d = 20, and 46 GB at d = 40
MAX_DIM = 20
# the Galerkin weight table has C(d + 3, 3) K (K + 1) entries for the
# K = C(d + D, D) - 1 basis monomials; 2^27 float64 entries are 1 GiB
MAX_GALERKIN_TABLE = 2 ** 27
# n_particles * dimension above this is a config error: the ensemble and
# each of its per-step temporaries hold that many numbers, 80 MB each here
MAX_PARTICLE_COORDS = 10 ** 7
# the noise hash folds a seed into one 64-bit word
_SEED = _between(0, 2 ** 64 - 1)


@dataclass
class ExperimentConfig:
    """Fully resolved run configuration (model objects, not strings)."""

    model: SdeModel
    dt: float
    t_end: float
    n_particles: int
    filter_cfg: FilterConfig
    seed_truth: int
    seed_observation: int
    seed_filter: int
    out_dir: str
    prior_mean: np.ndarray
    prior_cov: np.ndarray
    x0: np.ndarray
    compare_seeds: Tuple[int, ...]
    grid_halfwidth: float
    grid_points: int


def _gain_method(raw: str) -> str:
    if raw not in GAIN_METHODS:
        raise ValueError(f"unknown method {raw!r}; choose from "
                         f"{', '.join(GAIN_METHODS)}")
    return raw


def _build_inline_model(cp: configparser.ConfigParser) -> SdeModel:
    dim = _field(cp, "model", "dimension", _integer,
                 bound=_between(1, MAX_DIM))

    def polynomial(key: str) -> Polynomial:
        return _field(cp, "model", key, lambda raw: parse_polynomial(raw, dim))

    return SdeModel([polynomial(f"drift_{i + 1}") for i in range(dim)],
                    polynomial("obs"),
                    _field(cp, "model", "sigma",
                           lambda raw: _as_matrix(raw, dim),
                           default=np.eye(dim)), "inline")


def load_config(path: str) -> ExperimentConfig:
    """Parse and resolve an experiment configuration file.

    Raises ConfigError for anything wrong with the file itself (missing
    fields, unknown names, unparsable or out-of-range values).
    """
    cp = read_ini(path)
    for section in ("model", "time", "filter", "seeds"):
        if not cp.has_section(section):
            raise ConfigError(f"missing section [{section}]")

    if cp.has_option("model", "name"):
        if cp.has_option("model", "dimension"):
            raise ConfigError(
                "[model] gives both `name` and an inline polynomial "
                "definition; use one")
        try:
            model = make_model(cp.get("model", "name"))
        except KeyError as exc:
            raise ConfigError(exc.args[0]) from None
    else:
        model = _build_inline_model(cp)

    dim = model.dim
    prior_mean = _field(cp, "prior", "mean", lambda raw: _as_vector(raw, dim),
                        default=np.zeros(dim))
    prior_cov = _field(cp, "prior", "cov",
                       lambda raw: _as_covariance(raw, dim),
                       default=np.eye(dim))

    dt = _field(cp, "time", "dt", _number, bound=_POSITIVE)
    t_end = _field(cp, "time", "t_end", _number, bound=_at_least(dt, "dt"))
    if t_end > MAX_STEPS * dt:
        raise ConfigError(f"field `dt` in [time]: must be >= t_end / "
                          f"{MAX_STEPS} (at most {MAX_STEPS} steps)")

    n_particles = _field(cp, "filter", "n_particles", _integer,
                         bound=_between(2, MAX_PARTICLE_COORDS // dim))
    filter_cfg = FilterConfig(
        gain_method=_field(cp, "filter", "gain", _gain_method),
        galerkin_degree=_field(cp, "filter", "galerkin_degree", _integer,
                               default=3, bound=_at_least(1)),
        galerkin_ridge=_field(cp, "filter", "galerkin_ridge", _number,
                              default=None, bound=_at_least(0)),
        admissibility_eps=_field(cp, "filter", "admissibility_eps", _number,
                                 default=1e-8),
        abort_on_inadmissible=_field(cp, "filter", "abort_on_inadmissible",
                                     _boolean, default=False),
    )

    n_basis = math.comb(dim + filter_cfg.galerkin_degree, dim) - 1
    table = math.comb(dim + 3, 3) * n_basis * (n_basis + 1)
    if filter_cfg.gain_method == "galerkin" and table > MAX_GALERKIN_TABLE:
        raise ConfigError(f"field `galerkin_degree` in [filter]: needs a "
                          f"weight table of {table} entries in dimension "
                          f"{dim}, more than {MAX_GALERKIN_TABLE}")

    seeds = {key: _field(cp, "seeds", key, _integer, bound=_SEED)
             for key in ("truth", "observation", "filter")}

    return ExperimentConfig(
        model=model,
        dt=dt,
        t_end=t_end,
        n_particles=n_particles,
        filter_cfg=filter_cfg,
        seed_truth=seeds["truth"],
        seed_observation=seeds["observation"],
        seed_filter=seeds["filter"],
        out_dir=_field(cp, "output", "dir", default="."),
        prior_mean=prior_mean,
        prior_cov=prior_cov,
        x0=_field(cp, "model", "x0", lambda raw: _as_vector(raw, dim),
                  default=prior_mean.copy()),
        compare_seeds=_field(cp, "compare", "seeds", _integers,
                             default=(seeds["filter"],), bound=_SEED),
        grid_halfwidth=_field(cp, "compare", "grid_halfwidth", _number,
                              default=8.0, bound=_POSITIVE),
        grid_points=_field(cp, "compare", "grid_points", _integer,
                           default=1601,
                           bound=_between(16, MAX_GRID_POINTS)),
    )
