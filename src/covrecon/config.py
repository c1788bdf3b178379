"""YAML-backed configuration shared by all command-line tools.

Schema (all sections optional unless a command needs them):

    field:       kind (brownian), d (1|2), delta, s (default 0.5 - delta)
    sampling:    mode (nodal|projection), kl_trunc (projection only)
    estimator:   kind (MLE|Tapered|Exact), alpha (Tapered only)
    study:       ns, Ms, Ls (nonempty lists of distinct ints; every L at
                 most the smallest mesh's Q_h), n_rep
    quadrature:  accepted and ignored (projection sampling is exact)
    calibration: C1, C2, C, h0, rho1, lambda_max_mass, beta
    seed:        integer
    output:      artifact directory

Commands that operate on a single (n, M, L) combination use the first
element of each study list.  Validation failures raise ConfigError with
the offending field named; so does a key that no section above lists.
"""

import math

import yaml

from .errors import ConfigError
from .fields import MODE_NODAL, MODE_PROJECTION
from .planner import resolve_calibration

_MODES = {"nodal": MODE_NODAL, "projection": MODE_PROJECTION,
          MODE_NODAL: MODE_NODAL, MODE_PROJECTION: MODE_PROJECTION}
_ESTIMATORS = ("MLE", "Tapered", "Exact")


def _is_int(v):
    """An integer setting; YAML's true/false are bools, which are not."""
    return isinstance(v, int) and not isinstance(v, bool)


def _float(name, v):
    """The float value of a numeric setting, or ConfigError naming it."""
    try:
        if not isinstance(v, bool):
            return float(v)
    except (TypeError, ValueError):
        pass
    raise ConfigError("%s: must be a number, got %r" % (name, v))


class StudyConfig:
    """Validated, picklable settings for sampling, estimation and studies."""

    def __init__(self, field_kind="brownian", d=1, delta=1e-3, s=None,
                 mode=MODE_NODAL, kl_trunc=None, estimator="MLE", alpha=1.0,
                 ns=(16,), Ms=(100,), Ls=(3,), n_rep=2, calibration=None,
                 seed=0, out_dir="out"):
        self.field_kind = field_kind
        self.d = d
        self.delta = delta
        self.s = s  # None: 0.5 - delta, once delta is validated
        self.mode = mode
        self.kl_trunc = kl_trunc
        self.estimator = estimator
        self.alpha = alpha
        self.ns = ns
        self.Ms = Ms
        self.Ls = Ls
        self.n_rep = n_rep
        self.calibration = calibration
        self.seed = seed
        self.out_dir = out_dir
        self._validate()

    def _validate(self):
        if self.field_kind != "brownian":
            raise ConfigError("field.kind: only 'brownian' is supported, got %r"
                              % (self.field_kind,))
        if not (_is_int(self.d) and self.d in (1, 2)):
            raise ConfigError("field.d: must be 1 or 2, got %r" % (self.d,))
        if not (isinstance(self.delta, float) and 0.0 < self.delta < 0.5):
            raise ConfigError("field.delta: must be a float in (0, 0.5), got %r"
                              % (self.delta,))
        if self.s is None:
            self.s = 0.5 - self.delta
        if not (isinstance(self.s, float) and 0.0 < self.s <= 0.5):
            raise ConfigError("field.s: must lie in (0, 0.5], got %r" % (self.s,))
        if not (isinstance(self.mode, str) and self.mode in _MODES):
            raise ConfigError("sampling.mode: must be 'nodal' or 'projection', "
                              "got %r" % (self.mode,))
        self.mode = _MODES[self.mode]
        if self.mode == MODE_PROJECTION:
            if not (_is_int(self.kl_trunc) and self.kl_trunc >= 1):
                raise ConfigError("sampling.kl_trunc: projection mode needs an "
                                  "integer >= 1, got %r" % (self.kl_trunc,))
        if self.estimator not in _ESTIMATORS:
            raise ConfigError("estimator.kind: must be one of %s, got %r"
                              % ("/".join(_ESTIMATORS), self.estimator))
        if not ((_is_int(self.alpha) or isinstance(self.alpha, float))
                and 0 < self.alpha < math.inf):
            raise ConfigError("estimator.alpha: must be a finite alpha > 0, "
                              "got %r" % (self.alpha,))
        for name, attr, low in (("study.ns", "ns", 2), ("study.Ms", "Ms", 1),
                                ("study.Ls", "Ls", 1)):
            lst = getattr(self, attr)
            if not (isinstance(lst, (list, tuple, range)) and lst):
                raise ConfigError("%s: must be a nonempty list, got %r"
                                  % (name, lst))
            setattr(self, attr, list(lst))
            for v in lst:
                if not (_is_int(v) and v >= low):
                    raise ConfigError("%s: entries must be integers >= %d, "
                                      "got %r" % (name, low, v))
            if len(set(lst)) < len(lst):
                raise ConfigError("%s: entries must be distinct, got %r"
                                  % (name, lst))
        min_q = (min(self.ns) + 1) ** self.d
        if max(self.Ls) > min_q:
            raise ConfigError(
                "study.Ls: truncation rank L=%d exceeds the smallest dof "
                "count Q_h=%d (n=%d, d=%d)"
                % (max(self.Ls), min_q, min(self.ns), self.d))
        if not (_is_int(self.n_rep) and self.n_rep >= 1):
            raise ConfigError("study.n_rep: must be an integer >= 1, got %r"
                              % (self.n_rep,))
        self.calibration = resolve_calibration(self.calibration)
        if not (_is_int(self.seed) and self.seed >= 0):
            raise ConfigError("seed: must be a nonnegative integer, got %r"
                              % (self.seed,))
        if not isinstance(self.out_dir, str) or not self.out_dir:
            raise ConfigError("output: must be a nonempty path string, got %r"
                              % (self.out_dir,))

    def to_dict(self):
        """Flat JSON-ready view of every resolved setting: the constructor's
        arguments, which are its only attributes."""
        return dict(vars(self), calibration=dict(self.calibration))


# (section, key, StudyConfig parameter) of each YAML setting; section None
# is the document root.  The calibration section is passed whole.
_SETTINGS = (("field", "kind", "field_kind"), ("field", "d", "d"),
             ("field", "delta", "delta"), ("field", "s", "s"),
             ("sampling", "mode", "mode"),
             ("sampling", "kl_trunc", "kl_trunc"),
             ("estimator", "kind", "estimator"),
             ("estimator", "alpha", "alpha"),
             ("study", "ns", "ns"), ("study", "Ms", "Ms"),
             ("study", "Ls", "Ls"), ("study", "n_rep", "n_rep"),
             (None, "seed", "seed"), (None, "output", "out_dir"))
# parameters read as floats, so that YAML's 1 and 1e-3 load alike
_FLOATS = ("delta", "s", "alpha")
_KEYS = {(sec, key) for sec, key, _ in _SETTINGS}
_SECTIONS = tuple(dict.fromkeys(sec for sec, _, _ in _SETTINGS if sec)) \
    + ("calibration",)


def from_dict(raw):
    """Build a StudyConfig from the nested mapping of a YAML document."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise ConfigError("config root: must be a mapping, got %r"
                          % (type(raw).__name__,))
    # "quadrature" is accepted and ignored, so configs that still set a Gauss
    # order for projection sampling (now exact) keep loading
    known = set(_SECTIONS) | {"quadrature"} | {
        key for sec, key in _KEYS if sec is None}
    unknown = set(raw) - known
    if unknown:
        raise ConfigError("unknown config section(s): %s"
                          % (", ".join(sorted(unknown)),))

    sections = {None: raw}
    for name in _SECTIONS:
        sec = raw.get(name, {})
        if sec is None:
            sec = {}
        if not isinstance(sec, dict):
            raise ConfigError("%s: must be a mapping" % (name,))
        sections[name] = sec
        # resolve_calibration checks the calibration keys
        unknown = [key for key in sec if (name, key) not in _KEYS]
        if unknown and name != "calibration":
            raise ConfigError("%s.%s: unknown setting" % (name, unknown[0]))

    kwargs = {}
    for sec, key, attr in _SETTINGS:
        if key in sections[sec]:
            value = sections[sec][key]
            kwargs[attr] = (_float("%s.%s" % (sec, key), value)
                            if attr in _FLOATS else value)
    if sections["calibration"]:
        kwargs["calibration"] = sections["calibration"]
    return StudyConfig(**kwargs)


def load_config(path, seed=None, out_dir=None):
    """Load and validate a YAML config file, with optional CLI overrides."""
    try:
        with open(path, "r") as fh:
            raw = yaml.safe_load(fh)
    except OSError as exc:
        raise ConfigError("config file %s cannot be read: %s" % (path, exc))
    except yaml.YAMLError as exc:
        raise ConfigError("config file %s is not valid YAML: %s" % (path, exc))
    if raw is not None and not isinstance(raw, dict):
        raise ConfigError("config root: must be a mapping")
    raw = raw or {}
    if seed is not None:
        raw["seed"] = seed
    if out_dir is not None:
        raw["output"] = out_dir
    return from_dict(raw)
