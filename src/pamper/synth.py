"""Synthetic corpora with planted structure.

A planted model is an ordered list of rules plus a fallback. Every
generated point first draws which rule it belongs to (rules carry
membership weights; the fallback receives the leftover mass), then draws
its method from that rule's distribution, pins the rule's pattern bits,
and fills every remaining bit i.i.d. with the noise probability. All draws
come from a seeded PCG64 stream in a fixed order (membership, method,
noise), so a given (model, n, seed) triple yields the same corpus on any
platform. The noise is drawn a block of rows at a time, which continues
the stream exactly as one draw of every row's flags would.

Config files are plain text::

    features = 16
    noise = 0.01
    rule 0.4 : 3=1 -> induct:0.9, auto:0.1
    rule 0.2 : 5=1, 6=0 -> simp:1.0
    fallback : auto:0.7, blast:0.3

The fallback line may instead derive a power-law distribution over listed
methods: ``fallback zipf 1.3 : m001 m002 m003``. Blank lines and ``#``
comments are skipped. Rule order in the file is the model's rule order;
when a vector matches several patterns the first rule wins. Rules and
models check themselves when built, so ``generate`` needs no check of its
own, and the parser reports a rule that fails at the rule's line.
"""
from __future__ import annotations

from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from . import _kernels
from .corpus import _BLOCK_ROWS, Corpus, data_lines
from .errors import (
    BadIndexError,
    InvalidDistributionError,
    InvalidValueError,
    PamperError,
    PlantedConfigError,
    _as_bits,
    _check_feature_count,
    _check_index,
    _check_int,
    _check_name,
)

_SUM_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class PlantedRule:
    """Feature pattern, method distribution, and membership weight."""

    pattern: dict[int, bool]
    distribution: dict[str, float]
    weight: float

    def __post_init__(self):
        object.__setattr__(self, "pattern", MappingProxyType(dict(self.pattern)))
        object.__setattr__(
            self, "distribution", MappingProxyType(dict(self.distribution))
        )
        if not self.weight >= 0.0:
            raise InvalidDistributionError(f"rule weight must be nonnegative, got {self.weight!r}")
        for index in self.pattern:
            _check_index(index)
        _as_bits("pattern values", list(self.pattern.values()), InvalidValueError)
        _check_distribution(self.distribution)


@dataclass(frozen=True, eq=False)
class PlantedModel:
    """Rules plus a fallback, checked when built.

    A rule checks its own weight, indices, pattern values and distribution;
    the model checks its feature count and noise, every index against
    ``feature_count``, the weight sum and the fallback. Each error's ``part``
    names the config key or the index of the rule that set the bad value.
    """

    rules: tuple[PlantedRule, ...]
    fallback: dict[str, float]
    feature_count: int
    noise: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "rules", tuple(self.rules))
        object.__setattr__(self, "fallback", MappingProxyType(dict(self.fallback)))
        try:
            _check_feature_count(self.feature_count)
        except InvalidValueError as exc:
            raise _of("features", exc)
        if not 0.0 <= self.noise <= 1.0:
            raise _of("noise", InvalidValueError("noise must lie in [0, 1]"))
        total_weight = 0.0
        for i, rule in enumerate(self.rules):
            total_weight += rule.weight
            if total_weight > 1.0 + _SUM_TOL:
                raise _of(i, InvalidDistributionError("rule weights sum past 1"))
            for index in rule.pattern:
                if index >= self.feature_count:
                    reason = f"pattern index {index} out of range for {self.feature_count} features"
                    raise _of(i, BadIndexError(None, reason))
        try:
            _check_distribution(self.fallback)
        except InvalidDistributionError as exc:
            raise _of("fallback", exc)


def _of(part, error: PamperError) -> PamperError:
    """``error``, marked with the config key or rule index ``part`` that set the bad value."""
    error.part = part
    return error


def _check_distribution(dist) -> None:
    if not dist:
        raise InvalidDistributionError("distribution has no methods")
    total = 0.0
    for name, prob in dist.items():
        _check_name(name, InvalidDistributionError)
        if not prob >= 0.0:
            raise InvalidDistributionError(
                f"probability for {name} must be nonnegative, got {prob!r}"
            )
        total += prob
    if abs(total - 1.0) > _SUM_TOL:
        raise InvalidDistributionError(f"probabilities sum to {total!r}, expected 1")


def zipf_imbalance(methods, s: float) -> dict[str, float]:
    """Power-law distribution over the methods in their given order.

    The r-th listed method gets probability proportional to r**-s; two
    methods at s=1 come out as (2/3, 1/3). Larger s concentrates mass on
    the head of the list.
    """
    names = list(methods)
    if not names:
        raise InvalidDistributionError("distribution has no methods")
    if len(set(names)) != len(names):
        raise InvalidDistributionError("duplicate method in distribution")
    if not s > 0.0:
        raise InvalidDistributionError("zipf exponent must be positive")
    weights = [rank ** -s for rank in range(1, len(names) + 1)]
    total = sum(weights)
    return {name: w / total for name, w in zip(names, weights)}


def _sample_methods(dist: dict[str, float], draws: np.ndarray) -> np.ndarray:
    items = list(dist.items())
    cumulative = np.cumsum([prob for _, prob in items])
    picks = np.searchsorted(cumulative, draws, side="right")
    picks = np.minimum(picks, len(items) - 1)
    names = np.asarray([name for name, _ in items], dtype=object)
    return names[picks]


def generate(model: PlantedModel, n: int, seed: int) -> Corpus:
    """Sample a corpus of n points from a planted model, deterministically.

    The noise is drawn, patterned and packed one ``_BLOCK_ROWS`` block of
    rows at a time, into columns allocated once for all n rows, so no
    (n, feature_count) matrix is built.
    """
    _check_int("number of points", n, 1)
    _check_int("seed", seed, 0)
    rng = np.random.Generator(np.random.PCG64(seed))
    width = model.feature_count
    try:
        membership_draws = rng.random(n)
        method_draws = rng.random(n)
        columns = np.empty((width, -(-n // 64)), dtype=np.uint64)
        # Rule i takes the draws below the weights summed through rule i and not below
        # those summed before it; the draws past every rule go to the fallback, the last part.
        upper = np.cumsum([rule.weight for rule in model.rules])
        assigned = np.searchsorted(upper, membership_draws, side="right")
        for r0 in range(0, n, _BLOCK_ROWS):
            rule_of = assigned[r0:r0 + _BLOCK_ROWS]
            if model.noise > 0.0:
                X = (rng.random((len(rule_of), width)) < model.noise).view(np.uint8)
            else:
                X = np.zeros((len(rule_of), width), dtype=np.uint8)
            for i, rule in enumerate(model.rules):
                members = rule_of == i
                for index, want in rule.pattern.items():
                    X[members, index] = 1 if want else 0
            columns[:, r0 // 64:(r0 + len(X) + 63) // 64] = _kernels.pack_columns(X)
    except (MemoryError, ValueError):  # too large to allocate, or past numpy's size limit
        raise InvalidValueError(f"{n} points of {width} features do not fit in memory") from None

    names = np.empty(n, dtype=object)
    distributions = [rule.distribution for rule in model.rules] + [model.fallback]
    for i, distribution in enumerate(distributions):
        members = assigned == i
        if members.any():
            names[members] = _sample_methods(distribution, method_draws[members])
    return Corpus._packed(names.tolist(), columns)


def _number(convert, text: str, line_no: int, what: str):
    """``convert`` of the stripped text, or PlantedConfigError "bad <what>" at the line."""
    try:
        return convert(text.strip())
    except ValueError:
        raise PlantedConfigError(line_no, f"bad {what}: {text.strip()!r}") from None


def _parse_distribution(text: str, line_no: int) -> dict[str, float]:
    dist: dict[str, float] = {}
    for part in text.split(","):
        entry = part.strip()
        if not entry:
            raise PlantedConfigError(line_no, "empty distribution entry")
        name, sep, prob_text = entry.rpartition(":")
        if not sep:
            raise PlantedConfigError(line_no, f"expected '<method>:<prob>', got {entry!r}")
        name = name.strip()
        if name in dist:
            raise PlantedConfigError(line_no, f"duplicate method: {name}")
        dist[name] = _number(float, prob_text, line_no, "probability")
    return dist


def _parse_pattern(text: str, line_no: int) -> dict[int, bool]:
    pattern: dict[int, bool] = {}
    for part in text.split(","):
        entry = part.strip()
        if not entry:
            raise PlantedConfigError(line_no, "empty pattern entry")
        index_text, sep, bit = entry.partition("=")
        if not sep or bit.strip() not in ("0", "1"):
            raise PlantedConfigError(line_no, f"expected '<index>=<0|1>', got {entry!r}")
        index = _number(int, index_text, line_no, "feature index")
        if index in pattern:
            raise PlantedConfigError(line_no, f"duplicate pattern index: {index}")
        pattern[index] = bit.strip() == "1"
    return pattern


def _parse_rule(line: str, line_no: int) -> PlantedRule:
    body = line[len("rule"):].strip()
    weight_text, sep, rest = body.partition(":")
    if not sep:
        raise PlantedConfigError(line_no, "expected 'rule <weight> : <pattern> -> <dist>'")
    weight = _number(float, weight_text, line_no, "rule weight")
    pattern_text, arrow, dist_text = rest.partition("->")
    if not arrow:
        raise PlantedConfigError(line_no, "rule is missing '->'")
    pattern = _parse_pattern(pattern_text.strip(), line_no)
    dist = _parse_distribution(dist_text.strip(), line_no)
    try:
        return PlantedRule(pattern, dist, weight)
    except PamperError as exc:
        raise PlantedConfigError(line_no, str(exc)) from None


def _parse_fallback(line: str, line_no: int) -> dict[str, float]:
    body = line[len("fallback"):].strip()
    if body.startswith("zipf"):
        spec, sep, names_text = body[len("zipf"):].partition(":")
        if not sep:
            raise PlantedConfigError(line_no, "expected 'fallback zipf <s> : <names>'")
        s = _number(float, spec, line_no, "zipf exponent")
        names = names_text.replace(",", " ").split()
        try:
            return zipf_imbalance(names, s)
        except InvalidDistributionError as exc:
            raise PlantedConfigError(line_no, str(exc)) from None
    head, sep, dist_text = body.partition(":")
    if not sep or head.strip():
        raise PlantedConfigError(line_no, "expected 'fallback : <dist>'")
    return _parse_distribution(dist_text.strip(), line_no)


def parse_planted_config(text: str | bytes) -> PlantedModel:
    """Parse a planted-model config file into a PlantedModel, which checks itself.

    Bytes that are not UTF-8, grammar errors and a rule that fails its own
    checks raise PlantedConfigError with their line number. A whole-model
    check keeps its error class and names the line that set the failing
    part: the ``features``, ``noise`` or fallback line, or the rule whose
    index is out of range or whose weight takes the sum past 1.
    """
    feature_count: int | None = None
    noise = 0.0
    rules: list[PlantedRule] = []
    fallback: dict[str, float] | None = None
    part_lines: dict = {}
    for line_no, line in data_lines(text, PlantedConfigError):
        if line.startswith("rule") and (len(line) == 4 or not line[4].isalnum()):
            part_lines[len(rules)] = line_no
            rules.append(_parse_rule(line, line_no))
        elif line.startswith("fallback") and (len(line) == 8 or not line[8].isalnum()):
            if fallback is not None:
                raise PlantedConfigError(line_no, "duplicate fallback line")
            part_lines["fallback"] = line_no
            fallback = _parse_fallback(line, line_no)
        elif "=" in line:
            key, _, value = line.partition("=")
            key = key.strip()
            part_lines[key] = line_no
            if key == "features":
                feature_count = _number(int, value, line_no, "feature count")
            elif key == "noise":
                noise = _number(float, value, line_no, "noise")
            else:
                raise PlantedConfigError(line_no, f"unknown key: {key!r}")
        else:
            raise PlantedConfigError(line_no, f"unrecognized line: {line!r}")
    if feature_count is None:
        raise PlantedConfigError(1, "config never sets 'features'")
    if fallback is None:
        raise PlantedConfigError(1, "config has no fallback line")
    try:
        return PlantedModel(tuple(rules), fallback, feature_count, noise)
    except PamperError as exc:
        exc.line_no = part_lines[exc.part]
        raise
