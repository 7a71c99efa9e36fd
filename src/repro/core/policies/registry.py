"""The declarative policy registry.

Every placement policy the experiment layer can name lives here as a
:class:`PolicyEntry`: a factory plus a typed parameter schema and the
defaults, so specs carry ``policy="bandit"`` and
``policy_params={"epsilon": 0.1, "seed": 7}`` instead of the old
hard-coded ``resolve_policy(name, threshold)`` lambda table.  The entry
validates and coerces parameters before construction, the CLI's
``repro-numa policies`` command lists the table, and
:meth:`~repro.core.policy.NUMAPolicy.params` closes the round trip:
``entry.build(params=policy.params())`` rebuilds an equivalent policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.policies.adaptive import (
    DEFAULT_ADAPTIVE_INTERVAL_US,
    DEFAULT_BACKOFF,
    DEFAULT_CANDIDATES,
    DEFAULT_CONGESTION,
    DEFAULT_CONTENDED_OWNERS,
    DEFAULT_EPOCH_US,
    DEFAULT_EPSILON,
    DEFAULT_MAX_FACTOR,
    DEFAULT_MAX_INTERVAL_US,
    DEFAULT_STRATEGY,
    DEFAULT_WINDOW_US,
    AdaptiveThresholdPolicy,
    BandwidthAwarePolicy,
    BanditPolicy,
)
from repro.core.policies.baselines import (
    AllGlobalEverythingPolicy,
    AllGlobalPolicy,
    AllLocalPolicy,
)
from repro.core.policies.competitors import (
    DEFAULT_DECAY_US,
    DecayPolicy,
    MigrationOnlyPolicy,
    ReplicationOnlyPolicy,
)
from repro.core.policies.move_threshold import (
    DEFAULT_MOVE_THRESHOLD,
    MoveThresholdPolicy,
)
from repro.core.policies.reconsider import (
    DEFAULT_RECONSIDER_INTERVAL_US,
    ReconsiderPolicy,
)
from repro.core.policy import NUMAPolicy
from repro.errors import ConfigurationError
from repro.registry import Registry


@dataclass(frozen=True)
class ParamSpec:
    """One typed, defaulted constructor parameter of a policy."""

    name: str
    type: type
    default: object
    help: str = ""

    @property
    def summary(self) -> str:
        """``name:type=default`` for listings."""
        return f"{self.name}:{self.type.__name__}={self.default!r}"

    def coerce(self, value: object) -> object:
        """Validate *value* against the spec, widening int to float."""
        if self.type is float and isinstance(value, int) \
                and not isinstance(value, bool):
            return float(value)
        # bool is an int subclass; an int-typed parameter given True
        # would silently become 1, so reject it explicitly.
        if isinstance(value, bool) and self.type is not bool:
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got bool"
            )
        if not isinstance(value, self.type):
            raise ConfigurationError(
                f"parameter {self.name!r} expects {self.type.__name__}, "
                f"got {type(value).__name__} ({value!r})"
            )
        return value


@dataclass(frozen=True)
class PolicyEntry:
    """One named policy: factory, parameter schema, description."""

    name: str
    factory: Callable[..., NUMAPolicy]
    param_schema: Tuple[ParamSpec, ...] = ()
    description: str = ""

    def schema_by_name(self) -> Dict[str, ParamSpec]:
        """The schema as an insertion-ordered name → spec mapping."""
        return {spec.name: spec for spec in self.param_schema}

    def validate_params(
        self, params: Mapping[str, object]
    ) -> Dict[str, object]:
        """Coerced copy of *params*, or :class:`ConfigurationError`.

        Unknown names and type mismatches are rejected with the valid
        choices spelled out; omitted parameters keep their defaults (by
        omission — the returned dict holds only what was given).
        """
        schema = self.schema_by_name()
        unknown = sorted(set(params) - set(schema))
        if unknown:
            valid = ", ".join(schema) if schema else "none"
            raise ConfigurationError(
                f"policy {self.name!r} has no parameter(s) "
                f"{', '.join(repr(p) for p in unknown)}; valid: {valid}"
            )
        return {
            name: schema[name].coerce(value)
            for name, value in params.items()
        }

    def build(
        self,
        threshold: Optional[int] = None,
        params: Mapping[str, object] = (),
    ) -> NUMAPolicy:
        """Construct the policy from validated keyword parameters.

        A spec's ``threshold`` field fills the schema's ``threshold``
        parameter when ``policy_params`` does not name it, so the
        classic ``RunSpec(policy="move-threshold", threshold=9)`` shape
        still parameterizes every threshold-taking policy.
        """
        kwargs = self.validate_params(dict(params))
        if (
            threshold is not None
            and "threshold" in self.schema_by_name()
            and "threshold" not in kwargs
        ):
            kwargs["threshold"] = threshold
        return self.factory(**kwargs)


def _threshold_param() -> ParamSpec:
    return ParamSpec(
        "threshold", int, DEFAULT_MOVE_THRESHOLD,
        "ownership moves before a page is pinned in global memory",
    )


#: Every policy the experiment layer can resolve by name.  Insertion
#: order is display order for ``repro-numa policies``.
POLICY_ENTRIES: Registry[PolicyEntry] = Registry("policy", {
    entry.name: entry
    for entry in (
        PolicyEntry(
            "move-threshold",
            MoveThresholdPolicy,
            (_threshold_param(),),
            "the paper's policy: migrate/replicate freely, pin after "
            "threshold moves (Section 2.3.2)",
        ),
        PolicyEntry(
            "all-global",
            AllGlobalPolicy,
            (),
            "shared data always global — the paper's 'global' baseline",
        ),
        PolicyEntry(
            "all-local",
            AllLocalPolicy,
            (),
            "everything local, uniprocessor reference — the 'local' "
            "baseline",
        ),
        PolicyEntry(
            "all-global-everything",
            AllGlobalEverythingPolicy,
            (),
            "code, private and shared data all global (Table 4's "
            "pessimal column)",
        ),
        PolicyEntry(
            "migration-only",
            MigrationOnlyPolicy,
            (),
            "pages chase writers, readers go global (LaRowe & Ellis "
            "design-space half)",
        ),
        PolicyEntry(
            "replication-only",
            ReplicationOnlyPolicy,
            (),
            "replicate for readers, first migration demotes to global",
        ),
        PolicyEntry(
            "reconsider",
            ReconsiderPolicy,
            (
                _threshold_param(),
                ParamSpec(
                    "interval_us", float, DEFAULT_RECONSIDER_INTERVAL_US,
                    "simulated µs before a pin is reconsidered",
                ),
            ),
            "move-threshold whose pins expire after an interval "
            "(Section 5's 'reconsider periodically')",
        ),
        PolicyEntry(
            "decay",
            DecayPolicy,
            (
                _threshold_param(),
                ParamSpec(
                    "decay_us", float, DEFAULT_DECAY_US,
                    "simulated µs before a frozen page defrosts",
                ),
            ),
            "PLATINUM-style freeze/defrost competitor",
        ),
        PolicyEntry(
            "adaptive-threshold",
            AdaptiveThresholdPolicy,
            (
                _threshold_param(),
                ParamSpec(
                    "interval_us", float, DEFAULT_ADAPTIVE_INTERVAL_US,
                    "base pin lifetime, simulated µs",
                ),
                ParamSpec(
                    "backoff", float, DEFAULT_BACKOFF,
                    "pin-lifetime multiplier per re-pin",
                ),
                ParamSpec(
                    "max_interval_us", float, DEFAULT_MAX_INTERVAL_US,
                    "pin-lifetime cap, simulated µs",
                ),
                ParamSpec(
                    "contended_owners", int, DEFAULT_CONTENDED_OWNERS,
                    "distinct writers before a page is classed contended",
                ),
                ParamSpec(
                    "contended_threshold", int, None,
                    "move budget for contended pages (default: half the "
                    "base threshold)",
                ),
            ),
            "per-page pin expiry with exponential backoff, move-count "
            "decay, and stricter thresholds for write-shared pages",
        ),
        PolicyEntry(
            "bandwidth-aware",
            BandwidthAwarePolicy,
            (
                _threshold_param(),
                ParamSpec(
                    "congestion", float, DEFAULT_CONGESTION,
                    "edge utilization above which migration is avoided",
                ),
                ParamSpec(
                    "window_us", float, DEFAULT_WINDOW_US,
                    "contention ledger window, simulated µs",
                ),
                ParamSpec(
                    "max_factor", float, DEFAULT_MAX_FACTOR,
                    "cap on the queueing stretch 1/(1-rho)",
                ),
            ),
            "move-threshold that prefers remote mapping or global "
            "placement over migrating across a congested interconnect",
        ),
        PolicyEntry(
            "bandit",
            BanditPolicy,
            (
                ParamSpec(
                    "epsilon", float, DEFAULT_EPSILON,
                    "exploration probability (egreedy strategy)",
                ),
                ParamSpec(
                    "seed", int, 0,
                    "RNG seed; same seed, same decisions, byte-identical "
                    "results",
                ),
                ParamSpec(
                    "candidates", str, DEFAULT_CANDIDATES,
                    "candidate move thresholds, comma- or plus-separated "
                    "(use + on the CLI: candidates=0+2+4+8)",
                ),
                ParamSpec(
                    "epoch_us", float, DEFAULT_EPOCH_US,
                    "simulated µs per reward epoch",
                ),
                ParamSpec(
                    "strategy", str, DEFAULT_STRATEGY,
                    "arm selection: egreedy or ucb",
                ),
            ),
            "seeded epsilon-greedy/UCB tuner picking move thresholds "
            "per page class from α/elapsed rewards",
        ),
    )
})


def build_policy(
    name: str,
    threshold: Optional[int] = None,
    params: Mapping[str, object] = (),
) -> NUMAPolicy:
    """Construct a policy by registry name with validated parameters."""
    return POLICY_ENTRIES.resolve(name).build(
        threshold=threshold, params=params
    )


def policy_registry_rows() -> List[Dict[str, object]]:
    """One row per entry for the ``repro-numa policies`` listing."""
    rows: List[Dict[str, object]] = []
    for entry in POLICY_ENTRIES.values():
        rows.append(
            {
                "name": entry.name,
                "params": ", ".join(
                    spec.summary for spec in entry.param_schema
                ),
                "description": entry.description,
            }
        )
    return rows


def _coerce_literal(text: str) -> object:
    """A CLI parameter value: int, then float, then bool, else string."""
    try:
        return int(text)
    except ValueError:
        pass
    try:
        return float(text)
    except ValueError:
        pass
    if text.lower() in ("true", "false"):
        return text.lower() == "true"
    return text


def parse_policy_arg(text: str) -> Tuple[str, Dict[str, object]]:
    """Parse a CLI policy argument: ``name`` or ``name:k=v,k2=v2``.

    The name must exist in the registry (it comes back in the
    registry's spelling, so ``Bandit:seed=7`` and ``bandit:seed=7`` are
    one spec) and the parameters must validate against its schema —
    errors surface here, before any simulation is queued.
    """
    name, _, rest = text.partition(":")
    name = POLICY_ENTRIES.canonical(name)
    entry = POLICY_ENTRIES[name]
    params: Dict[str, object] = {}
    if rest.strip():
        for piece in rest.split(","):
            key, sep, value = piece.partition("=")
            if not sep or not key.strip():
                raise ConfigurationError(
                    f"bad policy parameter {piece!r} in {text!r}; "
                    "expected name:key=value,key=value"
                )
            params[key.strip()] = _coerce_literal(value.strip())
    return name, entry.validate_params(params)
