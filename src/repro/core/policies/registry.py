"""The declarative policy registry.

Every placement policy the experiment layer can name lives here as a
:class:`PolicyEntry`: a factory and a description, so specs carry
``policy="bandit"`` and ``policy_params={"epsilon": 0.1, "seed": 7}``
instead of the old hard-coded ``resolve_policy(name, threshold)`` lambda
table.  An entry's typed parameter schema is not written down here: it
is read from the factory's keyword-only signature — names, order and
defaults from :func:`inspect.signature`, types from the annotations — so
a new policy is one class plus one row below, and the schema cannot
drift from the constructor.  The entry validates and coerces parameters
before construction, and the CLI's ``repro-numa policies`` command
lists the table.
"""

from __future__ import annotations

import inspect
import typing
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Dict, List, Mapping, Optional, Tuple

from repro.core.policies.adaptive import (
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
    DecayPolicy,
    MigrationOnlyPolicy,
    ReplicationOnlyPolicy,
)
from repro.core.policies.move_threshold import MoveThresholdPolicy
from repro.core.policies.reconsider import ReconsiderPolicy
from repro.core.policy import NUMAPolicy
from repro.errors import ConfigurationError
from repro.registry import Registry


@dataclass(frozen=True)
class ParamSpec:
    """One typed, defaulted constructor parameter of a policy."""

    name: str
    type: type
    default: object

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
    """One named policy: factory and description."""

    name: str
    factory: Callable[..., NUMAPolicy]
    description: str = ""

    @cached_property
    def param_schema(self) -> Dict[str, ParamSpec]:
        """The factory's parameters by name, in signature order.

        Defaults come from the signature and types from the annotations,
        with ``Optional[T]`` read as ``T`` (a ``None`` default is then
        one only the constructor itself interprets).
        """
        hints = typing.get_type_hints(self.factory.__init__)
        schema = {}
        for name, parameter in inspect.signature(
            self.factory
        ).parameters.items():
            args = [a for a in typing.get_args(hints[name])
                    if a is not type(None)]
            schema[name] = ParamSpec(
                name, args[0] if args else hints[name], parameter.default
            )
        return schema

    def validate_params(
        self, params: Mapping[str, object]
    ) -> Dict[str, object]:
        """Coerced copy of *params*, or :class:`ConfigurationError`.

        Unknown names and type mismatches are rejected with the valid
        choices spelled out; omitted parameters keep their defaults (by
        omission — the returned dict holds only what was given).
        """
        schema = self.param_schema
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
            and "threshold" in self.param_schema
            and "threshold" not in kwargs
        ):
            kwargs["threshold"] = threshold
        return self.factory(**kwargs)


#: Every policy the experiment layer can resolve by name.  Insertion
#: order is display order for ``repro-numa policies``.
POLICY_ENTRIES: Registry[PolicyEntry] = Registry("policy", {
    row[0]: PolicyEntry(*row)
    for row in (
        ("move-threshold", MoveThresholdPolicy,
         "the paper's policy: migrate/replicate freely, pin after "
         "threshold moves (Section 2.3.2)"),
        ("all-global", AllGlobalPolicy,
         "shared data always global — the paper's 'global' baseline"),
        ("all-local", AllLocalPolicy,
         "everything local, uniprocessor reference — the 'local' "
         "baseline"),
        ("all-global-everything", AllGlobalEverythingPolicy,
         "code, private and shared data all global (Table 4's "
         "pessimal column)"),
        ("migration-only", MigrationOnlyPolicy,
         "pages chase writers, readers go global (LaRowe & Ellis "
         "design-space half)"),
        ("replication-only", ReplicationOnlyPolicy,
         "replicate for readers, first migration demotes to global"),
        ("reconsider", ReconsiderPolicy,
         "move-threshold whose pins expire after an interval "
         "(Section 5's 'reconsider periodically')"),
        ("decay", DecayPolicy,
         "PLATINUM-style freeze/defrost competitor"),
        ("adaptive-threshold", AdaptiveThresholdPolicy,
         "per-page pin expiry with exponential backoff, move-count "
         "decay, and stricter thresholds for write-shared pages"),
        ("bandwidth-aware", BandwidthAwarePolicy,
         "move-threshold that prefers remote mapping or global "
         "placement over migrating across a congested interconnect"),
        ("bandit", BanditPolicy,
         "seeded epsilon-greedy/UCB tuner picking move thresholds "
         "per page class from α/elapsed rewards"),
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
    return [
        {
            "name": entry.name,
            "params": ", ".join(
                spec.summary for spec in entry.param_schema.values()
            ),
            "description": entry.description,
        }
        for entry in POLICY_ENTRIES.values()
    ]


def _coerce_literal(text: str) -> object:
    """A CLI parameter value: int, then float, then bool, else string."""
    for parse in (int, float):
        try:
            return parse(text)
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
