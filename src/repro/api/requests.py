"""Request models of the three operations: solve, simulate, dag optimize.

``repro solve``, ``repro simulate`` and ``repro dag optimize`` take the
same requests as ``POST /solve``, ``/simulate`` and ``/dag/optimize``.
Each operation has one frozen dataclass here, which holds every field's
type, default and coercion.  :func:`parse_request` turns a request
document (an HTTP body, or the CLI's flags spelled as one) into it.  It
rejects unknown fields, values of the wrong type and fields that
contradict each other with a typed
:class:`~repro.exceptions.InvalidParameterError` that names the field.

A field counts as *set* when the document holds it (a ``null`` for a
field whose default is ``None`` counts as absent); its value is never
compared against the default.  :meth:`Request.content` is what the
service keys its cache on.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field, fields
from typing import TYPE_CHECKING, Any, Callable, ClassVar, Iterable

import numpy as np

from ..chains import PAPER_TOTAL_WEIGHT, PATTERNS, TaskChain, make_chain
from ..core.solver import canonical_algorithm
from ..dag.generate import GENERATORS, generate
from ..dag.search import SEARCH_METHODS, uses_join_objective
from ..dag.workflow import WorkflowDAG
from ..exceptions import InvalidParameterError, ReproError
from ..platforms import PLATFORMS, Platform, get_platform

if TYPE_CHECKING:
    import numpy.typing as npt

__all__ = [
    "Request",
    "SolveRequest",
    "SimulateRequest",
    "DagOptimizeRequest",
    "REQUESTS",
    "parse_request",
    "parse_seed",
]


def _weights(value: Any) -> npt.NDArray[np.float64]:
    # the conversion TaskChain applies, so that it raises here, not there
    return np.asarray(list(value), dtype=np.float64)


def _platform(value: Any) -> Platform:
    if isinstance(value, dict):
        return Platform.from_dict(value)
    try:
        return get_platform(str(value))
    except KeyError as exc:
        raise InvalidParameterError(str(exc.args[0])) from None


def _seed(value: Any) -> int:
    """A seed NumPy's ``SeedSequence`` takes: a non-negative integer."""
    seed = int(value)
    if seed < 0:
        raise ValueError(seed)
    return seed


def _algorithm(value: Any) -> str:
    return canonical_algorithm(str(value))


def _workflow(value: Any) -> WorkflowDAG:
    if not isinstance(value, dict):
        raise InvalidParameterError(
            "'dag' must be a workflow document (see `repro dag generate "
            "--json`)"
        )
    return WorkflowDAG.from_dict(value)


def _generator(value: Any) -> dict[str, Any]:
    """The generator spec with its family and seed filled in."""
    if value and not isinstance(value, dict):
        raise InvalidParameterError("'generator' must be an object")
    knobs = dict(value or {})
    kind = str(knobs.pop("kind", "layered"))
    seed = parse_seed(knobs.pop("seed", 0), "generator.seed")
    if kind in GENERATORS:
        accepted = inspect.signature(GENERATORS[kind]).parameters
        unknown = sorted(set(knobs) - set(accepted))
        if unknown:
            raise InvalidParameterError(
                f"workflow family {kind!r} does not accept "
                f"{', '.join(_spelled(k) for k in unknown)} (it takes "
                f"{', '.join(sorted(set(accepted) - {'seed', 'name'}))})"
            )
    return {"kind": kind, "seed": seed, **knobs}


_EXPECTED: dict[Callable[[Any], Any], str] = {
    int: "an integer",
    float: "a number",
    _seed: "a non-negative integer",
    _weights: "a list of numbers",
    _platform: "a platform name or document",
}


def parse_seed(value: Any, name: str = "seed") -> int:
    """``value`` as a NumPy seed, or a typed error naming the field."""
    seed: int = _coerce(value, _seed, name)
    return seed


def _coerce(value: Any, kind: Callable[[Any], Any], name: str) -> Any:
    """``kind(value)``, or a typed 400 naming the request field.

    ``int``/``float`` coercion of a client's JSON raises a bare
    ``ValueError``/``TypeError`` on a non-numeric value, which would
    surface as a 500.
    """
    try:
        return kind(value)
    except ReproError:
        raise
    except (TypeError, ValueError, OverflowError):
        raise InvalidParameterError(
            f"field {name!r} must be {_EXPECTED.get(kind, 'well-formed')}, "
            f"got {value!r}"
        ) from None


def _option(
    default: Any,
    coerce: Callable[[Any], Any],
    help: str,
    *,
    flag: str | None = None,
    choices: tuple[str, ...] | None = None,
) -> Any:
    """A request field: its default (as a request spells it), coercion and
    help, plus the CLI flag that sets it when that is not ``--<name>``."""
    meta = {
        "coerce": coerce,
        "spelled_default": default,
        "help": help,
        "flag": flag,
        "choices": choices,
    }
    if isinstance(default, dict):
        return field(default_factory=lambda: coerce(default), metadata=meta)
    return field(
        default=None if default is None else coerce(default), metadata=meta
    )


_PLATFORM_HELP = f"platform name ({', '.join(sorted(PLATFORMS))})"
_ALGORITHM_HELP = "adv*, admv*, admv"
_BACKEND_HELP = (
    "array-API backend for the batched kernel (numpy or "
    "array-api-strict; default: $REPRO_BACKEND, else numpy)"
)


def _spelled(name: str, flag: str | None = None) -> str:
    """A field as both front ends spell it: ``'target_ci' (--target-ci)``."""
    return f"{name!r} ({flag or '--' + name.replace('_', '-')})"


@dataclass(frozen=True)
class Request:
    """Fields every request shares; build one with :func:`parse_request`."""

    endpoint: ClassVar[str]
    #: the names of the fields the request document set
    given: frozenset[str] = field(default=frozenset(), repr=False)

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in fields(cls) if "coerce" in f.metadata)

    def _names(self, names: Iterable[str]) -> str:
        flags = {f.name: f.metadata.get("flag") for f in fields(self)}
        return ", ".join(_spelled(n, flags.get(n)) for n in sorted(names))

    def content(self) -> dict[str, Any]:
        """The normalized request the service's content key hashes."""
        raise NotImplementedError


@dataclass(frozen=True)
class SolveRequest(Request):
    """The DP optimum of one chain (``repro solve``, ``POST /solve``)."""

    endpoint: ClassVar[str] = "solve"
    platform: Platform = _option(
        "hera", _platform, _PLATFORM_HELP, flag="-p/--platform"
    )
    pattern: str = _option(
        "uniform", str, "task weight pattern", choices=tuple(sorted(PATTERNS))
    )
    tasks: int = _option(20, int, "number of tasks", flag="-n/--tasks")
    total_weight: float = _option(
        PAPER_TOTAL_WEIGHT,
        float,
        "total computational weight in seconds",
        flag="-w/--total-weight",
    )
    weights: npt.NDArray[np.float64] | None = _option(
        None, _weights, "task weights (instead of a pattern)", flag="--chain-file"
    )
    chain: str = _option("custom", str, "the weights' chain name", flag="--chain-file")
    algorithm: str = _option("admv", _algorithm, _ALGORITHM_HELP, flag="-a/--algorithm")
    seed: int = _option(
        0, _seed, "seed of the random pattern's weights and of a simulation"
    )
    #: the chain the request names: its weights, or its pattern drawn
    task_chain: TaskChain = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.weights is not None:
            chain = TaskChain(self.weights, name=self.chain)
        else:
            # the random pattern draws its weights from the request's
            # seed, so that identical requests name identical chains
            seeded = {"rng": self.seed} if self.pattern == "random" else {}
            chain = make_chain(
                self.pattern, self.tasks, self.total_weight, **seeded
            )
        object.__setattr__(self, "task_chain", chain)

    def content(self) -> dict[str, Any]:
        # a random pattern's seed reaches the key through the chain
        return {
            "platform": self.platform,
            "chain": self.task_chain,
            "algorithm": self.algorithm,
        }


@dataclass(frozen=True)
class SimulateRequest(SolveRequest):
    """A Monte-Carlo campaign of the optimum or of a given schedule
    (``repro simulate``, ``POST /simulate``)."""

    endpoint: ClassVar[str] = "simulate"
    #: kept as spelled: a bad schedule fails the run, not the request
    schedule: str | None = _option(
        None, str, "override: fixed schedule string (default the optimum's)"
    )
    runs: int | None = _option(
        None,
        int,
        "replications: exact count for fixed-N campaigns (default 1000), "
        "hard cap when a target CI is set (default: the orchestrator's 1M "
        "cap, matching `repro sweep --target-ci`)",
    )
    target_ci: float | None = _option(
        None,
        float,
        "adaptive precision: run rounds until the relative CI half-width "
        "on the mean reaches this target (e.g. 0.01 for 1 percent)",
    )
    backend: str | None = _option(None, str, _BACKEND_HELP)
    engine: str = _option(
        "batch",
        str,
        "batched vectorized engine or the scalar oracle loop",
        choices=("batch", "scalar"),
    )

    def content(self) -> dict[str, Any]:
        return {
            **super().content(),
            "schedule": self.schedule,
            "runs": self.runs,
            "seed": self.seed,
            "target_ci": self.target_ci,
            "backend": backend_name(self.backend),
            "engine": self.engine,
        }


@dataclass(frozen=True)
class DagOptimizeRequest(Request):
    """The best serialisation of a workflow, or its best p-worker plan
    (``repro dag optimize``, ``POST /dag/optimize``)."""

    endpoint: ClassVar[str] = "dag/optimize"
    platform: Platform = _option(
        "hera", _platform, _PLATFORM_HELP, flag="-p/--platform"
    )
    dag: WorkflowDAG | None = _option(
        None, _workflow, "the workflow document", flag="--dag-file"
    )
    generator: dict[str, Any] = _option(
        {}, _generator, "the workflow generator and its knobs", flag="--kind"
    )
    algorithm: str = _option("admv", _algorithm, _ALGORITHM_HELP, flag="-a/--algorithm")
    strategy: str = _option(
        "auto", str, "auto, all, search, or a single heuristic order"
    )
    method: str = _option(
        "hill_climb", str, "search method", choices=SEARCH_METHODS
    )
    seed: int = _option(0, _seed, "seed of the search and its Monte-Carlo runs")
    restarts: int = _option(2, int, "random restarts (search)")
    iterations: int = _option(400, int, "annealing iterations (search)")
    recombine: int = _option(
        2, int, "elite-order crossover children to climb (search; 0 disables)"
    )
    certify: bool = _option(
        False,
        bool,
        "Monte-Carlo certify the winning order (adaptive, batched engine)",
    )
    target_ci: float = _option(
        0.01,
        float,
        "precision of the certification or of the parallel estimate "
        "(relative CI half-width)",
    )
    backend: str | None = _option(
        None, str, "array-API backend for the certification or the estimate"
    )
    processors: int | None = _option(
        None,
        int,
        "schedule onto P workers instead of serialising: (assignment, "
        "order) search with per-worker checkpoint placement",
    )
    estimate: bool = _option(
        True,
        bool,
        "skip the adaptive Monte-Carlo makespan estimate of the winning "
        "parallel plan",
        flag="--no-estimate",
    )
    #: the workflow the request names: its document, or its generator's
    workflow: WorkflowDAG = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        workflow = self.dag
        if workflow is None:
            try:
                workflow = generate(**self.generator)
            except TypeError as exc:  # a knob value the family rejects
                raise InvalidParameterError(f"bad 'generator': {exc}") from None
        object.__setattr__(self, "workflow", workflow)
        self.check()

    @property
    def simulates(self) -> bool:
        """Does the request run a Monte-Carlo campaign (the certification
        or the parallel plan's estimate)?"""
        if self.processors is None:
            return self.certify
        return self.estimate

    def check(self) -> None:
        """The cross-field rules."""
        serial = self.processors is None
        search = serial and self.strategy == "search"
        rules = [  # (rule applies, fields it forbids, why)
            (
                serial and not self.certify,
                {"backend", "target_ci"},
                "configure the Monte-Carlo certification campaign; enable "
                "it with 'certify' (--certify)",
            ),
            (
                serial,
                {"estimate"},
                "turns off the parallel plan's adaptive makespan estimate; "
                "it requires 'processors' (--processors)",
            ),
            (
                serial and not search,
                {"method", "restarts", "iterations", "recombine"},
                "only affect the metaheuristic search; add 'strategy': "
                f"'search' (--strategy search), got {self.strategy!r}",
            ),
            (
                search and uses_join_objective(self.workflow),
                {"recombine"},
                f"does not apply to the join objective ({self.workflow.name!r} "
                "is join-shaped: states are evaluated exactly in-process, "
                "with no recombination)",
            ),
            (
                not serial,
                {"strategy", "recombine"},
                "only affect the single-processor serialisation; "
                f"'processors' {self.processors} always runs the parallel "
                "(assignment, order) search",
            ),
            (
                not serial,
                {"certify"},
                "stamps serialized chain schedules; a parallel plan gets an "
                "adaptive makespan estimate instead ('estimate', or "
                "repro.simulation.simulate_parallel on solution.plan())",
            ),
            (
                not serial and not self.estimate,
                {"backend", "target_ci"},
                "configure the adaptive makespan estimate; drop 'estimate' "
                "(--no-estimate) to use them",
            ),
        ]
        for applies, forbidden, why in rules:
            if applies and self.given & forbidden:
                raise InvalidParameterError(
                    f"{self._names(self.given & forbidden)} {why}"
                )

    def content(self) -> dict[str, Any]:
        content = {
            "platform": self.platform,
            "dag": self.workflow,
            "algorithm": self.algorithm,
            "strategy": self.strategy,
            "method": self.method,
            "seed": self.seed,
            "restarts": self.restarts,
            "iterations": self.iterations,
            "recombine": self.recombine,
            "certify": self.certify,
            "target_ci": self.target_ci,
            "backend": backend_name(self.backend) if self.simulates else None,
            "processors": self.processors,
        }
        if self.processors is not None:
            content["estimate"] = self.estimate
        return content


#: endpoint -> its request model
REQUESTS: dict[str, type[Request]] = {
    cls.endpoint: cls
    for cls in (SolveRequest, SimulateRequest, DagOptimizeRequest)
}


def backend_name(spec: str | None) -> str:
    """The array backend a campaign selecting ``spec`` runs on."""
    from ..simulation import get_backend

    return get_backend(spec).name


def parse_request(endpoint: str, doc: Any) -> Request:
    """The request model ``doc`` spells for ``endpoint``.

    Every field the document sets is coerced to its type, the model
    fills in the rest, and the cross-field rules run on the result.
    """
    cls = REQUESTS.get(endpoint)
    if cls is None:
        raise InvalidParameterError(
            f"unknown endpoint {endpoint!r}; expected one of "
            f"{', '.join(REQUESTS)}"
        )
    if not isinstance(doc, dict):
        raise InvalidParameterError(
            f"request body must be a JSON object, got {type(doc).__name__}"
        )
    allowed = cls.field_names()
    unknown = sorted(set(doc) - set(allowed))
    if unknown:
        raise InvalidParameterError(
            f"unknown field(s) {', '.join(unknown)} for /{endpoint}; "
            f"accepted: {', '.join(allowed)}"
        )
    values: dict[str, Any] = {}
    for f in fields(cls):
        if f.name not in doc or (
            doc[f.name] is None and f.metadata["spelled_default"] is None
        ):
            continue
        values[f.name] = _coerce(doc[f.name], f.metadata["coerce"], f.name)
    return cls(**values, given=frozenset(values))
