"""Scenario scripts: a line-oriented DSL driving a full deployment.

    # comments and blank lines are ignored
    step spawn-ca alpha
    step spawn-cas esg ca=alpha identity=cas.esg
    step spawn-resource ftp1 ca=alpha identity=ftp.esg \
         grant=cas.esg=file:read+write:/esg/* file=/esg/data/t42.nc=grid42
    step admin esg enroll-user alice CN=alice
    step acquire cap1 cas=esg user=alice lifetime=3600
    step assert-permit
    step file-op ftp1 cred=cap1 action=read path=/esg/data/t42.nc
    step assert-permit
    step advance-clock 4000
    step file-op ftp1 cred=cap1 action=read path=/esg/data/t42.nc
    step assert-error expired

``assert-permit`` and ``assert-deny`` take no arguments. Every other step
but ``admin`` takes one leading argument and then ``key=value`` options
from its own fixed set; an unknown or repeated key is a ScenarioError,
except that ``grant=`` and ``file=`` may repeat, though not one ``file=``
path twice. ``identity=`` picks the credential of a ``cred=user:`` file-op,
and goes with no other ``cred=``. Files are seeded through the resource's
own storage, so a path it refuses is the step's error. Operations record
their outcome ("ok", "deny", or an error kind, which is the failure's
``CasError.reason``); each assert step checks the most recent outcome and
lands in the Report. Each (identity, CA) pair gets one long-term
credential, issued on first use by the CA of the server the step talks
to, so runs are reproducible from the seed alone. Admin steps act as
``CN=admin``, every spawned CAS's bootstrap administrator.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..client.api import acquire_capability, admin_command, file_op
from ..errors import CasError, ParseError, Refused
from ..lines import nonnegative_int
from ..policy.model import ALL
from ..resourced.storage import canonical_name
from .runtime import ADMIN_IDENTITY, Deployment, make_policy

STEP_VERBS = ("spawn-ca", "spawn-cas", "spawn-resource", "admin", "acquire",
              "file-op", "advance-clock", "assert-permit", "assert-deny",
              "assert-error")


class ScenarioError(CasError):
    """A script that cannot run: bad verb, bad reference, bad argument."""

    reason = "scenario"

    def __init__(self, step_index: int, message: str):
        super().__init__(f"step {step_index}: {message}")
        self.step_index = step_index


@dataclass(frozen=True)
class ScenarioStep:
    index: int
    verb: str
    args: tuple[str, ...]


@dataclass(frozen=True)
class AssertionOutcome:
    step_index: int
    description: str
    passed: bool
    detail: str = ""


@dataclass
class Report:
    assertions: list[AssertionOutcome] = field(default_factory=list)
    steps_run: int = 0

    @property
    def ok(self) -> bool:
        return all(a.passed for a in self.assertions)

    def lines(self) -> list[str]:
        out = []
        for a in self.assertions:
            status = "pass" if a.passed else "FAIL"
            suffix = f" ({a.detail})" if a.detail else ""
            out.append(f"{status} step {a.step_index}: {a.description}{suffix}")
        out.append(f"{sum(a.passed for a in self.assertions)}/{len(self.assertions)} "
                   f"assertions passed, {self.steps_run} steps run")
        return out


def parse_script(text: str) -> list[ScenarioStep]:
    steps: list[ScenarioStep] = []
    for line_no, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if tokens[0] != "step" or len(tokens) < 2:
            raise ParseError(f"expected 'step <verb> ...', got {raw!r}", line=line_no)
        verb = tokens[1]
        if verb not in STEP_VERBS:
            raise ParseError(f"unknown step verb {verb!r}", line=line_no)
        steps.append(ScenarioStep(len(steps), verb, tuple(tokens[2:])))
    return steps


# options that may repeat; each comes back as a list of its values
_REPEATABLE = ("grant", "file")


def _options(step: ScenarioStep, keys: tuple[str, ...]) -> tuple[str, dict]:
    """The step's leading name and its ``key=value`` options, each one of ``keys``."""
    if not step.args:
        raise ScenarioError(step.index, f"{step.verb} needs an argument")
    options: dict = {}
    for token in step.args[1:]:
        key, sep, value = token.partition("=")
        if not sep:
            raise ScenarioError(step.index, f"expected key=value, got {token!r}")
        if key not in keys:
            raise ScenarioError(step.index, f"{step.verb} has no option {key!r}")
        if key in _REPEATABLE:
            options.setdefault(key, []).append(value)
        elif key in options:
            raise ScenarioError(step.index, f"duplicate option {key!r}")
        else:
            options[key] = value
    return step.args[0], options


def _seconds(step: ScenarioStep, what: str, value: str) -> int:
    try:
        return nonnegative_int(value)
    except ValueError:
        raise ScenarioError(step.index, f"{what} takes a nonnegative whole number "
                                        f"of seconds, got {value!r}") from None


def _no_arguments(step: ScenarioStep) -> None:
    if step.args:
        raise ScenarioError(step.index, f"{step.verb} takes no arguments, "
                                        f"got {' '.join(step.args)!r}")


def _outcome_of(exc: CasError) -> tuple[str, ...]:
    return ("deny",) if isinstance(exc, Refused) else ("error", exc.reason)


class _Runner:
    def __init__(self, deployment: Deployment):
        self.deployment = deployment
        self.capabilities: dict[str, tuple] = {}
        self.last_outcome: tuple[str, ...] | None = None
        self.report = Report()

    # --- step handlers ----------------------------------------------------------

    def run_step(self, step: ScenarioStep) -> None:
        handler = getattr(self, "_step_" + step.verb.replace("-", "_"))
        try:
            handler(step)
        except ScenarioError:
            raise
        except (CasError, ValueError) as exc:
            # the script's own input was bad: a pattern, a path, a second spawn
            raise ScenarioError(step.index, f"{step.verb}: {exc}") from None
        self.report.steps_run += 1

    def _ca(self, step: ScenarioStep, options: dict) -> str:
        ca = options.get("ca")
        if ca is None:
            raise ScenarioError(step.index, f"{step.verb} needs ca=<name>")
        if ca not in self.deployment.authorities:
            raise ScenarioError(step.index, f"unknown CA {ca!r}")
        return ca

    def _step_spawn_ca(self, step: ScenarioStep) -> None:
        name, _ = _options(step, ())
        self.deployment.spawn_ca(name)

    def _step_spawn_cas(self, step: ScenarioStep) -> None:
        name, options = _options(step, ("ca", "identity", "max-lifetime"))
        ca = self._ca(step, options)
        server_options = {}
        if "max-lifetime" in options:
            server_options["max_lifetime"] = _seconds(step, "max-lifetime",
                                                      options["max-lifetime"])
        self.deployment.spawn_cas(name, ca, options.get("identity", f"cas.{name}"),
                                  **server_options)

    def _step_spawn_resource(self, step: ScenarioStep) -> None:
        name, options = _options(step, ("ca", "identity", "grant", "file"))
        ca = self._ca(step, options)
        grants: dict[str, list] = {}
        for value in options.get("grant", ()):
            grantor, sep, spec = value.rpartition("=")
            parts = spec.split(":", 2)
            if not sep or len(parts) != 3:
                raise ScenarioError(
                    step.index,
                    f"grant must be <grantor>=<svc>:<act+act>:<pattern>, got {value!r}")
            service, actions, pattern = parts
            grants.setdefault(grantor, []).append((service, actions.split("+"), [pattern]))
        files: dict[str, bytes] = {}
        for value in options.get("file", ()):
            path, sep, content = value.partition("=")
            if not sep:
                raise ScenarioError(step.index, f"file must be <path>=<content>, got {value!r}")
            object_name = canonical_name(path)
            if object_name in files:
                raise ScenarioError(step.index, f"file {path!r} seeded twice")
            files[object_name] = content.encode("utf-8")
        table = {grantor: make_policy(spec) for grantor, spec in grants.items()}
        self.deployment.spawn_resource(name, ca, options.get("identity", f"res.{name}"),
                                       table, files)

    def _cas(self, step: ScenarioStep, name: str):
        spawned = self.deployment.cas_servers.get(name)
        if spawned is None:
            raise ScenarioError(step.index, f"unknown CAS {name!r}")
        return spawned

    def _step_admin(self, step: ScenarioStep) -> None:
        if len(step.args) < 2:
            raise ScenarioError(step.index, "admin takes <cas> <verb> [args...]")
        spawned = self._cas(step, step.args[0])
        chain, key = self.deployment.user_credential(ADMIN_IDENTITY, spawned.ca_name)
        self._record(lambda: admin_command(
            spawned.server.address, chain, key, step.args[1], step.args[2:],
            trust_store=self.deployment.trust_store_of(spawned.ca_name),
            clock=self.deployment.clock))

    def _step_acquire(self, step: ScenarioStep) -> None:
        handle, options = _options(step, ("cas", "user", "identity", "lifetime"))
        spawned = self._cas(step, options.get("cas", ""))
        user = options.get("user")
        if not user:
            raise ScenarioError(step.index, "acquire needs user=<name>")
        chain, key = self.deployment.user_credential(
            options.get("identity", f"CN={user}"), spawned.ca_name)
        lifetime = _seconds(step, "lifetime", options.get("lifetime", "3600"))

        def action():
            capability = acquire_capability(
                spawned.server.address, chain, key, ALL, lifetime,
                trust_store=self.deployment.trust_store_of(spawned.ca_name),
                clock=self.deployment.clock)
            self.capabilities[handle] = capability

        self._record(action)

    def _step_file_op(self, step: ScenarioStep) -> None:
        name, options = _options(step, ("cred", "identity", "action", "path", "data"))
        spawned = self.deployment.resources.get(name)
        if spawned is None:
            raise ScenarioError(step.index, f"unknown resource {name!r}")
        cred = options.get("cred", "")
        if cred.startswith("user:"):
            chain, key = self.deployment.user_credential(
                options.get("identity", "CN=" + cred[len("user:"):]), spawned.ca_name)
        elif cred in self.capabilities:
            if "identity" in options:
                raise ScenarioError(step.index, "identity= goes with cred=user:<name>, "
                                                f"not capability {cred!r}")
            chain, key = self.capabilities[cred]
        else:
            raise ScenarioError(step.index, f"unknown credential {cred!r}")
        action = options.get("action", "")
        path = options.get("path", "")
        payload = options["data"].encode("utf-8") if "data" in options else None
        self._record(lambda: file_op(
            spawned.server.address, chain, key, action, path, payload,
            trust_store=self.deployment.trust_store_of(spawned.ca_name),
            clock=self.deployment.clock))

    def _step_advance_clock(self, step: ScenarioStep) -> None:
        seconds, _ = _options(step, ())
        self.deployment.clock.advance(_seconds(step, "advance-clock", seconds))

    # --- assertions -------------------------------------------------------------

    def _assert(self, step: ScenarioStep, expected: tuple[str, ...],
                description: str) -> None:
        outcome = self.last_outcome
        if outcome is None:
            raise ScenarioError(step.index, "nothing to assert on")
        matched = outcome == expected
        detail = "" if matched else f"expected {expected}, got {outcome}"
        self.report.assertions.append(
            AssertionOutcome(step.index, description, matched, detail))

    def _step_assert_permit(self, step: ScenarioStep) -> None:
        _no_arguments(step)
        self._assert(step, ("ok",), "operation permitted")

    def _step_assert_deny(self, step: ScenarioStep) -> None:
        _no_arguments(step)
        self._assert(step, ("deny",), "operation denied")

    def _step_assert_error(self, step: ScenarioStep) -> None:
        kind, _ = _options(step, ())
        self._assert(step, ("error", kind), f"operation fails: {kind}")

    def _record(self, action) -> None:
        try:
            action()
        except CasError as exc:
            self.last_outcome = _outcome_of(exc)
        else:
            self.last_outcome = ("ok",)


def run_scenario(steps: list[ScenarioStep], seed: int = 0) -> Report:
    """Execute a parsed script in a fresh deployment; returns the Report."""
    with Deployment(seed=seed) as deployment:
        runner = _Runner(deployment)
        for step in steps:
            runner.run_step(step)
        return runner.report
