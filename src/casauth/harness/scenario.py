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

Operations record their outcome ("ok", "deny", or an error kind, which is
the failure's ``CasError.reason``); each
assert step checks the most recent outcome and lands in the Report. User
credentials are provisioned on first use, issued by the CA of the server
the step talks to, so runs are reproducible from the seed alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..client.api import acquire_capability, admin_command, file_op
from ..errors import CasError, ParseError, Refused
from ..policy.model import ALL
from .runtime import DEFAULT_BOOTSTRAP_ADMIN, Deployment, make_policy

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


def _options(args, index: int) -> dict[str, str]:
    options: dict[str, str] = {}
    for token in args:
        key, sep, value = token.partition("=")
        if not sep:
            raise ScenarioError(index, f"expected key=value, got {token!r}")
        if key in options:
            raise ScenarioError(index, f"duplicate option {key!r}")
        options[key] = value
    return options


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
        handler(step)
        self.report.steps_run += 1

    def _step_spawn_ca(self, step: ScenarioStep) -> None:
        if len(step.args) != 1:
            raise ScenarioError(step.index, "spawn-ca takes one name")
        self.deployment.spawn_ca(step.args[0])

    def _step_spawn_cas(self, step: ScenarioStep) -> None:
        if not step.args:
            raise ScenarioError(step.index, "spawn-cas takes a name")
        name, options = step.args[0], _options(step.args[1:], step.index)
        ca = options.get("ca")
        if ca is None:
            raise ScenarioError(step.index, "spawn-cas needs ca=<name>")
        if ca not in self.deployment.authorities:
            raise ScenarioError(step.index, f"unknown CA {ca!r}")
        self.deployment.spawn_cas(
            name, ca, options.get("identity", f"cas.{name}"),
            bootstrap_admin=options.get("bootstrap-admin", DEFAULT_BOOTSTRAP_ADMIN),
            max_lifetime=int(options.get("max-lifetime", "43200")))

    def _step_spawn_resource(self, step: ScenarioStep) -> None:
        if not step.args:
            raise ScenarioError(step.index, "spawn-resource takes a name")
        name = step.args[0]
        ca = identity = None
        grants: dict[str, list] = {}
        files: dict[str, bytes] = {}
        for token in step.args[1:]:
            key, sep, value = token.partition("=")
            if not sep:
                raise ScenarioError(step.index, f"expected key=value, got {token!r}")
            if key == "ca":
                ca = value
            elif key == "identity":
                identity = value
            elif key == "grant":
                grantor, sep2, spec = value.rpartition("=")
                parts = spec.split(":", 2)
                if not sep2 or len(parts) != 3:
                    raise ScenarioError(
                        step.index,
                        f"grant must be <grantor>=<svc>:<act+act>:<pattern>, got {token!r}")
                service, actions, pattern = parts
                grants.setdefault(grantor, []).append(
                    (service, actions.split("+"), [pattern]))
            elif key == "file":
                path, sep2, content = value.partition("=")
                if not sep2:
                    raise ScenarioError(step.index,
                                        f"file must be <path>=<content>, got {token!r}")
                files[path] = content.encode("utf-8")
            else:
                raise ScenarioError(step.index, f"unknown option {key!r}")
        if ca is None:
            raise ScenarioError(step.index, "spawn-resource needs ca=<name>")
        if ca not in self.deployment.authorities:
            raise ScenarioError(step.index, f"unknown CA {ca!r}")
        table = {grantor: make_policy(spec) for grantor, spec in grants.items()}
        self.deployment.spawn_resource(name, ca, identity or f"res.{name}",
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
        chain, key = self.deployment.user_credential(
            "__bootstrap__", DEFAULT_BOOTSTRAP_ADMIN, spawned.ca_name)
        self._record(lambda: admin_command(
            spawned.server.address, chain, key, step.args[1], step.args[2:],
            trust_store=self.deployment.trust_store_of(spawned.ca_name),
            clock=self.deployment.clock))

    def _step_acquire(self, step: ScenarioStep) -> None:
        if not step.args:
            raise ScenarioError(step.index, "acquire takes a handle name")
        handle, options = step.args[0], _options(step.args[1:], step.index)
        spawned = self._cas(step, options.get("cas", ""))
        user = options.get("user")
        if not user:
            raise ScenarioError(step.index, "acquire needs user=<name>")
        identity = options.get("identity", f"CN={user}")
        chain, key = self.deployment.user_credential(user, identity, spawned.ca_name)
        lifetime = int(options.get("lifetime", "3600"))

        def action():
            capability = acquire_capability(
                spawned.server.address, chain, key, ALL, lifetime,
                trust_store=self.deployment.trust_store_of(spawned.ca_name),
                clock=self.deployment.clock)
            self.capabilities[handle] = capability

        self._record(action)

    def _step_file_op(self, step: ScenarioStep) -> None:
        if not step.args:
            raise ScenarioError(step.index, "file-op takes a resource name")
        name, options = step.args[0], _options(step.args[1:], step.index)
        spawned = self.deployment.resources.get(name)
        if spawned is None:
            raise ScenarioError(step.index, f"unknown resource {name!r}")
        cred = options.get("cred", "")
        if cred.startswith("user:"):
            user = cred[len("user:"):]
            chain, key = self.deployment.user_credential(
                user, options.get("identity", f"CN={user}"), spawned.ca_name)
        elif cred in self.capabilities:
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
        if len(step.args) != 1:
            raise ScenarioError(step.index, "advance-clock takes seconds")
        self.deployment.clock.advance(int(step.args[0]))

    # --- assertions -------------------------------------------------------------

    def _assert(self, step: ScenarioStep, expected: tuple[str, ...],
                description: str) -> None:
        outcome = self.last_outcome
        if outcome is None:
            raise ScenarioError(step.index, "nothing to assert on")
        matched = (outcome == expected if expected[0] != "error"
                   else outcome[0] == "error" and outcome[1] == expected[1])
        detail = "" if matched else f"expected {expected}, got {outcome}"
        self.report.assertions.append(
            AssertionOutcome(step.index, description, matched, detail))

    def _step_assert_permit(self, step: ScenarioStep) -> None:
        self._assert(step, ("ok",), "operation permitted")

    def _step_assert_deny(self, step: ScenarioStep) -> None:
        self._assert(step, ("deny",), "operation denied")

    def _step_assert_error(self, step: ScenarioStep) -> None:
        if len(step.args) != 1:
            raise ScenarioError(step.index, "assert-error takes an error kind")
        self._assert(step, ("error", step.args[0]), f"operation fails: {step.args[0]}")

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
