"""Scenario runner and trust-edge accounting."""

import pytest

from casauth.errors import ParseError
from casauth.harness.cli import bundled_script
from casauth.harness.scenario import (
    ScenarioError,
    parse_script,
    run_scenario,
)
from casauth.harness.topology import TrustTopology, trust_edges


def run_bundled(name: str, seed: int = 0):
    return run_scenario(parse_script(bundled_script(name)), seed=seed)


# --- trust edges ------------------------------------------------------------

def test_edges_example_counts():
    assert trust_edges(TrustTopology(5, 4, brokered=False)) == 20
    assert trust_edges(TrustTopology(5, 4, brokered=True)) == 9


def test_empty_community():
    assert trust_edges(TrustTopology(0, 7, brokered=False)) == 0
    assert trust_edges(TrustTopology(0, 7, brokered=True)) == 7


def test_brokered_beats_direct_for_all_small_communities():
    # the exhaustive enumeration finds one tie: 2+2 equals 2*2, and the
    # broker wins strictly everywhere else both counts are at least 2
    for consumers in range(1, 11):
        for producers in range(1, 11):
            direct = trust_edges(TrustTopology(consumers, producers))
            brokered = trust_edges(TrustTopology(consumers, producers, brokered=True))
            assert direct == consumers * producers
            assert brokered == consumers + producers
            if consumers >= 2 and producers >= 2:
                if (consumers, producers) == (2, 2):
                    assert brokered == direct
                else:
                    assert brokered < direct


def test_negative_counts_rejected():
    with pytest.raises(ValueError):
        TrustTopology(-1, 3)


# --- script parsing ------------------------------------------------------------

def test_parse_rejects_unknown_verbs():
    with pytest.raises(ParseError):
        parse_script("step explode everything\n")


def test_parse_skips_comments_and_blanks():
    steps = parse_script("# hi\n\nstep spawn-ca alpha\n")
    assert len(steps) == 1
    assert steps[0].verb == "spawn-ca"


def test_reference_errors_name_the_step():
    steps = parse_script("step spawn-ca alpha\nstep admin ghost enroll-user x CN=x\n")
    with pytest.raises(ScenarioError) as info:
        run_scenario(steps)
    assert info.value.step_index == 1
    assert "ghost" in str(info.value)


# --- bundled scenarios ---------------------------------------------------------------

def test_esg_scenario_passes():
    report = run_bundled("esg")
    assert report.ok, "\n".join(report.lines())
    assert len(report.assertions) == 4


def test_revocation_scenario_passes():
    report = run_bundled("revocation")
    assert report.ok, "\n".join(report.lines())


def test_rogue_cas_scenario_passes():
    report = run_bundled("rogue-cas")
    assert report.ok, "\n".join(report.lines())


def test_scenarios_reproducible_for_fixed_seed():
    first = run_bundled("revocation", seed=7)
    second = run_bundled("revocation", seed=7)
    assert first.assertions == second.assertions
    assert first.steps_run == second.steps_run


def test_failing_assertion_reported_not_raised():
    steps = parse_script(
        "step spawn-ca alpha\n"
        "step spawn-cas esg ca=alpha identity=cas.esg\n"
        "step acquire cap1 cas=esg user=nobody\n"
        "step assert-permit\n")
    report = run_scenario(steps)
    assert not report.ok
    assert report.assertions[0].passed is False
    assert "deny" in report.assertions[0].detail


def test_scenario_mode_uses_only_the_injected_clock():
    # if any validity check consulted the wall clock, a capability minted
    # at manual time 1e9 would differ from this; the leaf interval must
    # start exactly at the deployment's start instant
    from casauth.client.api import acquire_capability, admin_command
    from casauth.harness.runtime import CLOCK_START, Deployment
    from casauth.policy.model import ALL

    with Deployment(seed=3) as deployment:
        deployment.spawn_ca("alpha")
        deployment.spawn_cas("esg", "alpha", "cas.esg")
        spawned = deployment.cas_servers["esg"]
        chain, key = deployment.user_credential("admin-cred", "CN=admin", "alpha")
        admin_command(spawned.server.address, chain, key, "enroll-user",
                      ["alice", "CN=alice"],
                      trust_store=deployment.trust_store_of("alpha"),
                      clock=deployment.clock)
        admin_command(spawned.server.address, chain, key, "grant",
                      ["user:alice", "pattern:/esg/*", "file", "read"],
                      trust_store=deployment.trust_store_of("alpha"),
                      clock=deployment.clock)
        user_chain, user_key = deployment.user_credential("alice", "CN=alice",
                                                          "alpha")
        capability, _ = acquire_capability(
            spawned.server.address, user_chain, user_key, ALL, 3600,
            trust_store=deployment.trust_store_of("alpha"),
            clock=deployment.clock)
        leaf = capability.certs[-1]
        assert leaf.validity.not_before == CLOCK_START
        assert leaf.validity.not_after == CLOCK_START + 3600


def test_scenario_cli_run_and_edges(capsys):
    from casauth.harness.cli import main

    assert main(["edges", "--consumers", "5", "--producers", "4"]) == 0
    assert capsys.readouterr().out.strip() == "20"
    assert main(["edges", "--consumers", "5", "--producers", "4",
                 "--brokered"]) == 0
    assert capsys.readouterr().out.strip() == "9"
    assert main(["run", "rogue-cas"]) == 0
    out = capsys.readouterr().out
    assert "2/2 assertions passed" in out


def test_scenario_cli_reports_failures(tmp_path, capsys):
    from casauth.harness.cli import main

    script = tmp_path / "failing.scenario"
    script.write_text(
        "step spawn-ca alpha\n"
        "step spawn-cas esg ca=alpha identity=cas.esg\n"
        "step acquire cap1 cas=esg user=nobody\n"
        "step assert-permit\n")
    assert main(["run", str(script)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_admin_failures_record_their_reason_as_the_kind():
    report = run_scenario(parse_script("""
step spawn-ca alpha
step spawn-cas esg ca=alpha
step admin esg enroll-user alice CN=alice
step assert-permit
step admin esg enroll-user alice CN=alice
step assert-error duplicate-name
step admin esg unenroll-user nobody
step assert-error unknown-name
"""))
    assert report.ok, report.lines()
