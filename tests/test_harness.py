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


@pytest.mark.parametrize("script, index, text", [
    ("step advance-clock soon\n", 0, "'soon'"),
    ("step advance-clock -5\n", 0, "'-5'"),
    ("step spawn-ca alpha\nstep spawn-cas esg ca=alpha max-lifetime=-5\n", 1,
     "max-lifetime"),
    ("step spawn-ca alpha\nstep spawn-cas esg ca=alpha\n"
     "step acquire c cas=esg user=alice lifetime=1h\n", 2, "lifetime"),
])
def test_bad_numbers_name_the_step(script, index, text):
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script(script))
    assert info.value.step_index == index
    assert text in str(info.value)


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
        chain, key = deployment.user_credential("CN=admin", "alpha")
        admin_command(spawned.server.address, chain, key, "enroll-user",
                      ["alice", "CN=alice"],
                      trust_store=deployment.trust_store_of("alpha"),
                      clock=deployment.clock)
        admin_command(spawned.server.address, chain, key, "grant",
                      ["user:alice", "pattern:/esg/*", "file", "read"],
                      trust_store=deployment.trust_store_of("alpha"),
                      clock=deployment.clock)
        user_chain, user_key = deployment.user_credential("CN=alice", "alpha")
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


@pytest.mark.parametrize("consumers, producers, flag", [("-1", "4", "--consumers"),
                                                        ("5", "four", "--producers")])
def test_scenario_cli_bad_count_is_a_usage_error(consumers, producers, flag, capsys):
    from casauth.harness.cli import main

    assert main(["edges", "--consumers", consumers, "--producers", producers]) == 5
    assert flag in capsys.readouterr().err


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


# --- one option grammar ---------------------------------------------------------

SPAWNED = ("step spawn-ca alpha\n"
           "step spawn-cas esg ca=alpha\n"
           "step spawn-resource ftp1 ca=alpha grant=cas.esg=file:read:/esg/*\n"
           "step acquire cap1 cas=esg user=alice\n")


@pytest.mark.parametrize("line", [
    "step spawn-cas other ca=alpha bootstrap-admin=CN=root",
    "step spawn-resource ftp2 ca=alpha grnat=cas.esg=file:read:/esg/*",
    "step acquire cap2 cas=esg user=alice lifetme=10",
    "step file-op ftp1 cred=cap1 action=read path=/esg/a paht=/esg/b",
], ids=["spawn-cas", "spawn-resource", "acquire", "file-op"])
def test_unknown_option_names_the_step(line):
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script(SPAWNED + line + "\n"))
    assert info.value.step_index == 4
    assert "has no option" in str(info.value)


def test_spawn_resource_refuses_a_repeated_ca():
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script("step spawn-ca alpha\nstep spawn-ca beta\n"
                                  "step spawn-resource ftp1 ca=alpha ca=beta\n"))
    assert info.value.step_index == 2
    assert "duplicate option 'ca'" in str(info.value)


@pytest.mark.parametrize("line, text", [
    ("step spawn-ca alpha", "already spawned"),
    ("step spawn-resource ftp1 ca=alpha grant=g=file:read:/a*b", "/a*b"),
    ("step spawn-resource ftp1 ca=alpha file=relative/path=x", "relative/path"),
], ids=["duplicate-spawn", "bad-grant-pattern", "relative-file"])
def test_bad_script_input_names_the_step(line, text):
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script("step spawn-ca alpha\n" + line + "\n"))
    assert info.value.step_index == 1
    assert text in str(info.value)


# --- one credential per identity and CA ------------------------------------------

def test_one_user_holds_a_credential_from_each_ca():
    report = run_scenario(parse_script("""
step spawn-ca alpha
step spawn-ca beta
step spawn-cas esg ca=alpha
step spawn-cas ocean ca=beta
step admin esg enroll-user alice CN=alice
step assert-permit
step admin esg grant user:alice pattern:/esg/* file read
step admin ocean enroll-user alice CN=alice
step assert-permit
step admin ocean grant user:alice pattern:/ocean/* file read
step acquire a cas=esg user=alice
step assert-permit
step acquire b cas=ocean user=alice
step assert-permit
"""))
    assert report.ok, report.lines()


def test_identity_option_picks_the_credential():
    report = run_scenario(parse_script("""
step spawn-ca alpha
step spawn-cas esg ca=alpha
step admin esg enroll-user alice CN=alice
step admin esg enroll-user alice2 CN=alice2
step admin esg grant user:alice2 pattern:/esg/* file read
step acquire a cas=esg user=alice
step assert-deny
step acquire b cas=esg user=alice identity=CN=alice2
step assert-permit
"""))
    assert report.ok, report.lines()


# --- refusals that name their step ---------------------------------------------------

@pytest.mark.parametrize("line", ["step assert-permit whatever words",
                                  "step assert-deny whatever"],
                         ids=["assert-permit", "assert-deny"])
def test_assert_without_arguments_refuses_trailing_tokens(line):
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script(SPAWNED + line + "\n"))
    assert info.value.step_index == 4
    assert "takes no arguments" in str(info.value)


@pytest.mark.parametrize("files, text", [
    ("file=/=x", "spawn-resource: /"),
    ("file=/f=x file=/f/g=y", "/f/g"),
    ("file=/f=one file=/f=two", "seeded twice"),
    ("file=/f=one file=/./f=two", "seeded twice"),
], ids=["root", "under-a-file", "repeated", "repeated-canonically"])
def test_seeded_files_go_through_storage_and_name_the_step(files, text):
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script("step spawn-ca alpha\n"
                                  f"step spawn-resource ftp1 ca=alpha {files}\n"))
    assert info.value.step_index == 1
    assert text in str(info.value)


def test_identity_goes_only_with_a_user_credential():
    with pytest.raises(ScenarioError) as info:
        run_scenario(parse_script("""
step spawn-ca alpha
step spawn-cas esg ca=alpha
step spawn-resource ftp1 ca=alpha grant=cas.esg=file:read:/esg/*
step admin esg enroll-user alice CN=alice
step admin esg grant user:alice pattern:/esg/* file read
step acquire cap1 cas=esg user=alice
step assert-permit
step file-op ftp1 cred=cap1 identity=CN=bob action=read path=/esg/a
"""))
    assert info.value.step_index == 7
    assert "identity=" in str(info.value)
