"""Command-line tools end to end, pinned to their exit-code contract."""

import importlib
import os
import socket
import subprocess
import sys
import time
from pathlib import Path

import pytest

import casauth
from casauth.casd.db import CommunityDB
from casauth.casd.server import CasServer
from casauth.cli import (
    EXIT_AUTH,
    EXIT_DENIED,
    EXIT_ERROR,
    EXIT_OK,
    EXIT_TRANSPORT,
    EXIT_USAGE,
    exit_code_for,
)
from casauth.client.cli import main_admin, main_file, main_keygen, main_proxy_init
from casauth.credential.certs import load_trust_store, save_trust_store
from casauth.credential.verify import EnforcementContext, verify_chain
from casauth.credfile import load_credential
from casauth.errors import (
    Denied,
    Expired,
    HandshakeError,
    IoError,
    NotFound,
    TransportError,
)
from casauth.harness.runtime import make_policy
from casauth.resourced.grants import load_grant_table, save_grant_table
from casauth.resourced.server import ResourceServer


@pytest.fixture
def cli_world(tmp_path):
    """Credentials created by cas-keygen, servers running on loopback."""
    ca_cred = tmp_path / "ca.cred"
    anchor = tmp_path / "trust.anchor"
    assert main_keygen(["ca", "--name", "AlphaCA", "--cred-out", str(ca_cred),
                        "--anchor-out", str(anchor)]) == EXIT_OK

    paths = {}
    for subject, stem in (("cas.esg", "cas"), ("ftp.esg", "ftp"),
                          ("CN=admin", "admin"), ("CN=alice", "alice")):
        out = tmp_path / f"{stem}.cred"
        assert main_keygen(["issue", "--ca-cred", str(ca_cred), "--subject",
                            subject, "--cred-out", str(out)]) == EXIT_OK
        paths[stem] = out

    anchors = load_trust_store(anchor)
    cas_chain, cas_key = load_credential(paths["cas"])
    cas = CasServer(CommunityDB(), cas_chain, cas_key, trust_store=anchors,
                    bootstrap_admin="CN=admin",
                    db_path=str(tmp_path / "community.db")).start()

    root = tmp_path / "root"
    (root / "esg").mkdir(parents=True)
    (root / "esg" / "t42.nc").write_bytes(b"grid-bytes")
    grants = tmp_path / "grants"
    save_grant_table(grants, {"cas.esg": make_policy(
        [("file", ["read", "write", "list"], ["/esg/*"])])})
    ftp_chain, ftp_key = load_credential(paths["ftp"])
    resource = ResourceServer(load_grant_table(grants), root, ftp_chain,
                              ftp_key, trust_store=anchors).start()

    world = {
        "tmp": tmp_path, "anchor": str(anchor), "paths": paths,
        "cas": f"127.0.0.1:{cas.address[1]}",
        "resource": f"127.0.0.1:{resource.address[1]}",
        "anchors": anchors,
    }
    yield world
    cas.shutdown()
    resource.shutdown()


def admin(world, cred, *argv):
    return main_admin(["--cas", world["cas"], "--cred", str(world["paths"][cred]),
                       "--trust", world["anchor"], *argv])


def seed_alice(world):
    assert admin(world, "admin", "enroll-user", "alice", "CN=alice") == EXIT_OK
    assert admin(world, "admin", "enroll-resource", "esg", "/esg/*") == EXIT_OK
    assert admin(world, "admin", "grant", "user:alice", "resource:esg",
                 "file", "read") == EXIT_OK


def proxy_init(world, proxy_path, *extra):
    return main_proxy_init(["--cas", world["cas"], "--cred",
                            str(world["paths"]["alice"]), "--trust",
                            world["anchor"], "--all", "--out", str(proxy_path),
                            *extra])


def test_keygen_admin_proxy_file_happy_path(cli_world, capsysbinary, tmp_path):
    seed_alice(cli_world)
    proxy = tmp_path / "cas-proxy"
    assert proxy_init(cli_world, proxy) == EXIT_OK

    # the stored capability reparses and verifies under the trust store
    chain, _session_key = load_credential(proxy)
    subject = verify_chain(chain, cli_world["anchors"], int(time.time()),
                           EnforcementContext(True, frozenset({"cas-simple-v1"})))
    assert subject.identity == "cas.esg"

    capsysbinary.readouterr()
    rc = main_file(["--resource", cli_world["resource"], "--proxy", str(proxy),
                    "--trust", cli_world["anchor"], "read", "/esg/t42.nc"])
    assert rc == EXIT_OK
    assert capsysbinary.readouterr().out == b"grid-bytes"


def test_write_on_read_only_capability_exits_denied(cli_world, tmp_path, monkeypatch):
    seed_alice(cli_world)
    proxy = tmp_path / "cas-proxy"
    assert proxy_init(cli_world, proxy) == EXIT_OK
    data = tmp_path / "payload"
    data.write_bytes(b"new bytes")
    rc = main_file(["--resource", cli_world["resource"], "--proxy", str(proxy),
                    "--trust", cli_world["anchor"], "--input", str(data),
                    "write", "/esg/t42.nc"])
    assert rc == EXIT_DENIED


def test_admin_by_non_admin_exits_denied(cli_world):
    seed_alice(cli_world)
    assert admin(cli_world, "alice", "grant", "user:alice", "resource:esg",
                 "file", "write") == EXIT_DENIED


def test_proxy_init_without_rights_exits_denied(cli_world, tmp_path):
    assert admin(cli_world, "admin", "enroll-user", "alice", "CN=alice") == EXIT_OK
    assert proxy_init(cli_world, tmp_path / "p") == EXIT_DENIED


def test_transport_error_exit_code(cli_world, tmp_path):
    rc = main_admin(["--cas", "127.0.0.1:1", "--cred",
                     str(cli_world["paths"]["admin"]), "--trust",
                     cli_world["anchor"], "enroll-user", "x", "CN=x"])
    assert rc == EXIT_TRANSPORT


def test_usage_errors_exit_5(cli_world):
    assert main_file([]) == EXIT_USAGE
    assert main_admin(["--cas", cli_world["cas"]]) == EXIT_USAGE
    assert main_keygen(["ca"]) == EXIT_USAGE
    assert main_proxy_init(["--cas", cli_world["cas"]]) == EXIT_USAGE


@pytest.mark.parametrize("main, argv", [
    (main_file, ["--resource", "127.0.0.1:1", "read", "/x"]),
    (main_admin, ["--cas", "127.0.0.1:1", "--cred", "c", "enroll-user", "a", "CN=a"]),
    (main_proxy_init, ["--cas", "127.0.0.1:1", "--cred", "c", "--all"]),
], ids=["cas-file", "cas-admin", "cas-proxy-init"])
@pytest.mark.parametrize("env", [None, ""], ids=["unset", "empty"])
def test_missing_trust_store_is_a_usage_error(main, argv, env, monkeypatch, capsys):
    if env is None:
        monkeypatch.delenv("CAS_TRUST_STORE", raising=False)
    else:
        monkeypatch.setenv("CAS_TRUST_STORE", env)
    capsys.readouterr()
    assert main(argv) == EXIT_USAGE
    assert "--trust" in capsys.readouterr().err


CLIENT_NUMBER_FLAGS = {
    "proxy-init-lifetime": (main_proxy_init, "--lifetime", lambda d: [
        "--cas", "127.0.0.1:1", "--cred", d + "/absent", "--all", "--out", d + "/p"]),
    "keygen-ca-days": (main_keygen, "--days", lambda d: [
        "ca", "--name", "A", "--cred-out", d + "/c", "--anchor-out", d + "/a"]),
    "keygen-issue-days": (main_keygen, "--days", lambda d: [
        "issue", "--ca-cred", d + "/absent", "--subject", "CN=x", "--cred-out", d + "/o"]),
}


@pytest.mark.parametrize("value", ["-5", "soon", "1.5"])
@pytest.mark.parametrize("case", sorted(CLIENT_NUMBER_FLAGS))
def test_client_bad_number_is_a_usage_error(case, value, tmp_path, capsys):
    main, flag, argv = CLIENT_NUMBER_FLAGS[case]
    capsys.readouterr()
    assert main([*argv(str(tmp_path)), flag, value]) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_missing_file_exits_generic_error(cli_world, tmp_path):
    seed_alice(cli_world)
    proxy = tmp_path / "cas-proxy"
    assert proxy_init(cli_world, proxy) == EXIT_OK
    rc = main_file(["--resource", cli_world["resource"], "--proxy", str(proxy),
                    "--trust", cli_world["anchor"], "read", "/esg/absent"])
    assert rc == EXIT_ERROR


def test_path_that_no_frame_can_carry_is_an_error_not_a_crash(cli_world, tmp_path,
                                                             capsys):
    seed_alice(cli_world)
    proxy = tmp_path / "cas-proxy"
    assert proxy_init(cli_world, proxy) == EXIT_OK
    capsys.readouterr()
    rc = main_file(["--resource", cli_world["resource"], "--proxy", str(proxy),
                    "--trust", cli_world["anchor"], "read", "/\udcff"])
    assert rc == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("cas-file: ") and err.count("\n") == 1


def test_proxy_env_variable_honored(cli_world, tmp_path, monkeypatch, capsysbinary):
    seed_alice(cli_world)
    proxy = tmp_path / "via-env"
    monkeypatch.setenv("CAS_PROXY", str(proxy))
    monkeypatch.setenv("CAS_TRUST_STORE", cli_world["anchor"])
    assert main_proxy_init(["--cas", cli_world["cas"], "--cred",
                            str(cli_world["paths"]["alice"]), "--all"]) == EXIT_OK
    assert proxy.exists()
    capsysbinary.readouterr()
    rc = main_file(["--resource", cli_world["resource"], "read", "/esg/t42.nc"])
    assert rc == EXIT_OK
    assert capsysbinary.readouterr().out == b"grid-bytes"


def test_proxy_file_is_owner_only(cli_world, tmp_path):
    seed_alice(cli_world)
    proxy = tmp_path / "cas-proxy"
    assert proxy_init(cli_world, proxy) == EXIT_OK
    assert (proxy.stat().st_mode & 0o777) == 0o600


def test_exit_codes_total_over_taxonomy():
    assert exit_code_for(Denied("x")) == EXIT_DENIED
    assert exit_code_for(Expired("x")) == EXIT_AUTH
    assert exit_code_for(HandshakeError("x")) == EXIT_AUTH
    assert exit_code_for(TransportError("x")) == EXIT_TRANSPORT
    assert exit_code_for(NotFound("x")) == EXIT_ERROR


def test_casd_main_requires_core_paths(capsys):
    from casauth.casd.main import main as casd_main

    assert casd_main([]) == EXIT_USAGE
    assert "--cred" in capsys.readouterr().err


def test_resourced_main_requires_flags():
    from casauth.resourced.main import main as resourced_main

    assert resourced_main([]) == EXIT_USAGE


def test_missing_trust_store_is_an_error_not_a_crash(cli_world, tmp_path, capsys):
    rc = main_file(["--resource", cli_world["resource"],
                    "--proxy", str(cli_world["paths"]["alice"]),
                    "--trust", str(tmp_path / "absent"), "read", "/esg/t42.nc"])
    assert rc == EXIT_ERROR
    assert "cas-file: cannot read trust store" in capsys.readouterr().err


def test_casd_main_missing_trust_store_exits_1(cli_world, tmp_path, capsys):
    from casauth.casd.main import main as casd_main

    rc = casd_main(["--cred", str(cli_world["paths"]["cas"]),
                    "--trust", str(tmp_path / "absent"),
                    "--db", str(tmp_path / "db")])
    assert rc == 1
    assert "casd: cannot read trust store" in capsys.readouterr().err


def test_unwritable_trust_store_is_io_error(ca, tmp_path):
    with pytest.raises(IoError):
        save_trust_store(tmp_path / "no-such-dir" / "trust", [ca.certificate])


def test_keygen_in_separate_processes_gives_distinct_serials(tmp_path):
    # Each run is a new process, as at a shell: nothing carries over between them.
    ca_cred = tmp_path / "ca.cred"
    anchor = tmp_path / "trust.anchor"
    assert main_keygen(["ca", "--name", "AlphaCA", "--cred-out", str(ca_cred),
                        "--anchor-out", str(anchor)]) == EXIT_OK
    src = str(Path(casauth.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH"))))}
    serials = [anchor.serial for anchor in load_trust_store(anchor)]
    for i in range(3):
        out = tmp_path / f"user{i}.cred"
        subprocess.run(
            [sys.executable, "-c",
             "import sys; from casauth.client.cli import main_keygen; "
             "sys.exit(main_keygen(sys.argv[1:]))",
             "issue", "--ca-cred", str(ca_cred), "--subject", f"CN=user{i}",
             "--cred-out", str(out)],
            check=True, env=env, capture_output=True)
        serials.append(load_credential(out)[0].certs[0].serial)
    assert len(set(serials)) == 4


# --- every command fails with one line, never a traceback -------------------------

@pytest.fixture
def cli_files(tmp_path):
    """A CA, a credential, a trust store and a grant table, on disk only."""
    ca_cred, anchor = tmp_path / "ca.cred", tmp_path / "trust.anchor"
    cred, grants = tmp_path / "user.cred", tmp_path / "grants"
    assert main_keygen(["ca", "--name", "AlphaCA", "--cred-out", str(ca_cred),
                        "--anchor-out", str(anchor)]) == EXIT_OK
    assert main_keygen(["issue", "--ca-cred", str(ca_cred), "--subject", "CN=u",
                        "--cred-out", str(cred)]) == EXIT_OK
    save_grant_table(grants, {"CN=u": make_policy([("file", ["read"], ["/*"])])})
    not_utf8 = tmp_path / "not-utf8"
    not_utf8.write_bytes(b"listen: \xff\n")
    bad_grant = tmp_path / "bad-grant.scenario"
    bad_grant.write_text("step spawn-ca alpha\n"
                         "step spawn-resource r ca=alpha grant=g=file:read:/a*b\n")
    busy = socket.socket()
    busy.bind(("127.0.0.1", 0))
    busy.listen()
    yield {"tmp": str(tmp_path), "cred": str(cred), "trust": str(anchor),
           "grants": str(grants), "not_utf8": str(not_utf8), "bad_grant": str(bad_grant),
           "busy": f"127.0.0.1:{busy.getsockname()[1]}"}
    busy.close()


def _casd(f, *argv):
    from casauth.casd.main import main
    return main(["--cred", f["cred"], "--trust", f["trust"],
                 "--db", f["tmp"] + "/community.db", *argv])


def _resourced(f, *argv):
    from casauth.resourced.main import main
    return main(["--root", f["tmp"], "--cred", f["cred"], "--trust", f["trust"],
                 "--grants", f["grants"], *argv])


def _scenario(f, *argv):
    from casauth.harness.cli import main
    return main(list(argv))


def _client(main):
    return lambda f, *argv: main(["--trust", f["trust"], *argv])


# Each case exits EXIT_ERROR unless it names another code after its arguments.
CLI_FAILURES = {
    "admin-bad-endpoint": ("cas-admin", _client(main_admin), lambda f: [
        "--cas", "host:notaport", "--cred", f["cred"], "enroll-user", "a", "CN=a"]),
    "file-bad-endpoint": ("cas-file", _client(main_file), lambda f: [
        "--resource", "host:99999", "--proxy", f["cred"], "read", "/x"]),
    "proxy-init-bad-endpoint": ("cas-proxy-init", _client(main_proxy_init), lambda f: [
        "--cas", "host:", "--cred", f["cred"], "--all"]),
    "casd-bad-listen": ("casd", _casd, lambda f: ["--listen", "127.0.0.1:http"]),
    "resourced-bad-listen": ("cas-resourced", _resourced, lambda f: [
        "--listen", "no-port"]),
    "proxy-init-missing-want": ("cas-proxy-init", _client(main_proxy_init), lambda f: [
        "--cas", "127.0.0.1:1", "--cred", f["cred"], "--want", f["tmp"] + "/absent"]),
    "file-missing-input": ("cas-file", _client(main_file), lambda f: [
        "--resource", "127.0.0.1:1", "--proxy", f["cred"],
        "--input", f["tmp"] + "/absent", "write", "/x"]),
    "scenario-not-utf8": ("cas-scenario", _scenario, lambda f: ["run", f["not_utf8"]]),
    "scenario-bad-grant": ("cas-scenario", _scenario, lambda f: ["run", f["bad_grant"]]),
    "casd-port-in-use": ("casd", _casd, lambda f: ["--listen", f["busy"]],
                         EXIT_TRANSPORT),
    "resourced-port-in-use": ("cas-resourced", _resourced, lambda f: [
        "--listen", f["busy"]], EXIT_TRANSPORT),
}


@pytest.mark.parametrize("case", sorted(CLI_FAILURES))
def test_command_failure_is_one_line_not_a_traceback(case, cli_files, capsys):
    prog, main, argv, *code = CLI_FAILURES[case]
    capsys.readouterr()
    assert main(cli_files, *argv(cli_files)) == (code[0] if code else EXIT_ERROR)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"{prog}: "), err


def test_reply_that_does_not_decode_is_one_line_not_a_traceback(
        cli_files, monkeypatch, capsys):
    from casauth.client.session import ClientSession
    monkeypatch.setattr(ClientSession, "connect", lambda self: self)
    monkeypatch.setattr(ClientSession, "request",
                        lambda self, fields: {"msg": "OK", "data": "not hex"})
    capsys.readouterr()
    assert _client(main_file)(cli_files, "--resource", "127.0.0.1:1",
                              "--proxy", cli_files["cred"], "read", "/x") == EXIT_ERROR
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("cas-file: "), err


def test_sighup_reloads_a_valid_grant_table_and_keeps_the_old_on_failure(
        cli_files, monkeypatch, caplog):
    import signal

    handlers, servers = {}, []
    monkeypatch.setattr(signal, "signal",
                        lambda signum, handler: handlers.__setitem__(signum, handler))
    monkeypatch.setattr(ResourceServer, "start", lambda self: self)
    monkeypatch.setattr(ResourceServer, "serve_forever", lambda self: servers.append(self))
    assert _resourced(cli_files) == EXIT_OK
    [server] = servers
    reload_grants = handlers[signal.SIGHUP]
    assert server._table == load_grant_table(cli_files["grants"])

    new = {"CN=v": make_policy([("file", ["list"], ["/v/*"])])}
    save_grant_table(cli_files["grants"], new)
    reload_grants(signal.SIGHUP, None)
    assert server._table == new

    Path(cli_files["grants"]).write_text("grantor: CN=w\nnot a field\n")
    caplog.set_level("INFO", logger="casauth.resourced")
    reload_grants(signal.SIGHUP, None)
    assert server._table == new
    assert "grant table reload failed, keeping the old one" in caplog.text


# --- casd's flags are its whole configuration -------------------------------------

@pytest.fixture
def serve_calls(monkeypatch):
    """casd's main() runs up to serve(), which records its arguments instead."""
    import casauth.casd.main as casd_main
    calls = []
    monkeypatch.setattr(casd_main, "serve",
                        lambda *args, **kwargs: calls.append((args, kwargs)))
    return calls


def test_casd_flags_reach_serve(cli_files, serve_calls):
    assert _casd(cli_files, "--listen", "127.0.0.1:9000", "--bootstrap-admin",
                 "CN=root", "--max-lifetime", "7200") == EXIT_OK
    [((db, endpoint, credential), options)] = serve_calls
    assert isinstance(db, CommunityDB)
    assert endpoint == ("127.0.0.1", 9000)
    assert credential[0] == load_credential(cli_files["cred"])[0]
    assert options == {"trust_store": load_trust_store(cli_files["trust"]),
                       "bootstrap_admin": "CN=root", "max_lifetime": 7200,
                       "db_path": cli_files["tmp"] + "/community.db"}


def test_casd_flag_defaults(cli_files, serve_calls):
    assert _casd(cli_files) == EXIT_OK
    [((_, endpoint, _), options)] = serve_calls
    assert endpoint == ("127.0.0.1", 7512)
    assert options["bootstrap_admin"] is None
    assert options["max_lifetime"] == 43_200


@pytest.mark.parametrize("flag, value", [("--config", "casd.conf"),
                                         ("--max-lifetime", "soon"),
                                         ("--max-lifetime", "-5"),
                                         ("--bootstrap-admin", "")])
def test_casd_bad_flag_is_a_usage_error(cli_files, serve_calls, capsys, flag, value):
    capsys.readouterr()
    assert _casd(cli_files, flag, value) == EXIT_USAGE
    assert flag in capsys.readouterr().err
    assert serve_calls == []


def test_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert scripts
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        assert callable(getattr(importlib.import_module(module), function, None)), name


@pytest.mark.parametrize("argv, code", [(["--no-such-flag"], EXIT_USAGE),
                                        (["--help"], EXIT_OK)], ids=["bad-flag", "help"])
def test_every_console_script_returns_its_exit_code(argv, code, capsys):
    tomllib = pytest.importorskip("tomllib")
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
    assert len(scripts) == 7
    for name, target in scripts.items():
        module, _, function = target.partition(":")
        main = getattr(importlib.import_module(module), function)
        assert main(list(argv)) == code, name
