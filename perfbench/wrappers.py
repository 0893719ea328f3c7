"""Where each layer is wrapped: the call sites the per-layer metrics come from.

Every target is a module or class attribute of casauth, replaced in the
process that calls it; casauth's files are not touched. A target that no
longer exists is skipped and listed in the trace as missing.
"""

from __future__ import annotations

import time

from tracing import TimedLock, Tracer


def _dispatch_spans(tracer: Tracer, prefix: str):
    """Wrap serve_messages so each message becomes a root span named by its type."""
    def make(serve_messages):
        def traced(sock, dispatch):
            def handle(message):
                token = tracer.open(f"{prefix}.handle.{message.get('msg', '?')}", root=True)
                try:
                    reply = dispatch(message)
                finally:
                    tracer.close(token)
                tracer.count(f"{prefix}.reply.{reply.get('msg', '?')}")
                return reply
            return serve_messages(sock, handle)
        return traced
    return make


def _count_frames(tracer: Tracer):
    def make(encode_message):
        def counted(fields):
            frame = encode_message(fields)
            tracer.count("wire.frames")
            tracer.count("wire.bytes", len(frame))
            return frame
        return counted
    return make


def _cpu_from_here(tracer: Tracer):
    """Record process CPU time when the wrapped call starts serving."""
    def make(original):
        def marked(*args, **kwargs):
            tracer.stats["cpu_start_s"] = time.process_time()
            return original(*args, **kwargs)
        return marked
    return make


def install_common(tracer: Tracer) -> None:
    """Layers every process crosses: handshake credential checks and framing."""
    import casauth.wire.frames as frames
    import casauth.wire.handshake as handshake

    tracer.wrap(handshake, "decode_chain", "credential.decode_chain")
    tracer.wrap(handshake, "verify_chain", "credential.verify_chain")
    tracer.patch(frames, "encode_message", _count_frames(tracer))


def install_casd(tracer: Tracer) -> dict:
    """Returns an empty dict, like install_resourced's, for the live objects."""
    import casauth.casd.admin as admin
    import casauth.casd.db as db
    import casauth.casd.issuance as issuance
    import casauth.casd.main as main
    import casauth.casd.rights as rights
    import casauth.casd.server as server

    install_common(tracer)
    tracer.wrap(server, "server_handshake", "wire.server_handshake", root=True)
    tracer.patch(server, "serve_messages", _dispatch_spans(tracer, "casd"))
    tracer.wrap(server, "parse_policy", "policy.parse_policy")
    tracer.wrap(issuance.CapabilityIssuer, "request_capability", "casd.issue")
    tracer.wrap(issuance, "delegate", "credential.delegate")
    for module in (issuance, rights, admin):
        tracer.wrap(module, "find_user", "casd.find_user")
    for module in (issuance, admin):
        tracer.wrap(module, "compute_user_rights", "casd.rights")
    tracer.wrap(server, "apply_admin", "casd.apply_admin")
    tracer.wrap(db.CommunityDB, "clone", "casd.clone")
    tracer.wrap(admin, "validate_db", "casd.validate")
    tracer.wrap(server, "save_db", "casd.save_db")

    def count_snapshot(serialize_db):
        def counted(database):
            data = serialize_db(database)
            tracer.count("casd.snapshot_bytes", len(data))
            tracer.count("casd.snapshots")
            return data
        return counted
    tracer.patch(db, "serialize_db", count_snapshot)

    def time_lock(init):
        def traced_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            self._write_lock = TimedLock(self._write_lock, tracer, "casd")
        return traced_init
    tracer.patch(server.CasServer, "__init__", time_lock)
    tracer.patch(main, "serve", _cpu_from_here(tracer))
    return {}


def install_resourced(tracer: Tracer) -> dict:
    """Returns a dict that holds the ResourceServer once it starts."""
    import casauth.policy.engine as engine
    import casauth.resourced.authz as authz
    import casauth.resourced.server as server

    install_common(tracer)
    tracer.wrap(server, "server_handshake", "wire.server_handshake", root=True)
    tracer.patch(server, "serve_messages", _dispatch_spans(tracer, "resourced"))
    tracer.wrap(server, "authorize", "resourced.authorize")
    tracer.wrap(authz, "evaluate_all", "policy.evaluate_all")
    tracer.wrap(engine, "parse_policy", "policy.parse_policy")
    tracer.wrap(server, "handle_file_op",
                lambda root, req, *rest: f"resourced.storage_{req.action_name}")
    servers: dict = {}

    def capture(start):
        def marked(self, *args, **kwargs):
            servers["server"] = self
            tracer.stats["cpu_start_s"] = time.process_time()
            return start(self, *args, **kwargs)
        return marked
    tracer.patch(server.ResourceServer, "start", capture)
    return servers


def install_client(tracer: Tracer, clients_module) -> None:
    """The benchmark's own client process: operations, sessions, key generation."""
    import casauth.client.api as api
    import casauth.client.session as session
    import casauth.credential.keys as keys

    install_common(tracer)
    tracer.wrap(clients_module, "acquire_capability", "client.acquire", root=True)
    tracer.wrap(clients_module, "file_op", "client.file_op", root=True)
    tracer.wrap(clients_module, "admin_command", "client.admin", root=True)
    tracer.wrap(session, "client_handshake", "wire.client_handshake")
    tracer.wrap(session.ClientSession, "connect", "client.connect")
    tracer.wrap(session.ClientSession, "request",
                lambda self, fields: f"client.request.{fields.get('msg', '?')}")
    tracer.wrap(api, "decode_chain", "credential.decode_chain")
    tracer.wrap(keys.Ed25519Scheme, "generate", "client.keygen")
