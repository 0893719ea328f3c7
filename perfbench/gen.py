"""Seeded input generator: everything the servers and clients receive.

``generate(workload, seed, directory)`` writes the community snapshot (built
as a CommunityDB and written with ``serialize_db``), the trust store, both
server credentials, the resource's grant table and its file tree, and
returns them together with the pool of user credentials and each client's
operation script, every operation carrying its expected outcome. The same
workload and seed always give the same inputs; only key material the
client generates at run time (capability session keys) is fresh.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from casauth.casd.db import CommunityDB, PolicyStatement, UserEntry, serialize_db
from casauth.credential.certs import ValidityInterval, save_trust_store
from casauth.credential.issue import CertificateAuthority, reset_serial_counters
from casauth.credfile import save_credential
from casauth.policy.model import ALL, Action, ObjectPattern, PolicyDocument, Right
from casauth.resourced.grants import serialize_grant_table

import oracle

VALIDITY = ValidityInterval(0, 4_000_000_000)
CA_NAME = "CN=bench-ca"
CASD_IDENTITY = "CN=casd.bench"
RESOURCED_IDENTITY = "CN=files.bench"
SCRIPT_LENGTH = 2048  # operations per client script; scripts repeat when exhausted


@dataclass(frozen=True)
class Shape:
    users: int           # enrolled community members
    groups: int          # user groups (each member is in two)
    pool: int            # members with issued credentials who drive the load
    admin_cycles: int = 0  # enroll/group-add/grant/revoke cycles in the admin script


SHAPES = {
    "capability-churn": Shape(users=50_000, groups=500, pool=64),
    "file-session": Shape(users=1_000, groups=20, pool=2),
    "admin-mix": Shape(users=10_000, groups=100, pool=64, admin_cycles=600),
}

FS_DIRS = 12           # directories per file-session client
FS_WRITABLE = 8        # of which the first ones are writable
FS_FILES = 8           # files per directory
FS_PAYLOADS = 48       # distinct write payloads per client
FS_PROBES = 8          # non-canonical names per form and action, per client and run


@dataclass
class PoolUser:
    name: str
    chain: Any
    key: Any
    held: frozenset      # rights the community grants, as oracle triples
    groups: tuple[str, ...]


@dataclass(frozen=True)
class AcquireOp:
    kind: str                  # acquire.all | acquire.narrow | acquire.deny
    user: int                  # index into the pool
    want: Any                  # ALL or a PolicyDocument
    expect: frozenset | None   # granted triples, or None when Denied is expected
    read_path: str | None      # object read with the capability when granted


@dataclass(frozen=True)
class FileOp:
    kind: str                  # read|write|list, suffixed .outside or .noncanonical
    action: str
    path: str                  # raw object name sent on the wire
    canonical: str
    expect: str                # "ok" or "denied", judged on the canonical name
    payload: int = -1          # index into the client's payloads, for writes


@dataclass(frozen=True)
class AdminOp:
    verb: str
    args: tuple[str, ...]
    grant_offset: int = -1     # for grants: expected id minus the snapshot's next-id


@dataclass
class Inputs:
    workload: str
    directory: Path
    casd_args: list[str]
    resourced_args: list[str]
    trust_store: frozenset
    pool: list[PoolUser]
    files: dict[str, bytes]            # canonical object name -> initial content
    scripts: list[list]                # one operation script per client
    probes: list[list] = field(default_factory=list)  # per file-session client, sent once
    admin: tuple | None = None         # (chain, key) of the delegated administrator
    admin_script: list[AdminOp] = field(default_factory=list)
    next_statement_id: int = 1
    capability_rights: list[frozenset] = field(default_factory=list)
    payloads: list[list[bytes]] = field(default_factory=list)
    dir_listing: dict[str, list[str]] = field(default_factory=dict)


def _right(pattern: str, service: str, action: str) -> Right:
    return Right((ObjectPattern(pattern),), (Action(service, action),))


def document(triples) -> PolicyDocument:
    return PolicyDocument(rights=tuple(_right(*t) for t in triples))


def _write_files(root: Path, files: dict[str, bytes]) -> None:
    for name, content in files.items():
        target = root.joinpath(*name.strip("/").split("/"))
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_bytes(content)


def community(shape: Shape, rng: random.Random, extra_statements=()):
    """Members u00000.. each in two groups; statements on homes, group resources and rgroups.

    Returns the database (without trust anchors) and, per member index, the
    triples the community grants that member.
    """
    db = CommunityDB()
    names = [f"u{i:05d}" for i in range(shape.users)]
    groups = [f"g{j:03d}" for j in range(shape.groups)]
    rgroups = [f"rg{j:02d}" for j in range(max(1, shape.groups // 10))]
    for name in names:
        db.users[name] = UserEntry(f"CN={name}", True)
    for j, group in enumerate(groups):
        db.resources[f"r{j:03d}"] = f"/proj/{group}/*"
        db.user_groups[group] = set()
    for k, rgroup in enumerate(rgroups):
        db.resource_groups[rgroup] = {f"r{j:03d}" for j in range(len(groups))
                                      if j // 10 == k}
    membership = []
    for name in names:
        first, second = rng.randrange(len(groups)), rng.randrange(len(groups) - 1)
        mine = tuple(sorted((groups[first], groups[second + (second >= first)])))
        membership.append(mine)
        for group in mine:
            db.user_groups[group].add(name)

    specs = [(("user", name), ("pattern", f"/home/{name}/*"), "file", "read") for name in names]
    for j, group in enumerate(groups):
        specs.append((("group", group), ("resource", f"r{j:03d}"), "file", "read"))
        specs.append((("group", group), ("rgroup", rgroups[min(j // 10, len(rgroups) - 1)]),
                      "file", "list"))
    specs.extend(extra_statements)
    rng.shuffle(specs)
    for sid, ((gk, gv), (ok, ov), service, action) in enumerate(specs, 1):
        db.statements.append(PolicyStatement(sid, gk, gv, ok, ov, service, action))
    db.next_statement_id = len(specs) + 1

    def held(index: int) -> frozenset:
        triples = {(f"/home/{names[index]}/*", "file", "read")}
        for group in membership[index]:
            j = int(group[1:])
            triples.add((f"/proj/{group}/*", "file", "read"))
            rgroup = rgroups[min(j // 10, len(rgroups) - 1)]
            for member in db.resource_groups[rgroup]:
                triples.add((db.resources[member], "file", "list"))
        return frozenset(triples)

    return db, names, membership, held


def _churn_script(rng: random.Random, pool: list[PoolUser], groups: list[str]) -> list[AcquireOp]:
    """Acquire-then-read iterations: 60% want=all, 30% narrowed, 10% expected Denied."""
    script = []
    for _ in range(SCRIPT_LENGTH):
        index = rng.randrange(len(pool))
        user = pool[index]
        own = [f"/proj/{g}/f{rng.randrange(4)}" for g in user.groups]
        foreign = rng.choice(groups)
        while foreign in user.groups:
            foreign = rng.choice(groups)
        r = rng.random()
        if r < 0.6:
            read = rng.choice(own + [f"/home/{user.name}/f0"])
            script.append(AcquireOp("acquire.all", index, ALL, user.held, read))
        elif r < 0.9:
            target = rng.choice(own)
            requested = [(target, "file", "read")]
            if rng.random() < 0.5:
                requested.append((f"/proj/{foreign}/f0", "file", "read"))
            expect = oracle.narrow(user.held, requested)
            script.append(AcquireOp("acquire.narrow", index, document(requested), expect, target))
        else:
            requested = rng.choice([[(f"/proj/{foreign}/*", "file", "read")],
                                    [(f"/home/{user.name}/*", "file", "write")]])
            assert not oracle.narrow(user.held, requested)
            script.append(AcquireOp("acquire.deny", index, document(requested), None, None))
    return script


def _issue_pool(ca, rng, names, indices, held, membership) -> list[PoolUser]:
    pool = []
    for i in indices:
        chain, key = ca.issue_credential(f"CN={names[i]}", VALIDITY, rng=rng)
        pool.append(PoolUser(names[i], chain, key, held(i), membership[i]))
    return pool


def _churn_files(rng: random.Random, pool: list[PoolUser]) -> dict[str, bytes]:
    """Each pool member's home file and four files in each of their groups."""
    files = {}
    for user in pool:
        files[f"/home/{user.name}/f0"] = rng.randbytes(rng.randrange(256, 2048))
        for group in user.groups:
            for f in range(4):
                if f"/proj/{group}/f{f}" not in files:
                    files[f"/proj/{group}/f{f}"] = rng.randbytes(rng.randrange(256, 2048))
    return files


def _spread_sizes(rng: random.Random, n: int) -> list[int]:
    """n sizes spread evenly over 1-16 KiB, shuffled: every seed moves the same bytes."""
    sizes = [1024 + (15 * 1024 * i) // (n - 1) for i in range(n)]
    rng.shuffle(sizes)
    return sizes


def _file_session(rng: random.Random, shape: Shape):
    """Two clients, each with its own tree under /fs/cK and a capability of 32 rights."""
    clients = [f"cli{k}" for k in range(shape.pool)]
    extra = []
    rights = []
    for k, name in enumerate(clients):
        mine = set()
        for d in range(FS_DIRS):
            base = f"/fs/c{k}/d{d:02d}/*"
            actions = ["read", "list"] + (["write"] if d < FS_WRITABLE else [])
            for action in actions:
                extra.append((("user", name), ("pattern", base), "file", action))
                mine.add((base, "file", action))
        rights.append(frozenset(mine))
    files = {}
    listing = {}
    for k in range(len(clients)):
        sizes = _spread_sizes(rng, FS_DIRS * FS_FILES)
        for d in range(FS_DIRS):
            directory = f"/fs/c{k}/d{d:02d}"
            listing[directory] = [f"f{f}" for f in range(FS_FILES)]
            for f in range(FS_FILES):
                files[f"{directory}/f{f}"] = rng.randbytes(sizes.pop())
    listing["/fs/secret"] = [f"s{j}" for j in range(FS_FILES)]
    for j in range(FS_FILES):
        files[f"/fs/secret/s{j}"] = rng.randbytes(rng.randrange(1024, 4096))
    payloads = [[rng.randbytes(size) for size in _spread_sizes(rng, FS_PAYLOADS)]
                for _ in clients]
    return clients, extra, rights, files, listing, payloads


def _session_script(rng: random.Random, k: int, clients: int, rights: frozenset) -> list[FileOp]:
    """70% reads, 20% writes, 10% lists; 5% outside the capability."""
    script = []
    writes = 0
    for _ in range(SCRIPT_LENGTH):
        action = rng.choices(("read", "write", "list"), weights=(70, 20, 10))[0]
        d = rng.randrange(FS_WRITABLE if action == "write" else FS_DIRS)
        leaf = f"f{rng.randrange(FS_FILES)}"
        kind = action
        other = k
        if rng.random() < 0.05:
            kind = f"{action}.outside"
            if action == "write" and rng.random() < 0.5:
                d = rng.randrange(FS_WRITABLE, FS_DIRS)
            else:
                other = (k + 1 + rng.randrange(clients - 1)) % clients
        directory = f"/fs/c{other}/d{d:02d}"
        path = directory if action == "list" else f"{directory}/{leaf}"
        expect = "ok" if oracle.permits(rights, "file", action, path) else "denied"
        payload = -1
        if action == "write":
            payload, writes = writes % FS_PAYLOADS, writes + 1
        script.append(FileOp(kind, action, path, path, expect, payload))
    return script


def _probe_script(rng: random.Random, k: int, rights: frozenset) -> list[FileOp]:
    """Non-canonical names, FS_PROBES of each form and action, sent once per run.

    The forms are ``//``, ``/./``, ``x/..`` inside the client's own tree
    and ``../..`` out of it into /fs/secret. Every seed sends the same
    number of each, so the count of mismatches is a property of the code
    and does not follow throughput.
    """
    script = []
    writes = 0
    for action in ("read", "write", "list"):
        for form in range(4):
            for _ in range(FS_PROBES):
                d = rng.randrange(FS_WRITABLE if action == "write" else FS_DIRS)
                directory = f"/fs/c{k}/d{d:02d}"
                leaf = f"f{rng.randrange(FS_FILES)}"
                name = directory if action == "list" else f"{directory}/{leaf}"
                if form == 0:
                    path = name.replace(f"/c{k}/", f"/c{k}//", 1)
                elif form == 1:
                    path = name.replace(f"/c{k}/", f"/c{k}/./", 1)
                elif form == 2:
                    path = f"{directory}/x/.." + ("" if action == "list" else f"/{leaf}")
                else:
                    target = "" if action == "list" else f"/s{rng.randrange(FS_FILES)}"
                    path = f"{directory}/../../secret{target}"
                canon = oracle.canonical(path)
                expect = "ok" if oracle.permits(rights, "file", action, canon) else "denied"
                payload = -1
                if action == "write":
                    payload, writes = writes % FS_PAYLOADS, writes + 1
                script.append(FileOp(f"{action}.noncanonical", action, path, canon, expect,
                                     payload))
    rng.shuffle(script)
    return script


def _admin_script(rng: random.Random, groups: list[str], cycles: int) -> list[AdminOp]:
    """Enroll a newcomer, add them to a group, grant them a pattern, revoke that grant."""
    script = []
    for k in range(cycles):
        name = f"new{k:05d}"
        script.append(AdminOp("enroll-user", (name, f"CN={name}")))
        script.append(AdminOp("group-add", (rng.choice(groups), name)))
        script.append(AdminOp("grant", (f"user:{name}", f"pattern:/adm/{name}/*", "file", "read"),
                              grant_offset=k))
        script.append(AdminOp("revoke", ("{id}",), grant_offset=k))
    return script


ADMIN_NAME = "admin0"
ADMIN_STATEMENTS = [
    (("user", ADMIN_NAME), ("pattern", "users"), "cas", "enroll-user"),
    (("user", ADMIN_NAME), ("pattern", "*"), "cas", "group-add"),
    (("user", ADMIN_NAME), ("pattern", "statements"), "cas", "grant"),
    (("user", ADMIN_NAME), ("pattern", "statements"), "cas", "revoke"),
]


def generate(workload: str, seed: int, directory: Path) -> Inputs:
    shape = SHAPES[workload]
    rng = random.Random(f"{workload}/{seed}")
    reset_serial_counters()
    directory.mkdir(parents=True, exist_ok=True)
    ca = CertificateAuthority.create(CA_NAME, VALIDITY, rng=rng)
    casd_cred = ca.issue_credential(CASD_IDENTITY, VALIDITY, rng=rng)
    resourced_cred = ca.issue_credential(RESOURCED_IDENTITY, VALIDITY, rng=rng)

    clients = rights = listing = payloads = None
    probes = []
    extra = []
    if workload == "file-session":
        clients, extra, rights, files, listing, payloads = _file_session(rng, shape)
    elif workload == "admin-mix":
        extra = list(ADMIN_STATEMENTS)
    db, names, membership, held = community(shape, rng, extra)
    groups = list(db.user_groups)
    admin = None
    if workload == "file-session":
        for name in clients:
            db.users[name] = UserEntry(f"CN={name}", True)
        pool = [PoolUser(name, *ca.issue_credential(f"CN={name}", VALIDITY, rng=rng), rights[k], ())
                for k, name in enumerate(clients)]
        scripts = [_session_script(rng, k, len(clients), rights[k]) for k in range(len(clients))]
        probes = [_probe_script(rng, k, rights[k]) for k in range(len(clients))]
        grants = {CASD_IDENTITY: document(("/fs/*", "file", a) for a in ("read", "write", "list"))}
    else:
        pool = _issue_pool(ca, rng, names, rng.sample(range(len(names)), shape.pool),
                           held, membership)
        files = _churn_files(rng, pool)
        scripts = [_churn_script(rng, pool, groups)]
        if workload == "capability-churn":
            scripts.append(_churn_script(rng, pool, groups))
        else:
            db.users[ADMIN_NAME] = UserEntry(f"CN={ADMIN_NAME}", True)
            admin = ca.issue_credential(f"CN={ADMIN_NAME}", VALIDITY, rng=rng)
        grants = {CASD_IDENTITY: document((p, "file", a) for p in ("/home/*", "/proj/*")
                                           for a in ("read", "list"))}
    # Rows for other grantors make the table look like a shared resource's.
    for j in range(8):
        grants[f"CN=partner{j}.bench"] = document([(f"/partner{j}/*", "file", "read")])

    (directory / "community.db").write_bytes(serialize_db(db))
    save_trust_store(directory / "trust", {ca.certificate})
    save_credential(directory / "casd.cred", *casd_cred)
    save_credential(directory / "resourced.cred", *resourced_cred)
    (directory / "grants").write_bytes(serialize_grant_table(grants))
    _write_files(directory / "root", files)

    inputs = Inputs(
        workload=workload, directory=directory,
        casd_args=["--listen", "127.0.0.1:0", "--db", str(directory / "community.db"),
                   "--cred", str(directory / "casd.cred"), "--trust", str(directory / "trust")],
        resourced_args=["--listen", "127.0.0.1:0", "--root", str(directory / "root"),
                        "--cred", str(directory / "resourced.cred"),
                        "--trust", str(directory / "trust"),
                        "--grants", str(directory / "grants")],
        trust_store=frozenset({ca.certificate}),
        pool=pool, files=files, scripts=scripts, probes=probes, admin=admin,
        next_statement_id=db.next_statement_id,
    )
    if workload == "file-session":
        inputs.capability_rights = rights
        inputs.payloads = payloads
        inputs.dir_listing = listing
    if workload == "admin-mix":
        inputs.admin_script = _admin_script(rng, groups, shape.admin_cycles)
    return inputs
