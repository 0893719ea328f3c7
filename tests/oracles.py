"""Independent oracles the test suite checks the implementation against.

Nothing here may call into the evaluation or verification paths under
test: the matcher is regex-based, document evaluation is an exhaustive
scan over (right, action, pattern) triples, and chain validity is plain
per-interval membership.
"""

from __future__ import annotations

import re

from genutils import PATTERNS


def oracle_match(pattern: str, obj: str) -> bool:
    """Regex translation of the pattern language."""
    if pattern == "*":
        regex = r".*"
    elif pattern.endswith("/*"):
        regex = re.escape(pattern[:-2]) + r"(/.*)?"
    else:
        regex = re.escape(pattern)
    return re.fullmatch(regex, obj) is not None


def compile_pattern(pattern: str):
    if pattern == "*":
        return re.compile(r".*")
    if pattern.endswith("/*"):
        return re.compile(re.escape(pattern[:-2]) + r"(/.*)?")
    return re.compile(re.escape(pattern))


def oracle_evaluate(doc, request) -> bool:
    """Exhaustive membership scan over every (right, action, pattern)."""
    for right in doc.rights:
        for action in right.actions:
            if (action.service_type, action.action_name) != (
                    request.service_type, request.action_name):
                continue
            for pattern in right.objects:
                if oracle_match(pattern.pattern, request.object):
                    return True
    return False


def oracle_stack(docs, request) -> bool:
    """Conjunction of per-document results; empty stack permits."""
    return all(oracle_evaluate(doc, request) for doc in docs)


def oracle_chain_valid_at(intervals, t: int) -> bool:
    """A chain verifies at t iff t lies inside every certificate's interval."""
    return all(nb <= t <= na for nb, na in intervals)


def oracle_user_rights_permit(db, identity: str, request) -> bool:
    """Exhaustive scan of statements times group memberships.

    Independent expansion of the community database: direct user grants
    and grants to any group containing the user, with resources and
    resource groups expanded to their object strings.
    """
    user = None
    for name, entry in db.users.items():
        if entry.enrolled and entry.identity == identity:
            user = name
            break
    if user is None:
        return False
    for stmt in db.statements:
        if (stmt.service_type, stmt.action_name) != (
                request.service_type, request.action_name):
            continue
        if stmt.grantee_kind == "user":
            if stmt.grantee != user:
                continue
        else:
            if user not in db.user_groups.get(stmt.grantee, set()):
                continue
        if stmt.object_kind == "resource":
            patterns = [db.resources[stmt.object_ref]]
        elif stmt.object_kind == "rgroup":
            patterns = [db.resources[m]
                        for m in db.resource_groups.get(stmt.object_ref, set())]
        else:
            patterns = [stmt.object_ref]
        if any(oracle_match(p, request.object) for p in patterns):
            return True
    return False



def oracle_intersect(held, requested) -> set:
    """(pattern, action) pairs of ``requested`` that some held pattern with
    the same action contains.

    Containment is judged by ``oracle_match`` over a finite universe: each
    ``genutils.PATTERNS`` stem, that stem plus ``/z``, and ``/zz``.
    """
    stems = [p.removesuffix("*").removesuffix("/") for p in PATTERNS]
    universe = [name for stem in stems for name in (stem, stem + "/z")] + ["/zz"]

    def contains(general: str, specific: str) -> bool:
        return all(oracle_match(general, name) for name in universe
                   if oracle_match(specific, name))

    held_pairs = [(p.pattern, a) for right in held.rights
                  for a in right.actions for p in right.objects]
    return {(p.pattern, a) for right in requested.rights
            for a in right.actions for p in right.objects
            if any(a == ha and contains(hp, p.pattern) for hp, ha in held_pairs)}
