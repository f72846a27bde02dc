"""Fixture package for the protocol/lifecycle pass family.

Each module seeds at least one violation of one of the family's rules
(`lifecycle-leak`, `lifecycle-exception-leak`, `snapshot-uncaptured`,
`snapshot-skip-drift`, `snapshot-stale-skip`) next to a clean twin that
must NOT be flagged.  Module names matter: protocol scopes select on the last
dotted component (`runner`, `worker`, `ledger`), and the snapshot pass
activates on a module named `checkpoint` defining ``_SKIP_COMMON``.
"""
