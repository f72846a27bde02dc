"""Fixture package for the lifecycle pass.

Each module seeds at least one violation of one of the pass's rules
(`lifecycle-leak`, `lifecycle-exception-leak`) next to a clean twin that
must NOT be flagged.  Module names matter: protocol scopes select on the
last dotted component (`runner`, `worker`, `ledger`).
"""
