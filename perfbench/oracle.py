"""Correctness checks for one sync, computed apart from the program.

The benchmark keeps its own copy of each peer's set. Before comparing,
it maps identifiers the way the README documents for CPI (reduction
modulo the Mersenne prime 2^61 - 1, applied at ingestion); IBLT and
cuckoo keep identifiers as they are. Every check returns the names of
the rules a result breaks, so that the self-test can show each rule
firing on a corrupted result.
"""

from __future__ import annotations

import math

CPI_MODULUS = (1 << 61) - 1

# the rules, by the name a violation carries
BYTES = "bytes-disagree"
LOST = "element-lost"
INVENTED = "element-invented"
NOT_UNION = "not-the-union"
RECOVERED = "recovered-count-wrong"
MISSED_TAIL = "missed-beyond-tail-bound"

# the tail probability below which a cuckoo miss total is called wrong
TAIL_PROBABILITY = 1e-9


def view(protocol: str, x: int) -> int:
    """The value a peer stores for identifier ``x`` under ``protocol``."""
    return x % CPI_MODULUS if protocol == "CPI" else x


def check_sync(protocol, before_client, before_server, after_client, after_server, obs_client, obs_server):
    """Rules broken by one sync; ``before_*`` are the benchmark's own sets.

    Every protocol must conserve bytes (the two endpoints keep separate
    ledgers) and neither lose nor invent an element. Nothing invented is
    the same condition as every learned element being a true difference:
    ``after - before <= other - before`` holds exactly when ``after`` lies
    within the union. CPI and IBLT must also leave
    both peers holding exactly the union, with the client's count of
    recovered differences equal to the size of the symmetric difference.
    A sync that reported failure is held to the first three rules only.
    """
    broken = []
    if obs_client.bytes_transmitted != obs_server.bytes_transmitted:
        broken.append(BYTES)
    union = before_client | before_server
    if not (before_client <= after_client and before_server <= after_server):
        broken.append(LOST)
    if not (after_client <= union and after_server <= union):
        broken.append(INVENTED)
    if protocol != "CUCKOO" and obs_client.success and obs_server.success:
        if after_client != union or after_server != union:
            broken.append(NOT_UNION)
        if obs_client.differences_recovered != len(before_client ^ before_server):
            broken.append(RECOVERED)
    return broken


def missed(before_client, before_server, after_client, after_server, carried=frozenset()) -> tuple[int, int]:
    """(undiscovered differences, differences) of one sync, both new ones only.

    ``carried`` holds the differences an earlier sync of the same pair
    left undiscovered. The pair keeps its hash seed, so the fingerprint
    collision that hid them hides them again: they are not fresh trials
    of the miss rate and are left out of both counts.
    """
    diffs = (before_client ^ before_server) - carried
    learned = (after_client - before_client) | (after_server - before_server)
    return len(diffs - learned), len(diffs)


def cuckoo_rate(bucket_size: int, fingerprint_bits: int) -> float:
    """The documented per-difference miss rate ``2b / 2^f``."""
    return 2 * bucket_size / (1 << fingerprint_bits)


def binomial_tail_limit(trials: int, rate: float, tail: float = TAIL_PROBABILITY) -> int:
    """Smallest ``k`` with P(Binomial(trials, rate) >= k) <= ``tail``."""
    if trials == 0:
        return 1
    log_pmf = trials * math.log1p(-rate)
    above = 1.0  # P(X >= k) for the current k
    k = 0
    while above > tail and k < trials:
        above -= math.exp(log_pmf)
        log_pmf += math.log((trials - k) / (k + 1)) + math.log(rate / (1 - rate))
        k += 1
    return k + 1 if above > tail else k


def check_missed_total(undiscovered: int, differences: int, rate: float):
    """Rules broken by a run's total of undiscovered cuckoo differences."""
    if undiscovered >= binomial_tail_limit(differences, rate):
        return [MISSED_TAIL]
    return []
