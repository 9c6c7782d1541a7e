"""The per-key IBLT insertion, kept as a reference for differential tests.

``gensync.iblt.build_table`` hashes a block of keys at a time; this is the
insertion of one key at a time that it must reproduce, cell for cell.
"""

from gensync.hashing import keyed_hash


def insert(table, key: int) -> None:
    """Add one to the count of each of the key's k cells, and XOR in ``key << 64 | check``."""
    word = key << 64 | keyed_hash(table._check_seed, key)
    part = table._partition
    for j, row_seed in enumerate(table._row_seeds):
        idx = j * part + keyed_hash(row_seed, key) % part
        table.counts[idx] += 1
        table.words[idx] ^= word
