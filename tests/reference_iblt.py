"""The per-key IBLT insertion, kept as a reference for differential tests.

``gensync.iblt.build_table`` hashes a block of keys at a time and reads
each row's cell as the next digit of a packed index hash; this is the
insertion of one key at a time that it must reproduce, cell for cell. It
takes the digits the other way round, from the closed form: index hash i
serves rows ``i*r`` to ``i*r + c - 1``, and their cells are the base-``part``
digits of ``h * part^c >> 64``, most significant first, where r is the
largest number of rows with ``part^r <= 2^40``.
"""

from gensync.hashing import derive_seed, keyed_hash


def rows_per_index_hash(part: int, num_hashes: int) -> int:
    return max([1] + [r for r in range(1, num_hashes + 1) if part**r <= 2**40])


def cells(table, key: int) -> list[int]:
    """The key's cell in each row, row 0 first."""
    k = table.num_hashes
    part = table.num_cells // k
    r = rows_per_index_hash(part, k)
    out = []
    for i, first_row in enumerate(range(0, k, r)):
        c = min(r, k - first_row)
        value = keyed_hash(derive_seed(table.seed, i), key) * part**c >> 64
        for j in range(c):
            digit = value // part ** (c - 1 - j) % part
            out.append((first_row + j) * part + digit)
    return out


def word(table, key: int) -> int:
    """``key << 64 | check``, what the key XORs into each of its cells."""
    return key << 64 | keyed_hash(derive_seed(table.seed, 0xC0), key)


def insert(table, key: int) -> None:
    """Add one to the count of each of the key's k cells, and XOR in its word."""
    w = word(table, key)
    for idx in cells(table, key):
        table.counts[idx] += 1
        table.words[idx] ^= w
