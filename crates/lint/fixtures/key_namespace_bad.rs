// Fixture: stable-key namespaces spelled outside the key table — each
// escapes the table's disjointness check. Three findings.

const SNAPSHOT_COPY: u64 = 3 << 56;

fn vote_key(instance: u64) -> u64 {
    (1u64<<56) | instance
}

fn rebase(key: &mut u64) {
    *key <<= 56;
}
