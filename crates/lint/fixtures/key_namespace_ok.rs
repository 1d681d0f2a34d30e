// Fixture: shifts that are not a key namespace, and namespaces named in
// comments and strings. All clean.

// The snapshot once shared `3 << 56` with the rbcast counter.
const NIBBLE: u64 = 1 << 4;
const BYTE: u64 = 1 << 8;

fn describe() -> &'static str {
    "keys are N << 56"
}

fn decode(key: u64) -> u64 {
    key >> 56
}
