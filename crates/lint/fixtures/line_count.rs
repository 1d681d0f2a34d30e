//! Non-test line count fixture: seven lines count, marked `counts`.

/// A doc line does not count.
pub fn live() -> u32 { // counts
    // A comment line does not count.
    let x = 1; // counts

    x + 1 // counts
} // counts

#[cfg(test)]
fn helper() -> u32 {
    7
}

    // An indented comment does not count.
pub fn tail() -> u32 { // counts: code after a test item counts again
    live() // counts
} // counts

#[cfg(test)]
mod tests {
    #[test]
    fn t() {}
}
