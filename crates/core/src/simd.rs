//! The name of the kernel implementation the miner runs.
//!
//! Every inner loop of the miner (sorted-set intersection, bitset-row AND,
//! verdict-block scan, season run detection) is one portable scalar
//! function next to its caller. This module exists only because
//! `perfbench/src/machine.rs` reads [`detected()`]`.name()` for the machine
//! facts of the end-to-end benchmark, and `perfbench/` must not change.

/// The kernel implementation in use: always the portable scalar code.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Kernels;

impl Kernels {
    /// Implementation name, always `"scalar"`.
    #[must_use]
    pub fn name(self) -> &'static str {
        "scalar"
    }
}

/// The kernel implementation in use.
#[must_use]
pub fn detected() -> Kernels {
    Kernels
}
