//! The partition count, kept as one inert name: every kernel in this
//! crate is serial and the crate starts no thread (README, *Every kernel
//! is serial*, has the measurement that decided it).

/// The partition count of every kernel: always `1`.
///
/// Inert: nothing in the workspace partitions. It is kept only because the
/// frozen end-to-end benchmark (`benchmark/`) calls it; ROADMAP item 1(g)
/// removes that call and then this function.
pub fn default_parallelism() -> usize {
    1
}
