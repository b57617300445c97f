//! Helpers shared by the crash-recovery suites. Each test binary uses a
//! different part of them.
#![allow(dead_code)]

pub mod crash;
