//! The sanctioned lane kernel: the same uses as `bad_unsafe.rs`, no
//! findings.

use std::arch::x86_64::__m512i;

#[allow(unsafe_code)]
fn ticks() -> u64 {
    if is_x86_feature_detected!("avx512f") {
        // SAFETY: fixture.
        return unsafe { core::arch::x86_64::_rdtsc() };
    }
    0
}
